//! Seeded defect for the blob-taint rule: a strip a peer sent back is
//! stored without its length ever being validated (DA503).

impl Srv {
    fn assemble(&self, u: u64, reply: Message) -> Result<(), NetError> {
        match reply {
            Message::StripData { payload } => {
                self.store.insert(u, payload);
                Ok(())
            }
            _ => Err(NetError::BadReply),
        }
    }
}
