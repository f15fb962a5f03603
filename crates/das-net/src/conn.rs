//! The client-side connection core: one live, greeted connection to a
//! `dasd`, as each RPC user holds it — [`crate::client::DasCluster`]'s
//! serial slots, a daemon's [`crate::peer::PeerTable`] links and the
//! write half of a [`crate::pipeline::PipeClient`].
//!
//! It owns what all three must decide identically: the
//! `Hello`/`HelloOk` handshake, which optional frame fields the
//! server's capabilities admit, how long a reply may take, and what a
//! reply frame means to the caller. Redial, retry, hedging, circuit
//! breaking and reply demultiplexing stay with the users — the core
//! only lets a user ask, without consuming anything, whether a reply
//! has begun ([`RpcConn::wait_readable`]), and which request a reply
//! answers ([`RpcConn::recv_echo`]), which is all a strip wave needs to
//! keep many requests in flight on several of these from one thread.
//! After a transport error ([`NetError::is_transport`]) the connection
//! is in an unknown state and its owner drops it.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use crate::codec::{
    frame_parts_summed, read_frame, read_message, write_frame_vectored, write_message_opts, CountingStream,
    NetError,
};
use crate::proto::{Message, Role, CAP_DEADLINE, CAP_TRACE, LOCAL_CAPS};
use crate::retry::RetryPolicy;

/// A connection that has completed the handshake.
pub(crate) struct RpcConn {
    stream: CountingStream<TcpStream>,
    /// Capabilities the server's `HelloOk` advertised.
    caps: u32,
}

/// Offloaded executes and redistribution phases do real work (kernel
/// compute, bulk strip movement) before replying: they get a far longer
/// reply deadline than the per-frame read timeout, or a busy server
/// looks dead — and their latency says nothing about a strip read, so
/// they never feed a [`crate::hedge::LoadTracker`].
pub(crate) fn is_long_op(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Execute { .. } | Message::RedistPrepare { .. } | Message::RedistCommit { .. }
    )
}

/// How long the sender of `msg` waits for its reply: the policy's read
/// timeout, ten of them for a long operation, eight on a pipelined
/// connection — a reply there legitimately queues behind every other
/// request in flight.
pub(crate) fn reply_deadline(policy: &RetryPolicy, msg: &Message, pipelined: bool) -> Duration {
    let factor = match (is_long_op(msg), pipelined) {
        (true, _) => 10,
        (false, true) => 8,
        (false, false) => 1,
    };
    policy.read_timeout.saturating_mul(factor)
}

/// What one reply frame means to the caller: a typed
/// [`Message::Error`] is [`NetError::Remote`], a close where the reply
/// should be is a transport error.
pub(crate) fn reply(frame: Result<Option<Message>, NetError>) -> Result<Message, NetError> {
    match frame? {
        Some(Message::Error { code, message }) => Err(NetError::Remote { code, message }),
        Some(reply) => Ok(reply),
        None => Err(NetError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed where a reply was due",
        ))),
    }
}

impl RpcConn {
    /// Dial `addr` under `policy`'s timeouts and shake hands as `role`
    /// (`peer_id` is the dialling daemon's id; clients send 0). A
    /// server that refuses the `Hello` with a typed error is reported
    /// as that error.
    pub(crate) fn dial(
        addr: &str,
        policy: &RetryPolicy,
        role: Role,
        peer_id: u32,
    ) -> Result<RpcConn, NetError> {
        let mut stream = CountingStream::new(policy.connect(addr)?);
        write_message_opts(&mut stream, &Message::Hello { role, peer_id, caps: LOCAL_CAPS }, None, None)?;
        match reply(read_message(&mut stream))? {
            Message::HelloOk { caps, .. } => Ok(RpcConn { stream, caps }),
            other => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// Whether the server advertised capability bit(s) `cap`.
    pub(crate) fn has(&self, cap: u32) -> bool {
        self.caps & cap != 0
    }

    /// The underlying socket (to clone a read half, or shut it down).
    pub(crate) fn socket(&self) -> &TcpStream {
        self.stream.get_ref()
    }

    /// Handles on the connection's `(received, sent)` byte counters.
    pub(crate) fn counters(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (self.stream.bytes_in(), self.stream.bytes_out())
    }

    /// Write one request. `trace` goes on the wire only to a
    /// [`CAP_TRACE`] server and `budget` — how long the sender will
    /// still wait, which lets an overloaded server shed the request
    /// instead of answering into the void — only to a [`CAP_DEADLINE`]
    /// one, so a legacy server keeps seeing bit-identical frames. A
    /// live sub-millisecond budget rounds up to 1 ms rather than
    /// reading as spent.
    pub(crate) fn send(
        &mut self,
        msg: &Message,
        trace: Option<u64>,
        budget: Option<Duration>,
    ) -> Result<(), NetError> {
        self.send_summed(msg, None, trace, budget)
    }

    /// [`RpcConn::send`] for a sender that holds `blob_sum`, the
    /// checksum of `msg`'s blob alone: the frame is signed from it
    /// without reading the blob again.
    pub(crate) fn send_summed(
        &mut self,
        msg: &Message,
        blob_sum: Option<u32>,
        trace: Option<u64>,
        budget: Option<Duration>,
    ) -> Result<(), NetError> {
        let trace = trace.filter(|_| self.has(CAP_TRACE));
        let budget_ms = budget
            .filter(|_| self.has(CAP_DEADLINE))
            .map(|b| b.as_millis().clamp(1, u128::from(u32::MAX)) as u32);
        Ok(write_frame_vectored(&mut self.stream, &frame_parts_summed(msg, blob_sum, trace, budget_ms))?)
    }

    /// Read the reply to `msg` on a connection with one request in
    /// flight.
    pub(crate) fn recv(&mut self, msg: &Message, policy: &RetryPolicy) -> Result<Message, NetError> {
        self.recv_echo(msg, policy).and_then(|(_, reply)| reply)
    }

    /// Read one reply, with the trace id it echoes: on a connection
    /// with several requests in flight, which of them it answers. `msg`
    /// is one of those requests; a long operation's reply gets its
    /// stretched deadline as the socket's read timeout for this one
    /// read. A transport error is the outer `Err`; a typed refusal is
    /// the reply.
    pub(crate) fn recv_echo(
        &mut self,
        msg: &Message,
        policy: &RetryPolicy,
    ) -> Result<(Option<u64>, Result<Message, NetError>), NetError> {
        let long_op = is_long_op(msg);
        if long_op {
            let _ = self.socket().set_read_timeout(Some(reply_deadline(policy, msg, false)));
        }
        let frame = read_frame(&mut self.stream);
        if long_op {
            let _ = self.socket().set_read_timeout(Some(policy.read_timeout));
        }
        let frame = frame?;
        let echo = frame.as_ref().and_then(|(_, trace)| *trace);
        match reply(Ok(frame.map(|(msg, _)| msg))) {
            Err(e) if e.is_transport() => Err(e),
            reply => Ok((echo, reply)),
        }
    }

    /// Whether the reply in flight has begun to arrive — or the
    /// connection has ended, which the [`RpcConn::recv`] that follows
    /// reports — within `timeout`; a zero `timeout` asks without
    /// blocking. A one-byte `peek`: the socket is read unbuffered, so
    /// nothing is consumed and `recv` still sees the whole frame.
    pub(crate) fn wait_readable(&self, timeout: Duration, policy: &RetryPolicy) -> bool {
        let sock = self.socket();
        let peeked = if timeout.is_zero() {
            let _ = sock.set_nonblocking(true);
            let peeked = sock.peek(&mut [0]);
            let _ = sock.set_nonblocking(false);
            peeked
        } else {
            let _ = sock.set_read_timeout(Some(timeout));
            let peeked = sock.peek(&mut [0]);
            let _ = sock.set_read_timeout(Some(policy.read_timeout));
            peeked
        };
        !peeked.is_err_and(|e| matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::Arc;

    use crate::client::DasCluster;
    use crate::codec::{read_message, write_message_opts, NetError};
    use crate::peer::PeerTable;
    use crate::pipeline::PipeClient;
    use crate::proto::{ErrorCode, Message};
    use crate::retry::RetryPolicy;
    use crate::server::StatsRegistry;

    /// A daemon that answers `Hello` with a typed error: each of the
    /// three users of the core reports that error, code and all.
    #[test]
    fn a_refused_hello_is_a_typed_remote_error_for_every_user() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stub = std::thread::spawn(move || {
            for _ in 0..3 {
                let (mut sock, _) = listener.accept().expect("accept");
                let hello = read_message(&mut sock).expect("read").expect("hello");
                assert!(matches!(hello, Message::Hello { .. }), "{hello:?}");
                let refusal =
                    Message::Error { code: ErrorCode::BadRequest, message: "not today".into() };
                write_message_opts(&mut sock, &refusal, None, None).expect("refuse");
            }
        });
        let policy = RetryPolicy::fast();
        let peers = PeerTable::with_policy(
            0,
            vec![String::new(), addr.clone()],
            Arc::new(StatsRegistry::default()),
            policy.clone(),
            Arc::new(das_obs::Registry::new()),
        );
        let outcomes = [
            ("DasCluster", DasCluster::connect_with(std::slice::from_ref(&addr), policy.clone()).err()),
            ("PeerTable", peers.call(1, &Message::Ping, None, None).err()),
            ("PipeClient", PipeClient::connect(&addr, &policy).err()),
        ];
        for (user, outcome) in outcomes {
            match outcome {
                Some(NetError::Remote { code: ErrorCode::BadRequest, message }) => {
                    assert_eq!(message, "not today", "{user}")
                }
                other => panic!("{user}: expected the typed refusal, got {other:?}"),
            }
        }
        stub.join().expect("stub listener");
    }
}
