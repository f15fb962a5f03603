// Fixture: a mutex-protected struct with one access path that
// bypasses the guard — the locks pass must flag it with a witness.
struct Inner {
    items: Vec<u32>,
    total: u64,
}

struct Store {
    inner: Mutex<Inner>,
    raw: Inner,
}

impl Store {
    fn push(&self, v: u32) {
        let mut inner = lock(&self.inner);
        inner.items.push(v);
        inner.total += 1;
    }

    fn racy_count(&self) -> usize {
        self.raw.items.len()
    }
}
