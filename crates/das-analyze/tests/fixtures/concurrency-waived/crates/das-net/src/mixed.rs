// Fixture: every concurrency finding in here is waived with a
// justifying comment — the locks and atomics passes must pass it
// under --deny, and none of the waivers may read as stale (DA430)
// or bare (DA714).
struct Inner {
    items: Vec<u32>,
}

struct Store {
    inner: Mutex<Inner>,
    // das-lint: allow(DA703) poison-recovery fallback, acquired via the ffi shim
    spare: Mutex<Vec<u32>>,
}

impl Store {
    fn push(&self, v: u32) {
        let mut inner = lock(&self.inner);
        inner.items.push(v);
    }

    fn startup_fill(&mut self, v: u32) {
        // das-lint: allow(DA701) single-threaded init: no worker has been spawned yet
        self.raw.items.push(v);
    }
}

fn pump(stop: &AtomicBool) {
    // das-lint: allow(DA711) pure quiesce flag — results are read only after join()
    while !stop.load(Ordering::Relaxed) {
        step();
    }
}
