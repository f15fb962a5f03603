//! Seeded defect: `outer` holds `inner` (rank 2) and releases it only
//! on the early-return arm; the fall-through still holds it when it
//! calls `helper`, which acquires `conns` (rank 1) — a cross-function
//! inversion hidden by the `drop`. Must fail `--deny --pass locks` with
//! DA407.

pub struct Srv;

impl Srv {
    fn outer(&self, full: bool) {
        let i = lock(&self.inner);
        if full {
            drop(i);
            return;
        }
        self.helper();
    }

    fn helper(&self) {
        let c = lock(&self.conns);
        let _ = c;
    }
}
