//! Seeded defect: `outer` holds `inner` (rank 2) while calling
//! `helper`, which acquires `conns` (rank 1) — a cross-function
//! inversion of the declared hierarchy visible only across the call.
//! Must fail `--deny --pass locks` with DA407.

pub struct Srv;

impl Srv {
    fn outer(&self) {
        let g = lock(&self.inner);
        self.helper();
        drop(g);
    }

    fn helper(&self) {
        let c = lock(&self.conns);
        let _ = c;
    }
}
