//! Seeded defect: `observe` holds `ewma` (rank 9; only the span
//! recorder ranks below it) while calling `reorder`, which
//! acquires `sched` (rank 5) — an inversion of the hierarchy's
//! tail-tolerance ranks visible only across the call. Must fail
//! `--deny --pass locks` with DA407.

pub struct LoadTracker;

impl LoadTracker {
    fn observe(&self) {
        let e = lock(&self.ewma);
        self.reorder();
        drop(e);
    }

    fn reorder(&self) {
        let s = lock(&self.sched);
        let _ = s;
    }
}
