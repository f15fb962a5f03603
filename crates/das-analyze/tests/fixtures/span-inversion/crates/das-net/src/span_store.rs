//! Seeded defect: `record` holds `spans` (rank 10, the declared leaf
//! — the flight recorder's ring, under which nothing may be acquired)
//! while calling `mirror_gauges`, which acquires `sched` (rank 5) —
//! the inversion the SpanStore leaf rank exists to forbid, visible
//! only across the call. Must fail `--deny --pass locks` with DA407.

pub struct SpanStore;

impl SpanStore {
    fn record(&self) {
        let g = lock(&self.spans);
        self.mirror_gauges();
        drop(g);
    }

    fn mirror_gauges(&self) {
        let s = lock(&self.sched);
        let _ = s;
    }
}
