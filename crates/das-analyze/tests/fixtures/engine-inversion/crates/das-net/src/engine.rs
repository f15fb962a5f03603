//! Seeded defect: `route_done` holds `done` (rank 5) while calling
//! `adopt`, which acquires `inbox` (rank 4) — an inversion of the
//! event-loop engine's shard-queue lock order visible only across the
//! call. `route_done_at`/`adopt_at` repeat it in the engine's real form,
//! one queue per shard: `lock(&q.done[s])` is the lock `done`, not `s`.
//! Must fail `--deny --pass locks` with DA407 for both pairs.

pub struct Shard;

impl Shard {
    fn route_done(&self) {
        let d = lock(&self.done);
        self.adopt();
        drop(d);
    }

    fn adopt(&self) {
        let q = lock(&self.inbox);
        let _ = q;
    }

    fn route_done_at(&self, q: &Queues, s: usize) {
        let d = lock(&q.done[s]);
        self.adopt_at(q, s);
        drop(d);
    }

    fn adopt_at(&self, q: &Queues, s: usize) {
        let i = lock(&q.inbox[s]);
        let _ = i;
    }
}
