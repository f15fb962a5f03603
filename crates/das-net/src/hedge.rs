//! Straggler tracking for the request path: per-server latency EWMAs
//! and the two decisions derived from them — **replica ordering**
//! (which holder to try first) and the **hedge delay** (how long to
//! wait on a chosen holder before racing the same request against the
//! next-best one).
//!
//! The estimator is the TCP RTT filter (RFC 6298 gains): an
//! exponentially weighted mean plus a mean-deviation term, updated
//! from the same call sites das-obs already times. Both consumers are
//! deliberately conservative:
//!
//! * Ordering demotes only clear stragglers: a holder is moved to the
//!   back of the walk only when its `mean + 2·dev` score exceeds a
//!   hysteresis multiple of the best sampled holder's. Healthy holders
//!   — and every unsampled one — keep the layout's primary-first
//!   order bit-for-bit, so ordinary latency jitter never reshuffles
//!   the walk, and a *dead* server (whose estimate froze at its last
//!   healthy value) is still attempted and surfaced through the
//!   failover machinery rather than silently routed around.
//! * The hedge delay is `mean + 4·dev` of the server being waited on
//!   (its RTO, in TCP terms), floored so a fast loopback cluster does
//!   not hedge every request, and capped so a wildly skewed estimate
//!   still hedges within a useful fraction of the caller's timeout.
//!   Until `MIN_SAMPLES` observations exist there is no estimate
//!   and no hedging — a cold client behaves exactly like a pre-hedge
//!   build.

use std::sync::Mutex;
use std::time::Duration;

use crate::server::lock;

/// EWMA gain for the mean (TCP's 1/8).
const GAIN_MEAN: f64 = 0.125;
/// EWMA gain for the mean deviation (TCP's 1/4).
const GAIN_DEV: f64 = 0.25;
/// Observations a server needs before its estimate is trusted for
/// hedging decisions.
const MIN_SAMPLES: u64 = 4;
/// Never hedge sooner than this: on a healthy sub-millisecond cluster
/// a duplicate GetStrip per read would double the fleet's load for no
/// tail benefit.
const HEDGE_FLOOR: Duration = Duration::from_millis(2);
/// Never wait longer than this before hedging: a hedge that fires
/// after the caller's own timeout is no hedge at all.
const HEDGE_CAP: Duration = Duration::from_millis(250);
/// A holder is demoted in the replica walk only when its score exceeds
/// this multiple of the best sampled holder's — ordering reacts to
/// *stragglers*, not to ordinary jitter between healthy servers.
const ORDER_HYSTERESIS: f64 = 3.0;

/// One server's latency estimate: exponentially weighted mean and
/// mean deviation, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ewma {
    mean_us: f64,
    dev_us: f64,
    samples: u64,
}

impl Ewma {
    /// An empty estimator (no observations).
    pub fn new() -> Ewma {
        Ewma::default()
    }

    /// Feed one observed request latency.
    pub fn observe(&mut self, latency: Duration) {
        let us = latency.as_secs_f64() * 1e6;
        if self.samples == 0 {
            self.mean_us = us;
            self.dev_us = us / 2.0;
        } else {
            let err = us - self.mean_us;
            self.mean_us += GAIN_MEAN * err;
            self.dev_us += GAIN_DEV * (err.abs() - self.dev_us);
        }
        self.samples = self.samples.saturating_add(1);
    }

    /// Smoothed mean latency in microseconds (0.0 when unsampled).
    pub fn mean_us(&self) -> f64 {
        self.mean_us
    }

    /// Smoothed mean deviation in microseconds.
    pub fn dev_us(&self) -> f64 {
        self.dev_us
    }

    /// Observations fed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The load score used for replica ordering: `mean + 2·dev`.
    /// Unsampled servers score 0, so a stable sort leaves them in
    /// their original (primary-first) positions.
    pub fn score_us(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.mean_us + 2.0 * self.dev_us
        }
    }

    /// The p99-ish wait before hedging: `mean + 4·dev` (TCP's RTO),
    /// clamped to `[HEDGE_FLOOR, HEDGE_CAP]`. `None` until
    /// `MIN_SAMPLES` observations exist.
    pub fn hedge_delay(&self) -> Option<Duration> {
        if self.samples < MIN_SAMPLES {
            return None;
        }
        let us = self.mean_us + 4.0 * self.dev_us;
        let d = Duration::from_micros(us.max(0.0) as u64);
        Some(d.clamp(HEDGE_FLOOR, HEDGE_CAP))
    }
}

/// Shared per-server latency estimates for one cluster view: the
/// client keeps one over its servers, each daemon keeps one over its
/// peers. Interior mutability so read paths holding `&self` can still
/// record latencies.
#[derive(Debug)]
pub struct LoadTracker {
    /// Leaf lock (nothing else is acquired while held): one EWMA slot
    /// per server id.
    ewma: Mutex<Vec<Ewma>>,
}

impl LoadTracker {
    /// A tracker over `servers` slots, all unsampled.
    pub fn new(servers: usize) -> LoadTracker {
        LoadTracker { ewma: Mutex::new(vec![Ewma::new(); servers]) }
    }

    /// Record one observed request latency against `server`. Out of
    /// range ids are ignored (a hot-reconfigured cluster view).
    pub fn observe(&self, server: usize, latency: Duration) {
        let mut slots = lock(&self.ewma);
        if let Some(e) = slots.get_mut(server) {
            e.observe(latency);
        }
    }

    /// Snapshot of one server's estimator (default when out of range).
    pub fn get(&self, server: usize) -> Ewma {
        lock(&self.ewma).get(server).copied().unwrap_or_default()
    }

    /// Demote clear stragglers to the back of `items` (slowest last),
    /// keeping everything else — healthy and unsampled servers alike —
    /// in its original order. A server is a straggler only when its
    /// load score exceeds `ORDER_HYSTERESIS` times the best sampled
    /// score in the walk, so a cold tracker is a no-op, jitter between
    /// healthy servers never reshuffles the primary-first walk, and a
    /// dead server (estimate frozen at its last healthy value) is
    /// still attempted first and surfaced via failover.
    pub fn order_by_load<T>(&self, items: &mut [T], server_of: impl Fn(&T) -> usize) {
        let slots = lock(&self.ewma);
        let score = |t: &T| slots.get(server_of(t)).map_or(0.0, Ewma::score_us);
        let best = items
            .iter()
            .map(&score)
            .filter(|&s| s > 0.0)
            .min_by(f64::total_cmp);
        let Some(best) = best else { return };
        items.sort_by_key(|t| {
            let s = score(t);
            s > best * ORDER_HYSTERESIS
        });
        // Stragglers (now the tail) go slowest-last between themselves.
        let cut = items.iter().position(|t| score(t) > best * ORDER_HYSTERESIS);
        if let Some(cut) = cut {
            items[cut..].sort_by(|a, b| score(a).total_cmp(&score(b)));
        }
    }

    /// How long to wait on `server` before firing a hedged duplicate
    /// at the next-best holder. Falls back to the slowest *sampled*
    /// server's estimate when `server` itself is unsampled (first
    /// request after a failover still deserves a hedge); `None` when
    /// the whole tracker is cold.
    pub fn hedge_delay(&self, server: usize) -> Option<Duration> {
        let slots = lock(&self.ewma);
        if let Some(d) = slots.get(server).and_then(Ewma::hedge_delay) {
            return Some(d);
        }
        slots.iter().filter_map(Ewma::hedge_delay).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn ewma_tracks_mean_and_deviation() {
        let mut e = Ewma::new();
        assert_eq!(e.samples(), 0);
        assert_eq!(e.score_us(), 0.0);
        for _ in 0..32 {
            e.observe(ms(10));
        }
        assert!((e.mean_us() - 10_000.0).abs() < 1_000.0, "mean drifted: {}", e.mean_us());
        // Steady input → deviation decays toward zero.
        assert!(e.dev_us() < 2_000.0, "dev did not decay: {}", e.dev_us());
        // A latency spike moves the mean slowly but the dev fast.
        let before = e.mean_us();
        e.observe(ms(200));
        assert!(e.mean_us() > before);
        assert!(e.mean_us() < 50_000.0, "one spike must not dominate the mean");
        assert!(e.dev_us() > 10_000.0, "dev must react to the spike");
    }

    #[test]
    fn hedge_delay_needs_samples_and_stays_clamped() {
        let mut e = Ewma::new();
        assert_eq!(e.hedge_delay(), None);
        for _ in 0..MIN_SAMPLES {
            e.observe(Duration::from_micros(50));
        }
        // Fast cluster: clamped up to the floor.
        assert_eq!(e.hedge_delay(), Some(HEDGE_FLOOR));
        let mut slow = Ewma::new();
        for _ in 0..MIN_SAMPLES {
            slow.observe(Duration::from_secs(10));
        }
        // Pathological estimate: clamped down to the cap.
        assert_eq!(slow.hedge_delay(), Some(HEDGE_CAP));
    }

    #[test]
    fn cold_tracker_preserves_primary_first_order() {
        let t = LoadTracker::new(4);
        let mut holders = vec![2usize, 0, 3, 1];
        t.order_by_load(&mut holders, |&s| s);
        assert_eq!(holders, vec![2, 0, 3, 1], "cold tracker must not reorder");
        assert_eq!(t.hedge_delay(0), None, "cold tracker must not hedge");
    }

    #[test]
    fn slow_server_sorts_last_and_healthy_order_is_kept() {
        let t = LoadTracker::new(4);
        for _ in 0..8 {
            t.observe(1, ms(300)); // straggler
            t.observe(3, ms(1));
        }
        let mut holders = vec![1usize, 0, 3, 2];
        t.order_by_load(&mut holders, |&s| s);
        // Only the straggler moves: unsampled 0 and 2 and sampled-fast
        // 3 keep their original relative order, 1 is demoted to last.
        assert_eq!(holders, vec![0, 3, 2, 1]);
    }

    #[test]
    fn healthy_jitter_does_not_reorder_the_walk() {
        let t = LoadTracker::new(3);
        for _ in 0..8 {
            t.observe(0, ms(11)); // a touch slower than its peers…
            t.observe(1, ms(9));
            t.observe(2, ms(10));
        }
        let mut holders = vec![0usize, 1, 2];
        t.order_by_load(&mut holders, |&s| s);
        // …but well inside the hysteresis band: primary-first order
        // is kept, so placement affinity is not churned by jitter.
        assert_eq!(holders, vec![0, 1, 2]);

        // A genuinely loaded server (≫ hysteresis × best) does move.
        let t2 = LoadTracker::new(2);
        for _ in 0..8 {
            t2.observe(0, ms(40));
            t2.observe(1, ms(1));
        }
        let mut holders = vec![0usize, 1];
        t2.order_by_load(&mut holders, |&s| s);
        assert_eq!(holders, vec![1, 0]);
    }

    #[test]
    fn hedge_delay_falls_back_to_slowest_sampled_peer() {
        let t = LoadTracker::new(3);
        for _ in 0..8 {
            t.observe(2, ms(40));
        }
        // Server 0 was never sampled: hedge using the fleet's worst
        // known estimate rather than not at all.
        let d = t.hedge_delay(0).expect("fallback estimate");
        assert!(d >= ms(40), "fallback should reflect the sampled peer: {d:?}");
        // Out-of-range ids neither panic nor observe.
        t.observe(99, ms(1));
        assert_eq!(t.get(99).samples(), 0);
    }
}
