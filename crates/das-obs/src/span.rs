//! Per-request span records and the per-daemon flight recorder.
//!
//! A **span** is one timed stage of one request: how long the request
//! sat in the fair queue, how long its frame took to decode, how long
//! the kernel ran, how long a dependence fetch to a peer took. Spans
//! are keyed by the wire-propagated trace id (see `trace`), so the
//! spans one logical request leaves on *every* daemon it touched can
//! be fetched and merged into a cross-daemon waterfall — the daemons
//! never exchange span data among themselves, the `TraceDump` RPC
//! collects it.
//!
//! Timing is monotonic: each store converts `Instant`s to
//! microseconds since its own process-local epoch, so spans recorded
//! by one daemon are mutually comparable but **not** comparable
//! across daemons (no clock sync is assumed — a waterfall renderer
//! aligns each daemon's spans to that daemon's earliest span of the
//! trace).
//!
//! The [`SpanStore`] is a bounded flight recorder: a fixed ring
//! buffer (oldest record evicted first, deterministically) plus a
//! slowest-N reservoir per op class that survives ring eviction, so
//! "why was *that* request slow" stays answerable long after the ring
//! has churned past it.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::trace::trace_root;

/// Poison-recovering lock, same policy as das-net's helper: the store
/// holds plain record state that is valid after any panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The typed stages of the request path a span can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Time between frame decode and a worker picking the request up.
    QueueWait = 0,
    /// Wire-to-`Message` frame decode time.
    Decode = 1,
    /// The whole server-side handling of one request (root span).
    Dispatch = 2,
    /// Reading strips/metadata from the local store.
    LocalRead = 3,
    /// One dependence/redistribution fetch to a peer daemon.
    PeerFetch = 4,
    /// Kernel compute over local strips.
    Kernel = 5,
    /// Assembling/storing/forwarding output strips.
    Assemble = 6,
    /// Reply queued for write until fully flushed to the socket.
    ReplyWrite = 7,
    /// A hedged duplicate racing the primary request (client side).
    HedgeRace = 8,
    /// The request was shed (backlog or expired deadline budget).
    Shed = 9,
}

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; 10] = [
        Stage::QueueWait,
        Stage::Decode,
        Stage::Dispatch,
        Stage::LocalRead,
        Stage::PeerFetch,
        Stage::Kernel,
        Stage::Assemble,
        Stage::ReplyWrite,
        Stage::HedgeRace,
        Stage::Shed,
    ];

    /// Stable snake_case name (metric label / waterfall row).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Decode => "decode",
            Stage::Dispatch => "dispatch",
            Stage::LocalRead => "local_read",
            Stage::PeerFetch => "peer_fetch",
            Stage::Kernel => "kernel",
            Stage::Assemble => "assemble",
            Stage::ReplyWrite => "reply_write",
            Stage::HedgeRace => "hedge_race",
            Stage::Shed => "shed",
        }
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }
}

/// Coarse op classes the reservoir and stage metrics are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum OpClass {
    /// `GetStrip`.
    Get = 0,
    /// `PutStrip`.
    Put = 1,
    /// `Execute`.
    Exec = 2,
    /// `RedistPrepare` / `RedistCommit`.
    Redist = 3,
    /// Metadata ops (`CreateFile`, `Lookup`, `GetDistribution`).
    Meta = 4,
    /// Control plane (ping, stats, dumps, shutdown).
    Control = 5,
    /// Anything else.
    Other = 6,
}

impl OpClass {
    /// Every class, in discriminant order.
    pub const ALL: [OpClass; 7] = [
        OpClass::Get,
        OpClass::Put,
        OpClass::Exec,
        OpClass::Redist,
        OpClass::Meta,
        OpClass::Control,
        OpClass::Other,
    ];

    /// Stable name (metric label / slow-log heading).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Put => "put",
            OpClass::Exec => "exec",
            OpClass::Redist => "redist",
            OpClass::Meta => "meta",
            OpClass::Control => "control",
            OpClass::Other => "other",
        }
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<OpClass> {
        OpClass::ALL.get(v as usize).copied()
    }
}

/// No annotation on the span.
pub const NOTE_NONE: u8 = 0;
/// The span belongs to a hedged duplicate.
pub const NOTE_HEDGE: u8 = 1;
/// The request died at admission: worker backlog full.
pub const NOTE_SHED_BACKLOG: u8 = 2;
/// The request died because its deadline budget expired while queued.
pub const NOTE_SHED_DEADLINE: u8 = 3;
/// An `assemble` span that is an Execute's replica-forward pass, not a
/// task's encode-and-store.
pub const NOTE_FORWARD: u8 = 4;

/// Render a note annotation for humans ("" when unannotated).
pub fn note_name(note: u8) -> &'static str {
    match note {
        NOTE_HEDGE => "hedge",
        NOTE_SHED_BACKLOG => "shed:backlog",
        NOTE_SHED_DEADLINE => "shed:deadline",
        NOTE_FORWARD => "forward",
        _ => "",
    }
}

/// One finished span. Plain data; 40 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The run this span belongs to: the root of the wire-propagated
    /// trace id.
    pub trace: u64,
    /// Store-local span id (nonzero, monotonic per daemon).
    pub span: u32,
    /// Parent span id within the same daemon (0 = root).
    pub parent: u32,
    /// Server id of the daemon that recorded the span.
    pub daemon: u32,
    /// Which stage of the request path this span timed.
    pub stage: Stage,
    /// Coarse op class of the enclosing request.
    pub op: OpClass,
    /// Annotation (`NOTE_*`): hedge duplicate, shed reason, forward pass.
    pub note: u8,
    /// Start, µs since the recording daemon's epoch (monotonic).
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// Bytes of one encoded [`SpanRecord`].
pub const SPAN_WIRE_LEN: usize = 40;

/// Encode span records into the opaque blob `TraceDumpResp` /
/// `SlowLogResp` carry: `u32` count then fixed 40-byte records, all
/// little-endian.
pub fn encode_spans(spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + spans.len() * SPAN_WIRE_LEN);
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    for s in spans {
        out.extend_from_slice(&s.trace.to_le_bytes());
        out.extend_from_slice(&s.span.to_le_bytes());
        out.extend_from_slice(&s.parent.to_le_bytes());
        out.extend_from_slice(&s.daemon.to_le_bytes());
        out.push(s.stage as u8);
        out.push(s.op as u8);
        out.push(s.note);
        out.push(0);
        out.extend_from_slice(&s.start_us.to_le_bytes());
        out.extend_from_slice(&s.dur_us.to_le_bytes());
    }
    out
}

/// Decode a span blob. `None` on any structural violation: length
/// not matching the count, an unknown stage/op discriminant, or a
/// nonzero pad byte — a flipped bit must be rejected, not misread.
pub fn decode_spans(blob: &[u8]) -> Option<Vec<SpanRecord>> {
    let count_bytes: [u8; 4] = blob.get(..4)?.try_into().ok()?;
    let count = u32::from_le_bytes(count_bytes) as usize;
    let body = &blob[4..];
    if body.len() != count.checked_mul(SPAN_WIRE_LEN)? {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for rec in body.chunks_exact(SPAN_WIRE_LEN) {
        let u64_at = |i: usize| -> Option<u64> {
            Some(u64::from_le_bytes(rec.get(i..i + 8)?.try_into().ok()?))
        };
        let u32_at = |i: usize| -> Option<u32> {
            Some(u32::from_le_bytes(rec.get(i..i + 4)?.try_into().ok()?))
        };
        if rec[23] != 0 {
            return None;
        }
        out.push(SpanRecord {
            trace: u64_at(0)?,
            span: u32_at(8)?,
            parent: u32_at(12)?,
            daemon: u32_at(16)?,
            stage: Stage::from_u8(rec[20])?,
            op: OpClass::from_u8(rec[21])?,
            note: rec[22],
            start_us: u64_at(24)?,
            dur_us: u64_at(32)?,
        });
    }
    Some(out)
}

/// Reservoir depth per op class (slowest-N roots kept).
pub const SLOW_N: usize = 8;

/// Default ring capacity (recent spans kept, all classes together).
pub const RING_CAPACITY: usize = 4096;

struct Inner {
    /// Recent spans, oldest first. Bounded by `capacity`; eviction is
    /// strict FIFO, so replaying the same record sequence always
    /// leaves the same ring.
    ring: VecDeque<SpanRecord>,
    /// Next span id to assign (starts at 1; 0 means "no parent").
    next_span: u32,
    /// Insertion sequence number, the deterministic tie-breaker for
    /// the reservoir (equal durations: the newer record wins).
    seq: u64,
    /// Slowest-N root spans per op class, unordered; each entry
    /// carries its insertion seq.
    slow: Vec<Vec<(u64, SpanRecord)>>,
    /// Ring records evicted so far.
    evicted: u64,
}

impl Inner {
    /// Insert one finished record: FIFO-evict the ring at capacity,
    /// and let root stages (`Dispatch`, `Shed`) compete for the
    /// per-class slowest-N reservoir.
    fn insert(&mut self, rec: SpanRecord, capacity: usize, slow_n: usize) {
        if self.ring.len() == capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(rec);
        self.seq += 1;
        let seq = self.seq;
        if rec.stage == Stage::Dispatch || rec.stage == Stage::Shed {
            // Root spans compete for the reservoir: keep the N
            // largest by (duration, seq) — on equal durations the
            // newer record wins, so eviction is deterministic.
            let class = &mut self.slow[rec.op as usize];
            class.push((seq, rec));
            if class.len() > slow_n {
                let min_at = class
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (sq, r))| (r.dur_us, *sq))
                    .map(|(i, _)| i);
                if let Some(i) = min_at {
                    class.swap_remove(i);
                }
            }
        }
    }
}

/// The per-daemon flight recorder: bounded ring of recent spans plus
/// a slowest-N reservoir of root spans per op class.
pub struct SpanStore {
    daemon: u32,
    epoch: Instant,
    capacity: usize,
    slow_n: usize,
    /// Leaf lock (nothing else is acquired while held): the ring and
    /// reservoir state behind every record/dump operation.
    spans: Mutex<Inner>,
}

impl std::fmt::Debug for SpanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanStore")
            .field("daemon", &self.daemon)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl SpanStore {
    /// A store for daemon `daemon` with the default bounds.
    pub fn new(daemon: u32) -> SpanStore {
        SpanStore::with_bounds(daemon, RING_CAPACITY, SLOW_N)
    }

    /// A store with explicit ring capacity and reservoir depth
    /// (both clamped to ≥ 1).
    pub fn with_bounds(daemon: u32, capacity: usize, slow_n: usize) -> SpanStore {
        SpanStore {
            daemon,
            epoch: Instant::now(),
            capacity: capacity.max(1),
            slow_n: slow_n.max(1),
            spans: Mutex::new(Inner {
                ring: VecDeque::new(),
                next_span: 1,
                seq: 0,
                slow: (0..OpClass::ALL.len()).map(|_| Vec::new()).collect(),
                evicted: 0,
            }),
        }
    }

    /// Microseconds elapsed since this store's epoch — the time base
    /// every span's `start_us` is expressed in.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record one finished span under `trace`'s root (see
    /// [`trace_root`]: a request sent under a sub-id is filed with its
    /// run); returns its assigned span id (to be used as `parent` by
    /// sub-spans). Untraced requests (trace 0) are not recorded — the
    /// recorder only holds what `das trace` could ever look up.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: u64,
        parent: u32,
        stage: Stage,
        op: OpClass,
        note: u8,
        start_us: u64,
        dur_us: u64,
    ) -> u32 {
        if trace == 0 {
            return 0;
        }
        let mut s = lock(&self.spans);
        let span = s.next_span;
        s.next_span = s.next_span.wrapping_add(1).max(1);
        let rec = SpanRecord {
            trace: trace_root(trace),
            span,
            parent,
            daemon: self.daemon,
            stage,
            op,
            note,
            start_us,
            dur_us,
        };
        s.insert(rec, self.capacity, self.slow_n);
        span
    }

    /// Reserve a span id *before* its stage finishes, so sub-spans
    /// recorded while the stage is still running can link to it as
    /// their parent; pass the id to [`SpanStore::record_reserved`]
    /// when the stage completes. An id reserved for a request that
    /// dies without recording simply goes unused.
    pub fn reserve(&self) -> u32 {
        let mut s = lock(&self.spans);
        let span = s.next_span;
        s.next_span = s.next_span.wrapping_add(1).max(1);
        span
    }

    /// Record one finished span under a previously
    /// [`SpanStore::reserve`]d id. Untraced requests (trace 0) and
    /// the null id are dropped, mirroring [`SpanStore::record`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_reserved(
        &self,
        span: u32,
        trace: u64,
        parent: u32,
        stage: Stage,
        op: OpClass,
        note: u8,
        start_us: u64,
        dur_us: u64,
    ) {
        if trace == 0 || span == 0 {
            return;
        }
        let rec = SpanRecord {
            trace: trace_root(trace),
            span,
            parent,
            daemon: self.daemon,
            stage,
            op,
            note,
            start_us,
            dur_us,
        };
        let mut s = lock(&self.spans);
        s.insert(rec, self.capacity, self.slow_n);
    }

    /// All retained spans belonging to `trace`'s run — its own and its
    /// sub-ids' (ring and reservoir, deduplicated), sorted by start
    /// time then span id.
    pub fn dump_trace(&self, trace: u64) -> Vec<SpanRecord> {
        let trace = trace_root(trace);
        let s = lock(&self.spans);
        let mut out: Vec<SpanRecord> =
            s.ring.iter().filter(|r| r.trace == trace).copied().collect();
        for class in &s.slow {
            for (_, r) in class {
                if r.trace == trace && !out.iter().any(|o| o.span == r.span) {
                    out.push(*r);
                }
            }
        }
        out.sort_by_key(|r| (r.start_us, r.span));
        out
    }

    /// The slowest root spans, up to `per_class` per op class
    /// (clamped to the reservoir depth), slowest first — plus every
    /// retained sub-span of those roots' traces, so one reply carries
    /// the full stage breakdown. Roots precede sub-spans.
    pub fn slowest(&self, per_class: usize) -> Vec<SpanRecord> {
        let s = lock(&self.spans);
        let mut roots: Vec<SpanRecord> = Vec::new();
        for class in &s.slow {
            let mut picks: Vec<&(u64, SpanRecord)> = class.iter().collect();
            picks.sort_by_key(|(sq, r)| (std::cmp::Reverse(r.dur_us), std::cmp::Reverse(*sq)));
            roots.extend(picks.into_iter().take(per_class.min(self.slow_n)).map(|(_, r)| *r));
        }
        roots.sort_by_key(|r| (std::cmp::Reverse(r.dur_us), r.span));
        let mut out = roots.clone();
        for r in s.ring.iter() {
            if roots.iter().any(|root| root.trace == r.trace)
                && !out.iter().any(|o| o.span == r.span)
            {
                out.push(*r);
            }
        }
        out
    }

    /// Spans currently held in the ring.
    pub fn len(&self) -> usize {
        lock(&self.spans).ring.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring records evicted so far (`dasd_spans_evicted_total`).
    pub fn evicted(&self) -> u64 {
        lock(&self.spans).evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips_and_rejects_corruption() {
        let spans = vec![
            SpanRecord {
                trace: 0xABCD,
                span: 1,
                parent: 0,
                daemon: 2,
                stage: Stage::Dispatch,
                op: OpClass::Exec,
                note: NOTE_NONE,
                start_us: 17,
                dur_us: 1234,
            },
            SpanRecord {
                trace: 0xABCD,
                span: 2,
                parent: 1,
                daemon: 2,
                stage: Stage::PeerFetch,
                op: OpClass::Exec,
                note: NOTE_HEDGE,
                start_us: 20,
                dur_us: 900,
            },
        ];
        let blob = encode_spans(&spans);
        assert_eq!(blob.len(), 4 + 2 * SPAN_WIRE_LEN);
        assert_eq!(decode_spans(&blob).as_deref(), Some(&spans[..]));
        // Truncation, stage corruption, and count inflation all fail.
        assert_eq!(decode_spans(&blob[..blob.len() - 1]), None);
        let mut bad = blob.clone();
        bad[4 + 20] = 0xFF;
        assert_eq!(decode_spans(&bad), None);
        let mut grown = blob.clone();
        grown[0] = 3;
        assert_eq!(decode_spans(&grown), None);
    }

    #[test]
    fn ring_evicts_fifo_and_counts() {
        let store = SpanStore::with_bounds(1, 4, 2);
        for i in 0..6u64 {
            store.record(100 + i, 0, Stage::Decode, OpClass::Get, NOTE_NONE, i, 1);
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.evicted(), 2);
        assert!(store.dump_trace(100).is_empty(), "oldest must be gone");
        assert_eq!(store.dump_trace(105).len(), 1);
    }

    #[test]
    fn reservoir_keeps_slowest_roots_past_ring_eviction() {
        let store = SpanStore::with_bounds(1, 2, 2);
        store.record(1, 0, Stage::Dispatch, OpClass::Get, NOTE_NONE, 0, 9000);
        for i in 0..8u64 {
            store.record(10 + i, 0, Stage::Dispatch, OpClass::Get, NOTE_NONE, i, 10 + i);
        }
        // Trace 1 left the ring long ago but survives via the
        // reservoir — both in its own dump and in the slow log.
        assert_eq!(store.dump_trace(1).len(), 1);
        let slow = store.slowest(2);
        assert_eq!(slow[0].trace, 1);
        assert_eq!(slow[0].dur_us, 9000);
    }

    #[test]
    fn reserved_roots_parent_their_sub_spans() {
        let store = SpanStore::new(3);
        let root = store.reserve();
        let child = store.record(7, root, Stage::PeerFetch, OpClass::Exec, NOTE_NONE, 5, 10);
        store.record_reserved(root, 7, 0, Stage::Dispatch, OpClass::Exec, NOTE_NONE, 0, 100);
        assert_ne!(root, 0);
        assert_ne!(child, root);
        let dump = store.dump_trace(7);
        assert_eq!(dump.len(), 2);
        let c = dump.iter().find(|r| r.span == child).expect("child retained");
        assert_eq!(c.parent, root, "sub-span links to the reserved root");
        assert!(dump.iter().any(|r| r.span == root && r.stage == Stage::Dispatch));
    }

    #[test]
    fn untraced_records_are_dropped() {
        let store = SpanStore::new(0);
        assert_eq!(store.record(0, 0, Stage::Kernel, OpClass::Exec, NOTE_NONE, 0, 1), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn spans_under_sub_ids_are_filed_with_their_run() {
        use crate::trace::sub_id;
        let store = SpanStore::new(2);
        let parent = 0xDEAD_BEEF_u64;
        let root = store.record(parent, 0, Stage::Dispatch, OpClass::Exec, NOTE_NONE, 0, 50);
        store.record(sub_id(parent, 0), 0, Stage::Dispatch, OpClass::Get, NOTE_NONE, 1, 5);
        store.record(sub_id(parent, 1), root, Stage::PeerFetch, OpClass::Exec, NOTE_NONE, 2, 5);
        store.record(parent + 1, 0, Stage::Dispatch, OpClass::Get, NOTE_NONE, 3, 5);
        for asked in [parent, sub_id(parent, 9)] {
            let dump = store.dump_trace(asked);
            assert_eq!(dump.len(), 3, "{asked:#x}: {dump:?}");
            assert!(dump.iter().all(|r| r.trace == parent));
        }
    }
}
