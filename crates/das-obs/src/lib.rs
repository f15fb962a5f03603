//! Dependency-free observability for the DAS stack.
//!
//! Five small pieces, shared by every crate in the workspace:
//!
//! * [`metrics`] — a registry of atomic counters, gauges and
//!   log₂-bucketed histograms, encoded in Prometheus text exposition
//!   format (and parsed back, for tests and the `das stats` CLI);
//! * [`log`] — leveled, targeted structured events with a compact
//!   human format on stderr and an optional JSON-lines sink,
//!   configured via `DASD_LOG` / `DASD_LOG_FORMAT`;
//! * [`ratelimit`] — deterministic per-event-name token buckets over
//!   the event sink, so per-request diagnostics at bench rates
//!   cannot flood stderr (suppression is counted, never silent);
//! * [`trace`] — per-request trace-id minting, carried over the wire
//!   as an optional frame field so one offload's cross-server
//!   fan-out is correlatable end to end, and the structural sub-ids a
//!   pipelined wave's requests travel under;
//! * [`span`] — stage-typed span records keyed by those trace ids,
//!   and the bounded per-daemon [`SpanStore`] flight recorder behind
//!   the `TraceDump`/`SlowLog` RPCs.
//!
//! The crate has **no dependencies** (std only) so every layer — the
//! codec, the daemon, the client, the in-process runtime — can afford
//! to link it.

pub mod log;
pub mod metrics;
pub mod ratelimit;
pub mod span;
pub mod trace;

pub use log::{enabled, event, json_string, set_json, set_level, Level};
pub use metrics::{
    histogram_quantile, parse, quantile_from_buckets, sample_value, Counter, Gauge, Histogram,
    Registry, Sample,
};
pub use ratelimit::{event_limited, suppressed_total};
pub use span::{
    decode_spans, encode_spans, note_name, OpClass, SpanRecord, SpanStore, Stage, NOTE_FORWARD,
    NOTE_HEDGE, NOTE_NONE, NOTE_SHED_BACKLOG, NOTE_SHED_DEADLINE,
};
pub use trace::{next_trace_id, sub_id, trace_root};
