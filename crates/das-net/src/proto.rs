//! The das-net wire protocol: message types and payload encoding.
//!
//! Every message travels in one frame (see [`crate::codec`]): a
//! 12-byte header — magic `"DASN"`, protocol version, opcode, flags,
//! payload length — followed by the payload encoded by this module.
//! Integers are little-endian; strings are length-prefixed (`u16`)
//! UTF-8; strip payloads are length-prefixed (`u32`) byte blobs.
//!
//! The full frame layout and per-RPC semantics are documented in
//! `docs/PROTOCOL.md`.

use std::ops::Range;

use das_pfs::{DistributionInfo, LayoutPolicy, StripId, StripeSpec};

use crate::engine::MAX_INFLIGHT;

/// Frame magic, first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"DASN";
/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;
/// Upper bound on a frame payload (64 MiB). Caps allocation from a
/// hostile or corrupted length field; comfortably above the largest
/// legitimate payload (one strip plus framing).
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;
/// Most strip bytes one run carries: [`MAX_PAYLOAD`] less the longest
/// fixed part of a run's frame payload ([`Message::PutStrip`]'s file,
/// strip and blob length).
pub const MAX_RUN_BYTES: usize = MAX_PAYLOAD - 16;

/// The runs `strips` (ascending) of a file of `file_len` bytes move
/// in: each maximal range of consecutive strips with the same `key` —
/// where the frames for them go — of at most [`MAX_INFLIGHT`] strips
/// and [`MAX_RUN_BYTES`] bytes, with its byte range in the file and
/// that key. Every whole-file read, whole-file write and replica
/// forward groups its strips here, so one rule decides what a frame
/// carries.
pub fn strip_runs<K: PartialEq>(
    spec: &StripeSpec,
    file_len: u64,
    strips: impl IntoIterator<Item = u64>,
    mut key: impl FnMut(StripId) -> K,
) -> Vec<(Range<u64>, Range<usize>, K)> {
    let mut runs: Vec<(Range<u64>, Range<usize>, K)> = Vec::new();
    for s in strips {
        let sid = StripId(s);
        let (k, start) = (key(sid), spec.strip_start(sid) as usize);
        let end = start + spec.strip_len(sid, file_len);
        match runs.last_mut() {
            Some((run, bytes, same))
                if run.end == s
                    && *same == k
                    && run.end - run.start < MAX_INFLIGHT as u64
                    && end - bytes.start <= MAX_RUN_BYTES =>
            {
                run.end = s + 1;
                bytes.end = end;
            }
            _ => runs.push((s..s + 1, start..end, k)),
        }
    }
    runs
}
/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Capability bit: the CRC32 frame trailer (`FLAG_CRC` in
/// [`crate::codec`]), which every frame carries.
pub const CAP_CRC: u32 = 1 << 0;

/// Capability bit: the optional per-frame trace id
/// ([`crate::codec::FLAG_TRACE`]), echoed on replies.
pub const CAP_TRACE: u32 = 1 << 1;

/// Capability bit: the optional per-frame deadline budget
/// ([`crate::codec::FLAG_DEADLINE`]).
pub const CAP_DEADLINE: u32 = 1 << 2;

/// Capability bit: the span flight recorder's
/// [`Message::TraceDump`]/[`Message::SlowLog`] RPCs.
pub const CAP_SPANS: u32 = 1 << 3;

/// The one protocol this build speaks, as the `caps` word every
/// [`Message::Hello`]/[`Message::HelloOk`] carries. It is not
/// negotiated: each side refuses a handshake whose `caps` lacks a bit
/// of it.
pub const LOCAL_CAPS: u32 = CAP_CRC | CAP_TRACE | CAP_DEADLINE | CAP_SPANS;

/// Check the `caps` word of a peer's `Hello`/`HelloOk`: every bit of
/// [`LOCAL_CAPS`] must be set, or the error names the ones missing.
pub(crate) fn check_caps(caps: u32) -> Result<(), String> {
    match LOCAL_CAPS & !caps {
        0 => Ok(()),
        missing => Err(format!("peer lacks capabilities {missing:#x} of {LOCAL_CAPS:#x}")),
    }
}

/// Who is on the other end of a connection — drives the byte-class a
/// connection's traffic is accounted under (client↔server vs
/// server↔server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A compute-node client (`das` CLI / client library).
    Client,
    /// Another `dasd` storage server (dependence fetches, replica
    /// forwarding, redistribution pulls).
    Server,
}

/// Typed error codes carried by [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The file id or name is unknown on this server.
    NoSuchFile = 1,
    /// A file with this name already exists.
    DuplicateName = 2,
    /// Offset/length outside the file (or strip index out of range).
    OutOfBounds = 3,
    /// The addressed server id is not part of the cluster.
    NoSuchServer = 4,
    /// The requested strip is not stored on this server.
    StripNotLocal = 5,
    /// A strip payload's length does not match the file's geometry.
    StripLengthMismatch = 6,
    /// No kernel / feature record registered under that name.
    UnknownOperator = 7,
    /// File length is not a whole number of image rows.
    GeometryMismatch = 8,
    /// The decision workflow rejected the offload; the client must
    /// serve the request as normal I/O (the paper's fallback path).
    FallbackToNormalIo = 9,
    /// Malformed or semantically invalid request.
    BadRequest = 10,
    /// Unexpected server-side failure.
    Internal = 11,
    /// Transient server-side condition (overload, a flaky peer link,
    /// an injected fault). The request itself was well-formed; the
    /// client should back off and retry the same request.
    Retryable = 12,
    /// The server's admission controller shed this request: the
    /// bounded backlog was full, or the request's propagated deadline
    /// budget had already expired on arrival. Transient — the shared
    /// retry layer backs off and retries, by which time the queue has
    /// drained (or the caller's own deadline has fired).
    Overloaded = 13,
}

impl ErrorCode {
    /// Every assigned error code, in wire-value order. The root
    /// package's `tests/protocol_doc.rs` iterates this to prove the
    /// code table and `docs/PROTOCOL.md` agree; a new variant that is
    /// not added here fails the exhaustiveness test below.
    pub const ALL: [ErrorCode; 13] = [
        ErrorCode::NoSuchFile,
        ErrorCode::DuplicateName,
        ErrorCode::OutOfBounds,
        ErrorCode::NoSuchServer,
        ErrorCode::StripNotLocal,
        ErrorCode::StripLengthMismatch,
        ErrorCode::UnknownOperator,
        ErrorCode::GeometryMismatch,
        ErrorCode::FallbackToNormalIo,
        ErrorCode::BadRequest,
        ErrorCode::Internal,
        ErrorCode::Retryable,
        ErrorCode::Overloaded,
    ];

    /// The code's canonical name, exactly as `docs/PROTOCOL.md`
    /// spells it.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::NoSuchFile => "NoSuchFile",
            ErrorCode::DuplicateName => "DuplicateName",
            ErrorCode::OutOfBounds => "OutOfBounds",
            ErrorCode::NoSuchServer => "NoSuchServer",
            ErrorCode::StripNotLocal => "StripNotLocal",
            ErrorCode::StripLengthMismatch => "StripLengthMismatch",
            ErrorCode::UnknownOperator => "UnknownOperator",
            ErrorCode::GeometryMismatch => "GeometryMismatch",
            ErrorCode::FallbackToNormalIo => "FallbackToNormalIo",
            ErrorCode::BadRequest => "BadRequest",
            ErrorCode::Internal => "Internal",
            ErrorCode::Retryable => "Retryable",
            ErrorCode::Overloaded => "Overloaded",
        }
    }

    /// Decode a wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => NoSuchFile,
            2 => DuplicateName,
            3 => OutOfBounds,
            4 => NoSuchServer,
            5 => StripNotLocal,
            6 => StripLengthMismatch,
            7 => UnknownOperator,
            8 => GeometryMismatch,
            9 => FallbackToNormalIo,
            10 => BadRequest,
            11 => Internal,
            12 => Retryable,
            13 => Overloaded,
            _ => return None,
        })
    }

    /// Whether the condition is transient — a retry of the identical
    /// request may succeed (drives the client/peer retry layer).
    pub fn is_transient(self) -> bool {
        matches!(self, ErrorCode::Retryable | ErrorCode::Overloaded)
    }
}

/// Per-connection-class byte counters reported by [`Message::StatsResp`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes received on client↔server connections.
    pub client_in: u64,
    /// Bytes sent on client↔server connections.
    pub client_out: u64,
    /// Bytes received on server↔server connections.
    pub server_in: u64,
    /// Bytes sent on server↔server connections.
    pub server_out: u64,
}

/// Every RPC of the protocol. Requests and responses share the enum;
/// the opcode namespaces them (responses are `request | 1` except the
/// catch-all [`Message::Error`] and [`Message::GetStrips`]' reply, a
/// [`Message::StripData`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First frame on every connection: who am I?
    Hello {
        /// Connection class.
        role: Role,
        /// Sender's server id when `role` is [`Role::Server`]; 0 for
        /// clients.
        peer_id: u32,
        /// The sender's [`LOCAL_CAPS`].
        caps: u32,
    },
    /// Accepts a [`Message::Hello`]; identifies the serving daemon.
    HelloOk {
        /// The responding server's id.
        server_id: u32,
        /// The daemon's [`LOCAL_CAPS`].
        caps: u32,
    },

    /// Register a file's metadata (no data — strips arrive via
    /// [`Message::PutStrip`]). Sent to **every** server; ids are
    /// assigned in creation order and must agree across the cluster.
    CreateFile {
        /// Unique file name.
        name: String,
        /// Length in bytes.
        file_len: u64,
        /// Strip size in bytes.
        strip_size: u32,
        /// Placement policy.
        policy: LayoutPolicy,
        /// Number of servers the layout is computed over.
        servers: u32,
    },
    /// File created; carries the assigned id.
    CreateFileOk {
        /// Assigned file id.
        file: u32,
    },
    /// Upload a **run** of strips — `strip` and the ones after it, one
    /// or more — to a server that holds every one of them under the
    /// file's layout (primary or replica — the server decides which).
    PutStrip {
        /// File id.
        file: u32,
        /// Index of the run's first strip.
        strip: u64,
        /// The run's strips back to back: exactly the lengths of
        /// `strip`, `strip + 1`, … up to the last one it covers.
        payload: Vec<u8>,
    },
    /// Strip stored.
    PutStripOk,
    /// Fetch one locally-stored strip.
    GetStrip {
        /// File id.
        file: u32,
        /// Strip index.
        strip: u64,
    },
    /// The requested strip's bytes — a run's strips back to back for
    /// [`Message::GetStrips`].
    StripData {
        /// Strip bytes.
        payload: Vec<u8>,
    },
    /// Resolve a file name to its id and distribution.
    Lookup {
        /// File name.
        name: String,
    },
    /// Lookup result.
    LookupOk {
        /// File id.
        file: u32,
        /// Current distribution.
        dist: DistributionInfo,
    },
    /// Query a file's distribution information (the paper's
    /// Section III-C client query).
    GetDistribution {
        /// File id.
        file: u32,
    },
    /// Distribution information.
    DistributionResp {
        /// Current distribution.
        dist: DistributionInfo,
    },
    /// Fetch a run of `count` locally-stored strips from `first` on,
    /// answered by one [`Message::StripData`] carrying them back to
    /// back. A run of one is [`Message::GetStrip`].
    GetStrips {
        /// File id.
        file: u32,
        /// Index of the run's first strip.
        first: u64,
        /// Strips in the run (at least 1).
        count: u32,
    },

    /// Phase one of a redistribution: fetch every strip this server
    /// gains under `policy` from its current primary (server↔server
    /// traffic), staging without touching the live layout.
    RedistPrepare {
        /// File id.
        file: u32,
        /// Target placement policy.
        policy: LayoutPolicy,
    },
    /// Staging done.
    RedistPrepareOk {
        /// Strips fetched from peers.
        fetched_strips: u64,
        /// Payload bytes fetched from peers.
        fetched_bytes: u64,
    },
    /// Phase two: swap the file to `policy` — adopt staged strips,
    /// re-flag retained ones, evict strips no longer held.
    RedistCommit {
        /// File id.
        file: u32,
        /// Target placement policy (must match the prepare).
        policy: LayoutPolicy,
    },
    /// Layout swapped.
    RedistCommitOk,

    /// Run `kernel` over this server's primary strips of `file`,
    /// writing output strips of `out_file` (same geometry, created
    /// beforehand on every server).
    Execute {
        /// Input file id.
        file: u32,
        /// Output file id.
        out_file: u32,
        /// Kernel registry name (e.g. `"flow-routing"`).
        kernel: String,
        /// Image width in elements.
        img_width: u64,
        /// Element size in bytes (4 — f32 rasters).
        element_size: u32,
        /// Successive-operation hint for the decision workflow.
        successive: bool,
        /// Skip the decision workflow (the NAS scheme: offload
        /// unconditionally, dependence cost be damned).
        force: bool,
    },
    /// Execution finished on this server.
    ExecuteOk {
        /// Primary strips computed.
        strips_computed: u64,
        /// Dependence fetches issued to peers (per task, as the
        /// predictor counts them).
        dep_fetches: u64,
        /// Payload bytes those fetches moved.
        dep_fetch_bytes: u64,
    },

    /// Query the per-class byte counters.
    Stats,
    /// Byte counters since start / last reset.
    StatsResp(WireStats),
    /// Zero the byte counters.
    ResetStats,
    /// Counters zeroed.
    ResetStatsOk,
    /// Dump the daemon's full metrics registry (request counts,
    /// decision outcomes, predicted-vs-measured bytes, latency
    /// histograms — the live-introspection surface behind
    /// `das stats`).
    MetricsDump,
    /// The registry in Prometheus text exposition format. Carried as
    /// a length-prefixed blob (`u32`) because the dump can exceed the
    /// `u16` string cap.
    MetricsText {
        /// Prometheus text exposition body (UTF-8).
        text: String,
    },
    /// Fetch every span the daemon's flight recorder retains for one
    /// trace id. `das trace` sends
    /// this to every daemon and merges the replies into a
    /// cross-daemon waterfall.
    TraceDump {
        /// The trace id to look up.
        trace: u64,
    },
    /// The retained spans of the requested trace, as the opaque span
    /// blob of `das_obs::encode_spans` (`u32` count + fixed 40-byte
    /// records). Opaque to the codec so the wire layer carries no
    /// span vocabulary.
    TraceDumpResp {
        /// Encoded span records.
        spans: Vec<u8>,
    },
    /// Fetch the daemon's slowest-N root spans per op class, with
    /// their retained sub-spans.
    SlowLog {
        /// Upper bound on roots returned per op class (clamped
        /// server-side to the reservoir depth).
        per_class: u32,
    },
    /// The slow-log spans, encoded like [`Message::TraceDumpResp`].
    SlowLogResp {
        /// Encoded span records, slowest roots first.
        spans: Vec<u8>,
    },

    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
    /// Ask the daemon to exit after replying.
    Shutdown,
    /// Acknowledged; the daemon is going down.
    ShutdownOk,

    /// Any request-level failure.
    Error {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Every opcode assigned by protocol version 1, in numeric order —
/// the enumerable ground truth `tests/protocol_doc.rs` checks
/// against [`Message::samples`] and `docs/PROTOCOL.md`. Any opcode
/// **not** in this list must be rejected by [`Message::decode`].
pub const KNOWN_OPCODES: [u8; 34] = [
    0x01, 0x02, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x20, 0x21,
    0x22, 0x23, 0x30, 0x31, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x50,
    0x51, 0x52, 0x53, 0x7F,
];

impl Message {
    /// One representative instance of **every** message kind, with
    /// non-default field values, in opcode order. This is what makes
    /// the protocol enumerable for analysis and tests: each sample is
    /// encoded, decoded back and framed under every combination of the
    /// optional frame fields without hand-listing variants — adding a
    /// variant without extending this list fails the exhaustiveness
    /// test.
    pub fn samples() -> Vec<Message> {
        let dist = DistributionInfo {
            strip_size: 4096,
            servers: 4,
            policy: LayoutPolicy::GroupedReplicated { group: 2 },
            file_len: 98304,
        };
        vec![
            Message::Hello { role: Role::Server, peer_id: 3, caps: LOCAL_CAPS },
            Message::HelloOk { server_id: 2, caps: LOCAL_CAPS },
            Message::CreateFile {
                name: "dem.raw".into(),
                file_len: 98304,
                strip_size: 4096,
                policy: LayoutPolicy::Grouped { group: 4 },
                servers: 4,
            },
            Message::CreateFileOk { file: 7 },
            Message::PutStrip { file: 7, strip: 11, payload: vec![1, 2, 3, 4] },
            Message::PutStripOk,
            Message::GetStrip { file: 7, strip: 11 },
            Message::StripData { payload: vec![9, 8, 7] },
            Message::Lookup { name: "dem.raw".into() },
            Message::LookupOk { file: 7, dist },
            Message::GetDistribution { file: 7 },
            Message::DistributionResp { dist },
            Message::GetStrips { file: 7, first: 11, count: 3 },
            Message::RedistPrepare { file: 7, policy: LayoutPolicy::GroupedReplicated { group: 2 } },
            Message::RedistPrepareOk { fetched_strips: 5, fetched_bytes: 20480 },
            Message::RedistCommit { file: 7, policy: LayoutPolicy::GroupedReplicated { group: 2 } },
            Message::RedistCommitOk,
            Message::Execute {
                file: 7,
                out_file: 8,
                kernel: "flow-routing".into(),
                img_width: 256,
                element_size: 4,
                successive: true,
                force: false,
            },
            Message::ExecuteOk { strips_computed: 6, dep_fetches: 12, dep_fetch_bytes: 49152 },
            Message::Stats,
            Message::StatsResp(WireStats {
                client_in: 1,
                client_out: 2,
                server_in: 3,
                server_out: 4,
            }),
            Message::ResetStats,
            Message::ResetStatsOk,
            Message::MetricsDump,
            Message::MetricsText { text: "# TYPE dasd_requests_total counter\n".into() },
            Message::TraceDump { trace: 0xDA5_0B5 },
            Message::TraceDumpResp { spans: vec![0, 0, 0, 0] },
            Message::SlowLog { per_class: 4 },
            Message::SlowLogResp { spans: vec![0, 0, 0, 0] },
            Message::Ping,
            Message::Pong,
            Message::Shutdown,
            Message::ShutdownOk,
            Message::Error { code: ErrorCode::Retryable, message: "transient".into() },
        ]
    }

    /// The opcode identifying this message in the frame header.
    pub fn opcode(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0x01,
            Message::HelloOk { .. } => 0x02,
            Message::CreateFile { .. } => 0x10,
            Message::CreateFileOk { .. } => 0x11,
            Message::PutStrip { .. } => 0x12,
            Message::PutStripOk => 0x13,
            Message::GetStrip { .. } => 0x14,
            Message::StripData { .. } => 0x15,
            Message::Lookup { .. } => 0x16,
            Message::LookupOk { .. } => 0x17,
            Message::GetDistribution { .. } => 0x18,
            Message::DistributionResp { .. } => 0x19,
            Message::GetStrips { .. } => 0x1A,
            Message::RedistPrepare { .. } => 0x20,
            Message::RedistPrepareOk { .. } => 0x21,
            Message::RedistCommit { .. } => 0x22,
            Message::RedistCommitOk => 0x23,
            Message::Execute { .. } => 0x30,
            Message::ExecuteOk { .. } => 0x31,
            Message::Stats => 0x40,
            Message::StatsResp(_) => 0x41,
            Message::ResetStats => 0x42,
            Message::ResetStatsOk => 0x43,
            Message::MetricsDump => 0x44,
            Message::MetricsText { .. } => 0x45,
            Message::TraceDump { .. } => 0x46,
            Message::TraceDumpResp { .. } => 0x47,
            Message::SlowLog { .. } => 0x48,
            Message::SlowLogResp { .. } => 0x49,
            Message::Ping => 0x50,
            Message::Pong => 0x51,
            Message::Shutdown => 0x52,
            Message::ShutdownOk => 0x53,
            Message::Error { .. } => 0x7F,
        }
    }

    /// A stable, human-readable name for the message kind — the `op`
    /// label of the per-request metrics.
    pub fn op_name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloOk { .. } => "hello_ok",
            Message::CreateFile { .. } => "create_file",
            Message::CreateFileOk { .. } => "create_file_ok",
            Message::PutStrip { .. } => "put_strip",
            Message::PutStripOk => "put_strip_ok",
            Message::GetStrip { .. } => "get_strip",
            Message::StripData { .. } => "strip_data",
            Message::Lookup { .. } => "lookup",
            Message::LookupOk { .. } => "lookup_ok",
            Message::GetDistribution { .. } => "get_distribution",
            Message::DistributionResp { .. } => "distribution_resp",
            Message::GetStrips { .. } => "get_strips",
            Message::RedistPrepare { .. } => "redist_prepare",
            Message::RedistPrepareOk { .. } => "redist_prepare_ok",
            Message::RedistCommit { .. } => "redist_commit",
            Message::RedistCommitOk => "redist_commit_ok",
            Message::Execute { .. } => "execute",
            Message::ExecuteOk { .. } => "execute_ok",
            Message::Stats => "stats",
            Message::StatsResp(_) => "stats_resp",
            Message::ResetStats => "reset_stats",
            Message::ResetStatsOk => "reset_stats_ok",
            Message::MetricsDump => "metrics_dump",
            Message::MetricsText { .. } => "metrics_text",
            Message::TraceDump { .. } => "trace_dump",
            Message::TraceDumpResp { .. } => "trace_dump_resp",
            Message::SlowLog { .. } => "slow_log",
            Message::SlowLogResp { .. } => "slow_log_resp",
            Message::Ping => "ping",
            Message::Pong => "pong",
            Message::Shutdown => "shutdown",
            Message::ShutdownOk => "shutdown_ok",
            Message::Error { .. } => "error",
        }
    }

    /// Encode the payload (everything after the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Message::Hello { role, peer_id, caps } => {
                put_u8(&mut b, match role {
                    Role::Client => 0,
                    Role::Server => 1,
                });
                put_u32(&mut b, *peer_id);
                put_u32(&mut b, *caps);
            }
            Message::HelloOk { server_id, caps } => {
                put_u32(&mut b, *server_id);
                put_u32(&mut b, *caps);
            }
            Message::CreateFile { name, file_len, strip_size, policy, servers } => {
                put_str(&mut b, name);
                put_u64(&mut b, *file_len);
                put_u32(&mut b, *strip_size);
                put_policy(&mut b, *policy);
                put_u32(&mut b, *servers);
            }
            Message::CreateFileOk { file } => put_u32(&mut b, *file),
            Message::PutStrip { file, strip, payload } => {
                put_u32(&mut b, *file);
                put_u64(&mut b, *strip);
                put_blob(&mut b, payload);
            }
            Message::PutStripOk => {}
            Message::GetStrip { file, strip } => {
                put_u32(&mut b, *file);
                put_u64(&mut b, *strip);
            }
            Message::StripData { payload } => put_blob(&mut b, payload),
            Message::Lookup { name } => put_str(&mut b, name),
            Message::LookupOk { file, dist } => {
                put_u32(&mut b, *file);
                put_dist(&mut b, dist);
            }
            Message::GetDistribution { file } => put_u32(&mut b, *file),
            Message::DistributionResp { dist } => put_dist(&mut b, dist),
            Message::GetStrips { file, first, count } => {
                put_u32(&mut b, *file);
                put_u64(&mut b, *first);
                put_u32(&mut b, *count);
            }
            Message::RedistPrepare { file, policy } | Message::RedistCommit { file, policy } => {
                put_u32(&mut b, *file);
                put_policy(&mut b, *policy);
            }
            Message::RedistPrepareOk { fetched_strips, fetched_bytes } => {
                put_u64(&mut b, *fetched_strips);
                put_u64(&mut b, *fetched_bytes);
            }
            Message::RedistCommitOk => {}
            Message::Execute { file, out_file, kernel, img_width, element_size, successive, force } => {
                put_u32(&mut b, *file);
                put_u32(&mut b, *out_file);
                put_str(&mut b, kernel);
                put_u64(&mut b, *img_width);
                put_u32(&mut b, *element_size);
                put_u8(&mut b, *successive as u8);
                put_u8(&mut b, *force as u8);
            }
            Message::ExecuteOk { strips_computed, dep_fetches, dep_fetch_bytes } => {
                put_u64(&mut b, *strips_computed);
                put_u64(&mut b, *dep_fetches);
                put_u64(&mut b, *dep_fetch_bytes);
            }
            Message::MetricsText { text } => put_blob(&mut b, text.as_bytes()),
            Message::TraceDump { trace } => put_u64(&mut b, *trace),
            Message::TraceDumpResp { spans } | Message::SlowLogResp { spans } => {
                put_blob(&mut b, spans)
            }
            Message::SlowLog { per_class } => put_u32(&mut b, *per_class),
            Message::Stats
            | Message::ResetStats
            | Message::ResetStatsOk
            | Message::MetricsDump
            | Message::Ping
            | Message::Pong
            | Message::Shutdown
            | Message::ShutdownOk => {}
            Message::StatsResp(s) => {
                put_u64(&mut b, s.client_in);
                put_u64(&mut b, s.client_out);
                put_u64(&mut b, s.server_in);
                put_u64(&mut b, s.server_out);
            }
            Message::Error { code, message } => {
                put_u16(&mut b, *code as u16);
                put_str(&mut b, message);
            }
        }
        b
    }

    /// Split the payload encoding into a small `prefix` (fixed fields
    /// plus any blob length prefix) and a borrowed `body` (the blob
    /// bytes themselves), such that `prefix ⧺ body` is bit-identical
    /// to [`Message::encode_payload`]. The blob-carrying messages —
    /// [`Message::PutStrip`], [`Message::StripData`],
    /// [`Message::MetricsText`], [`Message::TraceDumpResp`],
    /// [`Message::SlowLogResp`] — put their bulk bytes in `body`;
    /// every other message returns its full encoding as `prefix` with
    /// an empty `body`. This is what lets the vectored frame writer
    /// ([`crate::codec::write_frame_vectored`]) send a strip
    /// without copying it through an intermediate frame buffer.
    pub fn split_payload(&self) -> (Vec<u8>, &[u8]) {
        let mut b = Vec::new();
        match self {
            Message::PutStrip { file, strip, payload } => {
                put_u32(&mut b, *file);
                put_u64(&mut b, *strip);
                assert!(payload.len() <= u32::MAX as usize, "blob field too long");
                put_u32(&mut b, payload.len() as u32);
                (b, payload)
            }
            Message::StripData { payload } => {
                assert!(payload.len() <= u32::MAX as usize, "blob field too long");
                put_u32(&mut b, payload.len() as u32);
                (b, payload)
            }
            Message::MetricsText { text } => {
                assert!(text.len() <= u32::MAX as usize, "blob field too long");
                put_u32(&mut b, text.len() as u32);
                (b, text.as_bytes())
            }
            Message::TraceDumpResp { spans } | Message::SlowLogResp { spans } => {
                assert!(spans.len() <= u32::MAX as usize, "blob field too long");
                put_u32(&mut b, spans.len() as u32);
                (b, spans)
            }
            _ => (self.encode_payload(), &[]),
        }
    }

    /// Where the blob's bytes begin in the payload of a blob-carrying
    /// opcode — the length of [`Message::split_payload`]'s `prefix` —
    /// and `None` for every other opcode. The blob is always the last
    /// field, so it runs from here to the payload's end.
    pub(crate) fn blob_offset(opcode: u8) -> Option<usize> {
        match opcode {
            0x12 => Some(16),
            0x15 | 0x45 | 0x47 | 0x49 => Some(4),
            _ => None,
        }
    }

    /// Decode a payload for `opcode`. Fails on unknown opcodes, short
    /// or over-long payloads, and malformed fields.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Message, DecodeError> {
        let mut d = Dec { buf: payload, pos: 0 };
        let msg = match opcode {
            0x01 => {
                let role = match d.take_u8()? {
                    0 => Role::Client,
                    1 => Role::Server,
                    v => return Err(DecodeError::new(format!("bad role {v}"))),
                };
                Message::Hello { role, peer_id: d.take_u32()?, caps: d.take_u32()? }
            }
            0x02 => Message::HelloOk { server_id: d.take_u32()?, caps: d.take_u32()? },
            0x10 => Message::CreateFile {
                name: d.take_str()?,
                file_len: d.take_u64()?,
                strip_size: d.take_u32()?,
                policy: d.take_policy()?,
                servers: d.take_u32()?,
            },
            0x11 => Message::CreateFileOk { file: d.take_u32()? },
            0x12 => Message::PutStrip {
                file: d.take_u32()?,
                strip: d.take_u64()?,
                payload: d.take_blob()?,
            },
            0x13 => Message::PutStripOk,
            0x14 => Message::GetStrip { file: d.take_u32()?, strip: d.take_u64()? },
            0x15 => Message::StripData { payload: d.take_blob()? },
            0x16 => Message::Lookup { name: d.take_str()? },
            0x17 => Message::LookupOk { file: d.take_u32()?, dist: d.take_dist()? },
            0x18 => Message::GetDistribution { file: d.take_u32()? },
            0x19 => Message::DistributionResp { dist: d.take_dist()? },
            0x1A => Message::GetStrips { file: d.take_u32()?, first: d.take_u64()?, count: d.take_u32()? },
            0x20 => Message::RedistPrepare { file: d.take_u32()?, policy: d.take_policy()? },
            0x21 => Message::RedistPrepareOk {
                fetched_strips: d.take_u64()?,
                fetched_bytes: d.take_u64()?,
            },
            0x22 => Message::RedistCommit { file: d.take_u32()?, policy: d.take_policy()? },
            0x23 => Message::RedistCommitOk,
            0x30 => Message::Execute {
                file: d.take_u32()?,
                out_file: d.take_u32()?,
                kernel: d.take_str()?,
                img_width: d.take_u64()?,
                element_size: d.take_u32()?,
                successive: d.take_u8()? != 0,
                force: d.take_u8()? != 0,
            },
            0x31 => Message::ExecuteOk {
                strips_computed: d.take_u64()?,
                dep_fetches: d.take_u64()?,
                dep_fetch_bytes: d.take_u64()?,
            },
            0x40 => Message::Stats,
            0x41 => Message::StatsResp(WireStats {
                client_in: d.take_u64()?,
                client_out: d.take_u64()?,
                server_in: d.take_u64()?,
                server_out: d.take_u64()?,
            }),
            0x42 => Message::ResetStats,
            0x43 => Message::ResetStatsOk,
            0x44 => Message::MetricsDump,
            0x45 => Message::MetricsText {
                text: String::from_utf8(d.take_blob()?)
                    .map_err(|_| DecodeError::new("metrics text not UTF-8"))?,
            },
            0x46 => Message::TraceDump { trace: d.take_u64()? },
            0x47 => Message::TraceDumpResp { spans: d.take_blob()? },
            0x48 => Message::SlowLog { per_class: d.take_u32()? },
            0x49 => Message::SlowLogResp { spans: d.take_blob()? },
            0x50 => Message::Ping,
            0x51 => Message::Pong,
            0x52 => Message::Shutdown,
            0x53 => Message::ShutdownOk,
            0x7F => {
                let raw = d.take_u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| DecodeError::new(format!("unknown error code {raw}")))?;
                Message::Error { code, message: d.take_str()? }
            }
            op => return Err(DecodeError::new(format!("unknown opcode 0x{op:02x}"))),
        };
        d.finish()?;
        Ok(msg)
    }
}

/// A payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub reason: String,
}

impl DecodeError {
    fn new(reason: impl Into<String>) -> Self {
        DecodeError { reason: reason.into() }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

// ---- encoding primitives -------------------------------------------------

fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string field too long");
    put_u16(b, s.len() as u16);
    b.extend_from_slice(s.as_bytes());
}

fn put_blob(b: &mut Vec<u8>, blob: &[u8]) {
    assert!(blob.len() <= u32::MAX as usize, "blob field too long");
    put_u32(b, blob.len() as u32);
    // das-lint: allow(DA804) owned-encode path; zero-copy senders go through split_payload instead
    b.extend_from_slice(blob);
}

fn put_policy(b: &mut Vec<u8>, p: LayoutPolicy) {
    match p {
        LayoutPolicy::RoundRobin => {
            put_u8(b, 0);
            put_u64(b, 0);
        }
        LayoutPolicy::Grouped { group } => {
            put_u8(b, 1);
            put_u64(b, group);
        }
        LayoutPolicy::GroupedReplicated { group } => {
            put_u8(b, 2);
            put_u64(b, group);
        }
        LayoutPolicy::GroupedHalo { group, halo } => {
            assert!(group < 1 << 48 && halo <= u64::from(u16::MAX), "halo policy field too wide");
            put_u8(b, 3);
            put_u64(b, (halo << 48) | group);
        }
    }
}

fn put_dist(b: &mut Vec<u8>, d: &DistributionInfo) {
    put_u64(b, d.strip_size as u64);
    put_u32(b, d.servers);
    put_policy(b, d.policy);
    put_u64(b, d.file_len);
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn truncated(&self, n: usize) -> DecodeError {
        DecodeError::new(format!(
            "truncated: wanted {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len() - self.pos
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(self.truncated(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let Some((head, _)) = self.buf[self.pos..].split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(*head)
    }

    fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn take_u16(&mut self) -> Result<u16, DecodeError> {
        self.take_array().map(u16::from_le_bytes)
    }

    fn take_u32(&mut self) -> Result<u32, DecodeError> {
        self.take_array().map(u32::from_le_bytes)
    }

    fn take_u64(&mut self) -> Result<u64, DecodeError> {
        self.take_array().map(u64::from_le_bytes)
    }

    fn take_str(&mut self) -> Result<String, DecodeError> {
        let len = self.take_u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::new("string not UTF-8"))
    }

    fn take_blob(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.take_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn take_policy(&mut self) -> Result<LayoutPolicy, DecodeError> {
        let tag = self.take_u8()?;
        let group = self.take_u64()?;
        match tag {
            0 => Ok(LayoutPolicy::RoundRobin),
            1 if group >= 1 => Ok(LayoutPolicy::Grouped { group }),
            2 if group >= 1 => Ok(LayoutPolicy::GroupedReplicated { group }),
            3 => {
                // Only the canonical form decodes: h = 1 travels as tag 2.
                let (halo, group) = (group >> 48, group & ((1 << 48) - 1));
                let policy = LayoutPolicy::replicated(group, halo);
                if policy == (LayoutPolicy::GroupedHalo { group, halo }) {
                    Ok(policy)
                } else {
                    Err(DecodeError::new(format!("bad halo policy: group {group}, halo {halo}")))
                }
            }
            _ => Err(DecodeError::new(format!("bad policy tag {tag} / group {group}"))),
        }
    }

    fn take_dist(&mut self) -> Result<DistributionInfo, DecodeError> {
        Ok(DistributionInfo {
            strip_size: self.take_u64()? as usize,
            servers: self.take_u32()?,
            policy: self.take_policy()?,
            file_len: self.take_u64()?,
        })
    }

    /// Reject trailing garbage: a payload must be consumed exactly.
    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::new(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let payload = m.encode_payload();
        let back = Message::decode(m.opcode(), &payload).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn representative_messages_roundtrip() {
        roundtrip(Message::Hello { role: Role::Server, peer_id: 3, caps: CAP_CRC });
        roundtrip(Message::CreateFile {
            name: "dem.raw".into(),
            file_len: 98304,
            strip_size: 4096,
            policy: LayoutPolicy::GroupedReplicated { group: 4 },
            servers: 4,
        });
        roundtrip(Message::PutStrip { file: 1, strip: 9, payload: vec![1, 2, 3] });
        roundtrip(Message::StripData { payload: vec![] });
        roundtrip(Message::Error { code: ErrorCode::FallbackToNormalIo, message: "cost".into() });
    }

    #[test]
    fn samples_enumerate_the_protocol_exhaustively() {
        let samples = Message::samples();
        // One sample per assigned opcode, in order — a new variant
        // must be added to both samples() and KNOWN_OPCODES.
        let opcodes: Vec<u8> = samples.iter().map(|m| m.opcode()).collect();
        assert_eq!(opcodes, KNOWN_OPCODES.to_vec());
        // Every sample roundtrips through its own opcode.
        for m in samples {
            let back = Message::decode(m.opcode(), &m.encode_payload()).unwrap();
            assert_eq!(back, m);
        }
        // Every error code is listed once, named, and decodes back.
        for (i, code) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(ErrorCode::from_u16(*code as u16), Some(*code));
            assert_eq!(*code as u16, i as u16 + 1, "codes are dense from 1");
            assert!(!code.name().is_empty());
        }
        assert_eq!(ErrorCode::from_u16(ErrorCode::ALL.len() as u16 + 1), None);
    }

    #[test]
    fn split_payload_is_bit_identical_to_encode_payload() {
        for m in Message::samples() {
            let (prefix, body) = m.split_payload();
            let mut joined = prefix.clone();
            joined.extend_from_slice(body);
            assert_eq!(joined, m.encode_payload(), "split drifted for {}", m.op_name());
            // The decoders look for the blob where the encoder put it.
            let at = Message::blob_offset(m.opcode());
            assert_eq!(at, (!body.is_empty()).then_some(prefix.len()), "{}", m.op_name());
        }
        // The blob carriers actually borrow their bulk bytes.
        let strip = Message::StripData { payload: vec![7; 1024] };
        let (prefix, body) = strip.split_payload();
        assert_eq!(prefix.len(), 4, "blob length prefix only");
        assert_eq!(body.len(), 1024);
    }

    #[test]
    fn one_strip_policy_frames_are_pinned_and_halo_packs_into_the_same_word() {
        let encode = |policy| {
            let mut b = Vec::new();
            put_policy(&mut b, policy);
            b
        };
        assert_eq!(encode(LayoutPolicy::GroupedReplicated { group: 6 }), [2, 6, 0, 0, 0, 0, 0, 0, 0]);
        let halo = LayoutPolicy::replicated(18, 2);
        assert_eq!(encode(halo), [3, 18, 0, 0, 0, 0, 0, 2, 0]);
        let decode = |bytes: &[u8]| Dec { buf: bytes, pos: 0 }.take_policy();
        assert_eq!(decode(&encode(halo)).unwrap(), halo);
        roundtrip(Message::RedistCommit { file: 7, policy: halo });
        // h ≤ 1, a zero group and a halo wider than its group have
        // canonical forms of their own (or none): refused, not coerced.
        for (group, halo) in [(18u64, 1u64), (18, 0), (0, 2), (2, 3)] {
            let err = decode(&[&[3][..], &((halo << 48) | group).to_le_bytes()].concat()).unwrap_err();
            assert!(err.reason.contains("bad halo policy"), "{err}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Message::Ping.encode_payload();
        payload.push(0);
        assert!(Message::decode(0x50, &payload).is_err());
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let payload = Message::GetStrip { file: 7, strip: 8 }.encode_payload();
        assert!(Message::decode(0x14, &payload[..payload.len() - 1]).is_err());
    }
}
