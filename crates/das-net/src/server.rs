//! The `dasd` storage-server daemon.
//!
//! One daemon per (simulated) storage server, listening on a real TCP
//! port. It owns that server's strips — reusing [`das_pfs`]'s
//! [`StorageServer`] as the strip store — plus a per-daemon copy of
//! every file's metadata, kept consistent by the client issuing
//! metadata operations to all servers in the same order.
//!
//! The interesting handler is [`Message::Execute`]: the daemon runs
//! the paper's Fig. 3 decision workflow over its own metadata
//! (`das_core::decide`), and on acceptance computes the kernel over
//! its **primary** strips, fetching dependent strips it does not hold
//! from peer daemons — all tasks' fetches in one pipelined wave, the
//! multiset of fetches per task that of a serial per-task loop with no
//! cross-task cache, exactly the traffic `das_core`'s
//! `predict_nas_fetches` prices. Under a planned layout whose halo
//! covers the kernel's reach (`das_core::plan_distribution`) that wave
//! is empty: every dependence is a primary or replica strip held right
//! here, and the only peer traffic left is forwarding the output's
//! boundary strips to their replicas. A rejected request comes back as
//! [`ErrorCode::FallbackToNormalIo`] and the client serves it as
//! normal I/O.
//!
//! Fault tolerance: peer traffic rides the shared [`RetryPolicy`]
//! (timeouts, reconnect, bounded backoff), dependence and
//! redistribution fetches fail over across a strip's holders, and a
//! strip whose holders are all unreachable is reported as the typed,
//! transient [`ErrorCode::Retryable`] — the client's cue to retry or
//! degrade the scheme rather than hang. The daemon can also *inject*
//! faults from a deterministic [`FaultPlan`] (refused accepts,
//! mid-frame cuts, delays, transient errors, corrupted checksums) so
//! the chaos suite can exercise all of the above on a loopback
//! cluster.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use das_core::{dependent_strips, ActiveStorageClient, Decision, RequestOptions};
use das_kernels::{cells_to_le_bytes, kernel_by_name};
use das_pfs::{FileId, FileMeta, Layout, ServerId, StorageServer, StripId, StripeSpec};
use das_runtime::StripAssembly;

use crate::codec::{crc32, crc32_combine, crc32_concat, NetError};
use crate::fault::{FaultAction, FaultPlan, FaultPoint};
use crate::peer::{Ask, FetchFor, PeerTable, StripAsk};
use crate::engine::MAX_INFLIGHT;
use crate::proto::{strip_runs, ErrorCode, Message, WireStats, MAX_RUN_BYTES};
use crate::retry::RetryPolicy;
use das_obs::log::{event, Level};
use das_obs::{OpClass, SpanStore, Stage, NOTE_FORWARD, NOTE_NONE, NOTE_SHED_DEADLINE};

/// Lock a mutex, recovering from poison: a worker that panicked while
/// holding a daemon lock must not wedge every other connection.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How often an idle (nonblocking) accept loop wakes to poll for new
/// connections and the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Default admission bound: how many requests a daemon lets queue (the
/// fair queue's total depth) before shedding new arrivals with the
/// typed, transient [`ErrorCode::Overloaded`]. Sized to admit a
/// couple of fully pipelined connections (2 × `MAX_INFLIGHT`) while
/// keeping worst-case queueing delay bounded.
pub const DEFAULT_MAX_BACKLOG: usize = 256;

/// Control-plane requests that are never shed by admission control or
/// an expired deadline budget: `Shutdown` must always work (a chaos
/// harness tears its cluster down *under* overload), and the
/// stats/metrics/span reads are what an operator or bench uses to
/// watch an overloaded daemon — `das trace` of a shed request must be
/// answerable *during* the overload that shed it.
pub(crate) fn shed_exempt(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Shutdown
            | Message::Ping
            | Message::Stats
            | Message::ResetStats
            | Message::MetricsDump
            | Message::TraceDump { .. }
            | Message::SlowLog { .. }
    )
}

/// Coarse span/attribution class of a request (`OpClass` wire
/// discriminants are stable; see `das-obs`).
pub(crate) fn op_class(msg: &Message) -> OpClass {
    match msg {
        Message::GetStrip { .. } | Message::GetStrips { .. } => OpClass::Get,
        Message::PutStrip { .. } => OpClass::Put,
        Message::Execute { .. } => OpClass::Exec,
        Message::RedistPrepare { .. } | Message::RedistCommit { .. } => OpClass::Redist,
        Message::CreateFile { .. } | Message::Lookup { .. } | Message::GetDistribution { .. } => {
            OpClass::Meta
        }
        Message::Ping
        | Message::Stats
        | Message::ResetStats
        | Message::MetricsDump
        | Message::TraceDump { .. }
        | Message::SlowLog { .. }
        | Message::Shutdown => OpClass::Control,
        _ => OpClass::Other,
    }
}

/// Traffic class of a connection, fixed by the peer's `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnClass {
    /// Client↔server: normal I/O, metadata, control.
    Client,
    /// Server↔server: dependence fetches, redistribution pulls,
    /// replica forwarding.
    Server,
}

impl ConnClass {
    /// Both classes, client first.
    const ALL: [ConnClass; 2] = [ConnClass::Client, ConnClass::Server];

    fn label(self) -> &'static str {
        match self {
            ConnClass::Client => "client",
            ConnClass::Server => "server",
        }
    }
}

/// The daemon's `dasd_wire_bytes{class,dir}` gauges for `class`, as
/// `(in, out)`: every byte its connections of that class moved since
/// the last `ResetStats`. `Stats` reads them, `ResetStats` zeroes them,
/// and every `MetricsDump` carries them.
pub(crate) fn wire_gauges(
    metrics: &das_obs::Registry,
    class: ConnClass,
) -> (Arc<das_obs::Gauge>, Arc<das_obs::Gauge>) {
    let gauge = |dir| metrics.gauge("dasd_wire_bytes", &[("class", class.label()), ("dir", dir)]);
    (gauge("in"), gauge("out"))
}

/// The four wire-byte gauges, as a `StatsResp` carries them.
fn wire_stats(metrics: &das_obs::Registry) -> WireStats {
    let [(client_in, client_out), (server_in, server_out)] = ConnClass::ALL.map(|class| {
        let (bytes_in, bytes_out) = wire_gauges(metrics, class);
        (bytes_in.get() as u64, bytes_out.get() as u64)
    });
    WireStats { client_in, client_out, server_in, server_out }
}

/// Static configuration of one daemon.
#[derive(Debug, Clone)]
pub struct DasdConfig {
    /// This server's id (index into `cluster`).
    pub id: u32,
    /// Listen address of **every** server in the cluster, by id.
    pub cluster: Vec<String>,
    /// Request worker pool size (at least 2; connections are not
    /// pinned to threads).
    pub pool: usize,
    /// Fault-injection plan (empty by default: inject nothing).
    pub fault: Arc<FaultPlan>,
    /// Retry/timeout policy for this daemon's outbound peer calls.
    pub retry: RetryPolicy,
    /// Admission bound before the daemon sheds requests with
    /// [`ErrorCode::Overloaded`] (see [`DEFAULT_MAX_BACKLOG`]).
    pub max_backlog: usize,
}

impl DasdConfig {
    /// Config for server `id` of `cluster` with the default pool (16),
    /// no fault injection and the default retry policy.
    pub fn new(id: u32, cluster: Vec<String>) -> Self {
        DasdConfig {
            id,
            cluster,
            pool: 16,
            fault: Arc::new(FaultPlan::none()),
            retry: RetryPolicy::default(),
            max_backlog: DEFAULT_MAX_BACKLOG,
        }
    }

    /// Replace the fault plan.
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> Self {
        self.fault = fault;
        self
    }

    /// Replace the peer retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replace the admission bound (minimum 1).
    pub fn with_max_backlog(mut self, max_backlog: usize) -> Self {
        self.max_backlog = max_backlog.max(1);
        self
    }
}

/// Metadata + strip store of one daemon, behind the big lock. Network
/// calls never happen while this is held.
struct Inner {
    store: StorageServer,
    files: Vec<FileMeta>,
    by_name: HashMap<String, FileId>,
    /// Strips staged by `RedistPrepare`, each with its checksum,
    /// keyed by file id.
    staged: HashMap<u32, Vec<(StripId, Bytes, u32)>>,
}

impl Inner {
    fn meta(&self, file: u32) -> Result<&FileMeta, Message> {
        self.files.get(file as usize).ok_or_else(|| err(ErrorCode::NoSuchFile, format!("no file {file}")))
    }
}

/// Lazily-registered grid of `dasd_stage_duration_us{stage,op}`
/// histogram handles: after the first observation of a cell, every
/// further one is a couple of atomics — no registry (lock + label
/// formatting) lookup on the per-request path. Cells never observed
/// never appear in a metrics dump.
pub(crate) struct StageHists {
    metrics: Arc<das_obs::Registry>,
    grid: Vec<std::sync::OnceLock<Arc<das_obs::Histogram>>>,
}

impl StageHists {
    fn new(metrics: Arc<das_obs::Registry>) -> StageHists {
        let cells = Stage::ALL.len() * OpClass::ALL.len();
        StageHists { metrics, grid: (0..cells).map(|_| std::sync::OnceLock::new()).collect() }
    }

    /// Feed one stage duration into the attribution histogram.
    pub(crate) fn observe(&self, stage: Stage, op: OpClass, dur_us: u64) {
        let cell = stage as usize * OpClass::ALL.len() + op as usize;
        self.grid[cell]
            .get_or_init(|| {
                self.metrics.histogram(
                    "dasd_stage_duration_us",
                    &[("stage", stage.name()), ("op", op.name())],
                )
            })
            .observe(dur_us);
    }
}

/// Per-request context threaded from the connection layer into
/// [`process_request`]: the pre-reserved root span id sub-spans hang
/// off, and the blob checksum the frame decoder computed.
#[derive(Clone, Copy)]
pub(crate) struct RequestCtx {
    /// Root span id reserved for this traced request (0 when the
    /// request is untraced — nothing is recorded for it).
    pub(crate) root: u32,
    /// Checksum of the request's blob alone, as the frame decoder
    /// computed it while verifying the frame (`None`: no blob). A
    /// `PutStrip` stores it with the strip.
    pub(crate) blob_sum: Option<u32>,
}

impl RequestCtx {
    /// Build the context for one decoded request: reserve a root span
    /// id iff the request carries a trace id.
    pub(crate) fn new(shared: &Shared, trace: Option<u64>, blob_sum: Option<u32>) -> RequestCtx {
        RequestCtx { root: if trace.is_some() { shared.spans.reserve() } else { 0 }, blob_sum }
    }
}

/// State shared by every thread of one daemon.
pub struct Shared {
    pub(crate) id: ServerId,
    inner: Mutex<Inner>,
    as_client: ActiveStorageClient,
    peers: PeerTable,
    pub(crate) metrics: Arc<das_obs::Registry>,
    /// The daemon's flight recorder behind `TraceDump`/`SlowLog`.
    pub(crate) spans: Arc<SpanStore>,
    /// Cached stage-attribution histogram handles.
    pub(crate) stage_hists: StageHists,
    pub(crate) shutdown: AtomicBool,
    pub(crate) fault: Arc<FaultPlan>,
    /// Admission bound on the fair queue's depth.
    pub(crate) max_backlog: usize,
}

/// Time-and-record one finished stage: always feeds the
/// stage-attribution histogram; records a span only for traced
/// requests (the flight recorder holds nothing `das trace` could not
/// look up). Returns the span id (0 when untraced).
pub(crate) fn record_stage(
    shared: &Shared,
    trace: Option<u64>,
    parent: u32,
    stage: Stage,
    op: OpClass,
    note: u8,
    dur: Duration,
) -> u32 {
    shared.stage_hists.observe(stage, op, dur.as_micros() as u64);
    record_span(shared, trace, parent, stage, op, note, dur)
}

/// The span half of [`record_stage`], for a stage whose histogram
/// observation is made elsewhere (an execute's per-task kernel and
/// assemble spans, observed once per Execute as a total). The span is
/// the `dur` that ended now.
fn record_span(
    shared: &Shared,
    trace: Option<u64>,
    parent: u32,
    stage: Stage,
    op: OpClass,
    note: u8,
    dur: Duration,
) -> u32 {
    let Some(t) = trace else { return 0 };
    let dur_us = dur.as_micros() as u64;
    let start_us = shared.spans.now_us().saturating_sub(dur_us);
    shared.spans.record(t, parent, stage, op, note, start_us, dur_us)
}

/// Close a request's root span under its pre-reserved id — as
/// `Dispatch` when it ran, as `Shed` (annotated with the reason) when
/// admission control or an expired budget killed it.
pub(crate) fn finish_root(
    shared: &Shared,
    trace: Option<u64>,
    ctx: RequestCtx,
    stage: Stage,
    op: OpClass,
    note: u8,
    started: Instant,
) {
    let dur_us = started.elapsed().as_micros() as u64;
    shared.stage_hists.observe(stage, op, dur_us);
    if let Some(t) = trace {
        let start_us = shared.spans.now_us().saturating_sub(dur_us);
        shared.spans.record_reserved(ctx.root, t, 0, stage, op, note, start_us, dur_us);
    }
}

/// A running daemon (listener + worker threads).
pub struct DasdHandle {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl DasdHandle {
    /// The daemon's actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the daemon to stop, without a network round-trip: the
    /// accept loop stops taking connections at its next poll, requests
    /// already in flight run to completion and their replies are
    /// flushed, and then every thread exits. Deterministic — callers
    /// follow with [`DasdHandle::join`], which returns once the drain
    /// is done, rather than sleeping and hoping.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the daemon has shut down (a client sent
    /// [`Message::Shutdown`], or [`DasdHandle::shutdown`] was called)
    /// and every thread exited.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Start a daemon on an already-bound listener. Binding is the
/// caller's job so a test harness can grab ephemeral ports for the
/// whole cluster *before* any daemon needs the full address list.
///
/// An `id` outside the cluster or a `pool` under two workers is an
/// [`std::io::ErrorKind::InvalidInput`] error.
pub fn spawn(cfg: DasdConfig, listener: TcpListener) -> std::io::Result<DasdHandle> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if cfg.id as usize >= cfg.cluster.len() {
        return Err(invalid(format!("id {} outside cluster of {}", cfg.id, cfg.cluster.len())));
    }
    if cfg.pool < 2 {
        return Err(invalid(format!("pool {} is under the two request workers a daemon needs", cfg.pool)));
    }
    let addr = listener.local_addr()?;
    let metrics = Arc::new(das_obs::Registry::new());
    let spans = Arc::new(SpanStore::new(cfg.id));
    let shared = Arc::new(Shared {
        id: ServerId(cfg.id),
        inner: Mutex::new(Inner {
            store: StorageServer::new(ServerId(cfg.id)),
            files: Vec::new(),
            by_name: HashMap::new(),
            staged: HashMap::new(),
        }),
        as_client: ActiveStorageClient::with_builtin_features(),
        peers: PeerTable::with_policy(cfg.id, cfg.cluster, cfg.retry, Arc::clone(&metrics))
            .with_span_store(Arc::clone(&spans)),
        stage_hists: StageHists::new(Arc::clone(&metrics)),
        metrics,
        spans,
        shutdown: AtomicBool::new(false),
        fault: cfg.fault,
        max_backlog: cfg.max_backlog.max(1),
    });
    // Register the wire-byte gauges and the shed counters up front so
    // a metrics dump carries them (at zero) before the first byte or
    // overload, not only after.
    for class in ConnClass::ALL {
        wire_gauges(&shared.metrics, class);
    }
    shared.metrics.counter("dasd_requests_shed_total", &[("reason", "backlog")]);
    shared.metrics.counter("dasd_requests_shed_total", &[("reason", "deadline")]);

    let threads =
        crate::engine::spawn_event_loop(Arc::clone(&shared), listener, cfg.pool, shared.max_backlog)?;
    Ok(DasdHandle { addr, threads, shared })
}

/// Nonblocking accept loop: polls the shutdown flag between accepts,
/// applies accept-point fault injection, and hands live sockets to
/// `submit`. Returns when the daemon shuts down.
pub(crate) fn accept_loop(
    shared: &Shared,
    listener: &TcpListener,
    mut submit: impl FnMut(TcpStream),
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let s = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock) => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(_) => continue,
        };
        match shared.fault.decide(FaultPoint::Accept) {
            Some(FaultAction::RefuseAccept) => {
                drop(s); // accepted, immediately closed
                continue;
            }
            Some(FaultAction::Delay { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            _ => {}
        }
        submit(s);
    }
}

fn err(code: ErrorCode, message: impl Into<String>) -> Message {
    Message::Error { code, message: message.into() }
}

/// Opcode of [`Message::StripData`] — the zero-copy reply path builds
/// its frame without constructing the message value.
pub(crate) const STRIP_DATA_OPCODE: u8 = 0x15;

/// What the engine must do with one request's outcome: the wire effect
/// [`process_request`] decided (fault injection included), for the
/// worker to turn into an outbound frame.
pub(crate) enum ReplyAction {
    /// Write the reply frame and keep serving.
    Reply(Message),
    /// Write a [`Message::StripData`] reply whose payload is these
    /// stored strips back to back, signed from `u32`, the checksum of
    /// all of them combined from the sums stored with each — the
    /// zero-copy fast path for `GetStrip` and `GetStrips`.
    ReplyRun(Vec<Bytes>, u32),
    /// Write the reply frame with its final CRC byte flipped
    /// (injected [`FaultAction::CorruptCrc`]), then keep serving.
    ReplyCorrupt(Message),
    /// Write only the first half of the reply frame, then close the
    /// connection (injected [`FaultAction::DropMidFrame`]).
    ReplyTruncated(Message),
    /// Write the reply, then set the daemon-wide shutdown flag and
    /// close the connection (the request was [`Message::Shutdown`]).
    ShutdownAfter(Message),
}

/// The request core: metrics, trace events, fault injection, deadline
/// enforcement, dispatch. `trace` is the frame's trace id; `deadline`
/// is the absolute expiry derived from the frame's budget field at
/// decode time (`None` for a frame without one — never enforced).
pub(crate) fn process_request(
    shared: &Shared,
    class: ConnClass,
    msg: Message,
    trace: Option<u64>,
    deadline: Option<Instant>,
    ctx: RequestCtx,
) -> ReplyAction {
    let class_label = match class {
        ConnClass::Client => "client",
        ConnClass::Server => "server",
    };
    let started = Instant::now();
    let op = msg.op_name();
    let opcode = msg.opcode();
    let opc = op_class(&msg);
    shared.metrics.counter("dasd_requests_total", &[("op", op), ("class", class_label)]).inc();
    if das_obs::enabled(Level::Trace) {
        event(
            Level::Trace,
            "dasd",
            "request",
            &[
                ("server", shared.id.0.to_string()),
                ("op", op.to_string()),
                ("trace", trace.map(|t| format!("{t:#018x}")).unwrap_or_else(|| "-".into())),
            ],
        );
    }
    let is_shutdown = matches!(msg, Message::Shutdown);
    // A request whose propagated budget already expired (typically:
    // while queued behind an overload) is shed before any work — the
    // client gave up on it, so serving it would burn capacity on an
    // answer nobody reads. Typed and transient: the retry policy
    // backs off and retries with a fresh budget.
    if let Some(d) = deadline {
        if Instant::now() >= d && !shed_exempt(&msg) {
            shared.metrics.counter("dasd_requests_shed_total", &[("reason", "deadline")]).inc();
            // The root span that would have been a Dispatch becomes a
            // Shed annotated with why the request died — `das trace`
            // of a timed-out request shows where it was killed.
            finish_root(shared, trace, ctx, Stage::Shed, opc, NOTE_SHED_DEADLINE, started);
            return ReplyAction::Reply(err(
                ErrorCode::Overloaded,
                "request shed: deadline budget expired before execution",
            ));
        }
    }
    // Consult the fault plan before answering. Shutdown is exempt
    // so a chaos harness can always tear its cluster down.
    let fault = if is_shutdown {
        None
    } else {
        shared.fault.decide(FaultPoint::Request { class, opcode })
    };
    if let Some(action) = fault {
        event(
            Level::Debug,
            "dasd",
            "injecting fault",
            &[
                ("server", shared.id.0.to_string()),
                ("op", op.to_string()),
                ("action", format!("{action:?}")),
            ],
        );
        shared.metrics.counter("dasd_faults_injected_total", &[("op", op)]).inc();
    }
    match fault {
        Some(FaultAction::Retryable) => {
            return ReplyAction::Reply(err(ErrorCode::Retryable, "injected fault: try again"));
        }
        Some(FaultAction::Delay { millis }) => {
            std::thread::sleep(Duration::from_millis(millis));
        }
        Some(FaultAction::DropMidFrame) => {
            let reply = dispatch(shared, msg, trace, deadline, ctx);
            finish_root(shared, trace, ctx, Stage::Dispatch, opc, NOTE_NONE, started);
            return ReplyAction::ReplyTruncated(reply);
        }
        Some(FaultAction::CorruptCrc) => {
            let reply = dispatch(shared, msg, trace, deadline, ctx);
            finish_root(shared, trace, ctx, Stage::Dispatch, opc, NOTE_NONE, started);
            return ReplyAction::ReplyCorrupt(reply);
        }
        Some(FaultAction::RefuseAccept) | None => {}
    }
    // Strip reads take the zero-copy path: each strip's bytes leave the
    // store as a refcounted handle and become a body segment of the
    // reply frame without an intermediate payload `Vec`.
    if let Some((file, first, count)) = strip_run(&msg) {
        let read_started = Instant::now();
        let action = match read_run(shared, file, first, count) {
            Ok((strips, sum)) => ReplyAction::ReplyRun(strips, sum),
            Err(e) => {
                log_request_failure(shared, op, &e);
                ReplyAction::Reply(e)
            }
        };
        record_stage(shared, trace, ctx.root, Stage::LocalRead, opc, NOTE_NONE, read_started.elapsed());
        shared
            .metrics
            .histogram("dasd_request_duration_us", &[("op", op)])
            .observe(started.elapsed().as_micros() as u64);
        finish_root(shared, trace, ctx, Stage::Dispatch, opc, NOTE_NONE, started);
        return action;
    }
    let reply = dispatch(shared, msg, trace, deadline, ctx);
    shared
        .metrics
        .histogram("dasd_request_duration_us", &[("op", op)])
        .observe(started.elapsed().as_micros() as u64);
    finish_root(shared, trace, ctx, Stage::Dispatch, opc, NOTE_NONE, started);
    log_request_failure(shared, op, &reply);
    if is_shutdown {
        shared.shutdown.store(true, Ordering::SeqCst);
        ReplyAction::ShutdownAfter(reply)
    } else {
        ReplyAction::Reply(reply)
    }
}

/// Emit the debug event for a request that produced a typed error.
fn log_request_failure(shared: &Shared, op: &str, reply: &Message) {
    if let Message::Error { code, message } = reply {
        event(
            Level::Debug,
            "dasd",
            "request failed",
            &[
                ("server", shared.id.0.to_string()),
                ("op", op.to_string()),
                ("code", format!("{code:?}")),
                ("detail", message.clone()),
            ],
        );
    }
}

fn dispatch(
    shared: &Shared,
    msg: Message,
    trace: Option<u64>,
    deadline: Option<Instant>,
    ctx: RequestCtx,
) -> Message {
    match msg {
        Message::Hello { .. } => err(ErrorCode::BadRequest, "duplicate Hello"),
        Message::Ping => Message::Pong,
        Message::Shutdown => Message::ShutdownOk,
        Message::Stats => Message::StatsResp(wire_stats(&shared.metrics)),
        Message::ResetStats => {
            for class in ConnClass::ALL {
                let (bytes_in, bytes_out) = wire_gauges(&shared.metrics, class);
                bytes_in.set(0);
                bytes_out.set(0);
            }
            Message::ResetStatsOk
        }
        Message::MetricsDump => {
            shared.metrics.gauge("dasd_server_id", &[]).set(i64::from(shared.id.0));
            for (peer, open) in shared.peers.breaker_states() {
                shared
                    .metrics
                    .gauge("dasd_peer_breaker_open", &[("peer", &peer.to_string())])
                    .set(i64::from(open));
            }
            // Flight-recorder occupancy and the event throttle's
            // suppression count, mirrored into gauges: one dump
            // carries the whole picture.
            shared.metrics.gauge("dasd_spans_retained", &[]).set(shared.spans.len() as i64);
            shared
                .metrics
                .gauge("dasd_spans_evicted_total", &[])
                .set(shared.spans.evicted() as i64);
            shared
                .metrics
                .gauge("das_obs_events_suppressed_total", &[])
                .set(das_obs::suppressed_total() as i64);
            Message::MetricsText { text: shared.metrics.encode() }
        }
        Message::TraceDump { trace: wanted } => Message::TraceDumpResp {
            spans: das_obs::encode_spans(&shared.spans.dump_trace(wanted)),
        },
        Message::SlowLog { per_class } => Message::SlowLogResp {
            spans: das_obs::encode_spans(&shared.spans.slowest(per_class as usize)),
        },
        Message::CreateFile { name, file_len, strip_size, policy, servers } => {
            if servers != shared.peers.cluster_size() {
                return err(
                    ErrorCode::BadRequest,
                    format!("layout over {servers} servers in a {}-server cluster", shared.peers.cluster_size()),
                );
            }
            if strip_size == 0 {
                return err(ErrorCode::BadRequest, "zero strip size");
            }
            let mut inner = lock(&shared.inner);
            if let Some(&id) = inner.by_name.get(&name) {
                // A client that lost our reply (dropped connection)
                // will retry the create: answer the retry with the
                // existing id when the parameters match exactly, so
                // CreateFile is idempotent under retransmission.
                let meta = &inner.files[id.0 as usize];
                if meta.len == file_len
                    && meta.spec == StripeSpec::new(strip_size as usize)
                    && meta.layout == Layout::new(policy, servers)
                {
                    return Message::CreateFileOk { file: id.0 };
                }
                return err(ErrorCode::DuplicateName, format!("file {name:?} already exists"));
            }
            let id = FileId(inner.files.len() as u32);
            inner.by_name.insert(name.clone(), id);
            inner.files.push(FileMeta {
                id,
                name,
                len: file_len,
                spec: StripeSpec::new(strip_size as usize),
                layout: Layout::new(policy, servers),
            });
            Message::CreateFileOk { file: id.0 }
        }
        Message::Lookup { name } => {
            let inner = lock(&shared.inner);
            match inner.by_name.get(&name) {
                Some(id) => {
                    let meta = &inner.files[id.0 as usize];
                    Message::LookupOk { file: id.0, dist: dist_of(meta) }
                }
                None => err(ErrorCode::NoSuchFile, format!("no file named {name:?}")),
            }
        }
        Message::GetDistribution { file } => {
            let inner = lock(&shared.inner);
            match inner.meta(file) {
                Ok(meta) => Message::DistributionResp { dist: dist_of(meta) },
                Err(e) => e,
            }
        }
        put @ Message::PutStrip { .. } => put_run(shared, put, ctx.blob_sum),
        // Live strip reads short-circuit in process_request and ship
        // zero-copy as ReplyRun; these owned-payload arms only run under
        // fault injection (corrupt/truncated replies).
        Message::GetStrip { file, strip } => owned_run(shared, file, strip, 1),
        Message::GetStrips { file, first, count } => owned_run(shared, file, first, count),
        Message::RedistPrepare { file, policy } => {
            redist_prepare(shared, file, policy, trace, deadline, ctx)
        }
        Message::RedistCommit { file, policy } => redist_commit(shared, file, policy),
        Message::Execute { file, out_file, kernel, img_width, element_size, successive, force } => {
            execute(
                shared,
                ExecuteArgs { file, out_file, kernel: &kernel, img_width, element_size, successive, force },
                trace,
                deadline,
                ctx,
            )
        }
        // Response opcodes arriving as requests.
        other => err(ErrorCode::BadRequest, format!("unexpected opcode 0x{:02x}", other.opcode())),
    }
}

/// The `(file, first, count)` run a strip read asks for: a
/// `GetStrip` is the run of one.
fn strip_run(msg: &Message) -> Option<(u32, u64, u32)> {
    match *msg {
        Message::GetStrip { file, strip } => Some((file, strip, 1)),
        Message::GetStrips { file, first, count } => Some((file, first, count)),
        _ => None,
    }
}

/// Read a run of locally-held strips as refcounted handles, with the
/// checksum of all of them as one blob, combined from the sums stored
/// beside each — the zero-copy source for strip-read replies (the
/// engine writes each returned [`Bytes`] straight into a body segment
/// of the frame and signs it from the sum). An empty run, one of more
/// than [`MAX_INFLIGHT`] strips, one past the file's end, one longer
/// than a frame can carry or one reaching a strip this server does not
/// hold is refused: the typed reply message is the `Err`.
fn read_run(shared: &Shared, file: u32, first: u64, count: u32) -> Result<(Vec<Bytes>, u32), Message> {
    if count == 0 || count as usize > MAX_INFLIGHT {
        return Err(err(
            ErrorCode::BadRequest,
            format!("a run of {count} strips at strip {first}; a run holds 1 to {MAX_INFLIGHT}"),
        ));
    }
    let inner = lock(&shared.inner);
    let meta = inner.meta(file)?;
    let end = first.saturating_add(u64::from(count));
    if end > meta.strip_count() {
        let last = end - 1;
        return Err(err(ErrorCode::OutOfBounds, format!("strip {last} of {}-strip file", meta.strip_count())));
    }
    let mut strips = Vec::with_capacity(count as usize);
    let (mut len, mut sum) = (0usize, None);
    for strip in first..end {
        let (data, strip_sum) = match inner.store.read_strip_summed(meta.id, StripId(strip)) {
            Ok((data, Some(strip_sum))) => (data, strip_sum),
            // Every store site of this daemon sums what it stores.
            Ok((_, None)) => return Err(err(ErrorCode::Internal, format!("held strip {strip} has no checksum"))),
            Err(_) => {
                return Err(err(
                    ErrorCode::StripNotLocal,
                    format!("server {} does not hold strip {strip}", shared.id.0),
                ))
            }
        };
        len += data.len();
        if len > MAX_RUN_BYTES {
            return Err(err(ErrorCode::BadRequest, format!("a run of {count} strips from {first} outgrows a frame")));
        }
        sum = Some(sum.map_or(strip_sum, |sum| crc32_combine(sum, strip_sum, data.len())));
        strips.push(data);
    }
    // `count` ≥ 1, so there is a sum.
    Ok((strips, sum.unwrap_or_default()))
}

/// [`read_run`] gathered into one owned `StripData` reply, or the
/// refusal.
fn owned_run(shared: &Shared, file: u32, first: u64, count: u32) -> Message {
    match read_run(shared, file, first, count) {
        // das-lint: allow(DA801) fault-injection fallback; live reads use the ReplyRun fast path
        Ok((strips, _)) => Message::StripData { payload: strips.iter().flat_map(|strip| strip.to_vec()).collect() },
        Err(e) => e,
    }
}

/// Store a `PutStrip` run: the strips from its `strip` on that its
/// payload covers exactly, back to back, each with its own checksum.
/// `sum` is the checksum the frame decoder verified the whole payload
/// under; the strips' sums must combine to it. An empty payload, one
/// that ends inside a strip or past the file's end, one covering more
/// than [`MAX_INFLIGHT`] strips, or a run reaching a strip this server
/// does not hold is refused with nothing stored.
fn put_run(shared: &Shared, put: Message, sum: Option<u32>) -> Message {
    let Message::PutStrip { file, strip: first, payload } = put else {
        return err(ErrorCode::BadRequest, format!("opcode 0x{:02x} is not a strip write", put.opcode()));
    };
    let mut inner = lock(&shared.inner);
    let meta = match inner.meta(file) {
        Ok(meta) => meta,
        Err(e) => return e,
    };
    if first >= meta.strip_count() {
        return err(ErrorCode::OutOfBounds, format!("strip {first} of {}-strip file", meta.strip_count()));
    }
    let not_held = |strip: u64| {
        err(ErrorCode::StripNotLocal, format!("server {} does not hold strip {strip}", shared.id.0))
    };
    if !meta.layout.holds(shared.id, StripId(first)) {
        return not_held(first);
    }
    // The run: as many strips from `first` on as the payload covers.
    let size = payload.len();
    let mut run = Vec::new();
    let mut covered = 0usize;
    for strip in (first..meta.strip_count()).map(StripId) {
        if covered >= size {
            break;
        }
        if run.len() == MAX_INFLIGHT {
            return err(
                ErrorCode::BadRequest,
                format!("the run from strip {first} covers more than {MAX_INFLIGHT} strips"),
            );
        }
        let len = meta.spec.strip_len(strip, meta.len);
        run.push((strip, covered..covered + len));
        covered += len;
    }
    if run.is_empty() || covered != payload.len() {
        let wanted = meta.spec.strip_len(StripId(first), meta.len);
        return err(
            ErrorCode::StripLengthMismatch,
            format!("strip {first} wants {wanted} bytes, or a run of whole strips from it; got {size}"),
        );
    }
    if let Some(&(strip, _)) = run.iter().find(|(strip, _)| !meta.layout.holds(shared.id, *strip)) {
        return not_held(strip.0);
    }
    // The sum the frame decoder verified the bytes under; bytes that
    // came without one are never summed here.
    let Some(sum) = sum else {
        return err(ErrorCode::Internal, format!("strip {first} arrived without a checksum"));
    };
    let (id, layout) = (meta.id, meta.layout);
    let payload = Bytes::from(payload);
    let strips: Vec<(StripId, Bytes, u32)> = match run.as_slice() {
        // A run of one is stored under the frame's own sum, unread.
        [(strip, _)] => vec![(*strip, payload, sum)],
        _ => run.into_iter().map(|(strip, range)| (strip, payload.slice(range.clone()), crc32(&[&payload[range]]))).collect(),
    };
    if crc32_concat(strips.iter().map(|(_, bytes, strip_sum)| (*strip_sum, bytes.len()))) != Some(sum) {
        return err(ErrorCode::Internal, format!("the run from strip {first} does not sum to its frame's checksum"));
    }
    for (strip, bytes, strip_sum) in strips {
        inner.store.store_summed(id, strip, bytes, strip_sum, layout.primary(strip) == shared.id);
    }
    Message::PutStripOk
}

fn dist_of(meta: &FileMeta) -> das_pfs::DistributionInfo {
    das_pfs::DistributionInfo {
        strip_size: meta.spec.strip_size,
        servers: meta.layout.servers,
        policy: meta.layout.policy,
        file_len: meta.len,
    }
}

/// A fetch of strip `sid` under `meta`'s layout: the strip and its
/// holders, primary first.
fn strip_ask(meta: &FileMeta, sid: StripId) -> StripAsk {
    StripAsk { strip: sid.0, holders: meta.layout.placement(sid).holders().iter().map(|h| h.0).collect() }
}

/// What a peer fetch of `ask`, a strip of `meta`, delivered, as a
/// request takes it: a strip no holder served is the transient
/// `Retryable`, so the client retries or degrades instead of hanging.
fn checked_strip(meta: &FileMeta, ask: &StripAsk, got: Result<Vec<u8>, NetError>) -> Result<Bytes, Message> {
    let sid = StripId(ask.strip);
    let payload = got.map_err(|e| {
        err(ErrorCode::Retryable, format!("strip {} unreachable on holders {:?}: {e}", sid.0, ask.holders))
    })?;
    // A short (or long) strip from a confused peer must fail typed
    // here: accepted into a strip assembly it would panic the first
    // out-of-range element read.
    let want = meta.spec.strip_len(sid, meta.len);
    if payload.len() != want {
        return Err(err(
            ErrorCode::StripLengthMismatch,
            format!("peer returned {} bytes for strip {}, wanted {want}", payload.len(), sid.0),
        ));
    }
    Ok(Bytes::from(payload))
}

/// Phase one of redistribution: pull every strip this server gains
/// under `policy` from its current holders, in one peer wave, into the
/// staging area. The live layout is untouched until every server has
/// prepared.
fn redist_prepare(
    shared: &Shared,
    file: u32,
    policy: das_pfs::LayoutPolicy,
    trace: Option<u64>,
    deadline: Option<Instant>,
    ctx: RequestCtx,
) -> Message {
    // The file as currently laid out, and the strips this server gains.
    let (old, wanted) = {
        let inner = lock(&shared.inner);
        let old = match inner.meta(file) {
            Ok(m) => m.clone(),
            Err(e) => return e,
        };
        let new_layout = Layout::new(policy, old.layout.servers);
        let wanted: Vec<StripId> = (0..old.strip_count())
            .map(StripId)
            .filter(|&sid| new_layout.holds(shared.id, sid) && !inner.store.holds(old.id, sid))
            .collect();
        (old, wanted)
    };
    let asks: Vec<StripAsk> = wanted.into_iter().map(|sid| strip_ask(&old, sid)).collect();
    let mut staged = Vec::with_capacity(asks.len());
    // An unreachable strip is a *transient* failure (the holder may
    // come back), so the client may retry or abandon the
    // redistribution and degrade.
    let by = FetchFor { trace, deadline, parent: ctx.root, op: OpClass::Redist };
    let pulled = shared.peers.get_strips(file, &asks, by, |i, got| {
        let payload = checked_strip(&old, &asks[i], got)?;
        let sum = crc32(&[&payload]);
        staged.push((StripId(asks[i].strip), payload, sum));
        Ok(())
    });
    if let Err(reply) = pulled {
        return reply;
    }
    let fetched_strips = staged.len() as u64;
    let fetched_bytes = staged.iter().map(|(_, payload, _)| payload.len() as u64).sum();
    lock(&shared.inner).staged.insert(file, staged);
    Message::RedistPrepareOk { fetched_strips, fetched_bytes }
}

/// Phase two: adopt staged strips, re-flag survivors, evict strips no
/// longer held, and swap the file's layout.
fn redist_commit(shared: &Shared, file: u32, policy: das_pfs::LayoutPolicy) -> Message {
    let mut inner = lock(&shared.inner);
    let (id, servers, strip_count) = match inner.meta(file) {
        Ok(m) => (m.id, m.layout.servers, m.strip_count()),
        Err(e) => return e,
    };
    let new_layout = Layout::new(policy, servers);
    let staged = inner.staged.remove(&file).unwrap_or_default();
    for s in 0..strip_count {
        let sid = StripId(s);
        if !inner.store.holds(id, sid) {
            continue;
        }
        if new_layout.holds(shared.id, sid) {
            // Survivor: refresh the primary flag under the new layout.
            inner.store.set_primary(id, sid, new_layout.primary(sid) == shared.id);
        } else {
            inner.store.evict(id, sid);
        }
    }
    for (sid, data, sum) in staged {
        inner.store.store_summed(id, sid, data, sum, new_layout.primary(sid) == shared.id);
    }
    inner.files[file as usize].layout = new_layout;
    Message::RedistCommitOk
}

/// Arguments of one [`Message::Execute`] request.
struct ExecuteArgs<'a> {
    file: u32,
    out_file: u32,
    kernel: &'a str,
    img_width: u64,
    element_size: u32,
    successive: bool,
    force: bool,
}

/// What [`plan_execute`] settles before the first strip moves: the
/// validated geometry, the kernel, and this server's tasks with the
/// strips each must fetch. Read-only from then on.
struct ExecPlan {
    file: u32,
    out_file: u32,
    out_id: FileId,
    /// The input file's geometry and layout (the output mirrors both).
    meta: FileMeta,
    kernel: Box<dyn das_kernels::Kernel>,
    /// This server's primary strips, ascending — the task order — each
    /// with its dependence strips this server does not hold, ascending.
    tasks: Vec<(StripId, Vec<StripId>)>,
}

/// Strips with their bytes, ascending by id.
type Strips = Vec<(StripId, Bytes)>;

/// The active-storage execution path (paper Fig. 3 right branch): plan,
/// then one peer wave over this server's tasks in ascending order, all
/// on this thread. The wave asks the peers for every task's dependence
/// strips at once, and its delivery runs each task's kernel as soon as
/// the task's strips and every earlier task's have landed, while later
/// fetches are still on the wire; a task that fetches nothing runs as
/// soon as the tasks before it have, and an Execute that fetches
/// nothing runs every task around an empty wave. The multiset of
/// fetches per task is the serial loop's: each task fetches every
/// remote strip it reads, however many other tasks fetch it too — no
/// cross-task cache, exactly as the predictor prices.
///
/// A kernel runs while the wave holds its peer links, and its task
/// takes the store lock to store the output: links, then store. No path
/// takes a peer link while holding the store lock. After a delivery
/// that ran a task the thread yields. Without that, on two cores the
/// polling shard that shares this thread's core waited, with it the
/// replies to the peers' fetches, and the benchmark's `scheme-nas`
/// `op_p90_ms` rose by a quarter (EXPERIMENTS "One thread per
/// Execute"). An untraced wave has one fetch in flight per link, so
/// there the link whose reply handed a task over writes its next fetch
/// only after that task's kernel; only tests issue untraced Executes.
///
/// Replica forwards are not part of that loop, where each would be a
/// blocking round trip to a peer that is itself computing: they go out
/// in one wave after the last kernel, and every one is acknowledged or
/// counted in `dasd_replica_forward_failures_total` before `ExecuteOk`.
fn execute(
    shared: &Shared,
    args: ExecuteArgs<'_>,
    trace: Option<u64>,
    deadline: Option<Instant>,
    ctx: RequestCtx,
) -> Message {
    let (plan, held) = match plan_execute(shared, &args, trace, ctx) {
        Ok(planned) => planned,
        Err(reply) => return reply,
    };
    let asks: Vec<StripAsk> =
        plan.tasks.iter().flat_map(|(_, deps)| deps).map(|&sid| strip_ask(&plan.meta, sid)).collect();
    let mut compute = Compute::new(held);
    // Run every task, in order, whose remote strips are all in `deps`.
    let mut tasks = plan.tasks.iter().peekable();
    let mut run_ready = |deps: &mut Strips| {
        while let Some((t, _)) = tasks.next_if(|(_, want)| want.len() == deps.len()) {
            compute.task(shared, &plan, *t, deps, trace, ctx);
            deps.clear();
        }
    };
    let mut deps = Vec::new();
    run_ready(&mut deps);
    let by = FetchFor { trace, deadline, parent: ctx.root, op: OpClass::Exec };
    let fetched = shared.peers.get_strips(plan.file, &asks, by, |i, got| {
        deps.push((StripId(asks[i].strip), checked_strip(&plan.meta, &asks[i], got)?));
        run_ready(&mut deps);
        if deps.is_empty() {
            // A task ran: give way before the next read, so that the
            // shard that writes this daemon's replies to its peers'
            // fetches, which shares the core, is not kept off it.
            std::thread::yield_now();
        }
        Ok(())
    });
    if let Err(reply) = fetched {
        return reply;
    }
    let Compute { dep_fetches, dep_fetch_bytes, kernel_time, mut assemble_time, outputs, .. } = compute;
    let (forwards, strips): (Vec<Ask>, Vec<u64>) = forward_runs(&plan, &outputs).into_iter().unzip();
    if !forwards.is_empty() {
        let forward_started = Instant::now();
        // A holder that stays down just means its output strips are
        // stored at reduced redundancy — the primary copies are
        // authoritative, so the execution still succeeds. Failures
        // count strips, whatever runs they went in.
        let failed: u64 = shared.peers.put_strips(&forwards, trace).into_iter().map(|i| strips[i]).sum();
        if failed > 0 {
            shared.metrics.counter("dasd_replica_forward_failures_total", &[]).add(failed);
        }
        let forward_time = forward_started.elapsed();
        record_span(shared, trace, ctx.root, Stage::Assemble, OpClass::Exec, NOTE_FORWARD, forward_time);
        assemble_time += forward_time;
    }
    // Spans are per task plus the forward pass (recorded as each ran);
    // the attribution histograms keep one observation per Execute.
    if !plan.tasks.is_empty() {
        shared.stage_hists.observe(Stage::Kernel, OpClass::Exec, kernel_time.as_micros() as u64);
        shared.stage_hists.observe(Stage::Assemble, OpClass::Exec, assemble_time.as_micros() as u64);
    }
    shared.metrics.counter("dasd_strips_computed_total", &[]).add(plan.tasks.len() as u64);
    shared.metrics.counter("dasd_dep_fetches_total", &[]).add(dep_fetches);
    shared.metrics.counter("dasd_dep_fetch_bytes_total", &[]).add(dep_fetch_bytes);
    Message::ExecuteOk { strips_computed: plan.tasks.len() as u64, dep_fetches, dep_fetch_bytes }
}

/// An output strip of an Execute, its bytes and their checksum.
type Output = (StripId, Bytes, u32);

/// The replica forwards of an Execute's `outputs` (its output strips,
/// ascending, each with its bytes and sum): one `PutStrip` per replica
/// holder and [`strip_runs`] run of strips with the same replicas,
/// signed from the strips' sums combined, with the strips it carries.
fn forward_runs(plan: &ExecPlan, outputs: &[Output]) -> Vec<(Ask, u64)> {
    let FileMeta { spec, len, layout, .. } = &plan.meta;
    let runs = strip_runs(spec, *len, outputs.iter().map(|(sid, ..)| sid.0), |sid| layout.replicas(sid));
    let mut forwards = Vec::new();
    let mut rest = outputs;
    for (strips, _, holders) in runs {
        let (run, tail) = rest.split_at((strips.end - strips.start) as usize);
        rest = tail;
        // Never this server: the run is its primary strips.
        let Some((last, others)) = holders.split_last() else { continue };
        let payload = run.iter().map(|(_, bytes, _)| &bytes[..]).collect::<Vec<&[u8]>>().concat();
        let sum = crc32_concat(run.iter().map(|(_, bytes, sum)| (*sum, bytes.len())));
        let put = Message::PutStrip { file: plan.out_file, strip: strips.start, payload };
        for holder in others {
            forwards.push(((holder.0, put.clone(), sum), run.len() as u64));
        }
        forwards.push(((last.0, put, sum), run.len() as u64));
    }
    forwards
}

/// Validate the request, snapshot this server's strips, run the
/// decision workflow. Returns the plan and the strips held here
/// (primary or replica), assembled once; `Err` is the reply that ends
/// the Execute.
fn plan_execute(
    shared: &Shared,
    args: &ExecuteArgs<'_>,
    trace: Option<u64>,
    ctx: RequestCtx,
) -> Result<(ExecPlan, StripAssembly), Message> {
    if args.element_size != 4 {
        return Err(err(ErrorCode::BadRequest, format!("unsupported element size {}", args.element_size)));
    }
    // Snapshot metadata and local strips under the lock; everything
    // network-bound afterwards runs without it.
    let read_started = Instant::now();
    let (out_id, meta, held) = snapshot_files(shared, args.file, args.out_file)?;
    record_stage(shared, trace, ctx.root, Stage::LocalRead, OpClass::Exec, NOTE_NONE, read_started.elapsed());

    let kernel = kernel_by_name(args.kernel)
        .ok_or_else(|| err(ErrorCode::UnknownOperator, format!("no kernel {:?}", args.kernel)))?;
    let row_bytes = args.img_width * u64::from(args.element_size);
    if row_bytes == 0 || meta.len % row_bytes != 0 {
        return Err(err(
            ErrorCode::GeometryMismatch,
            format!("{}-byte file is not whole {}-element rows", meta.len, args.img_width),
        ));
    }
    decide_offload(shared, args, &meta, trace)?;
    let label = format!("dasd{}", shared.id.0);
    let mut local = StripAssembly::new(args.img_width, meta.len / row_bytes, meta.spec.strip_size, label);
    for (sid, data) in held {
        local.insert(sid, data);
    }
    let offsets = kernel.dependence_offsets(args.img_width);
    let (elems_per_strip, elements) = (meta.spec.strip_size as u64 / 4, meta.len / 4);
    let tasks = (meta.layout.primary_strips(shared.id, meta.strip_count()).into_iter())
        .map(|t| {
            let deps = dependent_strips(t.0, &offsets, elems_per_strip, elements);
            (t, deps.into_iter().map(StripId).filter(|&sid| !local.contains(sid)).collect())
        })
        .collect();
    let plan = ExecPlan { file: args.file, out_file: args.out_file, out_id, meta, kernel, tasks };
    Ok((plan, local))
}

/// Under the daemon lock: check the output file mirrors the input's
/// geometry and layout, and take refcounted handles to every strip of
/// the input held here. Returns the output's id, the input's metadata
/// and those strips.
fn snapshot_files(
    shared: &Shared,
    file: u32,
    out_file: u32,
) -> Result<(FileId, FileMeta, Strips), Message> {
    let inner = lock(&shared.inner);
    let meta = inner.meta(file)?;
    let out = inner.meta(out_file)?;
    if out.len != meta.len || out.spec.strip_size != meta.spec.strip_size {
        return Err(err(ErrorCode::GeometryMismatch, "output geometry differs from input"));
    }
    if out.layout != meta.layout {
        return Err(err(ErrorCode::BadRequest, "output layout differs from input"));
    }
    let mut local = Vec::new();
    for sid in inner.store.all_strips(meta.id) {
        match inner.store.read_strip(meta.id, sid) {
            Ok(data) => local.push((sid, data)),
            Err(e) => {
                return Err(err(ErrorCode::Internal, format!("held strip {} unreadable: {e:?}", sid.0)))
            }
        }
    }
    Ok((out.id, meta.clone(), local))
}

/// The decision workflow. A forced offload (the NAS scheme's "always
/// offload" behaviour) skips the *gate* but still runs the predictor,
/// so predicted-vs-measured stays queryable for every Execute that
/// runs; a refused one fetches nothing and adds no prediction. Each
/// daemon sees the same metadata, so its predicted_* counters carry
/// the full cluster-wide Eqs. 1–13 prediction per Execute; the
/// measured dep-fetch counters carry only this daemon's share (sum
/// them across the fleet to compare).
fn decide_offload(
    shared: &Shared,
    args: &ExecuteArgs<'_>,
    meta: &FileMeta,
    trace: Option<u64>,
) -> Result<(), Message> {
    let opts = RequestOptions {
        img_width: args.img_width,
        element_size: 4,
        successive: args.successive,
        ..Default::default()
    };
    let decision = shared.as_client.decide_from_distribution(dist_of(meta), args.kernel, &opts);
    let (outcome, predicted) = match decision {
        // A forced offload runs even when the decision errors.
        decision if args.force => ("nas", decision.ok().map(|d| *d.predicted())),
        Ok(Decision::Offload { predicted, .. }) => ("das", Some(predicted)),
        Ok(Decision::Reject { reason, predicted }) => {
            shared.metrics.counter("dasd_decisions_total", &[("outcome", "ts")]).inc();
            event(
                Level::Info,
                "dasd",
                "offload rejected",
                &[
                    ("server", shared.id.0.to_string()),
                    ("kernel", args.kernel.to_string()),
                    ("reason", format!("{reason:?}")),
                    ("predicted_fetch_bytes", predicted.nas.bytes.to_string()),
                    ("ts_client_bytes", predicted.ts_client_bytes.to_string()),
                ],
            );
            return Err(err(
                ErrorCode::FallbackToNormalIo,
                format!(
                    "{reason:?}: strip fetches would move {} bytes vs {} as normal I/O",
                    predicted.nas.bytes, predicted.ts_client_bytes
                ),
            ));
        }
        Err(e) => return Err(err(ErrorCode::BadRequest, e.to_string())),
    };
    // Only work that runs is priced: a refused offload fetches nothing.
    if let Some(p) = predicted {
        shared.metrics.counter("dasd_predicted_dep_fetches_total", &[]).add(p.nas.fetches);
        shared.metrics.counter("dasd_predicted_dep_fetch_bytes_total", &[]).add(p.nas.bytes);
        shared.metrics.counter("dasd_predicted_ts_client_bytes_total", &[]).add(p.ts_client_bytes);
    }
    shared.metrics.counter("dasd_decisions_total", &[("outcome", outcome)]).inc();
    event(
        Level::Info,
        "dasd",
        "offload accepted",
        &[
            ("server", shared.id.0.to_string()),
            ("kernel", args.kernel.to_string()),
            ("outcome", outcome.to_string()),
            ("trace", trace.map(|t| format!("{t:#018x}")).unwrap_or_else(|| "-".into())),
        ],
    );
    Ok(())
}

/// The compute side of one Execute: the strips its tasks read, and
/// what they have done so far.
struct Compute {
    /// The strips held here (a table of handles), which each task lends
    /// its fetched strips for the length of its kernel.
    view: StripAssembly,
    dep_fetches: u64,
    dep_fetch_bytes: u64,
    kernel_time: Duration,
    assemble_time: Duration,
    /// Each output strip that has replicas, with its bytes and sum:
    /// what the forward wave sends.
    outputs: Vec<Output>,
}

impl Compute {
    fn new(view: StripAssembly) -> Compute {
        Compute {
            view,
            dep_fetches: 0,
            dep_fetch_bytes: 0,
            kernel_time: Duration::ZERO,
            assemble_time: Duration::ZERO,
            outputs: Vec::new(),
        }
    }

    /// Run task `t`: lend its fetched `deps` to the view for the
    /// length of its kernel (so there is no cross-task reuse), run the
    /// kernel over the strip, store the output and keep it for the
    /// forward wave if the strip has replicas. The kernel and assemble
    /// times are each also recorded as a span of their own.
    fn task(&mut self, shared: &Shared, plan: &ExecPlan, t: StripId, deps: &Strips, trace: Option<u64>, ctx: RequestCtx) {
        self.dep_fetches += deps.len() as u64;
        self.dep_fetch_bytes += deps.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        for (sid, data) in deps {
            self.view.insert(*sid, data.clone());
        }
        let kernel_started = Instant::now();
        let (_, out) = self.view.compute_strip(&*plan.kernel, t);
        let kernel_time = kernel_started.elapsed();
        record_span(shared, trace, ctx.root, Stage::Kernel, OpClass::Exec, NOTE_NONE, kernel_time);
        for (sid, _) in deps {
            self.view.remove(*sid);
        }

        let assemble_started = Instant::now();
        // Summed once, here: the stored copy and every forward carry it.
        let bytes = Bytes::from(cells_to_le_bytes(&out));
        let sum = crc32(&[&bytes]);
        if !plan.meta.layout.replicas(t).is_empty() {
            self.outputs.push((t, bytes.clone(), sum));
        }
        lock(&shared.inner).store.store_summed(plan.out_id, t, bytes, sum, true);
        let assemble_time = assemble_started.elapsed();
        record_span(shared, trace, ctx.root, Stage::Assemble, OpClass::Exec, NOTE_NONE, assemble_time);
        self.kernel_time += kernel_time;
        self.assemble_time += assemble_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DasCluster;
    use crate::codec::encode_frame_opts;
    use crate::conn::RpcConn;
    use crate::proto::Role;
    use das_pfs::LayoutPolicy;
    use das_runtime::DegradeEvent;

    const SERVERS: usize = 4;
    const STRIP: usize = 1024;

    /// `SERVERS` daemons on ephemeral loopback ports, and their addresses.
    fn boot() -> (Vec<DasdHandle>, Vec<String>) {
        let listeners: Vec<TcpListener> =
            (0..SERVERS).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        let addrs: Vec<String> =
            listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
        let handles = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| spawn(DasdConfig::new(i as u32, addrs.clone()), l).expect("spawn dasd"))
            .collect();
        (handles, addrs)
    }

    #[test]
    fn spawn_refuses_a_pool_under_two_and_an_id_outside_the_cluster() {
        let addr = |l: &TcpListener| l.local_addr().expect("addr").to_string();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cluster = vec![addr(&listener)];
        let one_worker = DasdConfig { pool: 1, ..DasdConfig::new(0, cluster.clone()) };
        let err = spawn(one_worker, listener.try_clone().expect("clone")).err().expect("pool 1 refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let err = spawn(DasdConfig::new(1, cluster), listener).err().expect("id 1 of 1 refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }

    fn teardown(handles: Vec<DasdHandle>) {
        for h in &handles {
            h.shutdown();
        }
        handles.into_iter().for_each(DasdHandle::join);
    }

    /// The checksum is end to end: a strip whose bytes change in the
    /// store after ingest is served under the sum it arrived with, so
    /// its reader — not the daemon — rejects it, and a replicated read
    /// goes to the other holder. In the middle of a run it fails the
    /// whole run's frame, and the run goes to the other holder.
    #[test]
    fn a_strip_that_rots_in_the_store_fails_at_its_reader() {
        let (handles, addrs) = boot();
        let policy = RetryPolicy::fast();
        let data: Vec<u8> = (0..24 * STRIP).map(|i| (i * 31 % 251) as u8).collect();
        let mut writer = DasCluster::connect_with(&addrs, policy.clone()).expect("connect");
        // Strip 0 alone, and strips 0–2 as one run: primary on server
        // 0, replica on server 3.
        let layouts = [(LayoutPolicy::GroupedReplicated { group: 2 }, 1), (LayoutPolicy::replicated(6, 3), 3)];
        for (i, (grouped, run)) in layouts.into_iter().enumerate() {
            let name = format!("rot{i}.raw");
            let file = writer.create_file(&name, data.len() as u64, STRIP as u32, grouped).expect("create");
            writer.put_file(file, &data).expect("ingest");
            let layout = Layout::new(grouped, SERVERS as u32);
            for strip in (0..run).map(StripId) {
                assert_eq!((layout.primary(strip), layout.replicas(strip)), (ServerId(0), vec![ServerId(3)]));
            }
            assert_ne!(layout.replicas(StripId(run)), vec![ServerId(3)], "the run ends at strip {run}");

            // Rot the run's middle strip on its primary.
            let rot = StripId(run / 2);
            {
                let mut inner = lock(&handles[0].shared.inner);
                let (bytes, sum) = inner.store.read_strip_summed(FileId(file), rot).expect("held");
                let mut rotten = bytes.to_vec();
                rotten[STRIP / 2] ^= 0x10;
                inner.store.store_summed(FileId(file), rot, Bytes::from(rotten), sum.expect("summed"), true);
            }

            let mut conn = RpcConn::dial(&addrs[0], &policy, Role::Client, 0).expect("dial");
            let get = match run {
                1 => Message::GetStrip { file, strip: 0 },
                n => Message::GetStrips { file, first: 0, count: n as u32 },
            };
            conn.send(&get, None, None, None).expect("send");
            match conn.recv(&get, &policy) {
                Err(NetError::Protocol(m)) => assert!(m.starts_with("frame checksum mismatch"), "{m}"),
                other => panic!("the flipped strip must fail its reader's check, got {other:?}"),
            }

            // A cold client walks the run's holders primary first.
            let mut reader = DasCluster::connect_with(&addrs, policy.clone()).expect("connect");
            assert_eq!(reader.read_file(file).expect("read around the rotten copy"), data);
            let events = reader.take_events();
            for strip in 0..run {
                let failover = DegradeEvent::ReplicaFailover { file, strip, primary: 0, replica: 3 };
                assert!(events.contains(&failover), "{name}: no failover recorded for strip {strip}");
            }
        }
        drop(writer);
        teardown(handles);
    }

    /// What a peer fetch delivers is taken only at the strip's length:
    /// a confused peer's short or long strip is the typed
    /// `StripLengthMismatch` — in a strip assembly it would panic the
    /// first out-of-range element read — and a strip no holder served
    /// is the transient `Retryable`.
    #[test]
    fn a_fetched_strip_is_taken_only_at_its_length() {
        let meta = FileMeta {
            id: FileId(0),
            name: "len.raw".into(),
            len: 3 * STRIP as u64 - 8,
            spec: StripeSpec::new(STRIP),
            layout: Layout::new(LayoutPolicy::RoundRobin, SERVERS as u32),
        };
        let ask = strip_ask(&meta, StripId(2));
        assert_eq!(ask.holders, vec![2]);
        let code = |got| match checked_strip(&meta, &ask, got) {
            Err(Message::Error { code, .. }) => Some(code),
            _ => None,
        };
        assert_eq!(code(Ok(vec![0; STRIP])), Some(ErrorCode::StripLengthMismatch), "the last strip is short");
        assert_eq!(code(Ok(vec![0; STRIP - 9])), Some(ErrorCode::StripLengthMismatch));
        assert_eq!(code(Err(NetError::Protocol("gone".into()))), Some(ErrorCode::Retryable));
        assert_eq!(checked_strip(&meta, &ask, Ok(vec![7; STRIP - 8])), Ok(Bytes::from(vec![7; STRIP - 8])));
    }

    /// Every way a strip enters a store — client `PutStrip`, a
    /// redistribution pull, a survivor re-flagged at commit, a kernel
    /// output, a forwarded replica — leaves it with the sum of its bytes.
    #[test]
    fn every_stored_strip_carries_the_sum_of_its_bytes() {
        let (handles, addrs) = boot();
        let (width, height) = (64u64, 32u64);
        let data = das_kernels::workload::fbm_dem(width, height, 7).to_bytes();
        let mut cluster = DasCluster::connect_with(&addrs, RetryPolicy::fast()).expect("connect");
        let len = data.len() as u64;
        let file = cluster.create_file("sum.raw", len, STRIP as u32, LayoutPolicy::RoundRobin).expect("create");
        cluster.put_file(file, &data).expect("ingest");
        let grouped = LayoutPolicy::GroupedReplicated { group: 2 };
        assert!(cluster.redistribute(file, grouped).expect("redistribute") > 0);
        let out = cluster.create_file("sum.out", len, STRIP as u32, grouped).expect("create output");
        cluster.execute(file, out, "gaussian-filter", width, true, true).expect("execute").expect("offload runs");

        let (mut copies, mut replicas) = (0usize, 0usize);
        for h in &handles {
            let inner = lock(&h.shared.inner);
            for id in [FileId(file), FileId(out)] {
                for sid in inner.store.all_strips(id) {
                    let (bytes, sum) = inner.store.read_strip_summed(id, sid).expect("held");
                    assert_eq!(sum, Some(crc32(&[&bytes])), "server {} file {} strip {}", h.shared.id.0, id.0, sid.0);
                    copies += 1;
                    replicas += usize::from(!inner.store.holds_primary(id, sid));
                }
            }
        }
        // 8 strips a file, each group's two boundary strips copied once.
        assert_eq!((copies, replicas), (2 * (8 + 8), 2 * 8));
        drop(cluster);
        teardown(handles);
    }

    /// Connection churn keeps the wire-byte gauges exact: after 1,000
    /// connect–`Ping`–close cycles the daemon's client bytes are what
    /// the connections moved, their `Hello`s included.
    #[test]
    fn connection_churn_leaves_the_wire_bytes_exact() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = spawn(DasdConfig::new(0, vec![addr.clone()]), listener).expect("spawn dasd");
        let shared = Arc::clone(&handle.shared);
        let policy = RetryPolicy::fast();

        // Every connection's bytes, counted on the client's side.
        let (received, sent) = (Arc::new(das_obs::Gauge::default()), Arc::new(das_obs::Gauge::default()));
        for _ in 0..1000 {
            let mut conn = RpcConn::dial(&addr, &policy, Role::Client, 0).expect("dial");
            conn.count_into(Arc::clone(&received), Arc::clone(&sent));
            conn.send(&Message::Ping, None, None, None).expect("send");
            assert_eq!(conn.recv(&Message::Ping, &policy).expect("recv"), Message::Pong);
        }
        // Joined, so the shard's last count has landed.
        handle.shutdown();
        handle.join();
        let want = WireStats { client_in: sent.get() as u64, client_out: received.get() as u64, ..WireStats::default() };
        assert_eq!(wire_stats(&shared.metrics), want);
    }

    /// `Stats` and `MetricsDump` read one store: after ingest, a
    /// forced NAS offload's peer fetches and `ResetStats`, each
    /// daemon's `StatsResp` and its dump's `dasd_wire_bytes` hold just
    /// the control frames it moved since the reset.
    #[test]
    fn stats_and_the_metrics_dump_count_the_same_bytes_from_a_reset() {
        let (handles, addrs) = boot();
        let mut cluster = DasCluster::connect_with(&addrs, RetryPolicy::fast()).expect("connect");
        let data = das_kernels::workload::fbm_dem(64, 32, 3).to_bytes();
        let len = data.len() as u64;
        let file = cluster.create_file("wire.raw", len, STRIP as u32, LayoutPolicy::RoundRobin).expect("create");
        cluster.put_file(file, &data).expect("ingest");
        let out = cluster.create_file("wire.out", len, STRIP as u32, LayoutPolicy::RoundRobin).expect("create output");
        cluster.execute(file, out, "gaussian-filter", 64, false, true).expect("execute").expect("offload runs");
        let before = cluster.stats().expect("stats");
        assert!(before.iter().all(|s| s.client_in > 0 && s.server_in > 0 && s.server_out > 0), "{before:?}");

        cluster.reset_stats().expect("reset");
        // Requests carry a deadline budget; replies go out bare.
        let ask = |msg: &Message| encode_frame_opts(msg, None, Some(1)).len() as u64;
        let answer = |msg: &Message| encode_frame_opts(msg, None, None).len() as u64;
        for s in 0..SERVERS {
            let Message::StatsResp(stats) = cluster.call(s, &Message::Stats).expect("stats") else {
                panic!("server {s} answered Stats with something else")
            };
            let samples = das_obs::parse(&cluster.metrics_dump(s).expect("dump"));
            let gauge = |class, dir| {
                das_obs::sample_value(&samples, "dasd_wire_bytes", &[("class", class), ("dir", dir)])
                    .expect("a wire-byte gauge") as u64
            };
            let dumped = WireStats {
                client_in: gauge("client", "in"),
                client_out: gauge("client", "out"),
                server_in: gauge("server", "in"),
                server_out: gauge("server", "out"),
            };
            // `Stats` is read after `ResetStatsOk` went out; the dump,
            // after `StatsResp` went out and `MetricsDump` came in.
            let at_stats = WireStats {
                client_in: ask(&Message::Stats),
                client_out: answer(&Message::ResetStatsOk),
                ..WireStats::default()
            };
            assert_eq!(stats, at_stats, "server {s}");
            let at_dump = WireStats {
                client_in: at_stats.client_in + ask(&Message::MetricsDump),
                client_out: at_stats.client_out + answer(&Message::StatsResp(stats)),
                ..WireStats::default()
            };
            assert_eq!(dumped, at_dump, "server {s}");
        }
        drop(cluster);
        teardown(handles);
    }
}
