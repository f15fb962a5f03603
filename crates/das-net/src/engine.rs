//! The daemon's connection core: a sharded nonblocking event loop with
//! request pipelining.
//!
//! Layout of one daemon:
//!
//! * **one accept thread** — the nonblocking accept loop (fault
//!   injection, shutdown polling) dealing sockets round-robin to the
//!   shards;
//! * **a few shard threads** — each owns a set of nonblocking
//!   sockets. A shard's loop drains newly-assigned sockets, reads
//!   whatever bytes are available into each connection's incremental
//!   [`FrameBuffer`], decodes complete frames, and submits them to
//!   the worker pool. Completed replies come back on the shard's
//!   `done` queue and are written with vectored (scatter/gather)
//!   writes, partial-write state kept per connection;
//! * **a worker pool** — runs `process_request` (fault injection,
//!   metrics, dispatch) off the shard threads, so a slow `Execute`
//!   full of peer fetches never stalls other connections.
//!
//! **Fair queueing & admission control.** Decoded requests reach the
//! worker pool through a `FairQueue`: per-connection FIFOs drained
//! by weighted deficit round-robin, where a heavy request (`Execute`,
//! redistribution) costs its connection several turns — so one
//! connection spamming kernel executions cannot starve another's
//! pipelined striped gets. The queue's total depth is bounded by the
//! daemon's `max_backlog`; a request that arrives with the backlog
//! full is **shed** from the shard thread itself with the typed,
//! transient [`ErrorCode::Overloaded`] — the client's shared retry
//! policy backs off and retries, so overload degrades throughput
//! instead of latency-spiraling or wedging sockets. A request whose
//! propagated deadline budget (frame `FLAG_DEADLINE` field) expires
//! while queued is shed the same way when a worker finally picks it
//! up — see `process_request`. Control-plane requests (`Shutdown`,
//! `Ping`, stats/metrics reads) are exempt from shedding: an operator
//! must be able to watch and stop an overloaded daemon.
//!
//! **Pipelining.** Because frames are decoded incrementally and
//! handled off-thread, one connection may have many requests in
//! flight (up to `MAX_INFLIGHT`, 128); replies are written in completion
//! order, not arrival order, and a pipelined client matches them by
//! the echoed trace id (see `docs/PROTOCOL.md` § Pipelining). A
//! serial client never has more than one outstanding request, so it
//! sees its replies strictly in order.
//!
//! No `epoll`/`kqueue`: the workspace forbids `unsafe` and carries no
//! FFI dependency, so readiness is discovered by polling nonblocking
//! sockets — hot (yielding) for `SPIN_PASSES` passes after the last
//! progress, then backing off to a bounded sleep
//! (`IDLE_SLEEP_MIN`..`IDLE_SLEEP_MAX`). For the strip sizes and
//! fleet scales this repo benchmarks, syscall overhead is dwarfed by
//! payload copies — which this engine removes instead.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::codec::{
    encode_frame_opts, frame_parts_opts, summed_frame_ends, CountingStream, FrameBuffer, FrameParts,
    IoVecCursor,
};
use crate::proto::{check_caps, ErrorCode, Message, Role, LOCAL_CAPS};
use crate::server::{
    accept_loop, finish_root, lock, op_class, process_request, record_stage, shed_exempt,
    wire_gauges, ConnClass, ReplyAction, RequestCtx, Shared, STRIP_DATA_OPCODE,
};
use das_obs::{OpClass, Stage, NOTE_NONE, NOTE_SHED_BACKLOG};

/// Maximum requests in flight (submitted to workers, reply not yet
/// written) on one connection. When a pipelined client exceeds it the
/// shard stops reading that socket — TCP backpressure, not an error.
pub const MAX_INFLIGHT: usize = 128;

/// Passes with no progress a shard spends yielding (hot polling)
/// before it starts sleeping. Keeps per-hop latency in the
/// microseconds while requests are flowing — the poll loop's answer
/// to not having `epoll` — at the price of some idle CPU in a short
/// window after each burst.
const SPIN_PASSES: u32 = 256;

/// First sleep after the spin window; doubles (in effect: scales with
/// the idle streak) up to [`IDLE_SLEEP_MAX`].
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(50);

/// Sleep cap for a fully idle shard — bounds both worst-case wakeup
/// latency and idle CPU.
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(1);

/// How long a shard keeps flushing in-flight replies after the
/// shutdown flag goes up before abandoning unwritable connections.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Read chunk size per socket per pass.
const READ_CHUNK: usize = 64 * 1024;

/// Attribution context one reply carries from the worker back to the
/// owning shard: the reply-write span closes only when the socket has
/// accepted the frame's last byte, which happens on the shard thread.
struct ReplyTag {
    trace: Option<u64>,
    /// Root span id of the request this reply answers.
    root: u32,
    op: OpClass,
    /// When the finished reply entered the outbound queue — the span
    /// covers queued-for-write plus the write itself.
    queued: Instant,
}

/// One fully-formed reply: queued from a worker back to the owning
/// shard, then on the connection until the socket has taken it. The
/// cursor keeps a strip reply's body refcounted [`Bytes`] handles, one
/// per strip, until the socket write itself.
struct Outbound {
    cursor: IoVecCursor,
    /// Close the connection once (whatever exists of) this reply is
    /// flushed — mid-frame fault cuts and post-`Shutdown` closes.
    close_after: bool,
    /// Reply-write attribution (`None` for handshake/shed replies
    /// minted on the shard thread itself).
    tag: Option<ReplyTag>,
}

impl Outbound {
    fn new(head: Vec<u8>, body: Vec<Bytes>, tail: &[u8], close_after: bool) -> Outbound {
        Outbound { cursor: IoVecCursor::new(head, body, tail), close_after, tag: None }
    }

    /// `msg` framed the way every other sender frames it.
    fn reply(msg: &Message, trace: Option<u64>, close_after: bool) -> Outbound {
        Outbound::framed(frame_parts_opts(msg, trace, None), close_after)
    }

    /// A frame built by the codec. A control reply's blob (metrics
    /// text, a span dump) lives in the message, so it is copied once
    /// into a segment the queue can own.
    fn framed(parts: FrameParts<'_>, close_after: bool) -> Outbound {
        let body = if parts.body.is_empty() { Vec::new() } else { vec![Bytes::copy_from_slice(parts.body)] };
        Outbound::new(parts.head, body, &parts.tail, close_after)
    }
}

/// A request handed to the worker pool.
struct Job {
    shard: usize,
    conn: u64,
    class: ConnClass,
    msg: Message,
    /// The frame's trace id; the reply echoes it.
    trace: Option<u64>,
    /// Absolute deadline derived from the frame's budget field at
    /// decode time, so time spent queued counts against the budget.
    deadline: Option<Instant>,
    /// When the decoded request entered the fair queue — the
    /// queue-wait span measures from here to worker pickup.
    enqueued: Instant,
    /// Span context reserved at decode time, so queue-wait and
    /// decode spans link to the same root the dispatch span closes.
    ctx: RequestCtx,
}

/// How many round-robin turns dispatching this request costs its
/// connection. Kernel executions and redistribution phases do orders
/// of magnitude more work than a strip get, so they pay more turns —
/// the "weight" in the weighted deficit round-robin.
fn job_weight(msg: &Message) -> u32 {
    match msg {
        Message::Execute { .. } | Message::RedistPrepare { .. } | Message::RedistCommit { .. } => {
            HEAVY_WEIGHT
        }
        _ => 1,
    }
}

/// Weight of the requests that block on peers while they run
/// (`Execute`, the redistribution phases). A worker inside one waits
/// for `GetStrip`/`PutStrip` replies that only a *free* worker of a
/// peer daemon can produce, so each daemon keeps one worker out of
/// them (see [`FairQueue::dequeue`]).
const HEAVY_WEIGHT: u32 = 8;

/// One connection's pending requests inside the fair queue. Each
/// entry carries the weight its dispatch will charge, so the
/// scheduler is generic over what a "job" is.
struct ConnQueue<J> {
    jobs: VecDeque<(u32, J)>,
    /// Turns this connection still owes for an earlier heavy
    /// dispatch; it is skipped until the debt is paid down.
    debt: u32,
}

/// Scheduler state behind the `sched` lock.
struct SchedState<J> {
    /// Pending requests per connection. Invariant: a connection id is
    /// a key here iff it appears exactly once in `order`.
    queues: HashMap<u64, ConnQueue<J>>,
    /// Round-robin order over connections with pending requests.
    order: VecDeque<u64>,
    /// Total requests queued, across all connections.
    len: usize,
    /// Heavy requests dispatched and not yet [`FairQueue::complete`]d.
    heavy_running: usize,
    /// Shard threads still running; when the last one exits, idle
    /// workers are released.
    shards_live: usize,
}

/// The shard→worker request scheduler: per-connection FIFOs drained
/// by weighted deficit round-robin, with a bounded total backlog.
/// Generic over the job payload so the scheduling discipline can be
/// driven deterministically in tests with plain ids.
struct FairQueue<J> {
    /// Scheduler lock — "sched" in the crate's lock hierarchy: taken
    /// after a shard's `inbox`, never while a `done` queue is held.
    sched: Mutex<SchedState<J>>,
    ready: Condvar,
    /// Admission bound: a non-exempt request arriving with this many
    /// already queued is shed with [`ErrorCode::Overloaded`].
    max_backlog: usize,
    /// Most heavy requests that may run at once: one fewer than the
    /// worker pool, so a worker always remains to answer the peer
    /// fetches the heavy ones are blocked on.
    heavy_cap: usize,
    /// Live queue depth (`dasd_worker_queue_depth`).
    depth: Arc<das_obs::Gauge>,
    /// Requests shed at admission (`dasd_requests_shed_total{reason="backlog"}`).
    shed: Arc<das_obs::Counter>,
}

impl<J> FairQueue<J> {
    fn new(
        max_backlog: usize,
        pool: usize,
        n_shards: usize,
        metrics: &das_obs::Registry,
    ) -> FairQueue<J> {
        let depth = metrics.gauge("dasd_worker_queue_depth", &[]);
        depth.set(0); // registered up front so dumps always carry it
        FairQueue {
            sched: Mutex::new(SchedState {
                queues: HashMap::new(),
                order: VecDeque::new(),
                len: 0,
                heavy_running: 0,
                shards_live: n_shards,
            }),
            ready: Condvar::new(),
            max_backlog,
            heavy_cap: pool.saturating_sub(1).max(1),
            depth,
            shed: metrics.counter("dasd_requests_shed_total", &[("reason", "backlog")]),
        }
    }

    /// Enqueue one decoded request, or hand it back when the backlog
    /// is full (the caller sheds it with a typed reply). Exempt
    /// (control-plane) requests are always admitted.
    fn enqueue(&self, conn: u64, weight: u32, exempt: bool, job: J) -> Result<(), J> {
        let mut s = lock(&self.sched);
        if s.len >= self.max_backlog && !exempt {
            drop(s);
            self.shed.inc();
            return Err(job);
        }
        match s.queues.entry(conn) {
            std::collections::hash_map::Entry::Occupied(e) => {
                e.into_mut().jobs.push_back((weight, job));
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(ConnQueue { jobs: VecDeque::from([(weight, job)]), debt: 0 });
                s.order.push_back(conn);
            }
        }
        s.len += 1;
        self.depth.set(s.len as i64);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the next request (with its weight) by weighted deficit
    /// round-robin, or `None` once every shard has exited and nothing
    /// runnable is left. Each turn either dispatches one request, pays
    /// down one unit of a connection's debt, or passes over a
    /// connection whose head request is heavy while `heavy_cap` heavy
    /// ones are already running — it keeps its place in the rotation.
    /// Total debt is bounded and a full lap of nothing but passed-over
    /// connections ends the walk, so it terminates — and only once no
    /// connection has a request that paying its debt would release. The
    /// caller hands the weight back through [`FairQueue::complete`] when
    /// the request is done.
    fn dequeue(&self) -> Option<(u32, J)> {
        let mut s = lock(&self.sched);
        loop {
            let mut capped = 0usize;
            while s.len > 0 && capped < s.order.len() {
                let Some(conn) = s.order.pop_front() else { break };
                let at_cap = s.heavy_running >= self.heavy_cap;
                let Some(q) = s.queues.get_mut(&conn) else { continue };
                if q.debt > 0 {
                    q.debt -= 1;
                    s.order.push_back(conn);
                    capped = 0;
                    continue;
                }
                let Some(&(weight, _)) = q.jobs.front() else {
                    s.queues.remove(&conn);
                    continue;
                };
                if weight >= HEAVY_WEIGHT && at_cap {
                    s.order.push_back(conn);
                    capped += 1;
                    continue;
                }
                let Some((weight, job)) = q.jobs.pop_front() else { continue };
                q.debt = weight.saturating_sub(1);
                let drained = q.jobs.is_empty() && q.debt == 0;
                if drained {
                    s.queues.remove(&conn);
                } else {
                    s.order.push_back(conn);
                }
                s.len -= 1;
                if weight >= HEAVY_WEIGHT {
                    s.heavy_running += 1;
                }
                self.depth.set(s.len as i64);
                return Some((weight, job));
            }
            if s.shards_live == 0 {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A dispatched request of this weight finished: a heavy one frees
    /// its slot under the cap, and a worker waiting on the cap is woken.
    fn complete(&self, weight: u32) {
        if weight >= HEAVY_WEIGHT {
            let mut s = lock(&self.sched);
            s.heavy_running = s.heavy_running.saturating_sub(1);
            drop(s);
            self.ready.notify_one();
        }
    }

    /// One shard thread exited; the last one out releases the idle
    /// workers so the pool can drain and join.
    fn shard_done(&self) {
        let mut s = lock(&self.sched);
        s.shards_live = s.shards_live.saturating_sub(1);
        let release = s.shards_live == 0;
        drop(s);
        if release {
            self.ready.notify_all();
        }
    }
}

/// Worker→shard reply queues plus the new-connection inboxes, shared
/// by every thread of the engine.
struct ShardQueues {
    /// Sockets accepted but not yet adopted by the shard thread.
    inbox: Vec<Mutex<Vec<TcpStream>>>,
    /// Replies completed by workers, keyed by connection id.
    done: Vec<Mutex<Vec<(u64, Outbound)>>>,
}

/// Start the event-loop engine's threads: accept, shards, workers.
pub(crate) fn spawn_event_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    pool: usize,
    max_backlog: usize,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    let n_shards = pool.div_ceil(4).clamp(1, 4);
    let queues = Arc::new(ShardQueues {
        inbox: (0..n_shards).map(|_| Mutex::new(Vec::new())).collect(),
        done: (0..n_shards).map(|_| Mutex::new(Vec::new())).collect(),
    });

    let fair: Arc<FairQueue<Job>> =
        Arc::new(FairQueue::new(max_backlog, pool, n_shards, &shared.metrics));
    let mut threads = Vec::with_capacity(pool + n_shards + 1);
    for _ in 0..pool {
        let fair = Arc::clone(&fair);
        let shared = Arc::clone(&shared);
        let queues = Arc::clone(&queues);
        threads.push(std::thread::spawn(move || {
            while let Some((weight, job)) = fair.dequeue() {
                run_job(&shared, &queues, job);
                fair.complete(weight);
            }
        }));
    }
    for shard_id in 0..n_shards {
        let shared = Arc::clone(&shared);
        let queues = Arc::clone(&queues);
        let fair = Arc::clone(&fair);
        threads.push(std::thread::spawn(move || {
            // Decrement the live-shard count even if the loop panics,
            // so idle workers are never stranded on the condvar.
            struct Live(Arc<FairQueue<Job>>);
            impl Drop for Live {
                fn drop(&mut self) {
                    self.0.shard_done();
                }
            }
            let live = Live(Arc::clone(&fair));
            shard_loop(&shared, &queues, shard_id, &fair);
            drop(live);
        }));
    }
    {
        let shared = Arc::clone(&shared);
        let queues = Arc::clone(&queues);
        threads.push(std::thread::spawn(move || {
            let mut next = 0usize;
            accept_loop(&shared, &listener, |s| {
                let shard = next % queues.inbox.len();
                next = next.wrapping_add(1);
                lock(&queues.inbox[shard]).push(s);
            });
        }));
    }
    Ok(threads)
}

/// Run one request on a worker thread and queue its reply to the
/// owning shard.
fn run_job(shared: &Shared, queues: &ShardQueues, job: Job) {
    let echo = job.trace;
    let opc = op_class(&job.msg);
    // Queue-wait closes here: the gap between the shard enqueuing the
    // decoded request and this worker picking it up.
    record_stage(shared, job.trace, job.ctx.root, Stage::QueueWait, opc, NOTE_NONE, job.enqueued.elapsed());
    let mut out = match process_request(shared, job.class, job.msg, job.trace, job.deadline, job.ctx) {
        ReplyAction::Reply(reply) => Outbound::reply(&reply, echo, false),
        ReplyAction::ReplyRun(strips, sum) => {
            // Zero-copy and zero-read: each body segment shares its
            // strip's store allocation, and the trailer is combined
            // from the head's checksum and the sums stored with the
            // strips — a strip that changed since ingest fails at its
            // reader.
            let len: usize = strips.iter().map(|b| b.len()).sum();
            let prefix = (len as u32).to_le_bytes();
            let (head, tail) = summed_frame_ends(STRIP_DATA_OPCODE, &prefix, len, sum, echo);
            Outbound::new(head, strips, &tail, false)
        }
        ReplyAction::ReplyCorrupt(reply) => {
            let mut parts = frame_parts_opts(&reply, echo, None);
            parts.tail[3] ^= 0xFF;
            Outbound::framed(parts, false)
        }
        ReplyAction::ReplyTruncated(reply) => {
            let mut frame = encode_frame_opts(&reply, echo, None);
            frame.truncate(frame.len() / 2);
            Outbound::new(frame, Vec::new(), &[], true)
        }
        ReplyAction::ShutdownAfter(reply) => {
            // process_request already raised the shutdown flag; the
            // shard flushes this reply before it exits.
            Outbound::reply(&reply, echo, true)
        }
    };
    out.tag = Some(ReplyTag { trace: job.trace, root: job.ctx.root, op: opc, queued: Instant::now() });
    lock(&queues.done[job.shard]).push((job.conn, out));
}

/// Connection state owned by one shard.
struct Conn {
    id: u64,
    stream: CountingStream<TcpStream>,
    fb: FrameBuffer,
    /// `None` until the peer's `Hello` arrives and fixes the class.
    class: Option<ConnClass>,
    /// Requests submitted to workers whose replies have not finished
    /// writing.
    inflight: usize,
    out: VecDeque<Outbound>,
    /// Peer closed its write side; serve what's in flight, then drop.
    read_closed: bool,
    /// Close once the outbound queue drains.
    close_after_flush: bool,
    /// Transport failure or protocol violation: drop immediately.
    dead: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            id,
            stream: CountingStream::new(stream),
            fb: FrameBuffer::new(),
            class: None,
            inflight: 0,
            out: VecDeque::new(),
            read_closed: false,
            close_after_flush: false,
            dead: false,
        })
    }

    fn queue(&mut self, out: Outbound) {
        self.close_after_flush |= out.close_after;
        self.out.push_back(out);
    }

    /// True when nothing remains to serve and the socket can go.
    fn finished(&self) -> bool {
        self.dead
            || ((self.read_closed || self.close_after_flush)
                && self.inflight == 0
                && self.out.is_empty())
    }
}

/// The event loop proper: adopt new sockets, pump reads/decodes into
/// the worker pool, pump completed replies out, poll shutdown.
fn shard_loop(
    shared: &Shared,
    queues: &ShardQueues,
    shard_id: usize,
    fair: &FairQueue<Job>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_conn_id = (shard_id as u64) << 48;
    let mut drain_started: Option<Instant> = None;
    let mut idle_passes = 0u32;
    let inflight_gauge =
        shared.metrics.gauge("dasd_shard_inflight", &[("shard", &shard_id.to_string())]);
    inflight_gauge.set(0);
    let mut last_inflight = 0i64;
    loop {
        let mut progressed = false;

        // Adopt newly accepted sockets (unless already draining).
        let fresh = std::mem::take(&mut *lock(&queues.inbox[shard_id]));
        for s in fresh {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            next_conn_id += 1;
            if let Ok(c) = Conn::new(next_conn_id, s) {
                conns.push(c);
                progressed = true;
            }
        }

        // Route completed replies to their connections.
        let done = std::mem::take(&mut *lock(&queues.done[shard_id]));
        for (conn_id, out) in done {
            if let Some(c) = conns.iter_mut().find(|c| c.id == conn_id) {
                c.inflight -= 1;
                c.queue(out);
                progressed = true;
            }
        }

        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining && drain_started.is_none() {
            drain_started = Some(Instant::now());
        }

        for c in conns.iter_mut() {
            progressed |= pump_write(shared, c);
            if !draining && !c.dead && !c.close_after_flush {
                progressed |= pump_read(shared, c, shard_id, fair);
            }
        }
        conns.retain(|c| !c.finished());

        let inflight: i64 = conns.iter().map(|c| c.inflight as i64).sum();
        if inflight != last_inflight {
            inflight_gauge.set(inflight);
            last_inflight = inflight;
        }

        if draining {
            let expired =
                drain_started.map(|t| t.elapsed() > DRAIN_DEADLINE).unwrap_or(false);
            let idle = conns.iter().all(|c| c.inflight == 0 && c.out.is_empty());
            if idle || expired {
                return;
            }
        }
        if progressed {
            idle_passes = 0;
        } else {
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes <= SPIN_PASSES {
                std::thread::yield_now();
            } else {
                let step = (idle_passes - SPIN_PASSES).min(20);
                // das-lint: allow(DA803) bounded idle backoff — no epoll, so an idle shard must sleep
                std::thread::sleep((IDLE_SLEEP_MIN * step).min(IDLE_SLEEP_MAX));
            }
        }
    }
}

/// Flush as much outbound data as the socket accepts. Returns whether
/// any bytes moved. A reply's `reply_write` span closes when its last
/// byte is accepted — covering queued-for-write time plus the write
/// itself, which is exactly the tail a saturated socket adds.
fn pump_write(shared: &Shared, c: &mut Conn) -> bool {
    let mut progressed = false;
    while let Some(out) = c.out.front_mut() {
        match out.cursor.write_some(&mut c.stream) {
            Ok(0) => break, // would block
            Ok(_) => {
                progressed = true;
                if out.cursor.is_done() {
                    let Some(Outbound { close_after, tag, .. }) = c.out.pop_front() else { break };
                    if let Some(tag) = tag {
                        record_stage(
                            shared,
                            tag.trace,
                            tag.root,
                            Stage::ReplyWrite,
                            tag.op,
                            NOTE_NONE,
                            tag.queued.elapsed(),
                        );
                    }
                    if close_after {
                        c.dead = true;
                        return true;
                    }
                }
            }
            Err(_) => {
                c.dead = true;
                return true;
            }
        }
    }
    progressed
}

/// Read available bytes, decode complete frames, and hand requests to
/// the worker pool. Returns whether any progress happened.
fn pump_read(
    shared: &Shared,
    c: &mut Conn,
    shard_id: usize,
    fair: &FairQueue<Job>,
) -> bool {
    let mut progressed = false;
    let mut buf = [0u8; READ_CHUNK];
    // Read until the socket would block or backpressure applies.
    while !c.read_closed && c.inflight < MAX_INFLIGHT {
        match c.stream.read(&mut buf) {
            Ok(0) => {
                c.read_closed = true;
                progressed = true;
            }
            Ok(n) => {
                c.fb.extend(&buf[..n]);
                progressed = true;
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return true;
            }
        }
    }
    // Decode complete frames up to the in-flight cap.
    while c.inflight < MAX_INFLIGHT && !c.dead {
        let frame = match c.fb.next_frame_ex() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(_) => {
                c.dead = true;
                return true;
            }
        };
        progressed = true;
        match c.class {
            None => handle_hello(shared, c, frame.msg),
            Some(class) => {
                let trace = frame.trace;
                // The budget starts burning now: queueing delay counts
                // against it, which is exactly what lets an overloaded
                // worker pool shed requests nobody is waiting for.
                let deadline = frame
                    .budget_ms
                    .map(|ms| Instant::now() + Duration::from_millis(u64::from(ms)));
                let opc = op_class(&frame.msg);
                let ctx = RequestCtx::new(shared, trace, frame.blob_sum);
                record_stage(
                    shared,
                    trace,
                    ctx.root,
                    Stage::Decode,
                    opc,
                    NOTE_NONE,
                    Duration::from_micros(frame.decode_us),
                );
                let job = Job {
                    shard: shard_id,
                    conn: c.id,
                    class,
                    msg: frame.msg,
                    trace,
                    deadline,
                    enqueued: Instant::now(),
                    ctx,
                };
                let (weight, exempt) = (job_weight(&job.msg), shed_exempt(&job.msg));
                match fair.enqueue(c.id, weight, exempt, job) {
                    Ok(()) => c.inflight += 1,
                    Err(job) => {
                        // Backlog full: shed from the shard thread with
                        // the typed transient error — the one reply
                        // that must not wait on the worker pool. The
                        // root span dies here, annotated with why.
                        finish_root(shared, trace, ctx, Stage::Shed, opc, NOTE_SHED_BACKLOG, job.enqueued);
                        let reply = Message::Error {
                            code: ErrorCode::Overloaded,
                            message: "request shed: worker backlog full".into(),
                        };
                        c.queue(Outbound::reply(&reply, trace, false));
                    }
                }
            }
        }
    }
    progressed
}

/// First frame of a connection: fix the traffic class, move the byte
/// counts onto the class's wire-byte gauges, answer `HelloOk`. Anything
/// but a `Hello` whose `caps` carries all of [`LOCAL_CAPS`] is refused
/// with a typed `BadRequest`, and the connection closes.
fn handle_hello(shared: &Shared, c: &mut Conn, msg: Message) {
    let hello = match msg {
        Message::Hello { role: Role::Client, caps, .. } => check_caps(caps).map(|()| ConnClass::Client),
        Message::Hello { role: Role::Server, caps, .. } => check_caps(caps).map(|()| ConnClass::Server),
        _ => Err("expected Hello".into()),
    };
    let class = match hello {
        Ok(class) => class,
        Err(message) => {
            let reply = Message::Error { code: ErrorCode::BadRequest, message };
            c.queue(Outbound::reply(&reply, None, true));
            return;
        }
    };
    c.class = Some(class);
    let (bytes_in, bytes_out) = wire_gauges(&shared.metrics, class);
    c.stream.count_into(bytes_in, bytes_out);
    let reply = Message::HelloOk { server_id: shared.id.0, caps: LOCAL_CAPS };
    c.queue(Outbound::reply(&reply, None, false));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model of the weighted deficit round-robin scheduler:
    /// the same discipline written as straight-line single-threaded
    /// code, with no lock, condvar, metrics, or shard accounting. The
    /// real `FairQueue` must agree with it on every admission and
    /// dispatch decision under a seeded interleaving.
    struct RefModel {
        queues: HashMap<u64, (VecDeque<(u32, u32)>, u32)>,
        order: VecDeque<u64>,
        len: usize,
        max_backlog: usize,
        heavy_running: usize,
        heavy_cap: usize,
    }

    impl RefModel {
        fn new(max_backlog: usize, pool: usize) -> RefModel {
            RefModel {
                queues: HashMap::new(),
                order: VecDeque::new(),
                len: 0,
                max_backlog,
                heavy_running: 0,
                heavy_cap: pool - 1,
            }
        }

        fn enqueue(&mut self, conn: u64, weight: u32, exempt: bool, id: u32) -> bool {
            if self.len >= self.max_backlog && !exempt {
                return false;
            }
            let fresh = !self.queues.contains_key(&conn);
            self.queues.entry(conn).or_insert_with(|| (VecDeque::new(), 0)).0.push_back((weight, id));
            if fresh {
                self.order.push_back(conn);
            }
            self.len += 1;
            true
        }

        /// `None` when nothing is queued *or* every queued connection
        /// is held back by the heavy cap.
        fn dequeue(&mut self) -> Option<(u32, u32)> {
            let mut capped = 0;
            while self.len > 0 && capped < self.order.len() {
                let conn = self.order.pop_front()?;
                let Some(q) = self.queues.get_mut(&conn) else { continue };
                if q.1 > 0 {
                    q.1 -= 1;
                    self.order.push_back(conn);
                    capped = 0;
                    continue;
                }
                let Some(&(weight, id)) = q.0.front() else {
                    self.queues.remove(&conn);
                    continue;
                };
                if weight >= HEAVY_WEIGHT && self.heavy_running >= self.heavy_cap {
                    self.order.push_back(conn);
                    capped += 1;
                    continue;
                }
                q.0.pop_front();
                q.1 = weight.saturating_sub(1);
                if q.0.is_empty() && q.1 == 0 {
                    self.queues.remove(&conn);
                } else {
                    self.order.push_back(conn);
                }
                self.len -= 1;
                if weight >= HEAVY_WEIGHT {
                    self.heavy_running += 1;
                }
                return Some((weight, id));
            }
            None
        }

        fn complete(&mut self, weight: u32) {
            if weight >= HEAVY_WEIGHT {
                self.heavy_running -= 1;
            }
        }

        /// A heavy request heads some connection's queue while the cap
        /// is reached: the next dequeue must not dispatch it.
        fn cap_binds(&self) -> bool {
            self.heavy_running >= self.heavy_cap
                && self.queues.values().any(|q| q.0.front().is_some_and(|&(w, _)| w >= HEAVY_WEIGHT))
        }
    }

    fn queue_len(fair: &FairQueue<u32>) -> usize {
        lock(&fair.sched).len
    }

    /// A heavy dispatch (weight 8) must yield the floor to the other
    /// connection for eight turns — its natural rotation slot plus
    /// seven debt skips — before the heavy connection is served
    /// again: H L×8 H L×8 … exactly.
    #[test]
    fn drr_weights_interleave_heavy_and_light() {
        let metrics = das_obs::Registry::new();
        // Pool of 16: the four heavy jobs stay under the cap.
        let fair: FairQueue<u32> = FairQueue::new(1024, 16, 1, &metrics);
        // Conn 1: four heavy jobs (ids 0..4). Conn 2: 32 light (100..).
        for id in 0..4u32 {
            fair.enqueue(1, 8, false, id).unwrap();
        }
        for id in 100..132u32 {
            fair.enqueue(2, 1, false, id).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..36 {
            got.push(fair.dequeue().expect("queue is non-empty").1);
        }
        let mut want = Vec::new();
        for h in 0..4u32 {
            want.push(h);
            for l in 0..8u32 {
                want.push(100 + h * 8 + l);
            }
        }
        assert_eq!(got, want, "weighted DRR order drifted from the 1-heavy-then-8-light pattern");
    }

    /// With `pool` workers at most `pool − 1` heavy requests run at
    /// once: the next heavy one keeps its place in the rotation (light
    /// requests overtake it, one still paying off a debt included) until
    /// a running one completes.
    #[test]
    fn heavy_requests_are_capped_below_the_pool() {
        let metrics = das_obs::Registry::new();
        let fair: FairQueue<u32> = FairQueue::new(1024, 2, 1, &metrics);
        fair.shard_done(); // nothing runnable ⇒ `None`, not a wait
        fair.enqueue(1, HEAVY_WEIGHT, false, 0).unwrap();
        fair.enqueue(1, 1, false, 3).unwrap(); // pipelined behind conn 1's heavy request
        fair.enqueue(2, HEAVY_WEIGHT, false, 1).unwrap();
        fair.enqueue(3, 1, false, 2).unwrap();
        assert_eq!(fair.dequeue(), Some((HEAVY_WEIGHT, 0)));
        assert_eq!(fair.dequeue(), Some((1, 2)), "a light request overtakes the capped heavy one");
        assert_eq!(fair.dequeue(), Some((1, 3)), "a capped connection ended the walk before a debt was paid");
        assert_eq!(fair.dequeue(), None, "a second heavy request ran with pool − 1 = 1 already running");
        assert_eq!(queue_len(&fair), 1, "the capped request must stay queued");
        fair.complete(HEAVY_WEIGHT);
        assert_eq!(fair.dequeue(), Some((HEAVY_WEIGHT, 1)));
    }

    /// Seeded pseudo-random interleaving: four simulated shards
    /// enqueue (with occasional exempt control-plane jobs) and a pool
    /// of three workers dequeues and completes, in an order driven by a
    /// deterministic LCG. Every admission/shed decision and every
    /// dispatch — including those that pass over a heavy request held
    /// back by the cap — must match the reference model, the backlog bound must hold for
    /// non-exempt admissions, and never more than `pool − 1` heavy
    /// requests run at once.
    #[test]
    fn seeded_interleaving_matches_reference_model() {
        const MAX_BACKLOG: usize = 12;
        const POOL: usize = 3;
        let metrics = das_obs::Registry::new();
        let fair: FairQueue<u32> = FairQueue::new(MAX_BACKLOG, POOL, 1, &metrics);
        fair.shard_done(); // nothing runnable ⇒ `None`, not a wait
        let mut model = RefModel::new(MAX_BACKLOG, POOL);

        let mut seed = 0xDA51D_u64;
        let mut lcg = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };

        let mut next_id = 0u32;
        let mut in_flight_ids: Vec<u32> = Vec::new();
        // Weights of dispatched, not yet completed requests (≤ POOL).
        let mut running: VecDeque<u32> = VecDeque::new();
        let (mut shed_count, mut capped_count) = (0usize, 0usize);
        for step in 0..20_000 {
            let r = lcg();
            if r % 3 != 0 {
                // One of four shards submits for one of its two conns.
                let shard = u64::from(r % 4);
                let conn = shard * 2 + u64::from((r >> 8) % 2);
                let weight = if (r >> 16) % 5 == 0 { 8 } else { 1 };
                let exempt = (r >> 24) % 13 == 0;
                let id = next_id;
                next_id += 1;
                let admitted = fair.enqueue(conn, weight, exempt, id).is_ok();
                let model_admitted = model.enqueue(conn, weight, exempt, id);
                assert_eq!(
                    admitted, model_admitted,
                    "admission decision diverged at step {step} (id {id}, exempt {exempt})"
                );
                if admitted {
                    in_flight_ids.push(id);
                } else {
                    shed_count += 1;
                    assert!(
                        !exempt,
                        "an exempt control-plane job was shed at step {step}"
                    );
                }
                if !exempt && admitted {
                    assert!(
                        model.len <= MAX_BACKLOG,
                        "non-exempt admission pushed the backlog past the bound at step {step}"
                    );
                }
            } else if running.len() == POOL || (r >> 4) % 4 == 0 {
                // A worker finishes the oldest running request.
                if let Some(weight) = running.pop_front() {
                    fair.complete(weight);
                    model.complete(weight);
                }
            } else {
                capped_count += usize::from(model.cap_binds());
                let got = fair.dequeue();
                assert_eq!(got, model.dequeue(), "dispatch diverged at step {step}");
                if let Some((weight, id)) = got {
                    running.push_back(weight);
                    in_flight_ids.retain(|&i| i != id);
                }
                let heavy = running.iter().filter(|&&w| w >= HEAVY_WEIGHT).count();
                assert!(heavy < POOL, "{heavy} heavy requests running in a pool of {POOL} at step {step}");
            }
            assert_eq!(queue_len(&fair), model.len, "queue length diverged at step {step}");
        }
        // Drain: every admitted job comes out, in model order.
        while model.len > 0 {
            for weight in running.drain(..) {
                fair.complete(weight);
                model.complete(weight);
            }
            let got = fair.dequeue().expect("drain: one request at a time is always runnable");
            assert_eq!(Some(got), model.dequeue(), "dispatch order diverged during drain");
            running.push_back(got.0);
            in_flight_ids.retain(|&i| i != got.1);
        }
        assert!(in_flight_ids.is_empty(), "admitted jobs lost: {in_flight_ids:?}");
        assert!(shed_count > 0, "the seed never exercised the shed path");
        assert!(capped_count > 0, "the seed never exercised the heavy cap");
        assert_eq!(queue_len(&fair), 0);
    }
}
