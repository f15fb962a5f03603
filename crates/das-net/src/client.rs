//! The `das` client library: one connection per storage server, the
//! striped data plane (client-side gather/scatter), and drivers for
//! the paper's three evaluation schemes over real sockets.
//!
//! The client is the top of the fault-tolerance stack. Every call
//! carries the cluster's [`RetryPolicy`] (timeouts + bounded
//! deterministic backoff, reconnecting on transport errors); a server
//! that exhausts its retry budget is marked **down** and routed
//! around. On top of that sit three recovery layers, each recorded as
//! a [`DegradeEvent`] in the run's report:
//!
//! 1. **Replica failover** — [`DasCluster::read_file`] walks each
//!    strip's holders primary-first, so a dead primary costs one
//!    failed call, not the read — and a merely slow one not even that:
//!    a server that has not begun to answer within its latency
//!    estimate has its strips re-asked from their next holders (a
//!    *hedge*).
//! 2. **Tolerant writes** — [`DasCluster::put_file`] succeeds if at
//!    least one holder of each strip stores it, noting the reduced
//!    redundancy.
//! 3. **Scheme degradation** — [`run_net_scheme`] is one loop down the
//!    rungs its scheme selects from DAS → NAS → normal I/O, descending
//!    when offloading is impossible (e.g. a dead server cannot compute
//!    the strips only it holds), so a request is served in degraded
//!    form rather than failed, whenever the data is still reachable.
//!    The loop asks for each file's metadata once — one
//!    `GetDistribution` for the input, one `Lookup` for the output —
//!    and every rung and the verification read-back reuse it.
//!
//! Strip I/O moves **runs**: each maximal range of consecutive strips
//! that share a holder walk (primary first, then replicas, in the
//! client's load order) goes in one frame per holder — a `GetStrips`
//! (a `GetStrip` for a run of one) or a `PutStrip` carrying the run.
//! Under round-robin every run is one strip, and the frames are the
//! per-strip ones; under a grouped layout a server's group is a few
//! runs. Runs are I/O in a **wave**: `read_file` and `put_file` write
//! every run's request before they read any reply — many on one
//! connection when the server echoes per-request ids, matched by the id
//! each reply echoes — and only then walk each run's holders one by
//! one, from what its wave request answered, wherever that failed.
//! Every strip of a run shares its walk, so hedging and failover work
//! per run as they would per strip, and their counters and events
//! still count strips.
//!
//! The client owns no threads and no channels: everything a
//! [`DasCluster`] does happens on its caller's thread, over blocking
//! sockets. A wave or a fan-out writes every request before it reads
//! any reply; a hedge waits on the sockets by looking at each in turn;
//! a reply nobody is waiting for any more sits in its socket until an
//! entry point next looks.

use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use das_core::{ActiveStorageClient, Decision, RequestOptions};
use das_kernels::kernel_by_name;
use das_kernels::Raster;
use das_pfs::{DistributionInfo, Layout, LayoutPolicy, StripeSpec};
use das_runtime::DegradeEvent;

use crate::codec::NetError;
use crate::conn::{is_long_op, reply_deadline, Link, RpcConn, Sent};
use crate::engine::MAX_INFLIGHT;
use crate::hedge::LoadTracker;
use crate::proto::{strip_runs, ErrorCode, Message, Role, WireStats};
use crate::retry::RetryPolicy;

/// How long one look at a connection lasts while replies may be
/// landing on others the wave has to notice.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// One server's slot: its address and, while one is up, the live
/// connection to it.
struct ClientConn {
    addr: String,
    live: Option<RpcConn>,
}

/// One request of an exchange: the message, the server it is written
/// to, the strips it carries, and — for a strip read with a second
/// holder — the server a hedge re-asks.
struct Ask<'m> {
    msg: &'m Message,
    to: usize,
    strips: u64,
    hedge_to: Option<usize>,
}

/// What an ask's first attempts answered, where one was made and
/// answered: lane 0 at its server, lane 1 at its hedge holder.
type Firsts = [Option<Result<Message, NetError>>; 2];

/// One request of an exchange: its ask and lane.
type Job = (usize, usize);

/// A hedged server's connection, taken off its slot with requests still
/// in flight. Their replies are read where none can be taken for a
/// later request's — here, off the slot — and once the last has landed
/// the connection may go back. Past `until` it is dropped unread.
struct Parked {
    server: usize,
    conn: RpcConn,
    /// One of the requests in flight: all are strip reads.
    msg: Message,
    link: Link<Job>,
    until: Instant,
}

/// One run of a gather: its strips, their bytes in all, and the
/// primary and holder walk they share.
struct RunRead {
    strips: Range<u64>,
    want: usize,
    primary: u32,
    walk: Vec<u32>,
}

impl RunRead {
    fn count(&self) -> u64 {
        self.strips.end - self.strips.start
    }

    /// The request for the run: a `GetStrip` for a run of one, which is
    /// byte for byte the per-strip frame.
    fn request(&self, file: u32) -> Message {
        match self.count() {
            1 => Message::GetStrip { file, strip: self.strips.start },
            n => Message::GetStrips { file, first: self.strips.start, count: n as u32 },
        }
    }

    /// What the run is called in an error: its strip, or its range.
    fn name(&self) -> String {
        match self.count() {
            1 => format!("strip {}", self.strips.start),
            _ => format!("strips {}..={}", self.strips.start, self.strips.end - 1),
        }
    }
}

/// Connections to every `dasd` of a cluster, indexed by server id.
pub struct DasCluster {
    conns: Vec<ClientConn>,
    down: Vec<bool>,
    events: Vec<DegradeEvent>,
    policy: RetryPolicy,
    metrics: Arc<das_obs::Registry>,
    /// Trace id stamped on outgoing requests until the next
    /// [`DasCluster::begin_trace`].
    trace: Option<u64>,
    /// Per-server latency EWMAs: replica walks demote stragglers, and
    /// the hedge delay is derived from the chosen server's estimate.
    load: LoadTracker,
    /// Hedged connections whose replies have not all been read yet.
    /// Polled, never waited on, at request-path entry points.
    parked: Vec<Parked>,
    /// The client half of Fig. 3's decision, for [`run_net_scheme`].
    as_client: ActiveStorageClient,
}

/// One server's execution summary (from [`Message::ExecuteOk`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecSummary {
    /// Primary strips computed.
    pub strips_computed: u64,
    /// Dependence fetches the server issued to peers.
    pub dep_fetches: u64,
    /// Payload bytes those fetches moved.
    pub dep_fetch_bytes: u64,
}

/// Whether an error should push the scheme ladder down a rung: a
/// transport/transient failure, or a call that was refused because the
/// target server is marked down. Typed application errors (bad
/// request, unknown kernel, …) are not degradable — retrying them
/// elsewhere would return the same answer.
fn degradable(e: &NetError) -> bool {
    e.is_transient() || matches!(e, NetError::Remote { code: ErrorCode::NoSuchServer, .. })
}

/// The slot's live connection, dialled and greeted first if there is
/// none.
fn conn_dial<'a>(conn: &'a mut ClientConn, policy: &RetryPolicy) -> Result<&'a mut RpcConn, NetError> {
    let live = match conn.live.take() {
        Some(live) => live,
        None => RpcConn::dial(&conn.addr, policy, Role::Client, 0)?,
    };
    Ok(conn.live.insert(live))
}

impl DasCluster {
    /// Connect to every server and shake hands, with the default
    /// retry policy.
    pub fn connect(addrs: &[String]) -> Result<Self, NetError> {
        DasCluster::connect_with(addrs, RetryPolicy::default())
    }

    /// [`DasCluster::connect`] with an explicit retry/timeout policy.
    /// Servers that stay unreachable through the retry budget are
    /// marked down (and recorded as [`DegradeEvent::ServerUnavailable`])
    /// rather than failing the whole connect; only a cluster with *no*
    /// reachable server is an error.
    pub fn connect_with(addrs: &[String], policy: RetryPolicy) -> Result<Self, NetError> {
        let mut cluster = DasCluster {
            conns: addrs
                .iter()
                .map(|a| ClientConn { addr: a.clone(), live: None })
                .collect(),
            down: vec![false; addrs.len()],
            events: Vec::new(),
            policy,
            metrics: Arc::new(das_obs::Registry::new()),
            trace: None,
            load: LoadTracker::new(addrs.len()),
            parked: Vec::new(),
            as_client: ActiveStorageClient::with_builtin_features(),
        };
        let mut last = None;
        let mut reachable = 0usize;
        for s in 0..cluster.conns.len() {
            let policy = cluster.policy.clone();
            match policy.retry(|| conn_dial(&mut cluster.conns[s], &policy).map(|_| ())) {
                Ok(()) => reachable += 1,
                Err(e) => {
                    last = Some(e);
                    cluster.mark_down(s);
                }
            }
        }
        if reachable == 0 {
            return Err(last.unwrap_or_else(|| NetError::Protocol("empty cluster".into())));
        }
        Ok(cluster)
    }

    /// Number of servers (reachable or not).
    pub fn servers(&self) -> u32 {
        self.conns.len() as u32
    }

    /// Servers currently marked unreachable.
    pub fn down_servers(&self) -> Vec<u32> {
        (0..self.down.len() as u32).filter(|&s| self.down[s as usize]).collect()
    }

    /// Bring server `s` back if it is down: dial it, and once it has
    /// answered the handshake it is up again. No other link is touched.
    pub fn redial(&mut self, s: u32) -> Result<(), NetError> {
        conn_dial(&mut self.conns[s as usize], &self.policy)?;
        self.down[s as usize] = false;
        Ok(())
    }

    /// Drain the fault-tolerance events recorded since the last call.
    pub fn take_events(&mut self) -> Vec<DegradeEvent> {
        self.poll_parked();
        std::mem::take(&mut self.events)
    }

    /// The client-side metrics registry: degradation events keyed by
    /// tag, retry totals. Draining [`DasCluster::take_events`] does
    /// not reset these, so the registry and the per-run reports can be
    /// cross-checked.
    pub fn metrics(&self) -> &Arc<das_obs::Registry> {
        &self.metrics
    }

    /// Mint a fresh trace id and stamp it on every subsequent request.
    /// Returns the id so callers can correlate client logs with daemon-side
    /// traces.
    pub fn begin_trace(&mut self) -> u64 {
        let id = das_obs::next_trace_id();
        self.trace = Some(id);
        id
    }

    /// Every degradation goes through here so the report's event list
    /// and the live `das_client_degrade_events_total{event}` counters
    /// can never disagree.
    fn record_event(&mut self, ev: DegradeEvent) {
        self.metrics.counter("das_client_degrade_events_total", &[("event", ev.tag())]).inc();
        self.events.push(ev);
    }

    fn mark_down(&mut self, s: usize) {
        if !self.down[s] {
            self.down[s] = true;
            self.conns[s].live = None;
            self.record_event(DegradeEvent::ServerUnavailable { server: s as u32 });
        }
    }

    fn down_error(s: usize) -> NetError {
        NetError::Remote {
            code: ErrorCode::NoSuchServer,
            message: format!("server {s} is marked unavailable"),
        }
    }

    /// First reachable server (metadata requests go here).
    fn any_up(&self) -> Result<usize, NetError> {
        self.down
            .iter()
            .position(|&d| !d)
            .ok_or_else(|| NetError::Protocol("no reachable servers".into()))
    }

    fn up_servers(&self) -> Vec<usize> {
        (0..self.conns.len()).filter(|&s| !self.down[s]).collect()
    }

    /// One attempt: dial if needed, write the request — budgeted with
    /// the reply deadline this client itself enforces — and read its
    /// reply. Transport errors evict the connection so the next attempt
    /// redials instead of reusing a socket in an unknown state. Down
    /// servers fail fast. A successful attempt's wall time feeds the
    /// server's latency EWMA — the strip-read estimate behind hedge
    /// delays and holder ordering — unless the request is a long
    /// operation. Only successes do: a refused connection fails in
    /// microseconds and would make a dead server score as the fastest
    /// holder in every walk.
    fn call_once(&mut self, s: usize, msg: &Message) -> Result<Message, NetError> {
        if self.down[s] {
            return Err(Self::down_error(s));
        }
        let (sent, budget) = (Instant::now(), reply_deadline(&self.policy, msg, false));
        let result = conn_dial(&mut self.conns[s], &self.policy)
            .and_then(|live| live.send(msg, None, self.trace, Some(budget)).and_then(|()| live.recv(msg, &self.policy)));
        if result.is_ok() && !is_long_op(msg) {
            self.load.observe(s, sent.elapsed());
        }
        if result.as_ref().is_err_and(NetError::is_transport) {
            self.conns[s].live = None;
        }
        result
    }

    /// One request/response exchange with server `s`, with transparent
    /// reconnect-and-retry for transient failures. Exhausting the
    /// budget on transport errors marks the server down; calls to a
    /// down server fail fast with a typed error.
    pub fn call(&mut self, s: usize, msg: &Message) -> Result<Message, NetError> {
        self.call_resuming(s, msg, None)
    }

    /// [`DasCluster::call`] whose first attempt may already have been
    /// made (by a [`DasCluster::wave`]): `first` counts as attempt one
    /// of the same retry budget, backoff and retry accounting.
    fn call_resuming(
        &mut self,
        s: usize,
        msg: &Message,
        first: Option<Result<Message, NetError>>,
    ) -> Result<Message, NetError> {
        let policy = self.policy.clone();
        let (result, retries) = policy.resume(first, || self.call_once(s, msg));
        if retries > 0 {
            self.metrics.counter("das_client_retries_total", &[]).add(retries);
        }
        if result.as_ref().is_err_and(NetError::is_transport) {
            self.mark_down(s);
        }
        result
    }

    /// Scatter/gather, one attempt per request. Every ask is written
    /// before any reply is read, one request per server in turn — up to
    /// [`MAX_INFLIGHT`] on one connection for `strip_io` under a trace
    /// id, each under its own [`das_obs::sub_id`] of the run's id; else one
    /// at a time, under the run's id — and each reply is matched to its
    /// request by the id it echoes. Returns what each ask's lanes
    /// answered: attempt one of each; retrying is the caller's. Every
    /// request written is answered, parked, or its connection evicted
    /// before this returns: no reply is left behind to be read as the
    /// answer to a later one.
    ///
    /// For `strip_io` each burst — what is written to a connection with
    /// nothing in flight — feeds the server's [`LoadTracker`] estimate
    /// with the wait for its first reply; a fan-out's replies include
    /// the other servers', so none does. A burst whose first reply has
    /// not begun within the server's hedge delay, and whose requests all
    /// have a second holder, is **hedged**: each is re-asked there (lane
    /// 1, one `das_client_hedges_total` each), and the connection races
    /// them until every one is answered on either lane, then is
    /// [`Parked`]. A server that fails a request gets no more of the
    /// exchange; a request it was never sent, or that was in flight on a
    /// connection that failed, has no answer: the caller's walk makes
    /// that attempt.
    fn exchange(&mut self, asks: &[Ask<'_>], strip_io: bool) -> Vec<Firsts> {
        self.poll_parked();
        let mut wave = Wave::new(self, asks, strip_io);
        loop {
            wave.send_queued(self);
            let mut busy: Vec<usize> = (0..self.conns.len()).filter(|&s| !wave.links[s].flight.is_empty()).collect();
            if busy.is_empty() && wave.racing.is_empty() {
                break;
            }
            busy.sort_by(|&a, &b| wave.due(self, a).total_cmp(&wave.due(self, b)));
            for &s in &busy {
                wave.take_reply(self, s);
            }
            wave.race(self, if busy.is_empty() { POLL_SLICE } else { Duration::ZERO });
        }
        wave.firsts
    }

    /// [`DasCluster::exchange`] of `msg` to every target — one request
    /// per connection, so the frames are those of serial calls and only
    /// the servers' work overlaps — then each server whose attempt
    /// failed transiently is retried on its own through the
    /// [`DasCluster::call`] machinery (every fanned-out request is
    /// idempotent). Results are in `targets` order.
    fn wave(&mut self, targets: &[usize], msg: &Message) -> Vec<Result<Message, NetError>> {
        let firsts = self.exchange(&fan_out(targets, msg), false);
        targets
            .iter()
            .zip(firsts)
            .map(|(&s, [first, _])| self.call_resuming(s, msg, first))
            .collect()
    }

    /// Send `msg` to every reachable server, collecting the replies.
    fn call_all(&mut self, msg: &Message) -> Result<Vec<Message>, NetError> {
        let ups = self.up_servers();
        if ups.is_empty() {
            return Err(NetError::Protocol("no reachable servers".into()));
        }
        self.wave(&ups, msg).into_iter().collect()
    }

    /// Ping every reachable server.
    pub fn ping_all(&mut self) -> Result<(), NetError> {
        for reply in self.call_all(&Message::Ping)? {
            if reply != Message::Pong {
                return Err(NetError::Unexpected { opcode: reply.opcode() });
            }
        }
        Ok(())
    }

    /// Register a file on every reachable server; returns the
    /// (cluster-agreed) file id.
    pub fn create_file(
        &mut self,
        name: &str,
        file_len: u64,
        strip_size: u32,
        policy: LayoutPolicy,
    ) -> Result<u32, NetError> {
        let servers = self.servers();
        let msg = Message::CreateFile {
            name: name.to_string(),
            file_len,
            strip_size,
            policy,
            servers,
        };
        let mut id = None;
        for reply in self.call_all(&msg)? {
            match reply {
                Message::CreateFileOk { file } => match id {
                    None => id = Some(file),
                    Some(prev) if prev == file => {}
                    Some(prev) => {
                        return Err(NetError::Protocol(format!(
                            "servers disagree on file id ({prev} vs {file}) — metadata drift"
                        )))
                    }
                },
                other => return Err(NetError::Unexpected { opcode: other.opcode() }),
            }
        }
        id.ok_or_else(|| NetError::Protocol("no reachable servers to register the file".into()))
    }

    /// Ask the first reachable server a metadata question, moving on to
    /// the next if the asked one dies mid-call.
    fn ask_any(&mut self, msg: &Message) -> Result<Message, NetError> {
        loop {
            let s = self.any_up()?;
            match self.call(s, msg) {
                Err(e) if e.is_transport() => continue, // `s` was just marked down; ask the next
                reply => return reply,
            }
        }
    }

    /// Resolve a name to `(file id, distribution)`.
    pub fn lookup(&mut self, name: &str) -> Result<(u32, DistributionInfo), NetError> {
        match self.ask_any(&Message::Lookup { name: name.to_string() })? {
            Message::LookupOk { file, dist } => Ok((file, dist)),
            other => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// Query a file's distribution information.
    pub fn distribution(&mut self, file: u32) -> Result<DistributionInfo, NetError> {
        match self.ask_any(&Message::GetDistribution { file })? {
            Message::DistributionResp { dist } => Ok(dist),
            other => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// Scatter `data` over the cluster: each strip goes to every
    /// server that holds it under the file's layout, in one `PutStrip`
    /// per holder for each run of consecutive strips with the same
    /// holders, all of them in one wave (of at most [`MAX_INFLIGHT`]
    /// strips). The write is **tolerant**: a strip succeeds if at least
    /// one of its holders stores it (missed holders are recorded as
    /// [`DegradeEvent::DegradedWrite`], one per strip); it fails only
    /// when *no* holder is reachable. What a holder answered in the
    /// wave is attempt one of the run's call to it.
    pub fn put_file(&mut self, file: u32, data: &[u8]) -> Result<(), NetError> {
        let dist = self.distribution(file)?;
        self.put_file_as(file, dist, data)
    }

    /// [`DasCluster::put_file`] into a file laid out as `dist`.
    fn put_file_as(&mut self, file: u32, dist: DistributionInfo, data: &[u8]) -> Result<(), NetError> {
        if data.len() as u64 != dist.file_len {
            return Err(NetError::Protocol(format!(
                "payload is {} bytes, file is {}",
                data.len(),
                dist.file_len
            )));
        }
        let spec = StripeSpec::new(dist.strip_size);
        let layout = Layout::new(dist.policy, dist.servers);
        let count = spec.strip_count(dist.file_len);
        for first in (0..count).step_by(MAX_INFLIGHT) {
            let wave = first..count.min(first + MAX_INFLIGHT as u64);
            let holders = |sid| layout.holders(sid).into_iter().map(|h| h.index()).collect::<Vec<usize>>();
            let puts: Vec<(Range<u64>, Vec<usize>, Message)> = strip_runs(&spec, dist.file_len, wave, holders)
                .into_iter()
                .map(|(strips, bytes, holders)| {
                    let put = Message::PutStrip { file, strip: strips.start, payload: data[bytes].to_vec() };
                    (strips, holders, put)
                })
                .collect();
            let asks: Vec<Ask<'_>> = puts
                .iter()
                .flat_map(|(_, holders, msg)| fan_out(holders, msg))
                .collect();
            let mut firsts = self.exchange(&asks, true).into_iter();
            for (strips, holders, msg) in &puts {
                let mut stored = 0u32;
                let mut missed = 0u32;
                let mut last = None;
                for &holder in holders {
                    let first = firsts.next().and_then(|[first, _]| first);
                    match self.call_resuming(holder, msg, first) {
                        Ok(Message::PutStripOk) => stored += 1,
                        Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                        Err(e) => {
                            missed += 1;
                            last = Some(e);
                        }
                    }
                }
                if stored == 0 {
                    return Err(last.unwrap_or_else(|| {
                        NetError::Protocol(format!("strip {}: no holders under the layout", strips.start))
                    }));
                }
                if missed > 0 {
                    for strip in strips.clone() {
                        self.record_event(DegradeEvent::DegradedWrite { file, strip, missed });
                    }
                }
            }
        }
        Ok(())
    }

    /// Gather a whole file (the "normal I/O" read path), in waves of at
    /// most [`MAX_INFLIGHT`] strips, each run of consecutive strips
    /// with the same walk in one request. Each run's holders are walked
    /// **lightest-first** by observed latency (a cold tracker preserves
    /// primary-first placement order), failing over to the next holder
    /// on error ([`DegradeEvent::ReplicaFailover`], one per strip); a
    /// run fails only when no holder can serve it. The wave asks every
    /// run's first choice at once; a server that has not begun to
    /// answer within the delay its latency estimate gives is
    /// **hedged**: its runs are re-asked from their next-best holders,
    /// and the first good reply wins.
    pub fn read_file(&mut self, file: u32) -> Result<Vec<u8>, NetError> {
        let dist = self.distribution(file)?;
        self.read_file_as(file, dist)
    }

    /// [`DasCluster::read_file`] of a file laid out as `dist`.
    fn read_file_as(&mut self, file: u32, dist: DistributionInfo) -> Result<Vec<u8>, NetError> {
        let spec = StripeSpec::new(dist.strip_size);
        let layout = Layout::new(dist.policy, dist.servers);
        // Late replies first: what they cost orders this read's walks.
        self.poll_parked();
        // Cap the preallocation hint: `file_len` arrived over the
        // wire, and a corrupt daemon must not be able to make the
        // client reserve 16 EiB up front. The Vec still grows to the
        // true size wave by wave.
        let mut out = Vec::with_capacity(dist.file_len.min(crate::proto::MAX_PAYLOAD as u64) as usize);
        let count = spec.strip_count(dist.file_len);
        for first in (0..count).step_by(MAX_INFLIGHT) {
            let wave = first..count.min(first + MAX_INFLIGHT as u64);
            let walk = |sid| {
                let placement = layout.placement(sid);
                let mut walk: Vec<u32> = placement.holders().into_iter().map(|h| h.0).collect();
                self.load.order_by_load(&mut walk, |&h| h as usize);
                (placement.primary_server.0, walk)
            };
            let runs: Vec<RunRead> = strip_runs(&spec, dist.file_len, wave, walk)
                .into_iter()
                .map(|(strips, bytes, (primary, walk))| RunRead { strips, want: bytes.len(), primary, walk })
                .collect();
            self.gather(file, &runs, &mut out)?;
        }
        Ok(out)
    }

    /// Append `runs`' strips to `out`, in order: one wave asks each
    /// run's first choice (hedging to its second), then each run's walk
    /// takes over from what that answered.
    fn gather(&mut self, file: u32, runs: &[RunRead], out: &mut Vec<u8>) -> Result<(), NetError> {
        let msgs: Vec<Message> = runs.iter().map(|r| r.request(file)).collect();
        let asks: Vec<Ask<'_>> = runs
            .iter()
            .zip(&msgs)
            .map(|(r, msg)| Ask {
                msg,
                to: r.walk[0] as usize,
                strips: r.count(),
                hedge_to: r.walk.get(1).map(|&h| h as usize),
            })
            .collect();
        let firsts = self.exchange(&asks, true);
        for ((r, msg), firsts) in runs.iter().zip(&msgs).zip(firsts) {
            out.extend_from_slice(&self.walk_run(file, r, msg, firsts)?);
        }
        Ok(())
    }

    /// Fetch one run from the holders in its walk order, failing over
    /// to the next on any failure — a transport or typed error that
    /// outlasts its retries, a reply of the wrong length. The walk's
    /// first two steps may already have been taken by the wave: what
    /// each of the two holders answered is attempt one of the walk's
    /// call to it, and the walk starts at the second if only its answer
    /// was good — a hedge win.
    fn walk_run(&mut self, file: u32, run: &RunRead, msg: &Message, mut firsts: Firsts) -> Result<Vec<u8>, NetError> {
        let RunRead { want, primary, ref walk, .. } = *run;
        let hedge_won = matches!(firsts, [None | Some(Err(_)), Some(Ok(_))]);
        let mut last = None;
        for (pos, &h) in walk.iter().enumerate().cycle().skip(usize::from(hedge_won)).take(walk.len()) {
            let first = firsts.get_mut(pos).and_then(Option::take);
            match self.call_resuming(h as usize, msg, first) {
                Ok(Message::StripData { payload }) if payload.len() == want => {
                    if hedge_won && pos == 1 {
                        self.metrics.counter("das_client_hedge_wins_total", &[]).add(run.count());
                    }
                    // A replica serving because it was *ordered* first
                    // is load balancing, not degradation — only record
                    // a failover when the first choice failed, or (a
                    // proactive one) did not answer inside its latency
                    // envelope and lost to the hedge.
                    if pos > 0 && h != primary {
                        das_obs::event_limited(
                            das_obs::Level::Debug,
                            "das.client",
                            "replica walk",
                            &[
                                ("strips", run.name()),
                                ("primary", primary.to_string()),
                                ("served_by", h.to_string()),
                                ("hops", pos.to_string()),
                                ("hedge_won", hedge_won.to_string()),
                            ],
                        );
                        for strip in run.strips.clone() {
                            self.record_event(DegradeEvent::ReplicaFailover { file, strip, primary, replica: h });
                        }
                    }
                    return Ok(payload);
                }
                Ok(Message::StripData { payload }) => {
                    last = Some(NetError::Protocol(format!("{}: wanted {want} bytes, got {}", run.name(), payload.len())))
                }
                Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| NetError::Protocol(format!("{}: no holders under the layout", run.name()))))
    }

    /// Read every parked reply that has begun to arrive — without
    /// waiting for one that has not. A connection whose requests have
    /// all been answered goes back to its slot, unless a fresh one was
    /// dialled there meanwhile; one past its reply deadline is dropped
    /// unread.
    fn poll_parked(&mut self) {
        for mut parked in std::mem::take(&mut self.parked) {
            if Instant::now() >= parked.until || !self.land(&mut parked, Duration::ZERO, |_, _| {}) {
                continue;
            }
            if parked.link.flight.is_empty() {
                self.restore(parked.server, parked.conn);
            } else {
                self.parked.push(parked);
            }
        }
    }

    /// Read every reply that lands on `parked` within `wait` of the
    /// last, handing each to `landed` with the request it answers. A
    /// late reply feeds the server's latency estimate with its own
    /// request's wait, so a straggler is demoted by what it really
    /// cost. False when the connection failed or a reply answered
    /// nothing in flight: it is done for.
    fn land(
        &self,
        parked: &mut Parked,
        wait: Duration,
        mut landed: impl FnMut(Sent<Job>, Result<Message, NetError>),
    ) -> bool {
        let Parked { server, conn, msg, link, .. } = parked;
        while !link.flight.is_empty() && link.begun(conn, wait, &self.policy) {
            let Ok((sent, reply)) = link.recv(conn, msg, &self.policy, None) else { return false };
            if reply.is_ok() {
                self.load.observe(*server, sent.at.elapsed());
            }
            landed(sent, reply);
        }
        true
    }

    /// Give `server` back a connection with nothing in flight, unless a
    /// fresh one was dialled into its slot meanwhile.
    fn restore(&mut self, server: usize, conn: RpcConn) {
        self.conns[server].live.get_or_insert(conn);
    }

    /// Two-phase redistribution to `policy`: every server prepares
    /// (pulling its new strips from the old layout's primaries), then
    /// every server commits. Returns total bytes pulled between
    /// servers. Requires the **full** cluster: redistribution rewrites
    /// every server's strip set, so running it around a dead server
    /// would silently lose placement — the caller should degrade to a
    /// scheme that keeps the current layout instead.
    pub fn redistribute(&mut self, file: u32, policy: LayoutPolicy) -> Result<u64, NetError> {
        if let Some(s) = self.down.iter().position(|&d| d) {
            return Err(Self::down_error(s));
        }
        let mut moved = 0u64;
        for reply in self.call_all(&Message::RedistPrepare { file, policy })? {
            match reply {
                Message::RedistPrepareOk { fetched_bytes, .. } => moved += fetched_bytes,
                other => return Err(NetError::Unexpected { opcode: other.opcode() }),
            }
        }
        for reply in self.call_all(&Message::RedistCommit { file, policy })? {
            match reply {
                Message::RedistCommitOk => {}
                other => return Err(NetError::Unexpected { opcode: other.opcode() }),
            }
        }
        Ok(moved)
    }

    /// Offload `kernel` over `file` on every server. `Ok(Err(reason))`
    /// means a server's decision workflow rejected the request
    /// ([`ErrorCode::FallbackToNormalIo`]) and the caller must run the
    /// normal-I/O path instead.
    #[allow(clippy::type_complexity)]
    pub fn execute(
        &mut self,
        file: u32,
        out_file: u32,
        kernel: &str,
        img_width: u64,
        successive: bool,
        force: bool,
    ) -> Result<Result<Vec<ExecSummary>, String>, NetError> {
        let msg = Message::Execute {
            file,
            out_file,
            kernel: kernel.to_string(),
            img_width,
            element_size: 4,
            successive,
            force,
        };
        let all: Vec<usize> = (0..self.conns.len()).collect();
        let mut summaries = Vec::with_capacity(all.len());
        for reply in self.wave(&all, &msg) {
            match reply {
                Ok(Message::ExecuteOk { strips_computed, dep_fetches, dep_fetch_bytes }) => {
                    summaries.push(ExecSummary { strips_computed, dep_fetches, dep_fetch_bytes })
                }
                Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                Err(NetError::Remote { code: ErrorCode::FallbackToNormalIo, message }) => {
                    // All servers share the metadata and decide
                    // identically; the first rejection settles it.
                    return Ok(Err(message));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Ok(summaries))
    }

    /// Per-server traffic counters (reachable servers only).
    pub fn stats(&mut self) -> Result<Vec<WireStats>, NetError> {
        self.call_all(&Message::Stats)?
            .into_iter()
            .map(|reply| match reply {
                Message::StatsResp(s) => Ok(s),
                other => Err(NetError::Unexpected { opcode: other.opcode() }),
            })
            .collect()
    }

    /// Dump server `s`'s live metrics registry in Prometheus text
    /// exposition format (see [`Message::MetricsDump`]).
    pub fn metrics_dump(&mut self, s: usize) -> Result<String, NetError> {
        match self.call(s, &Message::MetricsDump)? {
            Message::MetricsText { text } => Ok(text),
            other => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// [`DasCluster::metrics_dump`] from every reachable server,
    /// paired with its server id.
    pub fn metrics_dump_all(&mut self) -> Result<Vec<(u32, String)>, NetError> {
        self.up_servers()
            .into_iter()
            .map(|s| self.metrics_dump(s).map(|text| (s as u32, text)))
            .collect()
    }

    /// Ask server `s` for a span blob (`ask` is a `TraceDump` or a
    /// `SlowLog`) and decode it.
    fn spans_from(&mut self, s: usize, ask: &Message) -> Result<Vec<das_obs::SpanRecord>, NetError> {
        match (ask, self.call(s, ask)?) {
            (Message::TraceDump { .. }, Message::TraceDumpResp { spans })
            | (Message::SlowLog { .. }, Message::SlowLogResp { spans }) => das_obs::decode_spans(&spans)
                .ok_or_else(|| NetError::Protocol(format!("server {s}: malformed span blob"))),
            (_, other) => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// [`DasCluster::spans_from`] every reachable server, paired with
    /// its server id.
    fn spans_from_all(&mut self, ask: &Message) -> Result<Vec<(u32, Vec<das_obs::SpanRecord>)>, NetError> {
        self.up_servers()
            .into_iter()
            .map(|s| self.spans_from(s, ask).map(|spans| (s as u32, spans)))
            .collect()
    }

    /// Dump the spans server `s` retains for `trace` from its flight
    /// recorder (see [`Message::TraceDump`]).
    pub fn trace_dump(&mut self, s: usize, trace: u64) -> Result<Vec<das_obs::SpanRecord>, NetError> {
        self.spans_from(s, &Message::TraceDump { trace })
    }

    /// [`DasCluster::trace_dump`] from every reachable server, paired
    /// with its server id.
    pub fn trace_dump_all(
        &mut self,
        trace: u64,
    ) -> Result<Vec<(u32, Vec<das_obs::SpanRecord>)>, NetError> {
        self.spans_from_all(&Message::TraceDump { trace })
    }

    /// Server `s`'s slowest-roots reservoir: up to `per_class` slowest
    /// requests per op class with their retained sub-spans (see
    /// [`Message::SlowLog`]).
    pub fn slow_log(
        &mut self,
        s: usize,
        per_class: u32,
    ) -> Result<Vec<das_obs::SpanRecord>, NetError> {
        self.spans_from(s, &Message::SlowLog { per_class })
    }

    /// [`DasCluster::slow_log`] from every reachable server, paired
    /// with its server id.
    pub fn slow_log_all(
        &mut self,
        per_class: u32,
    ) -> Result<Vec<(u32, Vec<das_obs::SpanRecord>)>, NetError> {
        self.spans_from_all(&Message::SlowLog { per_class })
    }

    /// Zero every reachable server's traffic counters.
    pub fn reset_stats(&mut self) -> Result<(), NetError> {
        for reply in self.call_all(&Message::ResetStats)? {
            if reply != Message::ResetStatsOk {
                return Err(NetError::Unexpected { opcode: reply.opcode() });
            }
        }
        Ok(())
    }

    /// Ask every daemon to exit. Best-effort by design: a daemon that
    /// is already dead (or rendered unreachable by fault injection)
    /// must not block teardown of the rest, so each server gets one
    /// attempt and errors are swallowed.
    pub fn shutdown_all(&mut self) -> Result<(), NetError> {
        let ups = self.up_servers();
        let _ = self.exchange(&fan_out(&ups, &Message::Shutdown), false);
        Ok(())
    }
}

/// One ask of `msg` to each of `targets`, none hedged.
fn fan_out<'m>(targets: &[usize], msg: &'m Message) -> Vec<Ask<'m>> {
    targets.iter().map(|&to| Ask { msg, to, strips: 1, hedge_to: None }).collect()
}

/// One exchange in progress: per server, its [`Link`] — the requests
/// not yet written and those in flight on its slot connection; the
/// hedged connections still racing their re-asks; and what every ask's
/// lanes answered.
struct Wave<'a, 'm> {
    asks: &'a [Ask<'m>],
    strip_io: bool,
    firsts: Vec<Firsts>,
    links: Vec<Link<Job>>,
    racing: Vec<Parked>,
}

/// Whether some lane of an ask was answered well.
fn settled(firsts: &Firsts) -> bool {
    firsts.iter().any(|first| matches!(first, Some(Ok(_))))
}

impl<'a, 'm> Wave<'a, 'm> {
    /// Every ask queued at its server, save those to a server marked
    /// down: their walks find it down. Strip I/O goes up to
    /// [`MAX_INFLIGHT`] deep where the link pipelines.
    fn new(cluster: &DasCluster, asks: &'a [Ask<'m>], strip_io: bool) -> Self {
        let depth = if strip_io { MAX_INFLIGHT } else { 1 };
        let mut links: Vec<Link<Job>> =
            cluster.conns.iter().map(|_| Link::new(cluster.trace, depth, VecDeque::new())).collect();
        for (i, ask) in asks.iter().enumerate().filter(|(_, ask)| !cluster.down[ask.to]) {
            links[ask.to].queued.push_back((i, 0));
        }
        Wave { asks, strip_io, firsts: asks.iter().map(|_| [None, None]).collect(), links, racing: Vec::new() }
    }

    /// Take `reply` as `sent`'s answer — unless its ask was already
    /// answered well on the other lane: the first good reply wins.
    fn record(&mut self, sent: &Sent<Job>, reply: Result<Message, NetError>) {
        let (ask, lane) = sent.job;
        if !settled(&self.firsts[ask]) {
            self.firsts[ask][lane] = Some(reply);
        }
    }

    /// How long `s`'s next reply is expected to take: nothing once its
    /// burst has answered or been seen to begin, else its latency
    /// score — unknown, so last, while it has none. A sweep waits on
    /// the soonest first, so the wait on a straggler — a slice at a
    /// time, each rounded up to the kernel's tick — does not hide when
    /// the others' replies landed.
    fn due(&self, cluster: &DasCluster, s: usize) -> f64 {
        match self.links[s].waiting_since() {
            Some(_) => Some(cluster.load.get(s).score_us()).filter(|&us| us > 0.0).unwrap_or(f64::INFINITY),
            None => -1.0,
        }
    }

    /// Whether some other server needs the client before a wait on one
    /// whose reply has not begun: a reply there has begun, or it has
    /// answered all it was sent and has more to be sent.
    fn wanted_elsewhere(&self) -> bool {
        self.links.iter().any(|link| link.reply_begun() || link.flight.is_empty() && !link.queued.is_empty())
    }

    /// After a wait on `waited`, note every other burst whose first
    /// reply has begun to land meanwhile: while the wave waits on one
    /// server the others' replies land unread, and a burst is timed to
    /// when its reply was seen, not to when the wave got round to
    /// reading it.
    fn stamp(&mut self, cluster: &DasCluster, waited: usize) {
        for (s, link) in self.links.iter_mut().enumerate() {
            if s == waited || link.waiting_since().is_none() {
                continue;
            }
            if let Some(live) = &cluster.conns[s].live {
                link.begun(live, Duration::ZERO, &cluster.policy);
            }
        }
    }

    /// Write until every connection is full or has nothing queued, one
    /// request per server per pass, so that every server is at work
    /// before any one server's whole share is on the wire.
    fn send_queued(&mut self, cluster: &mut DasCluster) {
        // Dial first: a dial waits a round trip, and a burst written
        // before it would be timed as if its reply had waited as well.
        for s in 0..self.links.len() {
            let Some(&job) = self.links[s].queued.front().filter(|_| cluster.conns[s].live.is_none()) else { continue };
            if let Err(e) = conn_dial(&mut cluster.conns[s], &cluster.policy) {
                self.fail(s, job, e);
            }
        }
        let mut wrote = true;
        while wrote {
            wrote = false;
            for (s, link) in self.links.iter_mut().enumerate() {
                let Some(live) = cluster.conns[s].live.as_mut().filter(|_| link.has_room()) else { continue };
                let Some((ask, lane)) = link.queued.pop_front() else { continue };
                wrote = true;
                if lane == 1 {
                    if settled(&self.firsts[ask]) {
                        continue; // the late server answered after all
                    }
                    cluster.metrics.counter("das_client_hedges_total", &[]).add(self.asks[ask].strips);
                }
                let msg = self.asks[ask].msg;
                let budget = reply_deadline(&cluster.policy, msg, link.pipelined());
                if let Err(e) = link.send(live, (ask, lane), msg, None, Some(budget)) {
                    cluster.conns[s].live = None;
                    self.firsts[ask][lane] = Some(Err(e));
                }
            }
        }
    }

    /// Server `s` failed request `(ask, lane)` with `e`: that is its
    /// answer, and `s` gets no more of this exchange; every other
    /// request in flight on its connection, which is gone, has none.
    fn fail(&mut self, s: usize, (ask, lane): Job, e: NetError) {
        self.links[s].clear();
        self.firsts[ask][lane] = Some(Err(e));
    }

    /// When the burst in flight on `s` is hedged if its first reply has
    /// not begun: when it was written plus the server's hedge delay.
    /// Never once it has answered, while the tracker is cold, or when
    /// one of its requests is a re-ask or has no live second holder.
    fn hedge_at(&self, cluster: &DasCluster, s: usize) -> Option<Instant> {
        let written = self.links[s].waiting_since()?;
        let hedgeable = self.links[s].flight.iter().all(|sent| {
            let (ask, lane) = sent.job;
            lane == 0 && self.asks[ask].hedge_to.is_some_and(|h| h != s && !cluster.down[h])
        });
        if !hedgeable {
            return None;
        }
        Some(written + cluster.load.hedge_delay(s)?)
    }

    /// Read one reply from `s`'s slot connection. A burst's first reply
    /// is waited for a slice at a time, noting between slices which
    /// other bursts' replies have begun — and not at all while another
    /// server is wanted: it is served first, and `s` is come back to. A
    /// hedgeable burst whose reply has not begun by its hedge time is
    /// hedged instead.
    fn take_reply(&mut self, cluster: &mut DasCluster, s: usize) {
        let oldest = self.links[s].flight[0].job;
        let msg = self.asks[oldest.0].msg;
        if let Some(written) = self.links[s].waiting_since() {
            let hedge_at = self.hedge_at(cluster, s);
            let give_up = written + reply_deadline(&cluster.policy, msg, self.links[s].flight.len() > 1);
            let until = hedge_at.map_or(give_up, |at| at.min(give_up));
            loop {
                self.stamp(cluster, s);
                let ahead = self.wanted_elsewhere();
                let slice =
                    if ahead { Duration::ZERO } else { POLL_SLICE.min(until.saturating_duration_since(Instant::now())) };
                let live = cluster.conns[s].live.as_ref();
                if live.is_some_and(|live| self.links[s].begun(live, slice, &cluster.policy)) {
                    break;
                }
                if Instant::now() < until {
                    if ahead {
                        return; // serve the others first, and come back
                    }
                    continue;
                }
                if hedge_at.is_some_and(|at| at <= give_up) {
                    self.hedge(cluster, s);
                } else {
                    cluster.conns[s].live = None;
                    let silent = io::Error::new(io::ErrorKind::TimedOut, "no reply began within the reply deadline");
                    self.fail(s, oldest, NetError::Io(silent));
                }
                return;
            }
        }
        let Some(live) = cluster.conns[s].live.as_mut() else {
            return self.fail(s, oldest, NetError::Protocol("requests in flight on an empty slot".into()));
        };
        let sample = self.strip_io.then_some((&cluster.load, s));
        let received = self.links[s].recv(live, msg, &cluster.policy, sample);
        self.stamp(cluster, s);
        match received {
            Ok((sent, reply)) => {
                if reply.is_err() {
                    self.links[s].queued.clear();
                }
                self.record(&sent, reply);
            }
            Err(e) => {
                cluster.conns[s].live = None;
                self.firsts[oldest.0][oldest.1] = Some(Err(e));
            }
        }
    }

    /// Re-ask every request in flight on `s` from its second holder,
    /// ahead of what that holder has queued (it is asked because this
    /// one is late), and take `s`'s connection off its slot to race
    /// them. Requests still queued for `s` go on a fresh connection.
    fn hedge(&mut self, cluster: &mut DasCluster, s: usize) {
        let written = self.links[s].waiting_since().unwrap_or_else(Instant::now);
        let link = self.links[s].take_flight();
        for sent in link.flight.iter().rev() {
            if let Some(h) = self.asks[sent.job.0].hedge_to {
                self.links[h].queued.push_front((sent.job.0, 1));
            }
        }
        let msg = self.asks[link.flight[0].job.0].msg;
        let until = written + reply_deadline(&cluster.policy, msg, link.flight.len() > 1);
        if let Some(conn) = cluster.conns[s].live.take() {
            self.racing.push(Parked { server: s, conn, msg: msg.clone(), link, until });
        }
    }

    /// Read what has landed on each racing connection, waiting up to
    /// `wait` for each reply. One with nothing left in flight goes back
    /// to its slot; one whose requests are all answered on either lane
    /// is parked; one past its deadline is dropped.
    fn race(&mut self, cluster: &mut DasCluster, wait: Duration) {
        for mut racing in std::mem::take(&mut self.racing) {
            if !cluster.land(&mut racing, wait, |sent, reply| self.record(&sent, reply)) {
                continue;
            }
            if racing.link.flight.is_empty() {
                cluster.restore(racing.server, racing.conn);
            } else if racing.link.flight.iter().all(|sent| settled(&self.firsts[sent.job.0])) {
                cluster.parked.push(racing);
            } else if Instant::now() < racing.until {
                self.racing.push(racing);
            }
        }
    }
}

/// Which of the paper's three evaluation schemes to run over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetScheme {
    /// Traditional storage: gather to the client, compute there,
    /// scatter the output back.
    Ts,
    /// Naive active storage: offload unconditionally on the current
    /// layout.
    Nas,
    /// Dynamic active storage: decide, optionally redistribute, then
    /// offload — or fall back to TS on rejection.
    Das,
}

impl NetScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            NetScheme::Ts => "TS",
            NetScheme::Nas => "NAS",
            NetScheme::Das => "DAS",
        }
    }
}

/// What a networked scheme run did and moved.
#[derive(Debug, Clone)]
pub struct NetRunReport {
    /// The scheme.
    pub scheme: NetScheme,
    /// Kernel name.
    pub kernel: String,
    /// Whether the work ran on the storage servers.
    pub offloaded: bool,
    /// The input file's layout when execution ran.
    pub layout: LayoutPolicy,
    /// Raw output bytes (row-major little-endian `f32`).
    pub output: Vec<u8>,
    /// Bit-exact fingerprint of the output raster.
    pub output_fingerprint: u64,
    /// Measured client↔server wire bytes (sum over servers, both
    /// directions).
    pub client_bytes: u64,
    /// Measured server↔server wire bytes (sum of per-server sends, so
    /// each transfer counts once).
    pub server_bytes: u64,
    /// Bytes moved by redistribution: the DAS rung's of the input, and
    /// an offload rung's of an output laid out otherwise (included in
    /// `server_bytes`).
    pub redistribution_bytes: u64,
    /// Per-server execution summaries (empty for TS).
    pub exec: Vec<ExecSummary>,
    /// Fault-tolerance actions taken while serving this run, in
    /// order: failed servers, replica failovers, degraded writes, and
    /// any rungs of the DAS → NAS → normal-I/O ladder descended.
    /// Empty on a healthy cluster.
    pub degradations: Vec<DegradeEvent>,
}

/// Run one scheme end-to-end over the wire: the input file, on
/// whatever layout it has, is processed by `kernel_name`, the output
/// lands in the file `out_name` (created if no server knows it), and
/// traffic counters are reset before and read after, so the report's
/// byte counts cover exactly this run.
///
/// The run is one loop down the rungs that the scheme and the client's
/// Fig. 3 decision select: TS; NAS → TS; DAS → NAS → TS; or, for an
/// offload the client rejects, an advisory offload → TS. A DAS offload
/// the daemons' double check refuses is served as normal I/O. When
/// servers fail mid-run the ladder degrades instead of erroring, as
/// long as every input strip is still reachable on some holder: a DAS
/// offload that cannot redistribute or execute is forced on the live
/// layout (NAS), and an offload that cannot run at all is served as
/// normal I/O with replica-failover reads and tolerant writes. Every
/// rung descended is recorded in [`NetRunReport::degradations`]. Only
/// when data is genuinely unreachable (a dead server holding
/// unreplicated strips) does the run return a typed error — within the
/// retry policy's bounded time, never a hang.
///
/// Each fact is asked once: the input's distribution in one
/// `GetDistribution` (again only after a redistribute that failed), the
/// output's in one `Lookup` (or the `CreateFile` the run sent). An
/// offload into an output laid out other than its input first
/// redistributes the output.
pub fn run_net_scheme(
    cluster: &mut DasCluster,
    scheme: NetScheme,
    file: u32,
    out_name: &str,
    kernel_name: &str,
    img_width: u64,
) -> Result<NetRunReport, NetError> {
    run_net_scheme_opts(cluster, scheme, file, out_name, kernel_name, img_width, true)
}

/// [`run_net_scheme`] with the Fig. 3 "successive operation?" answer
/// exposed. `successive: true` (the [`run_net_scheme`] default) takes
/// the reconfigure-and-accept branch — redistribution amortizes over
/// the operations that follow. `successive: false` is a one-shot
/// request: the client predicts the bandwidth cost on the layout as it
/// stands and **rejects** the offload when dependence fetches would
/// exceed normal service, serving the run as normal I/O instead (the
/// daemons' identical double-check records the rejection as a `ts`
/// decision outcome in their metrics registries).
#[allow(clippy::too_many_arguments)]
pub fn run_net_scheme_opts(
    cluster: &mut DasCluster,
    scheme: NetScheme,
    file: u32,
    out_name: &str,
    kernel_name: &str,
    img_width: u64,
    successive: bool,
) -> Result<NetRunReport, NetError> {
    // One trace id per scheme run: every RPC this run issues (and,
    // server-side, every peer fetch it causes) carries the same id.
    let trace = cluster.begin_trace();
    let fields =
        [("scheme", scheme.name().to_string()), ("kernel", kernel_name.into()), ("trace", format!("{trace:016x}"))];
    das_obs::event(das_obs::Level::Debug, "das.client", "scheme run", &fields);
    let dist = cluster.distribution(file)?;
    cluster.reset_stats()?;
    let mut rung = match scheme {
        NetScheme::Ts => None,
        NetScheme::Nas => Some(Offload::Nas),
        NetScheme::Das => {
            // Client half of Fig. 3: predict on the distribution, and
            // reconfigure when a successive operation justifies it.
            let opts = RequestOptions { img_width, successive, ..Default::default() };
            match cluster.as_client.decide_from_distribution(dist, kernel_name, &opts) {
                Ok(Decision::Offload { replan, .. }) => Some(Offload::Das(replan.map(|plan| plan.policy))),
                Ok(Decision::Reject { .. }) => Some(Offload::Advisory),
                Err(e) => return Err(NetError::Protocol(e.to_string())),
            }
        }
    };
    let mut run =
        SchemeRun { cluster, file, out_name, kernel_name, img_width, successive, dist: Some(dist), out: None, moved: 0 };
    let exec = loop {
        let Some(offload) = rung else {
            run.normal_io()?;
            break None;
        };
        rung = match run.offload(offload) {
            Ok(Ok(summaries)) => break Some(summaries),
            Ok(Err(reason)) => offload.below(Ok(reason), run.cluster)?,
            Err(e) => offload.below(Err(e), run.cluster)?,
        };
    };

    // Snapshot the counters before the verification read-back below,
    // which is not part of any scheme's traffic.
    let stats = run.cluster.stats()?;
    let client_bytes: u64 = stats.iter().map(|s| s.client_in + s.client_out).sum();
    let server_bytes: u64 = stats.iter().map(|s| s.server_out).sum();

    let (out_id, out_dist) = run.output()?;
    let layout = run.input()?.policy;
    let output = run.cluster.read_file_as(out_id, out_dist)?;
    let height = out_dist.file_len / (img_width * 4);
    let output_fingerprint = Raster::from_bytes(img_width, height, &output).fingerprint();

    Ok(NetRunReport {
        scheme,
        kernel: kernel_name.to_string(),
        offloaded: exec.is_some(),
        layout,
        output,
        output_fingerprint,
        client_bytes,
        server_bytes,
        redistribution_bytes: run.moved,
        exec: exec.unwrap_or_default(),
        degradations: run.cluster.take_events(),
    })
}

/// An offload rung of the scheme ladder. Below each is normal I/O.
#[derive(Debug, Clone, Copy)]
enum Offload {
    /// DAS: redistribute the input to the plan's layout, if it has
    /// one, then offload through the daemons' decision.
    Das(Option<LayoutPolicy>),
    /// NAS: offload, forced, on the live layout.
    Nas,
    /// The client rejected the offload: ask anyway, unforced, so the
    /// daemons' identical double check refuses it and counts a `ts`
    /// outcome too.
    Advisory,
}

impl Offload {
    /// Where the ladder goes when this rung did not offload — the
    /// daemons refused it (`Ok(reason)`) or it failed (`Err`): the next
    /// offload rung, or `None` for normal I/O. Each rung descended is
    /// recorded; a failure no rung below could get round ends the run.
    fn below(self, missed: Result<String, NetError>, cluster: &mut DasCluster) -> Result<Option<Offload>, NetError> {
        let reason = match (self, missed) {
            // A decision, not a fault: serve the request as normal I/O.
            (Offload::Das(_), Ok(_)) | (Offload::Advisory, _) => return Ok(None),
            (Offload::Nas, Ok(reason)) => reason,
            (_, Err(e)) if degradable(&e) => e.to_string(),
            (_, Err(e)) => return Err(e),
        };
        let (event, next) = match self {
            Offload::Das(_) => (DegradeEvent::DegradedToNas { reason }, Some(Offload::Nas)),
            _ => (DegradeEvent::DegradedToTs { reason }, None),
        };
        cluster.record_event(event);
        Ok(next)
    }
}

/// One scheme run down its ladder, and the metadata it has learnt.
struct SchemeRun<'a> {
    cluster: &'a mut DasCluster,
    file: u32,
    out_name: &'a str,
    kernel_name: &'a str,
    img_width: u64,
    successive: bool,
    /// The input's distribution; `None` while a failed redistribute
    /// leaves the live layout unknown.
    dist: Option<DistributionInfo>,
    /// The output's id and distribution, once looked up or created.
    out: Option<(u32, DistributionInfo)>,
    /// Bytes the run's redistributions moved.
    moved: u64,
}

impl SchemeRun<'_> {
    /// The input's distribution, asked for only if it is unknown.
    fn input(&mut self) -> Result<DistributionInfo, NetError> {
        match self.dist {
            Some(dist) => Ok(dist),
            None => Ok(*self.dist.insert(self.cluster.distribution(self.file)?)),
        }
    }

    /// The output's id and distribution: looked up once, or created
    /// with the input's geometry and layout if no server knows it.
    fn output(&mut self) -> Result<(u32, DistributionInfo), NetError> {
        if let Some(out) = self.out {
            return Ok(out);
        }
        let out = match self.cluster.lookup(self.out_name) {
            Err(NetError::Remote { code: ErrorCode::NoSuchFile, .. }) => {
                let dist = self.input()?;
                (self.cluster.create_file(self.out_name, dist.file_len, dist.strip_size as u32, dist.policy)?, dist)
            }
            found => found?,
        };
        Ok(*self.out.insert(out))
    }

    /// One offload rung: the DAS rung's reconfiguration, then the
    /// output laid out like the input — the daemons compute into
    /// nothing else — then an Execute on every server.
    #[allow(clippy::type_complexity)]
    fn offload(&mut self, rung: Offload) -> Result<Result<Vec<ExecSummary>, String>, NetError> {
        let mut dist = self.input()?;
        if let Offload::Das(Some(plan)) = rung {
            // Until the redistribute answers, the live layout is unknown.
            self.dist = None;
            self.moved += self.cluster.redistribute(self.file, plan)?;
            dist.policy = plan;
            self.dist = Some(dist);
        }
        let (out, mut out_dist) = self.output()?;
        if out_dist.policy != dist.policy {
            self.out = None;
            self.moved += self.cluster.redistribute(out, dist.policy)?;
            out_dist.policy = dist.policy;
            self.out = Some((out, out_dist));
        }
        let force = matches!(rung, Offload::Nas);
        self.cluster.execute(self.file, out, self.kernel_name, self.img_width, self.successive && !force, force)
    }

    /// Normal I/O: gather the input, apply the kernel at the client,
    /// scatter the output.
    fn normal_io(&mut self) -> Result<(), NetError> {
        let (out, out_dist) = self.output()?;
        let kernel = kernel_by_name(self.kernel_name)
            .ok_or_else(|| NetError::Protocol(format!("no kernel {:?}", self.kernel_name)))?;
        let input = self.input()?;
        let input = self.cluster.read_file_as(self.file, input)?;
        let height = input.len() as u64 / (self.img_width * 4);
        let output = kernel.apply(&Raster::from_bytes(self.img_width, height, &input));
        self.cluster.put_file_as(out, out_dist, &output.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::JoinHandle;

    use super::*;
    use crate::codec::{read_frame_ex, write_message_opts};
    use crate::proto::LOCAL_CAPS;
    use crate::server::{spawn, DasdConfig, DasdHandle};

    /// The one-strip file the stub holders serve: two servers, strip 0
    /// primaried on server 0 and replicated on server 1.
    const STRIP_LEN: usize = 64;
    const STUB_DIST: DistributionInfo = DistributionInfo {
        strip_size: STRIP_LEN,
        servers: 2,
        policy: LayoutPolicy::GroupedReplicated { group: 1 },
        file_len: STRIP_LEN as u64,
    };

    /// A four-strip file on the same two servers, for waves: each
    /// server primaries two strips and holds all four.
    const WAVE_DIST: DistributionInfo = DistributionInfo { file_len: 4 * STRIP_LEN as u64, ..STUB_DIST };

    /// A stand-in for one holder of a file: greets, describes the file,
    /// and answers strip requests as its `serve` loop decides.
    struct StubHolder {
        addr: String,
        /// Connections accepted, strip requests read, strip requests
        /// answered, and the most strip requests held unanswered at
        /// once.
        accepts: Arc<AtomicUsize>,
        gets: Arc<AtomicUsize>,
        answered: Arc<AtomicUsize>,
        deepest: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        acceptor: JoinHandle<()>,
    }

    /// What a stub connection counts: strip requests read, answered,
    /// and the most held unanswered at once.
    type Tally = [Arc<AtomicUsize>; 3];

    impl StubHolder {
        /// A holder of [`STUB_DIST`] that answers every `GetStrip` with
        /// `answer` once `hold` returns, one request at a time.
        fn spawn(hold: impl Fn() + Send + Sync + 'static, answer: Message) -> StubHolder {
            StubHolder::start(move |sock, tally| serve(sock, &hold, &answer, tally))
        }

        /// A holder of [`WAVE_DIST`] that holds strip
        /// requests while the client is still writing them, then
        /// answers them newest first with the ids they carried:
        /// `answer` maps each request to its reply.
        fn spawn_wave(answer: impl Fn(&Message) -> Message + Send + Sync + 'static) -> StubHolder {
            StubHolder::start(move |sock, tally| serve_wave(sock, &answer, tally))
        }

        fn start(serve: impl Fn(TcpStream, &Tally) + Send + Sync + 'static) -> StubHolder {
            let serve = Arc::new(serve);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking accept");
            let addr = listener.local_addr().expect("addr").to_string();
            let accepts = Arc::new(AtomicUsize::new(0));
            let tally: Tally = Default::default();
            let stop = Arc::new(AtomicBool::new(false));
            let (counted, tallied, stopped) = (Arc::clone(&accepts), tally.clone(), Arc::clone(&stop));
            let acceptor = std::thread::spawn(move || {
                let mut serving = Vec::new();
                while !stopped.load(Ordering::SeqCst) {
                    let Ok((sock, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    counted.fetch_add(1, Ordering::SeqCst);
                    let (serve, tally) = (Arc::clone(&serve), tallied.clone());
                    serving.push(std::thread::spawn(move || serve(sock, &tally)));
                }
                for conn in serving {
                    conn.join().expect("stub connection");
                }
            });
            let [gets, answered, deepest] = tally;
            StubHolder { addr, accepts, gets, answered, deepest, stop, acceptor }
        }

        /// Stop accepting and wait for every connection to be closed by
        /// its client — drop the cluster first.
        fn join(self) {
            self.stop.store(true, Ordering::SeqCst);
            self.acceptor.join().expect("stub acceptor");
        }
    }

    fn serve(mut sock: TcpStream, hold: &dyn Fn(), answer: &Message, [gets, answered, _]: &Tally) {
        sock.set_nonblocking(false).expect("blocking connection");
        while let Ok(Some(frame)) = read_frame_ex(&mut sock) {
            let is_get = matches!(frame.msg, Message::GetStrip { .. });
            let reply = match frame.msg {
                Message::Hello { .. } => Message::HelloOk { server_id: 0, caps: LOCAL_CAPS },
                Message::GetDistribution { .. } => Message::DistributionResp { dist: STUB_DIST },
                Message::GetStrip { .. } => {
                    gets.fetch_add(1, Ordering::SeqCst);
                    hold();
                    answer.clone()
                }
                _ => Message::Pong,
            };
            if write_message_opts(&mut sock, &reply, frame.trace, None).is_err() {
                break;
            }
            if is_get {
                answered.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn is_strip_op(msg: &Message) -> bool {
        matches!(msg, Message::GetStrip { .. } | Message::PutStrip { .. })
    }

    fn serve_wave(mut sock: TcpStream, answer: &dyn Fn(&Message) -> Message, [gets, answered, deepest]: &Tally) {
        sock.set_nonblocking(false).expect("blocking connection");
        let mut held: Vec<(Message, Option<u64>)> = Vec::new();
        loop {
            // The client writes a wave back to back: a 5 ms pause means
            // it has written all it will before reading.
            let _ = sock.set_read_timeout(Some(Duration::from_millis(5)));
            let paused = !held.is_empty() && sock.peek(&mut [0]).is_err();
            let _ = sock.set_read_timeout(None);
            if paused {
                deepest.fetch_max(held.iter().filter(|(request, _)| is_strip_op(request)).count(), Ordering::SeqCst);
                for (request, id) in held.drain(..).rev() {
                    let reply = match request {
                        Message::Hello { .. } => Message::HelloOk { server_id: 0, caps: LOCAL_CAPS },
                        Message::GetDistribution { .. } => Message::DistributionResp { dist: WAVE_DIST },
                        _ => answer(&request),
                    };
                    let _ = write_message_opts(&mut sock, &reply, id, None);
                    if is_strip_op(&request) {
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                }
                continue;
            }
            let Ok(Some(frame)) = read_frame_ex(&mut sock) else { break };
            if is_strip_op(&frame.msg) {
                gets.fetch_add(1, Ordering::SeqCst);
            }
            held.push((frame.msg, frame.trace));
        }
    }

    /// Sleep-poll until `ready`; a stub or a test that waits on the
    /// other side of a socket has no condition variable to share.
    fn wait_until(ready: impl Fn() -> bool) {
        let started = Instant::now();
        while !ready() {
            assert!(started.elapsed() < Duration::from_secs(5), "waited 5 s for the other side");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn strip_of(byte: u8, len: usize) -> Message {
        Message::StripData { payload: vec![byte; len] }
    }

    /// A cluster over `stubs`, its tracker warmed with healthy 1 ms
    /// samples for server 0 — a 2 ms hedge delay, the floor — when
    /// `warm`.
    fn stub_cluster(stubs: &[StubHolder], warm: bool) -> DasCluster {
        let addrs: Vec<String> = stubs.iter().map(|s| s.addr.clone()).collect();
        let policy = RetryPolicy { backoff_base: Duration::from_micros(100), ..RetryPolicy::fast() };
        let cluster = DasCluster::connect_with(&addrs, policy).expect("connect");
        for _ in 0..if warm { 4 } else { 0 } {
            cluster.load.observe(0, Duration::from_millis(1));
        }
        cluster
    }

    fn client_counter(cluster: &DasCluster, name: &str) -> u64 {
        cluster.metrics.counter(name, &[]).get()
    }

    /// The stub file's one strip, gathered with the walk `[0, 1]`.
    fn read_stub_strip(cluster: &mut DasCluster) -> Result<Vec<u8>, NetError> {
        let mut out = Vec::new();
        let read = RunRead { strips: 0..1, want: STRIP_LEN, primary: 0, walk: vec![0, 1] };
        cluster.gather(1, &[read], &mut out).map(|()| out)
    }

    /// A first choice that answers late loses to the hedge without
    /// being waited on; its reply, when it lands, demotes it and gives
    /// its connection back.
    #[test]
    fn a_late_first_choice_loses_the_hedge_and_its_reply_is_read_later() {
        const LATE: Duration = Duration::from_millis(40);
        let release = Arc::new(AtomicBool::new(false));
        let released = Arc::clone(&release);
        let stubs = [
            StubHolder::spawn(move || wait_until(|| released.load(Ordering::SeqCst)), strip_of(0xAA, STRIP_LEN)),
            StubHolder::spawn(|| (), strip_of(0xBB, STRIP_LEN)),
        ];
        let mut cluster = stub_cluster(&stubs, true);

        let started = Instant::now();
        let payload = read_stub_strip(&mut cluster).expect("hedged fetch");
        let took = started.elapsed();
        assert_eq!(payload, vec![0xBB; STRIP_LEN], "the hedge lane's bytes must win");
        assert!(took < LATE, "the fetch outlasted a late holder it must not wait on: {took:?}");
        assert_eq!(client_counter(&cluster, "das_client_hedges_total"), 1);
        assert_eq!(client_counter(&cluster, "das_client_hedge_wins_total"), 1);
        assert_eq!(
            cluster.take_events(),
            vec![DegradeEvent::ReplicaFailover { file: 1, strip: 0, primary: 0, replica: 1 }]
        );
        assert!(cluster.conns[0].live.is_none() && cluster.parked.len() == 1, "the loser must be parked");

        // The late holder answers `LATE` after it was asked. Once its
        // reply is in the socket, the next entry point reads it: the
        // connection goes back, the estimate moves.
        std::thread::sleep(LATE.saturating_sub(started.elapsed()));
        release.store(true, Ordering::SeqCst);
        wait_until(|| stubs[0].answered.load(Ordering::SeqCst) == 1);
        assert!(cluster.take_events().is_empty());
        assert!(cluster.conns[0].live.is_some() && cluster.parked.is_empty(), "the loser must be restored");
        let mean_us = cluster.load.get(0).mean_us();
        let floor_us = 1000.0 + (LATE.as_micros() as f64 - 1000.0) / 8.0;
        assert!(mean_us >= floor_us, "a {LATE:?} reply left the estimate at {mean_us} us");
        assert_eq!(cluster.call(0, &Message::Ping).expect("ping"), Message::Pong);
        assert_eq!(stubs[0].accepts.load(Ordering::SeqCst), 1, "the restored connection was not reused");
        assert_eq!(stubs[0].gets.load(Ordering::SeqCst), 1, "the late holder was asked twice");
        assert_eq!(cluster.call(1, &Message::Ping).expect("ping"), Message::Pong);
        assert_eq!(stubs[1].accepts.load(Ordering::SeqCst), 1, "the winner lost its connection");

        drop(cluster);
        for stub in stubs {
            stub.join();
        }
    }

    /// Two lanes that both fail transiently settle nothing: each
    /// failure is attempt one of the walk's retried call to that
    /// holder, and the walk's accounting is the only accounting.
    #[test]
    fn a_hedge_both_lanes_lose_falls_through_to_the_retrying_walk() {
        let busy = Message::Error { code: ErrorCode::Retryable, message: "busy".into() };
        // The first choice holds its first refusal until the hedge
        // lane has been asked: both lanes are open when both fail.
        let second = StubHolder::spawn(|| (), busy.clone());
        let hedged = Arc::clone(&second.gets);
        let first = StubHolder::spawn(move || wait_until(|| hedged.load(Ordering::SeqCst) > 0), busy);
        let stubs = [first, second];
        let mut cluster = stub_cluster(&stubs, true);

        match read_stub_strip(&mut cluster) {
            Err(NetError::Remote { code: ErrorCode::Retryable, .. }) => {}
            other => panic!("expected the holders' typed refusal, got {other:?}"),
        }
        let attempts = u64::from(cluster.policy.max_attempts);
        assert_eq!(client_counter(&cluster, "das_client_hedges_total"), 1);
        assert_eq!(client_counter(&cluster, "das_client_hedge_wins_total"), 0);
        assert_eq!(client_counter(&cluster, "das_client_retries_total"), 2 * (attempts - 1));
        for stub in &stubs {
            assert_eq!(stub.gets.load(Ordering::SeqCst) as u64, attempts, "a lane is attempt one of its holder's budget");
        }
        assert!(cluster.take_events().is_empty() && cluster.down_servers().is_empty());

        drop(cluster);
        for stub in stubs {
            stub.join();
        }
    }

    /// A reply of the wrong length is that holder's failure, not the
    /// read's: the walk moves on, and only running out of holders
    /// returns the typed error.
    #[test]
    fn a_wrong_length_strip_fails_over_to_the_next_holder() {
        let short = || StubHolder::spawn(|| (), strip_of(0xAA, STRIP_LEN - 1));
        let stubs = [short(), StubHolder::spawn(|| (), strip_of(0xBB, STRIP_LEN))];
        let mut cluster = stub_cluster(&stubs, false);
        assert_eq!(cluster.read_file(1).expect("the replica has the strip"), vec![0xBB; STRIP_LEN]);
        assert_eq!(
            cluster.take_events(),
            vec![DegradeEvent::ReplicaFailover { file: 1, strip: 0, primary: 0, replica: 1 }]
        );
        drop(cluster);
        for stub in stubs {
            stub.join();
        }

        let stubs = [short(), short()];
        let mut cluster = stub_cluster(&stubs, false);
        match cluster.read_file(1) {
            Err(NetError::Protocol(what)) => assert_eq!(what, "strip 0: wanted 64 bytes, got 63"),
            other => panic!("expected the typed length error, got {other:?}"),
        }
        drop(cluster);
        for stub in stubs {
            stub.join();
        }
    }

    /// Every strip of [`WAVE_DIST`] as the wave stubs serve it: strip
    /// `s` is `STRIP_LEN` bytes of `s`.
    fn wave_file() -> Vec<u8> {
        (0..4u8).flat_map(|s| [s; STRIP_LEN]).collect()
    }

    /// A wave answered newest first is matched by the echoed ids, so
    /// the bytes come back in strip order; one strip answered short
    /// fails over alone, to its replica.
    #[test]
    fn a_wave_answered_out_of_order_is_matched_by_id_and_one_short_strip_fails_over() {
        let holder = |server: u64| {
            move |request: &Message| match *request {
                Message::GetStrip { strip, .. } => {
                    let short = usize::from(server == 0 && strip == 2);
                    strip_of(strip as u8, STRIP_LEN - short)
                }
                _ => Message::PutStripOk,
            }
        };
        let stubs = [StubHolder::spawn_wave(holder(0)), StubHolder::spawn_wave(holder(1))];
        let mut cluster = stub_cluster(&stubs, false);
        cluster.begin_trace();
        assert_eq!(cluster.read_file(1).expect("every strip has a whole copy"), wave_file());
        assert_eq!(
            cluster.take_events(),
            vec![DegradeEvent::ReplicaFailover { file: 1, strip: 2, primary: 0, replica: 1 }]
        );
        for stub in &stubs {
            assert_eq!(stub.deepest.load(Ordering::SeqCst), 2, "a holder's two strips were not in flight at once");
        }
        assert_eq!(client_counter(&cluster, "das_client_retries_total"), 0);
        drop(cluster);
        for stub in stubs {
            stub.join();
        }
    }

    /// A holder that refuses one strip of a put wave, answered newest
    /// first, misses that strip and no other.
    #[test]
    fn a_put_wave_refused_for_one_strip_degrades_that_strip_only() {
        let holder = |server: u64| {
            move |request: &Message| match *request {
                Message::PutStrip { strip: 3, .. } if server == 1 => {
                    Message::Error { code: ErrorCode::BadRequest, message: "no room for strip 3".into() }
                }
                _ => Message::PutStripOk,
            }
        };
        let stubs = [StubHolder::spawn_wave(holder(0)), StubHolder::spawn_wave(holder(1))];
        let mut cluster = stub_cluster(&stubs, false);
        cluster.begin_trace();
        cluster.put_file(1, &wave_file()).expect("every strip has a holder that stored it");
        assert_eq!(cluster.take_events(), vec![DegradeEvent::DegradedWrite { file: 1, strip: 3, missed: 1 }]);
        for stub in &stubs {
            assert_eq!(stub.deepest.load(Ordering::SeqCst), 4, "a holder's four strips were not in flight at once");
            assert_eq!(stub.gets.load(Ordering::SeqCst), 4, "a typed refusal is not retried");
        }
        drop(cluster);
        for stub in stubs {
            stub.join();
        }
    }

    /// A long operation's first reply is waited for to its stretched
    /// deadline, not to the read timeout: an `Execute` slower than that
    /// is answered on attempt one.
    #[test]
    fn a_slow_execute_is_answered_on_attempt_one() {
        let stub = StubHolder::start(|mut sock, [execs, _, _]| {
            sock.set_nonblocking(false).expect("blocking connection");
            while let Ok(Some(frame)) = read_frame_ex(&mut sock) {
                let reply = match frame.msg {
                    Message::Hello { .. } => Message::HelloOk { server_id: 0, caps: LOCAL_CAPS },
                    Message::Execute { .. } => {
                        execs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(RetryPolicy::fast().read_timeout * 3 / 2);
                        Message::ExecuteOk { strips_computed: 1, dep_fetches: 0, dep_fetch_bytes: 0 }
                    }
                    _ => Message::Pong,
                };
                if write_message_opts(&mut sock, &reply, frame.trace, None).is_err() {
                    break;
                }
            }
        });
        let stubs = [stub];
        let mut cluster = stub_cluster(&stubs, false);
        let summaries = cluster.execute(0, 1, "gaussian-filter", 16, true, true).expect("execute");
        assert_eq!(summaries.expect("offload ran").len(), 1);
        assert_eq!(stubs[0].gets.load(Ordering::SeqCst), 1, "the slow Execute was sent again");
        assert_eq!(client_counter(&cluster, "das_client_retries_total"), 0);
        drop(cluster);
        for stub in stubs {
            stub.join();
        }
    }

    /// `servers` in-process daemons and a cluster connected to them.
    fn fleet(servers: u32) -> (Vec<DasdHandle>, DasCluster) {
        let listeners: Vec<TcpListener> =
            (0..servers).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        let addrs: Vec<String> =
            listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
        let handles = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| spawn(DasdConfig::new(i as u32, addrs.clone()), l).expect("spawn dasd"))
            .collect();
        (handles, DasCluster::connect(&addrs).expect("connect"))
    }

    fn teardown(handles: Vec<DasdHandle>, mut cluster: DasCluster) {
        cluster.shutdown_all().expect("shutdown");
        drop(cluster);
        for h in handles {
            h.join();
        }
    }

    /// A wave times every server it asks: on a fresh cluster, one
    /// pipelined put and one pipelined read leave every server sampled
    /// and the hedge armed.
    #[test]
    fn waves_warm_the_latency_tracker() {
        let (handles, mut cluster) = fleet(2);
        let data = vec![7u8; 8 * 1024];
        let file = cluster.create_file("in", data.len() as u64, 1024, LayoutPolicy::RoundRobin).expect("create");
        cluster.begin_trace();
        cluster.put_file(file, &data).expect("ingest");
        assert_eq!(cluster.read_file(file).expect("read"), data);
        for s in 0..2 {
            assert!(cluster.load.get(s).samples() >= 2, "server {s}: the waves fed no latency sample");
            assert!(cluster.load.hedge_delay(s).is_some(), "server {s}: waves left the hedge unarmed");
        }
        teardown(handles, cluster);
    }

    /// The `LoadTracker` is the strip-read latency estimate: a
    /// fan-out — an `Execute` least of all — must leave every server's
    /// sample count and hedge delay exactly as the strip reads left
    /// them.
    #[test]
    fn an_execute_leaves_the_hedge_delay_unchanged() {
        let (handles, mut cluster) = fleet(2);

        let data = vec![7u8; 8 * 1024];
        let mut create = |name: &str| {
            cluster.create_file(name, data.len() as u64, 1024, LayoutPolicy::RoundRobin).expect("create")
        };
        let (file, out) = (create("in"), create("out"));
        cluster.put_file(file, &data).expect("ingest");
        assert_eq!(cluster.read_file(file).expect("read"), data);

        let estimates = |c: &DasCluster| -> Vec<(u64, Option<Duration>)> {
            (0..2).map(|s| (c.load.get(s).samples(), c.load.hedge_delay(s))).collect()
        };
        let before = estimates(&cluster);
        assert!(before.iter().all(|(_, delay)| delay.is_some()), "strip traffic must warm the tracker");
        cluster
            .execute(file, out, "gaussian-filter", 16, true, true)
            .expect("execute")
            .expect("forced offload must run");
        cluster.ping_all().expect("ping");
        assert_eq!(estimates(&cluster), before, "a fan-out fed the strip-read latency estimate");

        teardown(handles, cluster);
    }
}
