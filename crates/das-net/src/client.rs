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
//!    the walk's first two steps overlap (a *hedge*) once the first
//!    has been silent for longer than its latency estimate allows.
//! 2. **Tolerant writes** — [`DasCluster::put_file`] succeeds if at
//!    least one holder of each strip stores it, noting the reduced
//!    redundancy.
//! 3. **Scheme degradation** — [`run_net_scheme`] descends the ladder
//!    DAS → NAS → normal I/O when offloading is impossible (e.g. a
//!    dead server cannot compute the strips only it holds), so a
//!    request is served in degraded form rather than failed, whenever
//!    the data is still reachable.
//!
//! The client owns no threads and no channels: everything a
//! [`DasCluster`] does happens on its caller's thread, over blocking
//! sockets. A fan-out writes every request before it reads any reply;
//! a hedge waits on two sockets by looking at each in turn; a reply
//! nobody is waiting for any more sits in its socket until an entry
//! point next looks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use das_core::{ActiveStorageClient, Decision, RequestOptions};
use das_kernels::kernel_by_name;
use das_kernels::Raster;
use das_pfs::{DistributionInfo, Layout, LayoutPolicy, StripId, StripeSpec};
use das_runtime::DegradeEvent;

use crate::codec::NetError;
use crate::conn::{is_long_op, reply_deadline, RpcConn};
use crate::hedge::LoadTracker;
use crate::proto::{ErrorCode, Message, Role, WireStats, CAP_SPANS};
use crate::retry::RetryPolicy;

/// How long one look at one lane of a hedge lasts before the other
/// lane gets its look.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// One server's slot: its address and, while one is up, the live
/// connection to it.
struct ClientConn {
    addr: String,
    live: Option<RpcConn>,
    /// Whether the server's last `HelloOk` advertised [`CAP_SPANS`] —
    /// the `TraceDump`/`SlowLog` opcodes are never sent to a server
    /// that did not, so a legacy daemon is never shown an opcode it
    /// cannot parse.
    spans_ok: bool,
}

/// A hedge's losing lane: a connection that left its slot with its
/// `GetStrip` still in flight. Its reply is read where it can never be
/// taken for a later strip's — here, off the slot — and only then may
/// the connection go back.
struct Parked {
    server: usize,
    conn: RpcConn,
    /// The request in flight, and when it was written.
    msg: Message,
    sent: Instant,
}

/// Connections to every `dasd` of a cluster, indexed by server id.
pub struct DasCluster {
    conns: Vec<ClientConn>,
    down: Vec<bool>,
    events: Vec<DegradeEvent>,
    policy: RetryPolicy,
    metrics: Arc<das_obs::Registry>,
    /// Trace id stamped on outgoing requests (to CAP_TRACE servers)
    /// until the next [`DasCluster::begin_trace`].
    trace: Option<u64>,
    /// Per-server latency EWMAs: replica walks demote stragglers, and
    /// the hedge delay is derived from the chosen server's estimate.
    load: LoadTracker,
    /// Hedge losers whose replies have not been read yet. Polled,
    /// never waited on, at request-path entry points.
    parked: Vec<Parked>,
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
        None => {
            let live = RpcConn::dial(&conn.addr, policy, Role::Client, 0)?;
            conn.spans_ok = live.has(CAP_SPANS);
            live
        }
    };
    Ok(conn.live.insert(live))
}

/// First half of one attempt: dial if needed and write the request,
/// budgeted with the reply deadline this client itself enforces. A
/// transport error evicts the connection so the next attempt redials
/// instead of reusing a socket in an unknown state.
fn conn_send(
    conn: &mut ClientConn,
    policy: &RetryPolicy,
    msg: &Message,
    trace: Option<u64>,
) -> Result<(), NetError> {
    let sent = conn_dial(conn, policy)?.send(msg, trace, Some(reply_deadline(policy, msg, false)));
    if sent.is_err() {
        conn.live = None;
    }
    sent
}

/// Second half: read the reply to the request [`conn_send`] wrote.
/// Leaves the connection frame-aligned (one whole reply consumed) or
/// evicted.
fn conn_recv(
    conn: &mut ClientConn,
    policy: &RetryPolicy,
    msg: &Message,
) -> Result<Message, NetError> {
    let Some(live) = conn.live.as_mut() else {
        return Err(NetError::Protocol("reply awaited on a connection with no request in flight".into()));
    };
    let result = live.recv(msg, policy);
    if result.as_ref().is_err_and(NetError::is_transport) {
        conn.live = None;
    }
    result
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
                .map(|a| ClientConn { addr: a.clone(), live: None, spans_ok: false })
                .collect(),
            down: vec![false; addrs.len()],
            events: Vec::new(),
            policy,
            metrics: Arc::new(das_obs::Registry::new()),
            trace: None,
            load: LoadTracker::new(addrs.len()),
            parked: Vec::new(),
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

    /// Mint a fresh trace id and stamp it on every subsequent request
    /// to servers that advertised [`crate::proto::CAP_TRACE`]. Returns
    /// the id so callers can correlate client logs with daemon-side
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

    /// One attempt: dial if needed, write, read. Transport errors
    /// evict the connection so the next attempt redials instead of
    /// reusing a socket in an unknown state. Down servers fail fast.
    fn call_once(&mut self, s: usize, msg: &Message) -> Result<Message, NetError> {
        if self.down[s] {
            return Err(Self::down_error(s));
        }
        let sent = Instant::now();
        conn_send(&mut self.conns[s], &self.policy, msg, self.trace)?;
        self.recv_once(s, msg, sent)
    }

    /// Read the reply to the `msg` written to server `s` at `sent`. A
    /// successful attempt's wall time feeds the server's latency EWMA —
    /// the strip-read estimate behind hedge delays and holder ordering
    /// — unless the request is a long operation. Only successes do: a
    /// refused connection fails in microseconds and would make a dead
    /// server score as the fastest holder in every walk.
    fn recv_once(&mut self, s: usize, msg: &Message, sent: Instant) -> Result<Message, NetError> {
        let result = conn_recv(&mut self.conns[s], &self.policy, msg);
        if result.is_ok() && !is_long_op(msg) {
            self.load.observe(s, sent.elapsed());
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
        mut first: Option<Result<Message, NetError>>,
    ) -> Result<Message, NetError> {
        let policy = self.policy.clone();
        let mut attempts = 0u64;
        let result = policy.retry(|| {
            attempts += 1;
            first.take().unwrap_or_else(|| self.call_once(s, msg))
        });
        if attempts > 1 {
            self.metrics.counter("das_client_retries_total", &[]).add(attempts - 1);
        }
        if result.as_ref().is_err_and(NetError::is_transport) {
            self.mark_down(s);
        }
        result
    }

    /// Scatter/gather, one attempt: write `msg` to every target's
    /// connection, then read every reply, in `targets` order. Each
    /// connection still has at most one request outstanding, so the
    /// frames are those of `targets.len()` serial calls — only the
    /// servers' work overlaps. Every request written is answered or its
    /// connection evicted before this returns, whatever the other
    /// replies were: no reply is left behind to be read as the answer
    /// to a later request. Latencies measured across a wave include the
    /// other servers' replies, so none feeds the [`LoadTracker`].
    fn wave_once(&mut self, targets: &[usize], msg: &Message) -> Vec<Result<Message, NetError>> {
        self.poll_parked();
        let sent: Vec<Result<(), NetError>> = targets
            .iter()
            .map(|&s| {
                if self.down[s] {
                    return Err(Self::down_error(s));
                }
                conn_send(&mut self.conns[s], &self.policy, msg, self.trace)
            })
            .collect();
        targets
            .iter()
            .zip(sent)
            .map(|(&s, sent)| sent.and_then(|()| conn_recv(&mut self.conns[s], &self.policy, msg)))
            .collect()
    }

    /// [`DasCluster::wave_once`], then each server whose attempt failed
    /// transiently is retried on its own through the [`DasCluster::call`]
    /// machinery (every fanned-out request is idempotent). Results are
    /// in `targets` order.
    fn wave(&mut self, targets: &[usize], msg: &Message) -> Vec<Result<Message, NetError>> {
        let firsts = self.wave_once(targets, msg);
        targets
            .iter()
            .zip(firsts)
            .map(|(&s, first)| self.call_resuming(s, msg, Some(first)))
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

    /// Look up `name`, creating it (with `dist`'s geometry) if no
    /// server knows it yet — the idempotent output-file registration
    /// the degradation ladder needs when a rung may already have
    /// created the file.
    fn ensure_out_file(&mut self, name: &str, dist: &DistributionInfo) -> Result<u32, NetError> {
        match self.lookup(name) {
            Ok((id, _)) => Ok(id),
            Err(NetError::Remote { code: ErrorCode::NoSuchFile, .. }) => {
                self.create_file(name, dist.file_len, dist.strip_size as u32, dist.policy)
            }
            Err(e) => Err(e),
        }
    }

    /// Scatter `data` over the cluster: each strip goes to every
    /// server that holds it under the file's layout. The write is
    /// **tolerant**: a strip succeeds if at least one of its holders
    /// stores it (missed holders are recorded as
    /// [`DegradeEvent::DegradedWrite`]); it fails only when *no*
    /// holder is reachable.
    pub fn put_file(&mut self, file: u32, data: &[u8]) -> Result<(), NetError> {
        let dist = self.distribution(file)?;
        if data.len() as u64 != dist.file_len {
            return Err(NetError::Protocol(format!(
                "payload is {} bytes, file is {}",
                data.len(),
                dist.file_len
            )));
        }
        let spec = StripeSpec::new(dist.strip_size);
        let layout = Layout::new(dist.policy, dist.servers);
        for s in 0..spec.strip_count(dist.file_len) {
            let sid = StripId(s);
            let start = spec.strip_start(sid) as usize;
            let end = start + spec.strip_len(sid, dist.file_len);
            let msg = Message::PutStrip { file, strip: s, payload: data[start..end].to_vec() };
            let mut stored = 0u32;
            let mut missed = 0u32;
            let mut last = None;
            for holder in layout.holders(sid) {
                match self.call(holder.index(), &msg) {
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
                    NetError::Protocol(format!("strip {s}: no holders under the layout"))
                }));
            }
            if missed > 0 {
                self.record_event(DegradeEvent::DegradedWrite { file, strip: s, missed });
            }
        }
        Ok(())
    }

    /// Gather a whole file (the "normal I/O" read path). Each strip's
    /// holders are walked **lightest-first** by observed latency (a
    /// cold tracker preserves primary-first placement order), failing
    /// over to the next holder on error
    /// ([`DegradeEvent::ReplicaFailover`]); a strip fails only when no
    /// holder can serve it. When the first choice has a latency
    /// estimate and a second holder exists, the fetch is **hedged**: if
    /// no reply begins within the EWMA-derived delay, the same request
    /// goes to the next-best holder as well and the first good reply
    /// wins.
    pub fn read_file(&mut self, file: u32) -> Result<Vec<u8>, NetError> {
        let dist = self.distribution(file)?;
        let spec = StripeSpec::new(dist.strip_size);
        let layout = Layout::new(dist.policy, dist.servers);
        // Cap the preallocation hint: `file_len` arrived over the
        // wire, and a corrupt daemon must not be able to make the
        // client reserve 16 EiB up front. The Vec still grows to the
        // true size strip by strip.
        let mut out = Vec::with_capacity(dist.file_len.min(crate::proto::MAX_PAYLOAD as u64) as usize);
        for s in 0..spec.strip_count(dist.file_len) {
            let sid = StripId(s);
            let placement = layout.placement(sid);
            let want = spec.strip_len(sid, dist.file_len);
            let mut walk: Vec<u32> = placement.holders().into_iter().map(|h| h.0).collect();
            self.load.order_by_load(&mut walk, |&h| h as usize);
            let payload =
                self.fetch_strip(file, s, want, placement.primary_server.0, &walk)?;
            out.extend_from_slice(&payload);
        }
        Ok(out)
    }

    /// Fetch one strip from the holders in `walk` order, failing over
    /// to the next on any failure — a transport or typed error that
    /// outlasts its retries, a reply of the wrong length. The walk's
    /// first two steps may already have been taken, overlapped, by
    /// [`DasCluster::hedge`]: what each of the two holders answered is
    /// attempt one of the walk's call to it, and the walk starts at the
    /// second if only its answer was good — a hedge win.
    fn fetch_strip(
        &mut self,
        file: u32,
        strip: u64,
        want: usize,
        primary: u32,
        walk: &[u32],
    ) -> Result<Vec<u8>, NetError> {
        self.poll_parked();
        let msg = Message::GetStrip { file, strip };
        let mut firsts = self.hedge(&msg, walk);
        let hedge_won = matches!(firsts, [None | Some(Err(_)), Some(Ok(_))]);
        let mut last = None;
        for (pos, &h) in walk.iter().enumerate().cycle().skip(usize::from(hedge_won)).take(walk.len()) {
            let first = firsts.get_mut(pos).and_then(Option::take);
            match self.call_resuming(h as usize, &msg, first) {
                Ok(Message::StripData { payload }) if payload.len() == want => {
                    if hedge_won && pos == 1 {
                        self.metrics.counter("das_client_hedge_wins_total", &[]).inc();
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
                                ("strip", strip.to_string()),
                                ("primary", primary.to_string()),
                                ("served_by", h.to_string()),
                                ("hops", pos.to_string()),
                                ("hedge_won", hedge_won.to_string()),
                            ],
                        );
                        self.record_event(DegradeEvent::ReplicaFailover {
                            file,
                            strip,
                            primary,
                            replica: h,
                        });
                    }
                    return Ok(payload);
                }
                Ok(Message::StripData { payload }) => {
                    last = Some(NetError::Protocol(format!(
                        "strip {strip}: wanted {want} bytes, got {}",
                        payload.len()
                    )))
                }
                Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            NetError::Protocol(format!("strip {strip}: no holders under the layout"))
        }))
    }

    /// Read every parked reply that has begun to arrive — without
    /// waiting for one that has not. A late reply feeds the server's
    /// latency estimate (send → this poll, so a straggler is demoted by
    /// what it really cost) and its connection, frame-aligned again,
    /// goes back to its slot unless a fresh one was dialled there
    /// meanwhile. A lane past its reply deadline is dropped unread.
    fn poll_parked(&mut self) {
        let (landed, waiting): (Vec<Parked>, Vec<Parked>) = std::mem::take(&mut self.parked)
            .into_iter()
            .filter(|lane| lane.sent.elapsed() < reply_deadline(&self.policy, &lane.msg, false))
            .partition(|lane| lane.conn.wait_readable(Duration::ZERO, &self.policy));
        self.parked = waiting;
        for Parked { server, mut conn, msg, sent } in landed {
            let reply = conn.recv(&msg, &self.policy);
            if reply.is_ok() {
                self.load.observe(server, sent.elapsed());
            }
            if !reply.is_err_and(|e| e.is_transport()) && self.conns[server].live.is_none() {
                self.conns[server].live = Some(conn);
            }
        }
    }

    /// Write `msg` to `server` as lane `lane` of a hedge. Each lane
    /// carries a **distinct sub-trace id** derived from the run's trace
    /// id (0 = first choice, 1 = hedge): both under the parent id would
    /// alias winner and loser in every server-side flight recorder —
    /// same trace, same stages, double-counted; with per-lane sub-ids a
    /// lost lane's server-side spans stay attributable on their own.
    /// `das trace <parent>` does not auto-join the sub-ids; the
    /// rate-limited `hedge lane` event records the parent↔child link.
    fn send_lane(&mut self, server: usize, lane: u32, msg: &Message) -> Result<Instant, NetError> {
        let trace = self.trace.map(|parent| {
            let child = das_obs::hedge_sub_id(parent, lane);
            das_obs::event_limited(
                das_obs::Level::Debug,
                "das.client",
                "hedge lane",
                &[
                    ("parent", format!("{parent:016x}")),
                    ("child", format!("{child:016x}")),
                    ("lane", lane.to_string()),
                    ("server", server.to_string()),
                ],
            );
            child
        });
        let sent = Instant::now();
        conn_send(&mut self.conns[server], &self.policy, msg, trace).map(|()| sent)
    }

    /// Whether `server`'s slot connection turns readable within `wait`.
    fn lane_readable(&self, server: usize, wait: Duration) -> bool {
        self.conns[server].live.as_ref().is_some_and(|live| live.wait_readable(wait, &self.policy))
    }

    /// The hedge: steps one and two of a strip's walk, overlapped on
    /// the caller's thread. Ask `walk[0]`; if its reply has not begun
    /// within the delay its latency estimate gives, ask `walk[1]` the
    /// same and take whichever socket turns readable first, looking at
    /// each in turn for a [`POLL_SLICE`], until one answers well or
    /// both have answered. Returns what each of the two answered, if it
    /// did — one attempt each; retrying is the walk's. A lane still
    /// unanswered when the other wins, or when both outlast a reply
    /// deadline, is [`Parked`]: the slow server is never waited on,
    /// which is the entire point of hedging.
    ///
    /// No hedge — `[None, None]`, the walk proceeds as if this were
    /// never called — without a second holder, with either of the two
    /// marked down, or until the first choice has a latency estimate.
    fn hedge(&mut self, msg: &Message, walk: &[u32]) -> [Option<Result<Message, NetError>>; 2] {
        let [a, b, ..] = *walk else { return [None, None] };
        let holders = [a as usize, b as usize];
        if holders.iter().any(|&h| self.down[h]) {
            return [None, None];
        }
        let Some(delay) = self.load.hedge_delay(holders[0]) else { return [None, None] };

        // Step one, alone for `delay` — which a dial eats into.
        let sent = match self.send_lane(holders[0], 0, msg) {
            Ok(sent) => sent,
            Err(e) => return [Some(Err(e)), None],
        };
        if self.lane_readable(holders[0], delay.saturating_sub(sent.elapsed())) {
            return [Some(self.recv_once(holders[0], msg, sent)), None];
        }

        // Step two, overlapping it.
        self.metrics.counter("das_client_hedges_total", &[]).inc();
        let mut open = [Some(sent), None];
        let mut firsts = [None, None];
        match self.send_lane(holders[1], 1, msg) {
            Ok(sent) => open[1] = Some(sent),
            Err(e) => firsts[1] = Some(Err(e)),
        }
        let give_up = Instant::now() + reply_deadline(&self.policy, msg, false);
        'race: while open.iter().any(Option::is_some) && Instant::now() < give_up {
            // The hedge lane first: it was asked because the other is late.
            for lane in [1, 0] {
                let Some(sent) = open[lane] else { continue };
                if self.lane_readable(holders[lane], POLL_SLICE) {
                    open[lane] = None;
                    let reply = firsts[lane].insert(self.recv_once(holders[lane], msg, sent));
                    if reply.is_ok() {
                        break 'race;
                    }
                }
            }
        }
        for (server, sent) in holders.into_iter().zip(open) {
            let Some(sent) = sent else { continue };
            if let Some(conn) = self.conns[server].live.take() {
                self.parked.push(Parked { server, conn, msg: msg.clone(), sent });
            }
        }
        firsts
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
    /// `SlowLog`) and decode it. Fails with a typed
    /// [`ErrorCode::BadRequest`]-shaped error client-side when the
    /// server did not advertise [`CAP_SPANS`] — the opcode is never
    /// put on a legacy server's wire.
    fn spans_from(&mut self, s: usize, ask: &Message) -> Result<Vec<das_obs::SpanRecord>, NetError> {
        if !self.conns[s].spans_ok {
            return Err(NetError::Remote {
                code: ErrorCode::BadRequest,
                message: format!("server {s} did not negotiate CAP_SPANS"),
            });
        }
        match (ask, self.call(s, ask)?) {
            (Message::TraceDump { .. }, Message::TraceDumpResp { spans })
            | (Message::SlowLog { .. }, Message::SlowLogResp { spans }) => das_obs::decode_spans(&spans)
                .ok_or_else(|| NetError::Protocol(format!("server {s}: malformed span blob"))),
            (_, other) => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// [`DasCluster::spans_from`] every reachable server that
    /// negotiated [`CAP_SPANS`], paired with its server id. Legacy
    /// servers are skipped, not errored: a mixed fleet still renders a
    /// (partial) waterfall.
    fn spans_from_all(&mut self, ask: &Message) -> Result<Vec<(u32, Vec<das_obs::SpanRecord>)>, NetError> {
        let capable: Vec<usize> =
            self.up_servers().into_iter().filter(|&s| self.conns[s].spans_ok).collect();
        capable
            .into_iter()
            .map(|s| self.spans_from(s, ask).map(|spans| (s as u32, spans)))
            .collect()
    }

    /// Dump the spans server `s` retains for `trace` from its flight
    /// recorder (see [`Message::TraceDump`]); a typed error, nothing on
    /// the wire, if the server did not advertise [`CAP_SPANS`].
    pub fn trace_dump(&mut self, s: usize, trace: u64) -> Result<Vec<das_obs::SpanRecord>, NetError> {
        self.spans_from(s, &Message::TraceDump { trace })
    }

    /// [`DasCluster::trace_dump`] from every reachable [`CAP_SPANS`]
    /// server, paired with its server id (legacy servers skipped).
    pub fn trace_dump_all(
        &mut self,
        trace: u64,
    ) -> Result<Vec<(u32, Vec<das_obs::SpanRecord>)>, NetError> {
        self.spans_from_all(&Message::TraceDump { trace })
    }

    /// Server `s`'s slowest-roots reservoir: up to `per_class` slowest
    /// requests per op class with their retained sub-spans (see
    /// [`Message::SlowLog`]). Same [`CAP_SPANS`] gating as
    /// [`DasCluster::trace_dump`].
    pub fn slow_log(
        &mut self,
        s: usize,
        per_class: u32,
    ) -> Result<Vec<das_obs::SpanRecord>, NetError> {
        self.spans_from(s, &Message::SlowLog { per_class })
    }

    /// [`DasCluster::slow_log`] from every reachable [`CAP_SPANS`]
    /// server, paired with its server id (legacy servers skipped).
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
        let _ = self.wave_once(&ups, &Message::Shutdown);
        Ok(())
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
    /// Bytes moved by redistribution (DAS only; included in
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

/// Run one scheme end-to-end over the wire: the input file (already
/// ingested under round-robin) is processed by `kernel_name`, the
/// output lands in a new file `out_name`, and traffic counters are
/// reset before and read after, so the report's byte counts cover
/// exactly this run.
///
/// When servers fail mid-run the driver degrades instead of erroring,
/// as long as every input strip is still reachable on some holder:
/// a DAS offload that cannot redistribute or execute falls back to an
/// unconditional offload on the current layout (NAS rung), and an
/// offload that cannot run at all is served as normal I/O with
/// replica-failover reads and tolerant writes. Every rung descended
/// is recorded in [`NetRunReport::degradations`]. Only when data is
/// genuinely unreachable (a dead server holding unreplicated strips)
/// does the run return a typed error — within the retry policy's
/// bounded time, never a hang.
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
    das_obs::event(
        das_obs::Level::Debug,
        "das.client",
        "scheme run",
        &[
            ("scheme", scheme.name().to_string()),
            ("kernel", kernel_name.to_string()),
            ("trace", format!("{trace:016x}")),
        ],
    );
    let dist = cluster.distribution(file)?;
    cluster.reset_stats()?;

    let mut redistribution_bytes = 0;
    let mut offloaded = false;
    let mut exec = Vec::new();

    match scheme {
        NetScheme::Ts => {
            run_normal_io(cluster, file, out_name, kernel_name, img_width, &dist)?;
        }
        NetScheme::Nas => {
            match offload_once(cluster, file, out_name, kernel_name, img_width, false, true) {
                Ok(Ok(summaries)) => {
                    offloaded = true;
                    exec = summaries;
                }
                Ok(Err(reason)) => {
                    return Err(NetError::Protocol(format!("forced offload rejected: {reason}")))
                }
                Err(e) if degradable(&e) => {
                    cluster.record_event(DegradeEvent::DegradedToTs { reason: e.to_string() });
                    let out_file = cluster.ensure_out_file(out_name, &dist)?;
                    run_ts_into(cluster, file, out_file, kernel_name, img_width)?;
                }
                Err(e) => return Err(e),
            }
        }
        NetScheme::Das => {
            // Client half of Fig. 3: fetch the distribution, predict,
            // and reconfigure the layout when a successive operation
            // justifies it.
            let as_client = ActiveStorageClient::with_builtin_features();
            let opts = RequestOptions { img_width, successive, ..Default::default() };
            let decision = as_client
                .decide_from_distribution(dist, kernel_name, &opts)
                .map_err(|e| NetError::Protocol(e.to_string()))?;
            match decision {
                Decision::Offload { replan, .. } => {
                    // DAS rung: reconfigure the layout, then offload.
                    let das_rung = (|cluster: &mut DasCluster| {
                        if let Some(plan) = &replan {
                            redistribution_bytes = cluster.redistribute(file, plan.policy)?;
                        }
                        offload_once(cluster, file, out_name, kernel_name, img_width, successive, false)
                    })(cluster);
                    match das_rung {
                        Ok(Ok(summaries)) => {
                            offloaded = true;
                            exec = summaries;
                        }
                        Ok(Err(_reason)) => {
                            // Server-side double-check disagreed — a
                            // decision fallback, not a fault; serve as
                            // normal I/O.
                            let out_file = cluster.ensure_out_file(out_name, &dist)?;
                            run_ts_into(cluster, file, out_file, kernel_name, img_width)?;
                        }
                        Err(e) if degradable(&e) => {
                            // NAS rung: skip reconfiguration, force an
                            // offload on whatever layout is live.
                            cluster.record_event(DegradeEvent::DegradedToNas { reason: e.to_string() });
                            let nas_rung = offload_once(cluster, file, out_name, kernel_name, img_width, false, true);
                            match nas_rung {
                                Ok(Ok(summaries)) => {
                                    offloaded = true;
                                    exec = summaries;
                                }
                                Ok(Err(reason)) => {
                                    cluster.record_event(DegradeEvent::DegradedToTs { reason });
                                    let out_file = cluster.ensure_out_file(out_name, &dist)?;
                                    run_ts_into(cluster, file, out_file, kernel_name, img_width)?;
                                }
                                Err(e2) if degradable(&e2) => {
                                    // TS rung: compute client-side with
                                    // failover reads and tolerant writes.
                                    cluster.record_event(DegradeEvent::DegradedToTs { reason: e2.to_string() });
                                    let out_file = cluster.ensure_out_file(out_name, &dist)?;
                                    run_ts_into(cluster, file, out_file, kernel_name, img_width)?;
                                }
                                Err(e2) => return Err(e2),
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
                Decision::Reject { .. } => {
                    // Mirror the rejection on the storage side so the
                    // daemons count a "ts" outcome too: the unforced
                    // execute is refused by the server's identical
                    // double-check (FallbackToNormalIo). Advisory —
                    // any disagreement or failure still serves the
                    // request, as an offload or as normal I/O.
                    match offload_once(
                        cluster, file, out_name, kernel_name, img_width, successive, false,
                    ) {
                        Ok(Ok(summaries)) => {
                            offloaded = true;
                            exec = summaries;
                        }
                        _ => run_normal_io(cluster, file, out_name, kernel_name, img_width, &dist)?,
                    }
                }
            }
        }
    }

    // Snapshot the counters before the verification read-back below,
    // which is not part of any scheme's traffic.
    let stats = cluster.stats()?;
    let client_bytes: u64 = stats.iter().map(|s| s.client_in + s.client_out).sum();
    let server_bytes: u64 = stats.iter().map(|s| s.server_out).sum();

    let (out_id, out_dist) = cluster.lookup(out_name)?;
    let output = cluster.read_file(out_id)?;
    let height = out_dist.file_len / (img_width * 4);
    let output_fingerprint = Raster::from_bytes(img_width, height, &output).fingerprint();
    let layout = cluster.distribution(file)?.policy;
    let degradations = cluster.take_events();

    Ok(NetRunReport {
        scheme,
        kernel: kernel_name.to_string(),
        offloaded,
        layout,
        output,
        output_fingerprint,
        client_bytes,
        server_bytes,
        redistribution_bytes,
        exec,
        degradations,
    })
}

/// One offload attempt on the file's *current* layout: resolve the
/// output file (idempotently — an earlier rung may already have
/// registered it) and execute on every server.
#[allow(clippy::type_complexity)]
fn offload_once(
    cluster: &mut DasCluster,
    file: u32,
    out_name: &str,
    kernel_name: &str,
    img_width: u64,
    successive: bool,
    force: bool,
) -> Result<Result<Vec<ExecSummary>, String>, NetError> {
    let dist = cluster.distribution(file)?;
    let out_file = cluster.ensure_out_file(out_name, &dist)?;
    cluster.execute(file, out_file, kernel_name, img_width, successive, force)
}

/// The TS path: gather the input, apply the kernel client-side,
/// register the output file, scatter it back.
fn run_normal_io(
    cluster: &mut DasCluster,
    file: u32,
    out_name: &str,
    kernel_name: &str,
    img_width: u64,
    dist: &DistributionInfo,
) -> Result<(), NetError> {
    let out_file = cluster.ensure_out_file(out_name, dist)?;
    run_ts_into(cluster, file, out_file, kernel_name, img_width)
}

fn run_ts_into(
    cluster: &mut DasCluster,
    file: u32,
    out_file: u32,
    kernel_name: &str,
    img_width: u64,
) -> Result<(), NetError> {
    let kernel = kernel_by_name(kernel_name)
        .ok_or_else(|| NetError::Protocol(format!("no kernel {kernel_name:?}")))?;
    let input = cluster.read_file(file)?;
    let height = input.len() as u64 / (img_width * 4);
    let raster = Raster::from_bytes(img_width, height, &input);
    let output = kernel.apply(&raster);
    cluster.put_file(out_file, &output.to_bytes())
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::JoinHandle;

    use super::*;
    use crate::codec::{read_message, write_message_opts};
    use crate::server::{spawn, DasdConfig};

    /// The one-strip file the stub holders serve: two servers, strip 0
    /// primaried on server 0 and replicated on server 1.
    const STRIP_LEN: usize = 64;
    const STUB_DIST: DistributionInfo = DistributionInfo {
        strip_size: STRIP_LEN,
        servers: 2,
        policy: LayoutPolicy::GroupedReplicated { group: 1 },
        file_len: STRIP_LEN as u64,
    };

    /// A stand-in for one holder of that file: greets, describes the
    /// file, and answers every `GetStrip` with `answer` once `hold`
    /// returns.
    struct StubHolder {
        addr: String,
        /// Connections accepted, `GetStrip`s read, `GetStrip`s answered.
        accepts: Arc<AtomicUsize>,
        gets: Arc<AtomicUsize>,
        answered: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        acceptor: JoinHandle<()>,
    }

    impl StubHolder {
        fn spawn(hold: impl Fn() + Send + Sync + 'static, answer: Message) -> StubHolder {
            let hold = Arc::new(hold);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking accept");
            let addr = listener.local_addr().expect("addr").to_string();
            let counters: [Arc<AtomicUsize>; 3] = Default::default();
            let [accepts, gets, answered] = counters.clone();
            let stop = Arc::new(AtomicBool::new(false));
            let stopped = Arc::clone(&stop);
            let acceptor = std::thread::spawn(move || {
                let mut serving = Vec::new();
                while !stopped.load(Ordering::SeqCst) {
                    let Ok((sock, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    accepts.fetch_add(1, Ordering::SeqCst);
                    let (hold, gets, answered) = (Arc::clone(&hold), Arc::clone(&gets), Arc::clone(&answered));
                    let answer = answer.clone();
                    serving.push(std::thread::spawn(move || serve(sock, &*hold, &answer, &gets, &answered)));
                }
                for conn in serving {
                    conn.join().expect("stub connection");
                }
            });
            let [accepts, gets, answered] = counters;
            StubHolder { addr, accepts, gets, answered, stop, acceptor }
        }

        /// Stop accepting and wait for every connection to be closed by
        /// its client — drop the cluster first.
        fn join(self) {
            self.stop.store(true, Ordering::SeqCst);
            self.acceptor.join().expect("stub acceptor");
        }
    }

    fn serve(mut sock: TcpStream, hold: &dyn Fn(), answer: &Message, gets: &AtomicUsize, answered: &AtomicUsize) {
        sock.set_nonblocking(false).expect("blocking connection");
        while let Ok(Some(request)) = read_message(&mut sock) {
            let is_get = matches!(request, Message::GetStrip { .. });
            let reply = match request {
                Message::Hello { .. } => Message::HelloOk { server_id: 0, caps: 0 },
                Message::GetDistribution { .. } => Message::DistributionResp { dist: STUB_DIST },
                Message::GetStrip { .. } => {
                    gets.fetch_add(1, Ordering::SeqCst);
                    hold();
                    answer.clone()
                }
                _ => Message::Pong,
            };
            if write_message_opts(&mut sock, &reply, None, None).is_err() {
                break;
            }
            if is_get {
                answered.fetch_add(1, Ordering::SeqCst);
            }
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
        let payload = cluster.fetch_strip(1, 0, STRIP_LEN, 0, &[0, 1]).expect("hedged fetch");
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

        match cluster.fetch_strip(1, 0, STRIP_LEN, 0, &[0, 1]) {
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

    /// The `LoadTracker` is the strip-read latency estimate: a
    /// fan-out — an `Execute` least of all — must leave every server's
    /// sample count and hedge delay exactly as the strip reads left
    /// them.
    #[test]
    fn an_execute_leaves_the_hedge_delay_unchanged() {
        let listeners: Vec<TcpListener> =
            (0..2).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        let addrs: Vec<String> =
            listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| spawn(DasdConfig::new(i as u32, addrs.clone()), l).expect("spawn dasd"))
            .collect();
        let mut cluster = DasCluster::connect(&addrs).expect("connect");

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

        cluster.shutdown_all().expect("shutdown");
        drop(cluster);
        for h in handles {
            h.join();
        }
    }
}
