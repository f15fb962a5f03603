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
//!    failed call, not the read.
//! 2. **Tolerant writes** — [`DasCluster::put_file`] succeeds if at
//!    least one holder of each strip stores it, noting the reduced
//!    redundancy.
//! 3. **Scheme degradation** — [`run_net_scheme`] descends the ladder
//!    DAS → NAS → normal I/O when offloading is impossible (e.g. a
//!    dead server cannot compute the strips only it holds), so a
//!    request is served in degraded form rather than failed, whenever
//!    the data is still reachable.

use std::sync::{mpsc, Arc};
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

impl ClientConn {
    /// Move this slot's live connection into an owned slot a hedge
    /// racer thread can drive, leaving a redialable placeholder behind.
    fn take(&mut self) -> ClientConn {
        ClientConn { addr: self.addr.clone(), live: self.live.take(), spans_ok: self.spans_ok }
    }
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
    /// Per-server latency EWMAs (shared with hedge racer threads):
    /// replica walks demote stragglers, and the hedge delay is derived
    /// from the chosen server's estimate.
    load: Arc<LoadTracker>,
    /// Every racer thread ever spawned reports here. The receiver is
    /// drained at request-path entry points so a *stale* racer (one
    /// that outlived its race) still gets its connection restored.
    racer_tx: mpsc::Sender<RacerDone>,
    racer_rx: mpsc::Receiver<RacerDone>,
    /// Id of the next hedge race, to tell current results from stale.
    next_race: u64,
}

/// What one hedge racer thread reports back: its (restorable)
/// connection and the outcome of the strip fetch it raced.
struct RacerDone {
    race: u64,
    server: usize,
    conn: ClientConn,
    result: Result<Message, NetError>,
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
/// none. Free function (not a method) so hedge racer threads can drive
/// an owned [`ClientConn`] without borrowing the whole cluster.
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

/// One attempt against one connection: dial if needed, write, read.
fn conn_call_once(
    conn: &mut ClientConn,
    policy: &RetryPolicy,
    msg: &Message,
    trace: Option<u64>,
) -> Result<Message, NetError> {
    conn_send(conn, policy, msg, trace)?;
    conn_recv(conn, policy, msg)
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
        let (racer_tx, racer_rx) = mpsc::channel();
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
            load: Arc::new(LoadTracker::new(addrs.len())),
            racer_tx,
            racer_rx,
            next_race: 0,
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
        self.drain_racers();
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
    /// reusing a socket in an unknown state. A successful attempt's
    /// wall time feeds the server's latency EWMA — the strip-read
    /// estimate behind hedge delays and holder ordering — unless the
    /// request is a long operation (down servers fail fast and are not
    /// scored either).
    fn call_once(&mut self, s: usize, msg: &Message) -> Result<Message, NetError> {
        if self.down[s] {
            return Err(Self::down_error(s));
        }
        let started = Instant::now();
        let result = conn_call_once(&mut self.conns[s], &self.policy, msg, self.trace);
        // Only successes feed the estimate — a refused connection
        // fails in microseconds and would make a dead server score as
        // the fastest holder in every walk.
        if result.is_ok() && !is_long_op(msg) {
            self.load.observe(s, started.elapsed());
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
        self.drain_racers();
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

    /// Resolve a name to `(file id, distribution)`. Falls over to the
    /// next reachable server if the asked one dies mid-call.
    pub fn lookup(&mut self, name: &str) -> Result<(u32, DistributionInfo), NetError> {
        loop {
            let s = self.any_up()?;
            match self.call(s, &Message::Lookup { name: name.to_string() }) {
                Ok(Message::LookupOk { file, dist }) => return Ok((file, dist)),
                Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                Err(e) if e.is_transport() => continue, // `s` was just marked down; ask the next
                Err(e) => return Err(e),
            }
        }
    }

    /// Query a file's distribution information.
    pub fn distribution(&mut self, file: u32) -> Result<DistributionInfo, NetError> {
        loop {
            let s = self.any_up()?;
            match self.call(s, &Message::GetDistribution { file }) {
                Ok(Message::DistributionResp { dist }) => return Ok(dist),
                Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                Err(e) if e.is_transport() => continue,
                Err(e) => return Err(e),
            }
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
            let mut stored = 0u32;
            let mut missed = 0u32;
            let mut last = None;
            for holder in layout.holders(sid) {
                match self.call(
                    holder.index(),
                    &Message::PutStrip { file, strip: s, payload: data[start..end].to_vec() },
                ) {
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
    /// no reply lands within the EWMA-derived delay, the same request
    /// races on the next-best holder and the first valid reply wins.
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

    /// Fetch one strip from the holders in `walk` order: hedged race
    /// between the two best holders when possible, otherwise (or when
    /// the race yields nothing usable) a sequential failover walk.
    fn fetch_strip(
        &mut self,
        file: u32,
        strip: u64,
        want: usize,
        primary: u32,
        walk: &[u32],
    ) -> Result<Vec<u8>, NetError> {
        self.drain_racers();
        if let [a, b, ..] = *walk {
            let (a, b) = (a as usize, b as usize);
            if !self.down[a] && !self.down[b] {
                // `hedge_delay` is None until the first choice has
                // enough samples — no estimate, no race.
                if let Some(delay) = self.load.hedge_delay(a) {
                    if let Some(payload) =
                        self.hedged_get_strip(file, strip, want, primary, a, b, delay)?
                    {
                        return Ok(payload);
                    }
                }
            }
        }
        let mut last = None;
        for (pos, &h) in walk.iter().enumerate() {
            match self.call(h as usize, &Message::GetStrip { file, strip }) {
                Ok(Message::StripData { payload }) => {
                    if payload.len() != want {
                        return Err(NetError::Protocol(format!(
                            "strip {strip}: wanted {want} bytes, got {}",
                            payload.len()
                        )));
                    }
                    // A replica serving because it was *ordered* first
                    // is load balancing, not degradation — only record
                    // a failover when an earlier attempt actually
                    // failed.
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
                Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            NetError::Protocol(format!("strip {strip}: no holders under the layout"))
        }))
    }

    /// Settle one racer report: put its connection back in the slot
    /// table (unless a fresh one was dialed there meanwhile). Racer
    /// connections are always frame-aligned — the racer either read a
    /// whole reply or evicted the stream on a transport error — so
    /// restoring one can never desynchronize the slot.
    fn settle_racer(&mut self, done: RacerDone) {
        if self.conns[done.server].live.is_none() {
            self.conns[done.server] = done.conn;
        }
    }

    /// Collect every racer report that has landed since the last
    /// drain, so stale racers' connections return to the pool.
    fn drain_racers(&mut self) {
        while let Ok(done) = self.racer_rx.try_recv() {
            self.settle_racer(done);
        }
    }

    /// Move server `server`'s connection out of the slot table and
    /// drive `msg` against it on a detached thread, reporting back on
    /// the cluster's racer channel. The thread owns the connection:
    /// the main thread never blocks on the slow racer, which is the
    /// entire point of hedging.
    ///
    /// A racer retries *remote* transient errors through the policy's
    /// budget (counting retries like [`DasCluster::call`] would, so
    /// fault accounting is identical either way), but gives up
    /// immediately on transport errors: a dead server should fail the
    /// race fast and deterministically fall through to the sequential
    /// walk, whose full retry-and-mark-down machinery owns that case.
    ///
    /// Each racer carries a **distinct hedge sub-trace id** derived
    /// from the run's trace id and the racer's lane (0 = first choice,
    /// 1 = hedge). Racing both lanes under the parent id would alias
    /// winner and loser in every server-side flight recorder — same
    /// trace, same stages, double-counted; with per-lane sub-ids a
    /// hedge loser's server-side spans stay attributable on their own.
    /// `das trace <parent>` does not auto-join the sub-ids; the
    /// rate-limited `hedge lane` event records the parent↔child link.
    fn spawn_racer(&mut self, race: u64, server: usize, lane: u32, msg: &Message) {
        let mut conn = self.conns[server].take();
        let policy = self.policy.clone();
        let load = Arc::clone(&self.load);
        let metrics = Arc::clone(&self.metrics);
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
        let msg = msg.clone();
        let tx = self.racer_tx.clone();
        std::thread::spawn(move || {
            let attempts = policy.max_attempts.max(1);
            let mut attempt = 0u32;
            let result = loop {
                attempt += 1;
                let started = Instant::now();
                let r = conn_call_once(&mut conn, &policy, &msg, trace);
                if r.is_ok() {
                    load.observe(server, started.elapsed());
                }
                match r {
                    Err(e)
                        if matches!(e, NetError::Remote { .. })
                            && e.is_transient()
                            && attempt < attempts =>
                    {
                        policy.sleep_before_retry(attempt)
                    }
                    other => break other,
                }
            };
            if attempt > 1 {
                metrics.counter("das_client_retries_total", &[]).add(u64::from(attempt - 1));
            }
            // A send failure means the cluster itself was dropped; the
            // connection just closes with it.
            let _ = tx.send(RacerDone { race, server, conn, result });
        });
    }

    /// Race a strip fetch: fire at `a`; if no reply lands within
    /// `delay`, fire the identical request at `b` and take the first
    /// length-valid [`Message::StripData`]. Returns `Ok(None)` when
    /// neither racer produced a usable payload, so the caller can fall
    /// back to the plain sequential walk.
    #[allow(clippy::too_many_arguments)]
    fn hedged_get_strip(
        &mut self,
        file: u32,
        strip: u64,
        want: usize,
        primary: u32,
        a: usize,
        b: usize,
        delay: Duration,
    ) -> Result<Option<Vec<u8>>, NetError> {
        let msg = Message::GetStrip { file, strip };
        let race = self.next_race;
        self.next_race += 1;
        self.spawn_racer(race, a, 0, &msg);
        let mut outstanding = 1u32;
        let mut hedged = false;
        // Once hedged, wait well past the per-frame read timeout: the
        // racers' retry loops need room to conclude before we give up
        // on the race entirely.
        let patience = self.policy.read_timeout.saturating_mul(12);
        while outstanding > 0 {
            let done = match self.racer_rx.recv_timeout(if hedged { patience } else { delay }) {
                Ok(done) => done,
                Err(_) => {
                    if hedged {
                        // Both racers stuck past the generous window:
                        // abandon the race (their slots redial later).
                        break;
                    }
                    self.metrics.counter("das_client_hedges_total", &[]).inc();
                    self.spawn_racer(race, b, 1, &msg);
                    outstanding += 1;
                    hedged = true;
                    continue;
                }
            };
            if done.race != race {
                // A straggler from an earlier race: restore its
                // connection, it does not decide this strip.
                self.settle_racer(done);
                continue;
            }
            outstanding -= 1;
            let RacerDone { server, conn, result, .. } = done;
            if self.conns[server].live.is_none() {
                self.conns[server] = conn;
            }
            match result {
                Ok(Message::StripData { payload }) => {
                    if payload.len() != want {
                        return Err(NetError::Protocol(format!(
                            "strip {strip}: wanted {want} bytes, got {}",
                            payload.len()
                        )));
                    }
                    if hedged && server == b {
                        self.metrics.counter("das_client_hedge_wins_total", &[]).inc();
                        das_obs::event_limited(
                            das_obs::Level::Debug,
                            "das.client",
                            "hedge win",
                            &[
                                ("strip", strip.to_string()),
                                ("winner", server.to_string()),
                                ("loser", a.to_string()),
                            ],
                        );
                        // The first choice did not answer inside its
                        // latency envelope and the hedge served the
                        // strip from a replica: that is a replica
                        // failover in the report's vocabulary, just a
                        // proactive one.
                        if server as u32 != primary {
                            self.record_event(DegradeEvent::ReplicaFailover {
                                file,
                                strip,
                                primary,
                                replica: server as u32,
                            });
                        }
                    }
                    return Ok(Some(payload));
                }
                Ok(other) => return Err(NetError::Unexpected { opcode: other.opcode() }),
                // This racer lost; the other may still deliver, and if
                // not the sequential walk below retries everything.
                Err(_) => {}
            }
        }
        Ok(None)
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

    /// Dump the spans server `s` retains for `trace` from its flight
    /// recorder (see [`Message::TraceDump`]). Fails with a typed
    /// [`ErrorCode::BadRequest`]-shaped error client-side when the
    /// server did not advertise [`CAP_SPANS`] — the opcode is never
    /// put on a legacy server's wire.
    pub fn trace_dump(&mut self, s: usize, trace: u64) -> Result<Vec<das_obs::SpanRecord>, NetError> {
        if !self.conns[s].spans_ok {
            return Err(NetError::Remote {
                code: ErrorCode::BadRequest,
                message: format!("server {s} did not negotiate CAP_SPANS"),
            });
        }
        match self.call(s, &Message::TraceDump { trace })? {
            Message::TraceDumpResp { spans } => das_obs::decode_spans(&spans)
                .ok_or_else(|| NetError::Protocol(format!("server {s}: malformed span blob"))),
            other => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// [`DasCluster::trace_dump`] from every reachable server that
    /// negotiated [`CAP_SPANS`], paired with its server id. Legacy
    /// servers are skipped, not errored: a mixed fleet still renders a
    /// (partial) waterfall.
    pub fn trace_dump_all(
        &mut self,
        trace: u64,
    ) -> Result<Vec<(u32, Vec<das_obs::SpanRecord>)>, NetError> {
        let capable: Vec<usize> =
            self.up_servers().into_iter().filter(|&s| self.conns[s].spans_ok).collect();
        capable
            .into_iter()
            .map(|s| self.trace_dump(s, trace).map(|spans| (s as u32, spans)))
            .collect()
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
        if !self.conns[s].spans_ok {
            return Err(NetError::Remote {
                code: ErrorCode::BadRequest,
                message: format!("server {s} did not negotiate CAP_SPANS"),
            });
        }
        match self.call(s, &Message::SlowLog { per_class })? {
            Message::SlowLogResp { spans } => das_obs::decode_spans(&spans)
                .ok_or_else(|| NetError::Protocol(format!("server {s}: malformed span blob"))),
            other => Err(NetError::Unexpected { opcode: other.opcode() }),
        }
    }

    /// [`DasCluster::slow_log`] from every reachable [`CAP_SPANS`]
    /// server, paired with its server id (legacy servers skipped).
    pub fn slow_log_all(
        &mut self,
        per_class: u32,
    ) -> Result<Vec<(u32, Vec<das_obs::SpanRecord>)>, NetError> {
        let capable: Vec<usize> =
            self.up_servers().into_iter().filter(|&s| self.conns[s].spans_ok).collect();
        capable
            .into_iter()
            .map(|s| self.slow_log(s, per_class).map(|spans| (s as u32, spans)))
            .collect()
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
    use std::net::TcpListener;

    use super::*;
    use crate::server::{spawn, DasdConfig};

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
