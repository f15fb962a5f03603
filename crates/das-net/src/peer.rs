//! Server→server connections: lazy, persistent, one per peer, driven
//! in pipelined waves — and fault-tolerant.
//!
//! A `dasd` talks to its peers for three reasons, all mirroring the
//! in-process runtime's traffic classes: dependence fetches during an
//! offloaded execution (the NAS cost the predictor prices), pulls
//! during redistribution's prepare phase, and forwarding of output
//! replica strips. Each peer link is opened on first use, greets with
//! `Hello { role: Server }`, and stays up while it works.
//!
//! All three are **waves**: each strip goes to its first-choice holder,
//! and every link gets its share written before any reply is read. A
//! traced wave keeps up to `WAVE_DEPTH` requests in flight per link,
//! each under its own [`das_obs::sub_id`], and takes each reply for the
//! request whose id it echoes; an untraced one carries one request at a
//! time per link, in a single call's frames. A wave holds its links until it is done,
//! locked in ascending server id. What it answers for a strip is
//! attempt one of that strip's own call, which walks on alone wherever
//! that failed. **Bound:** `WAVE_DEPTH` is half the engine's
//! `MAX_INFLIGHT`, 64, so the three peers of a four-daemon fleet, all
//! aiming full waves at one daemon, queue at most 192 requests against
//! its `DEFAULT_MAX_BACKLOG` of 256: a healthy fleet never sheds its
//! own peer traffic.
//!
//! Failure handling: every dial and I/O carries the table's
//! [`RetryPolicy`] timeouts, a transport error **evicts** the cached
//! connection (so the next attempt redials instead of reusing a dead
//! socket), and transient failures — broken links, timeouts, a peer's
//! typed `Retryable` — are retried with bounded deterministic
//! backoff. Exhausting the budget returns the last typed error; a
//! peer call can be slow, but it can neither hang nor wedge the link
//! forever.
//!
//! A peer that exhausts the budget additionally trips a **circuit
//! breaker**: for a cooldown window every call to it fails fast with
//! a typed error instead of re-burning the whole retry budget, and no
//! wave writes to it. This matters most for replica forwarding during
//! an offloaded execute — without it, one dead peer adds a full retry
//! budget of latency to *every* boundary strip, and a busy daemon can
//! look dead to its clients. After the cooldown the next call probes
//! the peer again, so a rebooted server rejoins naturally.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::codec::NetError;
use crate::conn::{Link, RpcConn};
use crate::engine::MAX_INFLIGHT;
use crate::hedge::LoadTracker;
use crate::proto::{ErrorCode, Message, Role};
use crate::retry::RetryPolicy;
use crate::server::{lock, wire_gauges, ConnClass};

/// One live peer link, held by a call or a wave while its requests are in flight.
type PeerConn = Arc<Mutex<RpcConn>>;

/// Requests a wave keeps in flight on one link (see the module doc).
const WAVE_DEPTH: usize = MAX_INFLIGHT / 2;

/// A peer's reply; a typed refusal is its `Err`.
type Reply = Result<Message, NetError>;

/// Where a wave hands each reply, with its ask and when that was written.
trait Landed: FnMut(usize, Instant, Reply) {}
impl<F: FnMut(usize, Instant, Reply)> Landed for F {}

/// One request of a wave: the peer, the message, and the checksum of
/// its blob when the caller holds one — the frame is signed from it.
pub(crate) type Ask = (u32, Message, Option<u32>);

/// One strip a fetch wave asks for, and its holders, primary first.
pub(crate) struct StripAsk {
    pub(crate) strip: u64,
    pub(crate) holders: Vec<u32>,
}

/// What a fetch's requests carry, and where its `peer_fetch` spans and
/// observations go.
#[derive(Clone, Copy)]
pub(crate) struct FetchFor {
    pub(crate) trace: Option<u64>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) parent: u32,
    pub(crate) op: das_obs::OpClass,
}

/// One held link of a wave in progress, and its asks.
struct Lane<'g> {
    target: u32,
    conn: MutexGuard<'g, RpcConn>,
    link: Link<usize>,
    /// Where the link's first reply of the wave is a latency sample,
    /// until it is read: one sample per link per wave.
    sample: Option<(&'g LoadTracker, usize)>,
}

/// Addresses of every server in the cluster, indexed by server id,
/// plus the live outbound connections of one daemon.
pub struct PeerTable {
    self_id: u32,
    addrs: Vec<String>,
    conns: Mutex<HashMap<u32, PeerConn>>,
    /// Circuit breaker: peers that exhausted a retry budget, mapped
    /// to the instant their cooldown expires.
    downs: Mutex<HashMap<u32, Instant>>,
    policy: RetryPolicy,
    metrics: Arc<das_obs::Registry>,
    /// Per-peer latency EWMAs, fed by calls and waves; fetches ask
    /// holders lightest-first, so a straggling peer drifts to the back
    /// of every dependence fetch.
    load: LoadTracker,
    /// The owning daemon's flight recorder, when attached: outbound
    /// fetches on behalf of traced requests record caller-side
    /// `peer_fetch` child spans into it.
    spans: Option<Arc<das_obs::SpanStore>>,
}

/// Time left until `deadline`: `None` means no budget at all,
/// `Some(ZERO)` means the budget is spent.
fn remaining_budget(deadline: Option<Instant>) -> Option<Duration> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()))
}

impl PeerTable {
    /// A table for server `self_id` in a cluster whose `addrs[i]` is
    /// the listen address of server `i`, calling its peers under
    /// `policy`. `metrics` receives the peer-side counters (retries,
    /// failovers, breaker trips), and every byte of an outbound link
    /// goes into its server↔server `dasd_wire_bytes` gauges.
    pub fn with_policy(self_id: u32, addrs: Vec<String>, policy: RetryPolicy, metrics: Arc<das_obs::Registry>) -> Self {
        let load = LoadTracker::new(addrs.len());
        PeerTable {
            self_id,
            addrs,
            conns: Mutex::new(HashMap::new()),
            downs: Mutex::new(HashMap::new()),
            policy,
            metrics,
            load,
            spans: None,
        }
    }

    /// Attach the owning daemon's span store: dependence and
    /// redistribution fetches issued on behalf of traced requests
    /// then record `peer_fetch` child spans.
    pub fn with_span_store(mut self, spans: Arc<das_obs::SpanStore>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Number of servers in the cluster.
    pub fn cluster_size(&self) -> u32 {
        self.addrs.len() as u32
    }

    fn conn(&self, target: u32) -> Result<PeerConn, NetError> {
        if target == self.self_id {
            return Err(NetError::Protocol("refusing peer connection to self".into()));
        }
        let addr = self
            .addrs
            .get(target as usize)
            .ok_or(NetError::Remote {
                code: ErrorCode::NoSuchServer,
                message: format!("no server {target} in a {}-server cluster", self.addrs.len()),
            })?
            .clone();
        if let Some(c) = lock(&self.conns).get(&target) {
            return Ok(Arc::clone(c));
        }
        // Connect outside the map lock; a racing worker may connect
        // twice, in which case the loser's link is dropped unused.
        let mut conn = RpcConn::dial(&addr, &self.policy, Role::Server, self.self_id)?;
        let (bytes_in, bytes_out) = wire_gauges(&self.metrics, ConnClass::Server);
        conn.count_into(bytes_in, bytes_out);
        Ok(Arc::clone(lock(&self.conns).entry(target).or_insert(Arc::new(Mutex::new(conn)))))
    }

    /// One request/response attempt over the cached (or fresh) link.
    /// Any transport error evicts the connection so the next attempt
    /// redials instead of reusing a socket in an unknown state. The
    /// attempt's wall time — success or failure — feeds the peer's
    /// latency EWMA, so a peer that keeps timing out scores as slow,
    /// not as unknown.
    fn call_once(
        &self,
        target: u32,
        msg: &Message,
        trace: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<Message, NetError> {
        // An exhausted budget fails locally before touching the wire:
        // the caller's client has already given up on this request.
        // This is the one `Overloaded` a daemon mints on behalf of a
        // *peer* call, and it counts as a deadline shed so the fleet's
        // `dasd_requests_shed_total` accounts for every server-minted
        // `Overloaded` a client can observe.
        let budget = match remaining_budget(deadline) {
            Some(Duration::ZERO) => {
                self.metrics
                    .counter("dasd_requests_shed_total", &[("reason", "deadline")])
                    .inc();
                return Err(NetError::Remote {
                    code: ErrorCode::Overloaded,
                    message: format!("deadline budget exhausted before calling peer {target}"),
                });
            }
            b => b,
        };
        let conn = self.conn(target)?;
        let mut link = lock(&conn);
        let started = Instant::now();
        let result =
            link.send(msg, None, trace, budget).and_then(|()| link.recv(msg, &self.policy));
        // Only successful calls feed the latency estimate: a refused
        // connection fails in microseconds, and scoring that would
        // make a *dead* peer look like the fastest one in the walk.
        if result.is_ok() {
            self.load.observe(target as usize, started.elapsed());
        }
        if result.as_ref().is_err_and(NetError::is_transport) {
            lock(&self.conns).remove(&target);
        }
        result
    }

    /// Whether `target`'s circuit breaker is open.
    fn is_down(&self, target: u32) -> bool {
        lock(&self.downs).get(&target).is_some_and(|&until| Instant::now() < until)
    }

    /// How long a tripped breaker stays open before the next call
    /// probes the peer again.
    fn cooldown(&self) -> Duration {
        self.policy.backoff_max.max(Duration::from_millis(100))
    }

    /// One synchronous request/response exchange with server `target`,
    /// with transparent reconnect-and-retry for transient failures. A
    /// typed remote error becomes [`NetError::Remote`].
    ///
    /// A peer whose breaker is open fails fast with a typed
    /// `NoSuchServer` error; exhausting the retry budget on transport
    /// errors trips the breaker, and any success closes it.
    ///
    /// `trace` and the *remaining* budget before `deadline` are stamped
    /// on the outgoing frame; a budget that is already spent fails
    /// locally with the typed [`ErrorCode::Overloaded`] instead of
    /// burning a peer round-trip.
    pub fn call(
        &self,
        target: u32,
        msg: &Message,
        trace: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<Message, NetError> {
        self.call_resuming(target, msg, trace, deadline, None)
    }

    /// [`PeerTable::call`] whose first attempt a wave may already have
    /// made: `first` is attempt one of the same retry budget, retry
    /// accounting and breaker verdict.
    fn call_resuming(
        &self,
        target: u32,
        msg: &Message,
        trace: Option<u64>,
        deadline: Option<Instant>,
        first: Option<Reply>,
    ) -> Reply {
        if !matches!(first, Some(Ok(_))) && self.is_down(target) {
            return Err(NetError::Remote {
                code: ErrorCode::NoSuchServer,
                message: format!("peer {target} unreachable (circuit open)"),
            });
        }
        // A budget that is already spent skips the retry loop: the
        // typed `Overloaded` it mints is transient *to the client*
        // (which may retry with a fresh deadline), but retrying here
        // would only burn backoff on a request the caller abandoned.
        if remaining_budget(deadline) == Some(Duration::ZERO) {
            return first.unwrap_or_else(|| self.call_once(target, msg, trace, deadline));
        }
        let (result, retries) = self.policy.resume(first, || self.call_once(target, msg, trace, deadline));
        if retries > 0 {
            self.metrics.counter("dasd_peer_retries_total", &[]).add(retries);
        }
        match &result {
            Err(e) if e.is_transport() => {
                lock(&self.downs).insert(target, Instant::now() + self.cooldown());
                self.metrics.counter("dasd_peer_breaker_trips_total", &[]).inc();
            }
            _ => {
                lock(&self.downs).remove(&target);
            }
        }
        result
    }

    /// Whether each peer's circuit breaker is currently open, for
    /// live introspection. The self entry is always closed.
    pub fn breaker_states(&self) -> Vec<(u32, bool)> {
        (0..self.addrs.len() as u32).map(|id| (id, self.is_down(id))).collect()
    }

    /// The wave: write every ask to its peer, each carrying what is
    /// left of `deadline`, and hand every reply to `landed`, reading
    /// from the link that holds the earliest ask in flight. A link's
    /// first reply of the wave, if good, feeds its peer's latency
    /// estimate with its wait from the link's first write; later ones
    /// do not. Asks for this server or a peer whose breaker is open are
    /// not written, nor is any once `deadline` is spent. A failed dial,
    /// write or read is the answer of the ask it hit and evicts the
    /// link, leaving the other asks on it unanswered: their calls make
    /// their own attempt one.
    fn wave(&self, asks: &[Ask], trace: Option<u64>, deadline: Option<Instant>, mut landed: impl Landed) {
        let mut by_target: BTreeMap<u32, VecDeque<usize>> = BTreeMap::new();
        let asked = asks.iter().enumerate().filter(|(_, &(to, ..))| to != self.self_id && !self.is_down(to));
        for (i, &(to, ..)) in asked {
            by_target.entry(to).or_default().push_back(i);
        }
        // Dial before any link is held.
        let mut dialled = Vec::with_capacity(by_target.len());
        for (target, mut queued) in by_target {
            match self.conn(target) {
                Ok(conn) => dialled.push((target, conn, queued)),
                Err(e) => if let Some(i) = queued.pop_front() { landed(i, Instant::now(), Err(e)) },
            }
        }
        // Ascending by server id: the lock order every wave shares.
        let mut lanes: Vec<Lane<'_>> = dialled
            .iter_mut()
            .map(|(target, conn, queued)| {
                let link = Link::new(trace, WAVE_DEPTH, std::mem::take(queued));
                Lane { target: *target, conn: lock(conn), link, sample: Some((&self.load, *target as usize)) }
            })
            .collect();
        loop {
            for Lane { target, conn, link, .. } in &mut lanes {
                while link.has_room() {
                    let budget = remaining_budget(deadline);
                    if budget == Some(Duration::ZERO) {
                        link.queued.clear();
                    }
                    let Some(i) = link.queued.pop_front() else { break };
                    let (_, msg, sum) = &asks[i];
                    if let Err(e) = link.send(conn, i, msg, *sum, budget) {
                        lock(&self.conns).remove(target);
                        landed(i, Instant::now(), Err(e));
                    }
                }
            }
            let Some(Lane { target, conn, link, sample }) =
                lanes.iter_mut().filter(|l| !l.link.flight.is_empty()).min_by_key(|l| l.link.flight[0].job)
            else {
                break;
            };
            let (oldest, at) = (link.flight[0].job, link.flight[0].at);
            match link.recv(conn, &asks[oldest].1, &self.policy, sample.take()) {
                Ok((sent, reply)) => landed(sent.job, sent.at, reply),
                Err(e) => {
                    lock(&self.conns).remove(target);
                    landed(oldest, at, Err(e));
                }
            }
        }
    }

    /// Fetch `strips` of `file` in one wave, handing each to `deliver`
    /// in ask order as soon as it and every strip before it have landed,
    /// until `deliver` fails. Holders are walked lightest first by
    /// latency EWMA (unsampled ones keep their primary-first places);
    /// the wave asks the first, and a strip it answered with anything
    /// but bytes walks on alone after the wave. Its length is the
    /// caller's to check. Every fetch is one `peer_fetch` observation
    /// and, traced, one span, from its write to its bytes or walk's end:
    /// a reply read after `deliver` has worked covers that work too.
    pub(crate) fn get_strips<E>(
        &self,
        file: u32,
        strips: &[StripAsk],
        by: FetchFor,
        mut deliver: impl FnMut(usize, Result<Vec<u8>, NetError>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (walks, asks): (Vec<Vec<u32>>, Vec<Ask>) = strips
            .iter()
            .map(|s| {
                let mut walk: Vec<u32> = s.holders.iter().copied().filter(|&h| h != self.self_id).collect();
                self.load.order_by_load(&mut walk, |&h| h as usize);
                // A strip with no remote holder is asked nowhere: its
                // walk reports it.
                let to = walk.first().copied().unwrap_or(self.self_id);
                (walk, (to, Message::GetStrip { file, strip: s.strip }, None))
            })
            .unzip();
        // What the wave answered for each strip: its bytes, or else when
        // it was written and what came back.
        let mut bytes: Vec<Option<Vec<u8>>> = strips.iter().map(|_| None).collect();
        let mut firsts: Vec<Option<(Instant, Reply)>> = strips.iter().map(|_| None).collect();
        let (mut next, mut delivered) = (0, Ok(()));
        self.wave(&asks, by.trace, by.deadline, |i, at, reply| {
            match reply {
                Ok(Message::StripData { payload }) => {
                    self.record_fetch(at, by);
                    bytes[i] = Some(payload);
                }
                reply => firsts[i] = Some((at, reply)),
            }
            while delivered.is_ok() {
                let Some(payload) = bytes.get_mut(next).and_then(Option::take) else { break };
                delivered = deliver(next, Ok(payload));
                next += 1;
            }
        });
        delivered?;
        for i in next..strips.len() {
            let got = match bytes[i].take() {
                Some(payload) => Ok(payload),
                None => self.get_strip_failover(&walks[i], &asks[i].1, firsts[i].take(), by),
            };
            deliver(i, got)?;
        }
        Ok(())
    }

    /// The replica-failover walk a fetch wave falls back to: `get` from
    /// the holders in `walk`, in order, where `first` — when the wave
    /// wrote it and what came back — is attempt one of the first
    /// holder's call. Non-transient remote errors fail over too (a
    /// server that lost the strip is as useless as a dead one); a read
    /// served past the first holder bumps `dasd_peer_failovers_total`.
    /// The fetch's observation and span cover the whole walk, so one
    /// that burned the retry budget is attributed at its true cost.
    fn get_strip_failover(
        &self,
        walk: &[u32],
        get: &Message,
        first: Option<(Instant, Reply)>,
        by: FetchFor,
    ) -> Result<Vec<u8>, NetError> {
        let started = first.as_ref().map_or_else(Instant::now, |(at, _)| *at);
        let mut first = first.map(|(_, reply)| reply);
        let mut result = Err(NetError::Protocol("no remote holder to fetch from".into()));
        for (pos, &holder) in walk.iter().enumerate() {
            result = match self.call_resuming(holder, get, by.trace, by.deadline, first.take()) {
                Ok(Message::StripData { payload }) => Ok(payload),
                Ok(other) => Err(NetError::Unexpected { opcode: other.opcode() }),
                Err(e) => Err(e),
            };
            if result.is_ok() {
                if pos > 0 {
                    self.metrics.counter("dasd_peer_failovers_total", &[]).inc();
                }
                break;
            }
        }
        self.record_fetch(started, by);
        result
    }

    /// Close one fetch begun at `started`: its `peer_fetch`
    /// observation, and its span when traced.
    fn record_fetch(&self, started: Instant, by: FetchFor) {
        let dur_us = started.elapsed().as_micros() as u64;
        self.metrics
            .histogram("dasd_stage_duration_us", &[("stage", "peer_fetch"), ("op", by.op.name())])
            .observe(dur_us);
        if let (Some(store), Some(t)) = (&self.spans, by.trace) {
            let start_us = store.now_us().saturating_sub(dur_us);
            store.record(t, by.parent, das_obs::Stage::PeerFetch, by.op, das_obs::NOTE_NONE, start_us, dur_us);
        }
    }

    /// Replica forwarding: send every `PutStrip` of `puts` to its
    /// holder in one wave and return the indices of those that were not
    /// acknowledged. Each ack is matched to its forward like any wave
    /// reply, so a forward the wave did not see acknowledged goes again
    /// on its own (`PutStrip` is idempotent), retried and
    /// circuit-broken.
    pub(crate) fn put_strips(&self, puts: &[Ask], trace: Option<u64>) -> Vec<usize> {
        let mut acked = vec![false; puts.len()];
        self.wave(puts, trace, None, |i, _, reply| acked[i] = matches!(reply, Ok(Message::PutStripOk)));
        let resent = |(to, put, _): &Ask| matches!(self.call(*to, put, trace, None), Ok(Message::PutStripOk));
        (0..puts.len()).filter(|&i| !acked[i] && !resent(&puts[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    use crate::codec::{encode_frame_opts, read_frame_ex, write_message_opts};
    use crate::proto::LOCAL_CAPS;

    /// Deadline monotonicity across a peer hop: each call stamps what is
    /// *left* of the request's deadline, so a later hop carries less,
    /// and a spent deadline is shed locally without touching the wire.
    #[test]
    fn peer_calls_under_one_deadline_carry_the_remaining_budget() {
        const TOTAL: Duration = Duration::from_secs(5);
        const NAP: Duration = Duration::from_millis(40);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // A full-caps peer that answers every Ping and records the
        // budget field of each request frame until the link closes.
        let stub = std::thread::spawn(move || {
            let mut sock = greet(&listener);
            let mut budgets = Vec::new();
            while let Some(frame) = read_frame_ex(&mut sock).expect("read") {
                assert_eq!(frame.msg, Message::Ping);
                budgets.push(frame.budget_ms.expect("a call under a deadline stamps the budget"));
                write_message_opts(&mut sock, &Message::Pong, None, None).expect("pong");
            }
            budgets
        });
        let (peers, metrics) = table(vec![String::new(), addr]);
        let deadline = Instant::now() + TOTAL;
        assert_eq!(peers.call(1, &Message::Ping, None, Some(deadline)).expect("first hop"), Message::Pong);
        std::thread::sleep(NAP);
        assert_eq!(peers.call(1, &Message::Ping, None, Some(deadline)).expect("second hop"), Message::Pong);

        let shed = metrics.counter("dasd_requests_shed_total", &[("reason", "deadline")]);
        assert_eq!(shed.get(), 0);
        match peers.call(1, &Message::Ping, None, Some(Instant::now())) {
            Err(NetError::Remote { code: ErrorCode::Overloaded, message }) => {
                assert!(message.contains("deadline budget exhausted"), "{message}")
            }
            other => panic!("expected the local typed shed, got {other:?}"),
        }
        assert_eq!(shed.get(), 1);

        // Closing the link ends the stub's loop: it saw the two live
        // calls and not one byte of the spent one.
        drop(peers);
        let budgets = stub.join().expect("stub peer");
        let [b1, b2] = budgets[..] else { panic!("expected two request frames, got {budgets:?}") };
        let (total, nap) = (TOTAL.as_millis() as u32, NAP.as_millis() as u32);
        assert!(b1 <= total && b2 <= b1, "budget grew: {b1} then {b2} of {total}");
        assert!(b1 - b2 >= nap - 1, "a {nap} ms nap took only {} ms off the budget", b1 - b2);
    }

    /// Breaker recovery: a refused peer trips the breaker; inside the
    /// cooldown the next call fails fast, typed, without dialling;
    /// once the cooldown has passed the live peer is called again and
    /// the breaker closes.
    #[test]
    fn a_tripped_breaker_fails_fast_then_closes_after_its_cooldown() {
        let addr = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
        // The listener is gone: every dial to `addr` is refused. The
        // cooldown is long enough that no scheduling hiccup between the
        // trip and the next call outlasts it.
        let metrics = Arc::new(das_obs::Registry::new());
        let policy = RetryPolicy { backoff_max: Duration::from_millis(400), ..RetryPolicy::fast() };
        let peers = PeerTable::with_policy(0, vec![String::new(), addr.to_string()], policy, Arc::clone(&metrics));
        assert!(peers.call(1, &Message::Ping, None, None).is_err_and(|e| e.is_transport()));
        assert_eq!(peers.breaker_states(), vec![(0, false), (1, true)]);
        assert_eq!(metrics.counter("dasd_peer_breaker_trips_total", &[]).get(), 1);

        let listener = TcpListener::bind(addr).expect("rebind the peer's address");
        listener.set_nonblocking(true).expect("nonblocking");
        match peers.call(1, &Message::Ping, None, None) {
            Err(NetError::Remote { code: ErrorCode::NoSuchServer, message }) => {
                assert!(message.contains("circuit open"), "{message}")
            }
            other => panic!("expected a fast typed refusal, got {other:?}"),
        }
        let dial = listener.accept().map(|_| ()).map_err(|e| e.kind());
        assert_eq!(dial, Err(std::io::ErrorKind::WouldBlock), "an open breaker dialled its peer");

        listener.set_nonblocking(false).expect("blocking");
        let stub = std::thread::spawn(move || {
            let mut sock = greet(&listener);
            while let Some(frame) = read_frame_ex(&mut sock).expect("read") {
                write_message_opts(&mut sock, &Message::Pong, frame.trace, None).expect("pong");
            }
        });
        std::thread::sleep(peers.cooldown());
        assert_eq!(peers.call(1, &Message::Ping, None, None).expect("the peer is back"), Message::Pong);
        assert_eq!(peers.breaker_states(), vec![(0, false), (1, false)]);
        drop(peers);
        stub.join().expect("stub peer");
    }

    /// A table for server 0 of a cluster at `addrs`, with its metrics.
    fn table(addrs: Vec<String>) -> (PeerTable, Arc<das_obs::Registry>) {
        let metrics = Arc::new(das_obs::Registry::new());
        (PeerTable::with_policy(0, addrs, RetryPolicy::fast(), Arc::clone(&metrics)), metrics)
    }

    /// Accept one peer link and answer its `Hello`.
    fn greet(listener: &TcpListener) -> TcpStream {
        let (mut sock, _) = listener.accept().expect("accept");
        let hello = read_frame_ex(&mut sock).expect("read").expect("hello");
        assert!(matches!(hello.msg, Message::Hello { .. }), "{hello:?}");
        write_message_opts(&mut sock, &Message::HelloOk { server_id: 1, caps: LOCAL_CAPS }, None, None).expect("hello ok");
        sock
    }

    /// The bytes of strip `s` as the stubs serve it.
    fn strip_bytes(s: u64) -> Vec<u8> {
        vec![s as u8; 16]
    }

    /// One listener per stub peer, and the cluster's addresses with
    /// server 0 (the table's own) first.
    fn stub_addrs(n: usize) -> (Vec<TcpListener>, Vec<String>) {
        let listeners: Vec<TcpListener> = (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        let addrs = std::iter::once(String::new())
            .chain(listeners.iter().map(|l| l.local_addr().expect("addr").to_string()))
            .collect();
        (listeners, addrs)
    }

    fn fetch_for(trace: Option<u64>) -> FetchFor {
        FetchFor { trace, deadline: None, parent: 0, op: das_obs::OpClass::Exec }
    }

    /// A traced fetch wave: all five asks are
    /// on the wire before any reply, each under its own sub-id; the peer
    /// answers newest first and refuses strip 12 with a typed
    /// `StripNotLocal`. The strips still come back in ask order, and
    /// only strip 12 walks on — to its second holder, as one failover.
    #[test]
    fn a_fetch_wave_answered_newest_first_delivers_in_ask_order_and_walks_one_refusal_alone() {
        const STRIPS: [u64; 5] = [10, 11, 12, 13, 14];
        let (listeners, addrs) = stub_addrs(2);
        let mut listeners = listeners.into_iter();
        let (first, second) = (listeners.next().expect("stub 1"), listeners.next().expect("stub 2"));
        let primary = std::thread::spawn(move || {
            let mut sock = greet(&first);
            let wave: Vec<_> =
                (0..STRIPS.len()).map(|_| read_frame_ex(&mut sock).expect("read").expect("ask")).collect();
            for frame in wave.iter().rev() {
                let Message::GetStrip { strip, .. } = frame.msg else { panic!("{frame:?}") };
                let reply = if strip == 12 {
                    Message::Error { code: ErrorCode::StripNotLocal, message: "lost it".into() }
                } else {
                    Message::StripData { payload: strip_bytes(strip) }
                };
                write_message_opts(&mut sock, &reply, frame.trace, None).expect("reply");
            }
            // The refused strip is not asked here again.
            assert!(read_frame_ex(&mut sock).expect("read").is_none(), "a second ask reached the primary");
            wave.into_iter().map(|frame| frame.trace).collect::<Vec<_>>()
        });
        let replica = std::thread::spawn(move || {
            let mut sock = greet(&second);
            let mut asked = Vec::new();
            while let Some(frame) = read_frame_ex(&mut sock).expect("read") {
                let Message::GetStrip { strip, .. } = frame.msg else { panic!("{frame:?}") };
                asked.push(strip);
                let reply = Message::StripData { payload: strip_bytes(strip) };
                write_message_opts(&mut sock, &reply, frame.trace, None).expect("reply");
            }
            asked
        });
        let (peers, metrics) = table(addrs);
        let parent = das_obs::next_trace_id();
        let asks: Vec<StripAsk> = STRIPS.iter().map(|&strip| StripAsk { strip, holders: vec![1, 2] }).collect();
        let mut got = Vec::new();
        let fetched = peers.get_strips(3, &asks, fetch_for(Some(parent)), |i, bytes| {
            got.push((i, bytes.expect("every strip arrives")));
            Ok::<(), ()>(())
        });
        assert_eq!(fetched, Ok(()));
        let want: Vec<(usize, Vec<u8>)> = STRIPS.iter().enumerate().map(|(i, &s)| (i, strip_bytes(s))).collect();
        assert_eq!(got, want, "strips out of ask order");
        assert_eq!(metrics.counter("dasd_peer_failovers_total", &[]).get(), 1);
        drop(peers);
        let ids = primary.join().expect("primary stub");
        assert_eq!(replica.join().expect("replica stub"), vec![12], "only the refused strip walks on");
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), STRIPS.len(), "ids in one wave must differ: {ids:?}");
        assert!(ids.iter().all(|id| id.is_some_and(|id| id != parent && das_obs::trace_root(id) == parent)));
    }

    /// An untraced wave goes one request at a time per link, each frame
    /// exactly a single call's: no trace id, no budget, nothing more
    /// written before its reply.
    #[test]
    fn an_untraced_wave_sees_depth_one_and_single_call_frames() {
        const STRIPS: [u64; 3] = [4, 5, 6];
        let (listeners, addrs) = stub_addrs(1);
        let listener = listeners.into_iter().next().expect("stub");
        let stub = std::thread::spawn(move || {
            let mut sock = greet(&listener);
            for strip in STRIPS {
                let want = encode_frame_opts(&Message::GetStrip { file: 3, strip }, None, None);
                let mut frame = vec![0u8; want.len()];
                sock.read_exact(&mut frame).expect("ask");
                assert_eq!(frame, want, "strip {strip}: the frame is not a single call's");
                sock.set_read_timeout(Some(Duration::from_millis(30))).expect("timeout");
                let early = sock.peek(&mut [0]);
                assert!(early.is_err(), "strip {strip}: a second request was written before this one's reply");
                sock.set_read_timeout(None).expect("timeout");
                write_message_opts(&mut sock, &Message::StripData { payload: strip_bytes(strip) }, None, None)
                    .expect("reply");
            }
        });
        let (peers, _) = table(addrs);
        let asks: Vec<StripAsk> = STRIPS.iter().map(|&strip| StripAsk { strip, holders: vec![1] }).collect();
        let mut got = Vec::new();
        let fetched = peers.get_strips(3, &asks, fetch_for(None), |_, bytes| {
            got.push(bytes.expect("strip"));
            Ok::<(), ()>(())
        });
        assert_eq!(fetched, Ok(()));
        assert_eq!(got, STRIPS.map(strip_bytes));
        stub.join().expect("stub peer");
    }

    /// A forward wave whose peer refuses one `PutStrip`: that forward,
    /// and only it, is sent again, and once it is acknowledged nothing
    /// is left unacknowledged.
    #[test]
    fn a_put_wave_resends_only_the_refused_forward() {
        let (listeners, addrs) = stub_addrs(1);
        let listener = listeners.into_iter().next().expect("stub");
        let stub = std::thread::spawn(move || {
            let mut sock = greet(&listener);
            let mut seen = Vec::new();
            while let Some(frame) = read_frame_ex(&mut sock).expect("read") {
                let Message::PutStrip { strip, .. } = frame.msg else { panic!("{frame:?}") };
                let reply = if strip == 2 && !seen.contains(&2) {
                    Message::Error { code: ErrorCode::StripNotLocal, message: "not yet".into() }
                } else {
                    Message::PutStripOk
                };
                seen.push(strip);
                write_message_opts(&mut sock, &reply, frame.trace, None).expect("ack");
            }
            seen
        });
        let (peers, _) = table(addrs);
        let puts: Vec<Ask> = (0..4u64)
            .map(|strip| {
                let payload = strip_bytes(strip);
                let sum = crate::codec::crc32(&[&payload]);
                (1, Message::PutStrip { file: 3, strip, payload }, Some(sum))
            })
            .collect();
        assert_eq!(peers.put_strips(&puts, Some(das_obs::next_trace_id())), Vec::<usize>::new());
        drop(peers);
        let mut seen = stub.join().expect("stub peer");
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 2, 3], "exactly one resend, of the refused forward");
    }
}
