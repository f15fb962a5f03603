//! Server→server connections: lazy, persistent, one per peer — now
//! fault-tolerant.
//!
//! A `dasd` talks to its peers for three reasons, all mirroring the
//! in-process runtime's traffic classes: dependence fetches during an
//! offloaded execution (the NAS cost the predictor prices), pulls
//! during redistribution's prepare phase, and forwarding of output
//! replica strips. Each peer link is opened on first use, greets with
//! `Hello { role: Server }`, and stays up while it works; concurrent
//! workers serialize on the link's mutex, which mirrors the
//! synchronous per-strip RPCs the paper's model assumes. The one
//! exception is an Execute's replica-forward pass, which holds a link
//! for a whole wave of `PutStrip`s ([`PeerTable::put_strips`]).
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
//! a typed error instead of re-burning the whole retry budget. This
//! matters most for replica forwarding during an offloaded execute —
//! without it, one dead peer adds a full retry budget of latency to
//! *every* boundary strip, and a busy daemon can look dead to its
//! clients. After the cooldown the next call probes the peer again,
//! so a rebooted server rejoins naturally.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::codec::NetError;
use crate::conn::RpcConn;
use crate::engine::MAX_INFLIGHT;
use crate::hedge::LoadTracker;
use crate::proto::{ErrorCode, Message, Role};
use crate::retry::RetryPolicy;
use crate::server::{lock, ConnClass, StatsRegistry};

/// One live peer link; workers calling the same peer serialize on it.
type PeerConn = Arc<Mutex<RpcConn>>;

/// Addresses of every server in the cluster, indexed by server id,
/// plus the live outbound connections of one daemon.
pub struct PeerTable {
    self_id: u32,
    addrs: Vec<String>,
    conns: Mutex<HashMap<u32, PeerConn>>,
    /// Circuit breaker: peers that exhausted a retry budget, mapped
    /// to the instant their cooldown expires.
    downs: Mutex<HashMap<u32, Instant>>,
    stats: Arc<StatsRegistry>,
    policy: RetryPolicy,
    metrics: Arc<das_obs::Registry>,
    /// Per-peer latency EWMAs, fed by every call attempt; failover
    /// walks are reordered lightest-first so a straggling peer drifts
    /// to the back of every dependence fetch.
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
    /// the listen address of server `i`. Outbound traffic is counted
    /// into `stats` under the server↔server class; `metrics` receives
    /// the peer-side counters (retries, failovers, breaker trips).
    pub fn with_policy(
        self_id: u32,
        addrs: Vec<String>,
        stats: Arc<StatsRegistry>,
        policy: RetryPolicy,
        metrics: Arc<das_obs::Registry>,
    ) -> Self {
        let load = LoadTracker::new(addrs.len());
        PeerTable {
            self_id,
            addrs,
            conns: Mutex::new(HashMap::new()),
            downs: Mutex::new(HashMap::new()),
            stats,
            policy,
            metrics,
            load,
            spans: None,
        }
    }

    /// Attach the owning daemon's span store: dependence and
    /// redistribution fetches issued on behalf of traced requests
    /// then record `peer_fetch` child spans (see
    /// [`PeerTable::get_strip_failover`]).
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
        let conn = RpcConn::dial(&addr, &self.policy, Role::Server, self.self_id)?;
        let (bytes_in, bytes_out) = conn.counters();
        self.stats.register(ConnClass::Server, bytes_in, bytes_out);
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
            link.send(msg, trace, budget).and_then(|()| link.recv(msg, &self.policy));
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
    /// on the outgoing frame only over links whose peer advertised
    /// `CAP_TRACE` / `CAP_DEADLINE`, so legacy peers keep seeing
    /// legacy frames; a budget that is already spent fails locally with
    /// the typed [`ErrorCode::Overloaded`] instead of burning a peer
    /// round-trip.
    pub fn call(
        &self,
        target: u32,
        msg: &Message,
        trace: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<Message, NetError> {
        if self.is_down(target) {
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
            return self.call_once(target, msg, trace, deadline);
        }
        let mut attempts = 0u64;
        let result = self.policy.retry(|| {
            attempts += 1;
            self.call_once(target, msg, trace, deadline)
        });
        if attempts > 1 {
            self.metrics.counter("dasd_peer_retries_total", &[]).add(attempts - 1);
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

    /// Fetch one strip of `file` from any of `holders` — the
    /// replica-failover read behind dependence and redistribution
    /// fetches. Non-transient remote errors from a holder fail over to
    /// the next holder too (a server that lost the strip is as useless
    /// as a dead one); only running out of holders is fatal, and a read
    /// served by anything but the first holder tried bumps
    /// `dasd_peer_failovers_total`.
    ///
    /// The walk order is the caller's holder list **reordered by
    /// observed load**: each peer's latency EWMA scores it, lightest
    /// first, with unsampled peers keeping their caller-given
    /// (primary-first) positions — so a cold table walks primaries
    /// exactly as placed, and a warmed-up table routes fetches around a
    /// straggler instead of paying its tail on every strip.
    ///
    /// Every fetch is one `peer_fetch` observation (classed `op`)
    /// covering the whole walk, success or failure — a fetch that
    /// burned the retry budget across three dead holders is attributed
    /// at its true cost — and, for a traced request with a span store
    /// attached, one `peer_fetch` span under `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn get_strip_failover(
        &self,
        holders: &[u32],
        file: u32,
        strip: u64,
        trace: Option<u64>,
        deadline: Option<Instant>,
        parent: u32,
        op: das_obs::OpClass,
    ) -> Result<Vec<u8>, NetError> {
        let started = Instant::now();
        let mut walk: Vec<u32> =
            holders.iter().copied().filter(|&h| h != self.self_id).collect();
        self.load.order_by_load(&mut walk, |&h| h as usize);
        let mut result = Err(NetError::Protocol(format!("strip {strip}: no remote holder to fetch from")));
        for (pos, &holder) in walk.iter().enumerate() {
            result = match self.call(holder, &Message::GetStrip { file, strip }, trace, deadline) {
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
        let dur_us = started.elapsed().as_micros() as u64;
        self.metrics
            .histogram("dasd_stage_duration_us", &[("stage", "peer_fetch"), ("op", op.name())])
            .observe(dur_us);
        if let (Some(store), Some(t)) = (&self.spans, trace) {
            let start_us = store.now_us().saturating_sub(dur_us);
            store.record(
                t,
                parent,
                das_obs::Stage::PeerFetch,
                op,
                das_obs::NOTE_NONE,
                start_us,
                dur_us,
            );
        }
        result
    }

    /// Replica forwarding: send `target` a batch of `PutStrip`s, each
    /// with the checksum of its payload (a wave's frames are signed from
    /// it), and return how many were not acknowledged. A wave (at most
    /// what the peer holds in flight, so no socket buffer fills unread)
    /// is written back-to-back and its acks collected afterwards: one
    /// round trip, not one per strip. The daemon answers in completion
    /// order, but the acks are all alike and only their number matters.
    pub fn put_strips(&self, target: u32, puts: &[(Message, u32)], trace: Option<u64>) -> u64 {
        let mut unacknowledged = 0;
        for wave in puts.chunks(MAX_INFLIGHT) {
            if !self.is_down(target) && self.put_wave(target, wave, trace) {
                continue;
            }
            // The acks do not say which forward of the wave they miss.
            // `PutStrip` is idempotent: each goes again on its own,
            // retried and circuit-broken.
            for (put, _) in wave {
                let acked = matches!(self.call(target, put, trace, None), Ok(Message::PutStripOk));
                unacknowledged += u64::from(!acked);
            }
        }
        unacknowledged
    }

    /// One attempt at a wave; whether every forward was acknowledged. A
    /// typed refusal leaves the link in step (its reply was read), a
    /// transport error evicts it like any other.
    fn put_wave(&self, target: u32, wave: &[(Message, u32)], trace: Option<u64>) -> bool {
        let Ok(conn) = self.conn(target) else { return false };
        let mut link = lock(&conn);
        let sent = wave.iter().try_for_each(|(put, sum)| link.send_summed(put, Some(*sum), trace, None));
        let exchange = sent.and_then(|()| {
            wave.iter().try_fold(true, |acked, (put, _)| match link.recv(put, &self.policy) {
                Err(e) if e.is_transport() => Err(e),
                reply => Ok(acked & matches!(reply, Ok(Message::PutStripOk))),
            })
        });
        if exchange.is_err() {
            lock(&self.conns).remove(&target);
        }
        exchange.unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    use crate::codec::{read_frame_ex, write_message_opts};
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
            let (mut sock, _) = listener.accept().expect("accept");
            let hello = read_frame_ex(&mut sock).expect("read").expect("hello");
            assert!(matches!(hello.msg, Message::Hello { .. }), "{hello:?}");
            let hello_ok = Message::HelloOk { server_id: 1, caps: LOCAL_CAPS };
            write_message_opts(&mut sock, &hello_ok, None, None).expect("hello ok");
            let mut budgets = Vec::new();
            while let Some(frame) = read_frame_ex(&mut sock).expect("read") {
                assert_eq!(frame.msg, Message::Ping);
                budgets.push(frame.budget_ms.expect("a CAP_DEADLINE link stamps the budget"));
                write_message_opts(&mut sock, &Message::Pong, None, None).expect("pong");
            }
            budgets
        });
        let metrics = Arc::new(das_obs::Registry::new());
        let peers = PeerTable::with_policy(
            0,
            vec![String::new(), addr],
            Arc::new(StatsRegistry::default()),
            RetryPolicy::fast(),
            Arc::clone(&metrics),
        );
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
}
