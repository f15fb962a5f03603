//! The client-side connection core: one live, greeted connection to a
//! `dasd`, as each RPC user holds it — [`crate::client::DasCluster`]'s
//! slots and a daemon's [`crate::peer::PeerTable`] links — and the
//! [`Link`] both drive pipelined waves of requests over.
//!
//! [`RpcConn`] owns what both must decide identically: the
//! `Hello`/`HelloOk` handshake, how long a reply may take, and what a
//! reply frame means to the caller. [`Link`] owns one connection's
//! share of a wave: the requests queued for it, those in flight on it
//! up to a depth under per-request ids, which request each reply
//! answers, and the latency sample its first reply gives. Redial,
//! retry, hedging, circuit breaking and which link to read next stay
//! with the users. After a transport error ([`NetError::is_transport`])
//! the connection is in an unknown state and its owner drops it.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::codec::{
    frame_parts_summed, read_frame_ex, write_frame_vectored, write_message_opts, CountingStream, Frame, NetError,
};
use crate::hedge::LoadTracker;
use crate::proto::{check_caps, Message, Role, LOCAL_CAPS};
use crate::retry::RetryPolicy;

/// A connection that has completed the handshake.
pub(crate) struct RpcConn {
    stream: CountingStream<TcpStream>,
}

/// Offloaded executes and redistribution phases do real work (kernel
/// compute, bulk strip movement) before replying: they get a far longer
/// reply deadline than the per-frame read timeout, or a busy server
/// looks dead — and their latency says nothing about a strip read, so
/// they never feed a [`crate::hedge::LoadTracker`].
pub(crate) fn is_long_op(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Execute { .. } | Message::RedistPrepare { .. } | Message::RedistCommit { .. }
    )
}

/// How long the sender of `msg` waits for its reply: the policy's read
/// timeout, ten of them for a long operation, eight on a pipelined
/// connection — a reply there legitimately queues behind every other
/// request in flight.
pub(crate) fn reply_deadline(policy: &RetryPolicy, msg: &Message, pipelined: bool) -> Duration {
    let factor = match (is_long_op(msg), pipelined) {
        (true, _) => 10,
        (false, true) => 8,
        (false, false) => 1,
    };
    policy.read_timeout.saturating_mul(factor)
}

/// What one reply frame means to the caller: a typed
/// [`Message::Error`] is [`NetError::Remote`], a close where the reply
/// should be is a transport error.
pub(crate) fn reply(frame: Option<Frame>) -> Result<Message, NetError> {
    match frame.map(|f| f.msg) {
        Some(Message::Error { code, message }) => Err(NetError::Remote { code, message }),
        Some(reply) => Ok(reply),
        None => Err(NetError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed where a reply was due",
        ))),
    }
}

impl RpcConn {
    /// Dial `addr` under `policy`'s timeouts and shake hands as `role`
    /// (`peer_id` is the dialling daemon's id; clients send 0). A
    /// server that refuses the `Hello` with a typed error is reported
    /// as that error; a `HelloOk` whose `caps` lacks a bit of
    /// [`LOCAL_CAPS`] is a protocol error.
    pub(crate) fn dial(
        addr: &str,
        policy: &RetryPolicy,
        role: Role,
        peer_id: u32,
    ) -> Result<RpcConn, NetError> {
        let mut stream = CountingStream::new(policy.connect(addr)?);
        write_message_opts(&mut stream, &Message::Hello { role, peer_id, caps: LOCAL_CAPS }, None, None)?;
        match reply(read_frame_ex(&mut stream)?)? {
            Message::HelloOk { caps, .. } => check_caps(caps).map_err(NetError::Protocol)?,
            other => return Err(NetError::Unexpected { opcode: other.opcode() }),
        }
        Ok(RpcConn { stream })
    }

    /// The underlying socket (to clone a read half, or shut it down).
    pub(crate) fn socket(&self) -> &TcpStream {
        self.stream.get_ref()
    }

    /// Count the connection's bytes into `bytes_in` (received) and
    /// `bytes_out` (sent) from now on, the handshake's included (see
    /// [`CountingStream::count_into`]).
    pub(crate) fn count_into(&mut self, bytes_in: Arc<das_obs::Gauge>, bytes_out: Arc<das_obs::Gauge>) {
        self.stream.count_into(bytes_in, bytes_out);
    }

    /// Write one request, with its trace id and `budget` — how long the
    /// sender will still wait, which lets an overloaded server shed the
    /// request instead of answering into the void — when it has them. A
    /// live sub-millisecond budget rounds up to 1 ms rather than
    /// reading as spent. A sender that holds `blob_sum`, the checksum
    /// of `msg`'s blob alone, has the frame signed from it without
    /// reading the blob again.
    pub(crate) fn send(
        &mut self,
        msg: &Message,
        blob_sum: Option<u32>,
        trace: Option<u64>,
        budget: Option<Duration>,
    ) -> Result<(), NetError> {
        let budget_ms = budget.map(|b| b.as_millis().clamp(1, u128::from(u32::MAX)) as u32);
        Ok(write_frame_vectored(&mut self.stream, &frame_parts_summed(msg, blob_sum, trace, budget_ms))?)
    }

    /// Read the reply to `msg` on a connection with one request in
    /// flight.
    pub(crate) fn recv(&mut self, msg: &Message, policy: &RetryPolicy) -> Result<Message, NetError> {
        self.recv_echo(msg, policy).and_then(|(_, reply)| reply)
    }

    /// Read one reply, with the trace id it echoes: on a connection
    /// with several requests in flight, which of them it answers. `msg`
    /// is one of those requests; a long operation's reply gets its
    /// stretched deadline as the socket's read timeout for this one
    /// read. A transport error is the outer `Err`; a typed refusal is
    /// the reply.
    pub(crate) fn recv_echo(
        &mut self,
        msg: &Message,
        policy: &RetryPolicy,
    ) -> Result<(Option<u64>, Result<Message, NetError>), NetError> {
        let long_op = is_long_op(msg);
        if long_op {
            let _ = self.socket().set_read_timeout(Some(reply_deadline(policy, msg, false)));
        }
        let frame = read_frame_ex(&mut self.stream);
        if long_op {
            let _ = self.socket().set_read_timeout(Some(policy.read_timeout));
        }
        let frame = frame?;
        let echo = frame.as_ref().and_then(|f| f.trace);
        match reply(frame) {
            Err(e) if e.is_transport() => Err(e),
            reply => Ok((echo, reply)),
        }
    }

    /// Whether the reply in flight has begun to arrive — or the
    /// connection has ended, which the [`RpcConn::recv`] that follows
    /// reports — within `timeout`; a zero `timeout` asks without
    /// blocking. A one-byte `peek`: the socket is read unbuffered, so
    /// nothing is consumed and `recv` still sees the whole frame.
    pub(crate) fn wait_readable(&self, timeout: Duration, policy: &RetryPolicy) -> bool {
        let sock = self.socket();
        let peeked = if timeout.is_zero() {
            let _ = sock.set_nonblocking(true);
            let peeked = sock.peek(&mut [0]);
            let _ = sock.set_nonblocking(false);
            peeked
        } else {
            let _ = sock.set_read_timeout(Some(timeout));
            let peeked = sock.peek(&mut [0]);
            let _ = sock.set_read_timeout(Some(policy.read_timeout));
            peeked
        };
        !peeked.is_err_and(|e| matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
    }
}

/// A request on a [`Link`]'s wire: the caller's handle on it, the id
/// its reply echoes, and when it was written.
pub(crate) struct Sent<J> {
    pub(crate) job: J,
    pub(crate) id: Option<u64>,
    pub(crate) at: Instant,
}

/// One connection's share of a wave. The connection stays with its
/// owner, who hands it to each call; when a call fails, the link is
/// already cleared and the owner drops the connection.
///
/// Under a trace id, up to `depth` requests are in flight at once, each
/// under its own [`das_obs::sub_id`] of the trace id; untraced, one at
/// a time.
pub(crate) struct Link<J> {
    /// Requests not yet written, in the order they go out.
    pub(crate) queued: VecDeque<J>,
    /// Requests written and not yet answered, in write order.
    pub(crate) flight: Vec<Sent<J>>,
    trace: Option<u64>,
    depth: usize,
    /// Requests written so far: the next one's sub-id index.
    written: u64,
    /// When the burst in flight — what was written to the link with
    /// nothing in flight — was first written, until its first reply.
    burst: Option<Instant>,
    /// When that first reply was seen to have begun, if that was
    /// before it was read.
    seen: Option<Instant>,
}

impl<J> Link<J> {
    pub(crate) fn new(trace: Option<u64>, depth: usize, queued: VecDeque<J>) -> Self {
        Link { queued, flight: Vec::new(), trace, depth, written: 0, burst: None, seen: None }
    }

    /// When the burst in flight was written, while its first reply has
    /// not been seen to begin: the link is waited on.
    pub(crate) fn waiting_since(&self) -> Option<Instant> {
        self.burst.filter(|_| self.seen.is_none())
    }

    /// Whether the burst's first reply has begun and is not yet read.
    pub(crate) fn reply_begun(&self) -> bool {
        self.seen.is_some()
    }

    /// Whether this link's requests go out pipelined.
    pub(crate) fn pipelined(&self) -> bool {
        self.depth > 1 && self.trace.is_some()
    }

    /// Whether another request may go out before a reply is read.
    pub(crate) fn has_room(&self) -> bool {
        self.flight.len() < if self.pipelined() { self.depth } else { 1 }
    }

    /// Drop every request queued and in flight: the connection failed.
    pub(crate) fn clear(&mut self) {
        (self.queued, self.flight) = (VecDeque::new(), Vec::new());
        (self.burst, self.seen) = (None, None);
    }

    /// The requests in flight, moved to a link of their own to be read
    /// off their connection elsewhere; this one keeps its queue, for a
    /// fresh connection.
    pub(crate) fn take_flight(&mut self) -> Link<J> {
        (self.burst, self.seen) = (None, None);
        Link { flight: std::mem::take(&mut self.flight), ..Link::new(self.trace, self.depth, VecDeque::new()) }
    }

    /// Write `job`'s `msg` on `conn`, signed from `blob_sum` when the
    /// caller holds it (see [`RpcConn::send`]), with `budget`.
    pub(crate) fn send(
        &mut self,
        conn: &mut RpcConn,
        job: J,
        msg: &Message,
        blob_sum: Option<u32>,
        budget: Option<Duration>,
    ) -> Result<(), NetError> {
        let id = match self.trace {
            Some(trace) if self.pipelined() => Some(das_obs::sub_id(trace, self.written)),
            trace => trace,
        };
        let at = Instant::now();
        if let Err(e) = conn.send(msg, blob_sum, id, budget) {
            self.clear();
            return Err(e);
        }
        self.written += 1;
        if self.flight.is_empty() {
            self.burst = Some(at);
        }
        self.flight.push(Sent { job, id, at });
        Ok(())
    }

    /// Whether the next reply on `conn` has begun to arrive within
    /// `wait` (see [`RpcConn::wait_readable`]), noting when if it is
    /// the burst's first.
    pub(crate) fn begun(&mut self, conn: &RpcConn, wait: Duration, policy: &RetryPolicy) -> bool {
        let begun = conn.wait_readable(wait, policy);
        if begun && self.burst.is_some() {
            self.seen.get_or_insert_with(Instant::now);
        }
        begun
    }

    /// Read one reply from `conn` and take it off the request in flight
    /// whose id it echoes; `msg` is one of those requests (see
    /// [`RpcConn::recv_echo`]). The burst's first reply, when good,
    /// feeds `sample`'s latency estimate with its wait, until it was
    /// seen to begin. A transport error, or a reply that echoes an id
    /// no request in flight carries, fails the link.
    pub(crate) fn recv(
        &mut self,
        conn: &mut RpcConn,
        msg: &Message,
        policy: &RetryPolicy,
        sample: Option<(&LoadTracker, usize)>,
    ) -> Result<(Sent<J>, Result<Message, NetError>), NetError> {
        let matched = conn.recv_echo(msg, policy).and_then(|(id, reply)| {
            let i = self.flight.iter().position(|sent| sent.id == id).ok_or_else(|| {
                NetError::Protocol(format!("a reply echoes id {id:?}, which no request in flight carries"))
            })?;
            Ok((self.flight.remove(i), reply))
        });
        let Ok((sent, reply)) = matched else {
            self.clear();
            return matched;
        };
        if let Some(burst) = self.burst.take() {
            let waited = self.seen.take().unwrap_or_else(Instant::now).saturating_duration_since(burst);
            if let Some((load, server)) = sample.filter(|_| reply.is_ok()) {
                load.observe(server, waited);
            }
        }
        Ok((sent, reply))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::net::TcpListener;
    use std::sync::Arc;

    use super::{Link, RpcConn};
    use crate::client::DasCluster;
    use crate::codec::{read_frame_ex, write_message_opts, NetError};
    use crate::peer::PeerTable;
    use crate::proto::{ErrorCode, Message, Role, CAP_SPANS, LOCAL_CAPS};
    use crate::retry::RetryPolicy;

    /// A daemon that answers `Hello` with a typed error, then one whose
    /// `HelloOk` lacks a capability bit: each of the two users of the
    /// core reports the refusal as that error, code and all, and the
    /// short `HelloOk` as a typed protocol error.
    #[test]
    fn a_refused_hello_is_a_typed_remote_error_for_every_user() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let refusal = Message::Error { code: ErrorCode::BadRequest, message: "not today".into() };
        let short = Message::HelloOk { server_id: 1, caps: LOCAL_CAPS & !CAP_SPANS };
        let answers = [refusal.clone(), refusal, short.clone(), short];
        let stub = std::thread::spawn(move || {
            for answer in answers {
                let (mut sock, _) = listener.accept().expect("accept");
                let hello = read_frame_ex(&mut sock).expect("read").expect("hello").msg;
                assert!(matches!(hello, Message::Hello { .. }), "{hello:?}");
                write_message_opts(&mut sock, &answer, None, None).expect("answer");
            }
        });
        // One attempt per call: the stub answers each dial once.
        let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::fast() };
        let peers = PeerTable::with_policy(
            0,
            vec![String::new(), addr.clone()],
            policy.clone(),
            Arc::new(das_obs::Registry::new()),
        );
        let call = || {
            [
                ("DasCluster", DasCluster::connect_with(std::slice::from_ref(&addr), policy.clone()).err()),
                ("PeerTable", peers.call(1, &Message::Ping, None, None).err()),
            ]
        };
        for (user, outcome) in call() {
            match outcome {
                Some(NetError::Remote { code: ErrorCode::BadRequest, message }) => {
                    assert_eq!(message, "not today", "{user}")
                }
                other => panic!("{user}: expected the typed refusal, got {other:?}"),
            }
        }
        for (user, outcome) in call() {
            match outcome {
                Some(NetError::Protocol(message)) => {
                    assert!(message.contains("lacks capabilities 0x8"), "{user}: {message}")
                }
                other => panic!("{user}: expected the typed protocol error, got {other:?}"),
            }
        }
        stub.join().expect("stub listener");
    }

    /// A traced link: four strip reads go out before any reply, each
    /// under its own id, and the server answers them newest first —
    /// each reply still lands on the read it answers. A reply echoing an id no request in flight carries
    /// is a typed protocol error, and fails the link.
    #[test]
    fn a_link_matches_replies_by_echoed_id_and_fails_on_an_unknown_one() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stub = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            read_frame_ex(&mut sock).expect("read").expect("hello");
            write_message_opts(&mut sock, &Message::HelloOk { server_id: 0, caps: LOCAL_CAPS }, None, None)
                .expect("hello ok");
            let wave: Vec<_> = (0..4).map(|_| read_frame_ex(&mut sock).expect("read").expect("ask")).collect();
            for ask in wave.iter().rev() {
                let Message::GetStrip { strip, .. } = ask.msg else { panic!("{ask:?}") };
                write_message_opts(&mut sock, &Message::StripData { payload: vec![strip as u8] }, ask.trace, None)
                    .expect("reply");
            }
            let id = read_frame_ex(&mut sock).expect("read").expect("ask").trace;
            let stray = id.map(|id| id ^ 1);
            write_message_opts(&mut sock, &Message::StripData { payload: Vec::new() }, stray, None).expect("stray");
        });
        let policy = RetryPolicy::fast();
        let mut conn = RpcConn::dial(&addr, &policy, Role::Client, 0).expect("dial");
        let mut link = Link::new(Some(das_obs::next_trace_id()), 8, (0..5u64).collect::<VecDeque<_>>());
        let get = |strip| Message::GetStrip { file: 1, strip };
        for _ in 0..4 {
            let strip = link.queued.pop_front().expect("queued");
            link.send(&mut conn, strip, &get(strip), None, None).expect("send");
        }
        let ids: std::collections::HashSet<_> = link.flight.iter().map(|sent| sent.id).collect();
        assert_eq!(ids.len(), 4, "requests in flight share an id");
        for want in (0..4u64).rev() {
            let (sent, reply) = link.recv(&mut conn, &get(want), &policy, None).expect("reply");
            assert_eq!(sent.job, want, "a reply landed on another request");
            assert_eq!(reply.expect("strip"), Message::StripData { payload: vec![want as u8] });
        }
        link.send(&mut conn, 4, &get(4), None, None).expect("send");
        match link.recv(&mut conn, &get(4), &policy, None) {
            Err(NetError::Protocol(what)) => assert!(what.contains("no request in flight carries"), "{what}"),
            other => panic!("expected the typed protocol error, got {:?}", other.map(|(_, reply)| reply)),
        }
        assert!(link.flight.is_empty() && link.queued.is_empty(), "the failed link kept requests");
        stub.join().expect("stub server");
    }
}
