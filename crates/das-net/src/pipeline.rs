//! A pipelined client connection: many in-flight requests on one
//! socket, replies matched by trace id.
//!
//! The classic [`crate::client::DasCluster`] connection is strictly
//! serial — one request, one reply, alternate. That shape caps a
//! connection's throughput at `1 / RTT` regardless of how fast the
//! server is. [`PipeClient`] removes the cap without any protocol
//! change: every request carries a unique id in the frame's **trace
//! field** (the server echoes it verbatim), a background reader
//! thread demultiplexes replies to the callers that sent them, and
//! any number of threads may call into one connection concurrently.
//! Replies may legally arrive out of order — the event-loop server
//! core completes requests in whatever order its workers finish.
//!
//! Pipelining therefore requires both ends to have negotiated
//! [`crate::proto::CAP_TRACE`]; connecting to a legacy server fails
//! with a typed error rather than silently mismatching replies.
//!
//! Failure semantics follow the crate's "connections are disposable"
//! rule: any transport error poisons the whole connection — every
//! in-flight caller gets a transport error (each may retry on a fresh
//! connection), and later calls fail fast. A reply that never comes
//! surfaces as a timeout after a multiple of the policy's read
//! deadline, mirroring the serial client's worst-case stall budget.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec::{read_frame, NetError};
use crate::conn::{reply, reply_deadline, RpcConn};
use crate::proto::{Message, Role, CAP_TRACE};
use crate::retry::RetryPolicy;
use crate::server::lock;

/// How often the reader thread wakes to poll the close flag while the
/// socket is idle.
const READER_POLL: Duration = Duration::from_millis(100);

/// Reply waiters, keyed by the request id carried in the trace field.
/// A waiter learns about connection death by its sender being dropped.
type PendingMap = HashMap<u64, mpsc::Sender<Message>>;

/// Shared connection state; the reader thread holds its own handle.
struct Inner {
    /// The write half: requests interleave on it under this lock.
    wr: Mutex<RpcConn>,
    pending: Mutex<PendingMap>,
    next_id: AtomicU64,
    closed: AtomicBool,
    policy: RetryPolicy,
}

impl Inner {
    /// Mark the connection dead and wake every in-flight caller with
    /// a transport error (by dropping their reply senders).
    fn poison(&self) {
        self.closed.store(true, Ordering::SeqCst);
        lock(&self.pending).clear();
    }
}

/// A pipelined connection to one `dasd` server. Cheap to share:
/// `&self` methods are thread-safe, and concurrent callers' requests
/// interleave on the single socket.
pub struct PipeClient {
    inner: Arc<Inner>,
    reader: Option<JoinHandle<()>>,
}

impl PipeClient {
    /// Dial `addr`, run the `Hello`/`HelloOk` handshake as a client,
    /// and start the reply-demultiplexing reader thread. Fails with a
    /// typed protocol error if the server did not advertise
    /// [`CAP_TRACE`] — without the echoed trace field there is no way
    /// to match out-of-order replies.
    pub fn connect(addr: &str, policy: &RetryPolicy) -> Result<PipeClient, NetError> {
        let conn = RpcConn::dial(addr, policy, Role::Client, 0)?;
        if !conn.has(CAP_TRACE) {
            return Err(NetError::Protocol(
                "server lacks CAP_TRACE; pipelined replies cannot be matched".into(),
            ));
        }
        let reader_stream = conn.socket().try_clone()?;
        let _ = reader_stream.set_read_timeout(Some(READER_POLL));
        let inner = Arc::new(Inner {
            wr: Mutex::new(conn),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
            policy: policy.clone(),
        });
        let reader = std::thread::spawn({
            let inner = Arc::clone(&inner);
            move || reader_loop(&inner, reader_stream)
        });
        Ok(PipeClient { inner, reader: Some(reader) })
    }

    /// Whether the connection has been poisoned by a transport error
    /// (or closed). A closed client fails every call fast; the owner
    /// should redial.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Issue one request and block until its reply arrives, however
    /// many other requests are in flight around it. Typed server
    /// errors come back as [`NetError::Remote`]; transport failures
    /// poison the connection for every caller.
    pub fn call(&self, msg: &Message) -> Result<Message, NetError> {
        if self.is_closed() {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "pipelined connection is closed",
            )));
        }
        let inner = &*self.inner;
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
        // The budget on the wire is the wait enforced below.
        let deadline = reply_deadline(&inner.policy, msg, true);
        let (tx, rx) = mpsc::channel();
        lock(&inner.pending).insert(id, tx);
        let sent = lock(&inner.wr).send(msg, Some(id), Some(deadline));
        if let Err(e) = sent {
            lock(&inner.pending).remove(&id);
            inner.poison();
            return Err(e);
        }
        match rx.recv_timeout(deadline) {
            Ok(msg) => reply(Ok(Some(msg))),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                lock(&inner.pending).remove(&id);
                Err(NetError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no reply for request {id} within {deadline:?}"),
                )))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Io(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "connection failed while awaiting reply",
            ))),
        }
    }
}

impl Drop for PipeClient {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        // Shut the socket down so a reader mid-frame exits immediately
        // instead of waiting out its poll interval.
        {
            let w = lock(&self.inner.wr);
            let _ = w.socket().shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Reader-thread body: demultiplex traced replies to their waiters
/// until the connection dies or the owner closes it.
fn reader_loop(inner: &Inner, mut stream: TcpStream) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some((reply, Some(id)))) => {
                // Deliver to the caller that sent request `id`; a late
                // reply whose caller already timed out is dropped.
                if let Some(tx) = lock(&inner.pending).remove(&id) {
                    let _ = tx.send(reply);
                }
            }
            Ok(Some((_, None))) => {
                // An untraced reply cannot be matched to a caller —
                // the stream is desynchronized for our purposes.
                inner.poison();
                return;
            }
            Ok(None) => {
                inner.poison();
                return;
            }
            Err(NetError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                if inner.closed.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => {
                inner.poison();
                return;
            }
        }
    }
}
