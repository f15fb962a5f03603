//! The shared retry/timeout/backoff policy used by every outbound
//! connection in das-net — the `das` client's server links and the
//! `dasd` daemon's peer links.
//!
//! Design constraints, in order:
//!
//! * **Never hang.** Every connect, read and write carries a timeout,
//!   and the total time a call can spend retrying is bounded by
//!   `max_attempts × (timeout + backoff)`.
//! * **Deterministic.** Backoff jitter is the first draw of a
//!   `StdRng` seeded with the policy's seed and the attempt ordinal —
//!   no wall clock, no global RNG — so a chaos test replays
//!   identically and two processes with different seeds still
//!   decorrelate.
//! * **Connections are disposable.** After any transport error the
//!   link is in an unknown state (a late reply would desynchronize
//!   the request/response alternation), so retries always discard the
//!   old connection and redial.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::NetError;

/// Timeouts, attempt budget and backoff shape for outbound calls.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// TCP connect timeout (per address candidate).
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for a reply.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Total attempts per logical call (first try included); ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(15),
            write_timeout: Duration::from_secs(15),
            max_attempts: 4,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x05ee_dda5,
        }
    }
}

impl RetryPolicy {
    /// An aggressive policy for tests: tight timeouts, fast backoff.
    /// Keeps a chaos run's worst case (every attempt timing out) in
    /// the low seconds.
    pub fn fast() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            max_attempts: 4,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(50),
            jitter_seed: 0x05ee_dda5,
        }
    }

    /// The sleep before retry number `attempt` (1-based): exponential
    /// in the attempt, capped at `backoff_max`, with a deterministic
    /// jitter drawing the final value from `[half, full]` of the
    /// exponential step.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.backoff_max)
            .max(Duration::from_micros(1));
        let nanos = exp.as_nanos() as u64;
        let half = nanos / 2;
        let jitter = StdRng::seed_from_u64(self.jitter_seed ^ u64::from(attempt)).next_u64() % (half + 1);
        Duration::from_nanos(half + jitter)
    }

    /// Sleep the backoff for retry number `attempt` (1-based).
    pub fn sleep_before_retry(&self, attempt: u32) {
        std::thread::sleep(self.backoff(attempt));
    }

    /// Dial `addr` with the connect timeout, then arm the socket's
    /// read/write timeouts and disable Nagle.
    pub fn connect(&self, addr: &str) -> io::Result<TcpStream> {
        let mut last = None;
        for sockaddr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sockaddr, self.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(self.read_timeout));
                    let _ = stream.set_write_timeout(Some(self.write_timeout));
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, format!("{addr}: no addresses"))
        }))
    }

    /// Run `op` up to `max_attempts` times, backing off between
    /// attempts, retrying only errors that [`NetError::is_transient`]
    /// classifies as worth retrying. Returns the last error when the
    /// budget is exhausted.
    pub fn retry<T>(&self, mut op: impl FnMut() -> Result<T, NetError>) -> Result<T, NetError> {
        for attempt in 1..self.max_attempts.max(1) {
            match op() {
                Err(e) if e.is_transient() => self.sleep_before_retry(attempt),
                done => return done,
            }
        }
        op()
    }

    /// [`RetryPolicy::retry`] of `op` whose first attempt a wave may
    /// already have made: `first`, when there, is attempt one of the
    /// same budget and backoff. Returns the outcome and how many
    /// retries it took.
    pub fn resume<T>(
        &self,
        mut first: Option<Result<T, NetError>>,
        mut op: impl FnMut() -> Result<T, NetError>,
    ) -> (Result<T, NetError>, u64) {
        let mut attempts = 0u64;
        let result = self.retry(|| {
            attempts += 1;
            first.take().unwrap_or_else(&mut op)
        });
        (result, attempts - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ErrorCode;

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let p = RetryPolicy::default();
        let a = p.backoff(1);
        let b = p.backoff(1);
        assert_eq!(a, b, "same attempt must back off identically");
        for attempt in 1..20 {
            let d = p.backoff(attempt);
            assert!(d <= p.backoff_max, "attempt {attempt}: {d:?} over cap");
            assert!(d >= p.backoff_base / 2, "attempt {attempt}: {d:?} under floor");
        }
        // Early attempts trend upward (half of exp step is monotone
        // until the cap).
        assert!(p.backoff(3) >= p.backoff_base, "exponential growth missing");
    }

    #[test]
    fn default_backoff_is_pinned() {
        // Pinned: a chaos run replays only while a seed's backoff
        // schedule stays put.
        let nanos: Vec<u128> = (1..=4).map(|a| RetryPolicy::default().backoff(a).as_nanos()).collect();
        assert_eq!(nanos, [35_523_932, 67_389_856, 132_834_222, 274_120_703]);
    }

    #[test]
    fn different_seeds_decorrelate_jitter() {
        let a = RetryPolicy { jitter_seed: 1, ..RetryPolicy::default() };
        let b = RetryPolicy { jitter_seed: 2, ..RetryPolicy::default() };
        let differs = (1..10).any(|i| a.backoff(i) != b.backoff(i));
        assert!(differs, "jitter ignored the seed");
    }

    #[test]
    fn retry_stops_on_fatal_errors() {
        let p = RetryPolicy { backoff_base: Duration::from_micros(1), ..RetryPolicy::fast() };
        let mut calls = 0;
        let r: Result<(), _> = p.retry(|| {
            calls += 1;
            Err(NetError::Remote { code: ErrorCode::NoSuchFile, message: "nope".into() })
        });
        assert!(r.is_err());
        assert_eq!(calls, 1, "fatal errors must not be retried");
    }

    #[test]
    fn retry_retries_transient_errors_up_to_budget() {
        let p = RetryPolicy { backoff_base: Duration::from_micros(1), ..RetryPolicy::fast() };
        let mut calls = 0;
        let r: Result<(), _> = p.retry(|| {
            calls += 1;
            Err(NetError::Remote { code: ErrorCode::Retryable, message: "busy".into() })
        });
        assert!(r.is_err());
        assert_eq!(calls, p.max_attempts, "transient errors retry to the budget");

        let mut calls = 0;
        let r = p.retry(|| {
            calls += 1;
            if calls < 3 {
                Err(NetError::Protocol("flaky".into()))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r.unwrap(), 3, "success after transient failures");
    }
}
