//! Per-request trace ids.
//!
//! A client mints one id per logical request and sends it over the
//! wire (behind `CAP_TRACE`); daemons echo it on replies and forward
//! it on peer fetches, so every hop of one offload shares an id.
//! Ids are nonzero, unique within a process, and salted with process
//! id + wall clock so two clients almost never collide.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The SplitMix64 finalizer — shared with sub-id derivation.
pub(crate) fn mix(x: u64) -> u64 {
    splitmix64(x)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn process_seed() -> u64 {
    static SEED: AtomicU64 = AtomicU64::new(0);
    let s = SEED.load(Ordering::Relaxed);
    if s != 0 {
        return s;
    }
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0xDA5_0B5);
    let mut mixed = splitmix64(nanos ^ ((std::process::id() as u64) << 32));
    if mixed == 0 {
        mixed = 1;
    }
    // First caller wins; everyone then reads the same seed.
    let _ = SEED.compare_exchange(0, mixed, Ordering::Relaxed, Ordering::Relaxed);
    SEED.load(Ordering::Relaxed)
}

/// Mint a fresh nonzero trace id.
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(process_seed().wrapping_add(n));
    if id == 0 {
        1
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let ids: HashSet<u64> = (0..1000).map(|_| next_trace_id()).collect();
        assert_eq!(ids.len(), 1000);
        assert!(!ids.contains(&0));
    }
}
