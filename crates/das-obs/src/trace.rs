//! Per-request trace ids.
//!
//! A client mints one id per logical request and sends it over the
//! wire (an optional frame field); daemons echo it on replies and forward
//! it on peer fetches, so every hop of one offload shares an id.
//! Ids are nonzero, unique within a process, and salted with process
//! id + wall clock so two clients almost never collide.
//!
//! Ids are **structural**: a minted id fits in the low 48 bits, and the
//! top 16 are a sub-id tag. The requests of one pipelined wave each
//! travel under their own [`sub_id`] of the run's id, so replies on a
//! shared connection can be told apart, while [`trace_root`] — the id
//! with its tag cleared — names the run they belong to. A daemon files
//! every span under the root, so `das trace <id>` of a run also shows
//! every request sent under its sub-ids.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The bits of a trace id a minted id occupies; the rest are the
/// sub-id tag.
const ROOT_MASK: u64 = (1 << 48) - 1;

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

/// Mint a fresh nonzero 48-bit trace id.
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(process_seed().wrapping_add(n)) & ROOT_MASK;
    if id == 0 {
        1
    } else {
        id
    }
}

/// The run a trace id belongs to: the id itself for a minted id, the
/// parent for a [`sub_id`].
pub fn trace_root(id: u64) -> u64 {
    id & ROOT_MASK
}

/// The `n`-th sub-id under `parent`: the id one request of a pipelined
/// wave travels under — `parent`'s root with `n mod 0xFFFF + 1` in the
/// top 16 bits. Nonzero and never equal to a minted id, so requests
/// sharing one connection stay distinguishable (their replies are
/// matched by it), and any 65 535 consecutive `n` are distinct;
/// [`trace_root`] recovers the parent.
pub fn sub_id(parent: u64, n: u64) -> u64 {
    trace_root(parent) | ((n % 0xFFFF + 1) << 48)
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
        assert!(ids.iter().all(|&id| trace_root(id) == id), "a minted id carries a sub-id tag");
    }

    #[test]
    fn sub_ids_are_distinct_and_join_their_parent() {
        let parent = next_trace_id();
        let subs: HashSet<u64> = (0..0xFFFF).map(|n| sub_id(parent, n)).collect();
        assert_eq!(subs.len(), 0xFFFF, "65 535 consecutive sub-ids must not collide");
        assert!(!subs.contains(&parent) && !subs.contains(&0));
        assert!(subs.iter().all(|&s| trace_root(s) == parent));
        assert_eq!(sub_id(parent, 7), sub_id(parent, 7), "derivation must be deterministic");
        assert_eq!(sub_id(sub_id(parent, 3), 7), sub_id(parent, 7), "a sub-id's sub-ids are its parent's");
    }
}
