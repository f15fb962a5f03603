//! Property tests for the parallel file system substrate: placement is
//! a partition, replication matches the paper's rule, reads/writes
//! round-trip under every layout, and redistribution is content-
//! preserving.

use das_pfs::{Layout, LayoutPolicy, PfsCluster, ServerId, StripId, StripeSpec};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = LayoutPolicy> {
    prop_oneof![
        Just(LayoutPolicy::RoundRobin),
        (1u64..8).prop_map(|group| LayoutPolicy::Grouped { group }),
        (1u64..8).prop_map(|group| LayoutPolicy::GroupedReplicated { group }),
        (2u64..8, 2u64..4).prop_map(|(group, halo)| LayoutPolicy::replicated(group, halo)),
    ]
}

/// The single-strip replication rule as the paper states it: a group's
/// first strip goes to the previous server, its last to the next.
fn one_strip_replicas(layout: &Layout, strip: StripId) -> Vec<ServerId> {
    let (r, d) = (layout.policy.group_size(), layout.servers);
    let primary = layout.primary(strip);
    let mut out = Vec::new();
    if strip.0.is_multiple_of(r) && d > 1 {
        out.push(ServerId((primary.0 + d - 1) % d));
    }
    let next = ServerId((primary.0 + 1) % d);
    if strip.0 % r == r - 1 && next != primary && !out.contains(&next) {
        out.push(next);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn primary_placement_is_a_partition(
        policy in arb_policy(),
        servers in 1u32..9,
        strips in 0u64..200,
    ) {
        let layout = Layout::new(policy, servers);
        let mut owners = vec![0u32; strips as usize];
        for srv in 0..servers {
            for s in layout.primary_strips(ServerId(srv), strips) {
                owners[s.0 as usize] += 1;
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1), "each strip exactly one primary");
    }

    #[test]
    fn replicas_never_on_primary_and_adjacent(
        group in 1u64..8,
        servers in 2u32..9,
        strip in 0u64..500,
    ) {
        let layout = Layout::new(LayoutPolicy::GroupedReplicated { group }, servers);
        let strip = StripId(strip);
        let primary = layout.primary(strip);
        for rep in layout.replicas(strip) {
            prop_assert_ne!(rep, primary);
            // Replicas land on ring neighbors of the primary only.
            let d = servers;
            let prev = ServerId((primary.0 + d - 1) % d);
            let next = ServerId((primary.0 + 1) % d);
            prop_assert!(rep == prev || rep == next, "replica {:?} not adjacent", rep);
        }
        // Interior strips have no replicas.
        let pos = strip.0 % group;
        if pos != 0 && pos != group - 1 {
            prop_assert!(layout.replicas(strip).is_empty());
        }
    }

    #[test]
    fn holds_is_consistent_with_holders(
        policy in arb_policy(),
        servers in 1u32..9,
        strip in 0u64..300,
    ) {
        let layout = Layout::new(policy, servers);
        let strip = StripId(strip);
        let holders = layout.holders(strip);
        for srv in 0..servers {
            let sid = ServerId(srv);
            prop_assert_eq!(layout.holds(sid, strip), holders.contains(&sid));
        }
    }

    #[test]
    fn read_returns_written_bytes(
        policy in arb_policy(),
        servers in 1u32..7,
        strip_size in 16usize..200,
        len in 0usize..4_000,
        seed in any::<u64>(),
    ) {
        let mut data = vec![0u8; len];
        let mut state = seed;
        for b in &mut data {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        let mut pfs = PfsCluster::new(servers);
        let f = pfs.create("f", &data, StripeSpec::new(strip_size), policy).unwrap();
        pfs.verify(f).unwrap();
        prop_assert_eq!(pfs.file_bytes(f).unwrap(), data.clone());
        if len > 0 {
            let mid = len as u64 / 2;
            let (got, _) = pfs.read(f, mid / 2, mid).unwrap();
            prop_assert_eq!(&got[..], &data[(mid / 2) as usize..(mid / 2 + mid) as usize]);
        }
    }

    #[test]
    fn writes_preserve_replica_consistency(
        group in 1u64..6,
        servers in 2u32..7,
        patch_off in 0u64..900,
        patch_len in 1usize..600,
    ) {
        let data: Vec<u8> = (0..2_000).map(|i| (i % 256) as u8).collect();
        let mut pfs = PfsCluster::new(servers);
        let f = pfs
            .create("f", &data, StripeSpec::new(128), LayoutPolicy::GroupedReplicated { group })
            .unwrap();
        let off = patch_off.min(data.len() as u64 - 1);
        let len = patch_len.min(data.len() - off as usize);
        let patch = vec![0x5A; len];
        pfs.write(f, off, &patch).unwrap();
        pfs.verify(f).unwrap();
        let mut expected = data.clone();
        expected[off as usize..off as usize + len].copy_from_slice(&patch);
        prop_assert_eq!(pfs.file_bytes(f).unwrap(), expected);
    }

    #[test]
    fn redistribution_roundtrip_preserves_content(
        from in arb_policy(),
        to in arb_policy(),
        servers in 1u32..7,
        len in 1usize..5_000,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
        let mut pfs = PfsCluster::new(servers);
        let f = pfs.create("f", &data, StripeSpec::new(100), from).unwrap();
        pfs.redistribute(f, to).unwrap();
        pfs.verify(f).unwrap();
        prop_assert_eq!(pfs.file_bytes(f).unwrap(), data.clone());
        pfs.redistribute(f, from).unwrap();
        pfs.verify(f).unwrap();
        prop_assert_eq!(pfs.file_bytes(f).unwrap(), data);
    }

    #[test]
    fn capacity_overhead_bounded_by_two_over_r(
        group in 1u64..9,
        servers in 3u32..9,
        strips in 1u64..120,
    ) {
        let layout = Layout::new(LayoutPolicy::GroupedReplicated { group }, servers);
        let copies = layout.total_copies(strips);
        // Overhead never exceeds 2/r (boundary groups may have fewer
        // replicas, never more).
        let max = strips + 2 * strips.div_ceil(group);
        prop_assert!(copies <= max, "copies {copies} > bound {max}");
        prop_assert!(copies >= strips);
    }

    #[test]
    fn halo_covers_reach_and_counts_copies_in_closed_form(
        group in 1u64..=12,
        halo in 1u64..=3,
        servers in 1u32..=6,
        strips in 0u64..150,
    ) {
        let layout = Layout::new(LayoutPolicy::replicated(group, halo), servers);
        // A group of `m` strips sends its first `min(h, m)` strips back
        // and its strips at positions `≥ r − h` forward; with `D = 2`
        // both go to the same server, with `D = 1` neither is kept.
        let (r, h) = (group, layout.policy.halo());
        let replicas = |m: u64| -> u64 {
            let back = h.min(m);
            let forward = m.saturating_sub(r - h);
            match servers {
                1 => 0,
                2 => back + forward - back.saturating_sub(r - h),
                _ => back + forward,
            }
        };
        let closed_form = strips + strips / r * replicas(r) + replicas(strips % r);
        prop_assert_eq!(layout.total_copies(strips), closed_form);
        for s in (0..strips).map(StripId) {
            if group >= halo {
                prop_assert!(layout.uncovered_neighbors(s, halo, strips).is_empty(), "strip {:?}", s);
            }
            if halo == 1 {
                prop_assert_eq!(layout.replicas(s), one_strip_replicas(&layout, s));
            }
        }
    }

    #[test]
    fn local_file_views_cover_whole_file(
        policy in arb_policy(),
        servers in 1u32..7,
        len in 0usize..4_000,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        let mut pfs = PfsCluster::new(servers);
        let f = pfs.create("f", &data, StripeSpec::new(64), policy).unwrap();
        let mut total = 0u64;
        for srv in 0..servers {
            let server = pfs.server(ServerId(srv)).unwrap();
            let view = server.local_file(f);
            // Each view's bytes match the corresponding strips.
            let got = view.read(0, view.len()).unwrap();
            let mut expected = Vec::new();
            for &s in view.strips() {
                let meta = pfs.meta(f).unwrap();
                let start = meta.spec.strip_start(s) as usize;
                let slen = meta.spec.strip_len(s, meta.len);
                expected.extend_from_slice(&data[start..start + slen]);
            }
            prop_assert_eq!(got, expected);
            total += view.len();
        }
        prop_assert_eq!(total, len as u64, "primary strips partition the bytes");
    }
}
