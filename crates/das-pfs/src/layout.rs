//! Data distribution policies: which server holds which strip.
//!
//! Three policies, mirroring the paper:
//!
//! * [`LayoutPolicy::RoundRobin`] — the parallel-file-system default
//!   (paper Fig. 5): strip `s` lives on server `s mod D`.
//! * [`LayoutPolicy::Grouped`] — `r` successive strips per server
//!   (strip `s` on server `(s / r) mod D`), the generalization behind
//!   paper Eqs. 14–16. `Grouped { group: 1 }` equals round-robin.
//! * [`LayoutPolicy::GroupedReplicated`] — the paper's improved
//!   distribution (Figs. 7–9): grouped placement **plus** replication
//!   of each group's first strip onto the *previous* server and its
//!   last strip onto the *next* server, so every strip's neighbor
//!   strips are locally available and dependence traffic vanishes.
//!   Capacity overhead is `2/r` (paper Section III-D).
//! * [`LayoutPolicy::GroupedHalo`] — the same with a halo `h ≥ 2`: the
//!   first `h` strips of each group go to the previous server and the
//!   last `h` to the next, so a stencil reaching `h` strips stays local.
//!   Capacity overhead is `2h/r`. Build either replicated form with
//!   [`LayoutPolicy::replicated`], which keeps `h = 1` as
//!   `GroupedReplicated`: every placement has one representation.

use crate::stripe::StripId;

/// Index of a storage server (0-based, `< D`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl ServerId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A data distribution policy (parameterized by the group size `r`
/// where applicable). Combine with a server count via [`Layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutPolicy {
    /// Default striping: strip `s` → server `s mod D` (paper Fig. 5).
    RoundRobin,
    /// `r` successive strips per server: strip `s` → server
    /// `(s/r) mod D`, no replication.
    Grouped {
        /// Group size `r` (≥ 1).
        group: u64,
    },
    /// Grouped placement with boundary-strip replication onto the
    /// neighboring servers (the DAS improved distribution, Fig. 9).
    GroupedReplicated {
        /// Group size `r` (≥ 1). Overhead is `2/r`; `r = 1` doubles
        /// storage (the "twice of extra storage space" case in the
        /// paper), larger `r` amortizes it.
        group: u64,
    },
    /// [`LayoutPolicy::GroupedReplicated`] with `halo` boundary strips
    /// copied each way instead of one. Canonical only for
    /// `2 ≤ halo ≤ group`; build it with [`LayoutPolicy::replicated`].
    GroupedHalo {
        /// Group size `r` (≥ 2).
        group: u64,
        /// Halo width `h`; overhead is `2h/r`.
        halo: u64,
    },
}

impl LayoutPolicy {
    /// The grouped+replicated policy copying `halo` boundary strips each
    /// way: the halo is clamped to `1..=group` (a halo wider than the
    /// group places exactly like one as wide as it), and `halo = 1` is
    /// [`LayoutPolicy::GroupedReplicated`].
    pub fn replicated(group: u64, halo: u64) -> Self {
        match halo.clamp(1, group.max(1)) {
            1 => LayoutPolicy::GroupedReplicated { group },
            halo => LayoutPolicy::GroupedHalo { group, halo },
        }
    }

    /// The group size `r` (1 for round-robin).
    pub fn group_size(&self) -> u64 {
        match *self {
            LayoutPolicy::RoundRobin => 1,
            LayoutPolicy::Grouped { group }
            | LayoutPolicy::GroupedReplicated { group }
            | LayoutPolicy::GroupedHalo { group, .. } => group,
        }
    }

    /// The halo width `h`: boundary strips copied to each ring
    /// neighbor (0 when the policy does not replicate).
    pub fn halo(&self) -> u64 {
        match *self {
            LayoutPolicy::RoundRobin | LayoutPolicy::Grouped { .. } => 0,
            LayoutPolicy::GroupedReplicated { .. } => 1,
            LayoutPolicy::GroupedHalo { halo, .. } => halo,
        }
    }

    /// Whether boundary strips are replicated to neighbor servers.
    pub fn replicates(&self) -> bool {
        self.halo() > 0
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LayoutPolicy::RoundRobin => "round-robin",
            LayoutPolicy::Grouped { .. } => "grouped",
            LayoutPolicy::GroupedReplicated { .. } | LayoutPolicy::GroupedHalo { .. } => {
                "grouped+replicated"
            }
        }
    }
}

/// The full placement of one strip: who holds the primary copy and
/// who holds replicas. This is the unit the fault-tolerance layer
/// consults — a reader that cannot reach `primary_server` walks
/// `replica_servers` in order before giving up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripPlacement {
    /// The strip being placed.
    pub strip: StripId,
    /// Server holding the primary copy (paper Eq. 14).
    pub primary_server: ServerId,
    /// Servers holding replica copies, in preference order (empty
    /// unless the policy replicates and the strip is a group
    /// boundary).
    pub replica_servers: Vec<ServerId>,
}

impl StripPlacement {
    /// Every server holding a copy, primary first — the failover
    /// order.
    pub fn holders(&self) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(1 + self.replica_servers.len());
        out.push(self.primary_server);
        out.extend(self.replica_servers.iter().copied());
        out
    }
}

/// A policy bound to a server count `D`: the total placement function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// The distribution policy.
    pub policy: LayoutPolicy,
    /// Number of storage servers `D`.
    pub servers: u32,
}

impl Layout {
    /// Bind `policy` to `servers` servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`, the policy's group size is 0, or a
    /// halo form is not the one [`LayoutPolicy::replicated`] builds.
    pub fn new(policy: LayoutPolicy, servers: u32) -> Self {
        assert!(servers > 0, "need at least one storage server");
        assert!(policy.group_size() > 0, "group size must be >= 1");
        assert!(
            !policy.replicates() || LayoutPolicy::replicated(policy.group_size(), policy.halo()) == policy,
            "halo must be in 2..=group (build it with LayoutPolicy::replicated)"
        );
        Layout { policy, servers }
    }

    /// The server holding the **primary** copy of `strip`
    /// (paper Eq. 2 generalized by Eq. 14: `(s/r) mod D`).
    pub fn primary(&self, strip: StripId) -> ServerId {
        let r = self.policy.group_size();
        ServerId(((strip.0 / r) % u64::from(self.servers)) as u32)
    }

    /// Servers holding **replica** copies of `strip` (empty unless the
    /// policy replicates). The first `h` strips of each group are
    /// replicated on the previous server (ring order), the last `h`
    /// strips of each group on the next server; with `r == h` every
    /// strip is replicated on both neighbors. Replicas that would land
    /// on the primary itself (i.e. `D == 1`) are dropped.
    pub fn replicas(&self, strip: StripId) -> Vec<ServerId> {
        let h = self.policy.halo();
        if h == 0 {
            return Vec::new();
        }
        let r = self.policy.group_size();
        let d = u64::from(self.servers);
        let primary = self.primary(strip);
        let mut out = Vec::with_capacity(2);
        let pos = strip.0 % r;
        if pos < h {
            // Among the first h strips of its group → previous server.
            let prev = ServerId((((u64::from(primary.0)) + d - 1) % d) as u32);
            if prev != primary {
                out.push(prev);
            }
        }
        if pos + h >= r {
            // Among the last h strips of its group → next server.
            let next = ServerId(((u64::from(primary.0) + 1) % d) as u32);
            if next != primary && !out.contains(&next) {
                out.push(next);
            }
        }
        out
    }

    /// Every server holding a copy of `strip` (primary first).
    pub fn holders(&self, strip: StripId) -> Vec<ServerId> {
        let mut out = vec![self.primary(strip)];
        out.extend(self.replicas(strip));
        out
    }

    /// The full placement record for `strip` — primary and replicas
    /// in failover order.
    pub fn placement(&self, strip: StripId) -> StripPlacement {
        StripPlacement {
            strip,
            primary_server: self.primary(strip),
            replica_servers: self.replicas(strip),
        }
    }

    /// Whether `server` holds a copy (primary or replica) of `strip`.
    pub fn holds(&self, server: ServerId, strip: StripId) -> bool {
        self.primary(strip) == server || self.replicas(strip).contains(&server)
    }

    /// The primary strips of `server` within a file of `strip_count`
    /// strips, in increasing strip order.
    pub fn primary_strips(&self, server: ServerId, strip_count: u64) -> Vec<StripId> {
        (0..strip_count)
            .map(StripId)
            .filter(|&s| self.primary(s) == server)
            .collect()
    }

    /// Total stored copies (primary + replicas) for a file of
    /// `strip_count` strips — measures the capacity overhead of
    /// replication (`≈ (1 + 2h/r)·strip_count` for grouped+replicated).
    pub fn total_copies(&self, strip_count: u64) -> u64 {
        (0..strip_count)
            .map(|s| 1 + self.replicas(StripId(s)).len() as u64)
            .sum()
    }

    /// Placement introspection: the strips within `radius` strips of
    /// `strip` (either direction, clipped to `strip_count`) that the
    /// **primary holder of `strip`** has no local copy of — exactly
    /// the neighbor strips an active-storage task on that server must
    /// fetch from a peer. Empty means the layout's grouping and
    /// replication fully cover a stencil reaching `radius` strips.
    pub fn uncovered_neighbors(
        &self,
        strip: StripId,
        radius: u64,
        strip_count: u64,
    ) -> Vec<StripId> {
        let server = self.primary(strip);
        let lo = strip.0.saturating_sub(radius);
        let hi = strip
            .0
            .saturating_add(radius)
            .min(strip_count.saturating_sub(1));
        (lo..=hi)
            .map(StripId)
            .filter(|&u| u != strip && !self.holds(server, u))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_matches_eq2() {
        let l = Layout::new(LayoutPolicy::RoundRobin, 4);
        for s in 0..16u64 {
            assert_eq!(l.primary(StripId(s)), ServerId((s % 4) as u32));
            assert!(l.replicas(StripId(s)).is_empty());
        }
    }

    #[test]
    fn grouped_matches_eq14() {
        let l = Layout::new(LayoutPolicy::Grouped { group: 3 }, 4);
        // Strips 0,1,2 → server 0; 3,4,5 → server 1; …; 12,13,14 → 0.
        assert_eq!(l.primary(StripId(0)), ServerId(0));
        assert_eq!(l.primary(StripId(2)), ServerId(0));
        assert_eq!(l.primary(StripId(3)), ServerId(1));
        assert_eq!(l.primary(StripId(11)), ServerId(3));
        assert_eq!(l.primary(StripId(12)), ServerId(0));
    }

    #[test]
    fn grouped_with_r1_equals_round_robin() {
        let a = Layout::new(LayoutPolicy::Grouped { group: 1 }, 5);
        let b = Layout::new(LayoutPolicy::RoundRobin, 5);
        for s in 0..40u64 {
            assert_eq!(a.primary(StripId(s)), b.primary(StripId(s)));
        }
    }

    #[test]
    fn replication_covers_group_boundaries() {
        // Paper Fig. 9: group boundary strips are copied to neighbors.
        let l = Layout::new(LayoutPolicy::GroupedReplicated { group: 3 }, 4);
        // Strip 3 is first of group 1 (server 1) → replica on server 0.
        assert_eq!(l.replicas(StripId(3)), vec![ServerId(0)]);
        // Strip 5 is last of group 1 → replica on server 2.
        assert_eq!(l.replicas(StripId(5)), vec![ServerId(2)]);
        // Strip 4 is interior → no replicas.
        assert!(l.replicas(StripId(4)).is_empty());
        // Strip 0 is first of group 0 (server 0) → replica wraps to 3.
        assert_eq!(l.replicas(StripId(0)), vec![ServerId(3)]);
    }

    #[test]
    fn r1_replicates_both_sides() {
        // The "twice extra storage" case: every strip on both neighbors.
        let l = Layout::new(LayoutPolicy::GroupedReplicated { group: 1 }, 4);
        let reps = l.replicas(StripId(5));
        assert_eq!(reps.len(), 2);
        assert!(reps.contains(&ServerId(0))); // prev of server 1
        assert!(reps.contains(&ServerId(2))); // next of server 1
    }

    #[test]
    fn single_server_drops_self_replicas() {
        let l = Layout::new(LayoutPolicy::GroupedReplicated { group: 2 }, 1);
        for s in 0..8u64 {
            assert!(l.replicas(StripId(s)).is_empty());
            assert_eq!(l.holders(StripId(s)), vec![ServerId(0)]);
        }
    }

    #[test]
    fn two_servers_dedup_replicas() {
        // With D == 2 and r == 1, prev and next are the same server.
        let l = Layout::new(LayoutPolicy::GroupedReplicated { group: 1 }, 2);
        assert_eq!(l.replicas(StripId(0)), vec![ServerId(1)]);
        assert_eq!(l.replicas(StripId(1)), vec![ServerId(0)]);
    }

    #[test]
    fn capacity_overhead_is_two_over_r() {
        // Paper Section III-D: overhead reduced to 2/r.
        let strips = 240;
        for r in [1u64, 2, 4, 8] {
            let l = Layout::new(LayoutPolicy::GroupedReplicated { group: r }, 4);
            let copies = l.total_copies(strips);
            let overhead = copies as f64 / strips as f64 - 1.0;
            let expected = 2.0 / r as f64;
            assert!(
                (overhead - expected).abs() < 0.02,
                "r={r}: overhead {overhead} vs expected {expected}"
            );
        }
    }

    #[test]
    fn primary_strips_partition_file() {
        let l = Layout::new(LayoutPolicy::Grouped { group: 3 }, 4);
        let strips = 50;
        let mut seen = vec![false; strips as usize];
        for srv in 0..4 {
            for s in l.primary_strips(ServerId(srv), strips) {
                assert!(!seen[s.0 as usize], "strip owned twice");
                seen[s.0 as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "every strip owned once");
    }

    #[test]
    fn holders_primary_first() {
        let l = Layout::new(LayoutPolicy::GroupedReplicated { group: 2 }, 3);
        let h = l.holders(StripId(2)); // first of group 1, server 1
        assert_eq!(h[0], ServerId(1));
        assert_eq!(h[1], ServerId(0));
    }

    #[test]
    fn uncovered_neighbors_reflects_replication() {
        // Grouped without replication: every strip on the far side of
        // a group boundary is uncovered.
        let grouped = Layout::new(LayoutPolicy::Grouped { group: 3 }, 4);
        // Strip 2 is last of group 0 (server 0); strip 3 is on server 1.
        assert_eq!(grouped.uncovered_neighbors(StripId(2), 1, 100), vec![StripId(3)]);
        // Interior strip: both neighbors in-group.
        assert!(grouped.uncovered_neighbors(StripId(1), 1, 100).is_empty());

        // Replication covers radius 1 at every boundary…
        let rep = Layout::new(LayoutPolicy::GroupedReplicated { group: 3 }, 4);
        for s in 0..24u64 {
            assert!(
                rep.uncovered_neighbors(StripId(s), 1, 24).is_empty(),
                "strip {s} should be radius-1 covered"
            );
        }
        // …but not radius 2 from a boundary strip.
        assert!(!rep.uncovered_neighbors(StripId(2), 2, 100).is_empty());

        // File edges clip the window instead of underflowing.
        assert!(rep.uncovered_neighbors(StripId(0), 5, 1).is_empty());
    }

    #[test]
    fn halo_covers_its_radius_and_no_more() {
        for h in 1..=3u64 {
            let rep = Layout::new(LayoutPolicy::replicated(6, h), 4);
            for s in 0..48u64 {
                assert!(
                    rep.uncovered_neighbors(StripId(s), h, 48).is_empty(),
                    "h={h}: strip {s} should be radius-{h} covered"
                );
            }
            // Strip 5 is last of group 0: radius h + 1 reaches strip
            // 5 + h + 1 on server 1, which server 0 holds no copy of.
            assert_eq!(rep.uncovered_neighbors(StripId(5), h + 1, 48), vec![StripId(6 + h)]);
        }
    }

    #[test]
    fn halo_copies_h_strips_each_way() {
        let l = Layout::new(LayoutPolicy::replicated(6, 2), 4);
        // Group 1 is strips 6..12 on server 1.
        assert_eq!(l.replicas(StripId(6)), vec![ServerId(0)]);
        assert_eq!(l.replicas(StripId(7)), vec![ServerId(0)]);
        assert!(l.replicas(StripId(8)).is_empty());
        assert!(l.replicas(StripId(9)).is_empty());
        assert_eq!(l.replicas(StripId(10)), vec![ServerId(2)]);
        assert_eq!(l.replicas(StripId(11)), vec![ServerId(2)]);
        assert_eq!(l.total_copies(24), 24 + 4 * 4);
    }

    #[test]
    fn replicated_constructor_has_one_form_per_placement() {
        assert_eq!(LayoutPolicy::replicated(6, 1), LayoutPolicy::GroupedReplicated { group: 6 });
        assert_eq!(LayoutPolicy::replicated(6, 0), LayoutPolicy::GroupedReplicated { group: 6 });
        assert_eq!(LayoutPolicy::replicated(6, 2), LayoutPolicy::GroupedHalo { group: 6, halo: 2 });
        // A halo wider than the group places like one as wide as it.
        assert_eq!(LayoutPolicy::replicated(3, 9), LayoutPolicy::GroupedHalo { group: 3, halo: 3 });
        assert_eq!(LayoutPolicy::replicated(1, 4), LayoutPolicy::GroupedReplicated { group: 1 });
        assert_eq!(LayoutPolicy::GroupedReplicated { group: 6 }.halo(), 1);
        assert_eq!(LayoutPolicy::Grouped { group: 6 }.halo(), 0);
        assert!(!LayoutPolicy::RoundRobin.replicates());
    }

    #[test]
    #[should_panic(expected = "halo must be in 2..=group")]
    fn non_canonical_halo_rejected() {
        let _ = Layout::new(LayoutPolicy::GroupedHalo { group: 4, halo: 1 }, 2);
    }

    #[test]
    #[should_panic(expected = "at least one storage server")]
    fn zero_servers_rejected() {
        let _ = Layout::new(LayoutPolicy::RoundRobin, 0);
    }

    #[test]
    #[should_panic(expected = "group size must be >= 1")]
    fn zero_group_rejected() {
        let _ = Layout::new(LayoutPolicy::Grouped { group: 0 }, 2);
    }
}
