//! The improved-data-distribution calculator (paper Section III-D).
//!
//! Given an operation's dependence offsets, pick a layout under which
//! every dependence is locally satisfiable on the processing server:
//!
//! 1. if the current/default round-robin layout is already dependence-
//!    free, keep it (no cost);
//! 2. else, if some group size `r` makes the paper's Eq. 17 criterion
//!    (`offset·E / (r·strip_size) mod D = 0`) hold for **every**
//!    offset, plain grouping co-locates all dependence with **zero**
//!    capacity overhead;
//! 3. otherwise fall back to the paper's replication strategy: `r`
//!    successive strips per server with each group's first and last `h`
//!    strips copied to the ring neighbors, costing `2h/r` extra
//!    capacity. Both numbers are derived, not tuned:
//!    * the halo `h = ⌈max|offset|·E / strip_size⌉` is the kernel's
//!      reach in strips, so with `r ≥ h` no strip's dependence leaves
//!      its server or the copies next to it
//!      ([`das_pfs::LayoutPolicy::replicated`]; `h = 1` is the paper's
//!      one-strip layout);
//!    * `r` is chosen **balance first, then fewest group boundaries**:
//!      the largest `r ≤` [`PlanOptions::max_group`] whose busiest server
//!      holds no more primary strips than `⌈strips/D⌉`. Offloaded
//!      kernels run at strip granularity, so imbalance multiplies
//!      compute time directly; among balanced choices every extra group
//!      boundary costs `2h` more copies and forwards.
//!
//!    A reach past [`MAX_HALO`] strips is not covered. The plan is then
//!    the paper's one-strip ring with `r ≤ ⌈2 /`
//!    [`PlanOptions::max_capacity_overhead`]`⌉` (balanced the same way),
//!    and the Fig. 3 decision prices the fetches that remain, falling
//!    back to normal I/O when they outweigh it.
//!
//! Every candidate is validated against the exact predictor, so
//! `satisfied == true` is a *proof* (under the model) that offloading
//! will move zero dependence bytes — the property the DAS scheme's
//! experimental win rests on. A reach wider than the balanced `r` is
//! reported unsatisfied, with the fetches it will still make predicted.

use das_pfs::{Layout, LayoutPolicy};

use crate::predict::{DependencePrediction, StripingParams};

/// The widest halo the planner derives: a stencil reaching two strips
/// (a row of one and a half strips, say) is covered; one reaching
/// further keeps the paper's one-strip ring.
///
/// The value is not measured. It is the widest halo under which two
/// pinned fall-back verdicts still hold: `tests/cross_scheme.rs`
/// (gaussian-filter-5x5 on one-row strips, a reach of three strips) and
/// `tests/decision_engine.rs` (wide strides on 64-element strips). With
/// a wider halo those runs would offload; whether they should is open.
pub const MAX_HALO: u64 = 2;

/// Knobs bounding the planner's search.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Limits the group size of a plan whose reach is past
    /// [`MAX_HALO`]: `r ≤ ⌈2/max_capacity_overhead⌉`, so that plan's
    /// one-strip ring costs at least this fraction (default 0.25, i.e.
    /// `r ≤ 8`). A covered reach does not consult it: its `r` is the
    /// largest balanced one, the least overhead balance allows.
    pub max_capacity_overhead: f64,
    /// Largest group size considered; default 64.
    pub max_group: u64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { max_capacity_overhead: 0.25, max_group: 64 }
    }
}

/// The planner's output: a layout, whether it provably eliminates
/// dependence traffic, and at what capacity cost.
#[derive(Debug, Clone, Copy)]
pub struct LayoutPlan {
    /// The chosen policy.
    pub policy: LayoutPolicy,
    /// True iff the exact predictor counts zero remote dependence
    /// fetches under this layout.
    pub satisfied: bool,
    /// Nominal extra storage fraction (`2h/r` for replicated layouts).
    pub capacity_overhead: f64,
    /// The predictor's verdict under the chosen layout.
    pub prediction: DependencePrediction,
}

impl LayoutPlan {
    /// Whether adopting the plan means reconfiguring away from
    /// `current` (paper Fig. 3's "Reconfig Parallel File System" box).
    pub fn requires_change(&self, current: LayoutPolicy) -> bool {
        self.policy != current
    }
}

/// Choose a data distribution for the given dependence pattern.
///
/// `element_size`, `strip_size` and `servers` describe the target file
/// system; `file_len` is the file's size in bytes (whole elements).
pub fn plan_distribution(
    offsets: &[i64],
    element_size: u64,
    strip_size: u64,
    servers: u32,
    file_len: u64,
    opts: PlanOptions,
) -> LayoutPlan {
    let params_for = |policy: LayoutPolicy| StripingParams {
        element_size,
        strip_size,
        layout: Layout::new(policy, servers),
    };
    let evaluate = |policy: LayoutPolicy| params_for(policy).predict_file(offsets, file_len);

    // Step 1: is the default layout already dependence-free? (True for
    // patterns that never leave a strip, or a single-server system.)
    let rr = evaluate(LayoutPolicy::RoundRobin);
    if rr.all_local() {
        return LayoutPlan {
            policy: LayoutPolicy::RoundRobin,
            satisfied: true,
            capacity_overhead: 0.0,
            prediction: rr,
        };
    }

    // Step 2: a pure grouped layout via Eq. 17 — zero overhead if some
    // r co-locates every offset by arithmetic alone.
    for r in 1..=opts.max_group {
        let params = params_for(LayoutPolicy::Grouped { group: r });
        if offsets.iter().all(|&o| params.eq17_holds(o)) {
            let prediction = evaluate(LayoutPolicy::Grouped { group: r });
            if prediction.all_local() {
                return LayoutPlan {
                    policy: LayoutPolicy::Grouped { group: r },
                    satisfied: true,
                    capacity_overhead: 0.0,
                    prediction,
                };
            }
        }
    }

    // Step 3: grouped + replicated, with a halo as wide as the reach
    // and the coarsest balanced grouping.
    let strips = file_len.div_ceil(strip_size).max(1);
    let reach = offsets.iter().map(|o| o.unsigned_abs()).max().unwrap_or(0);
    let (halo, max_r) = match (reach * element_size).div_ceil(strip_size) {
        h if h <= MAX_HALO => (h, opts.max_group),
        _ => (1, ((2.0 / opts.max_capacity_overhead).ceil() as u64).min(opts.max_group)),
    };
    let fair = strips.div_ceil(u64::from(servers));
    // r = 1 deals strips out round-robin, which is always balanced.
    let r = (1..=max_r)
        .rev()
        .find(|&r| busiest_server_strips(strips, r, servers) <= fair)
        .unwrap_or(1);
    let policy = LayoutPolicy::replicated(r, halo);
    let prediction = evaluate(policy);
    LayoutPlan {
        policy,
        satisfied: prediction.all_local(),
        capacity_overhead: 2.0 * policy.halo() as f64 / r as f64,
        prediction,
    }
}

/// Primary strips on the busiest server when `strips` strips are dealt
/// out in groups of `r` over `servers`: server 0, which receives the
/// first group of every round.
fn busiest_server_strips(strips: u64, r: u64, servers: u32) -> u64 {
    (0..strips.div_ceil(r))
        .step_by(servers as usize)
        .map(|g| r.min(strips - g * r))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8-neighbor offsets for an image `w` elements wide.
    fn eight(w: i64) -> Vec<i64> {
        vec![-w + 1, -w, -w - 1, -1, 1, w - 1, w, w + 1]
    }

    #[test]
    fn local_pattern_keeps_round_robin() {
        // Horizontal-only dependence inside a big strip: interior
        // elements are local, only strip-boundary elements cross — so
        // not all-local; but a pattern of empty offsets trivially is.
        let plan = plan_distribution(&[], 4, 1024, 8, 1 << 20, PlanOptions::default());
        assert_eq!(plan.policy, LayoutPolicy::RoundRobin);
        assert!(plan.satisfied);
        assert_eq!(plan.capacity_overhead, 0.0);
    }

    #[test]
    fn single_server_needs_no_change() {
        let plan = plan_distribution(&eight(64), 4, 256, 1, 64 * 64 * 4, PlanOptions::default());
        assert_eq!(plan.policy, LayoutPolicy::RoundRobin);
        assert!(plan.satisfied);
    }

    #[test]
    fn eq17_exact_multiple_uses_pure_grouping() {
        // One offset, exactly one strip: stride·E = strip_size. With
        // D=4 servers, r·D strips per round: Eq. 17 holds for r=...
        // stride·E/(r·s) must be ≡ 0 mod 4 — impossible for a 1-strip
        // stride unless r=... 1/(r) integer → r=1 and 1 % 4 ≠ 0. So use
        // stride of exactly D strips: offset·E = 4·strip_size, r=1 →
        // 4 mod 4 = 0 → plain round-robin-style grouping satisfies.
        let strip = 256u64;
        let e = 4u64;
        let offset = (4 * strip / e) as i64; // 4 strips ahead
        let plan = plan_distribution(&[offset, -offset], e, strip, 4, 64 * strip, PlanOptions::default());
        assert!(plan.satisfied);
        assert_eq!(plan.capacity_overhead, 0.0);
        match plan.policy {
            LayoutPolicy::RoundRobin | LayoutPolicy::Grouped { .. } => {}
            other => panic!("expected non-replicated policy, got {other:?}"),
        }
    }

    #[test]
    fn stencil_pattern_gets_replicated_grouping() {
        // 64-wide image, strip = 2 rows: the classic case, reach 1.
        let w = 64i64;
        let e = 4u64;
        let strip = 2 * 64 * e; // two rows
        let file = 4096 * 64 * e; // 4096 rows
        let plan = plan_distribution(&eight(w), e, strip, 8, file, PlanOptions::default());
        // 2048 strips over 8 servers: 64-strip groups are 4 per server.
        assert_eq!(plan.policy, LayoutPolicy::GroupedReplicated { group: 64 });
        assert!(plan.satisfied, "remote: {:?}", plan.prediction);
        assert_eq!(plan.capacity_overhead, 2.0 / 64.0);
    }

    #[test]
    fn wide_raster_gets_a_two_strip_halo_and_one_group_per_server() {
        // A 1536 × 48 f32 raster in 4 KiB strips: a row is a strip and a
        // half, so the 8-neighbor reach (1537 elements = 6148 B) crosses
        // two strips. 72 strips over 4 servers balance at 18 each.
        let (w, e, strip) = (1536i64, 4u64, 4096u64);
        let plan = plan_distribution(&eight(w), e, strip, 4, 48 * 1536 * e, PlanOptions::default());
        assert_eq!(plan.policy, LayoutPolicy::GroupedHalo { group: 18, halo: 2 });
        assert!(plan.satisfied, "remote: {:?}", plan.prediction);
        assert_eq!(plan.capacity_overhead, 2.0 / 9.0);
    }

    #[test]
    fn group_size_is_balance_first_then_coarsest() {
        // 10 strips on 4 servers: at most ⌈10/4⌉ = 3 per server, so
        // r = 3 (3, 3, 3, 1) and not r = 4 (4, 4, 2).
        let e = 4u64;
        let strip = 2 * 64 * e;
        let plan = plan_distribution(&eight(64), e, strip, 4, 10 * strip, PlanOptions::default());
        assert_eq!(plan.policy, LayoutPolicy::GroupedReplicated { group: 3 });
        // 9 strips on 2 servers: r = 5 deals 5 and 4, within ⌈9/2⌉.
        let plan = plan_distribution(&eight(64), e, strip, 2, 9 * strip, PlanOptions::default());
        assert_eq!(plan.policy.group_size(), 5);
        assert_eq!(busiest_server_strips(9, 4, 2), 5);
        assert_eq!(busiest_server_strips(9, 5, 2), 5);
        assert_eq!(busiest_server_strips(9, 6, 2), 6);
    }

    #[test]
    fn group_size_respects_max_group() {
        let e = 4u64;
        let strip = 2 * 64 * e;
        let file = 4096 * 64 * e;
        let opts = PlanOptions { max_group: 16, ..PlanOptions::default() };
        let plan = plan_distribution(&eight(64), e, strip, 8, file, opts);
        assert_eq!(plan.policy, LayoutPolicy::GroupedReplicated { group: 16 });
        assert!(plan.satisfied);
        assert_eq!(plan.capacity_overhead, 2.0 / 16.0);
    }

    #[test]
    fn overhead_cap_respected() {
        let w = 64i64;
        let e = 4u64;
        let strip = 2 * 64 * e;
        let file = 4096 * 64 * e;
        for cap in [0.5, 0.25, 0.125] {
            let plan = plan_distribution(
                &eight(w),
                e,
                strip,
                8,
                file,
                PlanOptions { max_capacity_overhead: cap, max_group: 64 },
            );
            assert!(plan.capacity_overhead <= cap + 1e-9, "cap {cap}");
            assert!(plan.satisfied);
        }
    }

    #[test]
    fn small_files_prefer_balance_over_overhead() {
        // 32 strips on 8 servers → r capped at 4 so every server keeps
        // a group, even though larger groups would copy fewer strips.
        let e = 4u64;
        let strip = 2 * 64 * e;
        let file = 32 * strip;
        let plan = plan_distribution(&eight(64), e, strip, 8, file, PlanOptions::default());
        match plan.policy {
            LayoutPolicy::GroupedReplicated { group } => assert_eq!(group, 4),
            other => panic!("unexpected policy {other:?}"),
        }
    }

    #[test]
    fn oversized_dependence_reported_unsatisfied() {
        // Offsets spanning several strips are past the widest halo and
        // keep the one-strip ring; the planner must say so rather than
        // lie.
        let e = 4u64;
        let strip = 64 * e; // one 64-element row per strip
        let w = 64i64;
        // Vertical reach of ±3 rows = ±3 strips.
        let offsets = vec![-3 * w, 3 * w];
        let plan = plan_distribution(&offsets, e, strip, 8, 1024 * strip, PlanOptions::default());
        assert_eq!(plan.policy, LayoutPolicy::GroupedReplicated { group: 8 });
        assert!(!plan.satisfied);
        assert!(plan.prediction.remote_fetches > 0);
        // Its group size is the limit `max_capacity_overhead` sets.
        let opts = PlanOptions { max_capacity_overhead: 0.5, max_group: 64 };
        let plan = plan_distribution(&offsets, e, strip, 8, 1024 * strip, opts);
        assert_eq!(plan.policy, LayoutPolicy::GroupedReplicated { group: 4 });
        assert_eq!(plan.capacity_overhead, 0.5);
    }

    #[test]
    fn reach_wider_than_the_balanced_group_is_reported_unsatisfied() {
        // A two-strip reach, but 8 strips on 8 servers balance only at
        // r = 1: the halo is clamped to the group and cannot reach the
        // strip two servers away.
        let e = 4u64;
        let strip = 64 * e;
        let plan = plan_distribution(&eight(64), e, strip, 8, 8 * strip, PlanOptions::default());
        assert_eq!(plan.policy, LayoutPolicy::GroupedReplicated { group: 1 });
        assert!(!plan.satisfied);
        // With room for r ≥ 2 the same reach is covered.
        let plan = plan_distribution(&eight(64), e, strip, 8, 32 * strip, PlanOptions::default());
        assert_eq!(plan.policy, LayoutPolicy::GroupedHalo { group: 4, halo: 2 });
        assert!(plan.satisfied);
    }

    #[test]
    fn requires_change_compares_policies() {
        let plan = LayoutPlan {
            policy: LayoutPolicy::GroupedReplicated { group: 8 },
            satisfied: true,
            capacity_overhead: 0.25,
            prediction: DependencePrediction {
                elements: 0,
                local_fetches: 0,
                remote_fetches: 0,
                remote_bytes: 0,
            },
        };
        assert!(plan.requires_change(LayoutPolicy::RoundRobin));
        assert!(!plan.requires_change(LayoutPolicy::GroupedReplicated { group: 8 }));
    }
}
