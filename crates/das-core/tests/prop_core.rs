//! Property tests for the DAS core: the fast whole-file predictor must
//! agree with the literal per-element equations, descriptors must
//! round-trip through both formats, the planner must keep its promises
//! and Eq. 17 must be sound.

use das_core::{
    plan_distribution, FeatureRegistry, KernelFeatures, OffsetExpr, PlanOptions, StripingParams,
};
use das_pfs::{Layout, LayoutPolicy};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = LayoutPolicy> {
    prop_oneof![
        Just(LayoutPolicy::RoundRobin),
        (1u64..6).prop_map(|group| LayoutPolicy::Grouped { group }),
        (1u64..6).prop_map(|group| LayoutPolicy::GroupedReplicated { group }),
        (2u64..6, 2u64..4).prop_map(|(group, halo)| LayoutPolicy::replicated(group, halo)),
    ]
}

fn arb_offsets() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-200i64..200, 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fast_prediction_equals_per_element_sum(
        policy in arb_policy(),
        servers in 1u32..7,
        offsets in arb_offsets(),
        strips in 1u64..40,
    ) {
        let p = StripingParams {
            element_size: 4,
            strip_size: 32,
            layout: Layout::new(policy, servers),
        };
        let file_len = strips * 32;
        let n = file_len / 4;
        let brute: u64 = (0..n).map(|i| p.element_bw_cost(i, &offsets, n)).sum();
        let fast = p.predict_file(&offsets, file_len);
        prop_assert_eq!(fast.remote_bytes, brute);
        // Every dependence lookup is either local or remote.
        let clipped: u64 = (0..n)
            .map(|i| offsets.iter().filter(|&&o| {
                let d = i as i64 + o;
                d >= 0 && (d as u64) < n
            }).count() as u64)
            .sum();
        prop_assert_eq!(fast.local_fetches + fast.remote_fetches, clipped);
    }

    #[test]
    fn eq14_equation_is_the_layout(
        policy in arb_policy(),
        servers in 1u32..9,
        i in 0u64..100_000,
    ) {
        let p = StripingParams {
            element_size: 8,
            strip_size: 64,
            layout: Layout::new(policy, servers),
        };
        prop_assert_eq!(u64::from(p.location_of(i).0), p.location_by_equation(i));
    }

    #[test]
    fn eq17_soundness(
        group in 1u64..5,
        servers in 1u32..6,
        stride in 1i64..400,
    ) {
        // When Eq. 17 holds, *no* element may have a displaced
        // stride-neighbor (the criterion is exact for pure grouping).
        let p = StripingParams {
            element_size: 4,
            strip_size: 16,
            layout: Layout::new(LayoutPolicy::Grouped { group }, servers),
        };
        if p.eq17_holds(stride) {
            let n = 2_000u64;
            for l in 0..n {
                let d = l as i64 + stride;
                if (d as u64) < n {
                    prop_assert_eq!(p.location_of(l), p.location_of(d as u64));
                }
            }
        }
    }

    #[test]
    fn descriptor_text_roundtrip(
        offsets in prop::collection::vec(-500i64..500, 1..12),
        use_width in any::<bool>(),
    ) {
        let dependence: Vec<OffsetExpr> = offsets
            .iter()
            .map(|&o| {
                let c = OffsetExpr::Const(o);
                if use_width {
                    OffsetExpr::Add(Box::new(OffsetExpr::ImgWidth), Box::new(c))
                } else {
                    c
                }
            })
            .collect();
        let rec = KernelFeatures { name: "op".into(), dependence };
        let text = rec.to_text();
        let parsed = KernelFeatures::parse_text(&text).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        for w in [1u64, 17, 2048] {
            prop_assert_eq!(parsed[0].offsets(w), rec.offsets(w));
        }
    }

    #[test]
    fn descriptor_xml_equals_text(
        offsets in prop::collection::vec(-500i64..500, 1..12),
    ) {
        let deps: Vec<String> = offsets.iter().map(|o| o.to_string()).collect();
        let text = format!("Name:op\nDependence: {}", deps.join(", "));
        let xml = format!(
            "<kernel><name>op</name><dependence>{}</dependence></kernel>",
            deps.join(", ")
        );
        let mut reg_a = FeatureRegistry::new();
        reg_a.load_text(&text).unwrap();
        let mut reg_b = FeatureRegistry::new();
        reg_b.load_xml(&xml).unwrap();
        prop_assert_eq!(
            reg_a.get("op").unwrap().offsets(99),
            reg_b.get("op").unwrap().offsets(99)
        );
    }

    #[test]
    fn planner_promises_hold(
        servers in 2u32..7,
        rows in 16u64..200,
        width in 8u64..64,
        strip_rows in 1u64..=3,
    ) {
        // 8-neighbor pattern, strips of one to three rows: the reach is
        // one strip, or two when a row is a strip. The planner must cover
        // it whenever its balanced group is wide enough, and price the
        // halo at its nominal 2h/r.
        let w = width as i64;
        let offsets = vec![-w + 1, -w, -w - 1, -1, 1, w - 1, w, w + 1];
        let strip = strip_rows * width * 4;
        let file = rows * width * 4;
        let opts = PlanOptions::default();
        let plan = plan_distribution(&offsets, 4, strip, servers, file, opts);
        if plan.satisfied {
            prop_assert_eq!(plan.prediction.remote_fetches, 0);
        }
        prop_assert!(plan.capacity_overhead <= 2.0 + 1e-9);
        let reach = (width + 1) * 4;
        let strips = file.div_ceil(strip);
        match plan.policy {
            LayoutPolicy::GroupedReplicated { .. } | LayoutPolicy::GroupedHalo { .. } => {
                let (group, halo) = (plan.policy.group_size(), plan.policy.halo());
                prop_assert!(group >= 1 && group <= opts.max_group);
                prop_assert_eq!(halo, reach.div_ceil(strip).min(group));
                prop_assert!((plan.capacity_overhead - 2.0 * halo as f64 / group as f64).abs() < 1e-12);
                if group * strip >= reach {
                    prop_assert!(plan.satisfied, "r={} h={} should cover the reach", group, halo);
                }
                // Balance first: no server holds more than its share.
                let layout = Layout::new(plan.policy, servers);
                let busiest = (0..servers)
                    .map(|d| layout.primary_strips(das_pfs::ServerId(d), strips).len() as u64)
                    .max()
                    .unwrap();
                prop_assert!(busiest <= strips.div_ceil(u64::from(servers)));
            }
            _ => prop_assert_eq!(plan.capacity_overhead, 0.0),
        }
        // The plan's prediction must match an independent evaluation.
        let p = StripingParams {
            element_size: 4,
            strip_size: strip,
            layout: Layout::new(plan.policy, servers),
        };
        let check = p.predict_file(&offsets, file);
        prop_assert_eq!(check, plan.prediction);
    }

    #[test]
    fn prediction_is_monotone_in_file_size(
        policy in arb_policy(),
        servers in 1u32..6,
        offsets in arb_offsets(),
    ) {
        let p = StripingParams {
            element_size: 4,
            strip_size: 64,
            layout: Layout::new(policy, servers),
        };
        let small = p.predict_file(&offsets, 64 * 10);
        let big = p.predict_file(&offsets, 64 * 20);
        prop_assert!(big.remote_fetches >= small.remote_fetches);
        prop_assert!(big.local_fetches >= small.local_fetches);
    }
}
