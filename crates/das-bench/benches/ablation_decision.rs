//! Ablation A4 — decision quality of the Fig. 3 workflow.
//!
//! Sweep operators by vertical stride length and grade two decision
//! rules by **regret** against measured ground truth (a forced offload
//! on the planned layout vs traditional service):
//!
//! * the **paper's byte criterion** (Eq. 5 / strip-fetch bytes vs
//!   normal-I/O bytes) — which has a blind spot: when fetches are
//!   synchronous per-strip RPCs, per-request latency and service
//!   serialization can make an offload lose while moving *fewer*
//!   bytes than TS;
//! * the **latency-aware extension** (`das_core::decide_timed`), which
//!   the DAS executor deploys.
//!
//! A decision is *good* when the side it picked runs within 10% of the
//! better side.

use das_core::{decide, decide_timed, DecisionInput, KernelFeatures, LinkCost, OffsetExpr,
    PlanOptions};
use das_kernels::{workload, Kernel, Window};
use das_pfs::{PfsCluster, StripeSpec};
use das_runtime::{run_das_forced_offload, run_scheme, ClusterConfig, SchemeKind};

/// Parametric vertical-stride operator: depends on rows ±stride.
#[derive(Debug, Clone, Copy)]
struct Stride(i64);

impl Kernel for Stride {
    fn name(&self) -> &'static str {
        "stride-op"
    }
    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        let w = img_width as i64;
        vec![-self.0 * w, self.0 * w]
    }
    fn cost_per_element(&self) -> f64 {
        80.0
    }
    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        let mut acc = src.get(row as i64, col as i64).expect("center");
        for dr in [-self.0, self.0] {
            if let Some(v) = src.get(row as i64 + dr, col as i64) {
                acc += v;
            }
        }
        acc
    }
    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        let k = self.0 as usize;
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = rows[k][j] + rows[0][j] + rows[2 * k][j];
        }
    }
}

fn main() {
    // One-row strips make stride locality depend sharply on the stride
    // length — the interesting regime for the decision engine.
    let mut cfg = ClusterConfig::paper_default();
    cfg.storage_nodes = 8;
    cfg.compute_nodes = 8;
    cfg.strip_size = 2048 * 4; // one 2048-element row per strip
    let input = workload::fbm_dem(2048, 1024, 7);

    println!("\n================================================================");
    println!("Ablation A4 — decision quality across stride lengths (8 MiB)");
    println!("================================================================");
    println!(
        "{:<8} {:>10} {:>10} {:>13} {:>10} {:>9} {:>9}",
        "stride", "byte-rule", "timed-rule", "offload (s)", "TS (s)", "byte", "timed"
    );

    let link = LinkCost {
        bytes_per_sec: cfg.nic.bytes_per_sec,
        per_request_secs: (cfg.serve_cpu_overhead + cfg.nic.latency * 2).as_secs_f64(),
        per_message_secs: cfg.nic.latency.as_secs_f64(),
        compute_nodes: cfg.compute_nodes,
    };

    let grade = |picked_offload: bool, offload_secs: f64, ts_secs: f64| -> bool {
        let picked = if picked_offload { offload_secs } else { ts_secs };
        picked <= offload_secs.min(ts_secs) * 1.10
    };

    let (mut byte_good, mut timed_good, mut total) = (0usize, 0usize, 0usize);
    for stride in [1i64, 2, 3, 5, 9, 17, 33] {
        let k = Stride(stride);
        let offsets = k.dependence_offsets(input.width());

        // What each rule decides on the planner's layout.
        let plan = das_core::plan_distribution(
            &offsets,
            4,
            cfg.strip_size as u64,
            cfg.storage_nodes,
            input.byte_len(),
            PlanOptions::default(),
        );
        let mut pfs = PfsCluster::new(cfg.storage_nodes);
        let file = pfs
            .create("f", &input.to_bytes(), StripeSpec::new(cfg.strip_size), plan.policy)
            .unwrap();
        let dist = pfs.distribution_info(file).unwrap();
        let features = KernelFeatures {
            name: "stride-op".into(),
            dependence: offsets.iter().map(|&o| OffsetExpr::Const(o)).collect(),
        };
        let base = DecisionInput {
            features: &features,
            dist,
            element_size: 4,
            img_width: input.width(),
            output_bytes: dist.file_len,
            successive: false,
            plan_opts: PlanOptions::default(),
        };
        let byte_rule = decide(&base).is_offload();
        let timed_rule = decide_timed(&base, &link).is_offload();

        // Ground truth: force both sides through the simulator.
        let forced = run_das_forced_offload(&cfg, &k, &input, plan.policy);
        let ts = run_scheme(&cfg, SchemeKind::Ts, &k, &input);
        assert_eq!(forced.output_fingerprint, ts.output_fingerprint);

        let b = grade(byte_rule, forced.exec_secs(), ts.exec_secs());
        let t = grade(timed_rule, forced.exec_secs(), ts.exec_secs());
        total += 1;
        byte_good += usize::from(b);
        timed_good += usize::from(t);

        println!(
            "{:<8} {:>10} {:>10} {:>13.4} {:>10.4} {:>9} {:>9}",
            stride,
            if byte_rule { "offload" } else { "reject" },
            if timed_rule { "offload" } else { "reject" },
            forced.exec_secs(),
            ts.exec_secs(),
            if b { "good" } else { "BAD" },
            if t { "good" } else { "BAD" },
        );
    }

    println!("\ndecision quality (≤10% regret): byte rule {byte_good}/{total}, timed rule {timed_good}/{total}");
    println!("observation: the paper's byte criterion over-accepts offloads whose");
    println!("cost is latency/service-bound rather than byte-bound; the timed");
    println!("extension (deployed by the DAS executor) closes that gap.");
    assert!(
        timed_good >= byte_good,
        "the timed rule must not be worse than the byte rule"
    );
    assert_eq!(timed_good, total, "the timed rule must pick a near-best side everywhere");
}
