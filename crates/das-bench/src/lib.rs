//! # das-bench — figure/table regeneration harnesses
//!
//! Every table and figure of the paper's evaluation (Section IV) has a
//! `cargo bench` target that regenerates it, plus ablations over the
//! design choices DESIGN.md calls out. The harnesses print the same
//! rows/series the paper reports; EXPERIMENTS.md records paper-vs-
//! measured for each.
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table I — the analysis kernels and their dependence patterns |
//! | `fig10` | Fig. 10 — NAS vs TS execution time, 3 kernels × 24–60 size units |
//! | `fig11` | Fig. 11 — NAS/DAS/TS at 24 units, 24 nodes |
//! | `fig12` | Fig. 12 — scalability with data size, all schemes × kernels |
//! | `fig13` | Fig. 13 — scalability with node count, DAS & TS |
//! | `fig14` | Fig. 14 — normalized sustained bandwidth |
//! | `ablation_strip_size` | strip-size sensitivity (Eqs. 1–2 regimes) |
//! | `ablation_group_size` | replication group `r`: overhead vs balance |
//! | `ablation_node_ratio` | storage:compute ratio (paper fixes 1:1) |
//! | `ablation_decision` | decision quality across a stride sweep |
//! | `ablation_skew` | launch-skew sensitivity (NAS fragility, DAS immunity) |
//!
//! Run all of them with `cargo bench`, or one with
//! `cargo bench --bench fig11`.

#![warn(clippy::print_stderr)]

use das_runtime::RunReport;

/// Percent improvement of `new` over `base` (positive = faster).
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    (1.0 - new / base) * 100.0
}

/// Format a standard figure-table header.
pub fn header(title: &str, axis: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
    println!(
        "{axis:<14} {:<18} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "kernel", "scheme", "time (s)", "bw (MiB/s)", "c/s (MiB)", "s/s (MiB)"
    );
}

/// Print one data row in the standard format.
pub fn row(axis: impl std::fmt::Display, r: &RunReport) {
    println!(
        "{axis:<14} {:<18} {:>6} {:>12.4} {:>12.1} {:>12.1} {:>12.1}",
        r.kernel,
        r.scheme.name(),
        r.exec_secs(),
        r.sustained_bandwidth_mib(),
        r.bytes.net_client_server as f64 / (1024.0 * 1024.0),
        r.bytes.net_server_server as f64 / (1024.0 * 1024.0),
    );
}

/// The three kernels of the paper's Table I, in paper order.
pub const TABLE1_KERNELS: [&str; 3] = ["flow-routing", "flow-accumulation", "gaussian-filter"];

/// The paper's data-size sweep (GB in the paper, MiB here; DESIGN.md
/// documents the scaling).
pub const PAPER_SIZES: [u64; 4] = [24, 36, 48, 60];

/// The paper's node-count sweep.
pub const PAPER_NODES: [u32; 4] = [24, 36, 48, 60];

/// Seed used by every figure harness (determinism across reruns).
pub const FIG_SEED: u64 = 2012;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100.0, 70.0), 30.000000000000004);
        assert!(improvement_pct(100.0, 130.0) < 0.0);
    }
}
