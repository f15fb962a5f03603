//! Experiment drivers: the parameter sweeps behind the paper's
//! figures, parallelized over independent simulation runs with scoped
//! threads.

use das_kernels::{kernel_by_name, workload, Raster};

use crate::config::ClusterConfig;
use crate::report::RunReport;
use crate::scheme::{run_scheme, SchemeKind};

/// One cell of a sweep: the configuration axis value and the resulting
/// report.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Axis value (data MiB for size sweeps, node count for node
    /// sweeps).
    pub axis: u64,
    /// The run's report.
    pub report: RunReport,
}

/// Generate the standard figure workload: a fractal DEM sized to
/// `mib` MiB at a fixed width of 2048 elements (8 KiB rows — the
/// scaled-down analogue of the paper's rasters; see DESIGN.md).
pub fn figure_workload(mib: u64, seed: u64) -> Raster {
    let width = 2048u64;
    let rows = (mib << 20) / (width * 4);
    workload::fbm_dem(width, rows, seed)
}

/// Run `scheme` × `kernel` at each data size (MiB), in parallel.
///
/// # Panics
/// Panics if `kernel` is not a registered kernel name.
pub fn size_sweep(
    cfg: &ClusterConfig,
    scheme: SchemeKind,
    kernel: &str,
    sizes_mib: &[u64],
    seed: u64,
) -> Vec<SweepPoint> {
    assert!(kernel_by_name(kernel).is_some(), "unknown kernel {kernel}");
    run_parallel(sizes_mib, |&mib| {
        let k = kernel_by_name(kernel).expect("validated above");
        let input = figure_workload(mib, seed);
        SweepPoint { axis: mib, report: run_scheme(cfg, scheme, k.as_ref(), &input) }
    })
}

/// Run `scheme` × `kernel` at a fixed data size over varying total
/// node counts (half storage, half compute), in parallel.
///
/// # Panics
/// Panics if `kernel` is not a registered kernel name.
pub fn node_sweep(
    cfg: &ClusterConfig,
    scheme: SchemeKind,
    kernel: &str,
    data_mib: u64,
    totals: &[u32],
    seed: u64,
) -> Vec<SweepPoint> {
    assert!(kernel_by_name(kernel).is_some(), "unknown kernel {kernel}");
    run_parallel(totals, |&total| {
        let k = kernel_by_name(kernel).expect("validated above");
        let cfg = cfg.with_total_nodes(total);
        let input = figure_workload(data_mib, seed);
        SweepPoint {
            axis: u64::from(total),
            report: run_scheme(&cfg, scheme, k.as_ref(), &input),
        }
    })
}

/// Map `f` over `items` with one scoped thread per item (simulation
/// runs are independent and CPU-bound), preserving order.
fn run_parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.iter().map(|item| scope.spawn(|| f(item))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_workload_has_requested_size() {
        let r = figure_workload(1, 3);
        assert_eq!(r.byte_len(), 1 << 20);
        assert_eq!(r.width(), 2048);
        assert_eq!(r.height(), 128);
    }

    #[test]
    fn size_sweep_orders_and_labels_points() {
        let cfg = ClusterConfig::small_test();
        let points = size_sweep(&cfg, SchemeKind::Das, "gaussian-filter", &[1, 2], 7);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].axis, 1);
        assert_eq!(points[1].axis, 2);
        assert!(points[1].report.exec_secs() > points[0].report.exec_secs());
    }

    #[test]
    fn node_sweep_shrinks_execution_time() {
        let cfg = ClusterConfig::small_test();
        let points = node_sweep(&cfg, SchemeKind::Ts, "flow-routing", 2, &[4, 16], 7);
        assert_eq!(points.len(), 2);
        assert!(
            points[1].report.exec_secs() < points[0].report.exec_secs(),
            "more nodes must be faster: {:?} vs {:?}",
            points[0].report.exec_secs(),
            points[1].report.exec_secs()
        );
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn unknown_kernel_panics() {
        let cfg = ClusterConfig::small_test();
        let _ = size_sweep(&cfg, SchemeKind::Ts, "nope", &[1], 1);
    }
}
