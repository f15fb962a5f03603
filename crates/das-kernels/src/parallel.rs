//! Data-parallel kernel application over OS threads.
//!
//! Kernels are element-independent, so a raster can be partitioned by
//! rows across threads with no synchronization beyond the join —
//! and because a cell's value does not depend on which task computed
//! it, the result is **bit-identical** to the sequential
//! [`Kernel::apply`]. Used by the heavier examples and benches to
//! keep the functional (non-simulated) layer fast.

use crate::kernel::Kernel;
use crate::raster::Raster;
use crate::source::RasterSource;

/// Apply `kernel` over `input` using up to `threads` OS threads.
///
/// Equivalent to [`Kernel::apply`] (bit-for-bit) for any thread count.
///
/// # Panics
/// Panics if `threads == 0` or a worker panics (kernel bugs propagate).
pub fn apply_parallel(kernel: &dyn Kernel, input: &Raster, threads: usize) -> Raster {
    assert!(threads > 0, "need at least one thread");
    let height = input.height();
    let width = input.width();
    let threads = threads.min(usize::try_from(height).unwrap_or(1)).max(1);

    // Each worker computes a block of whole rows straight into its
    // slice of the output.
    let block = (height.div_ceil(threads as u64) * width) as usize;
    let src = RasterSource(input);
    let mut out = Raster::filled(width, height, 0.0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = out
            .as_mut_slice()
            .chunks_mut(block)
            .enumerate()
            .map(|(i, cells)| {
                let src = &src;
                scope.spawn(move || kernel.process_range(src, (i * block) as u64, cells))
            })
            .collect();
        for h in handles {
            h.join().expect("kernel worker panicked");
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{GaussianFilter, MedianFilter};
    use crate::flow::FlowRouting;
    use crate::workload;

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        let input = workload::fbm_dem(97, 61, 5); // awkward dimensions
        for kernel in [
            &FlowRouting as &dyn Kernel,
            &GaussianFilter,
            &MedianFilter,
        ] {
            let seq = kernel.apply(&input);
            for threads in [1, 2, 3, 8, 61, 100] {
                let par = apply_parallel(kernel, &input, threads);
                assert_eq!(
                    par.fingerprint(),
                    seq.fingerprint(),
                    "{} with {threads} threads",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn single_row_raster() {
        let input = workload::fbm_dem(64, 1, 9);
        let seq = GaussianFilter.apply(&input);
        let par = apply_parallel(&GaussianFilter, &input, 8);
        assert_eq!(par.fingerprint(), seq.fingerprint());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let input = workload::fbm_dem(8, 8, 1);
        let _ = apply_parallel(&GaussianFilter, &input, 0);
    }
}
