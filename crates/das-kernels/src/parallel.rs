//! Data-parallel kernel application over OS threads.
//!
//! Kernels are element-independent, so a raster can be partitioned by
//! rows across threads with no synchronization beyond the join —
//! and because every element is computed by the same code path,
//! the result is **bit-identical** to the sequential
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

    // Partition rows contiguously; remainder spread over the first
    // workers (same arithmetic as the TS executor's row blocks).
    let base = height / threads as u64;
    let extra = height % threads as u64;
    let block = |i: u64| -> (u64, u64) {
        let start = i * base + i.min(extra);
        let len = base + u64::from(i < extra);
        (start, (start + len).min(height))
    };

    let src = RasterSource(input);
    let mut parts: Vec<(u64, Vec<f32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|i| {
                let src = &src;
                let kernel = &kernel;
                scope.spawn(move || {
                    let (r0, r1) = block(i);
                    let start_elem = r0 * width;
                    let mut out = vec![0.0f32; ((r1 - r0) * width) as usize];
                    kernel.process_range(src, start_elem, &mut out);
                    (start_elem, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel worker panicked"))
            .collect()
    });

    parts.sort_by_key(|&(start, _)| start);
    let mut out = Raster::filled(width, height, 0.0);
    for (start, values) in parts {
        for (k, v) in values.into_iter().enumerate() {
            out.set_linear(start + k as u64, v);
        }
    }
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
