//! The [`Kernel`] trait: what the DAS architecture needs to know about
//! an offloadable operation.
//!
//! The paper's *Kernel Features* component (Section III-B) describes an
//! operation by its name and its dependence offsets; its bandwidth
//! predictor then reasons about those offsets, and its AS helper
//! process finally invokes the processing kernel on server-local data.
//! This trait is the Rust face of all three: identity, dependence
//! pattern, per-element cost, and the element-wise computation itself.

use crate::raster::Raster;
use crate::source::{ElemSource, RasterSource, WindowSource};

/// An offloadable data-analysis operation over a 2-D raster.
///
/// Kernels are element-wise: `process_element` computes one output cell
/// from the input cells named by `dependence_offsets` (plus the cell
/// itself). That structure is exactly what lets the DAS bandwidth
/// model (paper Eqs. 1–5) predict the cost of offloading.
pub trait Kernel: Send + Sync {
    /// Operator name, matching its Kernel Features descriptor.
    fn name(&self) -> &'static str;

    /// Element-offset dependence pattern for a raster of width
    /// `img_width` — the `Dependence:` line of the paper's descriptor
    /// format. The offsets do not include the element itself.
    fn dependence_offsets(&self, img_width: u64) -> Vec<i64>;

    /// Compute cost per element in nanoseconds at unit compute rate
    /// (the cluster model divides by its per-node rate).
    fn cost_per_element(&self) -> f64;

    /// Compute the output cell at `(row, col)`.
    fn process_element(&self, src: &dyn ElemSource, row: u64, col: u64) -> f32;

    /// Reference execution over a whole raster.
    fn apply(&self, input: &Raster) -> Raster {
        let src = RasterSource(input);
        let mut out = Raster::filled(input.width(), input.height(), 0.0);
        for row in 0..input.height() {
            for col in 0..input.width() {
                out.set(row, col, self.process_element(&src, row, col));
            }
        }
        out
    }

    /// Compute the output elements with linear indices
    /// `[start, start + out.len())` — the strip-level entry point used
    /// by storage servers, reading through whatever assembly of strips
    /// the executing scheme has made available.
    ///
    /// The source is asked once, for the window
    /// `[start − reach, start + out.len() + reach) ∩ [0, n)` with
    /// `reach` the largest `|offset|` this kernel declares, and every
    /// `process_element` then reads that slice.
    ///
    /// # Panics
    /// Panics if the range runs past the raster, if a read lands on an
    /// element the source does not hold, or if `process_element` reads
    /// an in-bounds element outside the window (the kernel's
    /// `dependence_offsets` under-declare its reach).
    fn process_range(&self, src: &dyn ElemSource, start: u64, out: &mut [f32]) {
        let (width, height) = (src.width(), src.height());
        let (end, n) = (start + out.len() as u64, width * height);
        assert!(end <= n, "{}: elements [{start}, {end}) outside {width}x{height} raster", self.name());
        let reach = self.dependence_offsets(width).iter().map(|o| o.unsigned_abs()).max().unwrap_or(0);
        let lo = start.saturating_sub(reach);
        let (cells, holes) = src.window(lo, end.saturating_add(reach).min(n));
        let window = WindowSource {
            backing: src,
            width,
            height,
            lo,
            cells: &cells,
            holes: &holes,
            kernel: self.name(),
            reach,
        };
        let (mut row, mut col) = (start / width, start % width);
        for slot in out {
            *slot = self.process_element(&window, row, col);
            col += 1;
            if col == width {
                (row, col) = (row + 1, 0);
            }
        }
    }
}

/// The canonical 8-neighbor dependence pattern used by every kernel in
/// the paper's Table I (paper Section III-B example):
/// `-W+1, -W, -W-1, -1, 1, W-1, W, W+1` for image width `W`.
pub fn eight_neighbor_offsets(img_width: u64) -> Vec<i64> {
    let w = img_width as i64;
    vec![-w + 1, -w, -w - 1, -1, 1, w - 1, w, w + 1]
}

/// The 4-neighbor pattern (`-W, -1, 1, W`), the other pattern the paper
/// names as common in data-intensive HEC applications.
pub fn four_neighbor_offsets(img_width: u64) -> Vec<i64> {
    let w = img_width as i64;
    vec![-w, -1, 1, w]
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl Kernel for Identity {
        fn name(&self) -> &'static str {
            "identity"
        }
        fn dependence_offsets(&self, _img_width: u64) -> Vec<i64> {
            Vec::new()
        }
        fn cost_per_element(&self) -> f64 {
            1.0
        }
        fn process_element(&self, src: &dyn ElemSource, row: u64, col: u64) -> f32 {
            src.get(row as i64, col as i64).expect("in bounds")
        }
    }

    #[test]
    fn apply_equals_input_for_identity() {
        let r = Raster::from_fn(5, 4, |row, col| (row + 2 * col) as f32);
        let out = Identity.apply(&r);
        assert_eq!(out, r);
    }

    #[test]
    fn process_range_matches_apply() {
        let r = Raster::from_fn(6, 4, |row, col| (row * 6 + col) as f32);
        let full = Identity.apply(&r);
        let src = RasterSource(&r);
        let mut chunk = vec![0.0f32; 9];
        Identity.process_range(&src, 7, &mut chunk);
        for (k, &v) in chunk.iter().enumerate() {
            assert_eq!(v, full.get_linear(7 + k as u64));
        }
    }

    #[test]
    fn eight_neighbor_pattern_matches_paper_example() {
        // Paper Section III-B, flow-routing record with width `imgWidth`.
        let w = 100;
        assert_eq!(
            eight_neighbor_offsets(w),
            vec![-99, -100, -101, -1, 1, 99, 100, 101]
        );
    }

    #[test]
    fn four_neighbor_pattern() {
        assert_eq!(four_neighbor_offsets(10), vec![-10, -1, 1, 10]);
    }
}
