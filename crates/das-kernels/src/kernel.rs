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
use crate::source::{ElemSource, RasterSource, Window};

/// An offloadable data-analysis operation over a 2-D raster.
///
/// Kernels are element-wise: `process_element` computes one output cell
/// from the input cells named by `dependence_offsets` (plus the cell
/// itself). That structure is exactly what lets the DAS bandwidth
/// model (paper Eqs. 1–5) predict the cost of offloading.
///
/// A kernel computes a cell in one of two ways, which must agree bit
/// for bit. [`process_element`](Self::process_element) is the kernel's
/// definition: it reads through a [`Window`] and handles the raster's
/// borders. [`process_interior`](Self::process_interior) computes a run
/// of cells whose every neighbour is at hand, from plain row slices
/// with no border or `Option` handling: the fast path. Every caller
/// goes through [`process_range`](Self::process_range), which picks
/// the path per cell; `process_element` stays the oracle the tests
/// hold the fast path to.
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
    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32;

    /// Compute a run of interior cells of one row, exactly as
    /// `process_element` would.
    ///
    /// With `(R, C)` the half-extents of the block the kernel's
    /// `dependence_offsets` reach (each offset read as `dr·width + dc`
    /// with the nearest row `dr`), `rows` holds the `2·R + 1` input rows
    /// around the run, top to bottom, each cut `C` columns wider than
    /// the run on either side: the neighbour `(dr, dc)` of `out[j]` is
    /// `rows[R + dr][j + C + dc]`. Every one of those cells is in the
    /// raster and held.
    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]);

    /// Reference execution over a whole raster.
    fn apply(&self, input: &Raster) -> Raster {
        let mut out = Raster::filled(input.width(), input.height(), 0.0);
        self.process_range(&RasterSource(input), 0, out.as_mut_slice());
        out
    }

    /// Compute the output elements with linear indices
    /// `[start, start + out.len())` — the strip-level entry point used
    /// by storage servers, reading through whatever assembly of strips
    /// the executing scheme has made available.
    ///
    /// The source is asked once, for the window
    /// `[start − reach, start + out.len() + reach) ∩ [0, n)` with
    /// `reach` the largest `|offset|` this kernel declares. A cell whose
    /// whole block of neighbours lies inside the raster and inside a
    /// hole-free part of that window goes to `process_interior`; every
    /// other cell to `process_element`.
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
        if out.is_empty() {
            return;
        }
        let offsets = self.dependence_offsets(width);
        let reach = offsets.iter().map(|o| o.unsigned_abs()).max().unwrap_or(0);
        let lo = start.saturating_sub(reach);
        let (cells, holes) = src.window(lo, end.saturating_add(reach).min(n));
        let window = Window::new(src, lo, &cells, &holes, self.name(), reach);
        let (up, across) = interior_block(&offsets, width);
        let mut rows: Vec<&[f32]> = Vec::new();
        for row in start / width..=(end - 1) / width {
            let base = row * width;
            let (first, stop) = (start.max(base) - base, (end - base).min(width));
            let slots = &mut out[(base + first - start) as usize..(base + stop - start) as usize];
            let mut next = first;
            for run in window.clear_runs(row, (up, across)) {
                let (from, to) = (run.start.max(next), run.end.min(stop));
                if from >= to {
                    continue;
                }
                for col in next..from {
                    slots[(col - first) as usize] = self.process_element(&window, row, col);
                }
                rows.clear();
                rows.extend(
                    (row - up..=row + up)
                        .map(|y| window.cells(y * width + from - across, y * width + to + across)),
                );
                self.process_interior(
                    &rows,
                    &mut slots[(from - first) as usize..(to - first) as usize],
                );
                next = to;
            }
            for col in next..stop {
                slots[(col - first) as usize] = self.process_element(&window, row, col);
            }
        }
    }
}

/// The half-extents `(rows, cols)` of the block around a cell that
/// `offsets` reach on a raster `width` wide, each offset read as
/// `dr·width + dc` with the nearest row `dr` (`width > 0`).
fn interior_block(offsets: &[i64], width: u64) -> (u64, u64) {
    let w = width as i64;
    let (mut rows, mut cols) = (0, 0);
    for &o in offsets {
        let dr = (o + w / 2).div_euclid(w);
        rows = rows.max(dr.unsigned_abs());
        cols = cols.max((o - dr * w).unsigned_abs());
    }
    (rows, cols)
}

/// Runs `cell` over every `N × N` block of a run of interior cells —
/// the block's rows top to bottom, each left to right, centred on the
/// cell — and stores what it returns: the body of `process_interior`
/// for a kernel whose block is square.
///
/// # Panics
/// Panics unless `rows` holds `N` rows of `out.len() + N − 1` cells.
#[inline]
pub(crate) fn each_block<const N: usize>(
    rows: &[&[f32]],
    out: &mut [f32],
    cell: impl Fn(&[[f32; N]; N]) -> f32,
) {
    let rows: &[&[f32]; N] = rows.try_into().expect("one row per block row");
    for row in rows {
        assert_eq!(
            row.len(),
            out.len() + N - 1,
            "a row spans the run and its block"
        );
    }
    for (j, slot) in out.iter_mut().enumerate() {
        let block: [[f32; N]; N] = std::array::from_fn(|r| std::array::from_fn(|c| rows[r][j + c]));
        *slot = cell(&block);
    }
}

/// The neighbour `(dr, dc)` of the centre of an `N × N` block from
/// [`each_block`].
#[inline]
pub(crate) fn centred<const N: usize>(block: &[[f32; N]; N], dr: i64, dc: i64) -> f32 {
    let r = N as i64 / 2;
    block[(r + dr) as usize][(r + dc) as usize]
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
        fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
            src.get(row as i64, col as i64).expect("in bounds")
        }
        fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
            out.copy_from_slice(rows[0]);
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
