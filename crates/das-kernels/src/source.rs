//! Element sources: how kernels read their input.
//!
//! In the DAS architecture a storage server processes its local strips
//! and may (depending on the scheme) have neighbor strips available as
//! replicas or fetched copies. [`ElemSource`] abstracts over "the data
//! a processing kernel can see": a full raster, or a partial assembly
//! of strips built by the runtime.
//!
//! ### Contract
//!
//! `get(row, col)` returns `None` exactly when the coordinate is
//! outside the raster. For an **in-bounds** coordinate the source MUST
//! return the value — an implementation that cannot (because the byte
//! backing that element was never shipped to this server) must panic
//! with a diagnostic. That panic is a feature: it is how the test
//! suite proves the improved data distribution really makes every
//! dependence locally satisfiable (paper Section III-D) instead of
//! silently computing wrong answers.
//!
//! ### Windows
//!
//! A kernel does not pay that contract's price per element.
//! [`Kernel::process_range`](crate::Kernel::process_range) asks the
//! source once for the [`window`](ElemSource::window) of contiguous
//! cells its task can reach. The part of a window a source cannot
//! supply is a **hole**. Every cell whose whole block of neighbours
//! lies inside the raster and inside a hole-free part of the window is
//! computed by [`Kernel::process_interior`](crate::Kernel::process_interior)
//! straight from the window's row slices. The rest — border cells and
//! cells next to a hole — go through `process_element`, which reads a
//! concrete [`Window`]: a read in its cells is a slice index, and a
//! read that lands in a hole goes back to the source's own `get`, so
//! the diagnostic panic above still fires for exactly the reads it
//! fired for before.

use std::borrow::Cow;
use std::ops::Range;

use crate::raster::Raster;

/// Read access to a `width × height` grid of `f32` elements.
pub trait ElemSource {
    /// Grid width in elements.
    fn width(&self) -> u64;
    /// Grid height in elements.
    fn height(&self) -> u64;
    /// The element at `(row, col)`; `None` iff out of bounds.
    ///
    /// # Panics
    /// Implementations must panic if the coordinate is in bounds but
    /// the backing data is unavailable (see module docs).
    fn get(&self, row: i64, col: i64) -> Option<f32>;

    /// The cells with linear (row-major) indices `[lo, hi)`, contiguous,
    /// and the ascending sub-ranges of `[lo, hi)` this source does not
    /// hold (their cells are filler, never to be read). Any source can
    /// fill a window through `get`; one that stores its cells
    /// contiguously, or can decode them in bulk, overrides this.
    ///
    /// # Panics
    /// Panics unless `lo <= hi <= width · height`.
    fn window(&self, lo: u64, hi: u64) -> (Cow<'_, [f32]>, Vec<Range<u64>>) {
        let width = self.width();
        let cells = (lo..hi)
            .map(|i| self.get((i / width) as i64, (i % width) as i64).expect("window lies inside the raster"))
            .collect();
        (Cow::Owned(cells), Vec::new())
    }
}

/// A whole raster as an element source (the reference path).
pub struct RasterSource<'a>(pub &'a Raster);

impl ElemSource for RasterSource<'_> {
    fn width(&self) -> u64 {
        self.0.width()
    }
    fn height(&self) -> u64 {
        self.0.height()
    }
    fn get(&self, row: i64, col: i64) -> Option<f32> {
        self.0.try_get(row, col)
    }
    fn window(&self, lo: u64, hi: u64) -> (Cow<'_, [f32]>, Vec<Range<u64>>) {
        (Cow::Borrowed(&self.0.as_slice()[lo as usize..hi as usize]), Vec::new())
    }
}

/// One task's window: what `process_element` reads through inside
/// [`Kernel::process_range`](crate::Kernel::process_range).
///
/// A read that lands in the window's cells costs a bounds check and an
/// index. Only a window with holes, or a read outside the window, takes
/// the cold path: a read in a hole goes back to the source it was cut
/// from, and one outside the window panics naming the kernel whose
/// `dependence_offsets` under-declare what it reads.
pub struct Window<'a> {
    /// The source the window was cut from: it answers reads that land
    /// in a hole, with the value or with its own diagnostic.
    backing: &'a dyn ElemSource,
    width: u64,
    height: u64,
    /// Linear index of `cells[0]`.
    lo: u64,
    cells: &'a [f32],
    holes: &'a [Range<u64>],
    /// Whose window this is and the reach it declared, for the
    /// out-of-window diagnostic.
    kernel: &'static str,
    reach: u64,
}

impl<'a> Window<'a> {
    /// The window of `cells` (linear indices `[lo, lo + cells.len())`,
    /// `holes` unheld) cut from `backing` for `kernel`, whose declared
    /// reach is `reach` elements.
    pub(crate) fn new(
        backing: &'a dyn ElemSource,
        lo: u64,
        cells: &'a [f32],
        holes: &'a [Range<u64>],
        kernel: &'static str,
        reach: u64,
    ) -> Self {
        Window {
            backing,
            width: backing.width(),
            height: backing.height(),
            lo,
            cells,
            holes,
            kernel,
            reach,
        }
    }

    /// The element at `(row, col)`; `None` iff out of bounds.
    ///
    /// # Panics
    /// Panics if the element lies outside the window, or in a hole the
    /// source cannot fill (see the module docs).
    #[inline]
    pub fn get(&self, row: i64, col: i64) -> Option<f32> {
        if row < 0 || col < 0 || row as u64 >= self.height || col as u64 >= self.width {
            return None;
        }
        let i = row as u64 * self.width + col as u64;
        match self.cells.get(i.wrapping_sub(self.lo) as usize) {
            Some(&v) if self.holes.is_empty() => Some(v),
            _ => self.get_cold(row, col, i),
        }
    }

    /// The element at `(row, col)` with replicate-edge (clamp)
    /// boundary handling — used by the image filters.
    ///
    /// # Panics
    /// As [`get`](Self::get), for the clamped coordinate.
    #[inline]
    pub fn get_clamped(&self, row: i64, col: i64) -> f32 {
        let row = row.clamp(0, self.height as i64 - 1);
        let col = col.clamp(0, self.width as i64 - 1);
        self.get(row, col).expect("clamped coordinate is in bounds")
    }

    /// An in-bounds read of element `i` that missed the window's plain
    /// cells: in a hole, or outside the window.
    #[cold]
    #[inline(never)]
    fn get_cold(&self, row: i64, col: i64, i: u64) -> Option<f32> {
        match i.checked_sub(self.lo).and_then(|k| self.cells.get(k as usize)) {
            Some(&v) if !self.holes.iter().any(|h| h.contains(&i)) => Some(v),
            Some(_) => self.backing.get(row, col),
            None => panic!(
                "{}: read of element {i} at ({row},{col}) is outside the window [{}, {}) that its declared \
                 reach of {} elements gives the task — dependence_offsets under-declares what \
                 process_element reads",
                self.kernel,
                self.lo,
                self.lo + self.cells.len() as u64,
                self.reach
            ),
        }
    }

    /// The columns of `row` whose `(2·rows + 1) × (2·cols + 1)` block,
    /// centred on the cell, lies inside the raster and inside a
    /// hole-free part of the window: ascending, disjoint runs. Empty on
    /// a raster too narrow for the block's reading of the offsets
    /// (nearest row) to be the only one.
    pub(crate) fn clear_runs(&self, row: u64, (rows, cols): (u64, u64)) -> Vec<Range<u64>> {
        if row < rows || row + rows >= self.height || self.width <= 2 * cols + 1 {
            return Vec::new();
        }
        let (w, c) = (self.width as i64, cols as i64);
        let (top, bottom) = ((row - rows) as i64 * w, (row + rows) as i64 * w);
        let hi = (self.lo + self.cells.len() as u64) as i64;
        // The block's top-left corner must not precede the window, nor
        // its bottom-right one pass it.
        let first = c.max(self.lo as i64 - top + c);
        let end = (w - c).min(hi - bottom - c);
        // Each hole, seen from each row the block spans, rules out the
        // columns whose block would touch it.
        let mut blocked: Vec<(i64, i64)> = self
            .holes
            .iter()
            .flat_map(|h| {
                (row - rows..=row + rows).map(move |r| {
                    (
                        h.start as i64 - r as i64 * w - c,
                        h.end as i64 - r as i64 * w + c,
                    )
                })
            })
            .filter(|&(from, to)| from < end && to > first)
            .collect();
        blocked.sort_unstable();
        let mut runs = Vec::new();
        let mut at = first;
        for (from, to) in blocked {
            if from > at {
                runs.push(at as u64..from as u64);
            }
            at = at.max(to);
        }
        if at < end {
            runs.push(at as u64..end as u64);
        }
        runs
    }

    /// The cells with linear indices `[from, to)`, which must lie in
    /// the window.
    pub(crate) fn cells(&self, from: u64, to: u64) -> &'a [f32] {
        &self.cells[(from - self.lo) as usize..(to - self.lo) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raster_source_delegates() {
        let r = Raster::from_fn(3, 3, |row, col| (row * 3 + col) as f32);
        let s = RasterSource(&r);
        assert_eq!(s.get(1, 1), Some(4.0));
        assert_eq!(s.get(3, 0), None);
        assert_eq!(s.get(-1, 0), None);
    }

    /// A source with nothing but `get` still serves windows.
    struct GetOnly<'a>(&'a Raster);
    impl ElemSource for GetOnly<'_> {
        fn width(&self) -> u64 {
            self.0.width()
        }
        fn height(&self) -> u64 {
            self.0.height()
        }
        fn get(&self, row: i64, col: i64) -> Option<f32> {
            self.0.try_get(row, col)
        }
    }

    #[test]
    fn a_window_is_the_same_cells_however_the_source_fills_it() {
        let r = Raster::from_fn(5, 4, |row, col| (row * 5 + col) as f32);
        let (raster, get_only) = (RasterSource(&r), GetOnly(&r));
        let (lent, lent_holes) = raster.window(3, 17);
        let (filled, filled_holes) = get_only.window(3, 17);
        assert_eq!(&lent[..], &r.as_slice()[3..17]);
        assert_eq!(lent, filled);
        assert!(lent_holes.is_empty() && filled_holes.is_empty());
        assert!(matches!(lent, Cow::Borrowed(_)), "a raster lends its cells");
    }

    #[test]
    fn clamping_replicates_edges() {
        let r = Raster::from_fn(3, 3, |row, col| (row * 3 + col) as f32);
        let s = RasterSource(&r);
        let w = Window::new(&s, 0, r.as_slice(), &[], "test", 0);
        assert_eq!(w.get_clamped(-1, -1), 0.0); // clamps to (0,0)
        assert_eq!(w.get_clamped(5, 5), 8.0); // clamps to (2,2)
        assert_eq!(w.get_clamped(1, -7), 3.0); // clamps to (1,0)
    }

    #[test]
    fn a_block_is_clear_only_inside_the_raster_the_window_and_no_hole() {
        // 10 × 6 raster; the window holds [12, 50) with a hole at
        // [33, 35) = (3,3)..(3,4).
        let r = Raster::from_fn(10, 6, |row, col| (row * 10 + col) as f32);
        let s = RasterSource(&r);
        let cells = &r.as_slice()[12..50];
        let holes = vec![Range { start: 33, end: 35 }];
        let w = Window::new(&s, 12, cells, &holes, "test", 11);
        // Row 0 and the last row have no row above or below.
        assert!(w.clear_runs(0, (1, 1)).is_empty());
        assert!(w.clear_runs(5, (1, 1)).is_empty());
        // Row 2: the block reaches up to row 1 (the window starts at
        // (1,2), so the first clear column is 3) and down to row 3,
        // where columns 2–5 would touch the hole.
        assert_eq!(w.clear_runs(2, (1, 1)), vec![6..9]);
        // Row 4 reaches row 3 (the hole) and row 5 (past the window,
        // which ends at (4,9)).
        assert!(w.clear_runs(4, (1, 1)).is_empty());
        // Without holes, row 2 is clear from column 3 to the border.
        let w = Window::new(&s, 12, cells, &[], "test", 11);
        assert_eq!(w.clear_runs(2, (1, 1)), vec![3..9]);
        // A pointwise block is its own cell: the whole row is clear.
        assert_eq!(w.clear_runs(3, (0, 0)), vec![0..10]);
    }
}
