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
//! cells its task can reach and reads a plain slice from then on. The
//! part of a window a source cannot supply is a **hole**: a read that
//! lands in one goes back to the source's own `get`, so the diagnostic
//! panic above still fires for exactly the reads it fired for before.

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

    /// The element at `(row, col)` with replicate-edge (clamp)
    /// boundary handling — used by the image filters.
    fn get_clamped(&self, row: i64, col: i64) -> f32 {
        let row = row.clamp(0, self.height() as i64 - 1);
        let col = col.clamp(0, self.width() as i64 - 1);
        self.get(row, col).expect("clamped coordinate is in bounds")
    }

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

/// One task's window as a source: what `process_element` reads through
/// inside [`Kernel::process_range`](crate::Kernel::process_range).
pub(crate) struct WindowSource<'a> {
    /// The source the window was cut from: it answers reads that land
    /// in a hole, with the value or with its own diagnostic.
    pub(crate) backing: &'a dyn ElemSource,
    pub(crate) width: u64,
    pub(crate) height: u64,
    /// Linear index of `cells[0]`.
    pub(crate) lo: u64,
    pub(crate) cells: &'a [f32],
    pub(crate) holes: &'a [Range<u64>],
    /// Whose window this is and the reach it declared, for the
    /// out-of-window diagnostic.
    pub(crate) kernel: &'static str,
    pub(crate) reach: u64,
}

impl ElemSource for WindowSource<'_> {
    fn width(&self) -> u64 {
        self.width
    }
    fn height(&self) -> u64 {
        self.height
    }
    fn get(&self, row: i64, col: i64) -> Option<f32> {
        if row < 0 || col < 0 || row as u64 >= self.height || col as u64 >= self.width {
            return None;
        }
        let i = row as u64 * self.width + col as u64;
        let cell = i.checked_sub(self.lo).and_then(|k| self.cells.get(k as usize));
        match cell {
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
        assert_eq!(s.get_clamped(-1, -1), 0.0); // clamps to (0,0)
        assert_eq!(s.get_clamped(5, 5), 8.0); // clamps to (2,2)
        assert_eq!(s.get_clamped(1, -7), 3.0); // clamps to (1,0)
    }
}
