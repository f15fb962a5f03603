//! Row-major 2-D rasters of `f32` cells.
//!
//! A raster is the in-memory form of the files the DAS schemes process:
//! a map/image of `height` rows by `width` columns, serialized row-major
//! as little-endian `f32` (element size `E = 4`, the `E` of the paper's
//! equations).

use std::fmt;

/// Size of one raster element in bytes (the paper's `E`).
pub const ELEMENT_SIZE: usize = 4;

/// Serialize cells as little-endian `f32`: the form raster data takes
/// in a strip, on disk and on the wire.
pub fn cells_to_le_bytes(cells: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(cells.len() * ELEMENT_SIZE);
    for v in cells {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The cells serialized in `bytes` (whole elements; a ragged tail is
/// ignored), in order — the inverse of [`cells_to_le_bytes`].
pub fn cells_from_le_bytes(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes.chunks_exact(ELEMENT_SIZE).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// A dense row-major grid of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    width: u64,
    height: u64,
    data: Vec<f32>,
}

impl Raster {
    /// Allocate a raster filled with `fill`.
    ///
    /// # Panics
    /// Panics if either dimension is zero or the cell count overflows.
    pub fn filled(width: u64, height: u64, fill: f32) -> Self {
        assert!(width > 0 && height > 0, "raster dimensions must be positive");
        let cells = usize::try_from(width.checked_mul(height).expect("cell count overflow"))
            .expect("raster fits in memory");
        Raster { width, height, data: vec![fill; cells] }
    }

    /// Build a raster by evaluating `f(row, col)` at every cell.
    pub fn from_fn(width: u64, height: u64, mut f: impl FnMut(u64, u64) -> f32) -> Self {
        let mut r = Raster::filled(width, height, 0.0);
        for row in 0..height {
            for col in 0..width {
                r.set(row, col, f(row, col));
            }
        }
        r
    }

    /// Width in cells.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Height in cells.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Total number of cells.
    pub fn cells(&self) -> u64 {
        self.width * self.height
    }

    /// Size of the serialized raster in bytes.
    pub fn byte_len(&self) -> u64 {
        self.cells() * ELEMENT_SIZE as u64
    }

    fn idx(&self, row: u64, col: u64) -> usize {
        debug_assert!(row < self.height && col < self.width, "({row},{col}) out of range");
        usize::try_from(row * self.width + col).expect("index fits usize")
    }

    /// Read the cell at `(row, col)`.
    ///
    /// # Panics
    /// Panics (in debug) or misindexes (in release) when out of range;
    /// use [`try_get`](Self::try_get) for checked access.
    pub fn get(&self, row: u64, col: u64) -> f32 {
        self.data[self.idx(row, col)]
    }

    /// Checked read; `None` out of range (signed coordinates welcome).
    pub fn try_get(&self, row: i64, col: i64) -> Option<f32> {
        if row < 0 || col < 0 {
            return None;
        }
        let (row, col) = (row as u64, col as u64);
        if row >= self.height || col >= self.width {
            None
        } else {
            Some(self.data[self.idx(row, col)])
        }
    }

    /// Write the cell at `(row, col)`.
    pub fn set(&mut self, row: u64, col: u64, value: f32) {
        let i = self.idx(row, col);
        self.data[i] = value;
    }

    /// Flat (row-major) element read by linear index.
    pub fn get_linear(&self, i: u64) -> f32 {
        self.data[usize::try_from(i).expect("index fits usize")]
    }

    /// Flat (row-major) element write by linear index.
    pub fn set_linear(&mut self, i: u64, value: f32) {
        let i = usize::try_from(i).expect("index fits usize");
        self.data[i] = value;
    }

    /// The underlying row-major cells.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major cells, writable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Serialize row-major as little-endian `f32`.
    pub fn to_bytes(&self) -> Vec<u8> {
        cells_to_le_bytes(&self.data)
    }

    /// Deserialize from [`to_bytes`](Self::to_bytes) output.
    ///
    /// # Panics
    /// Panics if `bytes.len() != width·height·4`.
    pub fn from_bytes(width: u64, height: u64, bytes: &[u8]) -> Self {
        let cells = usize::try_from(width * height).expect("cell count fits usize");
        assert_eq!(
            bytes.len(),
            cells * ELEMENT_SIZE,
            "byte length does not match {width}x{height} raster"
        );
        Raster { width, height, data: cells_from_le_bytes(bytes).collect() }
    }

    /// A bit-exact fingerprint of the raster contents (FNV-1a over the
    /// serialized bytes). Used to compare scheme outputs exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for v in &self.data {
            for b in v.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x100000001b3);
            }
        }
        hash
    }

    /// Minimum and maximum cell values (NaN cells are ignored).
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        (lo, hi)
    }

    /// Sum of all cells in `f64` (mass-conservation checks).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v)).sum()
    }
}

impl fmt::Display for Raster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Raster {}x{} ({} bytes)", self.width, self.height, self.byte_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let r = Raster::from_fn(3, 2, |row, col| (row * 10 + col) as f32);
        assert_eq!(r.get(0, 0), 0.0);
        assert_eq!(r.get(1, 2), 12.0);
        assert_eq!(r.get_linear(5), 12.0);
        assert_eq!(r.cells(), 6);
        assert_eq!(r.byte_len(), 24);
    }

    #[test]
    fn try_get_bounds() {
        let r = Raster::filled(2, 2, 1.0);
        assert_eq!(r.try_get(0, 0), Some(1.0));
        assert_eq!(r.try_get(-1, 0), None);
        assert_eq!(r.try_get(0, 2), None);
        assert_eq!(r.try_get(2, 0), None);
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let r = Raster::from_fn(7, 5, |row, col| (row as f32).sin() * (col as f32 + 0.5));
        let bytes = r.to_bytes();
        let back = Raster::from_bytes(7, 5, &bytes);
        assert_eq!(r, back);
        assert_eq!(r.fingerprint(), back.fingerprint());
    }

    #[test]
    fn fingerprint_detects_single_bit_change() {
        let a = Raster::filled(4, 4, 0.5);
        let mut b = a.clone();
        b.set(3, 3, 0.5000001);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn min_max_and_sum() {
        let r = Raster::from_fn(2, 2, |row, col| (row * 2 + col) as f32);
        assert_eq!(r.min_max(), (0.0, 3.0));
        assert_eq!(r.sum(), 6.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = Raster::filled(0, 3, 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_bytes_length_checked() {
        let _ = Raster::from_bytes(2, 2, &[0u8; 15]);
    }
}
