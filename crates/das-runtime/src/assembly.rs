//! Strip assemblies: the data a node actually has, as an
//! [`ElemSource`] for kernels.
//!
//! Each scheme delivers a different set of strips to each processing
//! node (TS: a row block plus halo; NAS: local strips plus fetched
//! neighbors; DAS: local strips plus replicas). A [`StripAssembly`]
//! holds exactly that set and serves element reads out of it. If a
//! kernel touches an in-bounds element whose strip the executor never
//! delivered, the assembly **panics with a precise diagnostic** — the
//! mechanism by which the integration tests prove each scheme's data
//! movement is sufficient, not just that its output looks right.
//!
//! Kernels do not come here per element: `Kernel::process_range` takes
//! one [`window`](ElemSource::window) per task — the held strips it
//! overlaps decoded into contiguous `f32`s, every absent one a hole —
//! and only a read that lands in a hole comes back to meet the panic.

use std::borrow::Cow;
use std::ops::Range;

use bytes::Bytes;
use das_kernels::{cells_from_le_bytes, ElemSource, Kernel};
use das_pfs::StripId;

/// Element size this workspace's rasters use (f32).
const ELEMENT_SIZE: u64 = 4;

/// A partial view of a striped raster file: geometry plus whichever
/// strips one node holds.
#[derive(Debug, Clone)]
pub struct StripAssembly {
    width: u64,
    height: u64,
    strip_size: u64,
    /// One slot per strip of the file, indexed by strip id.
    strips: Vec<Option<Bytes>>,
    /// Where the assembly lives, for panic diagnostics
    /// (e.g. `"DAS server 3"`).
    label: String,
}

impl StripAssembly {
    /// Create an empty assembly for a `width × height` f32 raster
    /// striped at `strip_size` bytes.
    ///
    /// # Panics
    /// Panics unless the strip size is a positive multiple of the
    /// element size.
    pub fn new(width: u64, height: u64, strip_size: usize, label: impl Into<String>) -> Self {
        let strip_size = strip_size as u64;
        assert!(
            strip_size > 0 && strip_size.is_multiple_of(ELEMENT_SIZE),
            "strip size must be a positive multiple of {ELEMENT_SIZE}"
        );
        let strips = (width * height * ELEMENT_SIZE).div_ceil(strip_size);
        StripAssembly {
            width,
            height,
            strip_size,
            strips: vec![None; usize::try_from(strips).expect("strip table fits in memory")],
            label: label.into(),
        }
    }

    /// Add a strip's bytes. Re-adding the same strip is allowed (a
    /// replica has identical content by the PFS invariant).
    ///
    /// # Panics
    /// Panics if the file has no such strip or `data` is not exactly
    /// its length (the strip size; the file's tail for the last strip):
    /// refused here, a mis-sized strip cannot surface as an index out of
    /// range inside a kernel.
    pub fn insert(&mut self, strip: StripId, data: Bytes) {
        let rest = (self.width * self.height * ELEMENT_SIZE).saturating_sub(strip.0.saturating_mul(self.strip_size));
        let (expected, len) = (rest.min(self.strip_size), data.len());
        assert!(
            expected > 0 && len as u64 == expected,
            "{}: strip {} is {len} bytes, expected {expected} (0: the {}-strip file has no such strip)",
            self.label,
            strip.0,
            self.strips.len()
        );
        self.strips[strip.0 as usize] = Some(data);
    }

    /// Drop a strip again, returning its bytes if it was held.
    pub fn remove(&mut self, strip: StripId) -> Option<Bytes> {
        self.strips.get_mut(strip.0 as usize).and_then(Option::take)
    }

    /// Whether the assembly holds `strip`.
    pub fn contains(&self, strip: StripId) -> bool {
        self.strips.get(strip.0 as usize).is_some_and(Option::is_some)
    }

    /// Number of strips held.
    pub fn strip_count(&self) -> usize {
        self.strips.iter().flatten().count()
    }

    /// Run `kernel` over strip `t`'s elements — the range this
    /// assembly's own geometry gives the strip, the file's tail for the
    /// last — and return `(start element, output)`. The in-process
    /// runner and the daemon's Execute both compute a strip here.
    pub fn compute_strip(&self, kernel: &dyn Kernel, t: StripId) -> (u64, Vec<f32>) {
        let per_strip = self.strip_size / ELEMENT_SIZE;
        let start = t.0 * per_strip;
        let mut out = vec![0f32; ((start + per_strip).min(self.width * self.height) - start) as usize];
        kernel.process_range(self, start, &mut out);
        (start, out)
    }

    /// Read the element with linear index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or its strip is missing.
    pub fn get_linear(&self, i: u64) -> f32 {
        assert!(
            i < self.width * self.height,
            "{}: element {i} outside {}x{} raster",
            self.label,
            self.width,
            self.height
        );
        let byte = i * ELEMENT_SIZE;
        let strip = byte / self.strip_size;
        let data = self.strips[strip as usize].as_ref().unwrap_or_else(|| {
            panic!(
                "{}: element {i} needs strip {strip}, which this node does not hold — \
                 the executing scheme's data movement is insufficient",
                self.label
            )
        });
        let off = (byte % self.strip_size) as usize;
        f32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]])
    }
}

impl ElemSource for StripAssembly {
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
        Some(self.get_linear(row as u64 * self.width + col as u64))
    }

    /// Decode the held strips overlapping `[lo, hi)` once; each run of
    /// strips this node does not hold is one hole.
    fn window(&self, lo: u64, hi: u64) -> (Cow<'_, [f32]>, Vec<Range<u64>>) {
        assert!(lo <= hi && hi <= self.width * self.height, "{}: no window [{lo}, {hi}) in the raster", self.label);
        let per_strip = self.strip_size / ELEMENT_SIZE;
        let mut cells = vec![0f32; (hi - lo) as usize];
        let mut holes: Vec<Range<u64>> = Vec::new();
        for strip in lo / per_strip..hi.div_ceil(per_strip) {
            let first = strip * per_strip;
            let (from, to) = (first.max(lo), (first + per_strip).min(hi));
            match &self.strips[strip as usize] {
                Some(data) => {
                    let held = cells_from_le_bytes(&data[((from - first) * ELEMENT_SIZE) as usize..]);
                    for (cell, v) in cells[(from - lo) as usize..(to - lo) as usize].iter_mut().zip(held) {
                        *cell = v;
                    }
                }
                None => match holes.last_mut() {
                    Some(hole) if hole.end == from => hole.end = to,
                    _ => holes.push(from..to),
                },
            }
        }
        (Cow::Owned(cells), holes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_kernels::Raster;

    fn assembled(width: u64, height: u64, strip_size: usize) -> (Raster, StripAssembly) {
        let raster = Raster::from_fn(width, height, |r, c| (r * width + c) as f32);
        let bytes = raster.to_bytes();
        let mut asm = StripAssembly::new(width, height, strip_size, "test");
        for (i, chunk) in bytes.chunks(strip_size).enumerate() {
            asm.insert(StripId(i as u64), Bytes::copy_from_slice(chunk));
        }
        (raster, asm)
    }

    #[test]
    fn full_assembly_reads_every_element() {
        let (raster, asm) = assembled(7, 5, 12); // 12 B = 3 elements/strip
        for row in 0..5 {
            for col in 0..7 {
                assert_eq!(asm.get(row as i64, col as i64), Some(raster.get(row, col)));
            }
        }
        assert_eq!(asm.get(-1, 0), None);
        assert_eq!(asm.get(0, 7), None);
        assert_eq!(asm.get(5, 0), None);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn missing_strip_panics_with_diagnostic() {
        let (_, asm) = assembled(8, 4, 16);
        // Remove strip 2 by rebuilding without it.
        let mut partial = StripAssembly::new(8, 4, 16, "DAS server 3");
        for s in [0u64, 1, 3, 4, 5, 6, 7] {
            if asm.contains(StripId(s)) {
                // copy over via get_linear path is awkward; reinsert raw
                partial.insert(StripId(s), Bytes::from(vec![0u8; 16]));
            }
        }
        let _ = asm; // original untouched
        let _ = partial.get(1, 1); // element 9 → byte 36 → strip 2 → panic
    }

    #[test]
    fn partial_assembly_serves_what_it_holds() {
        let (raster, _) = assembled(8, 4, 16);
        let bytes = raster.to_bytes();
        let mut asm = StripAssembly::new(8, 4, 16, "client 0");
        asm.insert(StripId(0), Bytes::copy_from_slice(&bytes[0..16]));
        assert_eq!(asm.get(0, 0), Some(0.0));
        assert_eq!(asm.get(0, 3), Some(3.0));
        assert_eq!(asm.strip_count(), 1);
        assert!(asm.contains(StripId(0)));
        assert!(!asm.contains(StripId(1)));
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn unaligned_strip_size_rejected() {
        let _ = StripAssembly::new(4, 4, 10, "bad");
    }

    #[test]
    fn window_decodes_held_strips_and_reports_runs_of_absent_ones_as_holes() {
        let (raster, full) = assembled(7, 5, 12); // 35 elements, 3 per strip
        let (cells, holes) = full.window(4, 31);
        assert_eq!(&cells[..], &raster.as_slice()[4..31]);
        assert!(holes.is_empty());

        let mut partial = full.clone();
        for s in [2, 3, 7] {
            assert!(partial.remove(StripId(s)).is_some());
        }
        assert_eq!(partial.remove(StripId(7)), None);
        let (cells, holes) = partial.window(4, 31);
        assert_eq!(holes, vec![6..12, 21..24]);
        for i in (4..31).filter(|i| !holes.iter().any(|h| h.contains(i))) {
            assert_eq!(cells[(i - 4) as usize], raster.get_linear(i), "element {i}");
        }
    }

    #[test]
    #[should_panic(expected = "strip 1 is 12 bytes, expected 16")]
    fn short_strip_rejected_at_insert() {
        let mut asm = StripAssembly::new(8, 4, 16, "dasd2");
        asm.insert(StripId(1), Bytes::from(vec![0u8; 12]));
    }

    #[test]
    #[should_panic(expected = "strip 11 is 12 bytes, expected 8")]
    fn over_long_tail_strip_rejected_at_insert() {
        // 7·5·4 = 140 B in 12 B strips: strip 11 is the 8 B tail.
        let mut asm = StripAssembly::new(7, 5, 12, "dasd2");
        asm.insert(StripId(11), Bytes::from(vec![0u8; 12]));
    }

    #[test]
    #[should_panic(expected = "dasd2: strip 8 is 16 bytes, expected 0 (0: the 8-strip file has no such strip)")]
    fn strip_outside_the_file_rejected_at_insert() {
        let mut asm = StripAssembly::new(8, 4, 16, "dasd2");
        asm.insert(StripId(8), Bytes::from(vec![0u8; 16]));
    }
}
