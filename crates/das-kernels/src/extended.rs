//! Extension kernels beyond the paper's Table I.
//!
//! These widen the dependence-pattern space the DAS machinery is
//! exercised against:
//!
//! * [`SobelEdge`] — another 8-neighbor (radius-1) operator, from the
//!   image-processing domain the paper targets;
//! * [`GaussianFilter5x5`] — a **radius-2** stencil: 24 dependence
//!   offsets spanning two rows in each direction, probing how the
//!   planner and predictor handle wider-than-usual patterns;
//! * [`LocalVariance`] — 3×3 windowed variance (texture analysis);
//! * [`PointwiseScale`] — a dependence-**free** operator: the ideal
//!   active-storage case the paper's Section I describes ("each active
//!   storage node does not need to request dependent data"), under
//!   which NAS and DAS coincide.

use crate::kernel::{centred, each_block, Kernel};
use crate::source::Window;

/// Sobel gradient magnitude (3×3, replicate-edge): classic edge
/// detection over the paper's medical/GIS rasters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SobelEdge;

impl Kernel for SobelEdge {
    fn name(&self) -> &'static str {
        "sobel-edge"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        crate::kernel::eight_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        180.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        sobel(|dr, dc| src.get_clamped(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| sobel(|dr, dc| centred(b, dr, dc)))
    }
}

/// The Sobel gradient magnitude over the neighbours `px` reads.
#[inline]
fn sobel(px: impl Fn(i64, i64) -> f32) -> f32 {
    let gx = (px(-1, 1) + 2.0 * px(0, 1) + px(1, 1)) - (px(-1, -1) + 2.0 * px(0, -1) + px(1, -1));
    let gy = (px(1, -1) + 2.0 * px(1, 0) + px(1, 1)) - (px(-1, -1) + 2.0 * px(-1, 0) + px(-1, 1));
    (gx * gx + gy * gy).sqrt()
}

/// 5×5 Gaussian smoothing — a radius-2 stencil with 24 dependence
/// offsets (`±2·imgWidth ± 2 …`). Binomial weights (outer product of
/// `[1 4 6 4 1]/16`), replicate-edge boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianFilter5x5;

impl Kernel for GaussianFilter5x5 {
    fn name(&self) -> &'static str {
        "gaussian-filter-5x5"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        let w = img_width as i64;
        let mut out = Vec::with_capacity(24);
        for dr in -2i64..=2 {
            for dc in -2i64..=2 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                out.push(dr * w + dc);
            }
        }
        out
    }

    fn cost_per_element(&self) -> f64 {
        450.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        smooth5(|dr, dc| src.get_clamped(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<5>(rows, out, |b| smooth5(|dr, dc| centred(b, dr, dc)))
    }
}

/// The binomial 5×5 average of the neighbours `at` reads.
#[inline]
fn smooth5(at: impl Fn(i64, i64) -> f32) -> f32 {
    const W: [f32; 5] = [1.0, 4.0, 6.0, 4.0, 1.0];
    let mut acc = 0.0f32;
    for (i, wr) in W.iter().enumerate() {
        for (j, wc) in W.iter().enumerate() {
            acc += wr * wc * at(i as i64 - 2, j as i64 - 2);
        }
    }
    acc / 256.0
}

/// 3×3 local variance (population variance of the window) — texture /
/// heterogeneity analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalVariance;

impl Kernel for LocalVariance {
    fn name(&self) -> &'static str {
        "local-variance"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        crate::kernel::eight_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        160.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        variance9(|dr, dc| src.get_clamped(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| variance9(|dr, dc| centred(b, dr, dc)))
    }
}

/// The population variance of the 3×3 neighbours `at` reads.
#[inline]
fn variance9(at: impl Fn(i64, i64) -> f32) -> f32 {
    let mut sum = 0.0f32;
    let mut sq = 0.0f32;
    for dr in -1..=1 {
        for dc in -1..=1 {
            let v = at(dr, dc);
            sum += v;
            sq += v * v;
        }
    }
    let mean = sum / 9.0;
    (sq / 9.0 - mean * mean).max(0.0)
}

/// 4-neighbor (von Neumann) Laplacian: `Δx = N + S + E + W − 4·center`
/// with replicate-edge boundary — the paper's *other* common
/// dependence pattern ("the most useful data dependence patterns are
/// 4-neighbor and 8-neighbor patterns", Section III-C).
#[derive(Debug, Clone, Copy, Default)]
pub struct Laplacian4;

impl Kernel for Laplacian4 {
    fn name(&self) -> &'static str {
        "laplacian-4"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        crate::kernel::four_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        100.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        laplacian(|dr, dc| src.get_clamped(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| laplacian(|dr, dc| centred(b, dr, dc)))
    }
}

/// The 4-neighbour Laplacian of the cells `at` reads: the four
/// neighbours and the centre, nothing diagonal.
#[inline]
fn laplacian(at: impl Fn(i64, i64) -> f32) -> f32 {
    at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1) - 4.0 * at(0, 0)
}

/// Dependence-free pointwise transform (`x → scale·x + offset`): the
/// paper's ideal offloading case — every storage server processes its
/// local strips with no neighbor data whatsoever.
#[derive(Debug, Clone, Copy)]
pub struct PointwiseScale {
    /// Multiplier.
    pub scale: f32,
    /// Additive offset.
    pub offset: f32,
}

impl Default for PointwiseScale {
    fn default() -> Self {
        PointwiseScale { scale: 1.0, offset: 0.0 }
    }
}

impl Kernel for PointwiseScale {
    fn name(&self) -> &'static str {
        "pointwise-scale"
    }

    fn dependence_offsets(&self, _img_width: u64) -> Vec<i64> {
        Vec::new()
    }

    fn cost_per_element(&self) -> f64 {
        20.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        self.scale * src.get(row as i64, col as i64).expect("center in bounds") + self.offset
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        for (slot, &v) in out.iter_mut().zip(rows[0]) {
            *slot = self.scale * v + self.offset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Raster;
    use crate::workload;

    #[test]
    fn sobel_zero_on_constant_strong_on_step() {
        let flat = Raster::filled(8, 8, 5.0);
        assert!(SobelEdge.apply(&flat).as_slice().iter().all(|&v| v == 0.0));

        // Vertical step edge: strong response along the boundary.
        let step = Raster::from_fn(8, 8, |_r, c| if c < 4 { 0.0 } else { 10.0 });
        let out = SobelEdge.apply(&step);
        assert!(out.get(4, 3) > 0.0 || out.get(4, 4) > 0.0);
        // Far from the edge: flat.
        assert_eq!(out.get(4, 1), 0.0);
        assert_eq!(out.get(4, 6), 0.0);
    }

    #[test]
    fn gaussian5x5_constant_preserving_and_bounded() {
        let flat = Raster::filled(10, 10, -1.5);
        for &v in GaussianFilter5x5.apply(&flat).as_slice() {
            assert!((v - -1.5).abs() < 1e-6);
        }
        let noisy = workload::white_noise(16, 16, 4);
        let (lo, hi) = noisy.min_max();
        let (olo, ohi) = GaussianFilter5x5.apply(&noisy).min_max();
        assert!(olo >= lo - 1e-5 && ohi <= hi + 1e-5);
    }

    #[test]
    fn gaussian5x5_declares_24_offsets_spanning_two_rows() {
        let offsets = GaussianFilter5x5.dependence_offsets(100);
        assert_eq!(offsets.len(), 24);
        assert!(offsets.contains(&-202)); // -2·W - 2
        assert!(offsets.contains(&202));
        assert!(offsets.contains(&-1));
        assert!(!offsets.contains(&0));
    }

    #[test]
    fn variance_zero_on_constant_positive_on_noise() {
        let flat = Raster::filled(6, 6, 3.0);
        assert!(LocalVariance.apply(&flat).as_slice().iter().all(|&v| v == 0.0));
        let noisy = workload::white_noise(12, 12, 9);
        let out = LocalVariance.apply(&noisy);
        assert!(out.as_slice().iter().any(|&v| v > 0.0));
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn variance_hand_computed() {
        // Window of the center cell: eight 0s and one 9 → mean 1,
        // E[x²] = 9, var = 8.
        let mut r = Raster::filled(3, 3, 0.0);
        r.set(1, 1, 9.0);
        let out = LocalVariance.apply(&r);
        assert!((out.get(1, 1) - 8.0).abs() < 1e-5);
    }

    #[test]
    fn laplacian_zero_on_linear_fields() {
        // The discrete Laplacian annihilates affine functions away
        // from the (clamped) boundary.
        let plane = Raster::from_fn(8, 8, |r, c| 3.0 * r as f32 - 2.0 * c as f32 + 1.0);
        let out = Laplacian4.apply(&plane);
        for r in 1..7 {
            for c in 1..7 {
                assert!(out.get(r, c).abs() < 1e-4, "({r},{c}) = {}", out.get(r, c));
            }
        }
    }

    #[test]
    fn laplacian_detects_a_spike() {
        let r = workload::impulse(5, 5, 2, 2, 4.0);
        let out = Laplacian4.apply(&r);
        assert_eq!(out.get(2, 2), -16.0);
        assert_eq!(out.get(1, 2), 4.0);
        assert_eq!(out.get(0, 0), 0.0);
    }

    #[test]
    fn laplacian_declares_four_neighbor_pattern() {
        assert_eq!(Laplacian4.dependence_offsets(10), vec![-10, -1, 1, 10]);
    }

    #[test]
    fn pointwise_is_affine_and_dependence_free() {
        let r = Raster::from_fn(4, 4, |row, col| (row * 4 + col) as f32);
        let k = PointwiseScale { scale: 2.0, offset: 1.0 };
        let out = k.apply(&r);
        for i in 0..16 {
            assert_eq!(out.get_linear(i), 2.0 * i as f32 + 1.0);
        }
        assert!(k.dependence_offsets(4).is_empty());
    }
}
