//! Image-processing kernels: Gaussian smoothing, median filtering and
//! surface slope — the 8-neighbor operations from medical imaging and
//! GIS the paper lists in Section III-C.

use crate::kernel::{centred, each_block, eight_neighbor_offsets, Kernel};
use crate::source::Window;

/// 3×3 Gaussian smoothing (Table I's third kernel), binomial weights
/// `[1 2 1; 2 4 2; 1 2 1] / 16`, replicate-edge boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianFilter;

impl Kernel for GaussianFilter {
    fn name(&self) -> &'static str {
        "gaussian-filter"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        eight_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        220.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        smooth3(|dr, dc| src.get_clamped(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| smooth3(|dr, dc| centred(b, dr, dc)))
    }
}

/// The binomial 3×3 average of the neighbours `at` reads.
#[inline]
fn smooth3(at: impl Fn(i64, i64) -> f32) -> f32 {
    const W: [[f32; 3]; 3] = [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]];
    let mut acc = 0.0f32;
    for (i, wr) in W.iter().enumerate() {
        for (j, &w) in wr.iter().enumerate() {
            acc += w * at(i as i64 - 1, j as i64 - 1);
        }
    }
    acc / 16.0
}

/// 3×3 median filter (impulse-noise removal in medical imaging),
/// replicate-edge boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianFilter;

impl Kernel for MedianFilter {
    fn name(&self) -> &'static str {
        "median-filter"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        eight_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        300.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        median9(|dr, dc| src.get_clamped(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| median9(|dr, dc| centred(b, dr, dc)))
    }
}

/// The median of the 3×3 neighbours `at` reads, under
/// [`f32::total_cmp`] — a total order, so the result does not depend on
/// NaNs being absent: the element a sort by `total_cmp` puts fifth.
#[inline]
// A selection network leaves keys it has placed beside the median
// written and unread.
#[allow(unused_assignments)]
fn median9(at: impl Fn(i64, i64) -> f32) -> f32 {
    let k = |dr, dc| total_key(at(dr, dc));
    let [mut p0, mut p1, mut p2] = [k(-1, -1), k(-1, 0), k(-1, 1)];
    let [mut p3, mut p4, mut p5] = [k(0, -1), k(0, 0), k(0, 1)];
    let [mut p6, mut p7, mut p8] = [k(1, -1), k(1, 0), k(1, 1)];
    // Paeth's 19 compare-exchanges, each leaving the smaller key on the
    // left; afterwards `p4` is the median.
    macro_rules! cx {
        ($a:ident, $b:ident) => {
            ($a, $b) = ($a.min($b), $a.max($b));
        };
    }
    cx!(p1, p2);
    cx!(p4, p5);
    cx!(p7, p8);
    cx!(p0, p1);
    cx!(p3, p4);
    cx!(p6, p7);
    cx!(p1, p2);
    cx!(p4, p5);
    cx!(p7, p8);
    cx!(p0, p3);
    cx!(p5, p8);
    cx!(p4, p7);
    cx!(p3, p6);
    cx!(p1, p4);
    cx!(p2, p5);
    cx!(p4, p7);
    cx!(p4, p2);
    cx!(p6, p4);
    cx!(p4, p2);
    f32::from_bits(total_key_inverse(p4))
}

/// The integer [`f32::total_cmp`] compares: the bits, with the
/// magnitude bits of a negative value flipped, so that integer order is
/// the total order.
#[inline]
fn total_key(v: f32) -> i32 {
    let bits = v.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The bits of the `f32` whose [`total_key`] is `key` (the map is its
/// own inverse).
#[inline]
fn total_key_inverse(key: i32) -> u32 {
    (key ^ (((key >> 31) as u32) >> 1) as i32) as u32
}

/// Surface slope: maximum elevation drop to any of the 8 neighbors
/// (diagonals scaled by 1/√2), in elevation units per cell. Flat or
/// locally-minimal cells report 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlopeAnalysis;

impl Kernel for SlopeAnalysis {
    fn name(&self) -> &'static str {
        "slope-analysis"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        eight_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        200.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        steepest_drop(|dr, dc| src.get(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| {
            steepest_drop(|dr, dc| Some(centred(b, dr, dc)))
        })
    }
}

/// The largest distance-scaled drop from the centre to a neighbour `at`
/// reads (`None` off the grid), or 0.
#[inline]
fn steepest_drop(at: impl Fn(i64, i64) -> Option<f32>) -> f32 {
    const INV_SQRT2: f32 = std::f32::consts::FRAC_1_SQRT_2;
    let center = at(0, 0).expect("center cell in bounds");
    let mut max_drop = 0.0f32;
    for dr in -1i64..=1 {
        for dc in -1i64..=1 {
            if dr == 0 && dc == 0 {
                continue;
            }
            if let Some(v) = at(dr, dc) {
                let dist = if dr != 0 && dc != 0 { INV_SQRT2 } else { 1.0 };
                let drop = (center - v) * dist;
                if drop > max_drop {
                    max_drop = drop;
                }
            }
        }
    }
    max_drop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Raster;

    #[test]
    fn gaussian_preserves_constant_field() {
        let r = Raster::filled(8, 8, 3.25);
        let out = GaussianFilter.apply(&r);
        for &v in out.as_slice() {
            assert_eq!(v, 3.25);
        }
    }

    #[test]
    fn gaussian_smooths_an_impulse() {
        let mut r = Raster::filled(5, 5, 0.0);
        r.set(2, 2, 16.0);
        let out = GaussianFilter.apply(&r);
        assert_eq!(out.get(2, 2), 4.0); // 16·4/16
        assert_eq!(out.get(2, 1), 2.0); // 16·2/16
        assert_eq!(out.get(1, 1), 1.0); // 16·1/16
        assert_eq!(out.get(0, 0), 0.0);
        // Total mass is conserved away from boundaries.
        assert_eq!(out.sum(), 16.0);
    }

    #[test]
    fn gaussian_output_within_input_range() {
        let r = Raster::from_fn(16, 16, |row, col| ((row * 31 + col * 17) % 97) as f32);
        let (lo, hi) = r.min_max();
        let out = GaussianFilter.apply(&r);
        let (olo, ohi) = out.min_max();
        assert!(olo >= lo && ohi <= hi);
    }

    /// The sort the network replaces: the fifth of nine by `total_cmp`.
    fn median_by_sort(mut window: [f32; 9]) -> f32 {
        window.sort_unstable_by(f32::total_cmp);
        window[4]
    }

    fn median_of(window: [f32; 9]) -> f32 {
        median9(|dr, dc| window[((dr + 1) * 3 + dc + 1) as usize])
    }

    /// By the 0-1 principle the network selects the median of any nine
    /// keys if it does for every 0/1 input; over values that `==`
    /// cannot order (NaNs of both signs, ±0, ±∞) it picks the same bits
    /// as the sort.
    #[test]
    fn median9_network_selects_the_sorts_median_bit_for_bit() {
        for mask in 0u32..1 << 9 {
            let window: [f32; 9] = std::array::from_fn(|i| (mask >> i & 1) as f32);
            assert_eq!(median_of(window).to_bits(), median_by_sort(window).to_bits(), "mask {mask:09b}");
        }
        let specials = [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5, -2.5, f32::MIN_POSITIVE];
        let mut state = 0x9E37_79B9u32;
        for _ in 0..2000 {
            let window: [f32; 9] = std::array::from_fn(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                specials[(state >> 24) as usize % specials.len()]
            });
            assert_eq!(median_of(window).to_bits(), median_by_sort(window).to_bits(), "{window:?}");
        }
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut r = Raster::filled(5, 5, 1.0);
        r.set(2, 2, 1000.0); // single outlier
        let out = MedianFilter.apply(&r);
        assert_eq!(out.get(2, 2), 1.0);
    }

    #[test]
    fn median_of_constant_is_constant() {
        let r = Raster::filled(6, 3, -2.5);
        let out = MedianFilter.apply(&r);
        assert!(out.as_slice().iter().all(|&v| v == -2.5));
    }

    #[test]
    fn median_hand_computed_window() {
        // 3x3 raster holding 1..9 → median at center is 5.
        let r = Raster::from_fn(3, 3, |row, col| (row * 3 + col + 1) as f32);
        let out = MedianFilter.apply(&r);
        assert_eq!(out.get(1, 1), 5.0);
    }

    #[test]
    fn slope_zero_on_flat_and_rising_terrain() {
        let flat = Raster::filled(4, 4, 7.0);
        assert!(SlopeAnalysis.apply(&flat).as_slice().iter().all(|&v| v == 0.0));
        // A local minimum has no positive drop.
        let mut bowl = Raster::filled(3, 3, 5.0);
        bowl.set(1, 1, 1.0);
        assert_eq!(SlopeAnalysis.apply(&bowl).get(1, 1), 0.0);
    }

    #[test]
    fn slope_measures_steepest_drop() {
        let mut r = Raster::filled(3, 3, 10.0);
        r.set(1, 1, 10.0);
        r.set(1, 0, 4.0); // cardinal drop of 6
        r.set(0, 0, 1.0); // diagonal drop of 9·(1/√2) ≈ 6.36 — steeper
        let out = SlopeAnalysis.apply(&r);
        let expected = 9.0 * std::f32::consts::FRAC_1_SQRT_2;
        assert!((out.get(1, 1) - expected).abs() < 1e-6);
    }

    #[test]
    fn filters_declare_eight_neighbor_dependence() {
        for k in [
            &GaussianFilter as &dyn Kernel,
            &MedianFilter,
            &SlopeAnalysis,
        ] {
            assert_eq!(k.dependence_offsets(128).len(), 8);
        }
    }
}
