//! Property tests on kernel semantics: invariances, ranges, and the
//! strip-level processing path agreeing with whole-raster application
//! and with the kernels' own per-element definitions.

use std::borrow::Cow;
use std::ops::Range;

use das_kernels::{
    flow_accumulation_global, kernel_by_name, kernel_names, workload, ElemSource,
    FlowAccumulationStep, FlowRouting, GaussianFilter, Kernel, MedianFilter, Raster, RasterSource,
    SlopeAnalysis,
};
use proptest::prelude::*;

/// Smooth terrain, and rasters built to trip a fast path that differs
/// from the definition: few distinct values (ties), signed zeros, NaN
/// and infinities, one to three columns wide, odd heights.
fn arb_raster() -> impl Strategy<Value = Raster> {
    let terrain =
        (2u64..24, 2u64..24, any::<u64>()).prop_map(|(w, h, seed)| workload::fbm_dem(w, h, seed));
    let awkward = (1u64..24, 0u64..12, any::<u64>()).prop_map(|(w, half, seed)| {
        let (w, h) = (if seed % 2 == 0 { 1 + w % 3 } else { w }, 2 * half + 1);
        const SPECIAL: [f32; 6] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0];
        let dem = workload::fbm_dem(w, h, seed);
        Raster::from_fn(w, h, |row, col| {
            let pick = (seed >> 8)
                .wrapping_add(row * 31 + col * 17)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                >> 58;
            match pick {
                0..=5 => SPECIAL[pick as usize],
                // Quantised terrain: plenty of exact ties.
                _ => (dem.get(row, col) * 4.0).round(),
            }
        })
    });
    prop_oneof![terrain, awkward]
}

fn all_kernels() -> Vec<Box<dyn Kernel>> {
    kernel_names()
        .iter()
        .map(|&name| kernel_by_name(name).expect("registered kernel"))
        .collect()
}

/// A raster whose every window is one hole: each cell of a
/// `process_range` over it goes through `process_element`, and each
/// read back to `get`.
struct AllHoles<'a>(&'a Raster);

impl ElemSource for AllHoles<'_> {
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
        (
            Cow::Owned(vec![f32::NAN; (hi - lo) as usize]),
            vec![Range { start: lo, end: hi }],
        )
    }
}

fn bits(cells: &[f32]) -> Vec<u32> {
    cells.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_and_split_ranges_equal_process_element(r in arb_raster()) {
        for k in all_kernels() {
            let cells = r.cells();
            let mut definition = vec![0.0f32; cells as usize];
            k.process_range(&AllHoles(&r), 0, &mut definition);
            prop_assert_eq!(bits(k.apply(&r).as_slice()), bits(&definition), "kernel {} apply", k.name());
            // Process in three uneven chunks.
            let cut1 = cells / 3;
            let cut2 = 2 * cells / 3;
            let src = RasterSource(&r);
            let mut out = vec![0.0f32; cells as usize];
            k.process_range(&src, 0, &mut out[..cut1 as usize]);
            k.process_range(&src, cut1, &mut out[cut1 as usize..cut2 as usize]);
            k.process_range(&src, cut2, &mut out[cut2 as usize..]);
            prop_assert_eq!(bits(&out), bits(&definition), "kernel {} in three ranges", k.name());
        }
    }

    #[test]
    fn flow_codes_are_valid_and_acyclic(r in arb_raster()) {
        let dirs = FlowRouting.apply(&r);
        for &c in dirs.as_slice() {
            prop_assert!(c.fract() == 0.0 && (0.0..=8.0).contains(&c));
        }
        // Global accumulation panics on cycles; finishing proves acyclicity.
        let acc = flow_accumulation_global(&dirs);
        prop_assert!(acc.as_slice().iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn step_accumulation_bounds(r in arb_raster()) {
        let dirs = FlowRouting.apply(&r);
        let acc = FlowAccumulationStep.apply(&dirs);
        // Own unit plus at most 8 direct inflows.
        for &v in acc.as_slice() {
            prop_assert!((1.0..=9.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_is_bounded_and_constant_preserving(
        r in arb_raster(),
        c in -100.0f32..100.0,
    ) {
        let out = GaussianFilter.apply(&r);
        let (lo, hi) = r.min_max();
        let (olo, ohi) = out.min_max();
        prop_assert!(olo >= lo - 1e-4 && ohi <= hi + 1e-4);

        let flat = Raster::filled(r.width(), r.height(), c);
        let out = GaussianFilter.apply(&flat);
        for &v in out.as_slice() {
            prop_assert!((v - c).abs() <= c.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    fn median_output_values_come_from_input(r in arb_raster()) {
        let out = MedianFilter.apply(&r);
        // Median of a window is a member of the window.
        let clamped = |row: i64, col: i64| {
            r.get(row.clamp(0, r.height() as i64 - 1) as u64, col.clamp(0, r.width() as i64 - 1) as u64)
        };
        for row in 0..r.height() {
            for col in 0..r.width() {
                let v = out.get(row, col);
                let mut found = false;
                for dr in -1i64..=1 {
                    for dc in -1i64..=1 {
                        if clamped(row as i64 + dr, col as i64 + dc).to_bits() == v.to_bits() {
                            found = true;
                        }
                    }
                }
                prop_assert!(found, "median value not in window at ({row},{col})");
            }
        }
    }

    #[test]
    fn slope_nonnegative_and_zero_at_global_minimum(r in arb_raster()) {
        let out = SlopeAnalysis.apply(&r);
        prop_assert!(out.as_slice().iter().all(|&v| v >= 0.0));
        // The global minimum cell has no downhill neighbor.
        let (lo, _) = r.min_max();
        'outer: for row in 0..r.height() {
            for col in 0..r.width() {
                if r.get(row, col) == lo {
                    prop_assert_eq!(out.get(row, col), 0.0);
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn global_accumulation_total_mass(r in arb_raster()) {
        // Summing the accumulation of terminal cells (sinks and cells
        // flowing off-map) accounts for every cell exactly once.
        let dirs = FlowRouting.apply(&r);
        let acc = flow_accumulation_global(&dirs);
        let (w, h) = (dirs.width(), dirs.height());
        let mut terminal = 0.0f64;
        for row in 0..h {
            for col in 0..w {
                let code = dirs.get(row, col) as usize;
                let is_terminal = if code == 0 {
                    true
                } else {
                    let (dr, dc) = das_kernels::DIR_OFFSETS[code - 1];
                    let (nr, nc) = (row as i64 + dr, col as i64 + dc);
                    nr < 0 || nc < 0 || nr as u64 >= h || nc as u64 >= w
                };
                if is_terminal {
                    terminal += f64::from(acc.get(row, col));
                }
            }
        }
        prop_assert_eq!(terminal, (w * h) as f64);
    }

    #[test]
    fn serialization_roundtrip_preserves_kernel_outputs(r in arb_raster()) {
        // A raster that has been through file bytes must produce
        // bit-identical kernel output — the property the cross-scheme
        // comparison relies on.
        let bytes = r.to_bytes();
        let back = Raster::from_bytes(r.width(), r.height(), &bytes);
        for k in all_kernels() {
            prop_assert_eq!(
                k.apply(&r).fingerprint(),
                k.apply(&back).fingerprint(),
                "kernel {}", k.name()
            );
        }
    }
}
