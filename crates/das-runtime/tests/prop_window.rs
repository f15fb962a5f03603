//! Property tests on the strip-native compute path: a kernel reading
//! one window per task out of a [`StripAssembly`] must be exactly as
//! strict as the per-element lookups it replaced. For arbitrary
//! geometries — strips far shorter than a row, where the window's hull
//! has holes, up to strips of several rows — and every registered
//! kernel, the strips `das_core::dependent_strips` names are
//! sufficient, each strip a task really reads is necessary, and a hole
//! nobody reads is harmless.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use bytes::Bytes;
use das_core::dependent_strips;
use das_kernels::{kernel_by_name, kernel_names, workload, ElemSource, Kernel, Raster, Window};
use das_pfs::StripId;
use das_runtime::StripAssembly;
use proptest::prelude::*;

/// The panics these tests provoke on purpose would otherwise print a
/// few hundred backtrace headers; every other panic still reports.
fn quiet_expected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = panic_text(info.payload());
            if !(msg.contains("does not hold") || msg.contains("outside the window")) {
                default(info);
            }
        }));
    });
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// A raster served with some cells withheld: its `window` reports
/// them as holes and fills them with a poison value, so every read that
/// lands on one comes back to `get`, which serves the true value and
/// remembers the read. Withholding every cell makes it the oracle for
/// "the strips task `t` really touches": each output cell then goes
/// through `process_element`, and each of its in-bounds reads is
/// recorded.
struct Withheld<'a> {
    raster: &'a Raster,
    held: Vec<bool>,
    read: RefCell<BTreeSet<u64>>,
}

/// What a withheld cell holds in a window: far below any input, so an
/// interior computation that read one would show it.
const POISON: f32 = -1e30;

impl<'a> Withheld<'a> {
    fn new(raster: &'a Raster, held: Vec<bool>) -> Self {
        Withheld {
            raster,
            held,
            read: RefCell::new(BTreeSet::new()),
        }
    }

    fn everything(raster: &'a Raster) -> Self {
        Withheld::new(raster, vec![false; raster.cells() as usize])
    }
}

impl ElemSource for Withheld<'_> {
    fn width(&self) -> u64 {
        self.raster.width()
    }
    fn height(&self) -> u64 {
        self.raster.height()
    }
    fn get(&self, row: i64, col: i64) -> Option<f32> {
        let v = self.raster.try_get(row, col)?;
        self.read
            .borrow_mut()
            .insert(row as u64 * self.raster.width() + col as u64);
        Some(v)
    }
    fn window(&self, lo: u64, hi: u64) -> (Cow<'_, [f32]>, Vec<Range<u64>>) {
        let mut holes: Vec<Range<u64>> = Vec::new();
        let cells = (lo..hi)
            .map(|i| {
                if self.held[i as usize] {
                    return self.raster.get_linear(i);
                }
                match holes.last_mut() {
                    Some(hole) if hole.end == i => hole.end = i + 1,
                    _ => holes.push(i..i + 1),
                }
                POISON
            })
            .collect();
        (Cow::Owned(cells), holes)
    }
}

/// An assembly of `raster` striped at `per_strip` elements holding
/// exactly `held`.
fn assembly_of(raster: &Raster, per_strip: u64, held: &BTreeSet<u64>) -> StripAssembly {
    let strip_bytes = per_strip as usize * 4;
    let bytes = raster.to_bytes();
    let mut asm = StripAssembly::new(raster.width(), raster.height(), strip_bytes, "node");
    for &s in held {
        let from = s as usize * strip_bytes;
        let to = (from + strip_bytes).min(bytes.len());
        asm.insert(StripId(s), Bytes::copy_from_slice(&bytes[from..to]));
    }
    asm
}

/// `(raster, elements per strip)`: strips from one element up to a
/// little over three rows.
fn arb_striped() -> impl Strategy<Value = (Raster, u64)> {
    (2u64..24, 2u64..14, any::<u64>(), any::<u64>())
        .prop_map(|(w, h, seed, pick)| (workload::fbm_dem(w, h, seed), 1 + pick % (3 * w + 3)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Sufficiency: `{t} ∪ dependent_strips(t)` and nothing else gives
    // the reference output, for every strip and every kernel.
    #[test]
    fn dependent_strips_suffice_for_every_task((raster, per_strip) in arb_striped()) {
        let (width, cells) = (raster.width(), raster.cells());
        for &name in kernel_names() {
            let kernel = kernel_by_name(name).unwrap();
            let reference = kernel.apply(&raster);
            let offsets = kernel.dependence_offsets(width);
            for t in 0..cells.div_ceil(per_strip) {
                let mut held = dependent_strips(t, &offsets, per_strip, cells);
                held.insert(t);
                let asm = assembly_of(&raster, per_strip, &held);
                let start = t * per_strip;
                let mut out = vec![0f32; (cells - start).min(per_strip) as usize];
                kernel.process_range(&asm, start, &mut out);
                for (k, v) in out.iter().enumerate() {
                    prop_assert_eq!(
                        v.to_bits(),
                        reference.get_linear(start + k as u64).to_bits(),
                        "{} strip {} element {} ({} elements/strip, width {})",
                        name, t, start + k as u64, per_strip, width
                    );
                }
            }
        }
    }

    // Necessity, and no more than that: without a strip the task reads
    // the kernel panics with the assembly's diagnostic; without one it
    // does not read (the strip-granular set over-approximates when an
    // offset wraps a row end, and the window's hull spans strips no
    // offset reaches) the output is still the reference.
    #[test]
    fn only_a_read_that_lands_in_a_hole_panics(
        (raster, per_strip) in arb_striped(),
        pick_kernel in any::<u64>(),
        pick_task in any::<u64>(),
    ) {
        quiet_expected_panics();
        let (width, cells) = (raster.width(), raster.cells());
        let names = kernel_names();
        let kernel = kernel_by_name(names[(pick_kernel % names.len() as u64) as usize]).unwrap();
        let offsets = kernel.dependence_offsets(width);
        let t = pick_task % cells.div_ceil(per_strip);
        let start = t * per_strip;
        let len = (cells - start).min(per_strip);

        let oracle = Withheld::everything(&raster);
        let mut want = vec![0f32; len as usize];
        kernel.process_range(&oracle, start, &mut want);
        let touched: BTreeSet<u64> = oracle.read.borrow().iter().map(|i| i / per_strip).collect();

        let mut delivered = dependent_strips(t, &offsets, per_strip, cells);
        delivered.insert(t);
        prop_assert!(touched.is_subset(&delivered), "{} reads outside its declared set", kernel.name());
        for &gone in &delivered {
            let mut held = delivered.clone();
            held.remove(&gone);
            let asm = assembly_of(&raster, per_strip, &held);
            let mut out = vec![0f32; len as usize];
            let outcome = catch_unwind(AssertUnwindSafe(|| kernel.process_range(&asm, start, &mut out)));
            if touched.contains(&gone) {
                let msg = panic_text(&*outcome.expect_err("a read landed in the hole"));
                prop_assert!(
                    msg.contains(&format!("needs strip {gone}, which this node does not hold")),
                    "{}", msg
                );
            } else {
                prop_assert!(outcome.is_ok(), "{} strip {t}: unread strip {gone} was missed", kernel.name());
                prop_assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    // A cell next to a hole takes the fallback: with runs of cells
    // withheld from every window (and poisoned in it), each kernel still
    // gives the reference output, so no interior computation read
    // across a hole.
    #[test]
    fn a_cell_next_to_a_hole_is_computed_by_process_element(
        (raster, per_strip) in arb_striped(),
        gaps in proptest::collection::vec((any::<u64>(), 1u64..8), 1..4),
    ) {
        let cells = raster.cells();
        let mut held = vec![true; cells as usize];
        for &(at, len) in &gaps {
            let from = at % cells;
            for i in from..(from + len).min(cells) {
                held[i as usize] = false;
            }
        }
        let src = Withheld::new(&raster, held);
        for &name in kernel_names() {
            let kernel = kernel_by_name(name).unwrap();
            let reference = kernel.apply(&raster);
            for t in 0..cells.div_ceil(per_strip) {
                let start = t * per_strip;
                let mut out = vec![0f32; (cells - start).min(per_strip) as usize];
                kernel.process_range(&src, start, &mut out);
                for (k, v) in out.iter().enumerate() {
                    prop_assert_eq!(
                        v.to_bits(),
                        reference.get_linear(start + k as u64).to_bits(),
                        "{} element {} (width {}, gaps {:?})",
                        name, start + k as u64, raster.width(), gaps
                    );
                }
            }
        }
    }
}

/// Declares the cells either side of it, reads the ones above and
/// below.
struct ShyStencil;

impl Kernel for ShyStencil {
    fn name(&self) -> &'static str {
        "shy-stencil"
    }
    fn dependence_offsets(&self, _img_width: u64) -> Vec<i64> {
        vec![-1, 1]
    }
    fn cost_per_element(&self) -> f64 {
        1.0
    }
    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        src.get_clamped(row as i64 - 1, col as i64) + src.get_clamped(row as i64 + 1, col as i64)
    }
    /// Reads what it declares: the interior path only ever hands it
    /// the declared block.
    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = rows[0][j] + rows[0][j + 2];
        }
    }
}

/// Every strip is there, so this is not a missing-data panic: the
/// kernel asked for less than it reads, and is told so by name.
#[test]
fn a_kernel_that_under_declares_its_reach_is_named() {
    quiet_expected_panics();
    let raster = workload::fbm_dem(16, 8, 3);
    let asm = assembly_of(&raster, 16, &(0..8).collect());
    let mut out = vec![0f32; 16];
    let outcome = catch_unwind(AssertUnwindSafe(|| ShyStencil.process_range(&asm, 48, &mut out)));
    let msg = panic_text(&*outcome.expect_err("row 2 is outside a window of reach 1"));
    assert!(msg.starts_with("shy-stencil: read of element 32 at (2,0) is outside the window [47, 65)"), "{msg}");
    assert!(msg.contains("declared reach of 1 elements"), "{msg}");
}
