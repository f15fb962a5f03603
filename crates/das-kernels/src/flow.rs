//! Terrain-analysis kernels: D8 flow routing and flow accumulation.
//!
//! Flow routing (paper Fig. 1) assigns each cell the direction of its
//! minimum-elevation neighbor; flow accumulation then counts how much
//! water passes through each cell. Both are 8-neighbor operations and
//! are the paper's motivating GIS pipeline (flow-accumulation "always
//! follows" flow-routing and consumes its intermediate raster,
//! Section I).

use crate::kernel::{centred, each_block, eight_neighbor_offsets, Kernel};
use crate::raster::Raster;
use crate::source::Window;

/// D8 direction codes → (row, col) displacement. Code 0 is "no
/// outflow" (a sink or flat); codes 1–8 start East and proceed
/// clockwise: E, SE, S, SW, W, NW, N, NE.
pub const DIR_OFFSETS: [(i64, i64); 8] = [
    (0, 1),   // 1: E
    (1, 1),   // 2: SE
    (1, 0),   // 3: S
    (1, -1),  // 4: SW
    (0, -1),  // 5: W
    (-1, -1), // 6: NW
    (-1, 0),  // 7: N
    (-1, 1),  // 8: NE
];

/// D8 single-flow-direction routing (paper Fig. 1, Table I).
///
/// Output cell = the direction code (1–8) of the neighbor with the
/// minimum elevation, provided that minimum is strictly below the
/// center; 0 (sink) otherwise. Off-grid neighbors are skipped. Ties
/// resolve to the lowest direction code, deterministically.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowRouting;

impl Kernel for FlowRouting {
    fn name(&self) -> &'static str {
        "flow-routing"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        eight_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        190.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        route(|dr, dc| src.get(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| route(|dr, dc| Some(centred(b, dr, dc))))
    }
}

/// The D8 code of the cell whose neighbour `(dr, dc)` `at` reads
/// (`None` off the grid).
#[inline]
fn route(at: impl Fn(i64, i64) -> Option<f32>) -> f32 {
    let center = at(0, 0).expect("center cell in bounds");
    let mut best_code = 0u8;
    let mut best_val = center;
    for (k, &(dr, dc)) in DIR_OFFSETS.iter().enumerate() {
        if let Some(v) = at(dr, dc) {
            if v < best_val {
                best_val = v;
                best_code = (k + 1) as u8;
            }
        }
    }
    f32::from(best_code)
}

/// One-step flow accumulation: the 8-neighbor stencil the paper's
/// evaluation runs (Table I's second kernel).
///
/// Input is a direction raster from [`FlowRouting`]; output cell =
/// `1 + number of neighbors whose direction code points into the cell`
/// (each cell carries its own unit of water plus direct inflows).
/// This is the per-element, offloadable form; the full upstream count
/// is [`flow_accumulation_global`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowAccumulationStep;

impl Kernel for FlowAccumulationStep {
    fn name(&self) -> &'static str {
        "flow-accumulation"
    }

    fn dependence_offsets(&self, img_width: u64) -> Vec<i64> {
        eight_neighbor_offsets(img_width)
    }

    fn cost_per_element(&self) -> f64 {
        160.0
    }

    fn process_element(&self, src: &Window<'_>, row: u64, col: u64) -> f32 {
        inflow(|dr, dc| src.get(row as i64 + dr, col as i64 + dc))
    }

    fn process_interior(&self, rows: &[&[f32]], out: &mut [f32]) {
        each_block::<3>(rows, out, |b| inflow(|dr, dc| Some(centred(b, dr, dc))))
    }
}

/// One plus the number of neighbours, read by `at` (`None` off the
/// grid), whose direction code points at the cell: the neighbour in
/// direction `k` does when its code truncates to the opposite
/// direction's.
#[inline]
fn inflow(at: impl Fn(i64, i64) -> Option<f32>) -> f32 {
    let mut inflow = 1.0f32;
    for (k, (dr, dc)) in DIR_OFFSETS.into_iter().enumerate() {
        let back = ((k + 4) % 8 + 1) as f32;
        if at(dr, dc).is_some_and(|code| (back..back + 1.0).contains(&code)) {
            inflow += 1.0;
        }
    }
    inflow
}

/// Full (global) flow accumulation over a D8 direction raster — the
/// classic O'Callaghan–Mark upstream-area computation, provided as an
/// extension beyond the paper's per-element evaluation form.
///
/// Each cell starts with one unit of water; water flows along the
/// direction codes, and the output is the total units passing through
/// each cell (≥ 1). Cells form a forest (sinks are roots), so a
/// topological peel by in-degree terminates in linear time.
///
/// # Panics
/// Panics if the raster contains an invalid direction code or a
/// 2-cycle (two cells pointing at each other), which a raster produced
/// by [`FlowRouting`] can never contain.
pub fn flow_accumulation_global(dirs: &Raster) -> Raster {
    let (w, h) = (dirs.width(), dirs.height());
    let cells = usize::try_from(w * h).expect("cell count fits usize");
    let target = |i: usize| -> Option<usize> {
        let row = i as u64 / w;
        let col = i as u64 % w;
        let code = dirs.get_linear(i as u64);
        assert!(
            code.fract() == 0.0 && (0.0..=8.0).contains(&code),
            "invalid direction code {code} at ({row},{col})"
        );
        let code = code as usize;
        if code == 0 {
            return None;
        }
        let (dr, dc) = DIR_OFFSETS[code - 1];
        let (nr, nc) = (row as i64 + dr, col as i64 + dc);
        if nr < 0 || nc < 0 || nr as u64 >= h || nc as u64 >= w {
            None // flow off the map edge
        } else {
            Some((nr as u64 * w + nc as u64) as usize)
        }
    };

    let mut indegree = vec![0u32; cells];
    for i in 0..cells {
        if let Some(t) = target(i) {
            indegree[t] += 1;
        }
    }
    let mut acc = vec![1.0f32; cells];
    let mut queue: Vec<usize> = (0..cells).filter(|&i| indegree[i] == 0).collect();
    let mut processed = 0usize;
    while let Some(i) = queue.pop() {
        processed += 1;
        if let Some(t) = target(i) {
            acc[t] += acc[i];
            indegree[t] -= 1;
            if indegree[t] == 0 {
                queue.push(t);
            }
        }
    }
    assert_eq!(processed, cells, "direction raster contains a cycle");

    let mut out = Raster::filled(w, h, 0.0);
    for (i, v) in acc.into_iter().enumerate() {
        out.set_linear(i as u64, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    /// A ramp increasing eastward: every interior cell's lowest
    /// neighbor is directly west.
    fn east_ramp(w: u64, h: u64) -> Raster {
        Raster::from_fn(w, h, |_row, col| col as f32)
    }

    #[test]
    fn routing_on_ramp_points_westward() {
        // Elevation depends on the column only, so W, SW and NW are
        // equally low; the deterministic tie-break picks the lowest
        // code encountered: SW (4) where a next row exists, else W (5).
        let dem = east_ramp(6, 4);
        let dirs = FlowRouting.apply(&dem);
        for row in 0..4 {
            for col in 1..6 {
                let expected = if row < 3 { 4.0 } else { 5.0 };
                assert_eq!(dirs.get(row, col), expected, "({row},{col})");
            }
            // Column 0 has no lower neighbor → sink.
            assert_eq!(dirs.get(row, 0), 0.0);
        }
    }

    #[test]
    fn routing_prefers_steepest_descent_diagonal() {
        // Center 5; SW neighbor lowest.
        let mut dem = Raster::filled(3, 3, 9.0);
        dem.set(1, 1, 5.0);
        dem.set(2, 0, 1.0); // SW
        dem.set(0, 1, 3.0); // N
        let dirs = FlowRouting.apply(&dem);
        assert_eq!(dirs.get(1, 1), 4.0, "SW code is 4");
    }

    #[test]
    fn routing_tie_breaks_to_lowest_code() {
        // Two equal minima E and S → E (code 1) wins.
        let mut dem = Raster::filled(3, 3, 9.0);
        dem.set(1, 1, 5.0);
        dem.set(1, 2, 1.0); // E, code 1
        dem.set(2, 1, 1.0); // S, code 3
        let dirs = FlowRouting.apply(&dem);
        assert_eq!(dirs.get(1, 1), 1.0);
    }

    #[test]
    fn flat_terrain_is_all_sinks() {
        let dem = Raster::filled(5, 5, 2.5);
        let dirs = FlowRouting.apply(&dem);
        assert!(dirs.as_slice().iter().all(|&c| c == 0.0));
    }

    #[test]
    fn step_accumulation_counts_direct_inflows() {
        let dem = east_ramp(5, 1);
        let dirs = FlowRouting.apply(&dem);
        let acc = FlowAccumulationStep.apply(&dirs);
        // Row: 0 <- 1 <- 2 <- 3 <- 4. Each interior cell receives from
        // its single east neighbor; cell 4 receives nothing.
        assert_eq!(acc.get(0, 4), 1.0);
        assert_eq!(acc.get(0, 2), 2.0);
        assert_eq!(acc.get(0, 0), 2.0);
    }

    #[test]
    fn global_accumulation_on_row_is_prefix_count() {
        let dem = east_ramp(6, 1);
        let dirs = FlowRouting.apply(&dem);
        let acc = flow_accumulation_global(&dirs);
        // Cell at column c receives everything east of it plus itself.
        for col in 0..6 {
            assert_eq!(acc.get(0, col), (6 - col) as f32);
        }
    }

    #[test]
    fn global_accumulation_conserves_mass_into_sinks_and_edges() {
        let dem = workload::fbm_dem(32, 32, 7);
        let dirs = FlowRouting.apply(&dem);
        let acc = flow_accumulation_global(&dirs);
        // Every cell passes at least its own unit.
        assert!(acc.as_slice().iter().all(|&v| v >= 1.0));
        // Water leaving through sinks equals total rainfall: the sum of
        // accumulation at sinks (code 0 cells, incl. edge outflows)
        // equals exactly W·H only when no cell flows off the map; with
        // off-map outflow those units are counted at the last on-map
        // cell, which is a code!=0 cell whose target is off-map. Sum
        // over terminal cells (sinks + off-map-flowing) must be 1024.
        let (w, h) = (dirs.width(), dirs.height());
        let mut terminal_sum = 0.0f64;
        for row in 0..h {
            for col in 0..w {
                let code = dirs.get(row, col) as usize;
                let is_terminal = if code == 0 {
                    true
                } else {
                    let (dr, dc) = DIR_OFFSETS[code - 1];
                    let (nr, nc) = (row as i64 + dr, col as i64 + dc);
                    nr < 0 || nc < 0 || nr as u64 >= h || nc as u64 >= w
                };
                if is_terminal {
                    terminal_sum += f64::from(acc.get(row, col));
                }
            }
        }
        assert_eq!(terminal_sum, f64::from(32u16) * 32.0);
    }

    #[test]
    #[should_panic(expected = "invalid direction code")]
    fn global_accumulation_rejects_bad_codes() {
        let mut dirs = Raster::filled(2, 2, 0.0);
        dirs.set(0, 0, 9.0);
        let _ = flow_accumulation_global(&dirs);
    }

    #[test]
    fn kernels_declare_eight_neighbor_dependence() {
        assert_eq!(FlowRouting.dependence_offsets(50).len(), 8);
        assert_eq!(FlowAccumulationStep.dependence_offsets(50).len(), 8);
        assert!(FlowRouting.dependence_offsets(50).contains(&-51));
        assert!(FlowRouting.dependence_offsets(50).contains(&51));
    }
}
