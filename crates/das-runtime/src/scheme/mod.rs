//! The three evaluation schemes (paper Section IV-A.1).
//!
//! Each executor builds two things in lockstep from the same strip-
//! level plan:
//!
//! 1. a [`das_sim`] operation DAG (disk reads, network transfers,
//!    kernel compute slices, request-service slots) over per-node
//!    resources, whose scheduled makespan is the scheme's execution
//!    time; and
//! 2. the actual kernel execution over [`StripAssembly`]s containing
//!    exactly the strips the DAG moved to each node, so the outputs
//!    can be compared bit-for-bit and missing data panics.
//!
//! The cluster state (`Ctx`) is shared infrastructure and the file
//! state (`FileCtx`) is per-job, so several jobs can be composed
//! into one simulation — see [`run_mixed`] for co-running workloads.
//!
//! [`StripAssembly`]: crate::assembly::StripAssembly

mod das;
mod mixed;
mod nas;
mod ts;

use std::collections::BTreeSet;

use das_kernels::{Kernel, Raster};
use das_pfs::{FileId, LayoutPolicy, PfsCluster, ServerId, StripId, StripeSpec};
use das_sim::{OpId, OpKind, OpSpec, ResourceId, SimDuration, Simulator};

use crate::assembly::StripAssembly;
use crate::config::ClusterConfig;
use crate::report::RunReport;

pub(crate) use das::run_das;
pub use das::{run_das_forced_offload, run_das_with_policy};
pub use mixed::{run_mixed, JobResult, JobSpec, MixedReport};
pub(crate) use nas::run_nas;
pub(crate) use ts::run_ts;

/// Which evaluation scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Traditional Storage: kernels on compute nodes, data over the
    /// network.
    Ts,
    /// Normal Active Storage: kernels on storage nodes over
    /// round-robin data, dependence fetched from neighbors.
    Nas,
    /// Dynamic Active Storage: predictor-driven offload over the
    /// improved distribution.
    Das,
}

impl SchemeKind {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Ts => "TS",
            SchemeKind::Nas => "NAS",
            SchemeKind::Das => "DAS",
        }
    }
}

/// What the DAS decision engine did for this run.
#[derive(Debug, Clone)]
pub struct DasOutcome {
    /// Whether the request was served as active storage.
    pub offloaded: bool,
    /// The layout the data was placed in.
    pub layout: LayoutPolicy,
    /// Predicted server↔server bytes on that layout (should be 0 when
    /// the plan is satisfied).
    pub predicted_server_bytes: u64,
}

/// Execute one (scheme, kernel, dataset) cell and report timing, data
/// movement and the output fingerprint.
///
/// The input raster is ingested into a fresh simulated parallel file
/// system (round-robin for TS/NAS; the planner's layout for DAS —
/// the paper's scenario where DAS arranged the data at write time).
/// Ingestion itself is not timed: all three schemes start from data
/// already resident on the storage servers, as in the paper's testbed.
pub fn run_scheme(
    cfg: &ClusterConfig,
    kind: SchemeKind,
    kernel: &dyn Kernel,
    input: &Raster,
) -> RunReport {
    match kind {
        SchemeKind::Ts => run_ts(cfg, kernel, input),
        SchemeKind::Nas => run_nas(cfg, kernel, input),
        SchemeKind::Das => run_das(cfg, kernel, input),
    }
}

/// Shared cluster state for one simulation: the file system, the
/// simulator and its per-node resources. Files are ingested per job
/// (see [`FileCtx`]).
pub(crate) struct Ctx {
    pub pfs: PfsCluster,
    pub sim: Simulator,
    pub server_cpu: Vec<ResourceId>,
    pub server_nic: Vec<ResourceId>,
    pub server_disk: Vec<ResourceId>,
    pub client_cpu: Vec<ResourceId>,
    pub client_nic: Vec<ResourceId>,
    /// Core-switch slot pool when the fabric is capacity-limited.
    pub switch: Option<ResourceId>,
    /// Per-server launch gate: startup plus the node's start skew.
    pub server_start: Vec<OpId>,
    /// Per-client launch gate.
    pub client_start: Vec<OpId>,
    /// Elements per strip (uniform across files; `strip_size / 4`).
    pub strip_elems: u64,
}

/// One ingested file's geometry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileCtx {
    pub file: FileId,
    pub width: u64,
    pub height: u64,
    pub elements: u64,
    pub strip_count: u64,
}

impl Ctx {
    /// Set up the cluster (resources, launch gates) with no files yet.
    pub fn new_cluster(cfg: &ClusterConfig) -> Ctx {
        let pfs = PfsCluster::new(cfg.storage_nodes);
        let mut sim = Simulator::new();
        if cfg.trace {
            sim.enable_trace();
        }
        let d = cfg.storage_nodes as usize;
        let c = cfg.compute_nodes as usize;
        let server_cpu = (0..d)
            .map(|i| sim.add_resource(format!("server{i}.cpu"), cfg.server_cores))
            .collect();
        let server_nic = (0..d)
            .map(|i| sim.add_resource(format!("server{i}.nic"), 1))
            .collect();
        let server_disk = (0..d)
            .map(|i| sim.add_resource(format!("server{i}.disk"), 1))
            .collect();
        let client_cpu = (0..c)
            .map(|i| sim.add_resource(format!("client{i}.cpu"), cfg.client_cores))
            .collect();
        let client_nic = (0..c)
            .map(|i| sim.add_resource(format!("client{i}.nic"), 1))
            .collect();
        let switch = cfg.switch_capacity.map(|cap| sim.add_resource("switch", cap));

        let startup = sim.add_op(
            OpSpec::new(OpKind::Barrier)
                .duration(cfg.startup)
                .tag("startup"),
        );
        // Alternating launch skew around the server ring / client list
        // (nodes never start in lockstep on a real cluster).
        let skew_gate = |sim: &mut Simulator, i: usize| {
            let dur = if i % 2 == 1 { cfg.start_skew } else { SimDuration::ZERO };
            sim.add_op(
                OpSpec::new(OpKind::Barrier)
                    .duration(dur)
                    .after(startup)
                    .tag("launch-skew"),
            )
        };
        let server_start: Vec<OpId> = (0..d).map(|i| skew_gate(&mut sim, i)).collect();
        let client_start: Vec<OpId> = (0..c).map(|i| skew_gate(&mut sim, i)).collect();

        Ctx {
            pfs,
            sim,
            server_cpu,
            server_nic,
            server_disk,
            client_cpu,
            client_nic,
            switch,
            server_start,
            client_start,
            strip_elems: (cfg.strip_size / 4) as u64,
        }
    }

    /// Ingest a raster as a striped file under `policy` (untimed — the
    /// data pre-exists, as on the paper's testbed).
    pub fn ingest(
        &mut self,
        cfg: &ClusterConfig,
        name: &str,
        input: &Raster,
        policy: LayoutPolicy,
    ) -> FileCtx {
        let bytes = input.to_bytes();
        let file = self
            .pfs
            .create(name, &bytes, StripeSpec::new(cfg.strip_size), policy)
            .expect("ingest input file");
        FileCtx {
            file,
            width: input.width(),
            height: input.height(),
            elements: input.cells(),
            strip_count: self.pfs.meta(file).expect("file exists").strip_count(),
        }
    }

    /// Single-file convenience used by the per-scheme entry points.
    pub fn new(cfg: &ClusterConfig, input: &Raster, policy: LayoutPolicy) -> (Ctx, FileCtx) {
        let mut ctx = Ctx::new_cluster(cfg);
        let f = ctx.ingest(cfg, "input", input, policy);
        (ctx, f)
    }

    /// Node id of server `s` in `OpKind` endpoint terms.
    pub fn server_node(&self, s: usize) -> u32 {
        s as u32
    }

    /// Node id of client `c` in `OpKind` endpoint terms (clients are
    /// numbered after servers).
    pub fn client_node(&self, c: usize) -> u32 {
        self.server_cpu.len() as u32 + c as u32
    }

    /// The element range `[start, end)` covered by strip `t` of `f`.
    pub fn strip_elem_range(&self, f: &FileCtx, t: u64) -> (u64, u64) {
        let start = t * self.strip_elems;
        (start, (start + self.strip_elems).min(f.elements))
    }

    /// The strips (other than `t` itself) containing any dependence of
    /// any element of strip `t`, under the given offsets (shared with
    /// the predictor and the networked executor).
    pub fn dependent_strips(&self, f: &FileCtx, t: u64, offsets: &[i64]) -> BTreeSet<u64> {
        das_core::dependent_strips(t, offsets, self.strip_elems, f.elements)
    }

    /// Byte length of strip `t` of `f` (the final strip may be partial).
    pub fn strip_bytes(&self, f: &FileCtx, t: u64) -> u64 {
        let meta = self.pfs.meta(f.file).expect("file exists");
        meta.spec.strip_len(StripId(t), meta.len) as u64
    }

    /// An empty functional view of `f` for the node named `label`.
    pub fn view(&self, f: &FileCtx, label: String) -> StripAssembly {
        StripAssembly::new(f.width, f.height, self.strip_elems as usize * 4, label)
    }

    /// Deliver `strip` of `f`, as `holder` stores it, into a node's view.
    pub fn deliver(&self, f: &FileCtx, view: &mut StripAssembly, holder: ServerId, strip: StripId) {
        let server = self.pfs.server(holder).expect("server exists");
        view.insert(strip, server.read_strip(f.file, strip).expect("holder has the strip"));
    }

    /// Functional execution of the strip tasks `strips` through `view`:
    /// `(start element, output)` per strip.
    pub fn run_tasks(&self, kernel: &dyn Kernel, view: &StripAssembly, strips: &[StripId]) -> Vec<(u64, Vec<f32>)> {
        strips.iter().map(|&t| view.compute_strip(kernel, t)).collect()
    }

    /// Compute-op duration for `elements` of `kernel`.
    pub fn compute_dur(&self, cfg: &ClusterConfig, kernel: &dyn Kernel, elements: u64) -> SimDuration {
        cfg.compute_time(elements, kernel.cost_per_element())
    }
}

/// Assemble per-element outputs into a raster: `chunks` are
/// `(start_element, values)` pairs that must jointly cover the raster.
pub(crate) fn stitch_output(width: u64, height: u64, chunks: Vec<(u64, Vec<f32>)>) -> Raster {
    let cells = usize::try_from(width * height).expect("cell count fits usize");
    let mut out = Raster::filled(width, height, 0.0);
    let mut covered = vec![false; cells];
    for (start, values) in chunks {
        for (k, v) in values.into_iter().enumerate() {
            let i = start as usize + k;
            assert!(!covered[i], "output element {i} produced twice");
            covered[i] = true;
            out.set_linear(i as u64, v);
        }
    }
    if let Some(gap) = covered.iter().position(|&c| !c) {
        panic!("output element {gap} never produced");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_kernels::workload;

    #[test]
    fn ctx_geometry() {
        let cfg = ClusterConfig::small_test();
        let input = workload::fbm_dem(64, 64, 1);
        let (ctx, f) = Ctx::new(&cfg, &input, LayoutPolicy::RoundRobin);
        assert_eq!(f.elements, 64 * 64);
        assert_eq!(ctx.strip_elems, 512);
        assert_eq!(f.strip_count, 8);
        assert_eq!(ctx.strip_elem_range(&f, 7), (7 * 512, 4096));
        assert_eq!(ctx.strip_bytes(&f, 7), 2048);
        assert_eq!(ctx.server_node(2), 2);
        assert_eq!(ctx.client_node(0), 4);
    }

    #[test]
    fn dependent_strips_of_stencil() {
        let cfg = ClusterConfig::small_test();
        let input = workload::fbm_dem(64, 64, 1);
        let (ctx, f) = Ctx::new(&cfg, &input, LayoutPolicy::RoundRobin);
        // 8-neighbor on width 64: reaches ±65 elements; strip holds 512.
        let offsets = [-65i64, -64, -63, -1, 1, 63, 64, 65];
        assert_eq!(ctx.dependent_strips(&f, 0, &offsets), BTreeSet::from([1]));
        assert_eq!(ctx.dependent_strips(&f, 3, &offsets), BTreeSet::from([2, 4]));
        assert_eq!(ctx.dependent_strips(&f, 7, &offsets), BTreeSet::from([6]));
    }

    #[test]
    fn multiple_files_coexist() {
        let cfg = ClusterConfig::small_test();
        let a = workload::fbm_dem(64, 64, 1);
        let b = workload::fbm_dem(32, 32, 2);
        let mut ctx = Ctx::new_cluster(&cfg);
        let fa = ctx.ingest(&cfg, "a", &a, LayoutPolicy::RoundRobin);
        let fb = ctx.ingest(&cfg, "b", &b, LayoutPolicy::GroupedReplicated { group: 2 });
        assert_ne!(fa.file, fb.file);
        assert_eq!(ctx.pfs.file_bytes(fa.file).unwrap(), a.to_bytes());
        assert_eq!(ctx.pfs.file_bytes(fb.file).unwrap(), b.to_bytes());
        ctx.pfs.verify(fa.file).unwrap();
        ctx.pfs.verify(fb.file).unwrap();
    }

    #[test]
    fn stitch_covers_and_orders() {
        let out = stitch_output(
            4,
            2,
            vec![(4, vec![4.0, 5.0, 6.0, 7.0]), (0, vec![0.0, 1.0, 2.0, 3.0])],
        );
        for i in 0..8 {
            assert_eq!(out.get_linear(i), i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "never produced")]
    fn stitch_detects_gaps() {
        let _ = stitch_output(4, 2, vec![(0, vec![0.0; 4])]);
    }
}
