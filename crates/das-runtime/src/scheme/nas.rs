//! Normal Active Storage (NAS): offload onto round-robin data.
//!
//! What existing active-storage systems do (paper Section IV-A.1):
//! kernels run on the storage servers, each processing its local
//! strips — but under the default round-robin distribution the
//! dependence of almost every strip lives on *other* servers, so each
//! strip task pulls its neighbor strips across the network, and the
//! serving server burns CPU and NIC feeding those pulls while trying
//! to compute its own offloaded work. The paper's Fig. 10 observation
//! ("the performance of NAS is much lower than TS … each strip was
//! transferred multiple times") emerges here from the DAG: fetches are
//! per-task with no cross-task cache, and service slots compete with
//! kernel slices on the same CPU resource.

use std::collections::BTreeMap;

use das_kernels::{Kernel, Raster};
use das_pfs::{LayoutPolicy, ServerId, StripId};
use das_sim::{OpId, OpKind, OpSpec, TransferClass};

use crate::config::ClusterConfig;
use crate::report::RunReport;
use crate::scheme::{stitch_output, Ctx, FileCtx, SchemeKind};

/// Build the NAS op DAG for one job into the shared context and return
/// the functionally computed output chunks.
pub(crate) fn build_nas(
    ctx: &mut Ctx,
    f: &FileCtx,
    cfg: &ClusterConfig,
    kernel: &dyn Kernel,
) -> Vec<(u64, Vec<f32>)> {
    let offsets = kernel.dependence_offsets(f.width);
    let meta = ctx.pfs.meta(f.file).expect("file exists").clone();
    let mut chunks = Vec::new();

    // First-touch local disk reads per server (the server scans its
    // local file once; OS caching makes later touches free).
    let mut local_read_op: BTreeMap<(usize, u64), OpId> = BTreeMap::new();
    // Serve-side disk reads are also first-touch (page cache), but the
    // *network fetch* is per task — the naive service re-ships the
    // strip every time a task asks.
    let mut serve_read_op: BTreeMap<(usize, u64), OpId> = BTreeMap::new();

    for s in 0..cfg.storage_nodes as usize {
        let server = ServerId(s as u32);
        let my_strips = meta.layout.primary_strips(server, f.strip_count);
        if my_strips.is_empty() {
            continue;
        }

        // Functional view: everything this server will ever hold —
        // its primaries plus every strip its tasks fetch.
        let mut assembly = ctx.view(f, format!("NAS server {s}"));
        for &t in &my_strips {
            ctx.deliver(f, &mut assembly, server, t);
        }

        // The AS helper process is a single sequential loop per server
        // (as in the PVFS2/Lustre prototypes the paper builds on): it
        // fetches the dependence of one strip, processes it, then
        // moves to the next. Fetches therefore do not prefetch ahead
        // of compute, and a fetch directed at a busy neighbor waits
        // for that neighbor's current kernel slice — the serialization
        // the paper identifies as NAS's downfall.
        let mut prev_compute: Option<OpId> = None;

        for &t in &my_strips {
            let t_idx = t.0;
            let strip_bytes = ctx.strip_bytes(f, t_idx);

            // Local read (first touch pays the disk).
            let local = *local_read_op.entry((s, t_idx)).or_insert_with(|| {
                ctx.sim.add_op(
                    OpSpec::new(OpKind::DiskRead { node: ctx.server_node(s), bytes: strip_bytes })
                        .duration(cfg.disk_read.transfer_time(strip_bytes))
                        .uses(ctx.server_disk[s])
                        .after(ctx.server_start[s])
                        .tag("nas-local-read"),
                )
            });

            // Per-task dependence fetches from the owning servers —
            // issued one at a time, as synchronous RPCs, which is what
            // a naive helper loop does.
            let mut ready = vec![local];
            let mut last_fetch: Option<OpId> = None;
            for u in ctx.dependent_strips(f, t_idx, &offsets) {
                let owner = meta.layout.primary(StripId(u));
                if owner == server {
                    // Also local — covered by that strip's own read op.
                    let ub = ctx.strip_bytes(f, u);
                    let dep_read = *local_read_op.entry((s, u)).or_insert_with(|| {
                        ctx.sim.add_op(
                            OpSpec::new(OpKind::DiskRead { node: ctx.server_node(s), bytes: ub })
                                .duration(cfg.disk_read.transfer_time(ub))
                                .uses(ctx.server_disk[s])
                                .after(ctx.server_start[s])
                                .tag("nas-local-read"),
                        )
                    });
                    ready.push(dep_read);
                    continue;
                }
                let o = owner.index();
                let ub = ctx.strip_bytes(f, u);
                let disk = *serve_read_op.entry((o, u)).or_insert_with(|| {
                    ctx.sim.add_op(
                        OpSpec::new(OpKind::DiskRead { node: ctx.server_node(o), bytes: ub })
                            .duration(cfg.disk_read.transfer_time(ub))
                            .uses(ctx.server_disk[o])
                            .after(ctx.server_start[o])
                            .tag("nas-serve-read"),
                    )
                });
                // Request service burns the *owner's* CPU, competing
                // with its own offloaded kernel work.
                let mut serve_spec =
                    OpSpec::new(OpKind::Compute { node: ctx.server_node(o), units: 0 })
                        .duration(cfg.serve_cpu_overhead)
                        .uses(ctx.server_cpu[o])
                        .after(disk)
                        .tag("nas-serve-cpu");
                if let Some(prev) = prev_compute {
                    // The request is only *issued* when the helper
                    // loop reaches this task…
                    serve_spec = serve_spec.after(prev);
                }
                if let Some(prev_fetch) = last_fetch {
                    // …and only after the previous synchronous fetch
                    // of this task returned.
                    serve_spec = serve_spec.after(prev_fetch);
                }
                let serve = ctx.sim.add_op(serve_spec);
                // The response send occupies the single service thread
                // of the owner (kernel TCP path), not just its NIC —
                // which is how serving neighbors "increases the load of
                // each active storage server" (paper Section IV-B.1).
                let xfer = ctx.sim.add_op(
                    OpSpec::new(OpKind::NetTransfer {
                        src: ctx.server_node(o),
                        dst: ctx.server_node(s),
                        bytes: ub,
                    })
                    .duration(cfg.nic.transfer_time(ub))
                    .uses(ctx.server_nic[o])
                    .uses(ctx.server_nic[s])
                    .uses_all(ctx.switch)
                    .uses(ctx.server_cpu[o])
                    .after(serve)
                    .class(TransferClass::ServerServer)
                    .tag("nas-fetch"),
                );
                ready.push(xfer);
                last_fetch = Some(xfer);

                ctx.deliver(f, &mut assembly, owner, StripId(u));
            }

            // Offloaded kernel slice for this strip's elements; the
            // sequential helper loop also orders it after the previous
            // task's slice.
            let (e0, e1) = ctx.strip_elem_range(f, t_idx);
            if let Some(prev) = prev_compute {
                ready.push(prev);
            }
            let compute = ctx.sim.add_op(
                OpSpec::new(OpKind::Compute { node: ctx.server_node(s), units: e1 - e0 })
                    .duration(cfg.server_compute_time(s, e1 - e0, kernel.cost_per_element()))
                    .uses(ctx.server_cpu[s])
                    .after_all(ready)
                    .tag("nas-compute"),
            );
            prev_compute = Some(compute);

            // Results stay on local storage (the active-storage output
            // path).
            ctx.sim.add_op(
                OpSpec::new(OpKind::DiskWrite { node: ctx.server_node(s), bytes: strip_bytes })
                    .duration(cfg.disk_write.transfer_time(strip_bytes))
                    .uses(ctx.server_disk[s])
                    .after(compute)
                    .tag("nas-write"),
            );
        }

        // Functional execution of every local strip task.
        chunks.extend(ctx.run_tasks(kernel, &assembly, &my_strips));
    }
    chunks
}

pub(crate) fn run_nas(cfg: &ClusterConfig, kernel: &dyn Kernel, input: &Raster) -> RunReport {
    let (mut ctx, f) = Ctx::new(cfg, input, LayoutPolicy::RoundRobin);
    let chunks = build_nas(&mut ctx, &f, cfg, kernel);
    let output = stitch_output(f.width, f.height, chunks);
    let sim_report = ctx.sim.run().expect("NAS DAG schedulable");
    RunReport::from_sim(
        SchemeKind::Nas,
        kernel.name(),
        input.byte_len(),
        cfg.storage_nodes,
        cfg.compute_nodes,
        &sim_report,
        output.fingerprint(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_kernels::{workload, FlowRouting, GaussianFilter};

    #[test]
    fn nas_output_matches_reference() {
        let cfg = ClusterConfig::small_test();
        let input = workload::fbm_dem(64, 96, 11);
        let report = run_nas(&cfg, &FlowRouting, &input);
        let reference = FlowRouting.apply(&input);
        assert_eq!(report.output_fingerprint, reference.fingerprint());
    }

    #[test]
    fn nas_pays_server_to_server_dependence_traffic() {
        let cfg = ClusterConfig::small_test();
        let input = workload::fbm_dem(64, 96, 11);
        let report = run_nas(&cfg, &GaussianFilter, &input);
        // Round-robin + 8-neighbor: neighbor strips are always remote.
        assert!(report.bytes.net_server_server > 0);
        // But nothing flows to clients.
        assert_eq!(report.bytes.net_client_server, 0);
        // Strips are re-fetched per task: amplification over the file
        // size is the paper's "transferred multiple times".
        assert!(report.bytes.net_server_server > input.byte_len());
    }

    #[test]
    fn nas_matches_predictor_byte_count() {
        // The measured fetch traffic must equal what the DAS bandwidth
        // predictor forecasts for this layout — prediction and
        // execution are two views of one model.
        use das_core::StripingParams;
        use das_pfs::Layout;
        let cfg = ClusterConfig::small_test();
        let input = workload::fbm_dem(64, 96, 11);
        let report = run_nas(&cfg, &GaussianFilter, &input);
        let params = StripingParams {
            element_size: 4,
            strip_size: cfg.strip_size as u64,
            layout: Layout::new(LayoutPolicy::RoundRobin, cfg.storage_nodes),
        };
        let offsets = GaussianFilter.dependence_offsets(input.width());
        let predicted = params.predict_nas_fetches(&offsets, input.byte_len());
        assert_eq!(report.bytes.net_server_server, predicted.bytes);
    }
}
