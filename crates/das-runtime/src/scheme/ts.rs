//! Traditional Storage (TS): ship the data to the compute nodes.
//!
//! The baseline of the paper's evaluation. Rows are partitioned
//! contiguously over the compute nodes; each client reads its block
//! plus a dependence halo from the storage servers, runs the kernel,
//! and writes its block of the result back. Both directions cross the
//! client↔server network; nothing moves between servers.

use std::collections::BTreeMap;

use das_kernels::{Kernel, Raster};
use das_pfs::LayoutPolicy;
use das_sim::{OpKind, OpSpec, TransferClass};

use crate::config::ClusterConfig;
use crate::report::RunReport;
use crate::scheme::{stitch_output, Ctx, FileCtx, SchemeKind};

/// Rows assigned to client `c` of `clients` over `height` rows:
/// contiguous blocks, remainder spread over the first clients.
pub(crate) fn row_block(height: u64, clients: u32, c: u32) -> (u64, u64) {
    let clients = u64::from(clients);
    let c = u64::from(c);
    let base = height / clients;
    let extra = height % clients;
    let start = c * base + c.min(extra);
    let len = base + u64::from(c < extra);
    (start, (start + len).min(height))
}

/// Build the TS op DAG for one job into the shared context and return
/// the functionally computed output chunks.
pub(crate) fn build_ts(
    ctx: &mut Ctx,
    f: &FileCtx,
    cfg: &ClusterConfig,
    kernel: &dyn Kernel,
) -> Vec<(u64, Vec<f32>)> {
    let offsets = kernel.dependence_offsets(f.width);
    let halo_rows = offsets
        .iter()
        .map(|o| o.unsigned_abs().div_ceil(f.width.max(1)))
        .max()
        .unwrap_or(0);

    let meta = ctx.pfs.meta(f.file).expect("file exists").clone();
    let mut chunks = Vec::new();

    for c in 0..cfg.compute_nodes {
        let (r0, r1) = row_block(f.height, cfg.compute_nodes, c);
        if r0 >= r1 {
            continue;
        }
        let cidx = c as usize;

        // ------- input read: own rows plus halo -------
        let hr0 = r0.saturating_sub(halo_rows);
        let hr1 = (r1 + halo_rows).min(f.height);
        let read_off = hr0 * f.width * 4;
        let read_len = (hr1 - hr0) * f.width * 4;

        // Group the overlapped strips by their primary server.
        let mut per_server: BTreeMap<usize, (u64, u64)> = BTreeMap::new(); // bytes, msgs
        let mut assembly = ctx.view(f, format!("TS client {c}"));
        for part in meta.spec.strips_for_range(read_off, read_len) {
            let server = meta.layout.primary(part.strip);
            let e = per_server.entry(server.index()).or_insert((0, 0));
            e.0 += part.len as u64;
            e.1 += 1;
            // Functionally the client receives the whole strips it
            // touched (a PFS returns sector-aligned data).
            ctx.deliver(f, &mut assembly, server, part.strip);
        }

        let mut read_done = Vec::new();
        for (&s, &(bytes, msgs)) in &per_server {
            let disk = ctx.sim.add_op(
                OpSpec::new(OpKind::DiskRead { node: ctx.server_node(s), bytes })
                    .duration(cfg.disk_read.transfer_time_msgs(bytes, msgs))
                    .uses(ctx.server_disk[s])
                    .after(ctx.server_start[s])
                    .after(ctx.client_start[cidx])
                    .tag("ts-read-disk"),
            );
            let xfer = ctx.sim.add_op(
                OpSpec::new(OpKind::NetTransfer {
                    src: ctx.server_node(s),
                    dst: ctx.client_node(cidx),
                    bytes,
                })
                .duration(cfg.nic.transfer_time_msgs(bytes, msgs))
                .uses(ctx.server_nic[s])
                .uses(ctx.client_nic[cidx])
                .uses_all(ctx.switch)
                .after(disk)
                .class(TransferClass::ClientServer)
                .tag("ts-read-net"),
            );
            read_done.push(xfer);
        }

        // ------- compute on the client -------
        let own_elems = (r1 - r0) * f.width;
        let compute = ctx.sim.add_op(
            OpSpec::new(OpKind::Compute { node: ctx.client_node(cidx), units: own_elems })
                .duration(ctx.compute_dur(cfg, kernel, own_elems))
                .uses(ctx.client_cpu[cidx])
                .after_all(read_done)
                .tag("ts-compute"),
        );

        // ------- result write-back: own rows only -------
        let write_off = r0 * f.width * 4;
        let write_len = own_elems * 4;
        let mut write_per_server: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for part in meta.spec.strips_for_range(write_off, write_len) {
            let server = meta.layout.primary(part.strip);
            let e = write_per_server.entry(server.index()).or_insert((0, 0));
            e.0 += part.len as u64;
            e.1 += 1;
        }
        for (&s, &(bytes, msgs)) in &write_per_server {
            let xfer = ctx.sim.add_op(
                OpSpec::new(OpKind::NetTransfer {
                    src: ctx.client_node(cidx),
                    dst: ctx.server_node(s),
                    bytes,
                })
                .duration(cfg.nic.transfer_time_msgs(bytes, msgs))
                .uses(ctx.client_nic[cidx])
                .uses(ctx.server_nic[s])
                .uses_all(ctx.switch)
                .after(compute)
                .class(TransferClass::ClientServer)
                .tag("ts-write-net"),
            );
            ctx.sim.add_op(
                OpSpec::new(OpKind::DiskWrite { node: ctx.server_node(s), bytes })
                    .duration(cfg.disk_write.transfer_time_msgs(bytes, msgs))
                    .uses(ctx.server_disk[s])
                    .after(xfer)
                    .tag("ts-write-disk"),
            );
        }

        // ------- functional execution -------
        let start_elem = r0 * f.width;
        let mut out = vec![0.0f32; own_elems as usize];
        kernel.process_range(&assembly, start_elem, &mut out);
        chunks.push((start_elem, out));
    }
    chunks
}

pub(crate) fn run_ts(cfg: &ClusterConfig, kernel: &dyn Kernel, input: &Raster) -> RunReport {
    let (mut ctx, f) = Ctx::new(cfg, input, LayoutPolicy::RoundRobin);
    let chunks = build_ts(&mut ctx, &f, cfg, kernel);
    let output = stitch_output(f.width, f.height, chunks);
    let sim_report = ctx.sim.run().expect("TS DAG schedulable");
    RunReport::from_sim(
        SchemeKind::Ts,
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
    use das_kernels::{workload, GaussianFilter};

    #[test]
    fn row_blocks_partition() {
        for (h, c) in [(64u64, 4u32), (10, 3), (5, 8), (100, 7)] {
            let mut covered = 0;
            let mut prev_end = 0;
            for i in 0..c {
                let (a, b) = row_block(h, c, i);
                assert_eq!(a, prev_end);
                prev_end = b;
                covered += b - a;
            }
            assert_eq!(covered, h, "h={h} c={c}");
            assert_eq!(prev_end, h);
        }
    }

    #[test]
    fn ts_output_matches_reference() {
        let cfg = ClusterConfig::small_test();
        let input = workload::fbm_dem(64, 96, 3);
        let report = run_ts(&cfg, &GaussianFilter, &input);
        let reference = GaussianFilter.apply(&input);
        assert_eq!(report.output_fingerprint, reference.fingerprint());
        // TS moves input + output across client links, no server↔server.
        assert_eq!(report.bytes.net_server_server, 0);
        assert!(report.bytes.net_client_server >= 2 * input.byte_len());
        assert!(report.exec_secs() > 0.0);
    }

    #[test]
    fn ts_with_more_clients_than_rows() {
        let mut cfg = ClusterConfig::small_test();
        cfg.compute_nodes = 16;
        let input = workload::fbm_dem(32, 8, 5); // 8 rows < 16 clients
        let report = run_ts(&cfg, &GaussianFilter, &input);
        let reference = GaussianFilter.apply(&input);
        assert_eq!(report.output_fingerprint, reference.fingerprint());
    }
}
