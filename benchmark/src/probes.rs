//! Per-layer numbers of a traced run: the daemons' own stage histograms
//! over the window, counts the ops returned, and short probes that time
//! each layer's public functions directly. No number here has a bound;
//! they say where an end-to-end change came from.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use das_core::{ActiveStorageClient, Decision, RequestOptions, StripingParams};
use das_kernels::{kernel_by_name, workload::fbm_dem, Kernel, Raster, RasterSource};
use das_net::codec::crc32;
use das_net::{frame_parts_opts, DasCluster, FrameBuffer, Message, NetScheme};
use das_pfs::{FileId, Layout, LayoutPolicy, ServerId, StorageServer, StripId, StripeSpec};
use das_runtime::StripAssembly;

use crate::run::Summary;
use crate::span::Tracer;
use crate::spec::SERVER_STAGES;
use crate::stats::median;
use crate::workload::{
    Bench, Inputs, Kind, SetupTimes, KERNEL, OUT_NAME, RASTER_HEIGHT, RASTER_STRIP, RASTER_WIDTH,
};

/// Side of the raster the kernel probes run on: 2048² f32 = 16 MiB,
/// four times this machine's 4 MiB L2 (its L3 is a shared 260 MiB).
const PROBE_SIDE: u64 = 2048;
/// Elements each kernel probe computes, from the middle of the raster.
const PROBE_ELEMS: usize = 128 * PROBE_SIDE as usize;

/// Σ duration and count of every `dasd_stage_duration_us{stage,op}`
/// cell, summed over the daemons, plus the shed counter.
#[derive(Default)]
pub struct StageTotals {
    cells: BTreeMap<(String, String), (f64, f64)>,
    shed: f64,
}

/// Read every daemon's registry. The histograms' log₂ buckets make
/// their quantiles useless; sum and count are exact.
pub fn stage_totals(bench: &mut Bench) -> Result<StageTotals, String> {
    let mut totals = StageTotals::default();
    for (_, text) in bench
        .cluster
        .metrics_dump_all()
        .map_err(|e| format!("metrics dump: {e}"))?
    {
        for s in das_obs::parse(&text) {
            let label = |k: &str| {
                s.labels
                    .iter()
                    .find(|(n, _)| n == k)
                    .map(|(_, v)| v.clone())
            };
            match s.name.as_str() {
                "dasd_requests_shed_total" => totals.shed += s.value,
                "dasd_stage_duration_us_sum" | "dasd_stage_duration_us_count" => {
                    if let (Some(stage), Some(op)) = (label("stage"), label("op")) {
                        let cell = totals.cells.entry((stage, op)).or_insert((0.0, 0.0));
                        if s.name.ends_with("_sum") {
                            cell.0 += s.value;
                        } else {
                            cell.1 += s.value;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(totals)
}

impl StageTotals {
    /// What every cell gained since `before`, a reading of the same fleet.
    pub fn since(mut self, before: &StageTotals) -> StageTotals {
        for (key, cell) in &mut self.cells {
            let was = before.cells.get(key).copied().unwrap_or_default();
            *cell = (cell.0 - was.0, cell.1 - was.1);
        }
        self.shed -= before.shed;
        self
    }

    /// Sum another fleet's gains into these.
    pub fn add(&mut self, other: &StageTotals) {
        for (key, cell) in &other.cells {
            let mine = self.cells.entry(key.clone()).or_default();
            *mine = (mine.0 + cell.0, mine.1 + cell.1);
        }
        self.shed += other.shed;
    }

    /// (Σ µs, count) of one cell.
    fn cell(&self, stage: &str, op: &str) -> (f64, f64) {
        self.cells
            .get(&(stage.to_string(), op.to_string()))
            .copied()
            .unwrap_or_default()
    }
}

/// CPU seconds this process has used (user + system), from
/// `/proc/self/stat` at the kernel's fixed 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields count from the last ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// A `Key:   value kB` line of `/proc/self/status`.
fn status_field(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(key)?
                .strip_prefix(':')?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// What the run already knows when the probes start.
pub struct Context<'a> {
    pub seed: u64,
    pub setup: SetupTimes,
    pub user_bytes: u64,
    /// Wall and CPU seconds of the measured windows.
    pub measured_s: f64,
    pub cpu_s: f64,
    pub ok_ops: u64,
    pub untraced: &'a Summary,
    pub traced: &'a Summary,
    pub dep_fetches: u64,
    pub dep_fetch_bytes: u64,
    /// Client hedges and retries over the windows.
    pub hedges: u64,
    pub retries: u64,
    /// What the stage histograms gained over the windows, all fleets.
    pub stages: &'a StageTotals,
    pub nproc: usize,
}

/// Median seconds per call over `reps` batches of `batch` calls. Results
/// pass through `black_box` so the calls are not optimised away.
fn time_batches<R>(reps: usize, batch: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..batch {
                black_box(f(i));
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&per_call)
}

/// Median seconds of `n` single calls; an error aborts the probe suite.
fn time_calls<E: std::fmt::Display>(
    n: usize,
    mut f: impl FnMut(usize) -> Result<(), E>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        f(i).map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// Every per-layer metric of `spec::per_layer`, by name.
pub fn per_layer(
    bench: &mut Bench,
    inputs: &Inputs,
    tracer: &mut Tracer,
    ctx: &Context<'_>,
) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    tracer.on = true;
    tracer.probes();
    // Before any probe allocates: what the workload itself needed.
    out.insert("process.threads".to_string(), status_field("Threads"));
    out.insert(
        "process.peak_rss_mib".to_string(),
        status_field("VmHWM") / 1024.0,
    );
    from_the_window(bench, inputs, ctx, &mut out)?;
    tracer.span("probe.das-net::codec", |_| codec(&mut out));
    tracer.span("probe.das-net::engine", |t| {
        engine(&mut bench.cluster, t, &mut out)
    })?;
    tracer.span("probe.das-net::client", |t| {
        client(bench, inputs, ctx, t, &mut out)
    })?;
    tracer.span("probe.das-pfs", |_| pfs(&mut out));
    tracer.span("probe.das-kernels", |_| kernels(ctx.seed, &mut out));
    tracer.span("probe.das-core", |_| core(&mut out))?;
    tracer.span("probe.das-obs", |_| obs(&mut bench.cluster, &mut out))?;
    Ok(out)
}

/// Numbers that describe the measured windows themselves.
fn from_the_window(
    bench: &mut Bench,
    inputs: &Inputs,
    ctx: &Context<'_>,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut put = |name: &str, v: f64| out.insert(name.to_string(), v);
    let ops = ctx.ok_ops.max(1) as f64;
    let user_mib = ops * ctx.user_bytes as f64 / (1u64 << 20) as f64;
    put("process.cpu_s_per_user_mib", ctx.cpu_s / user_mib);
    put(
        "process.cpu_busy_frac",
        ctx.cpu_s / (ctx.measured_s * ctx.nproc as f64),
    );
    put("setup.boot_ms", ctx.setup.boot_ms);
    put("setup.ingest_ms", ctx.setup.ingest_ms);
    put("setup.verify_ms", ctx.setup.verify_ms);
    put("setup.first_run_ms", ctx.setup.first_run_ms);
    let overhead = if ctx.untraced.mib_per_s > 0.0 {
        1.0 - ctx.traced.mib_per_s / ctx.untraced.mib_per_s
    } else {
        0.0
    };
    put("obs.trace_overhead_frac", overhead);
    put("engine.shed_total", ctx.stages.shed);

    for (op, stages) in SERVER_STAGES {
        for stage in stages {
            let (sum, count) = ctx.stages.cell(stage, op);
            put(
                &format!("server.{stage}.{op}.mean_us"),
                if count > 0.0 { sum / count } else { 0.0 },
            );
        }
    }
    let (fetch_us, fetches) = ctx.stages.cell("peer_fetch", "exec");
    let (exec_us, _) = ctx.stages.cell("dispatch", "exec");
    put("peer.fetches_per_op", ctx.dep_fetches as f64 / ops);
    put("peer.fetch_bytes_per_op", ctx.dep_fetch_bytes as f64 / ops);
    put(
        "peer.fetch_mean_us",
        if fetches > 0.0 {
            fetch_us / fetches
        } else {
            0.0
        },
    );
    put(
        "peer.fetch_share",
        if exec_us > 0.0 {
            fetch_us / exec_us
        } else {
            0.0
        },
    );

    // Strip gets the client issued per op: the input read (file-read,
    // TS) and the output read-back every scheme run ends with.
    let strips = bench.input_strips(inputs) as f64;
    let gets_per_op = match bench.kind {
        Kind::FileRead => strips,
        Kind::FileWrite => 0.0,
        Kind::Scheme(NetScheme::Ts) => 2.0 * strips,
        Kind::Scheme(_) => strips,
    };
    put(
        "client.hedges_per_get",
        if gets_per_op > 0.0 {
            ctx.hedges as f64 / (gets_per_op * ops)
        } else {
            0.0
        },
    );
    put("client.retries_total", ctx.retries as f64);

    // The space the adopted layout pays, and the prediction held against
    // the fetch bytes the servers reported.
    let dist = bench
        .cluster
        .distribution(bench.file)
        .map_err(|e| format!("distribution: {e}"))?;
    let strip_count = StripeSpec::new(dist.strip_size).strip_count(dist.file_len);
    let copies = Layout::new(dist.policy, dist.servers).total_copies(strip_count);
    put(
        "pfs.stored_bytes_per_user_byte",
        (copies * dist.strip_size as u64) as f64 / dist.file_len as f64,
    );
    let predicted = if bench.kind.offloads() {
        let offsets = kernel_by_name(KERNEL)
            .expect("built-in kernel")
            .dependence_offsets(RASTER_WIDTH);
        StripingParams::from_distribution(&dist, 4)
            .predict_nas_fetches(&offsets, dist.file_len)
            .bytes as f64
    } else {
        0.0
    };
    let measured = ctx.dep_fetch_bytes as f64 / ops;
    put(
        "core.predicted_over_measured_fetch_bytes",
        if predicted == measured {
            1.0
        } else {
            predicted / measured
        },
    );
    Ok(())
}

fn codec(out: &mut BTreeMap<String, f64>) {
    let mut put = |name: &str, v: f64| out.insert(name.to_string(), v);
    let mib = vec![0xA5u8; 1 << 20];
    put(
        "codec.crc32_mib_s",
        1.0 / time_batches(9, 4, |_| crc32(&[black_box(&mib)])),
    );
    let get = Message::GetStrip { file: 1, strip: 7 };
    put(
        "codec.encode_get_ns",
        1e9 * time_batches(9, 2000, |_| frame_parts_opts(black_box(&get), None, None)),
    );
    for (tag, len, batch) in [("4k", 4 << 10, 400), ("64k", 64 << 10, 40)] {
        let strip = Message::StripData {
            payload: vec![0x5Au8; len],
        };
        put(
            &format!("codec.encode_strip{tag}_ns"),
            1e9 * time_batches(9, batch, |_| {
                frame_parts_opts(black_box(&strip), None, None)
            }),
        );
        let frame = frame_parts_opts(&strip, None, None).to_vec();
        let mut buffer = FrameBuffer::new();
        put(
            &format!("codec.decode_strip{tag}_ns"),
            1e9 * time_batches(9, batch, |_| {
                buffer.extend(black_box(&frame));
                buffer
                    .next_frame_ex()
                    .expect("a frame this codec built")
                    .expect("one whole frame")
            }),
        );
    }
}

/// Round trips on one connection to daemon 0 through `DasCluster::call`.
fn engine(
    cluster: &mut DasCluster,
    tracer: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let rtt = |cluster: &mut DasCluster, n: usize, msg: &Message| {
        time_calls(n, |_| cluster.call(0, msg).map(drop)).map(|s| s * 1e6)
    };
    let ping = tracer.span("das-net::client.call(Ping)", |_| {
        rtt(cluster, 300, &Message::Ping)
    })?;
    out.insert("engine.ping_rtt_p50_us".to_string(), ping);
    for (tag, len, n) in [("4k", 4u32 << 10, 300), ("64k", 64 << 10, 100)] {
        // Strip 0 of a round-robin file lives on daemon 0.
        let file = cluster
            .create_file(
                &format!("probe.rtt.{tag}"),
                u64::from(len) * 4,
                len,
                LayoutPolicy::RoundRobin,
            )
            .map_err(|e| format!("create_file: {e}"))?;
        let put = Message::PutStrip {
            file,
            strip: 0,
            payload: vec![0x3Cu8; len as usize],
        };
        let get = Message::GetStrip { file, strip: 0 };
        let put_us = tracer.span("das-net::client.call(PutStrip)", |_| rtt(cluster, n, &put))?;
        let get_us = tracer.span("das-net::client.call(GetStrip)", |_| rtt(cluster, n, &get))?;
        out.insert(format!("engine.put{tag}_rtt_p50_us"), put_us);
        out.insert(format!("engine.get{tag}_rtt_p50_us"), get_us);
    }
    Ok(())
}

/// The client library's public calls, one span each.
fn client(
    bench: &mut Bench,
    inputs: &Inputs,
    ctx: &Context<'_>,
    tracer: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let addrs = bench.addrs.clone();
    let file = bench.file;
    let kind = bench.kind;
    let cluster = &mut bench.cluster;
    let mut put = |name: &str, v: f64| out.insert(name.to_string(), v);

    let s = tracer.span("das-net::client.connect", |_| {
        time_calls(5, |_| DasCluster::connect(&addrs).map(drop))
    })?;
    put("client.connect_ms", s * 1e3);
    let s = tracer.span("das-net::client.create_file", |_| {
        time_calls(8, |i| {
            cluster
                .create_file(
                    &format!("probe.create.{i}"),
                    16 << 10,
                    4 << 10,
                    LayoutPolicy::RoundRobin,
                )
                .map(drop)
        })
    })?;
    put("client.create_file_us", s * 1e6);
    let s = tracer.span("das-net::client.distribution", |_| {
        time_calls(50, |_| cluster.distribution(file).map(drop))
    })?;
    put("client.distribution_us", s * 1e6);
    let s = tracer.span("das-net::client.reset_stats", |_| {
        time_calls(30, |_| cluster.reset_stats())
    })?;
    put("client.reset_stats_us", s * 1e6);
    let s = tracer.span("das-net::client.stats", |_| {
        time_calls(30, |_| cluster.stats().map(drop))
    })?;
    put("client.stats_us", s * 1e6);

    // Whole-file calls on the workload's own file shape and layout.
    let dist = cluster
        .distribution(file)
        .map_err(|e| format!("distribution: {e}"))?;
    let copy = cluster
        .create_file(
            "probe.rw",
            dist.file_len,
            dist.strip_size as u32,
            dist.policy,
        )
        .map_err(|e| format!("create_file: {e}"))?;
    let s = tracer.span("das-net::client.put_file", |_| {
        time_calls(9, |_| cluster.put_file(copy, &inputs.data))
    })?;
    put("client.put_file_ms", s * 1e3);
    let s = tracer.span("das-net::client.read_file", |_| {
        time_calls(9, |_| cluster.read_file(copy).map(drop))
    })?;
    put("client.read_file_ms", s * 1e3);

    // What TS computes on the client: bytes → raster → kernel → bytes.
    let dem = fbm_dem(RASTER_WIDTH, RASTER_HEIGHT, ctx.seed).to_bytes();
    let kernel = kernel_by_name(KERNEL).expect("built-in kernel");
    let s = tracer.span("das-kernels::Kernel.apply", |_| {
        time_batches(9, 1, |_| {
            let raster = Raster::from_bytes(RASTER_WIDTH, RASTER_HEIGHT, black_box(&dem));
            kernel.apply(&raster).to_bytes();
        })
    });
    put("client.ts_kernel_ms", s * 1e3);

    // The offload fan-out as the workload's scheme issues it; a workload
    // that never offloads bypasses this layer and reports 0.
    let (mut execute_ms, mut serial_frac) = (0.0, 0.0);
    if kind.offloads() {
        let (out_file, _) = cluster
            .lookup(OUT_NAME)
            .map_err(|e| format!("lookup: {e}"))?;
        // NAS forces the offload on the layout as it stands; DAS asks.
        let (successive, force) = if kind == Kind::Scheme(NetScheme::Nas) {
            (false, true)
        } else {
            (true, false)
        };
        let wall = tracer.span("das-net::client.execute", |_| {
            time_calls(7, |_| {
                match cluster.execute(file, out_file, KERNEL, RASTER_WIDTH, successive, force) {
                    Ok(Ok(_)) => Ok(()),
                    Ok(Err(reason)) => Err(format!("offload rejected: {reason}")),
                    Err(e) => Err(e.to_string()),
                }
            })
        })?;
        let msg = Message::Execute {
            file,
            out_file,
            kernel: KERNEL.to_string(),
            img_width: RASTER_WIDTH,
            element_size: 4,
            successive,
            force,
        };
        let servers = cluster.servers() as usize;
        let summed = tracer.span("das-net::client.call(Execute) per server", |_| {
            time_calls(7, |_| {
                (0..servers).try_for_each(|s| cluster.call(s, &msg).map(drop))
            })
        })?;
        execute_ms = wall * 1e3;
        serial_frac = wall / summed;
    }
    put("client.execute_ms", execute_ms);
    put("client.execute_serial_frac", serial_frac);

    // Redistribution to the layout the DAS planner picks, on fresh files.
    let planner = ActiveStorageClient::with_builtin_features();
    let opts = RequestOptions {
        img_width: RASTER_WIDTH,
        successive: true,
        ..Default::default()
    };
    let mut moved = 0u64;
    let mut times = Vec::new();
    for i in 0..3 {
        let fresh = cluster
            .create_file(
                &format!("probe.redist.{i}"),
                dem.len() as u64,
                RASTER_STRIP,
                LayoutPolicy::RoundRobin,
            )
            .map_err(|e| format!("create_file: {e}"))?;
        cluster
            .put_file(fresh, &dem)
            .map_err(|e| format!("put_file: {e}"))?;
        let dist = cluster
            .distribution(fresh)
            .map_err(|e| format!("distribution: {e}"))?;
        let policy = match planner.decide_from_distribution(dist, KERNEL, &opts) {
            Ok(Decision::Offload {
                replan: Some(plan), ..
            }) => plan.policy,
            other => return Err(format!("planner kept round-robin: {other:?}")),
        };
        let t = Instant::now();
        moved = tracer
            .span("das-net::client.redistribute", |_| {
                cluster.redistribute(fresh, policy)
            })
            .map_err(|e| format!("redistribute: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
    }
    put("client.redistribute_ms", median(&times) * 1e3);
    put("client.redistribute_bytes", moved as f64);
    Ok(())
}

/// The in-process strip store and placement arithmetic.
fn pfs(out: &mut BTreeMap<String, f64>) {
    const STRIPS: usize = 1024;
    let strips: Vec<Bytes> = (0..STRIPS)
        .map(|i| Bytes::copy_from_slice(&[i as u8; 4 << 10]))
        .collect();
    let mut store = StorageServer::new(ServerId(0));
    let s = time_batches(9, STRIPS, |i| {
        store.store(FileId(0), StripId(i as u64), strips[i].clone(), true)
    });
    out.insert("pfs.store_4k_ns".to_string(), s * 1e9);
    let s = time_batches(9, STRIPS, |i| {
        store.read_strip(FileId(0), StripId(i as u64))
    });
    out.insert("pfs.read_strip_4k_ns".to_string(), s * 1e9);
    let layout = Layout::new(LayoutPolicy::GroupedReplicated { group: 8 }, 4);
    let s = time_batches(9, STRIPS, |i| {
        layout.placement(StripId(black_box(i as u64)))
    });
    out.insert("pfs.placement_ns".to_string(), s * 1e9);
}

/// Each kernel over the same elements twice: through a `Raster` (the TS
/// client's path) and through a `StripAssembly` (the servers' path).
fn kernels(seed: u64, out: &mut BTreeMap<String, f64>) {
    let raster = fbm_dem(PROBE_SIDE, PROBE_SIDE, seed);
    let bytes = raster.to_bytes();
    let strip = RASTER_STRIP as usize;
    let chunks: Vec<Bytes> = bytes.chunks(strip).map(Bytes::copy_from_slice).collect();
    let mut assembly = StripAssembly::new(PROBE_SIDE, PROBE_SIDE, strip, "probe");
    let t = Instant::now();
    for (i, chunk) in chunks.iter().enumerate() {
        assembly.insert(StripId(i as u64), chunk.clone());
    }
    out.insert(
        "assembly.insert_ns".to_string(),
        t.elapsed().as_secs_f64() * 1e9 / chunks.len() as f64,
    );

    let start = raster.cells() / 2;
    let s = time_batches(5, PROBE_ELEMS, |i| assembly.get_linear(start + i as u64));
    out.insert("assembly.get_linear_ns".to_string(), s * 1e9);

    let mut cells = vec![0f32; PROBE_ELEMS];
    for (name, key) in [
        ("flow-routing", "flow_routing"),
        ("gaussian-filter", "gaussian_filter"),
    ] {
        let kernel: Box<dyn Kernel> = kernel_by_name(name).expect("built-in kernel");
        let s = time_batches(5, 1, |_| {
            kernel.process_range(&RasterSource(&raster), start, black_box(&mut cells))
        });
        out.insert(
            format!("kernels.{key}.raster_ns_per_elem"),
            s * 1e9 / PROBE_ELEMS as f64,
        );
        let s = time_batches(5, 1, |_| {
            kernel.process_range(&assembly, start, black_box(&mut cells))
        });
        out.insert(
            format!("kernels.{key}.assembly_ns_per_elem"),
            s * 1e9 / PROBE_ELEMS as f64,
        );
    }
}

/// The decision workflow and the Eqs. 1–17 predictor on the scheme
/// workloads' geometry under round-robin.
fn core(out: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let file_len = RASTER_WIDTH * RASTER_HEIGHT * 4;
    let dist = das_pfs::DistributionInfo {
        strip_size: RASTER_STRIP as usize,
        servers: 4,
        policy: LayoutPolicy::RoundRobin,
        file_len,
    };
    let planner = ActiveStorageClient::with_builtin_features();
    let opts = RequestOptions {
        img_width: RASTER_WIDTH,
        successive: true,
        ..Default::default()
    };
    planner
        .decide_from_distribution(dist, KERNEL, &opts)
        .map_err(|e| format!("decide: {e}"))?;
    let s = time_batches(9, 20, |_| {
        planner.decide_from_distribution(black_box(dist), KERNEL, &opts)
    });
    out.insert("core.decide_us".to_string(), s * 1e6);
    let params = StripingParams::from_distribution(&dist, 4);
    let offsets = kernel_by_name(KERNEL)
        .expect("built-in kernel")
        .dependence_offsets(RASTER_WIDTH);
    let s = time_batches(9, 20, |_| {
        params.predict_nas_fetches(black_box(&offsets), file_len)
    });
    out.insert("core.predict_nas_us".to_string(), s * 1e6);
    let s = time_batches(9, 20, |_| {
        params.nas_fetch_plan(black_box(&offsets), file_len)
    });
    out.insert("core.nas_fetch_plan_us".to_string(), s * 1e6);
    Ok(())
}

/// The cost of looking: one histogram observation, encoding a registry
/// the size of a daemon's, and a metrics scrape over the wire.
fn obs(cluster: &mut DasCluster, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let registry = das_obs::Registry::new();
    let hist = registry.histogram("probe_duration_us", &[("stage", "dispatch"), ("op", "get")]);
    let s = time_batches(9, 10_000, |i| hist.observe(black_box(i as u64)));
    out.insert("obs.hist_observe_ns".to_string(), s * 1e9);
    for stage in das_obs::Stage::ALL {
        for op in das_obs::OpClass::ALL {
            registry
                .histogram(
                    "probe_duration_us",
                    &[("stage", stage.name()), ("op", op.name())],
                )
                .observe(100);
        }
    }
    let s = time_batches(9, 4, |_| registry.encode());
    out.insert("obs.registry_encode_us".to_string(), s * 1e6);
    let s = time_calls(9, |_| cluster.metrics_dump(0).map(drop))?;
    out.insert("obs.metrics_dump_rtt_us".to_string(), s * 1e6);
    Ok(())
}
