//! # das-load — open-loop load generation for the das-net service
//!
//! Drives a live `dasd` fleet with a mixed put/get/exec workload from
//! many concurrent client workers, each with a connection of its own to
//! every server (a [`das_net::DasCluster`]) and one operation in flight
//! at a time, and reports throughput and latency quantiles per
//! operation class.
//!
//! The generator is **open-loop**: operation *i* is scheduled at an
//! absolute arrival time drawn from a seeded exponential (Poisson)
//! process of the configured rate, independent of when earlier
//! operations complete. Latency is measured from the **scheduled**
//! arrival, not from when a worker got around to issuing the request,
//! so queueing delay under overload is charged to the server — the
//! property that makes open-loop numbers honest where closed-loop
//! generators silently self-throttle (coordinated omission).
//!
//! [`run_bench`] drives an already-running fleet once and returns a
//! [`report::BenchReport`] — what `das bench` writes to
//! `BENCH_net.json`. [`fleet::spawn_fleet`] boots an in-process
//! loopback fleet for it when no external cluster is given.

// The load generator drives live fleets through long runs: a panic on
// a transient error would end the run instead of counting it.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod fleet;
pub mod report;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use das_net::{DasCluster, Message, NetError, RetryPolicy};
use das_obs::{event, Histogram, Level};
use das_pfs::LayoutPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use report::{BenchReport, ClassStats};

/// One operation class of the mixed workload; its discriminant is its
/// place in [`OpKind::ALL`], and in every per-class table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `GetStrip` of a random strip from its primary holder.
    Get,
    /// `PutStrip` of a full strip to its primary holder.
    Put,
    /// A forced single-server kernel execution (dependence fetches
    /// and all) over a small raster file.
    Exec,
}

impl OpKind {
    /// All classes, in report order.
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Put, OpKind::Exec];

    /// The class's report label.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Exec => "exec",
        }
    }
}

/// Relative weights of the operation classes in the arrival stream.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Weight of [`OpKind::Get`].
    pub get: u32,
    /// Weight of [`OpKind::Put`].
    pub put: u32,
    /// Weight of [`OpKind::Exec`].
    pub exec: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Mix { get: 70, put: 25, exec: 5 }
    }
}

impl Mix {
    /// Parse `get:put:exec` weights, e.g. `70:25:5`. At least one
    /// weight must be nonzero.
    pub fn parse(s: &str) -> Option<Mix> {
        let mut it = s.split(':');
        let get = it.next()?.trim().parse().ok()?;
        let put = it.next()?.trim().parse().ok()?;
        let exec = it.next()?.trim().parse().ok()?;
        if it.next().is_some() || get + put + exec == 0 {
            return None;
        }
        Some(Mix { get, put, exec })
    }

    fn pick(&self, roll: u64) -> OpKind {
        let total = (self.get + self.put + self.exec) as u64;
        let r = roll % total;
        if r < self.get as u64 {
            OpKind::Get
        } else if r < (self.get + self.put) as u64 {
            OpKind::Put
        } else {
            OpKind::Exec
        }
    }
}

/// Everything one benchmark run needs to know.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Target aggregate arrival rate, operations per second.
    pub rate: f64,
    /// Run length: arrivals are scheduled across this window.
    pub duration: Duration,
    /// Concurrent client workers draining the arrival schedule.
    pub clients: usize,
    /// Strip size of the benchmark file, bytes.
    pub strip_size: u32,
    /// Number of strips in the benchmark file.
    pub strips: u64,
    /// Operation-class mix.
    pub mix: Mix,
    /// Seed for arrivals, class picks, and strip picks.
    pub seed: u64,
    /// Kernel the exec class runs.
    pub kernel: String,
    /// Rows (= strips) of the small raster the exec class computes on.
    pub exec_rows: u64,
    /// Servers of the in-process fleet ([`fleet::spawn_fleet`] only).
    pub servers: usize,
    /// Daemon worker-pool size ([`fleet::spawn_fleet`] only).
    pub pool: usize,
    /// Daemon admission-control bound ([`fleet::spawn_fleet`] only):
    /// `None` keeps the daemon default. Set small together with a
    /// past-capacity `rate` to run a reproducible overload scenario —
    /// the excess is shed as typed `Overloaded`, which the report
    /// shows under `errors_by_code` / `requests_shed` while
    /// `queue_depth_peak` stays at this bound.
    pub max_backlog: Option<usize>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            // A rate the fleet can actually sustain: the exec class
            // (kernel + peer dependence fetches) costs tens of
            // milliseconds of pool time per call, so an open-loop
            // rate far past capacity just measures queueing collapse.
            rate: 400.0,
            duration: Duration::from_secs(5),
            clients: 64,
            strip_size: 4096,
            strips: 64,
            mix: Mix::default(),
            seed: 42,
            kernel: "gaussian-filter".to_string(),
            exec_rows: 32,
            servers: 3,
            pool: 8,
            max_backlog: None,
        }
    }
}

/// Uniform f64 in (0, 1] from one rng draw (never 0, so `ln` is safe).
fn unit_open(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// One pre-scheduled arrival.
struct ScheduledOp {
    /// Arrival offset from the run's start, microseconds.
    offset_us: u64,
    kind: OpKind,
    /// Strip the op touches (get/put) — also selects the server.
    strip: u64,
}

/// Deterministic per-strip payload so puts are reproducible and gets
/// verifiable by length.
fn strip_bytes(seed: u64, strip: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ strip.wrapping_mul(0x9e3779b97f4a7c15));
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Build the full arrival schedule up front: exponential inter-arrival
/// times at `rate` until `duration` is covered.
fn build_schedule(cfg: &BenchConfig) -> Vec<ScheduledOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ops = Vec::new();
    let horizon_us = cfg.duration.as_micros() as u64;
    let mut t_us = 0f64;
    loop {
        t_us += -unit_open(&mut rng).ln() / cfg.rate * 1e6;
        if t_us as u64 >= horizon_us {
            break;
        }
        let kind = cfg.mix.pick(rng.next_u64());
        let strip = rng.next_u64() % cfg.strips.max(1);
        ops.push(ScheduledOp { offset_us: t_us as u64, kind, strip });
    }
    ops
}

/// File ids the workload operates on, established during setup.
#[derive(Clone, Copy)]
struct BenchFiles {
    bench: u32,
    exec_in: u32,
    exec_out: u32,
}

/// Create and populate the benchmark files through a serial client.
fn setup_files(
    cluster: &mut DasCluster,
    cfg: &BenchConfig,
    tag: &str,
) -> Result<BenchFiles, NetError> {
    let bench_len = cfg.strips * cfg.strip_size as u64;
    let bench = cluster.create_file(
        &format!("bench-{tag}.dat"),
        bench_len,
        cfg.strip_size,
        LayoutPolicy::RoundRobin,
    )?;
    let data = strip_bytes(cfg.seed, u64::MAX, bench_len as usize);
    cluster.put_file(bench, &data)?;

    let exec_len = cfg.exec_rows * cfg.strip_size as u64;
    let exec_data = strip_bytes(cfg.seed ^ 1, u64::MAX - 1, exec_len as usize);
    let exec_in = cluster.create_file(
        &format!("bench-{tag}-exec.in"),
        exec_len,
        cfg.strip_size,
        LayoutPolicy::RoundRobin,
    )?;
    cluster.put_file(exec_in, &exec_data)?;
    let exec_out = cluster.create_file(
        &format!("bench-{tag}-exec.out"),
        exec_len,
        cfg.strip_size,
        LayoutPolicy::RoundRobin,
    )?;
    Ok(BenchFiles { bench, exec_in, exec_out })
}

/// Per-class accumulation shared by all workers.
#[derive(Default)]
struct ClassAcc {
    latency_us: Histogram,
    scheduled: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    max_us: AtomicU64,
}

/// Failure breakdown shared by all workers: typed remote errors are
/// keyed by their wire [`ErrorCode`] name (so an overload run shows
/// exactly how many ops were shed as `Overloaded` vs. timed out),
/// everything else by a coarse transport class. Locked only on the
/// error path, which by construction is off the happy-path clock.
///
/// [`ErrorCode`]: das_net::ErrorCode
type ErrorBreakdown = Mutex<BTreeMap<&'static str, u64>>;

/// Classify one failed operation for the breakdown.
fn error_class(outcome: &Result<Message, NetError>) -> &'static str {
    match outcome {
        Err(NetError::Remote { code, .. }) => code.name(),
        Err(NetError::Io(_)) => "io",
        Err(_) => "protocol",
        Ok(_) => "bad-reply",
    }
}

/// Drive one already-running fleet at `addrs` with the configured
/// workload and return the measured report. `engine_label` is carried
/// into the report verbatim (`evloop` for a loopback fleet; the
/// generator cannot see what a remote daemon runs).
pub fn run_bench(
    addrs: &[String],
    cfg: &BenchConfig,
    engine_label: &str,
) -> Result<BenchReport, NetError> {
    let policy = bench_policy();
    let mut setup = DasCluster::connect_with(addrs, policy.clone())?;
    let files = setup_files(&mut setup, cfg, engine_label)?;

    // One client per worker, connected before the schedule clock
    // starts; each op is one attempt.
    let worker_policy = RetryPolicy { max_attempts: 1, ..policy.clone() };
    let mut clusters = (0..cfg.clients.max(1))
        .map(|_| DasCluster::connect_with(addrs, worker_policy.clone()))
        .collect::<Result<Vec<_>, _>>()?;

    let ops = build_schedule(cfg);
    let accs: Vec<ClassAcc> = OpKind::ALL.iter().map(|_| ClassAcc::default()).collect();
    for op in ops.iter() {
        accs[op.kind as usize].scheduled.fetch_add(1, Ordering::Relaxed);
    }
    event(
        Level::Info,
        "das.bench",
        "starting open-loop run",
        &[
            ("engine", engine_label.to_string()),
            ("ops", ops.len().to_string()),
            ("rate", format!("{:.0}/s", cfg.rate)),
            ("clients", cfg.clients.to_string()),
        ],
    );

    let next = AtomicUsize::new(0);
    let errs: ErrorBreakdown = Mutex::new(BTreeMap::new());
    // Per server, how many of the monitor's dumps it has answered.
    let answers: Arc<Vec<AtomicU64>> = Arc::new(addrs.iter().map(|_| AtomicU64::new(0)).collect());

    // Saturation observer: while the run is in flight, poll every
    // daemon's registry for the live worker-queue depth (MetricsDump
    // is shed-exempt, so this works under full overload) and
    // difference the shed counters across the run. An overloaded run
    // is thereby *characterized*, not just failed: the report shows
    // the queue staying at its bound while the excess is shed.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stop = Arc::clone(&stop);
        let answers = Arc::clone(&answers);
        let mut cluster = setup;
        std::thread::spawn(move || {
            let shed_of = |text: &str| -> u64 {
                das_obs::parse(text)
                    .iter()
                    .filter(|s| s.name == "dasd_requests_shed_total")
                    .map(|s| s.value)
                    .sum::<f64>() as u64
            };
            // Shed counters are tracked as one monotonic high-water
            // mark *per daemon*: a dump that times out under peak
            // load gets its server marked down, after which
            // `metrics_dump_all` silently covers fewer daemons — a
            // single fleet-wide sum would then collapse to whatever
            // subset answered last, undercounting the run.
            let mut base: BTreeMap<u32, u64> = BTreeMap::new();
            let mut seen: BTreeMap<u32, u64> = BTreeMap::new();
            if let Ok(dumps) = cluster.metrics_dump_all() {
                for (id, text) in &dumps {
                    base.insert(*id, shed_of(text));
                }
            }
            let mut depth_peak = 0u64;
            let mut read = |cluster: &mut DasCluster, seen: &mut BTreeMap<u32, u64>| -> bool {
                // A dump that fails marks its daemon down — for good,
                // to a `DasCluster` — but a saturated daemon is not a
                // dead one: dial the lost ones again each pass.
                for s in cluster.down_servers() {
                    let _ = cluster.redial(s);
                }
                let Ok(dumps) = cluster.metrics_dump_all() else { return false };
                for (id, text) in &dumps {
                    answers[*id as usize].fetch_add(1, Ordering::Release);
                    let depth = das_obs::parse(text)
                        .iter()
                        .filter(|s| s.name == "dasd_worker_queue_depth")
                        .map(|s| s.value)
                        .fold(0.0, f64::max);
                    depth_peak = depth_peak.max(depth as u64);
                    let e = seen.entry(*id).or_insert(0);
                    *e = (*e).max(shed_of(text));
                }
                true
            };
            // The final counts come from the settling reads below, after the
            // worker threads are joined (join is the synchronization edge).
            // das-lint: allow(DA711) pure quiesce flag — no data rides on it
            while !stop.load(Ordering::Relaxed) {
                read(&mut cluster, &mut seen);
                std::thread::sleep(Duration::from_millis(25));
            }
            // The workers have drained, so the fleet is idle: retry
            // the settling read a few times so one dump that raced
            // the drain (or timed out under peak load) cannot
            // undercount the final shed total.
            for _ in 0..10 {
                if read(&mut cluster, &mut seen) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            let shed: u64 = seen
                .iter()
                .map(|(id, v)| v.saturating_sub(base.get(id).copied().unwrap_or(0)))
                .sum();
            // One final settled dump per daemon feeds the report's
            // server-side stage attribution.
            let final_dumps = cluster.metrics_dump_all().unwrap_or_default();
            (depth_peak, shed, final_dumps)
        })
    };

    let t0 = Instant::now();
    let run = Run { answers: &answers, ops: &ops, accs: &accs, errs: &errs, next: &next, cfg, files, t0 };
    std::thread::scope(|scope| {
        for cluster in &mut clusters {
            let run = &run;
            scope.spawn(move || run.worker(cluster));
        }
    });
    let wall = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    let (queue_depth_peak, requests_shed, final_dumps) =
        monitor.join().unwrap_or((0, 0, Vec::new()));
    let stages = stage_attribution(&final_dumps);

    // Leave the target fleet exactly as capable as we found it: the
    // bench files stay (ids are monotone, names are tagged), and the
    // workers' connections close on drop.
    drop(clusters);

    Ok(build_report(engine_label, cfg, &accs, &errs, queue_depth_peak, requests_shed, wall, stages))
}

/// The retry policy of every bench connection: short timeouts so an
/// overloaded run fails fast instead of hanging out a 15 s default.
fn bench_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(2000),
        read_timeout: Duration::from_millis(1000),
        write_timeout: Duration::from_millis(1000),
        max_attempts: 2,
        ..RetryPolicy::default()
    }
}

/// What every worker of one run shares.
struct Run<'a> {
    answers: &'a [AtomicU64],
    ops: &'a [ScheduledOp],
    accs: &'a [ClassAcc],
    errs: &'a ErrorBreakdown,
    next: &'a AtomicUsize,
    cfg: &'a BenchConfig,
    files: BenchFiles,
    t0: Instant,
}

impl Run<'_> {
    /// Drain the schedule through `cluster`, one op at a time.
    fn worker(&self, cluster: &mut DasCluster) {
        let (cfg, files) = (self.cfg, &self.files);
        // Per server this worker's cluster lost: how many dumps it had
        // answered the monitor by then.
        let mut lost: Vec<Option<u64>> = vec![None; self.answers.len()];
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(op) = self.ops.get(i) else { return };
            // Open loop: wait for the scheduled arrival, then charge all
            // time from that instant — including any lateness of this
            // worker — to the operation.
            let offset = Duration::from_micros(op.offset_us);
            let now = self.t0.elapsed();
            if offset > now {
                std::thread::sleep(offset - now);
            }
            let server = (op.strip % u64::from(cluster.servers())) as usize;
            // A lost server is dialled again once it has answered the
            // monitor since; until then its ops fail at once, and a
            // dead one never stalls a worker in a dial.
            if lost[server].is_some_and(|at| self.answers[server].load(Ordering::Acquire) > at) {
                lost[server] = None;
                let _ = cluster.redial(server as u32);
            }
            let msg = match op.kind {
                OpKind::Get => Message::GetStrip { file: files.bench, strip: op.strip },
                OpKind::Put => Message::PutStrip {
                    file: files.bench,
                    strip: op.strip,
                    payload: strip_bytes(cfg.seed, op.strip, cfg.strip_size as usize),
                },
                OpKind::Exec => Message::Execute {
                    file: files.exec_in,
                    out_file: files.exec_out,
                    kernel: cfg.kernel.clone(),
                    img_width: cfg.strip_size as u64 / 4,
                    element_size: 4,
                    successive: true,
                    force: true,
                },
            };
            // Its own trace id, as a scheme run has: an Execute's peer
            // fetches go out in pipelined waves only under one.
            cluster.begin_trace();
            let outcome = cluster.call(server, &msg);
            let ok = match &outcome {
                Ok(Message::StripData { payload }) => payload.len() == cfg.strip_size as usize,
                Ok(Message::PutStripOk) | Ok(Message::ExecuteOk { .. }) => true,
                Ok(_) | Err(_) => false,
            };
            let lat_us = (self.t0.elapsed().saturating_sub(offset)).as_micros() as u64;
            let acc = &self.accs[op.kind as usize];
            if ok {
                acc.latency_us.observe(lat_us);
                acc.completed.fetch_add(1, Ordering::Relaxed);
                acc.max_us.fetch_max(lat_us, Ordering::Relaxed);
            } else {
                acc.errors.fetch_add(1, Ordering::Relaxed);
                let mut by_code = match self.errs.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *by_code.entry(error_class(&outcome)).or_insert(0) += 1;
                drop(by_code);
                if cluster.down_servers().contains(&(server as u32)) {
                    lost[server] = Some(self.answers[server].load(Ordering::Acquire));
                }
            }
        }
    }
}

/// Fleet-aggregate the daemons' `dasd_stage_duration_us{stage,op}`
/// histograms into per-cell attribution: counts and sums add across
/// daemons, p99 interpolates on the merged cumulative buckets. This is
/// where `das bench` learns *where the time went* server-side — queue
/// wait vs. decode vs. kernel vs. reply write, per op class — instead
/// of one opaque end-to-end number.
fn stage_attribution(dumps: &[(u32, String)]) -> Vec<report::StageStats> {
    use report::StageStats;
    /// One cell's accumulator: duration sum, observation count, and
    /// merged cumulative bucket counts keyed by the `le` label.
    type Cell = (f64, f64, BTreeMap<String, f64>);
    let parsed: Vec<Vec<das_obs::Sample>> =
        dumps.iter().map(|(_, text)| das_obs::parse(text)).collect();
    let mut cells: BTreeMap<(String, String), Cell> = BTreeMap::new();
    for s in parsed.iter().flatten() {
        let stage = s.labels.iter().find(|(k, _)| k == "stage").map(|(_, v)| v.clone());
        let op = s.labels.iter().find(|(k, _)| k == "op").map(|(_, v)| v.clone());
        let (Some(stage), Some(op)) = (stage, op) else { continue };
        let cell = cells.entry((stage, op)).or_default();
        match s.name.as_str() {
            "dasd_stage_duration_us_sum" => cell.0 += s.value,
            "dasd_stage_duration_us_count" => cell.1 += s.value,
            "dasd_stage_duration_us_bucket" => {
                if let Some((_, le)) = s.labels.iter().find(|(k, _)| k == "le") {
                    *cell.2.entry(le.clone()).or_default() += s.value;
                }
            }
            _ => {}
        }
    }
    cells
        .into_iter()
        .filter(|(_, (_, count, _))| *count > 0.0)
        .map(|((stage, op), (sum_us, count, by_le))| {
            let merged: Vec<das_obs::Sample> = by_le
                .into_iter()
                .map(|(le, value)| das_obs::Sample {
                    name: "cell_us_bucket".to_string(),
                    labels: vec![("le".to_string(), le)],
                    value,
                })
                .collect();
            let p99 =
                das_obs::histogram_quantile(&merged, "cell_us", &[], 0.99).unwrap_or(0.0);
            StageStats { stage, op, count: count as u64, mean_us: sum_us / count, p99_us: p99 }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn build_report(
    engine: &str,
    cfg: &BenchConfig,
    accs: &[ClassAcc],
    errs: &ErrorBreakdown,
    queue_depth_peak: u64,
    requests_shed: u64,
    wall: Duration,
    stages: Vec<report::StageStats>,
) -> BenchReport {
    let errors_by_code: Vec<(String, u64)> = match errs.lock() {
        Ok(g) => g.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        Err(poisoned) => poisoned.into_inner().iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    };
    let wall_s = wall.as_secs_f64().max(1e-9);
    let classes: Vec<ClassStats> = OpKind::ALL
        .iter()
        .map(|&k| {
            let a = &accs[k as usize];
            let completed = a.completed.load(Ordering::Relaxed);
            let count = a.latency_us.count();
            // The log2-bucket interpolation can land past the largest
            // sample; no quantile is above the observed maximum.
            let max_us = a.max_us.load(Ordering::Relaxed);
            let quantile = |q| a.latency_us.quantile(q).unwrap_or(0).min(max_us);
            ClassStats {
                class: k.name().to_string(),
                scheduled: a.scheduled.load(Ordering::Relaxed),
                completed,
                errors: a.errors.load(Ordering::Relaxed),
                throughput_ops_s: completed as f64 / wall_s,
                mean_us: if count > 0 { a.latency_us.sum() as f64 / count as f64 } else { 0.0 },
                p50_us: quantile(0.50),
                p99_us: quantile(0.99),
                p999_us: quantile(0.999),
                max_us,
            }
        })
        .collect();
    let total_completed: u64 = classes.iter().map(|c| c.completed).sum();
    let total_errors: u64 = classes.iter().map(|c| c.errors).sum();
    BenchReport {
        engine: engine.to_string(),
        target_rate_ops_s: cfg.rate,
        duration_ms: cfg.duration.as_millis() as u64,
        clients: cfg.clients,
        strip_size: cfg.strip_size,
        seed: cfg.seed,
        wall_ms: wall.as_millis() as u64,
        total_completed,
        total_errors,
        errors_by_code,
        queue_depth_peak,
        requests_shed,
        achieved_ops_s: total_completed as f64 / wall_s,
        classes,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        let m = Mix::parse("70:25:5").unwrap();
        assert_eq!((m.get, m.put, m.exec), (70, 25, 5));
        assert!(Mix::parse("0:0:0").is_none());
        assert!(Mix::parse("1:2").is_none());
        assert!(Mix::parse("1:2:3:4").is_none());
        assert!(Mix::parse("a:b:c").is_none());
    }

    #[test]
    fn mix_pick_respects_zero_weights() {
        let m = Mix { get: 1, put: 0, exec: 0 };
        for roll in 0..100 {
            assert_eq!(m.pick(roll), OpKind::Get);
        }
        let m = Mix { get: 0, put: 0, exec: 3 };
        for roll in 0..100 {
            assert_eq!(m.pick(roll), OpKind::Exec);
        }
    }

    #[test]
    fn schedule_and_payloads_are_pinned() {
        // Pinned: a seed names one run, so its arrivals and payloads
        // must not move.
        let cfg = BenchConfig { seed: 7, ..BenchConfig::default() };
        let first: Vec<(u64, OpKind, u64)> =
            build_schedule(&cfg).iter().take(5).map(|o| (o.offset_us, o.kind, o.strip)).collect();
        assert_eq!(
            first,
            [
                (2355, OpKind::Get, 2),
                (3704, OpKind::Put, 17),
                (5602, OpKind::Put, 33),
                (7812, OpKind::Put, 44),
                (8026, OpKind::Get, 38),
            ]
        );
        assert_eq!(strip_bytes(7, 3, 12), [194, 208, 218, 237, 225, 182, 206, 40, 49, 121, 183, 174]);
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let cfg = BenchConfig {
            rate: 1000.0,
            duration: Duration::from_millis(500),
            ..BenchConfig::default()
        };
        let a = build_schedule(&cfg);
        let b = build_schedule(&cfg);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        let horizon = cfg.duration.as_micros() as u64;
        let mut prev = 0;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.offset_us, y.offset_us);
            assert_eq!(x.strip, y.strip);
            assert!(x.offset_us >= prev, "arrivals out of order");
            assert!(x.offset_us < horizon);
            assert!(x.strip < cfg.strips);
            prev = x.offset_us;
        }
        // ~rate * duration arrivals, within loose Poisson slack.
        let expect = (cfg.rate * cfg.duration.as_secs_f64()) as usize;
        assert!(a.len() > expect / 2 && a.len() < expect * 2, "{} vs {}", a.len(), expect);
    }

    #[test]
    fn stage_attribution_merges_daemon_histograms() {
        // Two daemons each observed the same (stage, op) cell; the
        // fleet view must sum counts/sums and merge the buckets.
        let reg = das_obs::Registry::new();
        let h = reg.histogram("dasd_stage_duration_us", &[("stage", "queue_wait"), ("op", "get")]);
        h.observe(10);
        h.observe(100);
        let text = reg.encode();
        let dumps = vec![(0u32, text.clone()), (1u32, text)];
        let stages = stage_attribution(&dumps);
        assert_eq!(stages.len(), 1);
        let s = &stages[0];
        assert_eq!((s.stage.as_str(), s.op.as_str()), ("queue_wait", "get"));
        assert_eq!(s.count, 4);
        assert!((s.mean_us - 55.0).abs() < 1e-9, "mean {}", s.mean_us);
        assert!(s.p99_us > 0.0);
        // A daemon with no stage histograms contributes nothing.
        assert!(stage_attribution(&[(0, das_obs::Registry::new().encode())]).is_empty());
    }

    #[test]
    fn strip_bytes_deterministic_and_sized() {
        assert_eq!(strip_bytes(1, 2, 100), strip_bytes(1, 2, 100));
        assert_ne!(strip_bytes(1, 2, 100), strip_bytes(1, 3, 100));
        assert_eq!(strip_bytes(7, 0, 4096).len(), 4096);
        assert_eq!(strip_bytes(7, 0, 0).len(), 0);
    }

    /// A daemon lost mid-run, its port then held by a listener that
    /// never answers: the workers do not dial it again (each dial would
    /// wait out the handshake), so its ops fail at once, as
    /// `NoSuchServer`, and the run ends on time.
    #[test]
    fn a_server_lost_mid_run_fails_its_ops_at_once() {
        let mut fleet = fleet::spawn_fleet(3, 2, None).expect("fleet");
        let cfg = BenchConfig {
            rate: 200.0,
            duration: Duration::from_millis(2000),
            clients: 8,
            strips: 12,
            mix: Mix { get: 1, put: 1, exec: 0 },
            ..BenchConfig::default()
        };
        let (report, hole) = std::thread::scope(|scope| {
            let run = scope.spawn(|| run_bench(&fleet.addrs, &cfg, "lost"));
            // The set-up's last file registered, the clock is about to start.
            let mut probe = DasCluster::connect(&fleet.addrs[..1]).expect("probe");
            while probe.lookup("bench-lost-exec.out").is_err() {
                std::thread::sleep(Duration::from_millis(10));
            }
            std::thread::sleep(Duration::from_millis(500));
            let lost = fleet.handles.remove(2);
            lost.shutdown();
            lost.join();
            let hole = std::net::TcpListener::bind(&fleet.addrs[2]).expect("rebind the lost port");
            (run.join().expect("bench thread").expect("bench run"), hole)
        });
        hole.set_nonblocking(true).expect("nonblocking");
        let dials = std::iter::from_fn(|| hole.accept().ok()).count();
        fleet.addrs.pop();
        fleet.shutdown().expect("shutdown");
        let by_code: BTreeMap<_, _> = report.errors_by_code.iter().cloned().collect();
        assert!(by_code.get("NoSuchServer").is_some_and(|&n| n > 0), "{by_code:?}");
        assert!(report.total_completed > 0, "{report:?}");
        assert!(report.wall_ms < 3000, "the run stalled: {} ms", report.wall_ms);
        // The monitor's own redials, about one a second, and no worker's.
        assert!(dials < cfg.clients, "{dials} dials of the lost server");
    }

    /// The largest sample sits low in its log2 bucket, where the
    /// interpolated p999 would land far past it: every reported
    /// quantile is capped at the observed maximum.
    #[test]
    fn reported_quantiles_never_exceed_the_maximum() {
        let accs: Vec<ClassAcc> = OpKind::ALL.iter().map(|_| ClassAcc::default()).collect();
        let get = &accs[OpKind::Get as usize];
        for lat_us in std::iter::repeat_n(100, 990).chain(std::iter::repeat_n(1030, 10)) {
            get.latency_us.observe(lat_us);
            get.completed.fetch_add(1, Ordering::Relaxed);
            get.max_us.fetch_max(lat_us, Ordering::Relaxed);
        }
        assert!(get.latency_us.quantile(0.999).unwrap() > 1030, "the sample no longer overshoots");
        let errs = Mutex::new(BTreeMap::new());
        let report =
            build_report("t", &BenchConfig::default(), &accs, &errs, 0, 0, Duration::from_secs(1), Vec::new());
        let c = &report.classes[OpKind::Get as usize];
        assert_eq!(c.max_us, 1030);
        assert!(c.p50_us <= c.p99_us && c.p99_us <= c.p999_us && c.p999_us <= c.max_us, "{c:?}");
    }
}
