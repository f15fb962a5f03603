//! `das` — the active-storage client CLI.
//!
//! ```text
//! das ping    --cluster a,b,c,d
//! das put     --cluster ... --name dem.raw --strip-size 4096 --input dem.bin
//! das gen     --cluster ... --name dem.raw --strip-size 4096 --width 256 --height 128 [--seed 42]
//! das info    --cluster ... --name dem.raw
//! das get     --cluster ... --name dem.raw --output dem.bin
//! das exec    --cluster ... --name dem.raw --kernel gaussian-filter --width 256 --scheme das [--out NAME] [--one-shot]
//! das stats   --cluster ...
//! das reset-stats --cluster ...
//! das shutdown    --cluster ...
//! das bench   [--servers 3 | --cluster ...] [--rate N] [--duration-ms MS] [--clients N]
//! ```
//!
//! `bench` is the open-loop load generator (`das-load`): without
//! `--cluster` it boots an in-process loopback fleet, runs the seeded
//! workload against it, and writes the run to `BENCH_net.json`.

// The CLI drives live fleets: an error is reported typed, never as a
// panic.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::HashMap;
use std::process::exit;

use das_kernels::kernel_names;
use das_kernels::workload;
use das_load::fleet::spawn_fleet;
use das_load::{run_bench, BenchConfig, Mix};
use das_net::{run_net_scheme_opts, DasCluster, NetScheme, RetryPolicy};
use das_obs::{event, Level};
use das_pfs::LayoutPolicy;

fn usage() -> ! {
    println!(
        "usage: das <command> --cluster <addr0,addr1,...> [options]\n\
         \n\
         commands:\n\
         \x20 ping                         probe every server\n\
         \x20 put    --name N --strip-size S --input PATH [--policy rr|grouped:R|grouped-rep:R]\n\
         \x20 gen    --name N --strip-size S --width W --height H [--seed K] [--policy ...]\n\
         \x20 info   --name N               show a file's distribution\n\
         \x20 get    --name N --output PATH gather a file to a local path\n\
         \x20 exec   --name N --kernel K --width W --scheme ts|nas|das [--out NAME]\n\
         \x20        [--one-shot]          decide non-successively: no layout\n\
         \x20                              reconfiguration, and the offload is refused\n\
         \x20                              (a \"ts\" decision outcome) when dependence\n\
         \x20                              fetches would exceed normal service\n\
         \x20 stats                        wire-byte counters + each daemon's live\n\
         \x20                              metrics registry (decision outcomes,\n\
         \x20                              predicted-vs-measured dependence traffic)\n\
         \x20        [--slow [--per-class N]]  each daemon's slowest requests per op\n\
         \x20                              class with their stage breakdown\n\
         \x20 trace  <id>                  cross-daemon waterfall for one trace id\n\
         \x20                              (the hex id `das exec` logs / `begin_trace`\n\
         \x20                              returns), from each daemon's flight recorder\n\
         \x20 reset-stats                  zero the counters\n\
         \x20 shutdown                     stop every daemon\n\
         \x20 bench                        open-loop load generator -> BENCH_net.json\n\
         \x20        [--servers N]         boot an in-process loopback fleet\n\
         \x20                              (default; N daemons, default 3)\n\
         \x20        [--cluster ...]       drive an external fleet instead\n\
         \x20        [--rate OPS] [--duration-ms MS] [--clients N]\n\
         \x20        [--strip-size S] [--strips N] [--mix G:P:E] [--seed K]\n\
         \x20        [--kernel K] [--pool N] [--max-backlog N] [--out PATH]\n\
         \x20                              (--max-backlog caps daemon admission:\n\
         \x20                              small cap + past-capacity --rate = a\n\
         \x20                              reproducible overload/shedding scenario)\n\
         \n\
         global options:\n\
         \x20 --attempts N     retry budget per call (default 4)\n\
         \x20 --timeout-ms MS  connect/read/write timeout per attempt (default 2000/15000/15000)\n\
         \x20 --raw            (stats) dump raw Prometheus text instead of the summary\n\
         \n\
         kernels: {}",
        kernel_names().join(", ")
    );
    exit(2);
}

fn parse_policy(s: &str) -> Option<LayoutPolicy> {
    if s == "rr" || s == "round-robin" {
        return Some(LayoutPolicy::RoundRobin);
    }
    if let Some(r) = s.strip_prefix("grouped-rep:") {
        return r.parse().ok().map(|group| LayoutPolicy::GroupedReplicated { group });
    }
    if let Some(r) = s.strip_prefix("grouped:") {
        return r.parse().ok().map(|group| LayoutPolicy::Grouped { group });
    }
    None
}

fn fail(msg: impl std::fmt::Display) -> ! {
    event(Level::Error, "das.cli", "command failed", &[("error", msg.to_string())]);
    exit(1);
}

/// Summarize every daemon's Prometheus dump: decision outcomes,
/// predicted-vs-measured dependence traffic (Eqs. 1–13 against real
/// wire counters), fault-handling totals, and per-op request counts.
///
/// Predicted counters carry the full cluster-wide prediction on every
/// daemon (all daemons price the same request identically), so the
/// fleet's prediction is the **max** across daemons; the measured
/// counters carry only each daemon's share, so those **sum**.
fn print_registry_summary(dumps: &[(u32, String)]) {
    let parsed: Vec<Vec<das_obs::Sample>> =
        dumps.iter().map(|(_, text)| das_obs::parse(text)).collect();
    let sum = |name: &str, labels: &[(&str, &str)]| -> f64 {
        // + 0.0 normalizes the empty sum's -0.0 identity for display.
        parsed.iter().filter_map(|s| das_obs::sample_value(s, name, labels)).sum::<f64>() + 0.0
    };
    let max = |name: &str, labels: &[(&str, &str)]| -> f64 {
        parsed
            .iter()
            .filter_map(|s| das_obs::sample_value(s, name, labels))
            .fold(0.0, f64::max)
    };

    println!(
        "decision outcomes: das={} nas={} ts={}",
        sum("dasd_decisions_total", &[("outcome", "das")]),
        sum("dasd_decisions_total", &[("outcome", "nas")]),
        sum("dasd_decisions_total", &[("outcome", "ts")]),
    );

    let pred_fetches = max("dasd_predicted_dep_fetches_total", &[]);
    let pred_bytes = max("dasd_predicted_dep_fetch_bytes_total", &[]);
    let meas_fetches = sum("dasd_dep_fetches_total", &[]);
    let meas_bytes = sum("dasd_dep_fetch_bytes_total", &[]);
    let delta = if pred_bytes > 0.0 {
        format!("{:+.1}%", (meas_bytes - pred_bytes) / pred_bytes * 100.0)
    } else {
        "n/a".to_string()
    };
    println!(
        "dependence traffic: predicted {pred_fetches} fetches / {pred_bytes} B, \
         measured {meas_fetches} fetches / {meas_bytes} B (error {delta})"
    );
    println!(
        "fault handling: peer retries={} failovers={} breaker trips={} \
         replica-forward failures={} faults injected={}",
        sum("dasd_peer_retries_total", &[]),
        sum("dasd_peer_failovers_total", &[]),
        sum("dasd_peer_breaker_trips_total", &[]),
        sum("dasd_replica_forward_failures_total", &[]),
        parsed
            .iter()
            .flatten()
            .filter(|s| s.name == "dasd_faults_injected_total")
            .map(|s| s.value)
            .sum::<f64>()
            + 0.0,
    );

    // Backpressure: live backlog and admission sheds, per daemon — the
    // gauges are instantaneous, so they stay unsummed.
    for ((id, _), s) in dumps.iter().zip(&parsed) {
        let v = |name: &str, labels: &[(&str, &str)]| {
            das_obs::sample_value(s, name, labels).unwrap_or(0.0)
        };
        let inflight: f64 =
            s.iter().filter(|x| x.name == "dasd_shard_inflight").map(|x| x.value).sum();
        println!(
            "  backlog server {id}: shard in-flight={inflight} \
             queue depth={} shed backlog={} deadline={}",
            v("dasd_worker_queue_depth", &[]),
            v("dasd_requests_shed_total", &[("reason", "backlog")]),
            v("dasd_requests_shed_total", &[("reason", "deadline")]),
        );
    }

    // Request counts and mean latency per op, summed over the fleet.
    use std::collections::BTreeMap;
    let mut requests: BTreeMap<String, f64> = BTreeMap::new();
    let mut lat: BTreeMap<String, (f64, f64)> = BTreeMap::new(); // op -> (sum_us, count)
    for s in parsed.iter().flatten() {
        let op = s.labels.iter().find(|(k, _)| k == "op").map(|(_, v)| v.clone());
        match (s.name.as_str(), op) {
            ("dasd_requests_total", Some(op)) => *requests.entry(op).or_default() += s.value,
            ("dasd_request_duration_us_sum", Some(op)) => lat.entry(op).or_default().0 += s.value,
            ("dasd_request_duration_us_count", Some(op)) => lat.entry(op).or_default().1 += s.value,
            _ => {}
        }
    }
    for (op, n) in &requests {
        let mean = match lat.get(op) {
            Some((sum_us, count)) if *count > 0.0 => format!("{:.0} us mean", sum_us / count),
            _ => "no timing".to_string(),
        };
        let quantiles = match (
            fleet_duration_quantile(&parsed, op, 0.50),
            fleet_duration_quantile(&parsed, op, 0.99),
            fleet_duration_quantile(&parsed, op, 0.999),
        ) {
            (Some(p50), Some(p99), Some(p999)) => {
                format!(", p50/p99/p999 {p50:.0}/{p99:.0}/{p999:.0} us")
            }
            _ => String::new(),
        };
        println!("  requests {op}: {n} ({mean}{quantiles})");
    }
}

/// `das bench`: run the open-loop load generator and write
/// `BENCH_net.json`. Without `--cluster`, boots an in-process loopback
/// fleet to run against.
fn bench_command(opts: &HashMap<String, String>) {
    let mut cfg = BenchConfig::default();
    let num = |key: &str| -> Option<u64> {
        opts.get(key).map(|v| v.parse().unwrap_or_else(|_| fail(format!("bad --{key}"))))
    };
    if let Some(r) = opts.get("rate") {
        cfg.rate = r.parse().unwrap_or_else(|_| fail("bad --rate"));
    }
    if let Some(ms) = num("duration-ms") {
        cfg.duration = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = num("clients") {
        cfg.clients = n as usize;
    }
    if let Some(n) = num("strip-size") {
        cfg.strip_size = n as u32;
    }
    if let Some(n) = num("strips") {
        cfg.strips = n;
    }
    if let Some(n) = num("seed") {
        cfg.seed = n;
    }
    if let Some(n) = num("servers") {
        cfg.servers = n as usize;
    }
    if let Some(n) = num("pool") {
        cfg.pool = n as usize;
    }
    if let Some(n) = num("max-backlog") {
        cfg.max_backlog = Some(n as usize);
    }
    if let Some(m) = opts.get("mix") {
        cfg.mix = Mix::parse(m).unwrap_or_else(|| fail(format!("bad --mix {m:?} (want G:P:E)")));
    }
    if let Some(k) = opts.get("kernel") {
        cfg.kernel = k.clone();
    }

    let r = match opts.get("cluster") {
        Some(cluster_arg) => {
            let addrs: Vec<String> =
                cluster_arg.split(',').map(|s| s.trim().to_string()).collect();
            run_bench(&addrs, &cfg, "external").unwrap_or_else(|e| fail(e))
        }
        None => {
            let fleet = spawn_fleet(cfg.servers, cfg.pool, cfg.max_backlog)
                .unwrap_or_else(|e| fail(e));
            let report = run_bench(&fleet.addrs, &cfg, "evloop");
            fleet.shutdown().unwrap_or_else(|e| fail(e));
            report.unwrap_or_else(|e| fail(e))
        }
    };

    println!(
        "{}: {:.0} ops/s achieved (target {:.0}), {} ok / {} errors over {} ms",
        r.engine, r.achieved_ops_s, r.target_rate_ops_s, r.total_completed, r.total_errors,
        r.wall_ms
    );
    for c in &r.classes {
        println!(
            "  {:<5} {:>8.1} ops/s  p50 {:>6} us  p99 {:>7} us  p999 {:>7} us  \
             (n={}, err={})",
            c.class, c.throughput_ops_s, c.p50_us, c.p99_us, c.p999_us, c.completed, c.errors
        );
    }
    if !r.errors_by_code.is_empty() {
        let parts: Vec<String> =
            r.errors_by_code.iter().map(|(c, n)| format!("{c}={n}")).collect();
        println!("  errors by code: {}", parts.join(" "));
    }
    println!("  backpressure: peak queue depth {} / sheds {}", r.queue_depth_peak, r.requests_shed);
    if !r.stages.is_empty() {
        println!("  server-side stage attribution (mean/p99 us):");
        for s in &r.stages {
            println!(
                "    {:<11} {:<7} n={:<7} {:>8.0} / {:>8.0}",
                s.stage, s.op, s.count, s.mean_us, s.p99_us
            );
        }
    }

    let out = opts.get("out").map(String::as_str).unwrap_or("BENCH_net.json");
    std::fs::write(out, r.to_json() + "\n").unwrap_or_else(|e| fail(format!("writing {out}: {e}")));
    println!("wrote {out}");
}

/// Fleet-wide latency quantile for one op: sum the cumulative
/// `dasd_request_duration_us` buckets across every daemon's dump,
/// then interpolate with `das_obs::histogram_quantile`.
fn fleet_duration_quantile(parsed: &[Vec<das_obs::Sample>], op: &str, q: f64) -> Option<f64> {
    use std::collections::BTreeMap;
    let mut by_le: BTreeMap<String, f64> = BTreeMap::new();
    for s in parsed.iter().flatten() {
        if s.name != "dasd_request_duration_us_bucket" {
            continue;
        }
        if !s.labels.iter().any(|(k, v)| k == "op" && v == op) {
            continue;
        }
        if let Some((_, le)) = s.labels.iter().find(|(k, _)| k == "le") {
            *by_le.entry(le.clone()).or_default() += s.value;
        }
    }
    let merged: Vec<das_obs::Sample> = by_le
        .into_iter()
        .map(|(le, value)| das_obs::Sample {
            name: "fleet_us_bucket".to_string(),
            labels: vec![("le".to_string(), le)],
            value,
        })
        .collect();
    das_obs::histogram_quantile(&merged, "fleet_us", &[], q)
}

/// Print the client-side registry (degradations, retries) when this
/// invocation recorded anything.
fn print_client_summary(cluster: &DasCluster) {
    let samples = das_obs::parse(&cluster.metrics().encode());
    for s in &samples {
        let labels: Vec<String> =
            s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("client: {}{{{}}} {}", s.name, labels.join(","), s.value);
    }
}

/// Columns of the ASCII waterfall bar.
const WATERFALL_COLS: usize = 32;

/// One waterfall line: `[bar] +offset dur stage op (note)`, indented
/// one level for sub-spans.
fn print_span_line(s: &das_obs::SpanRecord, t0: u64, window_us: u64, depth: usize) {
    let off = s.start_us.saturating_sub(t0);
    let window = window_us.max(1) as usize;
    let lead = ((off as usize * WATERFALL_COLS) / window).min(WATERFALL_COLS - 1);
    let fill = ((s.dur_us as usize * WATERFALL_COLS) / window).clamp(1, WATERFALL_COLS - lead);
    let bar: String = " ".repeat(lead) + &"#".repeat(fill) + &" ".repeat(WATERFALL_COLS - lead - fill);
    let indent = if depth == 0 { "" } else { "  " };
    let note = das_obs::note_name(s.note);
    let note = if note.is_empty() { String::new() } else { format!(" ({note})") };
    println!(
        "  [{bar}] {indent}+{:>8} us {:>8} us  {:<11} {}{note}",
        off,
        s.dur_us,
        s.stage.name(),
        s.op.name()
    );
}

/// Render each daemon's spans for one trace as an indented waterfall.
/// Offsets are relative to the daemon's own earliest span: daemon
/// clocks are monotonic and local, so bars align *within* a daemon;
/// across daemons only the shared trace id correlates the work.
fn print_trace_waterfall(dumps: &[(u32, Vec<das_obs::SpanRecord>)]) {
    if dumps.iter().all(|(_, s)| s.is_empty()) {
        println!("no spans retained for this trace (evicted from the ring, or never traced)");
        return;
    }
    for (id, spans) in dumps {
        if spans.is_empty() {
            continue;
        }
        let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let window =
            spans.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(t0).saturating_sub(t0);
        println!("server {id} ({} spans, {window} us window):", spans.len());
        // Two levels deep by construction: roots carry parent 0, every
        // sub-span points at its root.
        for root in spans.iter().filter(|s| s.parent == 0) {
            print_span_line(root, t0, window, 0);
            for child in spans.iter().filter(|s| s.parent == root.span) {
                print_span_line(child, t0, window, 1);
            }
        }
        // Sub-spans whose root was evicted from the ring still print,
        // unparented, rather than vanishing.
        for s in spans.iter().filter(|s| s.parent != 0) {
            if !spans.iter().any(|r| r.span == s.parent) {
                print_span_line(s, t0, window, 1);
            }
        }
    }
}

/// `das stats --slow`: each daemon's slowest-roots reservoir, grouped
/// by op class, each root with its retained stage breakdown.
fn print_slow_log(dumps: &[(u32, Vec<das_obs::SpanRecord>)]) {
    if dumps.iter().all(|(_, s)| s.is_empty()) {
        println!("no slow-log spans retained yet");
        return;
    }
    for (id, spans) in dumps {
        println!("--- server {id} slowest requests ---");
        let mut roots: Vec<&das_obs::SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
        // Group by op class, slowest first within each.
        roots.sort_by_key(|r| (r.op as u8, std::cmp::Reverse(r.dur_us)));
        for root in roots {
            let note = das_obs::note_name(root.note);
            let note = if note.is_empty() { String::new() } else { format!(" ({note})") };
            println!(
                "  {:<7} {:>8} us  trace {:016x}{note}",
                root.op.name(),
                root.dur_us,
                root.trace
            );
            let mut subs: Vec<&das_obs::SpanRecord> =
                spans.iter().filter(|s| s.parent == root.span).collect();
            subs.sort_by_key(|s| s.start_us);
            for sub in subs {
                println!("    {:<11} {:>8} us", sub.stage.name(), sub.dur_us);
            }
        }
    }
}

fn main() {
    das_obs::log::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args.remove(0);

    let mut opts: HashMap<String, String> = HashMap::new();
    // `das trace <id>` takes its trace id as a bare positional.
    if command == "trace" && args.first().is_some_and(|a| !a.starts_with("--")) {
        opts.insert("id".to_string(), args.remove(0));
    }
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            println!("expected --flag, got {flag:?}");
            usage();
        };
        if key == "raw" || key == "one-shot" || key == "slow" {
            opts.insert(key.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            println!("--{key} needs a value");
            usage();
        };
        opts.insert(key.to_string(), value);
    }

    if command == "bench" {
        bench_command(&opts);
        return;
    }

    let Some(cluster_arg) = opts.get("cluster") else {
        println!("--cluster is required");
        usage();
    };
    let addrs: Vec<String> = cluster_arg.split(',').map(|s| s.trim().to_string()).collect();
    let mut policy = RetryPolicy::default();
    if let Some(a) = opts.get("attempts") {
        policy.max_attempts = a.parse().unwrap_or_else(|_| fail("bad --attempts"));
    }
    if let Some(t) = opts.get("timeout-ms") {
        let ms: u64 = t.parse().unwrap_or_else(|_| fail("bad --timeout-ms"));
        let d = std::time::Duration::from_millis(ms);
        policy.connect_timeout = d;
        policy.read_timeout = d;
        policy.write_timeout = d;
    }
    let mut cluster = match DasCluster::connect_with(&addrs, policy) {
        Ok(c) => c,
        Err(e) => fail(format!("connecting to cluster: {e}")),
    };
    for s in cluster.down_servers() {
        event(
            Level::Warn,
            "das.cli",
            "server unreachable",
            &[("server", s.to_string()), ("addr", addrs[s as usize].clone())],
        );
    }

    let req = |key: &str| -> &String {
        opts.get(key).unwrap_or_else(|| {
            println!("--{key} is required for `{command}`");
            usage();
        })
    };

    match command.as_str() {
        "ping" => {
            cluster.ping_all().unwrap_or_else(|e| fail(e));
            println!("{} servers alive", addrs.len());
        }
        "put" | "gen" => {
            let name = req("name").clone();
            let strip_size: u32 = req("strip-size").parse().unwrap_or_else(|_| fail("bad --strip-size"));
            let policy = opts
                .get("policy")
                .map(|p| parse_policy(p).unwrap_or_else(|| fail(format!("bad --policy {p:?}"))))
                .unwrap_or(LayoutPolicy::RoundRobin);
            let data = if command == "put" {
                std::fs::read(req("input")).unwrap_or_else(|e| fail(format!("reading --input: {e}")))
            } else {
                let width: u64 = req("width").parse().unwrap_or_else(|_| fail("bad --width"));
                let height: u64 = req("height").parse().unwrap_or_else(|_| fail("bad --height"));
                let seed: u64 = opts.get("seed").map_or(42, |s| s.parse().unwrap_or(42));
                workload::fbm_dem(width, height, seed).to_bytes()
            };
            let file = cluster
                .create_file(&name, data.len() as u64, strip_size, policy)
                .unwrap_or_else(|e| fail(e));
            cluster.put_file(file, &data).unwrap_or_else(|e| fail(e));
            println!("stored {name:?} ({} bytes) as file {file}", data.len());
        }
        "info" => {
            let (file, dist) = cluster.lookup(req("name")).unwrap_or_else(|e| fail(e));
            println!(
                "file {file}: {} bytes, strip {} B, {} servers, layout {}",
                dist.file_len,
                dist.strip_size,
                dist.servers,
                dist.policy.name()
            );
        }
        "get" => {
            let (file, _) = cluster.lookup(req("name")).unwrap_or_else(|e| fail(e));
            let data = cluster.read_file(file).unwrap_or_else(|e| fail(e));
            std::fs::write(req("output"), &data).unwrap_or_else(|e| fail(format!("writing --output: {e}")));
            println!("wrote {} bytes", data.len());
            // Tail-tolerance visibility: hedged fetches, replica
            // failovers and retries this read performed, if any.
            print_client_summary(&cluster);
        }
        "exec" => {
            let (file, _) = cluster.lookup(req("name")).unwrap_or_else(|e| fail(e));
            let kernel = req("kernel").clone();
            let width: u64 = req("width").parse().unwrap_or_else(|_| fail("bad --width"));
            let scheme = match req("scheme").as_str() {
                "ts" => NetScheme::Ts,
                "nas" => NetScheme::Nas,
                "das" => NetScheme::Das,
                other => fail(format!("bad --scheme {other:?} (want ts|nas|das)")),
            };
            let out_name = opts
                .get("out")
                .cloned()
                .unwrap_or_else(|| format!("{}.{}.out", req("name"), scheme.name().to_lowercase()));
            let successive = !opts.contains_key("one-shot");
            let report =
                run_net_scheme_opts(&mut cluster, scheme, file, &out_name, &kernel, width, successive)
                    .unwrap_or_else(|e| fail(e));
            println!(
                "{} {} -> {out_name:?}: offloaded={} layout={} fingerprint={:#018x}",
                report.scheme.name(),
                report.kernel,
                report.offloaded,
                report.layout.name(),
                report.output_fingerprint
            );
            println!(
                "  wire bytes: client<->server {}  server<->server {} (redistribution {})",
                report.client_bytes, report.server_bytes, report.redistribution_bytes
            );
            let fetches: u64 = report.exec.iter().map(|e| e.dep_fetches).sum();
            let fetch_bytes: u64 = report.exec.iter().map(|e| e.dep_fetch_bytes).sum();
            if report.offloaded {
                println!("  dependence fetches: {fetches} ({fetch_bytes} bytes)");
            }
            for ev in &report.degradations {
                println!("  degradation: {} ({ev:?})", ev.tag());
            }
        }
        "stats" => {
            for (i, s) in cluster.stats().unwrap_or_else(|e| fail(e)).iter().enumerate() {
                println!(
                    "server {i}: client in/out {}/{}  server in/out {}/{}",
                    s.client_in, s.client_out, s.server_in, s.server_out
                );
            }
            let dumps = cluster.metrics_dump_all().unwrap_or_else(|e| fail(e));
            if opts.contains_key("raw") {
                for (id, text) in &dumps {
                    println!("--- server {id} ---");
                    print!("{text}");
                }
            } else {
                print_registry_summary(&dumps);
            }
            if opts.contains_key("slow") {
                let per_class: u32 = opts
                    .get("per-class")
                    .map_or(4, |v| v.parse().unwrap_or_else(|_| fail("bad --per-class")));
                let slow = cluster.slow_log_all(per_class).unwrap_or_else(|e| fail(e));
                print_slow_log(&slow);
            }
            print_client_summary(&cluster);
        }
        "trace" => {
            let raw = opts.get("id").unwrap_or_else(|| {
                println!("`das trace` needs a trace id (hex)");
                usage();
            });
            let hex = raw.trim_start_matches("0x");
            let id = u64::from_str_radix(hex, 16)
                .unwrap_or_else(|_| fail(format!("bad trace id {raw:?} (want hex)")));
            let dumps = cluster.trace_dump_all(id).unwrap_or_else(|e| fail(e));
            println!("trace {id:016x}");
            print_trace_waterfall(&dumps);
        }
        "reset-stats" => {
            cluster.reset_stats().unwrap_or_else(|e| fail(e));
            println!("counters zeroed");
        }
        "shutdown" => {
            cluster.shutdown_all().unwrap_or_else(|e| fail(e));
            println!("cluster shut down");
        }
        _ => usage(),
    }
}
