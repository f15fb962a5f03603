//! One run of one workload: five slices, each on a fleet of its own
//! (set-up → warm-up → measured slice → teardown), and the result line.

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::place;
use crate::probes::{self, StageTotals};
use crate::span::{trace_document, Tracer};
use crate::spec;
use crate::stats::{median, middle_slices, percentile};
use crate::workload::{Bench, Inputs, Kind, OpOutcome, SetupTimes, DAEMONS, LANES, POOL};

/// Fixed-time warm-up of the workload's own op, split evenly over the
/// slices: connections, EWMAs, the allocator and the output file settle
/// before anything is measured.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Slices the measured window is cut into. Each runs on a freshly booted
/// fleet: run-to-run differences on this box are mostly a state a fleet
/// keeps for its whole life (README, "Noise"), so five fleets per run
/// sample it five times, and set-up is measured five times on the way.
pub const SLICES: usize = 5;
/// Fewer ops than this in a slice means the load is sized wrong: the
/// pooled 90th percentile would rest on too few samples.
pub const MIN_OPS_PER_SLICE: usize = 50;
/// Set-up, warm-up, probes and teardown may add this much to the window
/// before a run breaks the driver's budget of 30 s per run.
pub const MAX_OVERHEAD: Duration = Duration::from_secs(10);

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json`.
    pub out_dir: std::path::PathBuf,
}

/// One op: whether it carried a trace id, and whether it completed
/// inside its slice (the op in flight when a slice ends belongs to none).
struct Record {
    traced: bool,
    in_slice: bool,
    outcome: OpOutcome,
}

/// Everything one slice's fleet produced.
struct Slice {
    setup: SetupTimes,
    /// Fleet start → first measured op: the set-up and the fixed warm-up.
    to_first_op_s: f64,
    warm_failed: u64,
    records: Vec<Record>,
    /// File workloads: wire bytes between `reset_stats` and `stats`.
    counted_wire_bytes: u64,
    final_ok: bool,
    measured_s: f64,
    cpu_s: f64,
    hedges: u64,
    retries: u64,
    /// Traced runs: what the daemons' stage histograms gained.
    stages: Option<StageTotals>,
}

/// What the slices boil down to for one kind of op (traced or not).
pub struct Summary {
    pub ops_per_slice: Vec<usize>,
    pub kept: Vec<usize>,
    pub pool_ops: usize,
    pub mib_per_s: f64,
    pub op_p50_ms: f64,
    pub op_p90_ms: f64,
}

/// Rank the slices by throughput, drop the fastest and the slowest, pool
/// the ops of the rest. A failed op is counted elsewhere and is no
/// latency sample.
fn summarize(slices: &[Slice], traced: bool, slice_len: Duration, user_bytes: u64) -> Summary {
    let per_slice: Vec<Vec<f64>> = slices
        .iter()
        .map(|s| {
            s.records
                .iter()
                .filter(|r| r.traced == traced && r.in_slice && r.outcome.ok)
                .map(|r| r.outcome.latency_s * 1e3)
                .collect()
        })
        .collect();
    let ops_per_slice: Vec<usize> = per_slice.iter().map(Vec::len).collect();
    let kept = middle_slices(&ops_per_slice);
    let mut pool: Vec<f64> = kept
        .iter()
        .flat_map(|&s| per_slice[s].iter().copied())
        .collect();
    pool.sort_by(f64::total_cmp);
    let pool_seconds = slice_len.as_secs_f64() * kept.len() as f64;
    Summary {
        kept,
        pool_ops: pool.len(),
        mib_per_s: pool.len() as f64 * user_bytes as f64 / (1u64 << 20) as f64 / pool_seconds,
        op_p50_ms: percentile(&pool, 0.5),
        op_p90_ms: percentile(&pool, 0.9),
        ops_per_slice,
    }
}

/// Closed loop for `len`: issue the next op when the previous one
/// completes. With `traced`, every op carries a fresh client trace id
/// and sits under an `op` span.
fn measure(
    bench: &mut Bench,
    inputs: &Inputs,
    tracer: &mut Tracer,
    len: Duration,
    traced: bool,
    records: &mut Vec<Record>,
) {
    tracer.on = traced;
    let start = Instant::now();
    while start.elapsed() < len {
        let outcome = if traced {
            bench.cluster.begin_trace();
            tracer.next_op();
            tracer.span("op", |t| bench.op(inputs, t))
        } else {
            bench.op(inputs, tracer)
        };
        records.push(Record {
            traced,
            in_slice: start.elapsed() < len,
            outcome,
        });
    }
    tracer.on = false;
}

/// One slice on a fleet of its own. The fleet comes back so the last
/// one can serve the probes. A traced slice is half untraced and half
/// traced; `traced_first` says in which order.
fn slice(
    kind: Kind,
    inputs: &Inputs,
    cpus: &[usize],
    tracer: &mut Tracer,
    slice_len: Duration,
    trace: bool,
    traced_first: bool,
) -> Result<(Slice, Bench), String> {
    let fleet_started = Instant::now();
    let (mut bench, setup) =
        Bench::setup(kind, inputs, cpus).map_err(|e| format!("set-up failed: {e}"))?;
    let warm_started = Instant::now();
    let mut warm_failed = 0u64;
    while warm_started.elapsed() < WARMUP / SLICES as u32 {
        warm_failed += u64::from(!bench.op(inputs, tracer).ok);
    }

    let stages_before = if trace {
        Some(probes::stage_totals(&mut bench)?)
    } else {
        None
    };
    let client_counter =
        |bench: &Bench, name: &str| bench.cluster.metrics().counter(name, &[]).get();
    let hedges_before = client_counter(&bench, "das_client_hedges_total");
    let retries_before = client_counter(&bench, "das_client_retries_total");
    let counts_on_the_daemons = !matches!(kind, Kind::Scheme(_));
    if counts_on_the_daemons {
        bench
            .cluster
            .reset_stats()
            .map_err(|e| format!("reset_stats: {e}"))?;
    }
    let cpu_before = probes::cpu_seconds();
    let to_first_op_s = fleet_started.elapsed().as_secs_f64();
    let measured_from = Instant::now();
    let mut records = Vec::new();
    if trace {
        // Half the slice untraced, half traced: the traced run carries
        // its own reference for the tracing overhead.
        for traced in [traced_first, !traced_first] {
            measure(
                &mut bench,
                inputs,
                tracer,
                slice_len / 2,
                traced,
                &mut records,
            );
        }
    } else {
        measure(&mut bench, inputs, tracer, slice_len, false, &mut records);
    }
    let measured_s = measured_from.elapsed().as_secs_f64();
    let cpu_s = probes::cpu_seconds() - cpu_before;
    let counted_wire_bytes = if counts_on_the_daemons {
        let stats = bench.cluster.stats().map_err(|e| format!("stats: {e}"))?;
        stats
            .iter()
            .map(|s| s.client_in + s.client_out + s.server_out)
            .sum()
    } else {
        0
    };
    let stages = match stages_before {
        Some(before) => Some(probes::stage_totals(&mut bench)?.since(&before)),
        None => None,
    };
    let slice = Slice {
        setup,
        to_first_op_s,
        warm_failed,
        records,
        counted_wire_bytes,
        final_ok: bench.final_check(inputs),
        measured_s,
        cpu_s,
        hedges: client_counter(&bench, "das_client_hedges_total") - hedges_before,
        retries: client_counter(&bench, "das_client_retries_total") - retries_before,
        stages,
    };
    Ok((slice, bench))
}

/// The object a run prints as its last line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> Json {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Run one workload, print its report and return its result object. The
/// error is the reason the run does not count; the process then exits
/// non-zero without a result line.
pub fn run(args: &RunArgs, process_start: Instant) -> Result<Json, String> {
    let kind = Kind::parse(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; one of {names:?}", args.workload)
    })?;
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let window_len = Duration::from_secs(args.seconds);
    let slice_len = window_len / SLICES as u32;
    let cpus = place::allowed_cpus()?;
    let nproc = cpus.len();
    println!(
        "# das-benchmark workload={} seed={} seconds={} slices={} slice_s={} warmup_s={} trace={} nproc={} cpus={:?} lanes={} daemons={} pool={} fleet_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        SLICES,
        slice_len.as_secs_f64(),
        WARMUP.as_secs(),
        u8::from(args.trace),
        nproc,
        cpus,
        LANES,
        DAEMONS,
        POOL,
        // Per daemon: one shard, the workers, accept.
        DAEMONS * (POOL + 2),
    );
    println!("# engine=evloop store=memory transport=loopback-tcp faults=none retry=default placement=daemon i on cpus[i mod {nproc}], client lane on cpus[0]: latencies are this sandbox's, not a network's");
    if LANES > nproc {
        return Err(format!(
            "{LANES} generator threads on {nproc} cores would measure the scheduler"
        ));
    }

    let inputs = Inputs::generate(kind, args.seed);
    let user_bytes = inputs.data.len() as u64;
    let mut tracer = Tracer::new();
    let mut slices: Vec<Slice> = Vec::with_capacity(SLICES);
    let mut last_fleet = None;
    for i in 0..SLICES {
        if let Some(previous) = last_fleet.take() {
            Bench::teardown(previous);
        }
        // The traced half alternates between first and second, so that a
        // fleet still settling does not read as tracing overhead.
        let (s, bench) = slice(
            kind,
            &inputs,
            &cpus,
            &mut tracer,
            slice_len,
            args.trace,
            i % 2 == 1,
        )?;
        slices.push(s);
        last_fleet = Some(bench);
    }
    let mut bench = last_fleet.expect("SLICES is at least 1");

    let over_slices =
        |f: fn(&SetupTimes) -> f64| median(&slices.iter().map(|s| f(&s.setup)).collect::<Vec<_>>());
    let setup = SetupTimes {
        boot_ms: over_slices(|t| t.boot_ms),
        ingest_ms: over_slices(|t| t.ingest_ms),
        verify_ms: over_slices(|t| t.verify_ms),
        first_run_ms: over_slices(|t| t.first_run_ms),
    };
    let setup_s = median(&slices.iter().map(|s| s.to_first_op_s).collect::<Vec<_>>());

    let records = || slices.iter().flat_map(|s| &s.records);
    let attempted = records().count() as u64;
    let ok_ops = records().filter(|r| r.outcome.ok).count() as u64;
    let failed = attempted - ok_ops;
    let warm_failed: u64 = slices.iter().map(|s| s.warm_failed).sum();
    let final_ok = slices.iter().all(|s| s.final_ok);
    let correct = failed == 0 && warm_failed == 0 && final_ok;
    let hedge_failovers: u64 = records().map(|r| r.outcome.hedge_failovers).sum();
    // Over every completed op of every slice, the one in flight at a
    // slice's end included: a count, not a timing.
    let wire_bytes: u64 = slices.iter().map(|s| s.counted_wire_bytes).sum::<u64>()
        + records()
            .filter(|r| r.outcome.ok)
            .map(|r| r.outcome.wire_bytes)
            .sum::<u64>();
    let wire_ratio = wire_bytes as f64 / (ok_ops.max(1) * user_bytes) as f64;

    let untraced_len = if args.trace { slice_len / 2 } else { slice_len };
    let summary = summarize(&slices, false, untraced_len, user_bytes);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut stages = StageTotals::default();
        for s in &slices {
            stages.add(
                s.stages
                    .as_ref()
                    .expect("traced slices read the stage histograms"),
            );
        }
        let ctx = probes::Context {
            seed: args.seed,
            setup,
            user_bytes,
            measured_s: slices.iter().map(|s| s.measured_s).sum(),
            cpu_s: slices.iter().map(|s| s.cpu_s).sum(),
            ok_ops,
            untraced: &summary,
            traced: &summarize(&slices, true, slice_len / 2, user_bytes),
            dep_fetches: records().map(|r| r.outcome.dep_fetches).sum(),
            dep_fetch_bytes: records().map(|r| r.outcome.dep_fetch_bytes).sum(),
            hedges: slices.iter().map(|s| s.hedges).sum(),
            retries: slices.iter().map(|s| s.retries).sum(),
            stages: &stages,
            nproc,
        };
        let values = probes::per_layer(&mut bench, &inputs, &mut tracer, &ctx)?;
        for m in spec::per_layer() {
            let v = *values
                .get(&m.name)
                .ok_or_else(|| format!("probe suite did not report {}", m.name))?;
            metrics.push((m.name, v, m.unit));
        }
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        let path = args.out_dir.join(format!("{}.trace.json", args.workload));
        std::fs::write(
            &path,
            trace_document(&args.workload, args.seed, tracer.spans()).compact(),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        let values = [
            setup_s,
            summary.mib_per_s,
            summary.op_p50_ms,
            summary.op_p90_ms,
            wire_ratio,
        ];
        for (m, v) in spec::END_TO_END.iter().zip(values) {
            metrics.push((m.name.to_string(), v, m.unit));
        }
    }
    bench.teardown();
    // The calling thread gets back the CPUs it came with.
    place::run_on(&cpus)?;
    let run_s = process_start.elapsed().as_secs_f64();

    println!(
        "# fleet start to first measured op (median of {SLICES}): {setup_s:.4} s = boot {:.1} ms + ingest {:.1} ms + verify {:.1} ms + first run {:.1} ms + {:.1} s warm-up",
        setup.boot_ms,
        setup.ingest_ms,
        setup.verify_ms,
        setup.first_run_ms,
        (WARMUP / SLICES as u32).as_secs_f64()
    );
    println!(
        "# window: ops_per_slice={:?} kept={:?} pool_ops={} attempted={attempted} failed={failed} failed_frac={:.6} hedge_failovers={hedge_failovers} correct={correct} run_s={run_s:.2}",
        summary.ops_per_slice,
        summary.kept,
        summary.pool_ops,
        failed as f64 / attempted.max(1) as f64,
    );
    for (name, value, unit) in &metrics {
        println!("{name:<48} {value:>16.6} {unit}");
    }

    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is {value}: a ratio over an empty sample"));
    }
    if !correct {
        return Err(format!(
            "incorrect: {failed} failed ops, {warm_failed} failed warm-up ops, read-back after every slice ok={final_ok}"
        ));
    }
    if !args.trace {
        if let Some(&few) = summary
            .ops_per_slice
            .iter()
            .find(|&&n| n < MIN_OPS_PER_SLICE)
        {
            return Err(format!(
                "a slice holds {few} ops (< {MIN_OPS_PER_SLICE}): the load is sized wrong for --seconds {}",
                args.seconds
            ));
        }
    }
    let limit = (window_len + MAX_OVERHEAD).as_secs_f64();
    if run_s >= limit {
        return Err(format!("the run took {run_s:.1} s (>= {limit} s)"));
    }

    Ok(result_json(correct, attempted, failed, &metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn metric_names(result: &Json) -> Vec<String> {
        match result.get("metrics") {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("no metrics object: {other:?}"),
        }
    }

    #[test]
    fn result_line_parses_and_has_exactly_the_contract_keys() {
        let metrics = vec![
            ("setup_s".to_string(), 0.0531, "s"),
            ("mib_per_s".to_string(), 133.25, "MiB/s"),
        ];
        let line = result_json(true, 1000, 0, &metrics).compact();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("the result line is JSON");
        let Json::Obj(pairs) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_names(&parsed), ["setup_s", "mib_per_s"]);
        let m = parsed
            .get("metrics")
            .and_then(|m| m.get("mib_per_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(133.25));
        assert_eq!(m.get("unit"), Some(&Json::str("MiB/s")));
    }

    fn synthetic_slice(latencies_ms: &[f64], late: usize, failed: usize) -> Slice {
        let record = |ms: f64, in_slice, ok| Record {
            traced: false,
            in_slice,
            outcome: OpOutcome {
                ok,
                latency_s: ms / 1e3,
                ..Default::default()
            },
        };
        let mut records: Vec<Record> = latencies_ms
            .iter()
            .map(|&ms| record(ms, true, true))
            .collect();
        records.extend((0..late).map(|_| record(999.0, false, true)));
        records.extend((0..failed).map(|_| record(999.0, true, false)));
        Slice {
            setup: SetupTimes::default(),
            to_first_op_s: 0.0,
            warm_failed: 0,
            records,
            counted_wire_bytes: 0,
            final_ok: true,
            measured_s: 1.0,
            cpu_s: 1.0,
            hedges: 0,
            retries: 0,
            stages: None,
        }
    }

    #[test]
    fn only_ops_that_complete_in_their_slice_and_succeed_are_pooled() {
        // Slice 1 is the slowest (2 ops), slice 3 the fastest (5): both go.
        let slices = [
            synthetic_slice(&[10.0, 11.0, 12.0], 1, 0),
            synthetic_slice(&[50.0, 60.0], 1, 2),
            synthetic_slice(&[13.0, 14.0, 15.0, 16.0], 0, 1),
            synthetic_slice(&[1.0, 1.0, 1.0, 1.0, 1.0], 1, 0),
            synthetic_slice(&[17.0, 18.0, 19.0], 1, 0),
        ];
        let s = summarize(&slices, false, Duration::from_secs(2), 1 << 20);
        assert_eq!(s.ops_per_slice, [3, 2, 4, 5, 3]);
        assert_eq!(s.kept, [0, 2, 4]);
        assert_eq!(s.pool_ops, 10);
        // 10 ops of 1 MiB over three 2 s slices.
        assert!((s.mib_per_s - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.op_p50_ms, 14.0);
        assert_eq!(s.op_p90_ms, 18.0);
        // Traced ops are a population of their own.
        assert_eq!(
            summarize(&slices, true, Duration::from_secs(2), 1 << 20).pool_ops,
            0
        );
    }

    /// A real, very short run of each kind: boots fleets, so it takes a
    /// few seconds. Holds the printed names to `--spec`.
    #[test]
    fn short_runs_carry_every_name_in_the_spec() {
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test");
        let args = |trace| RunArgs {
            workload: "scheme-nas".into(),
            seed: 7,
            seconds: 1,
            trace,
            out_dir: out_dir.clone(),
        };
        // One-second windows hold too few ops per slice; that guard is the
        // only acceptable failure here.
        let untraced = run(&args(false), Instant::now());
        assert!(
            untraced.as_ref().is_err_and(|e| e.contains("sized wrong")),
            "{untraced:?}"
        );

        let traced = run(&args(true), Instant::now()).expect("traced run");
        let want: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&traced), want);
        assert_eq!(traced.get("correct"), Some(&Json::Bool(true)));
        let file =
            std::fs::read_to_string(out_dir.join("scheme-nas.trace.json")).expect("span file");
        let doc = json::parse(&file).expect("span file is JSON");
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans
            .iter()
            .any(|s| s.get("name") == Some(&Json::str("das-net::client.run_net_scheme_opts"))));
        let fetch_ratio = traced
            .get("metrics")
            .and_then(|m| m.get("core.predicted_over_measured_fetch_bytes"));
        assert_eq!(
            fetch_ratio
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
