//! The names every later performance claim uses: workloads, end-to-end
//! metrics with their bounds, per-layer metrics. `--spec` prints this as
//! `BENCHMARK.json`; a unit test holds the committed file to it.

use crate::json::Json;

/// Seconds one run measures (`--seconds` from the driver); the fixed
/// warm-up comes on top.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "file-read",
        why: "read_file of a 2 MiB round-robin file in 64 KiB strips: 32 gets of ~0.4 ms, most of it two CRC passes, so the reply-payload path (codec, engine writes, client gather); no kernel, no peer traffic",
    },
    Workload {
        name: "file-write",
        why: "put_file of a seeded 2 MiB payload into the same shape: the same codec and engine layers the other way (32 puts of ~0.4 ms), so a read-path gain that costs writes shows",
    },
    Workload {
        name: "scheme-ts",
        why: "TS on a 288 KiB raster in 4 KiB strips: 72 gets, a ~2 ms client-side kernel, 72 puts and a 72-get read-back, so ~220 small RPCs dominate; wire ratio 2.03; the paper's baseline",
    },
    Workload {
        name: "scheme-nas",
        why: "forced offload on round-robin: every strip pulls its 4 neighbour strips from peers one by one, 282 fetches per op and ~60 % of server exec time; wire ratio 3.98",
    },
    Workload {
        name: "scheme-das",
        why: "successive DAS runs on the grouped+replicated layout adopted in set-up: server-local kernel through StripAssembly, 22 residual fetches per op (~10 % of exec time); wire ratio 0.65; the paper's scheme",
    },
];

/// ISSUE 12: a timing metric that needs a wider bound than this needs a
/// better harness, not a wider bound.
#[cfg(test)]
const MAX_BOUND: f64 = 0.20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Each bound is max(the issue's initial bound, 2 x the widest
/// (max - min) / median any workload showed over `--noise 10`, rounded up
/// to 0.05), and never above 0.20 (README, "Noise"). `setup_s` carries
/// the largest, as the benchmark contract asks. The wire ratio is a count.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "mib_per_s",
        unit: "MiB/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "wire_bytes_per_user_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.01,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Server stages reported per op class, as `server.<stage>.<op>.mean_us`.
pub const SERVER_STAGES: [(&str, &[&str]); 3] = [
    (
        "get",
        &[
            "queue_wait",
            "decode",
            "dispatch",
            "local_read",
            "reply_write",
        ],
    ),
    (
        "put",
        &[
            "queue_wait",
            "decode",
            "dispatch",
            "local_read",
            "reply_write",
        ],
    ),
    (
        "exec",
        &[
            "queue_wait",
            "dispatch",
            "local_read",
            "peer_fetch",
            "kernel",
            "assemble",
            "reply_write",
        ],
    ),
];

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// `(name, unit, better)` of the per-layer metrics listed before the
/// server stages: codec and engine.
const BEFORE_SERVER_STAGES: &[(&str, &str, &str)] = &[
    ("codec.crc32_mib_s", "MiB/s", HIGHER),
    ("codec.encode_get_ns", "ns", LOWER),
    ("codec.encode_strip4k_ns", "ns", LOWER),
    ("codec.encode_strip64k_ns", "ns", LOWER),
    ("codec.decode_strip4k_ns", "ns", LOWER),
    ("codec.decode_strip64k_ns", "ns", LOWER),
    ("engine.ping_rtt_p50_us", "us", LOWER),
    ("engine.get4k_rtt_p50_us", "us", LOWER),
    ("engine.put4k_rtt_p50_us", "us", LOWER),
    ("engine.get64k_rtt_p50_us", "us", LOWER),
    ("engine.put64k_rtt_p50_us", "us", LOWER),
    ("engine.shed_total", "count", LOWER),
];

/// … and after them: peer, client, pfs, kernels, core, obs, process,
/// set-up.
const AFTER_SERVER_STAGES: &[(&str, &str, &str)] = &[
    ("peer.fetches_per_op", "count", LOWER),
    ("peer.fetch_bytes_per_op", "B", LOWER),
    ("peer.fetch_mean_us", "us", LOWER),
    ("peer.fetch_share", "frac", LOWER),
    ("client.connect_ms", "ms", LOWER),
    ("client.create_file_us", "us", LOWER),
    ("client.distribution_us", "us", LOWER),
    ("client.reset_stats_us", "us", LOWER),
    ("client.stats_us", "us", LOWER),
    ("client.read_file_ms", "ms", LOWER),
    ("client.put_file_ms", "ms", LOWER),
    ("client.ts_kernel_ms", "ms", LOWER),
    ("client.execute_ms", "ms", LOWER),
    ("client.execute_serial_frac", "frac", LOWER),
    ("client.redistribute_ms", "ms", LOWER),
    ("client.redistribute_bytes", "B", LOWER),
    ("client.hedges_per_get", "ratio", LOWER),
    ("client.retries_total", "count", LOWER),
    ("pfs.store_4k_ns", "ns", LOWER),
    ("pfs.read_strip_4k_ns", "ns", LOWER),
    ("pfs.placement_ns", "ns", LOWER),
    ("pfs.stored_bytes_per_user_byte", "ratio", LOWER),
    ("kernels.flow_routing.raster_ns_per_elem", "ns/elem", LOWER),
    (
        "kernels.flow_routing.assembly_ns_per_elem",
        "ns/elem",
        LOWER,
    ),
    (
        "kernels.gaussian_filter.raster_ns_per_elem",
        "ns/elem",
        LOWER,
    ),
    (
        "kernels.gaussian_filter.assembly_ns_per_elem",
        "ns/elem",
        LOWER,
    ),
    ("assembly.insert_ns", "ns", LOWER),
    ("assembly.get_linear_ns", "ns", LOWER),
    ("core.decide_us", "us", LOWER),
    ("core.predict_nas_us", "us", LOWER),
    ("core.nas_fetch_plan_us", "us", LOWER),
    ("core.predicted_over_measured_fetch_bytes", "ratio", LOWER),
    ("obs.hist_observe_ns", "ns", LOWER),
    ("obs.registry_encode_us", "us", LOWER),
    ("obs.metrics_dump_rtt_us", "us", LOWER),
    ("obs.trace_overhead_frac", "frac", LOWER),
    ("process.cpu_s_per_user_mib", "s/MiB", LOWER),
    ("process.cpu_busy_frac", "frac", LOWER),
    ("process.threads", "count", LOWER),
    ("process.peak_rss_mib", "MiB", LOWER),
    ("setup.boot_ms", "ms", LOWER),
    ("setup.ingest_ms", "ms", LOWER),
    ("setup.verify_ms", "ms", LOWER),
    ("setup.first_run_ms", "ms", LOWER),
];

/// Every per-layer metric a traced run prints, grouped by layer in the
/// order of README.md.
pub fn per_layer() -> Vec<PerLayer> {
    let listed = |&(name, unit, better): &(&str, &'static str, &'static str)| PerLayer {
        name: name.to_string(),
        unit,
        better,
    };
    let mut out: Vec<PerLayer> = BEFORE_SERVER_STAGES.iter().map(listed).collect();
    for (op, stages) in SERVER_STAGES {
        out.extend(stages.iter().map(|stage| PerLayer {
            name: format!("server.{stage}.{op}.mean_us"),
            unit: "us",
            better: LOWER,
        }));
    }
    out.extend(AFTER_SERVER_STAGES.iter().map(listed));
    out
}

/// `BENCHMARK.json`, key for key.
pub fn document() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(&m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            document().pretty(),
            "regenerate with `das-benchmark --spec`"
        );
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= MAX_BOUND));
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(document().pretty().len() <= 64 * 1024);
    }
}
