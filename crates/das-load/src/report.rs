//! Benchmark reports and their `BENCH_net.json` serialization.
//!
//! The JSON writer is hand-rolled (this workspace takes no external
//! dependencies); the shape is stable so CI and downstream tooling can
//! assert on it:
//!
//! ```json
//! {
//!   "engine": "evloop",
//!   "target_rate_ops_s": 400.000, ..., "achieved_ops_s": 401.818,
//!   "classes": [ { "class": "get", ..., "p99_us": 2823, ... }, ... ],
//!   "stages": [ { "stage": "decode", "op": "get", ... }, ... ]
//! }
//! ```

use das_obs::json_string;

/// Throughput and latency of one operation class in one run.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Class label: `get`, `put` or `exec`.
    pub class: String,
    /// Arrivals the schedule assigned to this class.
    pub scheduled: u64,
    /// Operations that completed successfully.
    pub completed: u64,
    /// Operations that failed (transport error, timeout, wrong or
    /// short reply).
    pub errors: u64,
    /// Completed operations per wall-clock second.
    pub throughput_ops_s: f64,
    /// Mean latency from scheduled arrival to completion, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: u64,
    /// Worst observed latency, µs.
    pub max_us: u64,
}

/// Server-side latency attribution for one `(stage, op)` cell,
/// aggregated across the fleet from each daemon's
/// `dasd_stage_duration_us` histograms after the run drained.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Request-path stage label (`queue_wait`, `decode`, `local_read`,
    /// `peer_fetch`, `kernel`, `assemble`, `reply_write`, …).
    pub stage: String,
    /// Op class label (`get`, `put`, `exec`, …).
    pub op: String,
    /// Observations across all daemons.
    pub count: u64,
    /// Mean stage duration, µs.
    pub mean_us: f64,
    /// 99th-percentile stage duration, µs (bucket-interpolated).
    pub p99_us: f64,
}

impl StageStats {
    /// Serialize one stage cell as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"stage\": {}, \"op\": {}, \"count\": {}, \"mean_us\": {}, \"p99_us\": {}}}",
            json_string(&self.stage),
            json_string(&self.op),
            self.count,
            json_num(self.mean_us),
            json_num(self.p99_us),
        )
    }
}

/// One full open-loop run against one fleet.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Fleet label: `evloop` for an in-process loopback fleet,
    /// `external` for a `--cluster` one.
    pub engine: String,
    /// Configured aggregate arrival rate, ops/s.
    pub target_rate_ops_s: f64,
    /// Configured run length, ms.
    pub duration_ms: u64,
    /// Concurrent client workers.
    pub clients: usize,
    /// Strip size, bytes.
    pub strip_size: u32,
    /// Workload seed.
    pub seed: u64,
    /// Measured wall-clock of the drain, ms.
    pub wall_ms: u64,
    /// Successful operations across all classes.
    pub total_completed: u64,
    /// Failed operations across all classes.
    pub total_errors: u64,
    /// Failure breakdown, sorted by class name: typed remote errors
    /// keyed by wire `ErrorCode` name (`Overloaded`, `Retryable`, …),
    /// transport failures as `io`, malformed traffic as `protocol`,
    /// wrong/short replies as `bad-reply`, ops to a server the worker
    /// could not reach as `NoSuchServer`. Sums to `total_errors`.
    pub errors_by_code: Vec<(String, u64)>,
    /// Highest `dasd_worker_queue_depth` observed on any daemon while
    /// the run was in flight (sampled via shed-exempt `MetricsDump`).
    /// Under overload this stays at the daemon's backlog bound — the
    /// queue is bounded, the excess is shed.
    pub queue_depth_peak: u64,
    /// Fleet-wide `dasd_requests_shed_total` growth during the run
    /// (both `backlog` and `deadline` reasons).
    pub requests_shed: u64,
    /// Aggregate successful throughput, ops/s.
    pub achieved_ops_s: f64,
    /// Per-class breakdown, in `get`/`put`/`exec` order.
    pub classes: Vec<ClassStats>,
    /// Fleet-aggregated server-side stage attribution, sorted by
    /// `(stage, op)`. Empty when no request was served.
    pub stages: Vec<StageStats>,
}

impl BenchReport {
    /// Serialize the run as the `BENCH_net.json` object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"engine\": {},\n", json_string(&self.engine)));
        out.push_str(&format!("  \"target_rate_ops_s\": {},\n", json_num(self.target_rate_ops_s)));
        out.push_str(&format!("  \"duration_ms\": {},\n", self.duration_ms));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!("  \"strip_size\": {},\n", self.strip_size));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        out.push_str(&format!("  \"total_completed\": {},\n", self.total_completed));
        out.push_str(&format!("  \"total_errors\": {},\n", self.total_errors));
        let by_code: Vec<String> = self
            .errors_by_code
            .iter()
            .map(|(code, n)| format!("{}: {}", json_string(code), n))
            .collect();
        out.push_str(&format!("  \"errors_by_code\": {{{}}},\n", by_code.join(", ")));
        out.push_str(&format!("  \"queue_depth_peak\": {},\n", self.queue_depth_peak));
        out.push_str(&format!("  \"requests_shed\": {},\n", self.requests_shed));
        out.push_str(&format!("  \"achieved_ops_s\": {},\n", json_num(self.achieved_ops_s)));
        out.push_str("  \"classes\": [\n");
        for (i, c) in self.classes.iter().enumerate() {
            out.push_str(&indent(&c.to_json(), 4));
            out.push_str(if i + 1 < self.classes.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&indent(&s.to_json(), 4));
            out.push_str(if i + 1 < self.stages.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}");
        out
    }
}

impl ClassStats {
    /// Serialize one class's stats as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"class\": {},\n  \"scheduled\": {},\n  \"completed\": {},\n  \
             \"errors\": {},\n  \"throughput_ops_s\": {},\n  \"mean_us\": {},\n  \
             \"p50_us\": {},\n  \"p99_us\": {},\n  \"p999_us\": {},\n  \"max_us\": {}\n}}",
            json_string(&self.class),
            self.scheduled,
            self.completed,
            self.errors,
            json_num(self.throughput_ops_s),
            json_num(self.mean_us),
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
        )
    }
}

/// Finite float formatting JSON accepts (JSON has no NaN/Infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn indent(block: &str, spaces: usize) -> String {
    let pad = " ".repeat(spaces);
    block.lines().map(|l| format!("{pad}{l}")).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(engine: &str, achieved: f64, p99: u64) -> BenchReport {
        BenchReport {
            engine: engine.to_string(),
            target_rate_ops_s: 1000.0,
            duration_ms: 1000,
            clients: 8,
            strip_size: 4096,
            seed: 42,
            wall_ms: 1003,
            total_completed: achieved as u64,
            total_errors: 1,
            errors_by_code: vec![("Overloaded".to_string(), 1)],
            queue_depth_peak: 2,
            requests_shed: 1,
            achieved_ops_s: achieved,
            classes: vec![ClassStats {
                class: "get".to_string(),
                scheduled: 10,
                completed: 9,
                errors: 1,
                throughput_ops_s: achieved,
                mean_us: 120.5,
                p50_us: 100,
                p99_us: p99,
                p999_us: p99 * 2,
                max_us: p99 * 3,
            }],
            stages: vec![StageStats {
                stage: "queue_wait".to_string(),
                op: "get".to_string(),
                count: 9,
                mean_us: 12.5,
                p99_us: 40.0,
            }],
        }
    }

    #[test]
    fn json_nulls_and_structure() {
        assert_eq!(json_num(f64::NAN), "null");
        let doc = sample_report("evloop", 10.0, 5).to_json();
        assert!(doc.contains("\"engine\": \"evloop\""));
        assert!(doc.contains("\"p999_us\": 10"));
        assert!(doc.contains("\"errors_by_code\": {\"Overloaded\": 1}"));
        assert!(doc.contains("\"stages\": ["));
        assert!(doc.contains("{\"stage\": \"queue_wait\", \"op\": \"get\", \"count\": 9, \"mean_us\": 12.500, \"p99_us\": 40.000}"));
        // Crude structural sanity: brackets balance.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    /// The value written after the first `"key": ` at or past `from`.
    fn field<'a>(doc: &'a str, from: usize, key: &str) -> &'a str {
        let needle = format!("\"{key}\": ");
        let at = from + doc[from..].find(&needle).expect(key) + needle.len();
        let end = doc[at..].find([',', '\n', '}']).expect("value end");
        &doc[at..at + end]
    }

    /// What the CI sanity and perf-gate scripts read out of one run
    /// object comes back as written: the run's throughput at the top
    /// level, each class's p99, and the stage cells.
    #[test]
    fn single_run_json_carries_the_fields_the_ci_gate_reads() {
        let doc = sample_report("evloop", 401.818, 2823).to_json();
        assert!(doc.starts_with("{\n  \"engine\": \"evloop\","), "not a bare run object: {doc}");
        assert_eq!(field(&doc, 0, "achieved_ops_s"), "401.818");
        let classes = doc.find("\"classes\": [").expect("classes");
        assert_eq!(field(&doc, classes, "class"), "\"get\"");
        assert_eq!(field(&doc, classes, "p99_us"), "2823");
        let stages = doc.find("\"stages\": [").expect("stages");
        assert_eq!(field(&doc, stages, "stage"), "\"queue_wait\"");
        assert_eq!(field(&doc, stages, "count"), "9");
    }
}
