//! Per-run results: what the figure harnesses print and the tests
//! assert on.

use das_sim::{ByteCounters, SimDuration, SimReport};

use crate::scheme::{DasOutcome, SchemeKind};

/// One fault-tolerance action taken while serving a request. The
/// in-process simulator never degrades (its "network" cannot fail),
/// but the networked executors in `das-net` record every rung of the
/// paper's fallback ladder they descend — replica failover first,
/// then DAS → NAS → normal I/O — so a report always says *how* its
/// output was produced, not just that it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeEvent {
    /// A server stopped answering (connect/retry budget exhausted);
    /// subsequent requests route around it.
    ServerUnavailable {
        /// The unreachable server's id.
        server: u32,
    },
    /// A strip read failed over from its primary to a replica holder.
    ReplicaFailover {
        /// File id.
        file: u32,
        /// Strip index.
        strip: u64,
        /// The primary that could not serve the strip.
        primary: u32,
        /// The replica that did.
        replica: u32,
    },
    /// A strip write could not reach every holder; the copies that
    /// were stored keep the data readable, at reduced redundancy.
    DegradedWrite {
        /// File id.
        file: u32,
        /// Strip index.
        strip: u64,
        /// Holders that could not be written.
        missed: u32,
    },
    /// The DAS offload (decide + redistribute + execute) failed for
    /// transport reasons; the executor fell back to an unconditional
    /// offload on the current layout (the NAS rung).
    DegradedToNas {
        /// Why the DAS rung failed.
        reason: String,
    },
    /// Offloading was abandoned entirely; the request was served as
    /// normal I/O (the paper's `FallbackToNormalIo` / TS rung).
    DegradedToTs {
        /// Why the offload rungs failed.
        reason: String,
    },
}

impl DegradeEvent {
    /// Short machine-friendly tag for logs and summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            DegradeEvent::ServerUnavailable { .. } => "server-unavailable",
            DegradeEvent::ReplicaFailover { .. } => "replica-failover",
            DegradeEvent::DegradedWrite { .. } => "degraded-write",
            DegradeEvent::DegradedToNas { .. } => "degraded-to-nas",
            DegradeEvent::DegradedToTs { .. } => "degraded-to-ts",
        }
    }
}

/// The outcome of one (scheme, kernel, dataset) execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// Kernel name.
    pub kernel: String,
    /// Input size in bytes.
    pub data_bytes: u64,
    /// Storage servers used.
    pub storage_nodes: u32,
    /// Compute nodes used.
    pub compute_nodes: u32,
    /// Simulated execution time (the DAG makespan).
    pub exec_time: SimDuration,
    /// Lower bound ignoring contention.
    pub critical_path: SimDuration,
    /// Operations simulated.
    pub op_count: usize,
    /// Data movement by category.
    pub bytes: ByteCounters,
    /// Bit-exact fingerprint of the produced output raster.
    pub output_fingerprint: u64,
    /// The DAS decision record (None for TS/NAS).
    pub das: Option<DasOutcome>,
    /// Full execution trace when [`crate::ClusterConfig::trace`] was
    /// set (render with [`das_sim::TraceLog::render_gantt`]).
    pub trace: Option<das_sim::TraceLog>,
    /// Fault-tolerance actions taken while producing this result
    /// (always empty for simulator runs; populated by the networked
    /// executors).
    pub degradations: Vec<DegradeEvent>,
}

impl RunReport {
    #[allow(clippy::too_many_arguments)] // constructor mirrors the report fields
    pub(crate) fn from_sim(
        scheme: SchemeKind,
        kernel: &str,
        data_bytes: u64,
        storage_nodes: u32,
        compute_nodes: u32,
        sim: &SimReport,
        output_fingerprint: u64,
        das: Option<DasOutcome>,
    ) -> Self {
        RunReport {
            scheme,
            kernel: kernel.to_string(),
            data_bytes,
            storage_nodes,
            compute_nodes,
            exec_time: sim.makespan,
            critical_path: sim.critical_path,
            op_count: sim.op_count,
            bytes: sim.bytes,
            output_fingerprint,
            das,
            trace: sim.trace.clone(),
            degradations: Vec::new(),
        }
    }

    /// Execution time in seconds.
    pub fn exec_secs(&self) -> f64 {
        self.exec_time.as_secs_f64()
    }

    /// Sustained useful bandwidth in MiB/s: application bytes (input
    /// read once + output written once) over the execution time —
    /// the quantity behind the paper's Fig. 14.
    pub fn sustained_bandwidth_mib(&self) -> f64 {
        let useful = 2.0 * self.data_bytes as f64; // input + same-size output
        useful / self.exec_time.as_secs_f64().max(1e-12) / (1024.0 * 1024.0)
    }

    /// One formatted table row (scheme, time, bandwidth, movement).
    pub fn row(&self) -> String {
        format!(
            "{:<4} {:<18} {:>8.1} MiB {:>10.4}s {:>9.1} MiB/s  c/s {:>8.1} MiB  s/s {:>8.1} MiB",
            self.scheme.name(),
            self.kernel,
            self.data_bytes as f64 / (1024.0 * 1024.0),
            self.exec_secs(),
            self.sustained_bandwidth_mib(),
            self.bytes.net_client_server as f64 / (1024.0 * 1024.0),
            self.bytes.net_server_server as f64 / (1024.0 * 1024.0),
        )
    }

    /// Serializable snapshot (JSON for the bench harness artifacts).
    ///
    /// Hand-rolled (strings through [`das_obs::json_string`]). Floats
    /// use Rust's shortest-roundtrip `Display`.
    pub fn to_json(&self) -> String {
        let offloaded = match self.das.as_ref().map(|d| d.offloaded) {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"scheme\":{},\"kernel\":{},\"data_bytes\":{},",
                "\"storage_nodes\":{},\"compute_nodes\":{},\"exec_secs\":{},",
                "\"critical_path_secs\":{},\"op_count\":{},\"disk_read\":{},",
                "\"disk_write\":{},\"net_client_server\":{},\"net_server_server\":{},",
                "\"sustained_bandwidth_mib\":{},\"output_fingerprint\":{},",
                "\"offloaded\":{}}}"
            ),
            das_obs::json_string(self.scheme.name()),
            das_obs::json_string(&self.kernel),
            self.data_bytes,
            self.storage_nodes,
            self.compute_nodes,
            self.exec_secs(),
            self.critical_path.as_secs_f64(),
            self.op_count,
            self.bytes.disk_read,
            self.bytes.disk_write,
            self.bytes.net_client_server,
            self.bytes.net_server_server,
            self.sustained_bandwidth_mib(),
            self.output_fingerprint,
            offloaded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            scheme: SchemeKind::Das,
            kernel: "flow-routing".into(),
            data_bytes: 24 << 20,
            storage_nodes: 12,
            compute_nodes: 12,
            exec_time: SimDuration::from_millis(50),
            critical_path: SimDuration::from_millis(40),
            op_count: 123,
            bytes: ByteCounters::default(),
            output_fingerprint: 0xDEAD,
            das: None,
            trace: None,
            degradations: Vec::new(),
        }
    }

    #[test]
    fn bandwidth_is_two_s_over_t() {
        let r = sample();
        let expected = 2.0 * 24.0 / 0.05; // MiB over seconds
        assert!((r.sustained_bandwidth_mib() - expected).abs() < 1e-6);
    }

    #[test]
    fn json_contains_scheme_and_kernel() {
        let j = sample().to_json();
        assert!(j.contains("\"scheme\":\"DAS\""));
        assert!(j.contains("flow-routing"));
        assert!(j.contains("\"exec_secs\":0.05"));
    }

    #[test]
    fn row_is_single_line() {
        assert_eq!(sample().row().lines().count(), 1);
    }
}
