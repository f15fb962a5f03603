//! # das-runtime — the cluster model and the three evaluation schemes
//!
//! The DAS paper's evaluation (Section IV) compares three schemes on a
//! Lustre cluster:
//!
//! * **TS** (Traditional Storage) — servers do normal I/O; the
//!   analysis kernels run on the compute nodes, so the input crosses
//!   the network to the clients and the results cross back;
//! * **NAS** (Normal Active Storage) — kernels run on the storage
//!   servers over round-robin-striped data; every dependence on a
//!   strip the server does not hold is fetched from the neighbor
//!   server holding it, *and* each server must serve its neighbors'
//!   fetches while computing;
//! * **DAS** (Dynamic Active Storage) — the paper's contribution:
//!   offload decisions are made by the bandwidth predictor and the
//!   data is distributed by the improved layout, so every dependence
//!   is locally satisfiable.
//!
//! This crate executes all three **functionally and temporally**:
//!
//! * *functionally* — kernels really run, over exactly the strips the
//!   scheme's data paths deliver to each node
//!   ([`assembly::StripAssembly`] panics if an executor's data-
//!   movement logic forgot a strip some element needs), and the three
//!   schemes' outputs are compared bit-for-bit;
//! * *temporally* — every disk access, network transfer, kernel slice
//!   and request-service slot becomes an operation in a
//!   [`das_sim::Simulator`] DAG over per-node CPU/NIC/disk resources,
//!   so queueing and the compute-vs-serve interference the paper
//!   blames for NAS's loss emerge from scheduling rather than being
//!   assumed.
//!
//! [`run_scheme`] executes one (scheme, kernel, dataset) cell;
//! [`sweep`] has the multi-cell drivers behind the figure
//! reproductions.
//!
//! ```
//! use das_runtime::{run_scheme, ClusterConfig, SchemeKind};
//! use das_kernels::{workload, GaussianFilter};
//!
//! let cfg = ClusterConfig::small_test(); // 4+4 nodes, small strips
//! let dem = workload::fbm_dem(64, 96, 7);
//! let ts = run_scheme(&cfg, SchemeKind::Ts, &GaussianFilter, &dem);
//! let das = run_scheme(&cfg, SchemeKind::Das, &GaussianFilter, &dem);
//! assert_eq!(ts.output_fingerprint, das.output_fingerprint);
//! // Input dependence traffic is eliminated; what remains between
//! // servers is bounded replica maintenance of the output (2h/r).
//! assert_eq!(das.das.as_ref().unwrap().predicted_server_bytes, 0);
//! assert!(das.bytes.net_server_server < dem.byte_len());
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod assembly;
pub mod config;
pub mod pipeline;
pub mod report;
pub mod scheme;
pub mod sweep;

pub use assembly::StripAssembly;
pub use config::ClusterConfig;
pub use pipeline::{
    redistribution_cost, run_pipeline, run_pipeline_observed, PipelineReport, RedistributionCost,
};
pub use report::{DegradeEvent, RunReport};
pub use scheme::{
    run_das_forced_offload, run_das_with_policy, run_mixed, run_scheme, DasOutcome, JobResult,
    JobSpec, MixedReport, SchemeKind,
};
pub use sweep::{node_sweep, size_sweep, SweepPoint};
