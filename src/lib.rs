//! # das — Dynamic Active Storage for High Performance I/O
//!
//! A from-scratch Rust reproduction of *"Dynamic Active Storage for
//! High Performance I/O"* (Chao Chen and Yong Chen, ICPP 2012): an
//! active-storage architecture that analyzes the **data dependence**
//! of offloaded operations, predicts their bandwidth cost, decides
//! dynamically whether to offload, and distributes data so that
//! mutually dependent elements are co-located on storage servers.
//!
//! The workspace contains everything the paper's system needs, built
//! from scratch (see `DESIGN.md` for the inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record):
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] (`das-sim`) | deterministic discrete-event cluster simulator |
//! | [`pfs`] (`das-pfs`) | striped parallel file system with round-robin, grouped and grouped+replicated layouts |
//! | [`kernels`] (`das-kernels`) | flow-routing, flow-accumulation, Gaussian/median filters, slope; synthetic DEM workloads |
//! | [`core`] (`das-core`) | **the paper's contribution**: kernel-features descriptors, bandwidth prediction (Eqs. 1–17), distribution planning, offload decisions |
//! | [`runtime`] (`das-runtime`) | the TS / NAS / DAS evaluation schemes over the simulator |
//! | [`net`] (`das-net`) | the networked service: `dasd` storage daemons + `das` client over real TCP |
//! | [`obs`] (`das-obs`) | dependency-free observability: metrics registry, structured events, trace ids |
//!
//! ## Quickstart
//!
//! ```
//! use das::prelude::*;
//!
//! // A fractal terrain raster (the paper's GIS workload, scaled down).
//! let dem = das::kernels::workload::fbm_dem(256, 256, 42);
//!
//! // Run flow-routing under all three schemes of the paper's
//! // evaluation on a simulated 4+4-node cluster.
//! let cfg = ClusterConfig::small_test();
//! let ts = run_scheme(&cfg, SchemeKind::Ts, &FlowRouting, &dem);
//! let nas = run_scheme(&cfg, SchemeKind::Nas, &FlowRouting, &dem);
//! let das = run_scheme(&cfg, SchemeKind::Das, &FlowRouting, &dem);
//!
//! // Identical results, different costs.
//! assert_eq!(ts.output_fingerprint, nas.output_fingerprint);
//! assert_eq!(ts.output_fingerprint, das.output_fingerprint);
//! assert!(das.exec_time < ts.exec_time);
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use das_core as core;
pub use das_kernels as kernels;
pub use das_net as net;
pub use das_obs as obs;
pub use das_pfs as pfs;
pub use das_runtime as runtime;
pub use das_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use das_core::{
        ActiveStorageClient, Decision, FeatureRegistry, KernelFeatures, PlanOptions,
        RequestOptions, StripingParams,
    };
    pub use das_kernels::{
        flow_accumulation_global, kernel_by_name, FlowAccumulationStep, FlowRouting,
        GaussianFilter, Kernel, MedianFilter, Raster, SlopeAnalysis,
    };
    pub use das_pfs::{LayoutPolicy, PfsCluster, StripeSpec};
    pub use das_runtime::{
        node_sweep, run_mixed, run_pipeline, run_scheme, size_sweep, ClusterConfig, JobSpec,
        PipelineReport, RunReport, SchemeKind,
    };
}
