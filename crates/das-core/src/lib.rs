//! # das-core — the Dynamic Active Storage architecture
//!
//! This crate is the reproduction of the actual contribution of
//! *"Dynamic Active Storage for High Performance I/O"* (Chen & Chen,
//! ICPP 2012): an active-storage system that is **aware of data
//! dependence** and decides *dynamically* whether offloading an
//! operation to the storage servers will help or hurt.
//!
//! The paper's architecture (its Fig. 2) has four moving parts, each a
//! module here:
//!
//! * [`features`] — the **Kernel Features** component: per-operator
//!   descriptor files declaring an operation's dependence pattern as
//!   element offsets, possibly symbolic in the image width
//!   (`Dependence: -imgWidth+1, -imgWidth, …`). Both the plain-text
//!   format of the paper's Section III-B and a minimal XML form are
//!   supported, with a small expression parser for the offsets.
//! * [`predict`] — **bandwidth analysis and prediction**: the paper's
//!   Eqs. 1–5 (per-element strip/location arithmetic and the
//!   `bwcost = E · Σ aj` estimate), Eqs. 8–13 (stride analysis) and
//!   Eqs. 14–17 (the grouped/replicated generalization), implemented
//!   exactly and also summed over whole files in O(strips) time.
//! * [`plan`] — the **improved data distribution** calculator: choose
//!   the group size `r` (balance first) and a replication halo `h` as
//!   wide as the kernel's reach so mutually dependent data is
//!   co-located (paper Section III-D), at `2h/r` capacity overhead.
//! * [`decide`](mod@decide) + [`client`] — the Fig. 3 **workflow**: fetch the
//!   dependence pattern, query the file's distribution from the
//!   parallel file system, predict the bandwidth cost, and accept the
//!   offload (optionally reconfiguring the layout when a successive
//!   operation will reuse it) or reject it and fall back to normal I/O.
//!
//! ```
//! use das_core::features::FeatureRegistry;
//! use das_core::client::{ActiveStorageClient, RequestOptions};
//! use das_pfs::{PfsCluster, StripeSpec, LayoutPolicy};
//!
//! // A 256-wide f32 image on 4 servers, round-robin strips of 1 KiB.
//! let mut pfs = PfsCluster::new(4);
//! let data = vec![0u8; 256 * 256 * 4];
//! let file = pfs
//!     .create("img", &data, StripeSpec::new(1024), LayoutPolicy::RoundRobin)
//!     .unwrap();
//!
//! let client = ActiveStorageClient::with_builtin_features();
//! let decision = client
//!     .decide(&pfs, file, "flow-routing", &RequestOptions { img_width: 256, ..Default::default() })
//!     .unwrap();
//! // The dependence pattern crosses servers on this layout, but whole-
//! // strip service still beats shipping the file to the clients, so it
//! // offloads; with a successive op declared it would also replan the
//! // layout. Either way the decision is explainable:
//! println!("{decision:?}");
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
pub mod decide;
pub mod features;
pub mod plan;
pub mod predict;
pub mod xml;

pub use client::{ActiveStorageClient, RequestOptions};
pub use decide::{decide, decide_timed, Decision, DecisionInput, LinkCost, RejectReason};
pub use features::{FeatureRegistry, KernelFeatures, OffsetExpr, ParseError};
pub use plan::{plan_distribution, LayoutPlan, PlanOptions};
pub use predict::{
    dependent_strips, DependencePrediction, NasFetch, NasFetchPrediction, StripingParams,
};
