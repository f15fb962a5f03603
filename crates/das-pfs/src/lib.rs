//! # das-pfs — a from-scratch striped parallel file system substrate
//!
//! The DAS paper (Chen & Chen, ICPP 2012) is built on a parallel file
//! system — its prototype targets PVFS2 and its experiments ran on
//! Lustre. Rust has no such ecosystem, so this crate reimplements the
//! slice of parallel-file-system behaviour the paper depends on:
//!
//! * files are split into fixed-size **strips** (PVFS2's default of
//!   64 KiB is ours too) and distributed over `D` storage servers;
//! * the default distribution is **round-robin** (paper Figs. 4–5);
//! * the paper's improved distribution — `r` successive strips grouped
//!   on one server with the group's boundary strips **replicated** onto
//!   the neighboring servers (paper Figs. 7–9, Eqs. 14–16) — is the
//!   [`LayoutPolicy::GroupedReplicated`] layout (one boundary strip each
//!   way, capacity overhead `2/r`), widened to a halo of `h` strips each
//!   way by [`LayoutPolicy::GroupedHalo`] (overhead `2h/r`) for stencils
//!   that reach past the adjacent strip;
//! * clients can query **distribution information** (strip size, server
//!   count, layout) exactly as the DAS bandwidth predictor requires
//!   (paper Section III-C: *"The data distribution information and
//!   strip size can be obtained from parallel file systems"*);
//! * each server exposes its local strips as a logically contiguous
//!   **local file** for processing kernels (paper Section III-A:
//!   *"The local I/O API … abstracts local strips as a file"*);
//! * files can be **redistributed** between layouts, the mechanism DAS
//!   uses to arrange data before offloading (paper Fig. 3,
//!   "Reconfig Parallel File System").
//!
//! Strips hold real bytes ([`bytes::Bytes`]), so the three evaluation
//! schemes in `das-runtime` produce genuinely comparable outputs and
//! replica-consistency bugs are caught by tests rather than hidden by a
//! purely analytical model.
//!
//! ## Example
//!
//! ```
//! use das_pfs::{PfsCluster, StripeSpec, LayoutPolicy};
//!
//! let mut pfs = PfsCluster::new(4); // 4 storage servers
//! let data: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
//! let spec = StripeSpec::new(64 * 1024);
//! let file = pfs.create("dem.raw", &data, spec, LayoutPolicy::RoundRobin).unwrap();
//!
//! // Clients read arbitrary ranges; the cluster gathers across servers.
//! let (bytes, _traffic) = pfs.read(file, 100_000, 1234).unwrap();
//! assert_eq!(&bytes[..], &data[100_000..101_234]);
//!
//! // DAS reconfigures the layout to group strips and replicate borders.
//! let moved = pfs.redistribute(file, LayoutPolicy::GroupedReplicated { group: 4 }).unwrap();
//! assert!(moved.bytes_moved() > 0);
//! assert_eq!(pfs.read(file, 100_000, 1234).unwrap().0, bytes);
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

mod cluster;
mod error;
mod layout;
mod server;
mod stripe;
mod traffic;

pub use cluster::{BalanceReport, DistributionInfo, FileId, FileMeta, PfsCluster, ServerLoad};
pub use error::PfsError;
pub use layout::{Layout, LayoutPolicy, ServerId, StripPlacement};
pub use server::{LocalFileView, StorageServer};
pub use stripe::{StripId, StripRange, StripeSpec};
pub use traffic::{Endpoint, TrafficLog, TransferKind, TransferRec};
