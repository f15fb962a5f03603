//! # das-kernels — data-analysis kernels and synthetic workloads
//!
//! The DAS paper evaluates three data-analysis kernels (its Table I):
//!
//! * **flow-routing** — D8 single-flow-direction computation from
//!   terrain analysis (paper Fig. 1): each cell's flow direction is the
//!   neighbor with the minimum elevation among its 8 neighbors;
//! * **flow-accumulation** — "accumulated weight of all cells flowing
//!   into each downslope cell"; the paper evaluates it as an
//!   8-neighbor stencil over a direction raster (the one-step inflow
//!   count), and this crate additionally provides the full global
//!   O'Callaghan–Mark accumulation as an extension;
//! * **2D Gaussian filter** — 3×3 smoothing from signal/medical image
//!   processing.
//!
//! A **median filter** and a **surface-slope** kernel (both named in
//! the paper's Section III-C list of 8-neighbor operations) round out
//! the set. Every kernel implements the [`Kernel`] trait, which
//! exposes exactly what the DAS architecture needs: the dependence
//! offsets of the operation (paper Section III-B) and a per-element
//! compute cost for the simulator.
//!
//! Kernels read input through the [`ElemSource`] abstraction so the
//! runtime can execute them over *partial* data assemblies (local
//! strips + replicas + fetched halo strips); an assembly missing an
//! element a kernel touches panics loudly, which is how the test suite
//! catches layout/replication bugs.
//!
//! Every run of a kernel — [`Kernel::apply`], [`apply_parallel`], a
//! storage server's strip — is one loop, [`Kernel::process_range`]: one
//! [`Window`] of the source per task, the cells whose neighbours are all
//! at hand computed from its row slices by
//! [`Kernel::process_interior`], and the raster's borders (and any cell
//! next to data the assembly lacks) by [`Kernel::process_element`],
//! the kernel's definition.
//!
//! The paper's 24–60 GB terrain datasets are replaced by seeded
//! synthetic workloads ([`workload`]): fractal DEMs (fBm value noise
//! and diamond–square), ramps, noise and impulse images.
//!
//! ## Example
//!
//! ```
//! use das_kernels::{FlowRouting, Kernel, workload};
//!
//! let dem = workload::fbm_dem(64, 64, 42);
//! let dirs = FlowRouting.apply(&dem);
//! assert_eq!(dirs.width(), 64);
//! // Dependence pattern of the kernel, as the DAS descriptor needs it:
//! let offsets = FlowRouting.dependence_offsets(64);
//! assert_eq!(offsets.len(), 8);
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

mod extended;
mod filters;
mod flow;
mod kernel;
mod parallel;
mod raster;
mod registry;
mod source;
pub mod workload;

pub use extended::{GaussianFilter5x5, Laplacian4, LocalVariance, PointwiseScale, SobelEdge};
pub use filters::{GaussianFilter, MedianFilter, SlopeAnalysis};
pub use flow::{flow_accumulation_global, FlowAccumulationStep, FlowRouting, DIR_OFFSETS};
pub use kernel::{eight_neighbor_offsets, four_neighbor_offsets, Kernel};
pub use parallel::apply_parallel;
pub use raster::{cells_from_le_bytes, cells_to_le_bytes, Raster};
pub use registry::{kernel_by_name, kernel_names};
pub use source::{ElemSource, RasterSource, Window};
