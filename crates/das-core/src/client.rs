//! The Active Storage Client (paper Fig. 2, left column).
//!
//! Applications hand active-storage requests to this client; it looks
//! up the operator's Kernel Features record, queries the parallel file
//! system for the file's distribution, and runs the Fig. 3 decision
//! workflow. Execution of the accepted request (building the storage-
//! side helper processes, timing, etc.) belongs to `das-runtime`; this
//! client produces the *decision* and, when asked, applies the layout
//! reconfiguration to the file system.

use std::fmt;

use das_pfs::{DistributionInfo, FileId, PfsCluster, PfsError, TrafficLog};

use crate::decide::{decide, Decision, DecisionInput};
use crate::features::FeatureRegistry;
use crate::plan::PlanOptions;

/// Errors surfaced by [`ActiveStorageClient`].
#[derive(Debug)]
pub enum ClientError {
    /// No Kernel Features record is registered for the operator, so
    /// its bandwidth cost cannot be predicted (the AS component
    /// refuses such requests).
    UnknownOperator(String),
    /// The underlying file system refused the request.
    Pfs(PfsError),
    /// The file's byte length is not `width × k × element_size`.
    GeometryMismatch {
        /// File length in bytes.
        file_len: u64,
        /// Requested image width in elements.
        img_width: u64,
        /// Element size in bytes.
        element_size: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::UnknownOperator(name) => {
                write!(f, "no kernel features registered for operator {name:?}")
            }
            ClientError::Pfs(e) => write!(f, "file system error: {e}"),
            ClientError::GeometryMismatch { file_len, img_width, element_size } => write!(
                f,
                "file of {file_len} bytes is not a whole number of {img_width}-element rows \
                 ({element_size}-byte elements)"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<PfsError> for ClientError {
    fn from(e: PfsError) -> Self {
        ClientError::Pfs(e)
    }
}

/// Per-request parameters.
#[derive(Debug, Clone, Copy)]
pub struct RequestOptions {
    /// Image width in elements (binds the descriptor's `imgWidth`).
    pub img_width: u64,
    /// Element size `E` in bytes (default 4, `f32` rasters).
    pub element_size: u64,
    /// Whether a successive operation will reuse this data/pattern.
    pub successive: bool,
    /// Planner bounds for reconfiguration.
    pub plan_opts: PlanOptions,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions {
            img_width: 0,
            element_size: 4,
            successive: false,
            plan_opts: PlanOptions::default(),
        }
    }
}

/// The client-side entry point of the DAS architecture.
#[derive(Clone, Debug, Default)]
pub struct ActiveStorageClient {
    registry: FeatureRegistry,
}

impl ActiveStorageClient {
    /// A client with an empty feature registry.
    pub fn new(registry: FeatureRegistry) -> Self {
        ActiveStorageClient { registry }
    }

    /// A client pre-loaded with the descriptors of every built-in
    /// kernel.
    pub fn with_builtin_features() -> Self {
        ActiveStorageClient { registry: FeatureRegistry::with_builtin() }
    }

    /// The underlying registry (e.g. to load additional descriptor
    /// files).
    pub fn registry_mut(&mut self) -> &mut FeatureRegistry {
        &mut self.registry
    }

    /// Read access to the registry.
    pub fn registry(&self) -> &FeatureRegistry {
        &self.registry
    }

    /// Run the Fig. 3 decision workflow for `operator` on `file`.
    pub fn decide(
        &self,
        pfs: &PfsCluster,
        file: FileId,
        operator: &str,
        opts: &RequestOptions,
    ) -> Result<Decision, ClientError> {
        self.decide_from_distribution(pfs.distribution_info(file)?, operator, opts)
    }

    /// The distribution-driven half of [`Self::decide`], for callers
    /// that obtained the file's [`DistributionInfo`] some other way —
    /// in particular the networked service, where the client fetches it
    /// over an RPC and the storage daemon validates requests against
    /// its own copy rather than an in-process [`PfsCluster`].
    pub fn decide_from_distribution(
        &self,
        dist: DistributionInfo,
        operator: &str,
        opts: &RequestOptions,
    ) -> Result<Decision, ClientError> {
        let features = self
            .registry
            .get(operator)
            .ok_or_else(|| ClientError::UnknownOperator(operator.to_string()))?;
        let row_bytes = opts.img_width * opts.element_size;
        if row_bytes == 0 || !dist.file_len.is_multiple_of(row_bytes) {
            return Err(ClientError::GeometryMismatch {
                file_len: dist.file_len,
                img_width: opts.img_width,
                element_size: opts.element_size,
            });
        }
        Ok(decide(&DecisionInput {
            features,
            dist,
            element_size: opts.element_size,
            img_width: opts.img_width,
            // Stencil kernels produce input-sized output.
            output_bytes: dist.file_len,
            successive: opts.successive,
            plan_opts: opts.plan_opts,
        }))
    }

    /// Run the decision workflow and, if it chose a new layout, apply
    /// the reconfiguration to the file system. Returns the decision
    /// and the redistribution traffic (empty when nothing moved).
    pub fn decide_and_prepare(
        &self,
        pfs: &mut PfsCluster,
        file: FileId,
        operator: &str,
        opts: &RequestOptions,
    ) -> Result<(Decision, TrafficLog), ClientError> {
        let decision = self.decide(pfs, file, operator, opts)?;
        let traffic = match &decision {
            Decision::Offload { replan: Some(plan), .. } => pfs.redistribute(file, plan.policy)?,
            _ => TrafficLog::default(),
        };
        Ok((decision, traffic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_pfs::{LayoutPolicy, StripeSpec};

    fn cluster_with_image(servers: u32, width: u64, rows: u64) -> (PfsCluster, FileId) {
        let mut pfs = PfsCluster::new(servers);
        let data = vec![7u8; (width * rows * 4) as usize];
        let file = pfs
            .create("img", &data, StripeSpec::new((2 * width * 4) as usize), LayoutPolicy::RoundRobin)
            .unwrap();
        (pfs, file)
    }

    #[test]
    fn unknown_operator_is_refused() {
        let (pfs, file) = cluster_with_image(4, 64, 64);
        let client = ActiveStorageClient::with_builtin_features();
        let err = client
            .decide(&pfs, file, "bitcoin-miner", &RequestOptions { img_width: 64, ..Default::default() })
            .unwrap_err();
        assert!(matches!(err, ClientError::UnknownOperator(_)));
    }

    #[test]
    fn geometry_mismatch_is_refused() {
        let (pfs, file) = cluster_with_image(4, 64, 64);
        let client = ActiveStorageClient::with_builtin_features();
        let err = client
            .decide(&pfs, file, "flow-routing", &RequestOptions { img_width: 100, ..Default::default() })
            .unwrap_err();
        assert!(matches!(err, ClientError::GeometryMismatch { .. }));
    }

    #[test]
    fn decide_and_prepare_reconfigures_for_pipelines() {
        let (mut pfs, file) = cluster_with_image(4, 64, 512);
        let client = ActiveStorageClient::with_builtin_features();
        let opts = RequestOptions { img_width: 64, successive: true, ..Default::default() };
        let (decision, traffic) = client
            .decide_and_prepare(&mut pfs, file, "flow-routing", &opts)
            .unwrap();
        assert!(decision.is_offload());
        assert!(traffic.bytes_moved() > 0, "redistribution happened");
        let dist = pfs.distribution_info(file).unwrap();
        assert!(matches!(dist.policy, LayoutPolicy::GroupedReplicated { .. }));
        pfs.verify(file).unwrap();

        // Second request finds the friendly layout and moves nothing.
        let (decision2, traffic2) = client
            .decide_and_prepare(&mut pfs, file, "flow-accumulation", &opts)
            .unwrap();
        assert!(decision2.is_offload());
        assert_eq!(traffic2.bytes_moved(), 0);
    }

    #[test]
    fn rejected_requests_leave_layout_untouched() {
        let mut client = ActiveStorageClient::with_builtin_features();
        client
            .registry_mut()
            .load_text("Name:wide\nDependence: -5*imgWidth, 5*imgWidth, -3*imgWidth, 3*imgWidth, -7*imgWidth, 7*imgWidth")
            .unwrap();
        // Force a small strip so the wide stride thrashes.
        let mut pfs_small = PfsCluster::new(8);
        let data = vec![1u8; 64 * 2048 * 4];
        let file_small = pfs_small
            .create("img", &data, StripeSpec::new(64 * 4), LayoutPolicy::RoundRobin)
            .unwrap();
        let (decision, traffic) = client
            .decide_and_prepare(
                &mut pfs_small,
                file_small,
                "wide",
                &RequestOptions { img_width: 64, ..Default::default() },
            )
            .unwrap();
        assert!(!decision.is_offload());
        assert_eq!(traffic.bytes_moved(), 0);
        assert_eq!(
            pfs_small.distribution_info(file_small).unwrap().policy,
            LayoutPolicy::RoundRobin
        );
    }
}
