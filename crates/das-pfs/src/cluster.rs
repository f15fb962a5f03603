//! The cluster: servers + file metadata + client operations.
//!
//! [`PfsCluster`] is the top-level object: it owns the storage servers,
//! tracks per-file striping and layout, and implements the client-side
//! gather/scatter paths, replica-consistent writes, the distribution
//! information query the DAS predictor relies on, and layout
//! redistribution (paper Fig. 3, "Reconfig Parallel File System").

use std::collections::HashMap;

use bytes::Bytes;

use crate::error::PfsError;
use crate::layout::{Layout, LayoutPolicy, ServerId};
use crate::server::StorageServer;
use crate::stripe::{StripId, StripeSpec};
use crate::traffic::{Endpoint, TrafficLog, TransferKind, TransferRec};

/// Identifier of a file within one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Metadata of a stored file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// The file's id.
    pub id: FileId,
    /// Human-readable name (unique per cluster).
    pub name: String,
    /// Length in bytes.
    pub len: u64,
    /// Striping parameters.
    pub spec: StripeSpec,
    /// Current distribution.
    pub layout: Layout,
}

impl FileMeta {
    /// Number of strips in the file.
    pub fn strip_count(&self) -> u64 {
        self.spec.strip_count(self.len)
    }
}

/// What a client can learn about a file's distribution — the inputs of
/// the paper's bandwidth prediction model (Section III-C: strip size,
/// server count, placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributionInfo {
    /// Strip size in bytes.
    pub strip_size: usize,
    /// Number of storage servers `D`.
    pub servers: u32,
    /// The placement policy (including group size `r`).
    pub policy: LayoutPolicy,
    /// File length in bytes.
    pub file_len: u64,
}

/// One server's share of a file (see [`PfsCluster::balance_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerLoad {
    /// The server.
    pub server: ServerId,
    /// Primary strips (the active-storage work assignment).
    pub primary_strips: u64,
    /// Replica strips held for neighbors.
    pub replica_strips: u64,
    /// Total bytes stored, replicas included.
    pub stored_bytes: u64,
}

/// Placement statistics per server for one file.
#[derive(Debug, Clone)]
pub struct BalanceReport {
    /// One entry per server, in server order.
    pub per_server: Vec<ServerLoad>,
    /// The file's logical size.
    pub file_len: u64,
}

impl BalanceReport {
    /// Ratio of the busiest server's primary-strip count to the mean
    /// (1.0 = perfectly balanced; the quantity the planner bounds).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_server.iter().map(|s| s.primary_strips).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.per_server.len() as f64;
        let max = self.per_server.iter().map(|s| s.primary_strips).max().unwrap_or(0);
        max as f64 / mean
    }

    /// Total stored bytes over logical file bytes (1.0 = no
    /// replication; `1 + 2h/r` for the DAS layout).
    pub fn storage_factor(&self) -> f64 {
        let stored: u64 = self.per_server.iter().map(|s| s.stored_bytes).sum();
        if self.file_len == 0 {
            1.0
        } else {
            stored as f64 / self.file_len as f64
        }
    }
}

/// A simulated parallel-file-system deployment.
#[derive(Debug)]
pub struct PfsCluster {
    servers: Vec<StorageServer>,
    files: Vec<FileMeta>,
    by_name: HashMap<String, FileId>,
}

impl PfsCluster {
    /// Create a cluster of `servers` empty storage servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "need at least one storage server");
        PfsCluster {
            servers: (0..servers).map(|i| StorageServer::new(ServerId(i))).collect(),
            files: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Number of storage servers `D`.
    pub fn server_count(&self) -> u32 {
        self.servers.len() as u32
    }

    /// Access a server.
    pub fn server(&self, id: ServerId) -> Result<&StorageServer, PfsError> {
        self.servers.get(id.index()).ok_or(PfsError::NoSuchServer(id))
    }

    /// Store a new file, placing strips (and replicas, if the policy
    /// replicates) according to `policy`.
    pub fn create(
        &mut self,
        name: &str,
        data: &[u8],
        spec: StripeSpec,
        policy: LayoutPolicy,
    ) -> Result<FileId, PfsError> {
        if self.by_name.contains_key(name) {
            return Err(PfsError::DuplicateName(name.to_string()));
        }
        let id = FileId(u32::try_from(self.files.len()).expect("too many files"));
        let layout = Layout::new(policy, self.server_count());
        let meta = FileMeta {
            id,
            name: name.to_string(),
            len: data.len() as u64,
            spec,
            layout,
        };
        for s in 0..meta.strip_count() {
            let strip = StripId(s);
            let start = usize::try_from(spec.strip_start(strip)).expect("offset fits usize");
            let len = spec.strip_len(strip, meta.len);
            let chunk = Bytes::copy_from_slice(&data[start..start + len]);
            let primary = layout.primary(strip);
            self.servers[primary.index()].store(id, strip, chunk.clone(), true);
            for rep in layout.replicas(strip) {
                self.servers[rep.index()].store(id, strip, chunk.clone(), false);
            }
        }
        self.by_name.insert(name.to_string(), id);
        self.files.push(meta);
        Ok(id)
    }

    /// Look up a file by name.
    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.by_name.get(name).copied()
    }

    /// File metadata.
    pub fn meta(&self, file: FileId) -> Result<&FileMeta, PfsError> {
        self.files
            .get(file.0 as usize)
            .ok_or(PfsError::NoSuchFile(file))
    }

    /// The distribution information a client (and the DAS predictor)
    /// may query.
    pub fn distribution_info(&self, file: FileId) -> Result<DistributionInfo, PfsError> {
        let meta = self.meta(file)?;
        Ok(DistributionInfo {
            strip_size: meta.spec.strip_size,
            servers: meta.layout.servers,
            policy: meta.layout.policy,
            file_len: meta.len,
        })
    }

    /// Client read of `[offset, offset+len)` by client 0.
    pub fn read(&self, file: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, TrafficLog), PfsError> {
        self.read_as(0, file, offset, len)
    }

    /// Client read by an explicit client id, gathering from the primary
    /// copy of every overlapped strip.
    pub fn read_as(
        &self,
        client: u32,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, TrafficLog), PfsError> {
        let meta = self.meta(file)?;
        PfsError::check_range(offset, len, meta.len)?;
        let mut out = Vec::with_capacity(usize::try_from(len).expect("len fits usize"));
        let mut traffic = TrafficLog::default();
        for part in meta.spec.strips_for_range(offset, len) {
            let server = meta.layout.primary(part.strip);
            let data = self.servers[server.index()].read_strip(file, part.strip)?;
            out.extend_from_slice(&data[part.start..part.start + part.len]);
            traffic.push(TransferRec {
                from: Endpoint::Server(server),
                to: Endpoint::Client(client),
                bytes: part.len as u64,
                kind: TransferKind::Read,
            });
        }
        Ok((out, traffic))
    }

    /// Client write of `data` at `offset` by client 0, updating the
    /// primary and every replica of each touched strip.
    pub fn write(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<TrafficLog, PfsError> {
        self.write_as(0, file, offset, data)
    }

    /// Client write by an explicit client id.
    pub fn write_as(
        &mut self,
        client: u32,
        file: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<TrafficLog, PfsError> {
        let meta = self.meta(file)?.clone();
        PfsError::check_range(offset, data.len() as u64, meta.len)?;
        let mut traffic = TrafficLog::default();
        let mut consumed = 0usize;
        for part in meta.spec.strips_for_range(offset, data.len() as u64) {
            let primary = meta.layout.primary(part.strip);
            let old = self.servers[primary.index()].read_strip(file, part.strip)?;
            let mut buf = old.to_vec();
            buf[part.start..part.start + part.len]
                .copy_from_slice(&data[consumed..consumed + part.len]);
            consumed += part.len;
            let fresh = Bytes::from(buf);
            self.servers[primary.index()].store(file, part.strip, fresh.clone(), true);
            traffic.push(TransferRec {
                from: Endpoint::Client(client),
                to: Endpoint::Server(primary),
                bytes: part.len as u64,
                kind: TransferKind::Write,
            });
            // Replica maintenance: forward the whole refreshed strip.
            for rep in meta.layout.replicas(part.strip) {
                self.servers[rep.index()].store(file, part.strip, fresh.clone(), false);
                traffic.push(TransferRec {
                    from: Endpoint::Server(primary),
                    to: Endpoint::Server(rep),
                    bytes: fresh.len() as u64,
                    kind: TransferKind::Replication,
                });
            }
        }
        Ok(traffic)
    }

    /// Write a whole strip on behalf of a storage-side process running
    /// *on the primary server itself* (the active-storage output path:
    /// kernels write results locally). Replicas are still maintained.
    pub fn write_strip_local(
        &mut self,
        file: FileId,
        strip: StripId,
        data: &[u8],
    ) -> Result<TrafficLog, PfsError> {
        let meta = self.meta(file)?.clone();
        let expected = meta.spec.strip_len(strip, meta.len);
        if data.len() != expected {
            return Err(PfsError::StripLengthMismatch { strip, expected, got: data.len() });
        }
        let primary = meta.layout.primary(strip);
        let fresh = Bytes::copy_from_slice(data);
        self.servers[primary.index()].store(file, strip, fresh.clone(), true);
        let mut traffic = TrafficLog::default();
        traffic.push(TransferRec {
            from: Endpoint::Disk(primary),
            to: Endpoint::Server(primary),
            bytes: expected as u64,
            kind: TransferKind::Write,
        });
        for rep in meta.layout.replicas(strip) {
            self.servers[rep.index()].store(file, strip, fresh.clone(), false);
            traffic.push(TransferRec {
                from: Endpoint::Server(primary),
                to: Endpoint::Server(rep),
                bytes: expected as u64,
                kind: TransferKind::Replication,
            });
        }
        Ok(traffic)
    }

    /// Change a file's layout, moving and copying strips as needed.
    /// Returns the transfers performed (the cost DAS pays when it
    /// reconfigures the file system before offloading).
    pub fn redistribute(
        &mut self,
        file: FileId,
        new_policy: LayoutPolicy,
    ) -> Result<TrafficLog, PfsError> {
        let meta = self.meta(file)?.clone();
        let old = meta.layout;
        let new = Layout::new(new_policy, self.server_count());
        let mut traffic = TrafficLog::default();

        for s in 0..meta.strip_count() {
            let strip = StripId(s);
            let old_primary = old.primary(strip);
            let new_primary = new.primary(strip);
            let data = self.servers[old_primary.index()].read_strip(file, strip)?;

            // Move the primary if it changes servers.
            if new_primary != old_primary {
                traffic.push(TransferRec {
                    from: Endpoint::Server(old_primary),
                    to: Endpoint::Server(new_primary),
                    bytes: data.len() as u64,
                    kind: TransferKind::Redistribution,
                });
            }

            // Build the new holder set.
            let mut keep: Vec<ServerId> = vec![new_primary];
            for rep in new.replicas(strip) {
                if !self.servers[rep.index()].holds(file, strip) {
                    traffic.push(TransferRec {
                        from: Endpoint::Server(new_primary),
                        to: Endpoint::Server(rep),
                        bytes: data.len() as u64,
                        kind: TransferKind::Replication,
                    });
                }
                keep.push(rep);
            }

            // Install the new copies, then drop stale ones.
            for srv in 0..self.server_count() {
                let sid = ServerId(srv);
                if keep.contains(&sid) {
                    self.servers[sid.index()].store(file, strip, data.clone(), sid == new_primary);
                } else {
                    self.servers[sid.index()].evict(file, strip);
                }
            }
        }

        self.files[file.0 as usize].layout = new;
        Ok(traffic)
    }

    /// Client read with some servers unavailable — the fault-tolerance
    /// dividend of the DAS replicated layout: a strip whose primary is
    /// down is served from a surviving replica.
    ///
    /// Returns [`PfsError::StripNotLocal`] naming the failed server if
    /// some strip has no surviving copy (always the case for
    /// non-replicated layouts when the primary is down).
    pub fn read_degraded(
        &self,
        client: u32,
        file: FileId,
        offset: u64,
        len: u64,
        down: &[ServerId],
    ) -> Result<(Vec<u8>, TrafficLog), PfsError> {
        let meta = self.meta(file)?;
        PfsError::check_range(offset, len, meta.len)?;
        let mut out = Vec::with_capacity(usize::try_from(len).expect("len fits usize"));
        let mut traffic = TrafficLog::default();
        for part in meta.spec.strips_for_range(offset, len) {
            let primary = meta.layout.primary(part.strip);
            let server = meta
                .layout
                .holders(part.strip)
                .into_iter()
                .find(|s| !down.contains(s))
                .ok_or(PfsError::StripNotLocal { server: primary, strip: part.strip })?;
            let data = self.servers[server.index()].read_strip(file, part.strip)?;
            out.extend_from_slice(&data[part.start..part.start + part.len]);
            traffic.push(TransferRec {
                from: Endpoint::Server(server),
                to: Endpoint::Client(client),
                bytes: part.len as u64,
                kind: TransferKind::Read,
            });
        }
        Ok((out, traffic))
    }

    /// Rebuild the copies a failed server held onto the surviving
    /// layout holders: every strip whose primary or replica lived on
    /// `failed` is re-replicated from a surviving copy. Returns the
    /// repair traffic. (The layout itself is unchanged — the repaired
    /// copies restore the original placement once the server returns;
    /// this models the repair *data movement*, which is what the cost
    /// analysis cares about.)
    pub fn repair_server(
        &mut self,
        file: FileId,
        failed: ServerId,
    ) -> Result<TrafficLog, PfsError> {
        let meta = self.meta(file)?.clone();
        let mut traffic = TrafficLog::default();
        for s in 0..meta.strip_count() {
            let strip = StripId(s);
            let holders = meta.layout.holders(strip);
            if !holders.contains(&failed) {
                continue;
            }
            let source = holders
                .iter()
                .copied()
                .find(|&h| h != failed)
                .ok_or(PfsError::StripNotLocal { server: failed, strip })?;
            let data = self.servers[source.index()].read_strip(file, strip)?;
            let primary = meta.layout.primary(strip) == failed;
            self.servers[failed.index()].store(file, strip, data.clone(), primary);
            traffic.push(TransferRec {
                from: Endpoint::Server(source),
                to: Endpoint::Server(failed),
                bytes: data.len() as u64,
                kind: TransferKind::Replication,
            });
        }
        Ok(traffic)
    }

    /// Reassemble the whole file from primary copies (test/verification
    /// helper; a real client would use [`read`](Self::read)).
    pub fn file_bytes(&self, file: FileId) -> Result<Vec<u8>, PfsError> {
        let meta = self.meta(file)?;
        let mut out = Vec::with_capacity(usize::try_from(meta.len).expect("len fits usize"));
        for s in 0..meta.strip_count() {
            let strip = StripId(s);
            let server = meta.layout.primary(strip);
            let data = self.servers[server.index()].read_strip(file, strip)?;
            out.extend_from_slice(&data);
        }
        Ok(out)
    }

    /// Total bytes stored for `file` across all servers, replicas
    /// included — measures the replication capacity overhead.
    pub fn total_stored_bytes(&self, file: FileId) -> u64 {
        self.servers.iter().map(|s| s.stored_bytes(file)).sum()
    }

    /// Per-server placement statistics for one file — the balance view
    /// behind the planner's group-size trade-off (a server's primary
    /// strips are the kernel work it will be assigned under active
    /// storage).
    pub fn balance_report(&self, file: FileId) -> Result<BalanceReport, PfsError> {
        let meta = self.meta(file)?;
        let per_server: Vec<ServerLoad> = self
            .servers
            .iter()
            .map(|srv| {
                let primaries = srv.primary_strips(file).len() as u64;
                let all = srv.all_strips(file).len() as u64;
                ServerLoad {
                    server: srv.id(),
                    primary_strips: primaries,
                    replica_strips: all - primaries,
                    stored_bytes: srv.stored_bytes(file),
                }
            })
            .collect();
        Ok(BalanceReport { per_server, file_len: meta.len })
    }

    /// Check every invariant of the file's placement: each strip's
    /// holder set matches the layout, replica bytes equal the primary's,
    /// and no server holds copies the layout does not prescribe.
    pub fn verify(&self, file: FileId) -> Result<(), String> {
        let meta = self.meta(file).map_err(|e| e.to_string())?;
        for s in 0..meta.strip_count() {
            let strip = StripId(s);
            let holders = meta.layout.holders(strip);
            let primary = self.servers[holders[0].index()]
                .read_strip(file, strip)
                .map_err(|e| format!("missing primary: {e}"))?;
            if primary.len() != meta.spec.strip_len(strip, meta.len) {
                return Err(format!("{strip}: wrong primary length {}", primary.len()));
            }
            for rep in &holders[1..] {
                let copy = self.servers[rep.index()]
                    .read_strip(file, strip)
                    .map_err(|e| format!("missing replica: {e}"))?;
                if copy != primary {
                    return Err(format!("{strip}: replica on server {} diverges", rep.0));
                }
            }
            for srv in &self.servers {
                if srv.holds(file, strip) && !holders.contains(&srv.id()) {
                    return Err(format!("{strip}: stray copy on server {}", srv.id().0));
                }
                if srv.holds_primary(file, strip) && srv.id() != holders[0] {
                    return Err(format!("{strip}: wrong primary owner {}", srv.id().0));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn create_and_reassemble_round_robin() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(1000);
        let f = pfs
            .create("f", &data, StripeSpec::new(100), LayoutPolicy::RoundRobin)
            .unwrap();
        assert_eq!(pfs.file_bytes(f).unwrap(), data);
        pfs.verify(f).unwrap();
        assert_eq!(pfs.total_stored_bytes(f), 1000);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut pfs = PfsCluster::new(2);
        pfs.create("f", &payload(10), StripeSpec::new(4), LayoutPolicy::RoundRobin)
            .unwrap();
        assert!(matches!(
            pfs.create("f", &payload(10), StripeSpec::new(4), LayoutPolicy::RoundRobin),
            Err(PfsError::DuplicateName(_))
        ));
    }

    #[test]
    fn read_gathers_across_servers() {
        let mut pfs = PfsCluster::new(3);
        let data = payload(500);
        let f = pfs
            .create("f", &data, StripeSpec::new(64), LayoutPolicy::RoundRobin)
            .unwrap();
        let (got, traffic) = pfs.read(f, 60, 200).unwrap();
        assert_eq!(&got[..], &data[60..260]);
        // 60..260 overlaps strips 0..=4 → five transfer records.
        assert_eq!(traffic.records().len(), 5);
        assert_eq!(traffic.client_bytes(), 200);
        assert_eq!(traffic.server_server_bytes(), 0);
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let mut pfs = PfsCluster::new(2);
        let f = pfs
            .create("f", &payload(100), StripeSpec::new(64), LayoutPolicy::RoundRobin)
            .unwrap();
        assert!(matches!(
            pfs.read(f, 90, 20),
            Err(PfsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn write_updates_primaries_and_replicas() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(1000);
        let f = pfs
            .create(
                "f",
                &data,
                StripeSpec::new(100),
                LayoutPolicy::GroupedReplicated { group: 2 },
            )
            .unwrap();
        pfs.verify(f).unwrap();
        let patch = vec![0xAB; 150];
        let traffic = pfs.write(f, 175, &patch).unwrap();
        assert!(traffic.bytes_moved() > 0);
        let mut expected = data.clone();
        expected[175..325].copy_from_slice(&patch);
        assert_eq!(pfs.file_bytes(f).unwrap(), expected);
        pfs.verify(f).unwrap(); // replicas must still match primaries
    }

    #[test]
    fn replication_overhead_measured() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(100 * 16); // 16 strips of 100 bytes
        let f = pfs
            .create(
                "f",
                &data,
                StripeSpec::new(100),
                LayoutPolicy::GroupedReplicated { group: 4 },
            )
            .unwrap();
        // Overhead 2/r = 0.5 → stored = 1.5 × file size.
        assert_eq!(pfs.total_stored_bytes(f), (data.len() as u64 * 3) / 2);
        pfs.verify(f).unwrap();
    }

    #[test]
    fn redistribute_preserves_contents_and_invariants() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(5_000);
        let f = pfs
            .create("f", &data, StripeSpec::new(128), LayoutPolicy::RoundRobin)
            .unwrap();
        let traffic = pfs
            .redistribute(f, LayoutPolicy::GroupedReplicated { group: 4 })
            .unwrap();
        assert!(traffic.bytes_moved() > 0);
        assert_eq!(pfs.file_bytes(f).unwrap(), data);
        pfs.verify(f).unwrap();
        assert_eq!(
            pfs.meta(f).unwrap().layout.policy,
            LayoutPolicy::GroupedReplicated { group: 4 }
        );

        // And back again.
        pfs.redistribute(f, LayoutPolicy::RoundRobin).unwrap();
        assert_eq!(pfs.file_bytes(f).unwrap(), data);
        pfs.verify(f).unwrap();
        assert_eq!(pfs.total_stored_bytes(f), data.len() as u64);
    }

    #[test]
    fn write_strip_local_keeps_replicas_consistent() {
        let mut pfs = PfsCluster::new(3);
        let data = payload(900);
        let f = pfs
            .create(
                "f",
                &data,
                StripeSpec::new(100),
                LayoutPolicy::GroupedReplicated { group: 3 },
            )
            .unwrap();
        let fresh = vec![7u8; 100];
        pfs.write_strip_local(f, StripId(3), &fresh).unwrap();
        pfs.verify(f).unwrap();
        let (got, _) = pfs.read(f, 300, 100).unwrap();
        assert_eq!(got, fresh);
    }

    #[test]
    fn write_strip_local_length_checked() {
        let mut pfs = PfsCluster::new(2);
        let f = pfs
            .create("f", &payload(150), StripeSpec::new(100), LayoutPolicy::RoundRobin)
            .unwrap();
        // Final strip is 50 bytes; writing 100 must fail.
        assert!(matches!(
            pfs.write_strip_local(f, StripId(1), &[0u8; 100]),
            Err(PfsError::StripLengthMismatch { .. })
        ));
    }

    #[test]
    fn lookup_by_name() {
        let mut pfs = PfsCluster::new(2);
        let f = pfs
            .create("dem.raw", &payload(10), StripeSpec::new(4), LayoutPolicy::RoundRobin)
            .unwrap();
        assert_eq!(pfs.lookup("dem.raw"), Some(f));
        assert_eq!(pfs.lookup("nope"), None);
    }

    #[test]
    fn distribution_info_exposes_predictor_inputs() {
        let mut pfs = PfsCluster::new(6);
        let f = pfs
            .create(
                "f",
                &payload(10_000),
                StripeSpec::new(256),
                LayoutPolicy::Grouped { group: 2 },
            )
            .unwrap();
        let info = pfs.distribution_info(f).unwrap();
        assert_eq!(info.strip_size, 256);
        assert_eq!(info.servers, 6);
        assert_eq!(info.policy, LayoutPolicy::Grouped { group: 2 });
        assert_eq!(info.file_len, 10_000);
    }

    #[test]
    fn degraded_read_survives_one_server_under_replication() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(4_000);
        let f = pfs
            .create(
                "f",
                &data,
                StripeSpec::new(100),
                LayoutPolicy::GroupedReplicated { group: 1 },
            )
            .unwrap();
        // With r = 1 every strip has two replicas: any single failure
        // is survivable.
        for down in 0..4u32 {
            let (got, traffic) = pfs.read_degraded(0, f, 0, 4_000, &[ServerId(down)]).unwrap();
            assert_eq!(got, data, "server {down} down");
            assert!(traffic
                .records()
                .iter()
                .all(|r| r.from != Endpoint::Server(ServerId(down))));
        }
    }

    #[test]
    fn degraded_read_fails_without_replicas() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(4_000);
        let f = pfs
            .create("f", &data, StripeSpec::new(100), LayoutPolicy::RoundRobin)
            .unwrap();
        assert!(matches!(
            pfs.read_degraded(0, f, 0, 4_000, &[ServerId(1)]),
            Err(PfsError::StripNotLocal { server: ServerId(1), .. })
        ));
        // Strips untouched by the failed server still readable.
        let (got, _) = pfs.read_degraded(0, f, 0, 100, &[ServerId(1)]).unwrap();
        assert_eq!(&got[..], &data[..100]);
    }

    #[test]
    fn repair_restores_failed_server_copies() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(6_000);
        let f = pfs
            .create(
                "f",
                &data,
                StripeSpec::new(100),
                LayoutPolicy::GroupedReplicated { group: 2 },
            )
            .unwrap();
        // Simulate losing server 2's copies.
        let lost: Vec<StripId> = pfs.server(ServerId(2)).unwrap().all_strips(f);
        assert!(!lost.is_empty());
        for strip in &lost {
            pfs.servers[2].evict(f, *strip);
        }
        assert!(pfs.verify(f).is_err(), "verification must notice the loss");

        let traffic = pfs.repair_server(f, ServerId(2)).unwrap();
        assert_eq!(traffic.records().len(), lost.len());
        assert!(traffic.records().iter().all(|r| r.to == Endpoint::Server(ServerId(2))));
        pfs.verify(f).unwrap();
        assert_eq!(pfs.file_bytes(f).unwrap(), data);
    }

    #[test]
    fn balance_report_measures_placement() {
        let mut pfs = PfsCluster::new(4);
        let data = payload(100 * 16); // 16 strips
        let f = pfs
            .create(
                "f",
                &data,
                StripeSpec::new(100),
                LayoutPolicy::GroupedReplicated { group: 4 },
            )
            .unwrap();
        let report = pfs.balance_report(f).unwrap();
        // 16 strips over 4 servers in groups of 4: one group each.
        assert!(report.per_server.iter().all(|s| s.primary_strips == 4));
        assert!((report.imbalance() - 1.0).abs() < 1e-12);
        // Overhead 2/r = 0.5 → storage factor 1.5.
        assert!((report.storage_factor() - 1.5).abs() < 0.02);
        // Each server holds two replica strips (one per neighbor group
        // boundary).
        assert!(report.per_server.iter().all(|s| s.replica_strips == 2));
    }

    #[test]
    fn balance_report_detects_imbalance() {
        let mut pfs = PfsCluster::new(3);
        let data = payload(100 * 4); // 4 strips on 3 servers
        let f = pfs
            .create("f", &data, StripeSpec::new(100), LayoutPolicy::RoundRobin)
            .unwrap();
        let report = pfs.balance_report(f).unwrap();
        // Server 0 holds 2 strips, servers 1-2 hold 1: max/mean = 1.5.
        assert!((report.imbalance() - 1.5).abs() < 1e-12);
        assert!((report.storage_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_file_is_fine() {
        let mut pfs = PfsCluster::new(2);
        let f = pfs
            .create("empty", &[], StripeSpec::new(64), LayoutPolicy::RoundRobin)
            .unwrap();
        assert_eq!(pfs.file_bytes(f).unwrap(), Vec::<u8>::new());
        pfs.verify(f).unwrap();
    }
}
