//! A storage server: the strip store and the local-file abstraction.
//!
//! The paper's architecture (Fig. 2) gives each storage node a *Local
//! I/O API* that "abstracts local strips as a file and reads local data
//! for Processing Kernels". [`LocalFileView`] is that abstraction: the
//! ordered sequence of a server's primary strips presented as one
//! contiguous byte stream, so a kernel can run over local data without
//! knowing the striping.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::error::PfsError;
use crate::layout::ServerId;
use crate::stripe::StripId;
use crate::FileId;

/// A copy of a strip held by a server.
#[derive(Debug, Clone)]
struct StoredStrip {
    data: Bytes,
    /// True when this is the primary copy rather than a replica.
    primary: bool,
    /// The checksum the copy arrived with, when its owner keeps one.
    /// Held in the same entry as `data`, so whatever replaces or
    /// removes the bytes replaces or removes it too.
    sum: Option<u32>,
}

/// One storage server: holds strip copies for any number of files and
/// serves local reads/writes.
#[derive(Debug)]
pub struct StorageServer {
    id: ServerId,
    strips: BTreeMap<(FileId, StripId), StoredStrip>,
}

impl StorageServer {
    /// Create an empty server.
    pub fn new(id: ServerId) -> Self {
        StorageServer { id, strips: BTreeMap::new() }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Store (or overwrite) a strip copy.
    pub fn store(&mut self, file: FileId, strip: StripId, data: Bytes, primary: bool) {
        self.strips.insert((file, strip), StoredStrip { data, primary, sum: None });
    }

    /// [`StorageServer::store`], keeping `sum` — a checksum of `data`
    /// in whatever scheme the caller uses — beside the bytes.
    pub fn store_summed(&mut self, file: FileId, strip: StripId, data: Bytes, sum: u32, primary: bool) {
        self.strips.insert((file, strip), StoredStrip { data, primary, sum: Some(sum) });
    }

    /// Re-flag a held copy as primary or replica, bytes and checksum
    /// untouched; returns whether it was present.
    pub fn set_primary(&mut self, file: FileId, strip: StripId, primary: bool) -> bool {
        self.strips.get_mut(&(file, strip)).map(|s| s.primary = primary).is_some()
    }

    /// Remove a strip copy; returns whether it was present.
    pub fn evict(&mut self, file: FileId, strip: StripId) -> bool {
        self.strips.remove(&(file, strip)).is_some()
    }

    /// Whether the server holds a copy (primary or replica).
    pub fn holds(&self, file: FileId, strip: StripId) -> bool {
        self.strips.contains_key(&(file, strip))
    }

    /// Whether the held copy is the primary.
    pub fn holds_primary(&self, file: FileId, strip: StripId) -> bool {
        self.strips
            .get(&(file, strip))
            .is_some_and(|s| s.primary)
    }

    /// Read a strip copy.
    pub fn read_strip(&self, file: FileId, strip: StripId) -> Result<Bytes, PfsError> {
        self.strips
            .get(&(file, strip))
            .map(|s| s.data.clone())
            .ok_or(PfsError::StripNotLocal { server: self.id, strip })
    }

    /// Read a strip copy and the checksum stored with it (`None` for a
    /// copy that came in through plain [`StorageServer::store`]).
    pub fn read_strip_summed(&self, file: FileId, strip: StripId) -> Result<(Bytes, Option<u32>), PfsError> {
        self.strips
            .get(&(file, strip))
            .map(|s| (s.data.clone(), s.sum))
            .ok_or(PfsError::StripNotLocal { server: self.id, strip })
    }

    /// Bytes stored on this server for `file` (primaries + replicas) —
    /// capacity accounting for the `2h/r` overhead measurements.
    pub fn stored_bytes(&self, file: FileId) -> u64 {
        self.strips
            .range((file, StripId(0))..=(file, StripId(u64::MAX)))
            .map(|(_, s)| s.data.len() as u64)
            .sum()
    }

    /// The server's primary strips of `file`, in strip order.
    pub fn primary_strips(&self, file: FileId) -> Vec<StripId> {
        self.strips
            .range((file, StripId(0))..=(file, StripId(u64::MAX)))
            .filter(|(_, s)| s.primary)
            .map(|(&(_, strip), _)| strip)
            .collect()
    }

    /// All strips (primary and replica) of `file` held here, in order.
    pub fn all_strips(&self, file: FileId) -> Vec<StripId> {
        self.strips
            .range((file, StripId(0))..=(file, StripId(u64::MAX)))
            .map(|(&(_, strip), _)| strip)
            .collect()
    }

    /// The paper's local I/O abstraction: this server's primary strips
    /// of `file` as one logically contiguous local file.
    pub fn local_file(&self, file: FileId) -> LocalFileView<'_> {
        let strips = self.primary_strips(file);
        let mut offsets = Vec::with_capacity(strips.len() + 1);
        let mut total = 0u64;
        offsets.push(0);
        for &s in &strips {
            total += self
                .strips
                .get(&(file, s))
                .expect("primary strip present")
                .data
                .len() as u64;
            offsets.push(total);
        }
        LocalFileView { server: self, file, strips, offsets }
    }
}

/// A server's primary strips of one file, presented as a contiguous
/// byte stream (paper Fig. 2, "Local I/O API").
#[derive(Debug)]
pub struct LocalFileView<'a> {
    server: &'a StorageServer,
    file: FileId,
    strips: Vec<StripId>,
    /// Prefix sums: `offsets[i]` is the local offset of `strips[i]`;
    /// last entry is the total length.
    offsets: Vec<u64>,
}

impl LocalFileView<'_> {
    /// Total length of the local file in bytes.
    pub fn len(&self) -> u64 {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// True when this server holds no primary strip of the file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The strips backing the view, in local order.
    pub fn strips(&self) -> &[StripId] {
        &self.strips
    }

    /// The local byte offset at which `strip` begins, if present.
    pub fn offset_of(&self, strip: StripId) -> Option<u64> {
        self.strips
            .iter()
            .position(|&s| s == strip)
            .map(|i| self.offsets[i])
    }

    /// Read `len` bytes at local offset `offset`, gathering across
    /// strip boundaries.
    pub fn read(&self, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        PfsError::check_range(offset, len, self.len())?;
        let mut out = Vec::with_capacity(usize::try_from(len).expect("len fits usize"));
        // Find the first strip containing `offset` by binary search on
        // the prefix sums.
        let mut idx = match self.offsets.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        // `offsets` has one more entry than `strips`; when offset == len
        // and len == 0 we never enter the loop below.
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let strip = self.strips[idx];
            let data = self
                .server
                .read_strip(self.file, strip)
                .expect("view strips are present");
            let strip_start = self.offsets[idx];
            let begin = usize::try_from(pos - strip_start).expect("in-strip offset");
            let take = usize::try_from((end - pos).min(data.len() as u64 - (pos - strip_start)))
                .expect("in-strip len");
            out.extend_from_slice(&data[begin..begin + take]);
            pos += take as u64;
            idx += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> FileId {
        FileId(0)
    }

    #[test]
    fn store_read_evict_roundtrip() {
        let mut srv = StorageServer::new(ServerId(0));
        srv.store(file(), StripId(3), Bytes::from_static(b"abc"), true);
        assert!(srv.holds(file(), StripId(3)));
        assert_eq!(&srv.read_strip(file(), StripId(3)).unwrap()[..], b"abc");
        assert!(srv.evict(file(), StripId(3)));
        assert!(!srv.holds(file(), StripId(3)));
        assert_eq!(
            srv.read_strip(file(), StripId(3)).unwrap_err(),
            PfsError::StripNotLocal { server: ServerId(0), strip: StripId(3) }
        );
    }

    #[test]
    fn a_checksum_lives_and_dies_with_the_bytes_it_covers() {
        let mut srv = StorageServer::new(ServerId(0));
        srv.store_summed(file(), StripId(1), Bytes::from_static(b"abc"), 0xA1, false);
        assert_eq!(srv.read_strip_summed(file(), StripId(1)).unwrap().1, Some(0xA1));
        // Re-flagging keeps it; an overwrite replaces or drops it; an
        // evicted strip takes it along.
        assert!(srv.set_primary(file(), StripId(1), true));
        assert!(srv.holds_primary(file(), StripId(1)));
        assert_eq!(srv.read_strip_summed(file(), StripId(1)).unwrap().1, Some(0xA1));
        srv.store_summed(file(), StripId(1), Bytes::from_static(b"abd"), 0xB2, true);
        assert_eq!(srv.read_strip_summed(file(), StripId(1)).unwrap(), (Bytes::from_static(b"abd"), Some(0xB2)));
        srv.store(file(), StripId(1), Bytes::from_static(b"abe"), true);
        assert_eq!(srv.read_strip_summed(file(), StripId(1)).unwrap().1, None);
        srv.evict(file(), StripId(1));
        assert!(srv.read_strip_summed(file(), StripId(1)).is_err());
        assert!(!srv.set_primary(file(), StripId(1), true));
    }

    #[test]
    fn replicas_do_not_appear_in_local_file() {
        let mut srv = StorageServer::new(ServerId(1));
        srv.store(file(), StripId(0), Bytes::from_static(b"0000"), true);
        srv.store(file(), StripId(1), Bytes::from_static(b"1111"), false); // replica
        srv.store(file(), StripId(2), Bytes::from_static(b"2222"), true);
        let view = srv.local_file(file());
        assert_eq!(view.strips(), &[StripId(0), StripId(2)]);
        assert_eq!(view.len(), 8);
        assert_eq!(view.read(0, 8).unwrap(), b"00002222");
        assert_eq!(srv.all_strips(file()).len(), 3);
    }

    #[test]
    fn local_read_crosses_strip_boundary() {
        let mut srv = StorageServer::new(ServerId(0));
        srv.store(file(), StripId(0), Bytes::from_static(b"hello"), true);
        srv.store(file(), StripId(5), Bytes::from_static(b"world"), true);
        let view = srv.local_file(file());
        assert_eq!(view.read(3, 4).unwrap(), b"lowo");
        assert_eq!(view.offset_of(StripId(5)), Some(5));
        assert_eq!(view.offset_of(StripId(1)), None);
    }

    #[test]
    fn local_read_out_of_bounds_errors() {
        let mut srv = StorageServer::new(ServerId(0));
        srv.store(file(), StripId(0), Bytes::from_static(b"xy"), true);
        let view = srv.local_file(file());
        assert!(matches!(
            view.read(1, 5),
            Err(PfsError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn stored_bytes_counts_replicas_too() {
        let mut srv = StorageServer::new(ServerId(0));
        srv.store(file(), StripId(0), Bytes::from_static(b"aaaa"), true);
        srv.store(file(), StripId(9), Bytes::from_static(b"bb"), false);
        assert_eq!(srv.stored_bytes(file()), 6);
        // Another file's strips are not counted.
        srv.store(FileId(1), StripId(0), Bytes::from_static(b"cccccc"), true);
        assert_eq!(srv.stored_bytes(file()), 6);
        assert_eq!(srv.stored_bytes(FileId(1)), 6);
    }

    #[test]
    fn empty_view() {
        let srv = StorageServer::new(ServerId(0));
        let view = srv.local_file(file());
        assert!(view.is_empty());
        assert_eq!(view.read(0, 0).unwrap(), Vec::<u8>::new());
    }
}
