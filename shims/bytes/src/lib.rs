//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no registry access, so the workspace
//! vendors the small slice of `bytes` it actually uses: [`Bytes`], a
//! cheaply cloneable, immutable, contiguous byte buffer. As in the real
//! crate, a `Bytes` is a shared allocation and a range of it: cloning,
//! slicing and converting a `Vec<u8>` copy no bytes (a reference-count
//! bump), which is what `das-pfs` relies on when the same strip is held
//! by a primary and several replicas, and what a daemon relies on when
//! it stores each strip of a multi-strip frame as a slice of the frame.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Wrap a static slice. (The shim copies; the real crate borrows.
    /// Semantics are identical, only the one-time cost differs.)
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// A `Bytes` holding `self[range]`, sharing this one's allocation.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds, as indexing would.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {range:?} out of bounds for {} bytes",
            self.len()
        );
        Bytes { data: Arc::clone(&self.data), start: self.start + range.start, end: self.start + range.end }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Takes the vector's allocation over; copies nothing.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { start: 0, end: v.len(), data: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self[..] == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len() > 32 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = Bytes::copy_from_slice(b"hello");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[..], b"hello");
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn conversions() {
        let v: Bytes = vec![1u8, 2, 3].into();
        assert_eq!(v.to_vec(), vec![1, 2, 3]);
        let s = Bytes::from_static(b"xy");
        assert_eq!(&s[..], b"xy");
        assert!(Bytes::new().is_empty());
        assert_eq!(v.slice(1..3), Bytes::copy_from_slice(&[2, 3]));
    }

    #[test]
    fn conversion_and_slices_share_the_vectors_allocation() {
        let v = vec![1u8, 2, 3, 4, 5, 6];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        let mid = b.slice(2..5);
        assert_eq!(mid.as_ptr(), at.wrapping_add(2));
        assert_eq!(mid.slice(1..2).as_ptr(), at.wrapping_add(3));
        assert_eq!(&mid[..], &[3, 4, 5]);
        assert!(b.slice(6..6).is_empty());
    }

    #[test]
    fn equal_contents_compare_and_hash_equal_wherever_they_sit() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let whole = Bytes::from(vec![9u8, 1, 2, 3, 9]);
        let (mid, copy) = (whole.slice(1..4), Bytes::copy_from_slice(&[1, 2, 3]));
        assert_eq!(mid, copy);
        assert_eq!(hash(&mid), hash(&copy));
        assert_eq!(format!("{mid:?}"), format!("{copy:?}"));
        assert_ne!(whole.slice(0..3), copy);
    }

    #[test]
    #[should_panic]
    fn a_slice_past_the_end_panics() {
        let b = Bytes::from(vec![1u8, 2, 3]).slice(1..3);
        let _ = b.slice(1..3);
    }
}
