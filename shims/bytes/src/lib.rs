//! Minimal `bytes` stand-in.
//!
//! The workspace must build with no network access, so the real crate cannot
//! be downloaded. [`Bytes`] is a cheaply-clonable shared byte buffer (an
//! `Arc<[u8]>` plus a window); [`BytesMut`] is a growable builder that
//! freezes into one. The [`Buf`]/[`BufMut`] traits cover exactly the little-
//! endian accessors the `h5lite` container format uses.

#![forbid(unsafe_code)]

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Cheaply clonable, sliceable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Bytes in the current window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// View of the current window.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copy the window into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Zero-copy sub-window.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice {begin}..{end} of {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from(v.as_bytes().to_vec())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Growable byte builder; [`BytesMut::freeze`] converts into [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Read-side accessors (little-endian, as the container format needs).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Consume `n` bytes and return them as an owned [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes;
    /// Consume a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Consume a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "copy_to_bytes({n}) of {}", self.len());
        let out = self.slice(..n);
        self.start += n;
        out
    }

    fn get_u32_le(&mut self) -> u32 {
        let b = self.copy_to_bytes(4);
        u32::from_le_bytes(b.as_slice().try_into().expect("4 bytes"))
    }

    fn get_u64_le(&mut self) -> u64 {
        let b = self.copy_to_bytes(8);
        u64::from_le_bytes(b.as_slice().try_into().expect("8 bytes"))
    }
}

/// Write-side accessors (little-endian).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut b = BytesMut::new();
        b.put_u32_le(7);
        b.put_u64_le(u64::MAX - 3);
        b.put_slice(b"abc");
        let mut frozen = b.freeze();
        assert_eq!(frozen.len(), 15);
        assert_eq!(frozen.get_u32_le(), 7);
        assert_eq!(frozen.get_u64_le(), u64::MAX - 3);
        assert_eq!(frozen.copy_to_bytes(3).as_slice(), b"abc");
        assert_eq!(frozen.remaining(), 0);
    }

    #[test]
    fn slices_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        assert_eq!(s.slice(1..).as_slice(), &[3, 4]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slice_panics() {
        Bytes::from(vec![1]).slice(..5);
    }
}
