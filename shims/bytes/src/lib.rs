//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset the WAL encoder/decoder uses: an owned
//! growable buffer ([`BytesMut`]) with little-endian `put_*` writers,
//! and a cursor-style reader ([`Bytes`]) with `get_*` readers, both
//! reachable through the [`Buf`]/[`BufMut`] traits.

use std::ops::Deref;

/// Read-side cursor operations.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Pop one byte.
    fn get_u8(&mut self) -> u8;
    /// Pop a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Pop a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);
}

/// Write-side append operations.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);
}

/// A growable byte buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Drop the contents, keeping capacity.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Freeze into an immutable reader.
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.0,
            pos: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.0.extend(iter);
    }
}

/// An immutable byte view with a read cursor.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Copy a slice into an owned reader.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes {
            data: s.to_vec(),
            pos: 0,
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.pos + n <= self.data.len(), "buffer underrun");
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        s
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    fn advance(&mut self, n: usize) {
        assert!(self.pos + n <= self.data.len(), "advance past end");
        self.pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 1);
        w.put_slice(&[1, 2, 3]);
        assert_eq!(w.len(), 1 + 4 + 8 + 3);

        let mut r = Bytes::copy_from_slice(&w);
        assert_eq!(r.remaining(), 16);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        r.advance(1);
        assert_eq!(r.get_u8(), 2);
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    #[should_panic(expected = "buffer underrun")]
    fn underrun_panics() {
        let mut r = Bytes::copy_from_slice(&[1]);
        let _ = r.get_u32_le();
    }
}
