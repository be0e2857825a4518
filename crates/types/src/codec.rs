//! Bounds-checked binary codecs.
//!
//! The storage engines persist chunk files and pages in a simple
//! little-endian format built from these primitives. Reads are
//! bounds-checked and return [`UeiError::Corrupt`] on truncation, so a
//! damaged file surfaces as a typed error rather than a panic.
//!
//! Posting lists additionally use LEB128 varints with delta encoding
//! (row ids are appended in ascending order), which is what makes the
//! paper's `<key, {values}>` inverted layout compact on disk.

use crate::error::{Result, UeiError};

/// A cursor over an immutable byte buffer with bounds-checked reads.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current read offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor is at the end of the buffer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[cold]
    fn truncated(&self, n: usize) -> UeiError {
        UeiError::corrupt(format!(
            "truncated buffer: need {n} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        ))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline(always)]
    pub fn read_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    #[inline(always)]
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads an LEB128-encoded unsigned varint (at most 10 bytes).
    #[inline(always)]
    pub fn read_varint(&mut self) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(UeiError::corrupt("varint overflows u64"));
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(UeiError::corrupt("varint longer than 10 bytes"));
            }
        }
    }
}

/// An append-only byte buffer writer mirroring [`Reader`].
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with a preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends an LEB128-encoded unsigned varint.
    pub fn write_varint(&mut self, mut v: u64) {
        loop {
            let mut byte = (v & 0x7F) as u8;
            v >>= 7;
            if v != 0 {
                byte |= 0x80;
            }
            self.buf.push(byte);
            if v == 0 {
                return;
            }
        }
    }

    /// Overwrites 4 bytes at `offset` with a little-endian `u32`; used for
    /// back-patching length prefixes. Panics if the offset is out of range
    /// (always a local programming error, never data-dependent).
    pub fn patch_u32(&mut self, offset: usize, v: u32) {
        self.buf[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Delta-encodes a strictly ascending sequence of row ids as varints.
///
/// Returns an error if the sequence is not strictly ascending — the storage
/// writer sorts posting lists before encoding, so a violation indicates a
/// bug or corruption upstream.
pub fn encode_ascending_ids(w: &mut Writer, ids: &[u64]) -> Result<()> {
    w.write_varint(ids.len() as u64);
    let mut prev: Option<u64> = None;
    for &id in ids {
        match prev {
            None => w.write_varint(id),
            Some(p) => {
                if id <= p {
                    return Err(UeiError::corrupt(format!(
                        "posting list not strictly ascending: {id} after {p}"
                    )));
                }
                w.write_varint(id - p);
            }
        }
        prev = Some(id);
    }
    Ok(())
}

/// Decodes a delta-encoded ascending id sequence written by
/// [`encode_ascending_ids`].
pub fn decode_ascending_ids(r: &mut Reader<'_>) -> Result<Vec<u64>> {
    let n = r.read_varint()? as usize;
    // Guard against a corrupt length causing a huge allocation: the
    // preallocation never exceeds the bytes left in the input (an id takes
    // at least one byte, so real ids can still fill the list as it grows).
    let mut ids = Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<u64>()));
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let delta = r.read_varint()?;
        let id = match prev {
            None => delta,
            Some(p) => {
                p.checked_add(delta).ok_or_else(|| UeiError::corrupt("posting id overflow"))?
            }
        };
        if let Some(p) = prev {
            if id <= p {
                return Err(UeiError::corrupt("decoded posting list not ascending"));
            }
        }
        ids.push(id);
        prev = Some(id);
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.write_u8(0xAB);
        w.write_u16(0xBEEF);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(0x0123_4567_89AB_CDEF);
        w.write_f64(-1234.5678);
        w.write_bytes(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.read_f64().unwrap(), -1234.5678);
        assert_eq!(r.read_bytes(5).unwrap(), b"hello");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert!(r.read_u32().is_err());
        // Cursor must not advance past the failed read's start.
        assert_eq!(r.position(), 0);
        assert_eq!(r.read_u8().unwrap(), 1);
    }

    #[test]
    fn f64_nan_and_special_values_round_trip_bits() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE] {
            let mut w = Writer::new();
            w.write_f64(v);
            let bytes = w.into_bytes();
            let got = Reader::new(&bytes).read_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
        let mut w = Writer::new();
        w.write_f64(f64::NAN);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).read_f64().unwrap().is_nan());
    }

    #[test]
    fn varint_round_trips_boundaries() {
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut w = Writer::new();
        for &v in &values {
            w.write_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_varint().unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 11 continuation bytes: longer than any valid u64 varint.
        let overlong = [0x80u8; 11];
        assert!(Reader::new(&overlong).read_varint().is_err());
        // 10 bytes whose top bits overflow u64.
        let overflow = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(Reader::new(&overflow).read_varint().is_err());
    }

    #[test]
    fn ascending_ids_round_trip() {
        let ids = vec![0u64, 1, 2, 100, 101, 1_000_000, u64::MAX];
        let mut w = Writer::new();
        encode_ascending_ids(&mut w, &ids).unwrap();
        let bytes = w.into_bytes();
        let got = decode_ascending_ids(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, ids);
    }

    #[test]
    fn ascending_ids_empty() {
        let mut w = Writer::new();
        encode_ascending_ids(&mut w, &[]).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(decode_ascending_ids(&mut Reader::new(&bytes)).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn ascending_ids_rejects_non_ascending() {
        let mut w = Writer::new();
        assert!(encode_ascending_ids(&mut w, &[3, 3]).is_err());
        let mut w = Writer::new();
        assert!(encode_ascending_ids(&mut w, &[3, 1]).is_err());
    }

    #[test]
    fn decode_rejects_truncated_list() {
        let ids = vec![5u64, 10, 20];
        let mut w = Writer::new();
        encode_ascending_ids(&mut w, &ids).unwrap();
        let bytes = w.into_bytes();
        let truncated = &bytes[..bytes.len() - 1];
        assert!(decode_ascending_ids(&mut Reader::new(truncated)).is_err());
    }

    #[test]
    fn patch_u32_back_patches_length() {
        let mut w = Writer::new();
        w.write_u32(0); // placeholder
        w.write_bytes(b"abcdef");
        let len = (w.len() - 4) as u32;
        w.patch_u32(0, len);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).read_u32().unwrap(), 6);
    }
}
