//! The on-disk chunk file format.
//!
//! UEI "splits the distinct values of each dimension d into a set of
//! equal-sized data chunks, where each chunk will be stored as a separate
//! file on the disk" (§3.1). A chunk holds a run of consecutive posting
//! lists of one dimension; across chunks of a dimension the key ranges are
//! disjoint and ascending ("values stored in each subsequent chunk will be
//! larger than the values that have been stored" before it).
//!
//! ## Layout
//!
//! ```text
//! magic    8 bytes  "UEICHNK1"
//! dim      u32      dimension index
//! chunk    u32      chunk id within the dimension
//! entries  u32      number of posting lists
//! payload  entries × PostingList (see `postings`)
//! crc      u32      CRC-32 of everything above
//! ```

use uei_types::codec::{encode_ascending_ids, Reader, Writer};
use uei_types::{Result, UeiError};

use crate::checksum::crc32;
use crate::postings::PostingList;

/// File-format magic for chunk files.
pub const CHUNK_MAGIC: &[u8; 8] = b"UEICHNK1";

/// Fewest bytes one encoded posting list can occupy: an 8-byte key, a
/// 1-byte id count and a 1-byte id. Bounds preallocation from a header's
/// entry count by what the input could really hold.
const MIN_POSTING_BYTES: usize = 10;

/// Identifies a chunk: `(dimension, position within the dimension)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Dimension (attribute) index.
    pub dim: u32,
    /// Ordinal of the chunk within the dimension (0-based; key ranges
    /// ascend with this ordinal).
    pub seq: u32,
}

impl ChunkId {
    /// Creates a chunk id.
    pub fn new(dim: u32, seq: u32) -> Self {
        ChunkId { dim, seq }
    }

    /// Canonical file name of this chunk inside a store directory.
    pub fn file_name(&self) -> String {
        format!("d{:03}_c{:06}.uei", self.dim, self.seq)
    }
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}c{}", self.dim, self.seq)
    }
}

/// An in-memory chunk: a run of ascending-key posting lists of one
/// dimension, held in three flat arrays so that decoding allocates per
/// chunk rather than per posting list.
///
/// Posting list `i` has key `keys[i]` and row ids
/// `ids[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Chunk identity.
    pub id: ChunkId,
    /// Strictly ascending keys, one per posting list.
    keys: Vec<f64>,
    /// `keys.len() + 1` ascending offsets into `ids`, starting at 0.
    offsets: Vec<u32>,
    /// Every posting list's ids, concatenated in key order.
    ids: Vec<u64>,
}

impl Chunk {
    /// Creates a chunk from posting lists, validating that entries are
    /// non-empty and keys are strictly ascending.
    pub fn new(id: ChunkId, entries: Vec<PostingList>) -> Result<Self> {
        let mut chunk = Chunk {
            id,
            keys: Vec::with_capacity(entries.len()),
            offsets: Vec::with_capacity(entries.len() + 1),
            ids: Vec::with_capacity(entries.iter().map(PostingList::len).sum()),
        };
        chunk.offsets.push(0);
        for e in &entries {
            chunk.push_key(e.key)?;
            chunk.ids.extend_from_slice(&e.ids);
            chunk.close_posting()?;
        }
        chunk.validate_non_empty()?;
        Ok(chunk)
    }

    fn push_key(&mut self, key: f64) -> Result<()> {
        if let Some(&last) = self.keys.last() {
            if !(key > last) {
                return Err(UeiError::corrupt(format!(
                    "chunk {} keys not strictly ascending: {key} after {last}",
                    self.id
                )));
            }
        }
        self.keys.push(key);
        Ok(())
    }

    fn close_posting(&mut self) -> Result<()> {
        let end = u32::try_from(self.ids.len()).map_err(|_| {
            UeiError::corrupt(format!("chunk {} holds more than u32::MAX ids", self.id))
        })?;
        self.offsets.push(end);
        Ok(())
    }

    fn validate_non_empty(&self) -> Result<()> {
        if self.keys.is_empty() {
            return Err(UeiError::corrupt(format!("chunk {} has no entries", self.id)));
        }
        Ok(())
    }

    /// Smallest key stored in the chunk.
    pub fn min_key(&self) -> f64 {
        *self.keys.first().expect("validated chunk is non-empty")
    }

    /// Largest key stored in the chunk.
    pub fn max_key(&self) -> f64 {
        *self.keys.last().expect("validated chunk is non-empty")
    }

    /// Number of posting lists.
    pub fn num_entries(&self) -> usize {
        self.keys.len()
    }

    /// Total number of row ids across all posting lists.
    pub fn num_ids(&self) -> usize {
        self.ids.len()
    }

    /// Every posting list as `(key, ids)`, in ascending key order.
    pub fn postings(&self) -> impl Iterator<Item = (f64, &[u64])> + '_ {
        self.run(0, self.keys.len()).postings()
    }

    /// Serializes the chunk to its file representation. Fails only if the
    /// chunk's entry invariants were violated after construction; the
    /// store's write path propagates this instead of panicking mid-build.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut w = Writer::with_capacity(64 + self.keys.len() * 24);
        w.write_bytes(CHUNK_MAGIC);
        w.write_u32(self.id.dim);
        w.write_u32(self.id.seq);
        w.write_u32(self.keys.len() as u32);
        for (key, ids) in self.postings() {
            w.write_f64(key);
            encode_ascending_ids(&mut w, ids)?;
        }
        let crc = crc32(w.as_bytes());
        w.write_u32(crc);
        Ok(w.into_bytes())
    }

    /// Parses and validates a chunk file image.
    ///
    /// Never panics on arbitrary input, and sizes every preallocation from
    /// the bytes actually present, never from a header count alone.
    pub fn decode(bytes: &[u8]) -> Result<Chunk> {
        if bytes.len() < CHUNK_MAGIC.len() + 4 * 3 + 4 {
            return Err(UeiError::corrupt(format!("chunk file too small: {} bytes", bytes.len())));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            return Err(UeiError::corrupt(format!(
                "chunk crc mismatch: stored {stored_crc:#x}, computed {actual_crc:#x}"
            )));
        }
        let mut r = Reader::new(body);
        let magic = r.read_bytes(CHUNK_MAGIC.len())?;
        if magic != CHUNK_MAGIC {
            return Err(UeiError::corrupt("bad chunk magic"));
        }
        let dim = r.read_u32()?;
        let seq = r.read_u32()?;
        let n = r.read_u32()? as usize;
        let cap = n.min(r.remaining() / MIN_POSTING_BYTES);
        let mut chunk = Chunk {
            id: ChunkId::new(dim, seq),
            keys: Vec::with_capacity(cap),
            offsets: Vec::with_capacity(cap + 1),
            // Every id takes at least one byte; this reserves one slot per
            // eight input bytes and lets dense lists grow from there.
            ids: Vec::with_capacity(r.remaining() / std::mem::size_of::<u64>()),
        };
        chunk.offsets.push(0);
        // The posting-list format of `PostingList::decode`, parsed inline
        // straight into the flat arrays: this loop is the hot path of
        // every region load.
        let mut last_key = f64::NEG_INFINITY;
        for i in 0..n {
            let key = r.read_f64()?;
            // NaN fails both tests; -inf is a valid first key.
            if !(key > last_key || (i == 0 && key == f64::NEG_INFINITY)) {
                return Err(UeiError::corrupt("decoded posting keys not ascending or NaN"));
            }
            last_key = key;
            chunk.keys.push(key);
            let count = r.read_varint()?;
            if count == 0 {
                return Err(UeiError::corrupt("decoded posting list is empty"));
            }
            let mut id = r.read_varint()?;
            chunk.ids.push(id);
            for _ in 1..count {
                let delta = r.read_varint()?;
                id = match id.checked_add(delta) {
                    Some(next) if delta > 0 => next,
                    _ => return Err(UeiError::corrupt("decoded posting ids not ascending")),
                };
                chunk.ids.push(id);
            }
            chunk.close_posting()?;
        }
        if !r.is_empty() {
            return Err(UeiError::corrupt(format!(
                "chunk has {} trailing bytes after {} entries",
                r.remaining(),
                n
            )));
        }
        chunk.validate_non_empty()?;
        Ok(chunk)
    }

    /// The posting lists whose key falls in `[lo, hi)` (or `[lo, hi]` when
    /// `inclusive_hi`): one contiguous run, found by binary search on the
    /// sorted keys.
    pub fn run_in(&self, lo: f64, hi: f64, inclusive_hi: bool) -> PostingRun<'_> {
        let start = self.keys.partition_point(|&k| k < lo);
        let end = if inclusive_hi {
            self.keys.partition_point(|&k| k <= hi)
        } else {
            self.keys.partition_point(|&k| k < hi)
        };
        self.run(start, end.max(start))
    }

    /// Posting lists `start..end` as one run.
    fn run(&self, start: usize, end: usize) -> PostingRun<'_> {
        let bounds = &self.offsets[start..=end];
        PostingRun {
            keys: &self.keys[start..end],
            bounds,
            ids: &self.ids[bounds[0] as usize..bounds[end - start] as usize],
        }
    }

    /// Visits the posting lists of [`Self::run_in`] as `(key, ids)`, in
    /// ascending key order.
    pub fn scan_range(
        &self,
        lo: f64,
        hi: f64,
        inclusive_hi: bool,
        mut visit: impl FnMut(f64, &[u64]),
    ) {
        for (key, ids) in self.run_in(lo, hi, inclusive_hi).postings() {
            visit(key, ids);
        }
    }
}

/// A run of consecutive posting lists of one chunk, their ids
/// concatenated in key order so a caller can sweep them as one slice.
#[derive(Debug, Clone, Copy)]
pub struct PostingRun<'a> {
    keys: &'a [f64],
    /// `keys.len() + 1` list boundaries, as offsets into the chunk's ids.
    bounds: &'a [u32],
    ids: &'a [u64],
}

impl<'a> PostingRun<'a> {
    /// Number of posting lists in the run.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the run holds no posting list.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every row id of the run, list after list.
    pub fn ids(&self) -> &'a [u64] {
        self.ids
    }

    /// Key of the posting list holding `self.ids()[pos]`.
    ///
    /// # Panics
    ///
    /// If `pos >= self.ids().len()`.
    pub fn key_of(&self, pos: usize) -> f64 {
        let at = self.bounds[0] as usize + pos;
        assert!(pos < self.ids.len(), "id position {pos} outside the run");
        self.keys[self.bounds.partition_point(|&b| b as usize <= at) - 1]
    }

    /// The run's posting lists as `(key, ids)`, in ascending key order.
    pub fn postings(self) -> impl Iterator<Item = (f64, &'a [u64])> {
        let base = self.bounds[0] as usize;
        self.keys
            .iter()
            .zip(self.bounds.windows(2))
            .map(move |(&key, w)| (key, &self.ids[w[0] as usize - base..w[1] as usize - base]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk() -> Chunk {
        Chunk::new(
            ChunkId::new(2, 7),
            vec![
                PostingList::new(-5.0, vec![3, 9]).unwrap(),
                PostingList::new(0.0, vec![1]).unwrap(),
                PostingList::new(4.5, vec![2, 4, 6]).unwrap(),
                PostingList::new(9.0, vec![0]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        let id = ChunkId::new(0, 0);
        assert!(Chunk::new(id, vec![]).is_err());
        let unordered =
            vec![PostingList::new(2.0, vec![1]).unwrap(), PostingList::new(1.0, vec![2]).unwrap()];
        assert!(Chunk::new(id, unordered).is_err());
        let dup =
            vec![PostingList::new(1.0, vec![1]).unwrap(), PostingList::new(1.0, vec![2]).unwrap()];
        assert!(Chunk::new(id, dup).is_err());
    }

    #[test]
    fn accessors() {
        let c = sample_chunk();
        assert_eq!(c.min_key(), -5.0);
        assert_eq!(c.max_key(), 9.0);
        assert_eq!(c.num_entries(), 4);
        assert_eq!(c.num_ids(), 7);
        assert_eq!(c.id.file_name(), "d002_c000007.uei");
    }

    #[test]
    fn flat_postings_match_their_lists() {
        let c = sample_chunk();
        let lists: Vec<(f64, Vec<u64>)> = c.postings().map(|(k, ids)| (k, ids.to_vec())).collect();
        assert_eq!(
            lists,
            vec![(-5.0, vec![3, 9]), (0.0, vec![1]), (4.5, vec![2, 4, 6]), (9.0, vec![0])]
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample_chunk();
        let bytes = c.encode().unwrap();
        let got = Chunk::decode(&bytes).unwrap();
        assert_eq!(got, c);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample_chunk().encode().unwrap();
        bytes[0] ^= 0xFF;
        assert!(Chunk::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_bit_flip_anywhere() {
        let bytes = sample_chunk().encode().unwrap();
        for pos in [0, 8, 12, 20, bytes.len() / 2, bytes.len() - 5, bytes.len() - 1] {
            let mut copy = bytes.clone();
            copy[pos] ^= 0x01;
            assert!(Chunk::decode(&copy).is_err(), "bit flip at {pos} undetected");
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample_chunk().encode().unwrap();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(Chunk::decode(&bytes[..cut]).is_err(), "truncation at {cut} undetected");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        // Appending bytes invalidates the CRC position, so this must fail.
        let mut bytes = sample_chunk().encode().unwrap();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Chunk::decode(&bytes).is_err());
    }

    #[test]
    fn scan_range_half_open() {
        let c = sample_chunk();
        let mut seen = Vec::new();
        c.scan_range(0.0, 9.0, false, |key, _| seen.push(key));
        assert_eq!(seen, vec![0.0, 4.5]);
    }

    #[test]
    fn scan_range_inclusive() {
        let c = sample_chunk();
        let mut seen = Vec::new();
        c.scan_range(0.0, 9.0, true, |key, _| seen.push(key));
        assert_eq!(seen, vec![0.0, 4.5, 9.0]);
    }

    #[test]
    fn scan_range_outside_is_empty() {
        let c = sample_chunk();
        let mut count = 0;
        c.scan_range(100.0, 200.0, true, |_, _| count += 1);
        c.scan_range(-100.0, -50.0, true, |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn run_in_is_one_contiguous_slice() {
        let c = sample_chunk();
        let run = c.run_in(0.0, 9.0, true);
        assert_eq!(run.len(), 3);
        assert_eq!(run.ids(), &[1, 2, 4, 6, 0]);
        let keys: Vec<f64> = (0..run.ids().len()).map(|p| run.key_of(p)).collect();
        assert_eq!(keys, vec![0.0, 4.5, 4.5, 4.5, 9.0]);
        assert!(c.run_in(5.0, 9.0, false).is_empty());
        assert!(c.run_in(9.0, 0.0, true).is_empty(), "inverted range is empty");
    }

    #[test]
    fn scan_range_full_cover() {
        let c = sample_chunk();
        let mut ids: Vec<u64> = Vec::new();
        c.scan_range(f64::NEG_INFINITY, f64::INFINITY, false, |_, e| ids.extend(e));
        assert_eq!(ids.len(), c.num_ids());
    }
}
