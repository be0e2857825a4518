//! Hostile-input tests for the on-disk chunk decoders: arbitrary byte
//! vectors, and valid chunk headers (with a correct trailing CRC, so the
//! checksum does not reject them first) followed by random payloads.
//!
//! Both [`Chunk::decode`] and [`PostingList::decode`] must return `Err` or
//! a valid value, never panic, and allocate in proportion to the input
//! rather than to a length field the input claims. A counting global
//! allocator measures the largest single allocation made while decoding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use uei_storage::checksum::crc32;
use uei_storage::chunk::{Chunk, CHUNK_MAGIC};
use uei_storage::postings::PostingList;
use uei_types::codec::Reader;

/// Passes every request to the system allocator, recording the largest
/// request made on a thread while that thread has measuring switched on.
struct PeakAlloc;

thread_local! {
    /// Largest request on this thread while measuring; `None` when off.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    PEAK.with(|p| {
        if let Some(peak) = p.get() {
            p.set(Some(peak.max(size)));
        }
    });
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread. Tests run on separate threads; the thread-local
/// record keeps them from measuring each other.
fn peak_alloc_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(Some(0)));
    let out = f();
    let peak = PEAK.with(|p| p.take()).unwrap_or(0);
    (out, peak)
}

/// The largest single allocation decoding `len` input bytes may make: at
/// most one `u64` id per input byte, doubled once by vector growth, plus
/// slack for error messages.
fn alloc_bound(len: usize) -> usize {
    16 * len + 1024
}

/// A chunk file with a valid header claiming `entries` posting lists, the
/// given payload, and a correct CRC over both.
fn framed(dim: u32, seq: u32, entries: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = CHUNK_MAGIC.to_vec();
    bytes.extend_from_slice(&dim.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&entries.to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// A decoded chunk must satisfy every invariant `Chunk::new` enforces.
fn assert_valid(chunk: &Chunk) {
    assert!(chunk.num_entries() > 0);
    let keys: Vec<f64> = chunk.postings().map(|(key, _)| key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys strictly ascend");
    let mut ids = 0;
    for (key, list) in chunk.postings() {
        assert!(!key.is_nan());
        assert!(!list.is_empty());
        assert!(list.windows(2).all(|w| w[0] < w[1]), "ids strictly ascend");
        ids += list.len();
    }
    assert_eq!(ids, chunk.num_ids());
    assert_eq!(&Chunk::decode(&chunk.encode().unwrap()).unwrap(), chunk, "re-encodes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chunk_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let (out, peak) = peak_alloc_of(|| Chunk::decode(&bytes));
        prop_assert!(peak <= alloc_bound(bytes.len()), "{} bytes allocated {}", bytes.len(), peak);
        if let Ok(chunk) = out {
            assert_valid(&chunk);
        }
    }

    /// The CRC is correct, so the decoder's own parsing faces the payload.
    /// Claimed entry counts range up to `u32::MAX`, which must not size
    /// any allocation.
    #[test]
    fn chunk_decode_survives_valid_header_with_random_payload(
        dim in any::<u32>(),
        seq in any::<u32>(),
        entries in entry_count(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let bytes = framed(dim, seq, entries, &payload);
        let (out, peak) = peak_alloc_of(|| Chunk::decode(&bytes));
        prop_assert!(peak <= alloc_bound(bytes.len()), "{} bytes allocated {}", bytes.len(), peak);
        if let Ok(chunk) = out {
            assert_valid(&chunk);
        }
    }

    /// Structured payloads: small varints and plausible keys, so decoding
    /// gets deep into the posting lists before it fails (or succeeds).
    #[test]
    fn chunk_decode_survives_plausible_postings(
        lists in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(0u8..4, 0..6)), 0..12),
        entries_slack in 0u32..3,
    ) {
        let mut payload = Vec::new();
        for (key, ids) in &lists {
            payload.extend_from_slice(&f64::from(*key).to_le_bytes());
            payload.push(ids.len() as u8);
            payload.extend_from_slice(ids);
        }
        let bytes = framed(0, 0, lists.len() as u32 + entries_slack, &payload);
        let (out, peak) = peak_alloc_of(|| Chunk::decode(&bytes));
        prop_assert!(peak <= alloc_bound(bytes.len()), "{} bytes allocated {}", bytes.len(), peak);
        if let Ok(chunk) = out {
            assert_valid(&chunk);
        }
    }

    #[test]
    fn posting_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let (out, peak) = peak_alloc_of(|| PostingList::decode(&mut Reader::new(&bytes)));
        prop_assert!(peak <= alloc_bound(bytes.len()), "{} bytes allocated {}", bytes.len(), peak);
        if let Ok(list) = out {
            prop_assert!(!list.key.is_nan());
            prop_assert!(PostingList::new(list.key, list.ids.clone()).is_ok());
        }
    }

    /// A valid key followed by a huge claimed id count and a short tail.
    #[test]
    fn posting_decode_caps_claimed_length(
        key in -1e6f64..1e6,
        claimed in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut w = uei_types::codec::Writer::new();
        w.write_f64(key);
        w.write_varint(claimed);
        w.write_bytes(&tail);
        let bytes = w.into_bytes();
        let (out, peak) = peak_alloc_of(|| PostingList::decode(&mut Reader::new(&bytes)));
        prop_assert!(peak <= alloc_bound(bytes.len()), "{} bytes allocated {}", bytes.len(), peak);
        if let Ok(list) = out {
            prop_assert!(PostingList::new(list.key, list.ids.clone()).is_ok());
        }
    }
}

/// Entry counts from tiny to absurd, biased toward both ends.
fn entry_count() -> impl Strategy<Value = u32> {
    (0u8..4, any::<u32>()).prop_map(|(pick, x)| match pick {
        0 => x % 4,
        1 => x % 64,
        2 => u32::MAX - x % 4,
        _ => x,
    })
}

/// A huge claimed count in front of a few KiB that decode nothing: every
/// preallocation must fit in the input's own size, not the claim's.
#[test]
fn claimed_counts_never_size_an_allocation() {
    let bytes = framed(1, 2, u32::MAX, &[0; 4096]);
    let (out, peak) = peak_alloc_of(|| Chunk::decode(&bytes));
    assert!(out.is_err());
    assert!(peak <= bytes.len() + 1024, "chunk header count sized {peak} bytes");

    let mut w = uei_types::codec::Writer::new();
    w.write_f64(1.0);
    w.write_varint(u64::MAX >> 1);
    w.write_bytes(&[0; 4096]);
    let bytes = w.into_bytes();
    let (out, peak) = peak_alloc_of(|| PostingList::decode(&mut Reader::new(&bytes)));
    assert!(out.is_err());
    assert!(peak <= bytes.len() + 1024, "posting id count sized {peak} bytes");
}
