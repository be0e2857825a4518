//! Property-based tests of the shared concurrent chunk cache's byte
//! accounting: with single-flight and an admitting budget, the physical
//! bytes charged across every thread's tracker must equal exactly one read
//! of each unique chunk touched — no double-count (two threads both paying
//! for the same chunk) and no loss (a read charged to nobody). This holds
//! for per-chunk lookups and for the batched region loader, whose claimed
//! chunks other loaders wait for instead of reading again.

use std::sync::Arc;

use proptest::prelude::*;
use uei_storage::cache::{SessionChunkView, SharedChunkCache};
use uei_storage::chunk::ChunkId;
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::merge::{reconstruct_region_with_chunks, ChunkFetch};
use uei_storage::source::ChunkSource;
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_types::{AttributeDef, DataPoint, Region, Rng, Schema};

fn build_store(
    tag: &str,
    rows: usize,
    chunk_bytes: usize,
) -> (Arc<ColumnStore>, uei_storage::testutil::TempDir) {
    let dir = uei_storage::testutil::TempDir::new(&format!("shared-acct-{tag}"));
    let schema = Schema::new(vec![
        AttributeDef::new("x", 0.0, 10.0).unwrap(),
        AttributeDef::new("y", 0.0, 10.0).unwrap(),
    ])
    .unwrap();
    let mut rng = Rng::new(7);
    let points: Vec<DataPoint> = (0..rows)
        .map(|i| DataPoint::new(i as u64, vec![rng.range_f64(0.0, 10.0), rng.range_f64(0.0, 10.0)]))
        .collect();
    let store = ColumnStore::create(
        dir.path(),
        schema,
        &points,
        StoreConfig { chunk_target_bytes: chunk_bytes },
        DiskTracker::new(IoProfile::instant()),
    )
    .unwrap();
    (Arc::new(store), dir)
}

/// Every chunk id of the store, in manifest order.
fn all_chunk_ids(store: &ColumnStore) -> Vec<ChunkId> {
    store.manifest().dims.iter().flatten().map(|m| m.id()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Foreground + prefetcher accounting across thread counts: each
    /// thread runs its access sequence through its own store handle (its
    /// own tracker, as loader and prefetcher do). Afterwards the summed
    /// per-tracker deltas equal one read of each unique chunk accessed,
    /// and the hit/miss counters add up to the total access count.
    #[test]
    fn concurrent_byte_accounting_is_exact(
        seqs in proptest::collection::vec(
            proptest::collection::vec(any::<prop::sample::Index>(), 1..40), 8),
    ) {
        let (store, _dir) = build_store("exact", 1200, 256);
        let ids = all_chunk_ids(&store);
        prop_assert!(ids.len() > 4, "fixture must span several chunks");

        for &threads in &[1usize, 2, 8] {
            let cache = Arc::new(SharedChunkCache::new(usize::MAX, 4));
            let active = &seqs[..threads];
            let total_accesses: u64 = active.iter().map(|s| s.len() as u64).sum();

            let mut unique: Vec<ChunkId> = active
                .iter()
                .flatten()
                .map(|ix| ids[ix.index(ids.len())])
                .collect();
            unique.sort_unstable();
            unique.dedup();
            let unique_bytes: u64 = unique
                .iter()
                .map(|&id| store.manifest().chunk_meta(id).unwrap().file_size)
                .sum();

            let bytes_by_thread: Vec<u64> = std::thread::scope(|scope| {
                let handles: Vec<_> = active
                    .iter()
                    .map(|seq| {
                        let cache = Arc::clone(&cache);
                        let dir = store.dir().to_path_buf();
                        let ids = &ids;
                        scope.spawn(move || {
                            // Own handle ⇒ own tracker, like the real
                            // foreground/background split.
                            let tracker = DiskTracker::new(IoProfile::instant());
                            let handle =
                                ColumnStore::open(dir, tracker.clone()).unwrap();
                            let after_open = tracker.snapshot();
                            for ix in seq {
                                cache.get_or_load(&handle, ids[ix.index(ids.len())]).unwrap();
                            }
                            tracker.delta(&after_open).stats.bytes_read
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            let total_bytes: u64 = bytes_by_thread.iter().sum();
            prop_assert_eq!(
                total_bytes, unique_bytes,
                "threads={}: charged {} B, one read of each unique chunk is {} B",
                threads, total_bytes, unique_bytes
            );

            let stats = cache.stats();
            prop_assert_eq!(stats.misses, unique.len() as u64, "threads={}", threads);
            prop_assert_eq!(stats.hits, total_accesses - unique.len() as u64);
            prop_assert_eq!(stats.bypasses, 0u64);
            prop_assert_eq!(stats.evictions, 0u64);
        }
    }
    /// Concurrent region loads through the batched fetch path — half the
    /// threads on `ChunkFetch::Shared`, half through per-session views —
    /// over one unbounded shared cache: every chunk any of them touches is
    /// read from disk exactly once in total (claims make the others wait),
    /// every load returns the uncached rows, and nobody deadlocks.
    #[test]
    fn batched_region_loads_read_each_chunk_once_across_threads(
        queries in proptest::collection::vec(
            proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.5f64..6.0, 0.5f64..6.0), 1..6),
            2..7),
    ) {
        let (store, _dir) = build_store("batched", 1500, 200);
        let cache = Arc::new(SharedChunkCache::new(usize::MAX, 4));
        let regions: Vec<Vec<(Region, Vec<Vec<ChunkId>>)>> = queries
            .iter()
            .map(|qs| {
                qs.iter()
                    .map(|&(x, y, w, h)| {
                        let region =
                            Region::new(vec![x, y], vec![(x + w).min(10.5), (y + h).min(10.5)])
                                .unwrap();
                        let chunks = (0..2)
                            .map(|d| {
                                store
                                    .manifest()
                                    .chunks_overlapping(d, region.lo[d], region.hi[d])
                                    .unwrap()
                                    .iter()
                                    .map(|m| m.id())
                                    .collect()
                            })
                            .collect();
                        (region, chunks)
                    })
                    .collect()
            })
            .collect();
        let mut unique: Vec<ChunkId> =
            regions.iter().flatten().flat_map(|(_, c)| c.iter().flatten().copied()).collect();
        unique.sort_unstable();
        unique.dedup();
        let unique_bytes: u64 = unique
            .iter()
            .map(|&id| store.manifest().chunk_meta(id).unwrap().file_size)
            .sum();

        let bytes_by_thread: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = regions
                .iter()
                .enumerate()
                .map(|(t, loads)| {
                    let cache = Arc::clone(&cache);
                    let store = &store;
                    scope.spawn(move || {
                        let physical = DiskTracker::new(IoProfile::instant());
                        let handle = store.with_tracker(physical.clone());
                        let mut view = (t % 2 == 1).then(|| {
                            SessionChunkView::new(
                                Arc::clone(&cache),
                                Arc::new(store.with_tracker(physical.clone())) as Arc<dyn ChunkSource>,
                                usize::MAX,
                            )
                        });
                        let session = store.with_tracker(DiskTracker::new(IoProfile::instant()));
                        for (region, chunks) in loads {
                            let (rows, _) = match view.as_mut() {
                                Some(v) => reconstruct_region_with_chunks(
                                    &session, region, chunks, ChunkFetch::Session(v)),
                                None => reconstruct_region_with_chunks(
                                    &handle, region, chunks, ChunkFetch::Shared(&cache)),
                            }
                            .unwrap();
                            let (want, _) = reconstruct_region_with_chunks(
                                store.as_ref(), region, chunks, ChunkFetch::Uncached).unwrap();
                            assert_eq!(rows, want);
                        }
                        physical.stats().bytes_read
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: u64 = bytes_by_thread.iter().sum();
        prop_assert_eq!(total, unique_bytes, "each touched chunk read once across all threads");
        prop_assert_eq!(cache.stats().misses, unique.len() as u64);
    }
}
