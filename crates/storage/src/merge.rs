//! Reconstruction of a subspace from its chunks.
//!
//! Implements the merge process of paper §3.1: "to reconstruct each g when
//! needed, UEI utilizes a hash table [...] UEI iterates through each
//! dimension and loads the corresponding chunks to the memory one at a
//! time, and each entry in the chunk would be visited in a sequential
//! manner. For each object ID that is recorded in a loaded data chunk, the
//! value associated with the ID will be inserted into the corresponding
//! entry in the hash table."
//!
//! A row belongs to the subspace only if *every* dimension's value falls in
//! the cell's range. Row ids are dense (`0..n`, see
//! [`ColumnStore::create`]), so a byte per row id stands in for the
//! paper's hash table: `marks[id]` counts the leading dimensions whose
//! range holds row `id`. Dimension 0 seeds the candidates, each later
//! dimension advances only the rows that survived all earlier ones, and
//! rows that miss any dimension are never materialized. One late pass then
//! fills values for the survivors alone, which come out of the mark array
//! already in id order. The work counters ([`MergeStats`]) are defined by
//! the hash-table formulation and stay exactly what it would count.
//!
//! Chunks are fetched one dimension at a time by a single batched path for
//! every [`ChunkFetch`] mode: the reads the chunk-at-a-time walk would
//! issue happen first, one after another in walk order; the CPU-bound
//! decodes then fan out across cores; finally each cache's own per-chunk
//! admission (and a session's ghost ledger) runs over the decoded chunks in
//! walk order, so hit/miss counters and modeled charges match the
//! chunk-at-a-time walk.

use std::collections::HashMap;
use std::sync::Arc;

use rayon::prelude::*;
use uei_types::{DataPoint, Region, Result, UeiError};

use crate::cache::{ChunkCache, SessionChunkView, SharedChunkCache};
use crate::chunk::{Chunk, ChunkId};
use crate::source::ChunkSource;
use crate::store::ColumnStore;

/// Largest row id the mark array accepts. Ids are dense, so this caps the
/// array at 4 GiB even for a hostile chunk that passed its checksums.
const MAX_ROW_ID: u64 = u32::MAX as u64;

/// Work counters from one reconstruction; these are the `e` of the paper's
/// O(ke) per-iteration complexity claim (§3.3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Chunk files materialized through the fetch path (cache hits
    /// included; delta-reused chunks are not).
    pub chunks_loaded: u64,
    /// Total encoded bytes of the materialized chunks.
    pub chunk_bytes: u64,
    /// Chunks reused from the previous region's decoded set
    /// ([`reconstruct_region_delta`]) without touching the fetch path.
    pub chunks_reused: u64,
    /// Total encoded bytes of the reused chunks — I/O the delta avoided
    /// even in the worst (all-cold-cache) case.
    pub bytes_reused: u64,
    /// Posting-list entries whose key fell inside the per-dimension range.
    pub entries_matched: u64,
    /// Row-id insertions/updates the paper's hash table would perform:
    /// every matched id of dimension 0, then every matched id of a later
    /// dimension that dimension 0 seeded.
    pub id_updates: u64,
    /// Candidate rows after the seed dimension.
    pub seed_candidates: u64,
    /// Rows in the reconstructed subspace.
    pub result_rows: u64,
}

/// How [`reconstruct_region_with_chunks`] materializes chunk files.
#[derive(Debug)]
pub enum ChunkFetch<'a> {
    /// Read every chunk from disk and drop it after the merge — the
    /// paper's default chunk-at-a-time behaviour (§3.1).
    Uncached,
    /// Fetch through a single-owner [`ChunkCache`].
    Cached(&'a mut ChunkCache),
    /// Fetch through a [`SharedChunkCache`] — the concurrent cache shared
    /// by the foreground loader and the background prefetcher. Physical
    /// reads are charged to the caller's own source tracker, so each
    /// caller passes its own handle and I/O attribution stays per-thread.
    Shared(&'a SharedChunkCache),
    /// Fetch through a per-session [`SessionChunkView`]: bytes come from
    /// the shared cache (physical reads bill the engine's ledger), modeled
    /// I/O is charged to the session's source tracker by the view's
    /// deterministic ghost LRU.
    Session(&'a mut SessionChunkView),
}

/// The decoded chunks of one reconstructed region, keyed by [`ChunkId`].
///
/// Kept by callers that load overlapping regions back to back:
/// [`reconstruct_region_delta`] reuses any chunk present here without
/// re-reading or re-decoding it. Chunks are immutable once written (the
/// store has no update path), so reuse is safe across *any* pair of
/// regions, not just adjacent ones.
#[derive(Debug, Default)]
pub struct RegionChunkSet {
    chunks: HashMap<ChunkId, (Arc<Chunk>, u64)>,
}

impl RegionChunkSet {
    /// An empty set (nothing will be reused).
    pub fn new() -> Self {
        RegionChunkSet::default()
    }

    /// Number of retained decoded chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether no chunk is retained.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Whether `id` is retained.
    pub fn contains(&self, id: ChunkId) -> bool {
        self.chunks.contains_key(&id)
    }

    /// Total encoded file bytes of the retained chunks.
    pub fn encoded_bytes(&self) -> u64 {
        self.chunks.values().map(|(_, size)| size).sum()
    }

    fn get(&self, id: ChunkId) -> Option<(Arc<Chunk>, u64)> {
        self.chunks.get(&id).map(|(c, s)| (Arc::clone(c), *s))
    }

    fn insert(&mut self, id: ChunkId, chunk: Arc<Chunk>, file_size: u64) {
        self.chunks.insert(id, (chunk, file_size));
    }
}

/// Reconstructs every row of `region` from the store's inverted chunks.
///
/// Chunks are fetched through `cache` when provided (UEI's configurable
/// in-memory chunk budget), otherwise read and dropped after the merge, the
/// paper's default. Supports up to 64 dimensions; the paper's experiments
/// use 5.
///
/// Returns the rows (ordered by row id) and the work counters.
pub fn reconstruct_region(
    store: &ColumnStore,
    region: &Region,
    cache: Option<&mut ChunkCache>,
) -> Result<(Vec<DataPoint>, MergeStats)> {
    let dims = store.schema().dims();
    if region.dims() != dims {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: region.dims() });
    }
    let mut chunks_per_dim = Vec::with_capacity(dims);
    for d in 0..dims {
        let metas = store.manifest().chunks_overlapping(d, region.lo[d], region.hi[d])?;
        chunks_per_dim.push(metas.iter().map(|m| m.id()).collect());
    }
    let fetch = match cache {
        Some(c) => ChunkFetch::Cached(c),
        None => ChunkFetch::Uncached,
    };
    reconstruct_region_with_chunks(store, region, &chunks_per_dim, fetch)
}

/// Like [`reconstruct_region`], but reads exactly the chunks the caller
/// names (per dimension) from any [`ChunkSource`]. This is the entry point
/// the Uncertainty Estimation Index uses: its mapping method `m` has
/// already resolved the chunk set for the chosen subspace, so no catalog
/// lookup happens here.
pub fn reconstruct_region_with_chunks(
    source: &dyn ChunkSource,
    region: &Region,
    chunks_per_dim: &[Vec<ChunkId>],
    fetch: ChunkFetch<'_>,
) -> Result<(Vec<DataPoint>, MergeStats)> {
    let (rows, stats, _) = reconstruct_inner(source, region, chunks_per_dim, fetch, None, false)?;
    Ok((rows, stats))
}

/// Incremental reconstruction: like [`reconstruct_region_with_chunks`],
/// but chunks present in `prev` (the previously loaded region's decoded
/// set) are reused in place — no file read, no decode, no cache traffic —
/// and counted in [`MergeStats::chunks_reused`]. Returns the new region's
/// own [`RegionChunkSet`] (covering *all* its chunks, reused and fresh)
/// for the next iteration's delta.
///
/// Consecutive uncertain regions in UEI's exploration overlap heavily —
/// the decision boundary moves slowly, the same premise the σ/θ prefetch
/// machinery rests on (§3.2) — so the delta is usually a small fraction of
/// the region.
pub fn reconstruct_region_delta(
    source: &dyn ChunkSource,
    region: &Region,
    chunks_per_dim: &[Vec<ChunkId>],
    prev: Option<&RegionChunkSet>,
    fetch: ChunkFetch<'_>,
) -> Result<(Vec<DataPoint>, MergeStats, RegionChunkSet)> {
    let (rows, stats, set) = reconstruct_inner(source, region, chunks_per_dim, fetch, prev, true)?;
    Ok((rows, stats, set.expect("collect=true always builds a set")))
}

fn reconstruct_inner(
    source: &dyn ChunkSource,
    region: &Region,
    chunks_per_dim: &[Vec<ChunkId>],
    mut fetch: ChunkFetch<'_>,
    prev: Option<&RegionChunkSet>,
    collect: bool,
) -> Result<(Vec<DataPoint>, MergeStats, Option<RegionChunkSet>)> {
    let dims = source.dims();
    if region.dims() != dims {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: region.dims() });
    }
    if chunks_per_dim.len() != dims {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: chunks_per_dim.len() });
    }
    if dims > 64 {
        return Err(UeiError::invalid_config(format!(
            "reconstruct_region supports at most 64 dimensions, got {dims}"
        )));
    }
    let inclusive_hi = region.is_closed();
    let mut stats = MergeStats::default();
    let mut new_set = collect.then(RegionChunkSet::new);
    // marks[id] = how many leading dimensions hold row `id` in range
    // (0 = not a candidate); grown to the largest seeded id.
    let mut marks: Vec<u8> = Vec::new();
    // Each dimension's chunks, kept for the late value pass.
    let mut loaded: Vec<Vec<Arc<Chunk>>> = Vec::with_capacity(dims);

    // Intersect: mark ids dimension by dimension, materializing nothing.
    for d in 0..dims {
        let (lo, hi) = (region.lo[d], region.hi[d]);
        let mut dim_chunks = Vec::with_capacity(chunks_per_dim[d].len());
        for (chunk, file_size, reused) in
            load_dimension(source, &chunks_per_dim[d], &mut fetch, prev)?
        {
            if reused {
                stats.chunks_reused += 1;
                stats.bytes_reused += file_size;
            } else {
                stats.chunks_loaded += 1;
                stats.chunk_bytes += file_size;
            }
            if let Some(set) = new_set.as_mut() {
                set.insert(chunk.id, Arc::clone(&chunk), file_size);
            }
            let run = chunk.run_in(lo, hi, inclusive_hi);
            stats.entries_matched += run.len() as u64;
            let ids = run.ids();
            if d == 0 {
                stats.id_updates += ids.len() as u64;
                let max_id = ids.iter().copied().max().unwrap_or(0);
                if max_id > MAX_ROW_ID {
                    return Err(UeiError::corrupt(format!(
                        "row id {max_id} exceeds the dense id space (max {MAX_ROW_ID})"
                    )));
                }
                if !ids.is_empty() && max_id as usize >= marks.len() {
                    marks.resize(max_id as usize + 1, 0);
                }
                for &id in ids {
                    let m = &mut marks[id as usize];
                    stats.seed_candidates += u64::from(*m == 0);
                    *m = 1;
                }
            } else {
                let step = d as u8;
                for &id in ids {
                    if let Some(m) = marks.get_mut(id as usize) {
                        stats.id_updates += u64::from(*m != 0);
                        *m += u8::from(*m == step);
                    }
                }
            }
            dim_chunks.push(chunk);
        }
        loaded.push(dim_chunks);
        if d == 0 && stats.seed_candidates == 0 {
            // No candidate can survive the intersection; skip the
            // remaining dimensions entirely. (In delta mode the returned
            // set then only covers dimension 0 — reuse is keyed per chunk,
            // so a partial set is still valid.)
            return Ok((Vec::new(), stats, new_set));
        }
    }

    // Materialize late: only rows marked in every dimension, in id order.
    let full = dims as u8;
    let mut rows: Vec<DataPoint> = marks
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m == full)
        .map(|(id, _)| DataPoint::new(id as u64, vec![0.0; dims]))
        .collect();
    if !rows.is_empty() {
        for (d, chunks) in loaded.iter().enumerate() {
            for chunk in chunks {
                let run = chunk.run_in(region.lo[d], region.hi[d], inclusive_hi);
                for (pos, &id) in run.ids().iter().enumerate() {
                    if marks.get(id as usize) == Some(&full) {
                        let at = rows
                            .binary_search_by_key(&id, |p| p.id.as_u64())
                            .expect("every full mark has a row");
                        rows[at].values[d] = run.key_of(pos);
                    }
                }
            }
        }
    }
    stats.result_rows = rows.len() as u64;
    Ok((rows, stats, new_set))
}

/// Materializes one dimension's chunk list in caller order, marking each
/// chunk as reused (`true`, taken from `prev` with zero I/O) or fetched
/// (`false`, materialized through `fetch`).
///
/// One path serves every fetch mode, in four steps:
///
/// 1. **Plan.** Find the chunks the chunk-at-a-time walk would read: all
///    of them uncached, the non-resident ones in a private cache. A shared
///    cache (directly or under a session view) *claims* its absent chunks
///    single-flight, so a concurrent loader waits for this one's read
///    instead of repeating it; chunks already in flight elsewhere are left
///    to the walk, which waits for them.
/// 2. **Read** the planned chunks one after another in walk order — the
///    sequence the I/O model and the fault injector see — stopping at the
///    first failure, which the walk then surfaces at that chunk.
/// 3. **Decode** them in parallel: CRC check plus posting-list parsing,
///    pure CPU.
/// 4. **Walk** the chunks in order through the cache's unchanged
///    per-chunk admission (and a session's ghost ledger), handing it the
///    decoded chunk where its miss path would have read one. Claimed
///    chunks are published to the shared cache at their turn. A chunk the
///    plan found resident but an earlier admission evicted is read on the
///    spot, exactly as the chunk-at-a-time walk would.
fn load_dimension(
    source: &dyn ChunkSource,
    chunk_ids: &[ChunkId],
    fetch: &mut ChunkFetch<'_>,
    prev: Option<&RegionChunkSet>,
) -> Result<Vec<(Arc<Chunk>, u64, bool)>> {
    // Resolve reuse first so the fetch path only sees the delta.
    let reused: Vec<Option<(Arc<Chunk>, u64)>> =
        chunk_ids.iter().map(|&id| prev.and_then(|p| p.get(id))).collect();
    let missing: Vec<ChunkId> = chunk_ids
        .iter()
        .zip(&reused)
        .filter(|(_, slot)| slot.is_none())
        .map(|(&id, _)| id)
        .collect();

    // A session view's shared misses read through the engine's physical
    // handle; every other mode reads through the caller's source.
    let view_parts = match fetch {
        ChunkFetch::Session(v) => Some((Arc::clone(v.shared()), Arc::clone(v.physical()))),
        _ => None,
    };
    let shared: Option<&SharedChunkCache> = match &*fetch {
        ChunkFetch::Shared(c) => Some(*c),
        _ => view_parts.as_ref().map(|(c, _)| c.as_ref()),
    };
    let reader: &dyn ChunkSource = view_parts.as_ref().map_or(source, |(_, p)| p.as_ref());

    // 1. Plan.
    let slots = missing
        .iter()
        .map(|&id| {
            let read = match (shared, &*fetch) {
                (Some(c), _) => c.try_claim(id),
                (None, ChunkFetch::Cached(c)) => !c.contains(id),
                _ => true,
            };
            if read {
                Slot::Planned(None)
            } else {
                Slot::Absent
            }
        })
        .collect();
    let mut batch = Batch { shared, ids: missing, slots };

    // 2. Read.
    let mut reads: Vec<(usize, Result<Vec<u8>>)> = Vec::new();
    for (k, slot) in batch.slots.iter().enumerate() {
        if matches!(slot, Slot::Planned(_)) {
            let bytes = reader.read_chunk_bytes(batch.ids[k]);
            let failed = bytes.is_err();
            reads.push((k, bytes));
            if failed {
                break;
            }
        }
    }

    // 3. Decode.
    let ids = &batch.ids;
    let decode = |(k, bytes): (usize, Result<Vec<u8>>)| {
        (k, bytes.and_then(|b| reader.decode_chunk(ids[k], &b)))
    };
    let decoded: Vec<(usize, Result<Chunk>)> =
        if reads.len() >= 2 && rayon::current_num_threads() > 1 {
            reads.into_par_iter().map(decode).collect()
        } else {
            reads.into_iter().map(decode).collect()
        };
    for (k, outcome) in decoded {
        batch.slots[k] = Slot::Planned(Some(outcome));
    }

    // 4. Walk.
    let mut out = Vec::with_capacity(chunk_ids.len());
    let mut k = 0;
    for (&id, slot) in chunk_ids.iter().zip(reused) {
        if let Some((chunk, file_size)) = slot {
            out.push((chunk, file_size, true));
            continue;
        }
        let file_size = source.chunk_file_size(id)?;
        let mut load = || match batch.take(k) {
            Some(outcome) => outcome,
            None => match shared {
                Some(c) => c.get_or_load_before_wait(reader, id, || batch.settle_from(k + 1)),
                None => reader.read_chunk(id).map(Arc::new),
            },
        };
        let chunk = match fetch {
            ChunkFetch::Uncached | ChunkFetch::Shared(_) => load(),
            ChunkFetch::Cached(c) => c.get_or_load_with(id, load),
            ChunkFetch::Session(v) => v.get_or_load_with(source, id, load),
        }?;
        out.push((chunk, file_size, false));
        k += 1;
    }
    Ok(out)
}

/// One dimension's missing chunks between plan and walk.
///
/// In the shared-cache modes every [`Slot::Planned`] entry is a claim in
/// the cache's in-flight set. Claims settle in walk order as the walk
/// reaches them; before the walk blocks on another thread's in-flight
/// read it settles all the rest, so a waiting loader never holds a claim
/// and two loaders can never wait on each other. Dropping the batch
/// releases whatever is still claimed, on error and unwind paths too.
struct Batch<'a> {
    shared: Option<&'a SharedChunkCache>,
    ids: Vec<ChunkId>,
    slots: Vec<Slot>,
}

enum Slot {
    /// Left to the walk: resident when planned, in flight elsewhere, or
    /// already handed over.
    Absent,
    /// Read by this batch; `None` until the read and decode finish, and
    /// for good if an earlier read failed.
    Planned(Option<Result<Chunk>>),
    /// Decoded (private modes) or published to the shared cache.
    Ready(Result<Arc<Chunk>>),
}

impl Batch<'_> {
    /// Turns slot `k` from planned to ready: publishes the outcome to the
    /// shared cache, or just wraps it in an `Arc` in the private modes. A
    /// claim that was never read is released.
    fn settle(&mut self, k: usize) {
        let id = self.ids[k];
        if let Slot::Planned(outcome) = std::mem::replace(&mut self.slots[k], Slot::Absent) {
            self.slots[k] = match (self.shared, outcome) {
                (Some(c), Some(outcome)) => Slot::Ready(c.publish(id, outcome)),
                (Some(c), None) => {
                    c.release(id);
                    Slot::Absent
                }
                (None, Some(outcome)) => Slot::Ready(outcome.map(Arc::new)),
                (None, None) => Slot::Absent,
            };
        }
    }

    /// Settles every slot from `from` on, in order.
    fn settle_from(&mut self, from: usize) {
        for k in from..self.slots.len() {
            self.settle(k);
        }
    }

    /// Settles slot `k` and hands its chunk to the walk; `None` means the
    /// walk fetches the chunk itself.
    fn take(&mut self, k: usize) -> Option<Result<Arc<Chunk>>> {
        self.settle(k);
        match std::mem::replace(&mut self.slots[k], Slot::Absent) {
            Slot::Ready(outcome) => Some(outcome),
            _ => None,
        }
    }
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.shared {
            for (&id, slot) in self.ids.iter().zip(&self.slots) {
                if matches!(slot, Slot::Planned(_)) {
                    c.release(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{DiskTracker, IoProfile};
    use crate::store::StoreConfig;
    use uei_types::{AttributeDef, Rng, Schema};

    fn build(
        tag: &str,
        n: usize,
        chunk_bytes: usize,
    ) -> (ColumnStore, Vec<DataPoint>, crate::testutil::TempDir) {
        let dir = crate::testutil::TempDir::new(&format!("merge-{tag}"));
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 100.0).unwrap(),
            AttributeDef::new("y", 0.0, 100.0).unwrap(),
            AttributeDef::new("z", 0.0, 100.0).unwrap(),
        ])
        .unwrap();
        let mut rng = Rng::new(9);
        let rows: Vec<DataPoint> = (0..n)
            .map(|i| {
                DataPoint::new(
                    i as u64,
                    vec![
                        rng.range_f64(0.0, 100.0),
                        rng.range_f64(0.0, 100.0),
                        rng.range_f64(0.0, 100.0),
                    ],
                )
            })
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema,
            &rows,
            StoreConfig { chunk_target_bytes: chunk_bytes },
            tracker,
        )
        .unwrap();
        (store, rows, dir)
    }

    fn brute_force(rows: &[DataPoint], region: &Region) -> Vec<u64> {
        rows.iter().filter(|p| region.contains(&p.values).unwrap()).map(|p| p.id.as_u64()).collect()
    }

    #[test]
    fn matches_brute_force_half_open() {
        let (store, rows, _dir) = build("halfopen", 800, 512);
        let region = Region::new(vec![20.0, 30.0, 0.0], vec![60.0, 70.0, 50.0]).unwrap();
        let (got, stats) = reconstruct_region(&store, &region, None).unwrap();
        let got_ids: Vec<u64> = got.iter().map(|p| p.id.as_u64()).collect();
        assert_eq!(got_ids, brute_force(&rows, &region));
        assert_eq!(stats.result_rows as usize, got.len());
        assert!(stats.chunks_loaded > 0);
        // Reconstructed values must equal the originals.
        for p in &got {
            assert_eq!(p, &rows[p.id.as_usize()]);
        }
    }

    #[test]
    fn matches_brute_force_closed() {
        let (store, rows, _dir) = build("closed", 500, 512);
        let region = Region::closed(vec![0.0, 0.0, 0.0], vec![100.0, 100.0, 100.0]).unwrap();
        let (got, _) = reconstruct_region(&store, &region, None).unwrap();
        assert_eq!(got.len(), rows.len(), "full-space region reconstructs every row");
    }

    #[test]
    fn empty_region_short_circuits() {
        let (store, _, _dir) = build("empty", 300, 512);
        // x-range outside the domain: dimension 0 seeds nothing.
        let region = Region::new(vec![200.0, 0.0, 0.0], vec![300.0, 100.0, 100.0]).unwrap();
        let before = store.tracker().snapshot();
        let (got, stats) = reconstruct_region(&store, &region, None).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.seed_candidates, 0);
        // Later dimensions were skipped, so almost nothing was read.
        assert_eq!(store.tracker().delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn narrow_region_touches_fewer_chunks_than_full() {
        let (store, _, _dir) = build("narrow", 2000, 256);
        let full = Region::new(vec![0.0; 3], vec![100.0; 3]).unwrap();
        let narrow = Region::new(vec![10.0, 10.0, 10.0], vec![15.0, 15.0, 15.0]).unwrap();
        let (_, full_stats) = reconstruct_region(&store, &full, None).unwrap();
        let (_, narrow_stats) = reconstruct_region(&store, &narrow, None).unwrap();
        assert!(
            narrow_stats.chunk_bytes < full_stats.chunk_bytes,
            "narrow {} vs full {}",
            narrow_stats.chunk_bytes,
            full_stats.chunk_bytes
        );
    }

    #[test]
    fn cache_reuse_avoids_rereads() {
        let (store, _, _dir) = build("cached", 800, 512);
        let region = Region::new(vec![20.0, 20.0, 20.0], vec![80.0, 80.0, 80.0]).unwrap();
        let mut cache = ChunkCache::new(64 << 20);
        let (first, _) = reconstruct_region(&store, &region, Some(&mut cache)).unwrap();
        let before = store.tracker().snapshot();
        let (second, _) = reconstruct_region(&store, &region, Some(&mut cache)).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            store.tracker().delta(&before).stats.bytes_read,
            0,
            "second reconstruction fully served from cache"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (store, _, _dir) = build("dims", 50, 512);
        let region = Region::new(vec![0.0], vec![1.0]).unwrap();
        assert!(reconstruct_region(&store, &region, None).is_err());
    }

    fn chunks_for(store: &ColumnStore, region: &Region) -> Vec<Vec<ChunkId>> {
        (0..store.schema().dims())
            .map(|d| {
                store
                    .manifest()
                    .chunks_overlapping(d, region.lo[d], region.hi[d])
                    .unwrap()
                    .iter()
                    .map(|m| m.id())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn delta_reuses_overlap_and_matches_full_reconstruction() {
        let (store, rows, _dir) = build("delta", 1500, 256);
        let a = Region::new(vec![10.0, 10.0, 10.0], vec![60.0, 60.0, 60.0]).unwrap();
        // Shifted region: heavy overlap with `a` along every dimension.
        let b = Region::new(vec![20.0, 20.0, 20.0], vec![70.0, 70.0, 70.0]).unwrap();

        let (rows_a, stats_a, set_a) = reconstruct_region_delta(
            &store,
            &a,
            &chunks_for(&store, &a),
            None,
            ChunkFetch::Uncached,
        )
        .unwrap();
        assert_eq!(stats_a.chunks_reused, 0, "nothing to reuse on the first load");
        assert_eq!(set_a.len() as u64, stats_a.chunks_loaded);
        let ids_a: Vec<u64> = rows_a.iter().map(|p| p.id.as_u64()).collect();
        assert_eq!(ids_a, brute_force(&rows, &a));

        let before = store.tracker().snapshot();
        let (rows_b, stats_b, set_b) = reconstruct_region_delta(
            &store,
            &b,
            &chunks_for(&store, &b),
            Some(&set_a),
            ChunkFetch::Uncached,
        )
        .unwrap();
        let delta_io = store.tracker().delta(&before).stats.bytes_read;

        // Identical rows to a from-scratch reconstruction.
        let (rows_full, _) = reconstruct_region(&store, &b, None).unwrap();
        assert_eq!(rows_b, rows_full);
        // Overlapping chunks were reused, and reuse really skipped I/O.
        assert!(stats_b.chunks_reused > 0, "overlapping regions share chunks");
        assert_eq!(delta_io, stats_b.chunk_bytes, "only the delta was read");
        assert!(stats_b.bytes_reused > 0);
        // The new set covers the whole region b (reused + fresh).
        assert_eq!(set_b.len() as u64, stats_b.chunks_loaded + stats_b.chunks_reused);
        for dim_ids in chunks_for(&store, &b) {
            for id in dim_ids {
                assert!(set_b.contains(id));
            }
        }
    }

    #[test]
    fn delta_same_region_reads_nothing() {
        let (store, _, _dir) = build("delta-same", 800, 256);
        let region = Region::new(vec![25.0, 25.0, 25.0], vec![75.0, 75.0, 75.0]).unwrap();
        let chunks = chunks_for(&store, &region);
        let (first, _, set) =
            reconstruct_region_delta(&store, &region, &chunks, None, ChunkFetch::Uncached).unwrap();
        let before = store.tracker().snapshot();
        let (second, stats, _) =
            reconstruct_region_delta(&store, &region, &chunks, Some(&set), ChunkFetch::Uncached)
                .unwrap();
        assert_eq!(first, second);
        assert_eq!(stats.chunks_loaded, 0);
        assert_eq!(stats.chunk_bytes, 0);
        assert_eq!(store.tracker().delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn delta_composes_with_shared_cache() {
        let (store, _, _dir) = build("delta-shared", 1000, 256);
        let cache = SharedChunkCache::new(64 << 20, 4);
        let a = Region::new(vec![0.0, 0.0, 0.0], vec![50.0, 50.0, 50.0]).unwrap();
        let b = Region::new(vec![10.0, 10.0, 10.0], vec![60.0, 60.0, 60.0]).unwrap();
        let (_, _, set_a) = reconstruct_region_delta(
            &store,
            &a,
            &chunks_for(&store, &a),
            None,
            ChunkFetch::Shared(&cache),
        )
        .unwrap();
        let hits_before = cache.stats().hits;
        let (rows_b, stats_b, _) = reconstruct_region_delta(
            &store,
            &b,
            &chunks_for(&store, &b),
            Some(&set_a),
            ChunkFetch::Shared(&cache),
        )
        .unwrap();
        // Reused chunks never touch the cache: hit count only moves for
        // the delta chunks (which may hit if b's extra chunks were loaded
        // for a — impossible here since set_a covers exactly a's chunks).
        assert_eq!(cache.stats().hits, hits_before);
        let (rows_full, _) = reconstruct_region(&store, &b, None).unwrap();
        assert_eq!(rows_b, rows_full);
        assert!(stats_b.chunks_reused > 0);
    }

    #[test]
    fn shared_fetch_matches_uncached() {
        let (store, rows, _dir) = build("sharedfetch", 900, 256);
        let region = Region::new(vec![15.0, 5.0, 30.0], vec![85.0, 95.0, 70.0]).unwrap();
        let cache = SharedChunkCache::new(64 << 20, 4);
        let (got, stats) = reconstruct_region_with_chunks(
            &store,
            &region,
            &chunks_for(&store, &region),
            ChunkFetch::Shared(&cache),
        )
        .unwrap();
        let got_ids: Vec<u64> = got.iter().map(|p| p.id.as_u64()).collect();
        assert_eq!(got_ids, brute_force(&rows, &region));
        assert!(stats.chunks_loaded > 0);
        // Second pass: all hits, zero modeled I/O.
        let before = store.tracker().snapshot();
        let (again, _) = reconstruct_region_with_chunks(
            &store,
            &region,
            &chunks_for(&store, &region),
            ChunkFetch::Shared(&cache),
        )
        .unwrap();
        assert_eq!(got, again);
        assert_eq!(store.tracker().delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn stats_entries_bounded_by_work() {
        let (store, _, _dir) = build("stats", 600, 256);
        let region = Region::new(vec![40.0, 40.0, 40.0], vec![60.0, 60.0, 60.0]).unwrap();
        let (_, stats) = reconstruct_region(&store, &region, None).unwrap();
        assert!(stats.id_updates >= stats.result_rows * 3, "each result row updated 3 times");
        assert!(stats.seed_candidates >= stats.result_rows);
    }

    /// A one-dimensional source holding a single, well-formed chunk.
    struct OneChunk {
        bytes: Vec<u8>,
        tracker: DiskTracker,
    }

    impl ChunkSource for OneChunk {
        fn dims(&self) -> usize {
            1
        }
        fn chunk_file_size(&self, _: ChunkId) -> Result<u64> {
            Ok(self.bytes.len() as u64)
        }
        fn read_chunk_bytes(&self, _: ChunkId) -> Result<Vec<u8>> {
            Ok(self.bytes.clone())
        }
        fn decode_chunk(&self, _: ChunkId, bytes: &[u8]) -> Result<Chunk> {
            Chunk::decode(bytes)
        }
        fn tracker(&self) -> &DiskTracker {
            &self.tracker
        }
    }

    #[test]
    fn row_id_beyond_dense_space_is_corrupt_not_an_allocation() {
        let id = ChunkId::new(0, 0);
        let lists = vec![crate::postings::PostingList::new(1.0, vec![3, 1 << 40]).unwrap()];
        let source = OneChunk {
            bytes: Chunk::new(id, lists).unwrap().encode().unwrap(),
            tracker: DiskTracker::new(IoProfile::instant()),
        };
        let region = Region::new(vec![0.0], vec![2.0]).unwrap();
        match reconstruct_region_with_chunks(&source, &region, &[vec![id]], ChunkFetch::Uncached) {
            Err(UeiError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
