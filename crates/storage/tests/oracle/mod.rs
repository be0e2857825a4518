//! Reference region reconstruction: the paper's hash-table merge (§3.1),
//! fetching chunk at a time through the caches' public per-chunk calls.
//!
//! This was the production merge before the mark-array intersection
//! replaced it. It is kept here, test-only, as the oracle the production
//! path must match in rows, in every `MergeStats` counter, and in the
//! cache and I/O accounting of each fetch mode.

use std::collections::HashMap;
use std::sync::Arc;

use uei_storage::cache::{ChunkCache, SessionChunkView, SharedChunkCache};
use uei_storage::chunk::{Chunk, ChunkId};
use uei_storage::merge::MergeStats;
use uei_storage::source::ChunkSource;
use uei_types::{DataPoint, Region, Result};

/// How the oracle fetches each chunk: the per-chunk `get_or_load` of
/// the matching cache, or a plain read.
pub enum OracleFetch<'a> {
    Uncached,
    Cached(&'a mut ChunkCache),
    Shared(&'a SharedChunkCache),
    Session(&'a mut SessionChunkView),
}

/// The oracle's record of a region's decoded chunks, for delta reuse.
pub type OracleSet = HashMap<ChunkId, (Arc<Chunk>, u64)>;

struct Candidate {
    values: Vec<f64>,
    seen: u64,
}

/// Reconstructs `region` with a hash table keyed by row id. Chunks in
/// `prev` are reused without a fetch; the returned set covers every chunk
/// the reconstruction touched.
pub fn reconstruct(
    source: &dyn ChunkSource,
    region: &Region,
    chunks_per_dim: &[Vec<ChunkId>],
    mut fetch: OracleFetch<'_>,
    prev: Option<&OracleSet>,
) -> Result<(Vec<DataPoint>, MergeStats, OracleSet)> {
    let dims = source.dims();
    let inclusive_hi = region.is_closed();
    let mut stats = MergeStats::default();
    let mut table: HashMap<u64, Candidate> = HashMap::new();
    let mut set = OracleSet::new();

    for (d, dim_chunks) in chunks_per_dim.iter().enumerate() {
        let (lo, hi) = (region.lo[d], region.hi[d]);
        let bit = 1u64 << d;
        for &id in dim_chunks {
            let (chunk, file_size) = match prev.and_then(|p| p.get(&id)) {
                Some((chunk, size)) => {
                    stats.chunks_reused += 1;
                    stats.bytes_reused += size;
                    (Arc::clone(chunk), *size)
                }
                None => {
                    let size = source.chunk_file_size(id)?;
                    let chunk = match &mut fetch {
                        OracleFetch::Uncached => Arc::new(source.read_chunk(id)?),
                        OracleFetch::Cached(c) => c.get_or_load(source, id)?,
                        OracleFetch::Shared(c) => c.get_or_load(source, id)?,
                        OracleFetch::Session(v) => v.get_or_load(source, id)?,
                    };
                    stats.chunks_loaded += 1;
                    stats.chunk_bytes += size;
                    (chunk, size)
                }
            };
            set.insert(id, (Arc::clone(&chunk), file_size));
            chunk.scan_range(lo, hi, inclusive_hi, |key, ids| {
                stats.entries_matched += 1;
                for &id in ids {
                    if d == 0 {
                        stats.id_updates += 1;
                        let mut values = vec![0.0; dims];
                        values[0] = key;
                        table.insert(id, Candidate { values, seen: bit });
                    } else if let Some(c) = table.get_mut(&id) {
                        stats.id_updates += 1;
                        c.values[d] = key;
                        c.seen |= bit;
                    }
                }
            });
        }
        if d == 0 {
            stats.seed_candidates = table.len() as u64;
            if table.is_empty() {
                break;
            }
        }
    }

    let full = if dims == 64 { u64::MAX } else { (1u64 << dims) - 1 };
    let mut rows: Vec<DataPoint> = table
        .into_iter()
        .filter(|(_, c)| c.seen == full)
        .map(|(id, c)| DataPoint::new(id, c.values))
        .collect();
    rows.sort_unstable_by_key(|p| p.id);
    stats.result_rows = rows.len() as u64;
    Ok((rows, stats, set))
}
