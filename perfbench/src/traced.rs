//! The traced exploration phase.
//!
//! `UeiBackend::select_next` hides its sub-calls, so the traced run drives
//! each step itself through the same public calls in the same order —
//! train, incremental rescore, select-and-load, pool swap, pool sampling,
//! oracle label — with a span around each. It must label exactly the rows
//! the untraced run labeled; `main` checks that.
//!
//! Region reconstruction cannot be split from inside a `UeiIndex`, so each
//! analyst's synchronous loads are replayed afterwards through a standalone
//! `RegionLoader` with the same cache and delta settings, over a
//! `ChunkSource` that times chunk reads and decodes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use uei_explore::{IterationTrace, Oracle};
use uei_index::{CellId, EngineCore, LoadSource, LoadStats, RegionLoader};
use uei_learn::metrics::set_f_measure;
use uei_learn::{
    Classifier, LabeledSet, MinMaxScaler, QueryStrategy, ScaledClassifier, UncertaintySampling,
    UnlabeledPool,
};
use uei_obs::ObsCounters;
use uei_storage::{Chunk, ChunkId, ChunkSource, ColumnStore, DiskTracker, SharedChunkCache};
use uei_types::{DataPoint, Label, Result, Rng, UeiError};

use crate::trace::{Span, SpanLog};
use crate::workload::{Workload, GAMMA};

/// Rows per scoring block in result retrieval, as the UEI backend uses.
const RETRIEVE_BLOCK_ROWS: usize = 4096;

/// One region the traced run loaded.
#[derive(Debug, Clone)]
pub struct LoadRecord {
    pub step: u64,
    pub cell: CellId,
    pub source: LoadSource,
    pub digest: RowsDigest,
    pub stats: LoadStats,
}

/// Order-independent fingerprint of a row set: count plus a hash over
/// `(id, value bits)` of the rows sorted by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsDigest {
    pub rows: usize,
    pub hash: u64,
}

impl RowsDigest {
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a DataPoint>) -> RowsDigest {
        let mut rows: Vec<&DataPoint> = rows.into_iter().collect();
        rows.sort_unstable_by_key(|p| p.id);
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |x: u64| {
            hash = (hash ^ x).wrapping_mul(0x0000_0100_0000_01B3);
            hash ^= hash >> 29;
        };
        for p in &rows {
            mix(p.id.as_u64());
            for v in &p.values {
                mix(v.to_bits());
            }
        }
        RowsDigest { rows: rows.len(), hash }
    }
}

/// Modeled and exact counters summed over a traced session's steps.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub steps: u64,
    pub bytes_read: u64,
    pub seeks: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_evictions: u64,
    pub points_rescored: u64,
    pub shards_pruned: u64,
    pub pool_size: u64,
    pub retrievals: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.steps += o.steps;
        self.bytes_read += o.bytes_read;
        self.seeks += o.seeks;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.cache_evictions += o.cache_evictions;
        self.points_rescored += o.points_rescored;
        self.shards_pruned += o.shards_pruned;
        self.pool_size += o.pool_size;
        self.retrievals += o.retrievals;
    }
}

/// Everything one analyst's traced session yields.
pub struct TracedRun {
    pub analyst: usize,
    pub spans: Vec<Span>,
    pub labeled_ids: Vec<u64>,
    pub final_f1: f64,
    pub loads: Vec<LoadRecord>,
    pub counters: Counters,
    /// Bootstrap through the last step (seconds).
    pub explore_s: f64,
    pub aborted: Option<String>,
}

/// Runs analyst `analyst`'s session on a fresh index of `engine`, traced;
/// span times count from `epoch`.
pub fn run_session(
    w: &Workload,
    seed: u64,
    analyst: usize,
    engine: &EngineCore,
    oracle: &Oracle,
    epoch: Instant,
) -> TracedRun {
    let mut run = TracedRun {
        analyst,
        spans: Vec::new(),
        labeled_ids: Vec::new(),
        final_f1: f64::NAN,
        loads: Vec::new(),
        counters: Counters::default(),
        explore_s: 0.0,
        aborted: None,
    };
    let mut log = SpanLog::new(epoch, analyst);
    if let Err(e) = drive(w, seed, analyst, engine, oracle, &mut log, &mut run) {
        run.aborted = Some(e.to_string());
        // Close whatever the failed call left open, so the log stays usable.
        while let Some(idx) = log.innermost() {
            log.close(idx);
        }
    }
    run.spans = log.into_spans();
    run
}

fn drive(
    w: &Workload,
    seed: u64,
    analyst: usize,
    engine: &EngineCore,
    oracle: &Oracle,
    log: &mut SpanLog,
    run: &mut TracedRun,
) -> Result<()> {
    let config = w.session_config(seed, analyst);
    let mut sample_rng = Rng::new(w.analyst_seeds(seed, analyst).sample);

    // What `UeiBackend::from_engine` does.
    let mut index = engine.open_session()?;
    let sample = index.sample_unlabeled(GAMMA, &mut sample_rng)?;
    let mut pool = UnlabeledPool::with_region_capacity(sample, index.config().regions_in_memory);
    let mut strategy = UncertaintySampling::new(engine.measure());
    let store = Arc::clone(index.store());
    let tracker = store.tracker().clone();
    let scaler = MinMaxScaler::from_schema(store.schema());

    // What `ExplorationSession::start` does (no evaluation sample).
    let explore = Instant::now();
    let mut labeled = LabeledSet::new();
    let start = log.open("explore.start");
    let mut rng = Rng::new(config.seed);
    bootstrap(&store, oracle, config.bootstrap_size, &mut rng, &mut labeled, &mut pool)?;
    log.close(start);

    // What `ExplorationSession::step` and `UeiBackend::select_next` do.
    let mut rescored_train_len = 0usize;
    let mut traces: Vec<IterationTrace> = Vec::new();
    let mut iteration = 0u64;
    let mut c = Counters::default();
    let mut loads = Vec::new();
    while labeled.len() < config.max_labels {
        iteration += 1;
        log.set_step(iteration);
        let step = log.open("explore.step");
        let wall = Instant::now();
        let io_before = tracker.snapshot();
        let labels_at_train = labeled.len();
        let model = log.time("learn.refit", || {
            ScaledClassifier::train(config.estimator, scaler.clone(), &labeled.training_data())
        })?;

        let entries = labeled.entries();
        let to = model.training_len().unwrap_or(entries.len()).min(entries.len());
        let from = rescored_train_len.min(to);
        let added: Vec<&[f64]> =
            entries[from..to].iter().map(|(p, _)| p.values.as_slice()).collect();
        let rescore_before = index.rescore_counters();
        let pruned_before = index.points().shards_pruned();
        log.time("index.rescore", || index.update_uncertainty_incremental(&model, &added));
        rescored_train_len = to;
        c.points_rescored += index.rescore_counters().since(&rescore_before).points_rescored;
        c.shards_pruned += index.points().shards_pruned() - pruned_before;

        let cache_before = index.cache_stats();
        let select = log.open("index.select");
        let load = index.select_and_load();
        log.close(select);
        let load = load?;
        let load_ns = load.stats.wall_time.as_nanos() as u64;
        if load_ns > 0 {
            // The load runs inside `select_and_load`; its measured wall time
            // becomes a child span ending with the call.
            let end = log.end_ns(select);
            log.record("storage.region_load", end - load_ns.min(log.dur_ns(select)), end, select);
        }
        if load.source == LoadSource::Retained {
            return Err(UeiError::invalid_state("swap deferral is off; no load may be retained"));
        }
        let cache = index.cache_stats().since(&cache_before);
        c.cache_hits += cache.hits;
        c.cache_lookups += cache.lookups();
        c.cache_evictions += cache.evictions;
        let prefetched = load.source == LoadSource::Prefetched;
        let region_rows = load.rows.len();
        log.time("bench.digest", || {
            loads.push(LoadRecord {
                step: iteration,
                cell: load.cell,
                source: load.source,
                digest: RowsDigest::of(&load.rows),
                stats: load.stats,
            })
        });

        log.time("explore.pool_swap", || {
            let fresh: Vec<DataPoint> =
                load.rows.into_iter().filter(|p| !labeled.contains(p.id)).collect();
            pool.swap_region(fresh);
        });
        let candidates = pool.candidates();
        c.pool_size += candidates.len() as u64;
        let picked = log.time("learn.pool_select", || strategy.select(&model, &candidates));
        let Some(idx) = picked else {
            return Err(UeiError::invalid_state("candidate pool exhausted"));
        };
        let point = candidates[idx].clone();
        pool.remove(point.id);
        let delta = tracker.delta(&io_before);
        let response_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        c.bytes_read += delta.stats.bytes_read;
        c.seeks += delta.stats.seeks;

        let label = log.time("explore.oracle", || oracle.label(&point))?;
        labeled.add(point.clone(), label)?;
        pool.remove(point.id);
        // The trace `ExplorationSession::step` keeps for every step.
        traces.push(IterationTrace {
            iteration: iteration as usize,
            labels: labels_at_train,
            f_measure: None,
            response_virtual_ms: delta.virtual_elapsed.as_secs_f64() * 1e3,
            response_wall_ms,
            bytes_read: delta.stats.bytes_read,
            seeks: delta.stats.seeks,
            label_positive: label.is_positive(),
            region_rows: Some(region_rows),
            prefetched,
            counters: ObsCounters {
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                cache_evictions: cache.evictions,
                cache_bypasses: cache.bypasses,
                ..ObsCounters::default()
            },
            recovered: false,
            examined: None,
            wall_ms_replayed: false,
            phase_ms: Vec::new(),
        });
        c.steps += 1;
        log.close(step);
    }
    run.explore_s = explore.elapsed().as_secs_f64();
    c.retrievals = 1;
    run.counters = c;
    run.loads = loads;
    run.labeled_ids = labeled.entries().iter().map(|(p, _)| p.id.as_u64()).collect();

    // What `ExplorationSession::finish` does: retrain, retrieve.
    log.set_step(iteration + 1);
    let finish = log.open("explore.finish");
    let model = log.time("learn.final_refit", || {
        ScaledClassifier::train(config.estimator, scaler.clone(), &labeled.training_data())
    })?;
    let scan = log.open("storage.scan");
    let mut predicted = Vec::new();
    let mut block: Vec<DataPoint> = Vec::with_capacity(RETRIEVE_BLOCK_ROWS);
    let mut score = |block: &mut Vec<DataPoint>, log: &mut SpanLog| {
        log.time("learn.retrieve_score", || {
            let refs: Vec<&[f64]> = block.iter().map(|p| p.values.as_slice()).collect();
            let probs = model.predict_proba_batch(&refs);
            for (p, prob) in block.iter().zip(probs) {
                if prob >= 0.5 {
                    predicted.push(p.id.as_u64());
                }
            }
        });
        block.clear();
    };
    store.scan_all(|p| {
        block.push(p);
        if block.len() >= RETRIEVE_BLOCK_ROWS {
            score(&mut block, log);
        }
    })?;
    score(&mut block, log);
    log.close(scan);
    log.close(finish);
    predicted.sort_unstable();
    predicted.dedup();
    run.final_f1 = set_f_measure(&predicted, oracle.relevant_ids());
    Ok(())
}

/// `ExplorationSession`'s bootstrap: one positive and one negative example
/// from a uniform sample, or the oracle's first relevant row when the
/// sample holds no positive.
fn bootstrap(
    store: &ColumnStore,
    oracle: &Oracle,
    size: usize,
    rng: &mut Rng,
    labeled: &mut LabeledSet,
    pool: &mut UnlabeledPool,
) -> Result<()> {
    let sample = store.sample_rows(size, rng)?;
    let mut order: Vec<usize> = (0..sample.len()).collect();
    rng.shuffle(&mut order);
    for idx in order {
        if labeled.has_both_classes() {
            break;
        }
        let point = &sample[idx];
        if labeled.contains(point.id) {
            continue;
        }
        let need_pos = labeled.num_positive() == 0;
        let need_neg = labeled.len() - labeled.num_positive() == 0;
        let label = oracle.label(point)?;
        if (label.is_positive() && need_pos) || (!label.is_positive() && need_neg) {
            labeled.add(point.clone(), label)?;
            pool.remove(point.id);
        }
    }
    if labeled.num_positive() == 0 {
        let seed_id = *oracle
            .relevant_ids()
            .first()
            .ok_or_else(|| UeiError::invalid_state("target region is empty"))?;
        let row = store.fetch_rows(&[seed_id])?.pop().expect("fetch of one id yields one row");
        pool.remove(row.id);
        labeled.add(row, Label::Positive)?;
    }
    if !labeled.has_both_classes() {
        return Err(UeiError::invalid_state("bootstrap could not find a negative example"));
    }
    Ok(())
}

/// A chunk source that records the wall interval of every chunk read and
/// decode.
struct TimedSource {
    inner: ColumnStore,
    busy: Mutex<Vec<(Instant, Instant)>>,
}

impl TimedSource {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy.lock().expect("no panics while timing").push((start, Instant::now()));
        out
    }

    /// Wall time covered by the recorded intervals, which may overlap when
    /// decodes fan out; clears the record.
    fn take_busy_ns(&self) -> u64 {
        let mut spans = std::mem::take(&mut *self.busy.lock().expect("no panics while timing"));
        spans.sort_unstable();
        let mut covered = 0u64;
        let mut reach: Option<Instant> = None;
        for (a, b) in spans {
            let a = reach.map_or(a, |r| a.max(r));
            if b > a {
                covered += (b - a).as_nanos() as u64;
                reach = Some(b);
            }
        }
        covered
    }
}

impl ChunkSource for TimedSource {
    fn dims(&self) -> usize {
        self.inner.schema().dims()
    }

    fn chunk_file_size(&self, id: ChunkId) -> Result<u64> {
        Ok(self.inner.manifest().chunk_meta(id)?.file_size)
    }

    fn read_chunk_bytes(&self, id: ChunkId) -> Result<Vec<u8>> {
        self.timed(|| self.inner.read_chunk_bytes(id))
    }

    fn decode_chunk(&self, id: ChunkId, bytes: &[u8]) -> Result<Chunk> {
        self.timed(|| self.inner.decode_chunk(id, bytes))
    }

    fn tracker(&self) -> &DiskTracker {
        self.inner.tracker()
    }
}

/// Region-load time of a replay, split into chunk read+decode and merge,
/// plus the time `load_cell` spends after its `LoadStats::wall_time` has
/// stopped (releasing the previous region's decoded chunks).
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplaySplit {
    pub fetch_ns: u64,
    pub merge_ns: u64,
    pub release_ns: u64,
}

/// Replays the synchronous loads of `loads`, in order, through a standalone
/// loader configured like the engine's, checking each region against the
/// traced one.
pub fn replay(engine: &EngineCore, loads: &[LoadRecord]) -> Result<ReplaySplit> {
    let config = engine.config();
    let store = engine.store();
    let timed = Arc::new(TimedSource {
        inner: store.with_tracker(DiskTracker::new(store.tracker().profile())),
        busy: Mutex::new(Vec::new()),
    });
    let source: Arc<dyn ChunkSource> = Arc::clone(&timed) as Arc<dyn ChunkSource>;
    let cache = Arc::new(SharedChunkCache::new(config.chunk_cache_bytes, config.cache_shards));
    let mut loader = RegionLoader::with_shared(source, cache, config.delta_reconstruction);
    let mut split = ReplaySplit::default();
    for load in loads.iter().filter(|l| l.source == LoadSource::Synchronous) {
        let started = Instant::now();
        let (rows, stats) = loader.load_cell(engine.grid(), engine.mapping(), load.cell)?;
        let outer_ns = started.elapsed().as_nanos() as u64;
        if RowsDigest::of(&rows) != load.digest {
            return Err(UeiError::invalid_state(format!(
                "replayed region of cell {} differs from the traced load at step {}",
                load.cell, load.step
            )));
        }
        let fetch = timed.take_busy_ns();
        split.fetch_ns += fetch;
        let wall_ns = stats.wall_time.as_nanos() as u64;
        split.merge_ns += wall_ns.saturating_sub(fetch);
        split.release_ns += outer_ns.saturating_sub(wall_ns);
    }
    Ok(split)
}

/// Checks every traced load against the brute-force set of generated rows
/// inside its cell, in ids and values. Returns the number of loads checked.
pub fn check_regions(engine: &EngineCore, rows: &[DataPoint], runs: &[TracedRun]) -> Result<usize> {
    let mut cells: Vec<CellId> = runs.iter().flat_map(|r| r.loads.iter().map(|l| l.cell)).collect();
    cells.sort_unstable();
    cells.dedup();
    let regions =
        cells.iter().map(|&c| engine.grid().cell_region(c)).collect::<Result<Vec<_>>>()?;
    let mut members: Vec<Vec<&DataPoint>> = vec![Vec::new(); cells.len()];
    for row in rows {
        for (region, m) in regions.iter().zip(&mut members) {
            if region.contains(&row.values)? {
                m.push(row);
            }
        }
    }
    let expected: Vec<RowsDigest> = members.into_iter().map(RowsDigest::of).collect();
    let mut checked = 0;
    for run in runs {
        for load in &run.loads {
            let at = cells.binary_search(&load.cell).expect("collected above");
            if load.digest != expected[at] {
                return Err(UeiError::invalid_state(format!(
                    "analyst {} step {}: region of cell {} has {} rows, brute force finds {} \
                     (or the ids/values differ)",
                    run.analyst, load.step, load.cell, load.digest.rows, expected[at].rows
                )));
            }
            checked += 1;
        }
    }
    Ok(checked)
}
