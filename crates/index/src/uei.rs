//! The Uncertainty Estimation Index facade.
//!
//! Ties the components together behind the per-iteration API the
//! exploration loop needs (Algorithm 2):
//!
//! - [`UeiIndex::build`] — lines 7–11: grid, symbolic index points, and the
//!   mapping `m` over an already-initialized column store;
//! - [`UeiIndex::sample_unlabeled`] — line 12: the uniform sample that
//!   seeds the unlabeled cache `U`;
//! - [`UeiIndex::update_uncertainty`] — line 17;
//! - [`UeiIndex::select_and_load`] — lines 18–19: pick `p*`, fetch `g*`
//!   (from the prefetcher when it got there first, otherwise
//!   synchronously), and queue the θ next-most-uncertain cells for
//!   background prefetch.
//!
//! The facade is thin composition: ranking lives on
//! [`crate::points::IndexPoints`] (sharded per DESIGN.md §14, merged by
//! [`crate::select`]), region fetching and the degradation ladder on
//! [`crate::load::RegionFetcher`].

use std::sync::Arc;

use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::Classifier;
use uei_obs::{FlightEventKind, Phase, SessionTelemetry};
use uei_storage::cache::SharedChunkCache;
use uei_storage::io::IoStats;
use uei_storage::merge::MergeStats;
use uei_storage::source::ChunkSource;
use uei_storage::store::ColumnStore;
use uei_types::{DataPoint, Result, Rng};

use crate::config::UeiConfig;
use crate::grid::{CellId, Grid};
use crate::load::RegionFetcher;
use crate::loader::{LoadStats, RegionLoader};
use crate::mapping::ChunkMapping;
use crate::points::{IndexPoints, RescoreStats};
use crate::prefetch::Prefetcher;

// Split out of this facade; re-exported so `uei::…` paths keep working.
pub use crate::load::{LoadSource, RegionLoad};
pub use crate::select::DegradeCounters;

/// The Uncertainty Estimation Index.
pub struct UeiIndex {
    store: Arc<ColumnStore>,
    grid: Arc<Grid>,
    mapping: Arc<ChunkMapping>,
    points: IndexPoints,
    fetcher: RegionFetcher,
    /// The cache shared between loader and prefetcher, when enabled —
    /// kept here so stats stay readable regardless of loader internals.
    shared_cache: Option<Arc<SharedChunkCache>>,
    config: UeiConfig,
    measure: UncertaintyMeasure,
    /// Cumulative rescoring work (model-scored vs cache-served points).
    rescore_stats: RescoreStats,
    /// Phase spans + flight recorder for this session; inert unless
    /// [`UeiConfig::telemetry`] enables it. Only ever *reads* the virtual
    /// clock, so modeled traces stay bit-identical either way.
    telemetry: SessionTelemetry,
    /// Rescoring passes so far — the iteration stamp on rescore-side
    /// flight events.
    rescore_passes: u64,
}

impl UeiIndex {
    /// Builds the index over an initialized column store (the in-memory
    /// half of the initialization phase; the on-disk half is
    /// [`ColumnStore::create`]).
    pub fn build(store: Arc<ColumnStore>, config: UeiConfig) -> Result<UeiIndex> {
        Self::build_with_measure(store, config, UncertaintyMeasure::LeastConfidence)
    }

    /// [`UeiIndex::build`] with an explicit uncertainty measure.
    pub fn build_with_measure(
        store: Arc<ColumnStore>,
        config: UeiConfig,
        measure: UncertaintyMeasure,
    ) -> Result<UeiIndex> {
        config.validate(store.schema().dims())?;
        let grid = Arc::new(Grid::new(store.schema(), config.cells_per_dim)?);
        let mapping = Arc::new(ChunkMapping::build(&grid, store.manifest())?);
        let points = IndexPoints::from_grid_with_shards(&grid, config.shards)?;
        let source: Arc<dyn ChunkSource> = Arc::clone(&store) as Arc<dyn ChunkSource>;
        let shared_cache = config.shared_cache.then(|| {
            Arc::new(SharedChunkCache::new(config.chunk_cache_bytes, config.cache_shards))
        });
        let mut loader = match &shared_cache {
            Some(cache) => RegionLoader::with_shared(
                Arc::clone(&source),
                Arc::clone(cache),
                config.delta_reconstruction,
            ),
            None => {
                let mut l = RegionLoader::new(Arc::clone(&source), config.chunk_cache_bytes);
                l.set_delta(config.delta_reconstruction);
                l
            }
        };
        loader.set_retry_policy(config.retry);
        let prefetcher = if config.prefetch {
            Some(Prefetcher::spawn_with_cache(
                store.dir(),
                store.tracker().profile(),
                Grid::clone(&grid),
                ChunkMapping::clone(&mapping),
                shared_cache.as_ref().map(Arc::clone),
            )?)
        } else {
            None
        };
        let telemetry = SessionTelemetry::standalone(
            config.telemetry,
            Some(store.tracker().as_virtual_clock()),
        );
        let mut fetcher = RegionFetcher::new(loader, prefetcher);
        fetcher.set_telemetry(telemetry.clone());
        Ok(UeiIndex {
            store,
            grid,
            mapping,
            points,
            fetcher,
            shared_cache,
            config,
            measure,
            rescore_stats: RescoreStats::default(),
            telemetry,
            rescore_passes: 0,
        })
    }

    /// Assembles an index from pre-built parts. Used by
    /// [`crate::engine::EngineCore::open_session`], which shares the grid,
    /// mapping, and chunk cache across sessions; the legacy
    /// [`UeiIndex::build`] path constructs everything itself.
    ///
    /// `shared_cache` here is the *stats-reporting* handle: engine sessions
    /// pass `None` so [`UeiIndex::cache_stats`] reads the session's own
    /// deterministic ghost ledger instead of the cross-session shared
    /// counters (which remain reachable via [`UeiIndex::shared_cache`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        store: Arc<ColumnStore>,
        grid: Arc<Grid>,
        mapping: Arc<ChunkMapping>,
        points: IndexPoints,
        loader: RegionLoader,
        prefetcher: Option<Prefetcher>,
        shared_cache: Option<Arc<SharedChunkCache>>,
        config: UeiConfig,
        measure: UncertaintyMeasure,
        telemetry: SessionTelemetry,
    ) -> UeiIndex {
        let mut fetcher = RegionFetcher::new(loader, prefetcher);
        fetcher.set_telemetry(telemetry.clone());
        UeiIndex {
            store,
            grid,
            mapping,
            points,
            fetcher,
            shared_cache,
            config,
            measure,
            rescore_stats: RescoreStats::default(),
            telemetry,
            rescore_passes: 0,
        }
    }

    /// The grid of subspaces.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The symbolic index points with their current scores.
    pub fn points(&self) -> &IndexPoints {
        &self.points
    }

    /// The chunk mapping `m`.
    pub fn mapping(&self) -> &ChunkMapping {
        &self.mapping
    }

    /// The underlying column store.
    pub fn store(&self) -> &Arc<ColumnStore> {
        &self.store
    }

    /// The active configuration.
    pub fn config(&self) -> &UeiConfig {
        &self.config
    }

    /// The background prefetcher, when enabled (the load-ladder tests
    /// reach it through here).
    #[cfg(test)]
    pub(crate) fn prefetcher(&self) -> Option<&Prefetcher> {
        self.fetcher.prefetcher()
    }

    /// Uniformly samples `gamma` rows for the unlabeled cache `U`
    /// (Algorithm 2 line 12).
    pub fn sample_unlabeled(&self, gamma: usize, rng: &mut Rng) -> Result<Vec<DataPoint>> {
        self.store.sample_rows(gamma, rng)
    }

    /// Re-scores every index point with the freshly trained model
    /// (Algorithm 2 line 17). Also invalidates prefetched regions older
    /// than the model — the ranking that justified them is gone; keeping
    /// them would serve regions chosen by a stale boundary.
    pub fn update_uncertainty(&mut self, model: &dyn Classifier) {
        let _span = self.telemetry.span(Phase::Rescore);
        self.rescore_passes += 1;
        let stats = if !self.config.parallel {
            self.points.update_sequential(model, self.measure);
            RescoreStats { points_rescored: self.points.len() as u64, points_cached: 0 }
        } else if self.config.incremental_rescore {
            // Full pass, but through the tracked path so the influence
            // radii are captured and the *next* incremental call can prune.
            self.points.update_tracked(model, self.measure)
        } else {
            self.points.update(model, self.measure);
            RescoreStats { points_rescored: self.points.len() as u64, points_cached: 0 }
        };
        self.rescore_stats.accumulate(stats);
        // Note: ready-but-untaken prefetches remain valid as *data* (cell
        // contents do not change), so they are kept; only their priority
        // was stale, and `select_and_load` re-ranks every iteration anyway.
    }

    /// [`UeiIndex::update_uncertainty`] with locality-pruned invalidation:
    /// `added` are the raw-space training examples labeled since the last
    /// rescoring pass, and only the index points inside their influence
    /// balls are rescored, by patching their cached neighbour lists
    /// ([`uei_learn::Classifier::rescore_range`]) — the rest are served
    /// from the score cache. Selection is bit-identical to
    /// a full rescore; see [`IndexPoints::update_incremental`].
    ///
    /// Falls back to the full paths of [`UeiIndex::update_uncertainty`]
    /// when incremental rescoring (or the batch path) is disabled.
    pub fn update_uncertainty_incremental(&mut self, model: &dyn Classifier, added: &[&[f64]]) {
        if !self.config.parallel || !self.config.incremental_rescore {
            self.update_uncertainty(model);
            return;
        }
        let _span = self.telemetry.span(Phase::Rescore);
        self.rescore_passes += 1;
        let pruned_before = self.points.shards_pruned();
        let stats = self.points.update_incremental(
            model,
            self.measure,
            added,
            self.config.rescore_margin,
            self.config.full_rescore_every,
        );
        self.rescore_stats.accumulate(stats);
        let pruned = self.points.shards_pruned() - pruned_before;
        if pruned > 0 {
            self.telemetry.event(FlightEventKind::ShardPrune, self.rescore_passes, || {
                format!("{pruned} shards pruned, {} points served from cache", stats.points_cached)
            });
        }
    }

    /// Cumulative rescoring work counters: how many index points were
    /// scored through the model versus served from the score cache, summed
    /// over all rescoring passes. Snapshot before an iteration and
    /// [`RescoreStats::since`] after it for per-iteration deltas.
    pub fn rescore_counters(&self) -> RescoreStats {
        self.rescore_stats
    }

    /// Cumulative count of shards recomputed by rescoring passes — the
    /// shard-parallel analogue of [`UeiIndex::rescore_counters`]. Snapshot
    /// and subtract for per-iteration deltas.
    pub fn shards_touched(&self) -> u64 {
        self.points.shards_touched()
    }

    /// This session's telemetry handle: phase spans, flight events, and
    /// (when engine-opened) the shared metrics registry. Disabled-mode
    /// handles are inert and free to clone.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Picks the most uncertain cell and loads its subspace (Algorithm 2
    /// lines 18–19), preferring a completed prefetch; afterwards queues
    /// the θ = ⌈τ/σ⌉ next-most-uncertain cells for background loading.
    /// Swap deferral and the storage-fault fallback ladder are documented
    /// on [`RegionFetcher::select_and_load`].
    pub fn select_and_load(&mut self) -> Result<RegionLoad> {
        self.fetcher.select_and_load(&self.grid, &self.mapping, &self.config, &mut self.points)
    }

    /// How many region swaps were deferred to hold the latency threshold.
    pub fn deferred_swaps(&self) -> u64 {
        self.fetcher.deferred_swaps()
    }

    /// Cumulative graceful-degradation counters (retries, fallbacks,
    /// σ-deadline misses, exhausted selections).
    pub fn degrade_counters(&self) -> DegradeCounters {
        self.fetcher.degrade_counters()
    }

    /// All-time average region load time in virtual seconds (diagnostic).
    pub fn average_load_secs(&self) -> f64 {
        self.fetcher.loader().average_load_secs()
    }

    /// Exponentially weighted recent region load time τ in virtual
    /// seconds — what the prefetch horizon and swap deferral consult.
    pub fn recent_load_secs(&self) -> f64 {
        self.fetcher.loader().recent_load_secs()
    }

    /// Chunk-cache statistics: of the shared cache when sharing is on
    /// (hits include the prefetcher's), of the private loader cache
    /// otherwise. Engine-opened sessions report their own deterministic
    /// ghost-ledger stats; the engine-wide aggregate lives on
    /// [`crate::engine::EngineCore::cache_stats`].
    pub fn cache_stats(&self) -> uei_storage::cache::CacheStats {
        match &self.shared_cache {
            Some(c) => c.stats(),
            None => self.fetcher.loader().cache_stats(),
        }
    }

    /// The cache shared between loader and prefetcher, when enabled. For
    /// engine-opened sessions this is the engine-wide shared cache reached
    /// through the session's ghost view.
    pub fn shared_cache(&self) -> Option<&Arc<SharedChunkCache>> {
        self.shared_cache.as_ref().or_else(|| self.fetcher.loader().shared_cache())
    }

    /// Background I/O accumulated by the prefetcher, if enabled.
    pub fn background_io(&self) -> Option<IoStats> {
        self.fetcher.prefetcher().map(|p| p.background_io())
    }

    /// Directly loads one cell (diagnostics / ablations).
    pub fn load_cell(&mut self, cell: CellId) -> Result<(Vec<DataPoint>, LoadStats)> {
        self.fetcher.loader_mut().load_cell(&self.grid, &self.mapping, cell)
    }

    /// Merge statistics of the last N loads are not retained; this exposes
    /// the per-cell chunk count for complexity reporting instead.
    pub fn chunks_for_cell(&self, cell: CellId) -> Result<usize> {
        self.mapping.chunk_count_for_cell(&self.grid, cell)
    }
}

/// Re-exported merge counters for downstream reporting.
pub type RegionMergeStats = MergeStats;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{boundary_model, build_store, small_config};
    use std::time::Duration;

    #[test]
    fn build_and_basic_accessors() {
        let (store, _, _dir) = build_store("accessors", 1000);
        let index = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        assert_eq!(index.grid().num_cells(), 16);
        assert_eq!(index.points().len(), 16);
        assert!(index.chunks_for_cell(0).unwrap() > 0);
        assert!(index.background_io().is_none(), "prefetch disabled by default");
    }

    #[test]
    fn select_and_load_returns_boundary_cell() {
        let (store, rows, _dir) = build_store("boundary", 2000);
        let mut index = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        // Boundary at x = 50: most uncertain cells are the two middle
        // columns; with 4 columns, centers at 12.5/37.5/62.5/87.5 the
        // nearest to 50 are columns 1 and 2.
        index.update_uncertainty(&boundary_model(50.0));
        let load = index.select_and_load().unwrap();
        let coords = index.grid().id_to_coords(load.cell).unwrap();
        assert!(coords[0] == 1 || coords[0] == 2, "x-column {} not near boundary", coords[0]);
        assert_eq!(load.source, LoadSource::Synchronous);
        // Loaded rows are exactly the population of the cell.
        let region = index.grid().cell_region(load.cell).unwrap();
        let expected: usize = rows.iter().filter(|p| region.contains(&p.values).unwrap()).count();
        assert_eq!(load.rows.len(), expected);
        assert!(load.stats.virtual_time > Duration::ZERO);
    }

    #[test]
    fn sharded_sessions_select_identically() {
        // The headline determinism claim at the facade level: the same
        // store and model produce the same selection at every shard count.
        let (store, _, _dir) = build_store("shardsel", 2000);
        let mut reference =
            UeiIndex::build(Arc::clone(&store), UeiConfig { shards: 1, ..small_config() }).unwrap();
        reference.update_uncertainty(&boundary_model(42.0));
        let want = reference.select_and_load().unwrap().cell;
        let ranked = reference.points().ranked_top(16).unwrap();
        for shards in [2, 4, 8] {
            let mut index =
                UeiIndex::build(Arc::clone(&store), UeiConfig { shards, ..small_config() })
                    .unwrap();
            index.update_uncertainty(&boundary_model(42.0));
            assert_eq!(index.select_and_load().unwrap().cell, want, "{shards} shards");
            assert_eq!(index.points().ranked_top(16).unwrap(), ranked, "{shards} shards");
        }
    }

    #[test]
    fn loading_a_region_costs_a_fraction_of_full_scan() {
        let (store, _, _dir) = build_store("fraction", 4000);
        let mut index = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        index.update_uncertainty(&boundary_model(50.0));
        let before = store.tracker().snapshot();
        index.select_and_load().unwrap();
        let region_bytes = store.tracker().delta(&before).stats.bytes_read;
        let full_bytes = store.manifest().total_chunk_bytes() + store.rows_file_bytes();
        assert!(
            region_bytes * 3 < full_bytes,
            "one region read {region_bytes} B, full dataset is {full_bytes} B"
        );
    }

    #[test]
    fn cannot_load_before_scoring() {
        let (store, _, _dir) = build_store("unscored", 300);
        let mut index = UeiIndex::build(store, small_config()).unwrap();
        assert!(index.select_and_load().is_err());
    }

    #[test]
    fn sample_unlabeled_draws_from_whole_space() {
        let (store, _, _dir) = build_store("sample", 2000);
        let index = UeiIndex::build(store, small_config()).unwrap();
        let mut rng = Rng::new(1);
        let sample = index.sample_unlabeled(200, &mut rng).unwrap();
        assert_eq!(sample.len(), 200);
        // Sample should span many cells, not cluster in one.
        let mut cells = std::collections::HashSet::new();
        for p in &sample {
            cells.insert(index.grid().cell_of(&p.values).unwrap());
        }
        assert!(cells.len() > 8, "uniform sample covers the grid ({} cells)", cells.len());
    }

    #[test]
    fn uncertainty_moves_with_model() {
        let (store, _, _dir) = build_store("moves", 1000);
        let mut index = UeiIndex::build(store, small_config()).unwrap();
        index.update_uncertainty(&boundary_model(10.0));
        let left = index.grid().id_to_coords(index.points().most_uncertain().unwrap()).unwrap();
        index.update_uncertainty(&boundary_model(90.0));
        let right = index.grid().id_to_coords(index.points().most_uncertain().unwrap()).unwrap();
        assert!(left[0] < right[0], "boundary shift moves the chosen column");
    }

    #[test]
    fn incremental_rescoring_prunes_and_matches_full() {
        use uei_learn::Dwknn;
        use uei_types::Label;
        let (store, _, _dir) = build_store("increscore", 1500);
        let mut inc = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        let full_cfg = UeiConfig { incremental_rescore: false, ..small_config() };
        let mut full = UeiIndex::build(Arc::clone(&store), full_cfg).unwrap();

        // Labeled examples spread across the whole 0..100 domain.
        let mut examples: Vec<(Vec<f64>, Label)> = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                let p = vec![i as f64 * 20.0 + 10.0, j as f64 * 20.0 + 10.0];
                examples.push((p, Label::from_bool((i + j) % 2 == 0)));
            }
        }
        let mut last_added: Option<Vec<f64>> = None;
        for step in 0..5 {
            let model = Dwknn::fit(3, &examples).unwrap();
            match &last_added {
                None => inc.update_uncertainty(&model),
                Some(p) => {
                    let added: Vec<&[f64]> = vec![p.as_slice()];
                    inc.update_uncertainty_incremental(&model, &added);
                }
            }
            full.update_uncertainty(&model);
            assert_eq!(
                inc.points().ranked_top(16).unwrap(),
                full.points().ranked_top(16).unwrap(),
                "step {step}: incremental selection must be bit-identical"
            );
            // One new label near the middle of the domain each step.
            let p = vec![48.0 + step as f64, 52.0 - step as f64];
            examples.push((p.clone(), Label::from_bool(step % 2 == 0)));
            last_added = Some(p);
        }
        let counters = inc.rescore_counters();
        assert!(counters.points_cached > 0, "locality pruning served some points: {counters:?}");
        assert_eq!(counters.points_rescored + counters.points_cached, 5 * 16);
        assert_eq!(full.rescore_counters().points_cached, 0, "full mode never caches");
    }

    #[test]
    fn shared_cache_off_restores_private_layout() {
        let (store, _, _dir) = build_store("nosharing", 800);
        let config =
            UeiConfig { shared_cache: false, delta_reconstruction: false, ..small_config() };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        assert!(index.shared_cache().is_none());
        index.update_uncertainty(&boundary_model(50.0));
        let load = index.select_and_load().unwrap();
        assert!(!load.rows.is_empty());
        assert!(index.cache_stats().misses > 0, "private loader cache used");
    }
}
