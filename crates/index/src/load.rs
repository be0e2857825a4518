//! Region loading for one exploration session: the prefetch-preferring
//! fetch path, the σ-driven swap deferral, and the storage-fault fallback
//! ladder (Algorithm 2 lines 18–19 plus §3.2's graceful degradation).
//!
//! [`RegionFetcher`] owns the mutable I/O half of a session — the
//! [`RegionLoader`], the optional background [`Prefetcher`], and the
//! degradation counters — while ranking stays on
//! [`crate::points::IndexPoints`]. The [`crate::uei::UeiIndex`] facade
//! composes the two.

use std::time::Duration;

use uei_obs::{FlightEventKind, Phase, SessionTelemetry};
use uei_storage::merge::MergeStats;
use uei_types::{DataPoint, Result};

use crate::config::UeiConfig;
use crate::grid::{CellId, Grid};
use crate::loader::{LoadStats, RegionLoader};
use crate::mapping::ChunkMapping;
use crate::points::IndexPoints;
use crate::prefetch::{horizon, Prefetcher};
use crate::select::DegradeCounters;

/// How the region of one iteration was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// Read synchronously from disk during the iteration.
    Synchronous,
    /// Served from a completed background prefetch (no foreground I/O).
    Prefetched,
    /// A deferred swap: the previously served region is still current, so
    /// nothing was read — the caller keeps using the rows it already holds
    /// (`rows` is empty in the [`RegionLoad`]).
    Retained,
}

/// The result of one `select_and_load` iteration step.
#[derive(Debug)]
pub struct RegionLoad {
    /// The chosen most-uncertain cell `p*`.
    pub cell: CellId,
    /// Every tuple of the subspace `g*`.
    pub rows: Vec<DataPoint>,
    /// Load measurements (virtual time is zero for prefetched regions).
    pub stats: LoadStats,
    /// Where the region came from.
    pub source: LoadSource,
    /// How many better-ranked candidates failed with a storage fault
    /// before this cell loaded (0 = the true `p*` was served).
    pub fallback_rank: u64,
}

/// The region-fetch half of a session: loader + prefetcher + the
/// degradation ladder's counters.
pub struct RegionFetcher {
    loader: RegionLoader,
    prefetcher: Option<Prefetcher>,
    /// The most recently served cell (for σ-driven swap deferral).
    last_cell: Option<CellId>,
    /// Swaps deferred so far (diagnostics).
    deferred_swaps: u64,
    /// Candidate ranks skipped past failed cells (degradation ladder).
    fallback_cells: u64,
    /// Iterations whose synchronous load blew the σ threshold.
    sigma_deadline_misses: u64,
    /// Iterations where every ranked candidate failed.
    failed_selections: u64,
    /// Phase spans + flight events for the select/load path (inert when
    /// telemetry is disabled).
    telemetry: SessionTelemetry,
}

impl RegionFetcher {
    /// Wraps a loader and an optional prefetcher with fresh counters.
    pub fn new(loader: RegionLoader, prefetcher: Option<Prefetcher>) -> RegionFetcher {
        RegionFetcher {
            loader,
            prefetcher,
            last_cell: None,
            deferred_swaps: 0,
            fallback_cells: 0,
            sigma_deadline_misses: 0,
            failed_selections: 0,
            telemetry: SessionTelemetry::disabled(),
        }
    }

    /// Installs the session's telemetry handle here and on the loader.
    pub fn set_telemetry(&mut self, telemetry: SessionTelemetry) {
        self.loader.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Picks the most uncertain cell from `points` and loads its subspace,
    /// preferring a completed prefetch; afterwards queues the θ = ⌈τ/σ⌉
    /// next-most-uncertain cells for background loading.
    ///
    /// With [`UeiConfig::defer_swaps`] on, a swap to a *new* cell is
    /// deferred for this iteration when loading it would be expected to
    /// exceed σ and no prefetched copy is ready — the current region is
    /// served again instead (§3.2 "Tuning Interactive Exploration").
    ///
    /// Storage faults degrade gracefully instead of aborting the iteration:
    /// when loading the top-ranked cell fails with a retryable-or-corrupt
    /// storage error (transient errors are already retried inside the
    /// loader per [`UeiConfig::retry`]), the next-ranked index point is
    /// tried, up to [`UeiConfig::fallback_candidates`] in total. Only when
    /// every candidate fails does the call return the last storage error —
    /// the caller's final rung is to uncertainty-sample from the resident
    /// cache `U` instead of a fresh region.
    pub fn select_and_load(
        &mut self,
        grid: &Grid,
        mapping: &ChunkMapping,
        config: &UeiConfig,
        points: &mut IndexPoints,
    ) -> Result<RegionLoad> {
        let want = config.fallback_candidates.min(points.len());
        let candidates = {
            let _span = self.telemetry.span(Phase::ShardSelect);
            points.ranked_top_cached(want)?
        };
        let cell = candidates[0];
        if config.defer_swaps {
            if let Some(last) = self.last_cell {
                let would_swap = cell != last;
                if would_swap && !self.prefetched_ready(cell) {
                    let tau = self.loader.recent_load_secs();
                    if tau > config.latency_threshold_secs {
                        // Defer: the last-served region stays current; the
                        // caller already holds its rows, so no I/O at all.
                        self.deferred_swaps += 1;
                        self.telemetry.event(
                            FlightEventKind::DeferredSwap,
                            self.loader.loads(),
                            || format!("swap to cell {cell} deferred (τ = {tau:.3}s); cell {last} retained"),
                        );
                        self.queue_prefetches(config, points, last)?;
                        return Ok(RegionLoad {
                            cell: last,
                            rows: Vec::new(),
                            stats: LoadStats {
                                merge: MergeStats::default(),
                                virtual_time: Duration::ZERO,
                                wall_time: Duration::ZERO,
                                rows: 0,
                                retries: 0,
                            },
                            source: LoadSource::Retained,
                            fallback_rank: 0,
                        });
                    }
                }
            }
        }
        let mut last_err: Option<uei_types::UeiError> = None;
        for (rank, &candidate) in candidates.iter().enumerate() {
            let mut load = match self.fetch_cell(grid, mapping, candidate) {
                Ok(load) => load,
                // Storage faults fall through to the next-ranked index
                // point; anything else (config/state bugs) aborts as usual.
                Err(e) if e.is_storage_fault() => {
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            load.fallback_rank = rank as u64;
            self.fallback_cells += rank as u64;
            if rank > 0 {
                self.telemetry.event(FlightEventKind::Fallback, self.loader.loads(), || {
                    format!("cell {candidate} served at fallback rank {rank}")
                });
            }
            if load.stats.virtual_time.as_secs_f64() > config.latency_threshold_secs {
                self.sigma_deadline_misses += 1;
                self.telemetry.event(
                    FlightEventKind::SigmaDeadlineMiss,
                    self.loader.loads(),
                    || {
                        format!(
                            "cell {candidate} load took {:.3}s > σ = {:.3}s",
                            load.stats.virtual_time.as_secs_f64(),
                            config.latency_threshold_secs
                        )
                    },
                );
            }
            self.last_cell = Some(candidate);
            self.queue_prefetches(config, points, candidate)?;
            return Ok(load);
        }
        self.failed_selections += 1;
        self.telemetry.event(FlightEventKind::Fallback, self.loader.loads(), || {
            format!("selection exhausted: all {} ranked candidates failed", candidates.len())
        });
        Err(last_err.unwrap_or_else(|| {
            uei_types::UeiError::invalid_state("no candidate cells to select from")
        }))
    }

    /// Loads one cell, preferring a ready prefetched copy.
    pub fn fetch_cell(
        &mut self,
        grid: &Grid,
        mapping: &ChunkMapping,
        cell: CellId,
    ) -> Result<RegionLoad> {
        if let Some(pre) = &self.prefetcher {
            if let Some((rows, merge)) = pre.take(cell) {
                let stats = LoadStats {
                    merge,
                    virtual_time: Duration::ZERO,
                    wall_time: Duration::ZERO,
                    rows: rows.len(),
                    retries: 0,
                };
                return Ok(RegionLoad {
                    cell,
                    rows,
                    stats,
                    source: LoadSource::Prefetched,
                    fallback_rank: 0,
                });
            }
        }
        let (rows, stats) = self.loader.load_cell(grid, mapping, cell)?;
        Ok(RegionLoad { cell, rows, stats, source: LoadSource::Synchronous, fallback_rank: 0 })
    }

    fn prefetched_ready(&self, cell: CellId) -> bool {
        // `take` is destructive; peek via is_pending + failure bookkeeping
        // is not enough, so ask cheaply: a ready result is one that is
        // neither pending nor failed after having been requested. The
        // prefetcher exposes take() only, so probe pending state — a cell
        // that is still pending is certainly not ready.
        match &self.prefetcher {
            None => false,
            Some(p) => !p.is_pending(cell) && p.has_ready(cell),
        }
    }

    fn queue_prefetches(
        &mut self,
        config: &UeiConfig,
        points: &mut IndexPoints,
        just_loaded: CellId,
    ) -> Result<()> {
        let Some(pre) = &self.prefetcher else {
            return Ok(());
        };
        let tau = self.loader.recent_load_secs();
        let theta = horizon(tau, config.latency_threshold_secs);
        // The likely next regions are the runners-up of the current
        // ranking (the boundary moves slowly between iterations).
        let top = {
            let _span = self.telemetry.span(Phase::ShardSelect);
            points.ranked_top_cached((theta + 1).min(points.len()))?
        };
        let wanted: Vec<CellId> = top.into_iter().filter(|&cell| cell != just_loaded).collect();
        pre.request_round(&wanted);
        Ok(())
    }

    /// How many region swaps were deferred to hold the latency threshold.
    pub fn deferred_swaps(&self) -> u64 {
        self.deferred_swaps
    }

    /// Cumulative graceful-degradation counters (retries, fallbacks,
    /// σ-deadline misses, exhausted selections).
    pub fn degrade_counters(&self) -> DegradeCounters {
        DegradeCounters {
            retries: self.loader.total_retries(),
            fallback_cells: self.fallback_cells,
            sigma_deadline_misses: self.sigma_deadline_misses,
            failed_selections: self.failed_selections,
        }
    }

    /// The underlying region loader.
    pub fn loader(&self) -> &RegionLoader {
        &self.loader
    }

    /// Mutable access to the region loader (direct cell loads).
    pub fn loader_mut(&mut self) -> &mut RegionLoader {
        &mut self.loader
    }

    /// The background prefetcher, when enabled.
    pub fn prefetcher(&self) -> Option<&Prefetcher> {
        self.prefetcher.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{boundary_model, build_store, small_config};
    use crate::uei::UeiIndex;
    use std::sync::Arc;
    use uei_storage::fault::{FaultConfig, FaultInjector, RetryPolicy};

    impl UeiIndex {
        /// Test helper: whether a prefetched region is ready for `cell`.
        fn load_prefetched_for_test(&self, cell: CellId) -> Option<bool> {
            self.prefetcher().map(|p| p.take(cell).is_some())
        }
    }

    #[test]
    fn prefetch_serves_second_iteration() {
        let (store, _, _dir) = build_store("prefetch", 2000);
        let config = UeiConfig { prefetch: true, ..small_config() };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        index.update_uncertainty(&boundary_model(50.0));
        let first = index.select_and_load().unwrap();
        assert_eq!(first.source, LoadSource::Synchronous);

        // Give the background worker time to finish the runner-up.
        std::thread::sleep(Duration::from_millis(300));

        // Same model → same ranking; the previous top cell is cheap to
        // reload (cache) but the point of this test is the runner-up: force
        // selection of it by re-scoring and loading twice.
        index.update_uncertainty(&boundary_model(50.0));
        let second = index.select_and_load().unwrap();
        let third_cell_candidates = index.points().ranked_top(3).unwrap();
        // At least one of the next loads should be served by prefetch.
        let mut served = second.source == LoadSource::Prefetched;
        for cell in third_cell_candidates {
            if served {
                break;
            }
            if let Some(pre_rows) = index.load_prefetched_for_test(cell) {
                served = pre_rows;
            }
        }
        assert!(
            served || index.background_io().unwrap().bytes_read > 0,
            "prefetcher did background work"
        );
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        let (store, _, _dir) = build_store("retrysess", 2000);
        let config = UeiConfig {
            chunk_cache_bytes: 0, // every load pays real reads → injector fires
            ..small_config()
        };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        let injector = FaultInjector::new(FaultConfig {
            seed: 11,
            transient_prob: 0.05,
            ..FaultConfig::off()
        })
        .unwrap();
        store.tracker().set_fault_injector(Some(injector));
        for split in [20.0, 35.0, 50.0, 65.0, 80.0] {
            index.update_uncertainty(&boundary_model(split));
            index.select_and_load().expect("retries absorb transient faults");
        }
        let counters = index.degrade_counters();
        assert!(counters.retries > 0, "some reads must have been retried: {counters:?}");
        assert_eq!(counters.failed_selections, 0);
    }

    #[test]
    fn corrupt_top_cell_falls_back_to_next_ranked() {
        let (store, _, dir) = build_store("fallback", 2000);
        let config = UeiConfig {
            chunk_cache_bytes: 0,
            fallback_candidates: 16, // allow walking the whole ranking
            ..small_config()
        };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        index.update_uncertainty(&boundary_model(50.0));
        let top = index.points().most_uncertain().unwrap();
        // Corrupt every chunk file the top cell needs: its load now fails
        // the catalog checksum, so selection must fall through the ranking.
        for ids in index.mapping().chunks_for_cell(index.grid(), top).unwrap() {
            for id in ids {
                let path = dir.path().join(id.file_name());
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(&path, &bytes).unwrap();
            }
        }
        let load = index.select_and_load().expect("a clean lower-ranked cell exists");
        assert_ne!(load.cell, top, "corrupt p* cannot be served");
        assert!(load.fallback_rank > 0);
        let counters = index.degrade_counters();
        assert_eq!(counters.fallback_cells, load.fallback_rank);
        assert_eq!(counters.failed_selections, 0);
    }

    #[test]
    fn exhausted_candidates_surface_the_storage_error() {
        let (store, _, _dir) = build_store("exhaust", 1500);
        let config =
            UeiConfig { chunk_cache_bytes: 0, retry: RetryPolicy::none(), ..small_config() };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        let injector =
            FaultInjector::new(FaultConfig { seed: 3, transient_prob: 1.0, ..FaultConfig::off() })
                .unwrap();
        store.tracker().set_fault_injector(Some(injector));
        index.update_uncertainty(&boundary_model(50.0));
        let err = index.select_and_load().unwrap_err();
        assert!(err.is_storage_fault(), "ladder exhaustion returns the last fault: {err}");
        assert_eq!(index.degrade_counters().failed_selections, 1);
        // Detaching the injector heals the next selection.
        store.tracker().set_fault_injector(None);
        index.select_and_load().expect("selection recovers once faults stop");
        assert_eq!(index.degrade_counters().failed_selections, 1);
    }

    #[test]
    fn sigma_deadline_misses_are_counted() {
        let (store, _, _dir) = build_store("sigma", 2000);
        let config = UeiConfig {
            chunk_cache_bytes: 0,
            latency_threshold_secs: 1e-9, // modeled NVMe always exceeds 1 ns
            ..small_config()
        };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        index.update_uncertainty(&boundary_model(50.0));
        index.select_and_load().unwrap();
        assert!(index.degrade_counters().sigma_deadline_misses >= 1);
    }

    #[test]
    fn ready_prefetch_survives_model_update() {
        // The invalidation rule: a model update re-ranks the cells, but a
        // ready-but-untaken prefetched region stays valid as *data* (cell
        // contents never change), so update_uncertainty must keep it.
        let (store, _, _dir) = build_store("survive", 1500);
        let config = UeiConfig { prefetch: true, ..small_config() };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        let pre = index.prefetcher().unwrap();
        pre.request(9);
        assert!(pre.take_blocking(9, Duration::from_secs(10)).is_some(), "prefetch completes");
        // Buffer it again (take was destructive) and leave it untaken.
        pre.request(9);
        while index.prefetcher().unwrap().is_pending(9) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(index.prefetcher().unwrap().has_ready(9));

        index.update_uncertainty(&boundary_model(50.0));
        assert!(
            index.prefetcher().unwrap().has_ready(9),
            "model update must not drop ready prefetches"
        );
        // And the retained result is actually served on selection.
        assert_eq!(index.load_prefetched_for_test(9), Some(true));
    }

    #[test]
    fn prefetcher_warmed_chunks_cost_foreground_nothing() {
        // Acceptance: a prefetched-then-swapped region performs zero
        // foreground chunk reads for chunks the prefetcher already loaded.
        let (store, _, _dir) = build_store("warmzero", 1500);
        let config = UeiConfig { prefetch: true, ..small_config() };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        let pre = index.prefetcher().unwrap();
        pre.request(5);
        pre.take_blocking(5, Duration::from_secs(10)).expect("prefetch completes");
        // The ready buffer is now empty for cell 5, so this foreground
        // load goes through the loader — but every chunk is resident in
        // the shared cache the prefetcher filled.
        let before = store.tracker().snapshot();
        let (rows, stats) = index.load_cell(5).unwrap();
        assert!(!rows.is_empty());
        assert!(stats.merge.chunks_loaded > 0);
        assert_eq!(
            store.tracker().delta(&before).stats.bytes_read,
            0,
            "zero foreground chunk reads for prefetcher-warmed chunks"
        );
        assert_eq!(stats.virtual_time, Duration::ZERO);
    }

    #[test]
    fn defer_swaps_holds_current_region_when_loads_are_slow() {
        let (store, _, _dir) = build_store("defer", 2000);
        // τ will exceed σ immediately: every region load on modeled NVMe
        // takes > 1 ns threshold.
        let config = UeiConfig {
            defer_swaps: true,
            latency_threshold_secs: 1e-9,
            chunk_cache_bytes: 0, // no cache: every load pays I/O
            ..small_config()
        };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();

        index.update_uncertainty(&boundary_model(20.0));
        let first = index.select_and_load().unwrap();
        assert_eq!(index.deferred_swaps(), 0, "first load cannot be deferred");

        // Move the boundary: the ranking now prefers a different cell, but
        // the swap is deferred because τ > σ and nothing is prefetched.
        index.update_uncertainty(&boundary_model(80.0));
        let second = index.select_and_load().unwrap();
        assert_eq!(second.cell, first.cell, "swap deferred, same region served");
        assert_eq!(index.deferred_swaps(), 1);
    }

    #[test]
    fn defer_swaps_noop_when_loads_are_fast() {
        let (store, _, _dir) = build_store("nodefer", 2000);
        let config = UeiConfig {
            defer_swaps: true,
            latency_threshold_secs: 10.0, // σ far above any load time
            ..small_config()
        };
        let mut index = UeiIndex::build(Arc::clone(&store), config).unwrap();
        index.update_uncertainty(&boundary_model(20.0));
        let first = index.select_and_load().unwrap();
        index.update_uncertainty(&boundary_model(80.0));
        let second = index.select_and_load().unwrap();
        assert_ne!(second.cell, first.cell, "fast loads never defer");
        assert_eq!(index.deferred_swaps(), 0);
    }
}
