//! The symbolic index points and their uncertainty scores.
//!
//! "In each iteration, UEI updates the uncertainty of all index points
//! p_i ∈ P based on the most recently trained predictive model M_{t−1},
//! which serves as the uncertainty estimator. […] Then, the index point
//! p*_i for which the current exploration model is most uncertain will be
//! chosen" (§3.2, Eq. 3).
//!
//! The score plane is sharded (DESIGN.md §14): a [`ShardLayout`] partitions
//! the flat score/radius/neighbour arrays into contiguous cell ranges,
//! rescoring fans out in one fused pass over shard-local work units, and
//! each shard keeps a cached top-θ candidate list ([`ShardTops`]) that
//! selection merges deterministically. Scores and selection are
//! **bit-identical at every shard count**.

use std::ops::Range;
use std::sync::Arc;

use rayon::prelude::*;
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::{should_parallelize_at, Classifier, RangePass, TrackedRange, NO_NEIGHBOUR};
use uei_types::{PointMatrix, Result, ShardId, UeiError};

use crate::grid::{CellId, Grid};
use crate::select::ShardTops;
use crate::shard::ShardLayout;

/// Rows per work unit of a fused rescoring pass. Shards are cut into units
/// of at most this many rows, so even a single-shard plane spreads over
/// every worker.
const UNIT_ROWS: usize = 512;

/// A patch pass fans out only at this many times the model's
/// [`Classifier::parallel_batch_threshold`] rows (65 536 for kNN/DWKNN).
/// A clean patch row costs one distance per added example, far less than
/// the kd-tree query a capture row pays, so thread start-up outweighs the
/// split until the plane is large: a single-shard DWKNN (k = 5) patch on
/// 2 vCPUs ran faster sequentially at 15 625, 27 000 and 42 875 rows, tied
/// at 64 000 and ran faster in parallel at 97 336 (EXPERIMENTS.md).
const PATCH_THRESHOLD_MULTIPLE: usize = 256;

/// Work accounting of one rescoring pass: how many index points were
/// actually pushed through the model versus served from the score cache.
///
/// The counters are plain sums, so the same type doubles as a cumulative
/// tally (see [`Self::since`] for window deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RescoreStats {
    /// Points scored through the model this pass (dirty or full).
    pub points_rescored: u64,
    /// Points whose cached score was provably still valid and kept.
    pub points_cached: u64,
}

impl RescoreStats {
    /// Adds another pass's counts into this tally.
    pub fn accumulate(&mut self, other: RescoreStats) {
        self.points_rescored += other.points_rescored;
        self.points_cached += other.points_cached;
    }

    /// The counter deltas accumulated since `earlier` (saturating, so a
    /// stale snapshot cannot underflow).
    pub fn since(&self, earlier: &RescoreStats) -> RescoreStats {
        RescoreStats {
            points_rescored: self.points_rescored.saturating_sub(earlier.points_rescored),
            points_cached: self.points_cached.saturating_sub(earlier.points_cached),
        }
    }
}

/// Shard-granular locality-prune state derived from one full tracked
/// pass: each shard's axis-aligned bounding box of center positions in
/// the model's influence space ([`Classifier::influence_position`]),
/// plus its largest cached squared influence radius. Incremental passes
/// skip the patch of every shard whose inflated max radius cannot reach
/// any added example — the shard is provably all-clean, so the
/// result stays bit-identical (DESIGN.md §14).
///
/// Center positions are computed once per full pass and reused across
/// the retrained successor models of the session (the
/// [`Classifier::influence_position`] contract requires the embedding of
/// a fixed input to be training-set-independent); `max_r2` is
/// re-derived for a shard whenever dirty rescoring patches its radii.
#[derive(Debug, Clone)]
struct ShardPrune {
    /// Influence-space dimensionality of the cached boxes.
    dims: usize,
    /// Per-shard box corners, shard `s` occupying `s*dims..(s+1)*dims`.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Per-shard maximum cached squared radius; `+∞` (some radius
    /// non-finite, hence unconditionally dirty) keeps the shard
    /// unprunable.
    max_r2: Vec<f64>,
    /// Shards containing a center the model could not position.
    opaque: Vec<bool>,
}

impl ShardPrune {
    /// Whether shard `s` is provably untouched: every added example's
    /// influence-space position sits at least the shard's inflated max
    /// radius away from the shard's bounding box, so no (margin-inflated)
    /// influence ball in the shard can contain it.
    fn shard_is_clean(&self, s: usize, added_pos: &[Vec<f64>], inflate: f64) -> bool {
        if self.opaque[s] {
            return false;
        }
        let bound = self.max_r2[s] * inflate;
        if !bound.is_finite() {
            return false;
        }
        let lo = &self.lo[s * self.dims..(s + 1) * self.dims];
        let hi = &self.hi[s * self.dims..(s + 1) * self.dims];
        added_pos.iter().all(|a| dist2_to_box(a, lo, hi) >= bound)
    }
}

/// Derives the locality-prune cache from the cached radii and the model's
/// influence-space embedding of the centers. A model without positions
/// yields an all-opaque cache in `O(1)`.
fn build_prune(
    centers: &PointMatrix,
    layout: &ShardLayout,
    radii2: &[f64],
    model: &dyn Classifier,
) -> ShardPrune {
    let shards = layout.num_shards();
    let dims = match centers.rows().next().and_then(|c| model.influence_position(c)) {
        Some(p) => p.len(),
        None => {
            // All-opaque sentinel: never prunes, but keeps full-size
            // per-shard vectors so the patch bookkeeping can still
            // index it.
            return ShardPrune {
                dims: 0,
                lo: Vec::new(),
                hi: Vec::new(),
                max_r2: vec![f64::INFINITY; shards],
                opaque: vec![true; shards],
            };
        }
    };
    let mut prune = ShardPrune {
        dims,
        lo: vec![f64::INFINITY; shards * dims],
        hi: vec![f64::NEG_INFINITY; shards * dims],
        max_r2: vec![f64::INFINITY; shards],
        opaque: vec![false; shards],
    };
    for s in 0..shards {
        let range = layout.range(s);
        for i in range.clone() {
            match model.influence_position(centers.row(i)) {
                Some(p) if p.len() == dims && p.iter().all(|v| v.is_finite()) => {
                    for (d, &v) in p.iter().enumerate() {
                        let at = s * dims + d;
                        prune.lo[at] = prune.lo[at].min(v);
                        prune.hi[at] = prune.hi[at].max(v);
                    }
                }
                _ => {
                    prune.opaque[s] = true;
                    break;
                }
            }
        }
        prune.max_r2[s] = max_radius2(&radii2[range]);
    }
    prune
}

/// Squared Euclidean distance from `p` to the axis-aligned box `[lo, hi]`
/// (zero inside the box).
fn dist2_to_box(p: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..p.len() {
        let gap = if p[d] < lo[d] {
            lo[d] - p[d]
        } else if p[d] > hi[d] {
            p[d] - hi[d]
        } else {
            0.0
        };
        acc += gap * gap;
    }
    acc
}

/// Maximum of a shard's cached squared radii; any non-finite entry (an
/// unconditionally dirty point) collapses to `+∞`, disabling pruning.
fn max_radius2(radii2: &[f64]) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for &r in radii2 {
        if !r.is_finite() {
            return f64::INFINITY;
        }
        if r > max {
            max = r;
        }
    }
    max
}

/// Neighbour-list state of the last tracked pass — what an incremental
/// patch reads and updates in place (DESIGN.md §11).
#[derive(Debug, Clone)]
struct Tracking {
    /// Squared influence radius per point (`+∞` = always dirty).
    radii2: Vec<f64>,
    /// `|P| × width` neighbour build indices, row-major, padded with
    /// [`NO_NEIGHBOUR`].
    neighbours: Vec<u32>,
    /// Neighbour-list width (the model's `k`).
    width: usize,
    /// Training length of the model the lists are valid for: the next
    /// patch treats the model's examples from here on as appended.
    train_len: usize,
}

/// Per-shard outcome of a fused pass: rows rescored and the largest
/// squared radius of the shard afterwards.
type ShardOutcome = (usize, f64);

/// The index set `P`: one symbolic point (cell center) per grid cell, with
/// the current uncertainty estimate of each.
///
/// The uncertainty vector doubles as a **score cache**: each full tracked
/// rescore also captures every point's influence radius and neighbour list,
/// and subsequent [`Self::update_incremental`] passes patch only the points
/// an added example can influence ([`Classifier::rescore_range`]), keeping
/// every other score verbatim. `model_version` tags the cache with the
/// (monotonically increasing) generation of the model that produced it.
///
/// The immutable halves — cell centers and shard layout — sit behind
/// `Arc`s, so cloning an `IndexPoints` (one clone per engine session)
/// shares the geometry and copies only the per-session score state.
#[derive(Debug, Clone)]
pub struct IndexPoints {
    /// Cell centers in one flat row-major matrix: batch scoring and the
    /// fused rescoring pass sweep it linearly, no per-center allocation.
    centers: Arc<PointMatrix>,
    /// The contiguous-range shard partition of `0..len`.
    layout: Arc<ShardLayout>,
    uncertainty: Vec<f64>,
    updated: bool,
    /// Radii and neighbour lists from the last tracked pass; `None` when
    /// the last pass was untracked or the model keeps no neighbour lists.
    tracking: Option<Tracking>,
    /// Per-shard cached top-θ candidate lists for selection.
    tops: ShardTops,
    /// Shard-granular locality-prune cache; rebuilt lazily after every
    /// full pass, `None` while radii are absent.
    prune: Option<ShardPrune>,
    /// Cumulative shards whose patch the locality prune skipped.
    shards_pruned: u64,
    /// Generation counter of the cached scores: bumped on every rescoring
    /// pass, of any kind.
    model_version: u64,
    /// Incremental passes since the last full rescore — drives the
    /// periodic-full-rescore staleness bound.
    incremental_passes: usize,
    /// Cumulative shards whose scores a rescoring pass recomputed (full
    /// passes count every shard; incremental passes only the dirty ones).
    shards_touched: u64,
    /// Cumulative incremental passes that found a warm cache yet rescored
    /// every point (see [`Self::incremental_fallbacks`]).
    incremental_fallbacks: u64,
}

impl IndexPoints {
    /// Materializes the index points of a grid (Algorithm 2 lines 7–11)
    /// with the shard count sized automatically from the cell count.
    pub fn from_grid(grid: &Grid) -> Result<IndexPoints> {
        Self::from_grid_with_shards(grid, 0)
    }

    /// [`Self::from_grid`] with an explicit shard count (`0` = auto, other
    /// values clamped to `[1, num_cells]` — see [`ShardLayout::new`]).
    pub fn from_grid_with_shards(grid: &Grid, shards: usize) -> Result<IndexPoints> {
        let mut centers = PointMatrix::with_capacity(grid.num_cells(), grid.dims());
        for id in grid.cell_ids() {
            centers.push_row(&grid.cell_center(id)?)?;
        }
        let n = centers.len();
        let layout = ShardLayout::new(n, shards);
        let tops = ShardTops::new(layout.num_shards());
        Ok(IndexPoints {
            centers: Arc::new(centers),
            layout: Arc::new(layout),
            uncertainty: vec![0.0; n],
            updated: false,
            tracking: None,
            tops,
            prune: None,
            shards_pruned: 0,
            model_version: 0,
            incremental_passes: 0,
            shards_touched: 0,
            incremental_fallbacks: 0,
        })
    }

    /// Number of index points (`|P|`).
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether the set is empty (never true for a valid grid).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// The shard partition of the score plane.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Number of shards the score plane is partitioned into.
    pub fn num_shards(&self) -> usize {
        self.layout.num_shards()
    }

    /// Cumulative count of shards recomputed across all rescoring passes
    /// (full passes add every shard, incremental passes only the dirty
    /// ones). Snapshot-and-subtract for per-iteration deltas.
    pub fn shards_touched(&self) -> u64 {
        self.shards_touched
    }

    /// Cumulative count of shards whose patch the locality prune skipped
    /// outright (the shard was provably beyond every added example's
    /// inflated influence ball).
    pub fn shards_pruned(&self) -> u64 {
        self.shards_pruned
    }

    /// Cumulative count of incremental passes that rescored every point
    /// although the score cache was warm and no staleness bound was due:
    /// the model keeps no neighbour lists (Naive Bayes, the SVM, a
    /// committee), its lineage broke (a different `k`, a shrunk training
    /// set), or the patch refused its input (NaN geometry, an invalid
    /// margin). Zero for a kNN-family session is the signature of the fast
    /// path being taken on every pass.
    pub fn incremental_fallbacks(&self) -> u64 {
        self.incremental_fallbacks
    }

    /// The symbolic point of cell `id`.
    pub fn center(&self, id: CellId) -> Result<&[f64]> {
        if id < self.centers.len() {
            Ok(self.centers.row(id))
        } else {
            Err(UeiError::not_found(format!("index point {id}")))
        }
    }

    /// The last computed uncertainty of cell `id`.
    pub fn uncertainty(&self, id: CellId) -> Result<f64> {
        self.uncertainty
            .get(id)
            .copied()
            .ok_or_else(|| UeiError::not_found(format!("index point {id}")))
    }

    /// Re-scores every index point with the current model
    /// (`updateUncertainty(P, M)`, Algorithm 2 line 17).
    ///
    /// Scoring fans out shard-parallel, each shard batching its slice
    /// through [`Classifier::predict_proba_batch`]; the batch contract is
    /// element-wise, so the resulting scores are bit-identical to
    /// [`Self::update_sequential`] at any shard count.
    pub fn update(&mut self, model: &dyn Classifier, measure: UncertaintyMeasure) {
        let layout = Arc::clone(&self.layout);
        let centers = Arc::clone(&self.centers);
        let parts: Vec<Vec<f64>> = (0..layout.num_shards())
            .into_par_iter()
            .map(|s| {
                let range = layout.range(s);
                let refs: Vec<&[f64]> = range.map(|i| centers.row(i)).collect();
                measure.score_points(model, &refs)
            })
            .collect();
        self.uncertainty = parts.concat();
        self.finish_full_pass(None);
    }

    /// The pre-batching scoring loop: one independent `predict_proba` call
    /// per index point. Kept as the baseline the scoring benchmark (and
    /// the `parallel: false` config knob) compares against.
    pub fn update_sequential(&mut self, model: &dyn Classifier, measure: UncertaintyMeasure) {
        for (i, center) in self.centers.rows().enumerate() {
            self.uncertainty[i] = measure.score(model.predict_proba(center));
        }
        self.finish_full_pass(None);
    }

    /// Full rescore that also captures every point's influence radius and
    /// neighbour list, so the next [`Self::update_incremental`] pass can
    /// patch instead of rescoring: same bit-identical scores as
    /// [`Self::update`]. Models that keep no neighbour lists (or cannot
    /// report their training length, which the lists' lineage needs) get
    /// the plain pass.
    pub fn update_tracked(
        &mut self,
        model: &dyn Classifier,
        measure: UncertaintyMeasure,
    ) -> RescoreStats {
        let n = self.centers.len();
        let full = RescoreStats { points_rescored: n as u64, points_cached: 0 };
        let (Some(width), Some(train_len)) = (model.neighbour_width(), model.training_len()) else {
            self.update(model, measure);
            return full;
        };
        // Reuse the table's allocation across passes of the same width.
        let mut tracking = match self.tracking.take() {
            Some(t) if t.width == width => t,
            _ => Tracking {
                radii2: vec![0.0; n],
                neighbours: vec![NO_NEIGHBOUR; n * width],
                width,
                train_len,
            },
        };
        tracking.train_len = train_len;
        let skip = vec![false; self.layout.num_shards()];
        if self.fused_pass(&mut tracking, model, measure, RangePass::Capture, &skip).is_none() {
            self.update(model, measure);
            return full;
        }
        self.finish_full_pass(Some(tracking));
        full
    }

    /// Brings the cached scores up to date with `model`, which extends the
    /// model of the last pass by (at most) the `added` training examples:
    /// one fused shard-parallel pass tests every point's influence ball
    /// and patches the neighbour lists of the points an added example
    /// falls into ([`RangePass::Patch`]); every other score, radius and
    /// list is kept verbatim. Shards the locality prune proves clean are
    /// skipped outright, and only dirty shards invalidate their cached
    /// top-θ lists.
    ///
    /// Scores are **bit-identical** to a full rescore: a clean point's
    /// neighbour set is provably unchanged, and a patched list is the
    /// exact top k a fresh kd-tree query returns (DESIGN.md §11). `margin
    /// ≥ 0` inflates the influence radii (more dirty points, never fewer);
    /// `full_every` forces a full tracked rescore after that many
    /// consecutive incremental passes, bounding drift in long sessions.
    /// Falls back to a full tracked rescore whenever the cache is cold,
    /// the model cannot patch, the table's lineage does not match the
    /// model, or the patch refuses its input — every fallback on a warm
    /// cache is counted in [`Self::incremental_fallbacks`].
    ///
    /// Debug builds cross-check the result against a from-scratch full
    /// rescore and assert bit equality of scores, radii and lists.
    pub fn update_incremental(
        &mut self,
        model: &dyn Classifier,
        measure: UncertaintyMeasure,
        added: &[&[f64]],
        margin: f64,
        full_every: usize,
    ) -> RescoreStats {
        let full_due = full_every > 0 && self.incremental_passes + 1 >= full_every;
        let stats = if !self.updated || full_due {
            self.update_tracked(model, measure)
        } else {
            match self.patch(model, measure, added, margin) {
                Some(stats) => stats,
                None => {
                    self.incremental_fallbacks += 1;
                    self.update_tracked(model, measure)
                }
            }
        };
        #[cfg(debug_assertions)]
        self.debug_cross_check(model, measure);
        stats
    }

    /// The patch pass of [`Self::update_incremental`]; `None` when the
    /// cached state cannot be patched and a full rescore must run.
    fn patch(
        &mut self,
        model: &dyn Classifier,
        measure: UncertaintyMeasure,
        added: &[&[f64]],
        margin: f64,
    ) -> Option<RescoreStats> {
        let train_len = model.training_len()?;
        let cached = self.tracking.as_ref()?;
        // Lineage: the lists must name build indices of a prefix of the
        // model's training set, at the model's own width.
        if model.neighbour_width() != Some(cached.width) || train_len < cached.train_len {
            return None;
        }
        if self.prune.is_none() {
            self.prune = Some(build_prune(&self.centers, &self.layout, &cached.radii2, model));
        }
        let pruned = self.pruned_shards(model, added, margin);
        let mut tracking = self.tracking.take().expect("checked above");
        let pass = RangePass::Patch { since: tracking.train_len, added, margin };
        let outcomes = self.fused_pass(&mut tracking, model, measure, pass, &pruned);
        // A refused patch leaves the table partially updated; the full
        // rescore that follows recaptures all of it in place.
        tracking.train_len = train_len;
        self.tracking = Some(tracking);
        let outcomes = outcomes?;
        self.shards_pruned += pruned.iter().filter(|&&p| p).count() as u64;
        let mut rescored = 0u64;
        for (s, &(dirty, max_r2)) in outcomes.iter().enumerate() {
            if dirty == 0 {
                continue;
            }
            rescored += dirty as u64;
            // Patched radii change the shard's reach: refresh its prune
            // bound.
            if let Some(prune) = self.prune.as_mut() {
                prune.max_r2[s] = max_r2;
            }
            self.tops.invalidate(ShardId::from(s));
            self.shards_touched += 1;
        }
        self.model_version += 1;
        self.incremental_passes += 1;
        Some(RescoreStats {
            points_rescored: rescored,
            points_cached: self.centers.len() as u64 - rescored,
        })
    }

    /// Runs `pass` over every shard not marked in `skip`, writing scores
    /// into the score plane and radii and lists into `tracking` in place.
    /// Shards are cut into work units of at most [`UNIT_ROWS`] rows, each
    /// owning disjoint slices of the three arrays, so the units run in
    /// parallel with no staging copy. Returns each shard's rows rescored
    /// and largest radius afterwards, or `None` if any unit refused.
    fn fused_pass(
        &mut self,
        tracking: &mut Tracking,
        model: &dyn Classifier,
        measure: UncertaintyMeasure,
        pass: RangePass<'_>,
        skip: &[bool],
    ) -> Option<Vec<ShardOutcome>> {
        type Unit<'a> = (usize, Range<usize>, &'a mut [f64], &'a mut [f64], &'a mut [u32]);
        let width = tracking.width;
        let centers = &*self.centers;
        let mut scores = &mut self.uncertainty[..];
        let mut radii2 = &mut tracking.radii2[..];
        let mut neighbours = &mut tracking.neighbours[..];
        let mut units: Vec<Unit<'_>> = Vec::new();
        for s in 0..self.layout.num_shards() {
            let range = self.layout.range(s);
            for lo in range.clone().step_by(UNIT_ROWS) {
                let len = UNIT_ROWS.min(range.end - lo);
                let (sc, rest) = std::mem::take(&mut scores).split_at_mut(len);
                scores = rest;
                let (r2, rest) = std::mem::take(&mut radii2).split_at_mut(len);
                radii2 = rest;
                let (nb, rest) = std::mem::take(&mut neighbours).split_at_mut(len * width);
                neighbours = rest;
                if !skip[s] {
                    units.push((s, lo..lo + len, sc, r2, nb));
                }
            }
        }
        let run = |(s, rows, scores, radii2, neighbours): Unit<'_>| {
            let score = |p: f64| measure.score(p);
            let out = TrackedRange { score: &score, scores, radii2: &mut *radii2, neighbours };
            let rescored = model.rescore_range(centers, rows, pass, out);
            (s, rescored, max_radius2(radii2))
        };
        let rows: usize = units.iter().map(|unit| unit.1.len()).sum();
        let threshold = match pass {
            RangePass::Capture => model.parallel_batch_threshold(),
            RangePass::Patch { .. } => {
                model.parallel_batch_threshold().saturating_mul(PATCH_THRESHOLD_MULTIPLE)
            }
        };
        let results: Vec<(usize, Option<usize>, f64)> = if should_parallelize_at(rows, threshold) {
            // Dirty points cluster around the decision boundary, and the
            // vendored rayon hands each worker a contiguous run of the
            // list: deal the units round-robin so every run samples the
            // whole plane. On grid-100k (2 vCPUs) this beat contiguous
            // units in 8 of 8 alternating perfbench pairs, step p50 8.38
            // → 7.94 ms (EXPERIMENTS.md).
            let workers = rayon::current_num_threads();
            let mut hands: Vec<Vec<Unit<'_>>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, unit) in units.into_iter().enumerate() {
                hands[i % workers].push(unit);
            }
            hands.into_iter().flatten().collect::<Vec<_>>().into_par_iter().map(run).collect()
        } else {
            units.into_iter().map(run).collect()
        };
        let mut outcomes = vec![(0usize, f64::NEG_INFINITY); self.layout.num_shards()];
        for (s, rescored, max_r2) in results {
            outcomes[s].0 += rescored?;
            outcomes[s].1 = outcomes[s].1.max(max_r2);
        }
        Some(outcomes)
    }

    /// Which shards this pass's added examples provably cannot dirty.
    /// Conservative on every edge the patch treats specially: an
    /// invalid margin, an unmappable added example, or a position of the
    /// wrong shape disables pruning for the whole pass (all-false).
    fn pruned_shards(&self, model: &dyn Classifier, added: &[&[f64]], margin: f64) -> Vec<bool> {
        let shards = self.layout.num_shards();
        let no_prune = vec![false; shards];
        let Some(prune) = self.prune.as_ref() else {
            return no_prune;
        };
        if !(margin >= 0.0) || !margin.is_finite() {
            return no_prune;
        }
        let mut added_pos = Vec::with_capacity(added.len());
        for a in added {
            match model.influence_position(a) {
                Some(p) if p.len() == prune.dims && p.iter().all(|v| v.is_finite()) => {
                    added_pos.push(p)
                }
                _ => return no_prune,
            }
        }
        let inflate = (1.0 + margin) * (1.0 + margin);
        (0..shards).map(|s| prune.shard_is_clean(s, &added_pos, inflate)).collect()
    }

    /// Bookkeeping shared by all full-rescore variants.
    fn finish_full_pass(&mut self, tracking: Option<Tracking>) {
        self.updated = true;
        self.tracking = tracking;
        // Full passes replace every radius; the prune boxes and bounds are
        // rebuilt lazily by the next incremental pass.
        self.prune = None;
        self.model_version += 1;
        self.incremental_passes = 0;
        self.tops.invalidate_all();
        self.shards_touched += self.layout.num_shards() as u64;
    }

    /// Generation counter of the cached scores: increases by one on every
    /// rescoring pass (full or incremental), never decreases.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Asserts that the cached scores equal a from-scratch full rescore,
    /// and the cached radii and neighbour lists a from-scratch capture, bit
    /// for bit. Debug builds run this after every incremental pass.
    #[cfg(debug_assertions)]
    fn debug_cross_check(&self, model: &dyn Classifier, measure: UncertaintyMeasure) {
        let refs = self.centers.row_refs();
        let full = measure.score_points(model, &refs);
        for (i, (got, want)) in self.uncertainty.iter().zip(&full).enumerate() {
            debug_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "incremental rescore diverged at point {i} (model version \
                 {}): cached {got:?} vs full {want:?}",
                self.model_version,
            );
        }
        let Some(cached) = &self.tracking else { return };
        let n = self.centers.len();
        let mut scores = vec![0.0; n];
        let mut radii2 = vec![0.0; n];
        let mut neighbours = vec![NO_NEIGHBOUR; n * cached.width];
        let out = TrackedRange {
            score: &|p| measure.score(p),
            scores: &mut scores,
            radii2: &mut radii2,
            neighbours: &mut neighbours,
        };
        debug_assert!(
            model.rescore_range(&self.centers, 0..n, RangePass::Capture, out).is_some(),
            "a model whose lists are cached must capture",
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        debug_assert!(
            bits(&cached.radii2) == bits(&radii2) && cached.neighbours == neighbours,
            "incremental rescore diverged from a fresh capture (model version {})",
            self.model_version,
        );
    }

    /// The most uncertain index point `p*` (Eq. 3); ties break toward the
    /// lowest cell id. Errors if [`Self::update`] has never run.
    pub fn most_uncertain(&self) -> Result<CellId> {
        self.ranked_top(1).map(|v| v[0])
    }

    /// The `n` most uncertain cells, descending (ties toward lower ids).
    /// Used by the prefetcher to pick the likely next region.
    ///
    /// This is the uncached reference path: it re-partitions the full
    /// score array every call. The selection hot loop uses
    /// [`Self::ranked_top_cached`], which returns bit-identical results.
    pub fn ranked_top(&self, n: usize) -> Result<Vec<CellId>> {
        if !self.updated {
            return Err(UeiError::invalid_state(
                "index points have not been scored yet; call update() first",
            ));
        }
        if self.centers.is_empty() || n == 0 {
            return Err(UeiError::invalid_state("no index points to rank"));
        }
        // Partial top-n selection (O(|P| + n log n), not a full sort); a
        // NaN score ranks last instead of panicking the comparator.
        Ok(uei_learn::strategy::top_k_desc(&self.uncertainty, n))
    }

    /// [`Self::ranked_top`] through the per-shard candidate caches: shards
    /// untouched since the last ranking reuse their cached top lists, so
    /// after an incremental rescore only the dirty shards re-rank. The
    /// deterministic merge makes the result bit-identical to
    /// [`Self::ranked_top`] at any shard count (DESIGN.md §14).
    pub fn ranked_top_cached(&mut self, n: usize) -> Result<Vec<CellId>> {
        if !self.updated {
            return Err(UeiError::invalid_state(
                "index points have not been scored yet; call update() first",
            ));
        }
        if self.centers.is_empty() || n == 0 {
            return Err(UeiError::invalid_state("no index points to rank"));
        }
        let ranked = self.tops.top_k(&self.layout, &self.uncertainty, n);
        debug_assert_eq!(
            ranked,
            uei_learn::strategy::top_k_desc(&self.uncertainty, n),
            "cached ranking must be bit-identical to the global reference",
        );
        Ok(ranked)
    }

    /// Mean uncertainty across all points (a convergence diagnostic: it
    /// shrinks as the model sharpens).
    pub fn mean_uncertainty(&self) -> f64 {
        if self.uncertainty.is_empty() {
            0.0
        } else {
            self.uncertainty.iter().sum::<f64>() / self.uncertainty.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uei_types::{AttributeDef, Schema};

    fn grid3() -> Grid {
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 3.0).unwrap(),
            AttributeDef::new("y", 0.0, 3.0).unwrap(),
        ])
        .unwrap();
        Grid::new(&schema, 3).unwrap()
    }

    /// Uncertainty peaks where x ≈ 1.5 (posterior crosses 0.5 there).
    struct BoundaryAtX(f64);
    impl Classifier for BoundaryAtX {
        fn predict_proba(&self, x: &[f64]) -> f64 {
            (1.0 / (1.0 + (-(x[0] - self.0) * 4.0).exp())).clamp(0.0, 1.0)
        }
        fn dims(&self) -> usize {
            2
        }
    }

    #[test]
    fn centers_match_grid() {
        let grid = grid3();
        let points = IndexPoints::from_grid(&grid).unwrap();
        assert_eq!(points.len(), 9);
        for id in grid.cell_ids() {
            assert_eq!(points.center(id).unwrap(), grid.cell_center(id).unwrap().as_slice());
        }
        assert!(points.center(9).is_err());
    }

    #[test]
    fn must_update_before_ranking() {
        let mut points = IndexPoints::from_grid(&grid3()).unwrap();
        assert!(points.most_uncertain().is_err());
        assert!(points.ranked_top_cached(3).is_err());
    }

    #[test]
    fn most_uncertain_tracks_the_boundary() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        // Boundary at x = 1.5: middle column (cells with x-coord 1) has
        // centers at x = 1.5 where p = 0.5.
        points.update(&BoundaryAtX(1.5), UncertaintyMeasure::LeastConfidence);
        let best = points.most_uncertain().unwrap();
        let coords = grid.id_to_coords(best).unwrap();
        assert_eq!(coords[0], 1, "most uncertain cell sits on the boundary column");
        assert!((points.uncertainty(best).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        points.update(&BoundaryAtX(0.5), UncertaintyMeasure::LeastConfidence);
        let top = points.ranked_top(9).unwrap();
        assert_eq!(top.len(), 9);
        for w in top.windows(2) {
            let (a, b) = (points.uncertainty(w[0]).unwrap(), points.uncertainty(w[1]).unwrap());
            assert!(a > b || (a == b && w[0] < w[1]));
        }
        // Deterministic.
        assert_eq!(points.ranked_top(3).unwrap(), points.ranked_top(9).unwrap()[..3]);
    }

    #[test]
    fn sharded_scoring_and_ranking_match_single_shard() {
        let grid = grid3();
        let mut reference = IndexPoints::from_grid_with_shards(&grid, 1).unwrap();
        reference.update(&BoundaryAtX(1.2), UncertaintyMeasure::Entropy);
        for shards in [2, 3, 8, 9] {
            let mut points = IndexPoints::from_grid_with_shards(&grid, shards).unwrap();
            assert_eq!(points.num_shards(), shards.min(9));
            points.update(&BoundaryAtX(1.2), UncertaintyMeasure::Entropy);
            for id in 0..points.len() {
                assert_eq!(
                    points.uncertainty(id).unwrap().to_bits(),
                    reference.uncertainty(id).unwrap().to_bits(),
                    "cell {id}, {shards} shards"
                );
            }
            for n in [1, 3, 9] {
                assert_eq!(
                    points.ranked_top_cached(n).unwrap(),
                    reference.ranked_top(n).unwrap(),
                    "n={n}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn boundary_moves_as_model_changes() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        points.update(&BoundaryAtX(0.5), UncertaintyMeasure::LeastConfidence);
        let early = grid.id_to_coords(points.most_uncertain().unwrap()).unwrap()[0];
        points.update(&BoundaryAtX(2.5), UncertaintyMeasure::LeastConfidence);
        let late = grid.id_to_coords(points.most_uncertain().unwrap()).unwrap()[0];
        assert_eq!(early, 0);
        assert_eq!(late, 2, "re-scoring follows the moving decision boundary");
    }

    #[test]
    fn batch_update_matches_sequential() {
        let grid = grid3();
        let mut batch = IndexPoints::from_grid(&grid).unwrap();
        let mut seq = IndexPoints::from_grid(&grid).unwrap();
        batch.update(&BoundaryAtX(1.2), UncertaintyMeasure::Entropy);
        seq.update_sequential(&BoundaryAtX(1.2), UncertaintyMeasure::Entropy);
        for id in 0..batch.len() {
            assert_eq!(
                batch.uncertainty(id).unwrap().to_bits(),
                seq.uncertainty(id).unwrap().to_bits(),
                "cell {id}"
            );
        }
        assert_eq!(batch.ranked_top(9).unwrap(), seq.ranked_top(9).unwrap());
    }

    #[test]
    fn nan_scores_rank_last_instead_of_panicking() {
        /// Emits NaN for the bottom-left cells (x < 1), a real score elsewhere.
        struct PartiallyNan;
        impl Classifier for PartiallyNan {
            fn predict_proba(&self, x: &[f64]) -> f64 {
                if x[0] < 1.0 {
                    f64::NAN
                } else {
                    0.5
                }
            }
            fn dims(&self) -> usize {
                2
            }
        }
        let grid = grid3();
        let mut points = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        points.update(&PartiallyNan, UncertaintyMeasure::LeastConfidence);
        let ranked = points.ranked_top(9).unwrap();
        assert_eq!(ranked.len(), 9);
        // The three NaN-scored cells (x-coord 0 → ids 0, 3, 6 in row-major
        // y-x order, whichever layout: exactly three cells have center x <
        // 1) come last, in id order.
        let nan_cells: Vec<CellId> =
            (0..9).filter(|&id| points.uncertainty(id).unwrap().is_nan()).collect();
        assert_eq!(nan_cells.len(), 3);
        assert_eq!(ranked[6..], nan_cells[..]);
        // The winner is a real-scored cell.
        assert!(!points.uncertainty(points.most_uncertain().unwrap()).unwrap().is_nan());
        // The sharded merge ranks NaNs identically.
        assert_eq!(points.ranked_top_cached(9).unwrap(), ranked);
    }

    #[test]
    fn incremental_rescore_is_bit_identical_and_skips_work() {
        use uei_learn::Dwknn;
        use uei_types::Label;
        // Training points spread across the 0..3 domain so every index
        // point has a saturated (finite-radius) neighbourhood.
        let mut examples = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                let p = vec![x as f64 * 0.8 + 0.2, y as f64 * 0.8 + 0.2];
                examples.push((p, Label::from_bool((x + y) % 2 == 0)));
            }
        }
        let grid = grid3();
        let model_a = Dwknn::fit(3, &examples).unwrap();
        let mut inc = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        inc.update_tracked(&model_a, UncertaintyMeasure::LeastConfidence);
        let v0 = inc.model_version();
        assert_eq!(inc.shards_touched(), 3, "full pass touches every shard");

        // One new label near the (0, 0) corner: far cells must stay clean.
        let new_point = vec![0.1, 0.1];
        let mut extended = examples.clone();
        extended.push((new_point.clone(), Label::Positive));
        let model_b = Dwknn::fit(3, &extended).unwrap();
        let added_refs: Vec<&[f64]> = vec![new_point.as_slice()];
        let stats = inc.update_incremental(
            &model_b,
            UncertaintyMeasure::LeastConfidence,
            &added_refs,
            0.0,
            0,
        );

        let mut full = IndexPoints::from_grid(&grid).unwrap();
        full.update(&model_b, UncertaintyMeasure::LeastConfidence);
        for id in 0..9 {
            assert_eq!(
                inc.uncertainty(id).unwrap().to_bits(),
                full.uncertainty(id).unwrap().to_bits(),
                "cell {id}"
            );
        }
        assert_eq!(inc.ranked_top(9).unwrap(), full.ranked_top(9).unwrap());
        assert_eq!(inc.ranked_top_cached(9).unwrap(), full.ranked_top(9).unwrap());
        assert_eq!(stats.points_rescored + stats.points_cached, 9);
        assert!(stats.points_cached > 0, "a corner insertion must leave far cells cached");
        assert!(inc.model_version() > v0, "every pass bumps the version");
        assert!(
            inc.shards_touched() < 6,
            "a corner insertion must leave some shards untouched: {}",
            inc.shards_touched()
        );
        assert!(
            inc.shards_pruned() >= 1,
            "shards beyond the insertion's influence reach must skip their \
             patch entirely: pruned {}",
            inc.shards_pruned()
        );
    }

    /// The influence-ball dirty predicate the kNN-family patch applies,
    /// stated directly: a point is dirty iff its radius is unbounded or
    /// some added example falls strictly inside its margin-inflated ball.
    fn influence_dirty(point: &[f64], r2: f64, added: &[&[f64]], margin: f64) -> bool {
        let inflate = (1.0 + margin) * (1.0 + margin);
        !r2.is_finite()
            || added
                .iter()
                .any(|a| uei_types::point::squared_distance(point, a).unwrap() < r2 * inflate)
    }

    #[test]
    fn models_without_influence_space_skip_pruning_but_stay_exact() {
        /// Patches through the influence-ball oracle with a fixed radius
        /// but exposes no influence space — the locality prune must stay
        /// disabled while incremental rescoring still skips far points.
        struct OpaqueRadii;
        impl Classifier for OpaqueRadii {
            fn predict_proba(&self, x: &[f64]) -> f64 {
                ((x[0] * 0.17 + x[1] * 0.05).sin() * 0.5 + 0.5).clamp(0.0, 1.0)
            }
            fn neighbour_width(&self) -> Option<usize> {
                Some(0)
            }
            fn rescore_range(
                &self,
                points: &PointMatrix,
                rows: Range<usize>,
                pass: RangePass<'_>,
                out: TrackedRange<'_>,
            ) -> Option<usize> {
                let mut rescored = 0;
                for (j, i) in rows.enumerate() {
                    let x = points.row(i);
                    let dirty = match pass {
                        RangePass::Capture => true,
                        RangePass::Patch { added, margin, .. } => {
                            influence_dirty(x, out.radii2[j], added, margin)
                        }
                    };
                    if dirty {
                        out.scores[j] = (out.score)(self.predict_proba(x));
                        out.radii2[j] = 0.5;
                        rescored += 1;
                    }
                }
                Some(rescored)
            }
            fn training_len(&self) -> Option<usize> {
                Some(0)
            }
            fn dims(&self) -> usize {
                2
            }
        }
        let grid = grid3();
        let mut points = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        points.update_tracked(&OpaqueRadii, UncertaintyMeasure::LeastConfidence);
        let added = [0.1f64, 0.1];
        let added_refs: Vec<&[f64]> = vec![&added];
        let stats = points.update_incremental(
            &OpaqueRadii,
            UncertaintyMeasure::LeastConfidence,
            &added_refs,
            0.0,
            0,
        );
        assert_eq!(points.shards_pruned(), 0, "no influence space, no pruning");
        assert_eq!(points.incremental_fallbacks(), 0);
        // The per-point oracle still keeps the far cells.
        assert!(stats.points_cached > 0);
        assert!(stats.points_rescored > 0, "the corner cell sits inside its influence ball");
        let want = (0..points.len())
            .filter(|&i| influence_dirty(points.center(i).unwrap(), 0.5, &added_refs, 0.0))
            .count();
        assert_eq!(stats.points_rescored, want as u64);
    }

    #[test]
    fn broken_lineage_and_superset_added_stay_exact() {
        use uei_learn::Dwknn;
        use uei_types::Label;
        let mut examples = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                let p = vec![x as f64 * 0.8 + 0.2, y as f64 * 0.8 + 0.2];
                examples.push((p, Label::from_bool((x + y) % 2 == 0)));
            }
        }
        let measure = UncertaintyMeasure::Entropy;
        let grid = grid3();
        let model = Dwknn::fit(3, &examples).unwrap();
        let mut points = IndexPoints::from_grid_with_shards(&grid, 2).unwrap();
        points.update_tracked(&model, measure);

        // An unchanged model handed a superset `added` (labels it never
        // trained on): the dirty points are patched from their own lists
        // and nothing falls back.
        let stray = [1.4f64, 1.6];
        let stray_refs: Vec<&[f64]> = vec![&stray];
        let stats = points.update_incremental(&model, measure, &stray_refs, 0.0, 0);
        assert!(stats.points_rescored > 0);
        assert_eq!(points.incremental_fallbacks(), 0);

        // A shrunk training set and a different k break the lineage: both
        // rescore every point, and both are counted.
        let shrunk = Dwknn::fit(3, &examples[..10]).unwrap();
        let stats = points.update_incremental(&shrunk, measure, &[], 0.0, 0);
        assert_eq!(stats, RescoreStats { points_rescored: 9, points_cached: 0 });
        let wider = Dwknn::fit(4, &examples[..10]).unwrap();
        let stats = points.update_incremental(&wider, measure, &[], 0.0, 0);
        assert_eq!(stats.points_rescored, 9);
        assert_eq!(points.incremental_fallbacks(), 2);
        let mut full = IndexPoints::from_grid(&grid).unwrap();
        full.update(&wider, measure);
        for id in 0..9 {
            assert_eq!(
                points.uncertainty(id).unwrap().to_bits(),
                full.uncertainty(id).unwrap().to_bits()
            );
        }
        // A NaN added example refuses the patch rather than guess.
        let nan = [f64::NAN, 0.5];
        let nan_refs: Vec<&[f64]> = vec![&nan];
        let stats = points.update_incremental(&wider, measure, &nan_refs, 0.0, 0);
        assert_eq!(stats.points_rescored, 9);
        assert_eq!(points.incremental_fallbacks(), 3);
    }

    #[test]
    fn cold_cache_and_listless_models_rescore_fully() {
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        // Cold cache: nothing to prune against.
        let stats = points.update_incremental(
            &BoundaryAtX(1.5),
            UncertaintyMeasure::LeastConfidence,
            &[],
            0.0,
            0,
        );
        assert_eq!(stats, RescoreStats { points_rescored: 9, points_cached: 0 });
        assert_eq!(points.incremental_fallbacks(), 0, "a cold pass is not a fallback");
        // BoundaryAtX keeps no neighbour lists: full again, even though no
        // examples were added — and counted as a fallback.
        let stats = points.update_incremental(
            &BoundaryAtX(1.5),
            UncertaintyMeasure::LeastConfidence,
            &[],
            0.0,
            0,
        );
        assert_eq!(stats, RescoreStats { points_rescored: 9, points_cached: 0 });
        assert_eq!(points.incremental_fallbacks(), 1);
    }

    #[test]
    fn periodic_full_rescore_bounds_staleness() {
        use uei_learn::Dwknn;
        use uei_types::Label;
        let mut examples = Vec::new();
        for i in 0..8 {
            let p = vec![i as f64 * 0.4, 3.0 - i as f64 * 0.4];
            examples.push((p, Label::from_bool(i % 2 == 0)));
        }
        let model = Dwknn::fit(3, &examples).unwrap();
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        points.update_tracked(&model, UncertaintyMeasure::LeastConfidence);
        // No added examples: the first incremental pass keeps everything…
        let stats =
            points.update_incremental(&model, UncertaintyMeasure::LeastConfidence, &[], 0.0, 2);
        assert_eq!(stats, RescoreStats { points_rescored: 0, points_cached: 9 });
        // …and the second hits the full_every = 2 staleness bound.
        let stats =
            points.update_incremental(&model, UncertaintyMeasure::LeastConfidence, &[], 0.0, 2);
        assert_eq!(stats, RescoreStats { points_rescored: 9, points_cached: 0 });
    }

    #[test]
    fn clean_incremental_pass_touches_no_shards() {
        use uei_learn::Dwknn;
        use uei_types::Label;
        let mut examples = Vec::new();
        for i in 0..12 {
            let p = vec![(i % 4) as f64 * 0.9 + 0.2, (i / 4) as f64 * 1.1 + 0.3];
            examples.push((p, Label::from_bool(i % 2 == 0)));
        }
        let model = Dwknn::fit(3, &examples).unwrap();
        let grid = grid3();
        let mut points = IndexPoints::from_grid_with_shards(&grid, 3).unwrap();
        points.update_tracked(&model, UncertaintyMeasure::LeastConfidence);
        let after_full = points.shards_touched();
        let stats =
            points.update_incremental(&model, UncertaintyMeasure::LeastConfidence, &[], 0.0, 0);
        assert_eq!(stats.points_rescored, 0, "nothing added, nothing dirty");
        assert_eq!(points.shards_touched(), after_full, "no shard recomputed");
        // The cached ranking survives the clean pass verbatim.
        assert_eq!(points.ranked_top_cached(5).unwrap(), points.ranked_top(5).unwrap());
    }

    #[test]
    fn rescore_stats_windows() {
        let mut total = RescoreStats::default();
        total.accumulate(RescoreStats { points_rescored: 5, points_cached: 4 });
        let snapshot = total;
        total.accumulate(RescoreStats { points_rescored: 2, points_cached: 7 });
        assert_eq!(total.since(&snapshot), RescoreStats { points_rescored: 2, points_cached: 7 });
        assert_eq!(snapshot.since(&total), RescoreStats::default(), "saturates, never underflows");
    }

    #[test]
    fn mean_uncertainty_shrinks_with_confidence() {
        struct Confident(f64);
        impl Classifier for Confident {
            fn predict_proba(&self, _: &[f64]) -> f64 {
                self.0
            }
            fn dims(&self) -> usize {
                2
            }
        }
        let grid = grid3();
        let mut points = IndexPoints::from_grid(&grid).unwrap();
        points.update(&Confident(0.5), UncertaintyMeasure::LeastConfidence);
        let vague = points.mean_uncertainty();
        points.update(&Confident(0.99), UncertaintyMeasure::LeastConfidence);
        let sharp = points.mean_uncertainty();
        assert!(vague > sharp);
    }
}
