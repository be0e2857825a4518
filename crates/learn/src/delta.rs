//! Neighbour-list capture and patching behind incremental index-point
//! rescoring.
//!
//! The exploration loop retrains its model after every label, yet a label
//! is one point: for the nearest-neighbour family (the paper's DWKNN,
//! Table 1) the posterior of a query `q` can only change when a new
//! training example *enters q's k-nearest-neighbour set*, i.e. when
//!
//! ```text
//! dist(q, x_new) < r_k(q)
//! ```
//!
//! where `r_k(q)` is the distance from `q` to its k-th nearest neighbour
//! under the previous model. Everything farther away is provably
//! untouched — its neighbour set, tie-breaks, and summation order are
//! unchanged, so its posterior is *bit-identical*.
//!
//! A caller that keeps each query's previous score, its squared radius
//! `r_k²` and its k neighbour build indices can go one step further than
//! skipping the clean queries: a *dirty* query's new neighbour list is the
//! top k of its old list together with the examples appended since, so it
//! is patched in `O(k + m)` distance evaluations (`m` appended examples)
//! instead of a fresh kd-tree query. [`RangePass::Capture`] fills that state
//! from the same [`KdTree::nearest_with`] traversal that scores each query;
//! [`RangePass::Patch`] updates it in place.
//!
//! Three exactness details the kNN-family implementation relies on:
//!
//! - **Exact ties.** The kd-tree orders neighbours by `(d², build index)`,
//!   and retraining appends new examples *after* all previous ones (the
//!   labeled set is append-only), so at exact distance equality a new
//!   example always *loses* the tie. The strict `<` test above is therefore
//!   exactly the "neighbour set changed" predicate.
//! - **Why the patch is exact.** Every old example outside the old list
//!   ranks after the old k-th neighbour under the new model too (distances
//!   and build indices do not change), so the new top k is drawn from the
//!   old list plus the appended examples — ordered by the same
//!   `(d², build index)` key with distances from the same kernel and
//!   operand order, hence bit-identical to a fresh query.
//! - **Unsaturated neighbourhoods.** While fewer than `k` training examples
//!   exist, every new example joins every query's neighbour set; such
//!   queries carry an infinite radius and are always dirty, and their
//!   (padded) old list holds *every* old example, so the patch stays exact.
//!
//! **Lineage.** The captured lists name build indices of one particular
//! training set. A patch names the training length the lists were captured
//! (or last patched) at — `since` — and the model treats build indices
//! `since..` as the appended examples. A model whose training set is shorter
//! than `since`, a malformed margin or geometry that produces NaN distances
//! make the patch return `None`, and the caller rescores from scratch.

use std::ops::Range;

use uei_types::point::squared_distance;
use uei_types::PointMatrix;

use crate::kdtree::{KdTree, NearestScratch, Neighbor};

/// Padding of a neighbour list shorter than the list width (an
/// unsaturated neighbourhood).
pub const NO_NEIGHBOUR: u32 = u32::MAX;

/// What one [`Classifier::rescore_range`](crate::model::Classifier::rescore_range)
/// call does to its rows.
#[derive(Debug, Clone, Copy)]
pub enum RangePass<'a> {
    /// Score every row from scratch and capture its radius and neighbour
    /// list.
    Capture,
    /// Bring rows captured (or last patched) under a model of training
    /// length `since` up to date with `self`: only rows whose influence
    /// ball — inflated by `1 + margin` — strictly contains one of `added`
    /// (or whose radius is infinite) are rescored.
    Patch {
        /// Training length the row state is valid for.
        since: usize,
        /// Examples whose influence decides which rows are dirty; may be a
        /// superset of the examples the model gained since `since`.
        added: &'a [&'a [f64]],
        /// Safety factor `≥ 0` on every radius: only adds dirty rows.
        margin: f64,
    },
}

/// The per-row rescoring state of a contiguous row range, owned by the
/// caller and updated in place.
pub struct TrackedRange<'a> {
    /// Maps a fresh posterior to the value stored in `scores` (an
    /// uncertainty measure, or the identity).
    pub score: &'a dyn Fn(f64) -> f64,
    /// One score per row.
    pub scores: &'a mut [f64],
    /// One squared influence radius per row (`+∞` = always dirty).
    pub radii2: &'a mut [f64],
    /// `rows × width` neighbour build indices, row-major, ascending by
    /// `(d², build index)` and padded with [`NO_NEIGHBOUR`].
    pub neighbours: &'a mut [u32],
}

/// What the shared range helper needs from a kNN-family model.
pub(crate) trait NeighbourPosterior {
    /// Per-worker buffers of [`Self::proba_radius_from`].
    type Buf: Default;
    /// The training examples, in build order.
    fn tree(&self) -> &KdTree;
    /// Neighbourhood size (the neighbour-list width).
    fn k(&self) -> usize;
    /// Posterior and squared influence radius of a query whose neighbours,
    /// ascending by `(d², build index)`, are `neighbours` — the one
    /// function behind both the kd-tree path and the patch.
    fn proba_radius_from(&self, buf: &mut Self::Buf, neighbours: &[Neighbor]) -> (f64, f64);
}

/// [`Classifier::rescore_range`](crate::model::Classifier::rescore_range)
/// for the kNN family: a capture runs one kd-tree query per row, a patch
/// tests each row's influence ball and rebuilds the dirty rows' lists from
/// their old lists plus the appended examples. Returns the number of rows
/// rescored, or `None` on malformed input, broken lineage or NaN geometry
/// (the row state may then be partially updated and must be recaptured).
pub(crate) fn knn_rescore_range<M: NeighbourPosterior>(
    model: &M,
    points: &PointMatrix,
    rows: Range<usize>,
    pass: RangePass<'_>,
    mut out: TrackedRange<'_>,
) -> Option<usize> {
    let tree = model.tree();
    let k = model.k();
    let n = rows.len();
    let well_formed = rows.start <= rows.end
        && rows.end <= points.len()
        && points.dims() == tree.dims()
        && out.scores.len() == n
        && out.radii2.len() == n
        && out.neighbours.len() == n.checked_mul(k)?;
    if !well_formed {
        return None;
    }
    let mut buf = M::Buf::default();
    match pass {
        RangePass::Capture => {
            let mut scratch = NearestScratch::new();
            for (j, i) in rows.enumerate() {
                let neighbours = tree.nearest_with(&mut scratch, points.row(i), k).ok()?;
                write_row(model, &mut buf, &mut out, j, neighbours);
            }
            Some(n)
        }
        RangePass::Patch { since, added, margin } => {
            if since > tree.len() || !(margin >= 0.0) || !margin.is_finite() {
                return None;
            }
            if added.iter().any(|a| a.len() != points.dims()) {
                return None;
            }
            let inflate = (1.0 + margin) * (1.0 + margin);
            let mut candidates: Vec<Neighbor> = Vec::with_capacity(k + tree.len() - since);
            let mut rescored = 0;
            for (j, i) in rows.enumerate() {
                let x = points.row(i);
                let r2 = out.radii2[j];
                if r2.is_finite() {
                    let bound = r2 * inflate;
                    let mut dirty = false;
                    for a in added {
                        let d2 = squared_distance(x, a).ok()?;
                        if d2.is_nan() {
                            return None;
                        }
                        if d2 < bound {
                            dirty = true;
                            break;
                        }
                    }
                    if !dirty {
                        continue;
                    }
                }
                candidates.clear();
                for &id in &out.neighbours[j * k..(j + 1) * k] {
                    if id == NO_NEIGHBOUR {
                        break;
                    }
                    let id = id as usize;
                    if id >= since {
                        return None;
                    }
                    candidates.push((squared_distance(tree.point(id), x).ok()?, id));
                }
                for id in since..tree.len() {
                    candidates.push((squared_distance(tree.point(id), x).ok()?, id));
                }
                if candidates.iter().any(|c| c.0.is_nan()) {
                    return None;
                }
                candidates.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                candidates.truncate(k);
                write_row(model, &mut buf, &mut out, j, &candidates);
                rescored += 1;
            }
            Some(rescored)
        }
    }
}

/// Stores row `j`'s fresh score, radius and (padded) neighbour list.
fn write_row<M: NeighbourPosterior>(
    model: &M,
    buf: &mut M::Buf,
    out: &mut TrackedRange<'_>,
    j: usize,
    neighbours: &[Neighbor],
) {
    let k = model.k();
    let (p, r2) = model.proba_radius_from(buf, neighbours);
    out.scores[j] = (out.score)(p);
    out.radii2[j] = r2;
    let ids = neighbours.iter().map(|&(_, i)| i as u32).chain(std::iter::repeat(NO_NEIGHBOUR));
    for (slot, id) in out.neighbours[j * k..(j + 1) * k].iter_mut().zip(ids) {
        *slot = id;
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::model::Classifier;

    /// Whole-matrix row state for unit tests; scores hold raw posteriors.
    pub(crate) struct RowState {
        pub scores: Vec<f64>,
        pub radii2: Vec<f64>,
        pub neighbours: Vec<u32>,
    }

    impl RowState {
        pub fn new(rows: usize, width: usize) -> RowState {
            RowState {
                scores: vec![0.0; rows],
                radii2: vec![0.0; rows],
                neighbours: vec![NO_NEIGHBOUR; rows * width],
            }
        }

        /// Runs `pass` over every row of `points`.
        pub fn run(
            &mut self,
            model: &dyn Classifier,
            points: &PointMatrix,
            pass: RangePass<'_>,
        ) -> Option<usize> {
            let out = TrackedRange {
                score: &|p| p,
                scores: &mut self.scores,
                radii2: &mut self.radii2,
                neighbours: &mut self.neighbours,
            };
            model.rescore_range(points, 0..points.len(), pass, out)
        }

        /// Bitwise equality of every score, radius and neighbour id.
        pub fn bit_eq(&self, other: &RowState) -> bool {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            bits(&self.scores) == bits(&other.scores)
                && bits(&self.radii2) == bits(&other.radii2)
                && self.neighbours == other.neighbours
        }
    }
}
