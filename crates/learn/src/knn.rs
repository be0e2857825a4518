//! Plain k-nearest-neighbour classifier (majority vote / inverse-distance).
//!
//! Serves as the baseline DWKNN is compared against in the ablation
//! benches; the probability is the (optionally weighted) share of positive
//! neighbours.

use uei_types::{Label, PointMatrix, Result, UeiError};

use crate::delta::{knn_rescore_range, NeighbourPosterior, RangePass, TrackedRange};
use crate::kdtree::{KdTree, NearestScratch, Neighbor};
use crate::model::{check_two_classes, Classifier};

/// Neighbour weighting for [`Knn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnWeighting {
    /// Every neighbour counts 1.
    Uniform,
    /// Neighbours count `1 / (d + ε)`.
    InverseDistance,
}

/// A trained kNN classifier.
#[derive(Debug)]
pub struct Knn {
    k: usize,
    weighting: KnnWeighting,
    tree: KdTree,
    labels: Vec<Label>,
    dims: usize,
}

impl Knn {
    /// Fits a uniform-vote kNN.
    pub fn fit(k: usize, examples: &[(Vec<f64>, Label)]) -> Result<Knn> {
        Knn::fit_weighted(k, KnnWeighting::Uniform, examples)
    }

    /// Fits a kNN with the given weighting.
    pub fn fit_weighted(
        k: usize,
        weighting: KnnWeighting,
        examples: &[(Vec<f64>, Label)],
    ) -> Result<Knn> {
        if k == 0 {
            return Err(UeiError::invalid_config("kNN requires k >= 1"));
        }
        check_two_classes(examples)?;
        let dims = examples[0].0.len();
        // Build the flat matrix straight off the examples slice: one O(n·d)
        // copy into contiguous storage, no per-point Vec allocations.
        let mut points = PointMatrix::with_capacity(examples.len(), dims);
        let mut labels: Vec<Label> = Vec::with_capacity(examples.len());
        for (x, l) in examples {
            points.push_row(x)?;
            labels.push(*l);
        }
        Ok(Knn { k, weighting, tree: KdTree::from_matrix(points)?, labels, dims })
    }

    /// The posterior computation with reusable kd-tree scratch — the one
    /// code path behind both the scalar and batch entry points: one kd-tree
    /// query, then [`NeighbourPosterior::proba_radius_from`], which the
    /// incremental patch evaluates too.
    fn proba_with(&self, scratch: &mut NearestScratch, x: &[f64]) -> f64 {
        match self.tree.nearest_with(scratch, x, self.k) {
            Ok(neighbors) => self.proba_radius_from(&mut (), neighbors).0,
            Err(_) => 0.5,
        }
    }
}

impl NeighbourPosterior for Knn {
    type Buf = ();

    fn tree(&self) -> &KdTree {
        &self.tree
    }

    fn k(&self) -> usize {
        self.k
    }

    /// The radius is the squared k-th-neighbour distance; an unsaturated
    /// neighbourhood reports an infinite radius, meaning "always dirty".
    fn proba_radius_from(&self, _: &mut (), neighbors: &[Neighbor]) -> (f64, f64) {
        if neighbors.is_empty() {
            return (0.5, f64::INFINITY);
        }
        let radius2 = if neighbors.len() == self.k {
            neighbors[neighbors.len() - 1].0
        } else {
            f64::INFINITY
        };
        let mut pos = 0.0;
        let mut total = 0.0;
        for (d2, idx) in neighbors {
            let w = match self.weighting {
                KnnWeighting::Uniform => 1.0,
                KnnWeighting::InverseDistance => 1.0 / (d2.sqrt() + 1e-9),
            };
            total += w;
            if self.labels[*idx].is_positive() {
                pos += w;
            }
        }
        (pos / total, radius2)
    }
}

impl Classifier for Knn {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.proba_with(&mut NearestScratch::new(), x)
    }

    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        crate::batch::map_batch_with(xs, NearestScratch::new, |s, x| self.proba_with(s, x))
    }

    fn neighbour_width(&self) -> Option<usize> {
        Some(self.k)
    }

    fn rescore_range(
        &self,
        points: &PointMatrix,
        rows: std::ops::Range<usize>,
        pass: RangePass<'_>,
        out: TrackedRange<'_>,
    ) -> Option<usize> {
        knn_rescore_range(self, points, rows, pass, out)
    }

    fn influence_position(&self, x: &[f64]) -> Option<Vec<f64>> {
        // Influence radii are raw-input-space k-th-neighbour distances, so
        // the influence space is the input space itself. Inputs the delta
        // path would reject (wrong dimensionality) map to `None`.
        (x.len() == self.dims).then(|| x.to_vec())
    }

    fn training_len(&self) -> Option<usize> {
        Some(self.labels.len())
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::test_support::RowState;

    fn examples() -> Vec<(Vec<f64>, Label)> {
        vec![
            (vec![0.0, 0.0], Label::Negative),
            (vec![0.1, 0.0], Label::Negative),
            (vec![0.0, 0.1], Label::Negative),
            (vec![5.0, 5.0], Label::Positive),
            (vec![5.1, 5.0], Label::Positive),
            (vec![5.0, 5.1], Label::Positive),
        ]
    }

    #[test]
    fn majority_vote() {
        let model = Knn::fit(3, &examples()).unwrap();
        assert_eq!(model.predict_proba(&[5.0, 5.0]), 1.0);
        assert_eq!(model.predict_proba(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn k1_nearest_label_wins() {
        let model = Knn::fit(1, &examples()).unwrap();
        assert_eq!(model.predict(&[4.0, 4.0]), Label::Positive);
        assert_eq!(model.predict(&[1.0, 1.0]), Label::Negative);
    }

    #[test]
    fn inverse_distance_breaks_ties() {
        // k = 2 with one neighbour of each class: uniform vote gives 0.5,
        // inverse distance leans toward the closer one.
        let ex = vec![(vec![0.0], Label::Negative), (vec![10.0], Label::Positive)];
        let uniform = Knn::fit(2, &ex).unwrap();
        assert!((uniform.predict_proba(&[1.0]) - 0.5).abs() < 1e-9);
        let weighted = Knn::fit_weighted(2, KnnWeighting::InverseDistance, &ex).unwrap();
        assert!(weighted.predict_proba(&[1.0]) < 0.5, "closer to negative");
        assert!(weighted.predict_proba(&[9.0]) > 0.5, "closer to positive");
    }

    #[test]
    fn fit_validations() {
        assert!(Knn::fit(0, &examples()).is_err());
        assert!(Knn::fit(3, &[]).is_err());
    }

    #[test]
    fn capture_matches_plain_batch_and_patch_skips_far_insertions() {
        let model = Knn::fit_weighted(3, KnnWeighting::InverseDistance, &examples()).unwrap();
        let queries =
            PointMatrix::from_rows(&[vec![2.5, 2.5], vec![0.0, 0.0], vec![5.05, 5.0]]).unwrap();
        let mut state = RowState::new(queries.len(), 3);
        state.run(&model, &queries, RangePass::Capture).unwrap();
        let plain = model.predict_proba_batch(&queries.row_refs());
        for (a, b) in plain.iter().zip(&state.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Six examples ≥ k = 3: saturated neighbourhoods report finite radii.
        assert!(state.radii2.iter().all(|r| r.is_finite()));
        // A distant insertion leaves every query clean.
        let far = [100.0, 100.0];
        let added: Vec<&[f64]> = vec![&far];
        let pass = RangePass::Patch { since: 6, added: &added, margin: 0.0 };
        assert_eq!(state.run(&model, &queries, pass), Some(0));
    }

    #[test]
    fn influence_position_is_the_identity() {
        let model = Knn::fit(3, &examples()).unwrap();
        // Radii are raw-input-space distances, so the influence space is
        // the input space itself…
        assert_eq!(model.influence_position(&[2.5, 2.5]), Some(vec![2.5, 2.5]));
        // …and inputs the delta path would reject have no position.
        assert!(model.influence_position(&[2.5]).is_none());
    }

    #[test]
    fn uncertainty_peaks_between_clusters() {
        // With k = all and uniform weights every query ties at 0.5, so use
        // inverse-distance weighting to expose the gradient.
        let model = Knn::fit_weighted(6, KnnWeighting::InverseDistance, &examples()).unwrap();
        let between = model.uncertainty(&[2.5, 2.5]);
        let inside = model.uncertainty(&[5.0, 5.05]);
        assert!(between > inside, "between={between} inside={inside}");
    }
}
