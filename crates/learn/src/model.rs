//! The classifier abstraction used by uncertainty sampling.
//!
//! Uncertainty sampling "can be used with any probability-based predictive
//! model (e.g., Naive Bayes, SVM, etc.)" (paper §2.1); UEI likewise works
//! "in conjunction with any probabilistic-based classifiers" (§3). The
//! [`Classifier`] trait captures exactly what both need: a posterior
//! `P(positive | x)` for binary labels.

use uei_types::{Label, PointMatrix, Result, UeiError};

use crate::delta::{RangePass, TrackedRange};

/// A trained binary probabilistic classifier.
pub trait Classifier: Send + Sync {
    /// Posterior probability that `x` is [`Label::Positive`], in `[0, 1]`.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Posterior probabilities for a whole batch of queries, in input
    /// order.
    ///
    /// The contract is strict: `predict_proba_batch(xs)[i]` must be
    /// bit-identical to `predict_proba(xs[i])` for every implementation,
    /// so callers can switch between the scalar and batch paths (or
    /// between thread counts) without perturbing selection order. The
    /// default implementation fans the scalar calls out across cores for
    /// batches of at least [`Self::parallel_batch_threshold`] queries (see
    /// [`crate::batch`]); models override it when they can amortize work
    /// across queries (shared kd-tree traversal scratch, one member pass
    /// per committee).
    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        crate::batch::map_batch_at(xs, self.parallel_batch_threshold(), |x| self.predict_proba(x))
    }

    /// Width of the neighbour lists [`Self::rescore_range`] keeps per
    /// row (the kNN family's `k`), or `None` when the model cannot rescore
    /// incrementally — callers then rescore every point on every pass.
    fn neighbour_width(&self) -> Option<usize> {
        None
    }

    /// Rescores the rows `rows` of `points` into caller-owned state
    /// ([`crate::delta`]): [`RangePass::Capture`] scores every row and
    /// records its squared influence radius and its
    /// [`Self::neighbour_width`] neighbour build indices;
    /// [`RangePass::Patch`] brings state captured under a predecessor model
    /// (a prefix of this model's training set) up to date, rescoring only
    /// the rows an added example can influence.
    ///
    /// Returns the number of rows rescored. The contract is strict: after
    /// either pass every row's score is bit-identical to
    /// `(out.score)(self.predict_proba(row))`, and its radius and neighbour
    /// list are bit-identical to what a capture under `self` records, so
    /// any partition of the rows into ranges gives the same state. `None`
    /// (the default) means the pass could not run — unsupported model,
    /// malformed input, broken lineage, NaN geometry — and leaves the
    /// state undefined: the caller must recapture or fall back.
    fn rescore_range(
        &self,
        _points: &PointMatrix,
        _rows: std::ops::Range<usize>,
        _pass: RangePass<'_>,
        _out: TrackedRange<'_>,
    ) -> Option<usize> {
        None
    }

    /// The image of `x` in the model's *influence space* — the space the
    /// radii of [`Self::rescore_range`] measure distances in — or `None`
    /// when the model has no spatial locality structure or cannot map this
    /// input.
    ///
    /// The contract mirrors [`RangePass::Patch`]: whenever a query `p` and
    /// an added example `a` both map to `Some` position, and the squared
    /// Euclidean distance between those positions is at least
    /// `r2 * (1 + margin)²` for the finite radius `r2` recorded for `p`, a
    /// patch must leave `p` clean with respect to `a`. Callers use this for
    /// conservative geometric pre-filtering (the sharded index plane skips
    /// whole shards that no inflated influence ball can reach); returning
    /// `None` merely disables that pruning, so the default is always
    /// sound. Implementations must return `None` for inputs the patch
    /// would refuse (wrong dimensionality, untransformable rows) rather
    /// than guess.
    fn influence_position(&self, _x: &[f64]) -> Option<Vec<f64>> {
        None
    }

    /// Number of training examples this model was fitted on, in fit order,
    /// when the model can report it.
    ///
    /// Incremental rescoring uses this to recover *which* examples a
    /// retrained model gained: the exploration loop always retrains on the
    /// full labeled set, so the labeled entries between the previous and
    /// current training lengths are exactly the `added` influence sources
    /// of a [`RangePass::Patch`], and the training length a capture ran
    /// under is the patch's `since`. Models that cannot report a training
    /// size return `None`, and callers must fall back to a full rescore.
    fn training_len(&self) -> Option<usize> {
        None
    }

    /// Batch size below which this model's batch scoring stays sequential.
    ///
    /// The generic default ([`crate::batch::PARALLEL_THRESHOLD`]) is tuned
    /// for kd-tree-traversal-sized per-query work; models whose per-query
    /// cost is a handful of flops (Naive Bayes, a linear SVM) raise it,
    /// because for them the rayon fork/join overhead exceeds the scoring
    /// until batches are far larger. Thresholds affect scheduling only —
    /// results stay bit-identical at every batch size.
    fn parallel_batch_threshold(&self) -> usize {
        crate::batch::PARALLEL_THRESHOLD
    }

    /// Hard prediction at the 0.5 threshold.
    fn predict(&self, x: &[f64]) -> Label {
        Label::from_bool(self.predict_proba(x) >= 0.5)
    }

    /// Least-confidence uncertainty `u(x) = 1 − P(ŷ | x)` (paper Eq. 1).
    ///
    /// For binary classification this is `1 − max(p, 1−p)`, maximal (0.5)
    /// at `p = 0.5` — "the most uncertain example x is the one which can be
    /// assigned to either class label with probability 0.5" (§2.1).
    /// Delegates to [`crate::strategy::UncertaintyMeasure::LeastConfidence`]
    /// so the formula lives in exactly one place.
    fn uncertainty(&self, x: &[f64]) -> f64 {
        crate::strategy::UncertaintyMeasure::LeastConfidence.score(self.predict_proba(x))
    }

    /// Number of input dimensions the model expects.
    fn dims(&self) -> usize;
}

impl<C: Classifier + ?Sized> Classifier for Box<C> {
    fn predict_proba(&self, x: &[f64]) -> f64 {
        (**self).predict_proba(x)
    }
    fn predict_proba_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        (**self).predict_proba_batch(xs)
    }
    fn neighbour_width(&self) -> Option<usize> {
        (**self).neighbour_width()
    }
    fn rescore_range(
        &self,
        points: &PointMatrix,
        rows: std::ops::Range<usize>,
        pass: RangePass<'_>,
        out: TrackedRange<'_>,
    ) -> Option<usize> {
        (**self).rescore_range(points, rows, pass, out)
    }
    fn influence_position(&self, x: &[f64]) -> Option<Vec<f64>> {
        (**self).influence_position(x)
    }
    fn training_len(&self) -> Option<usize> {
        (**self).training_len()
    }
    fn parallel_batch_threshold(&self) -> usize {
        (**self).parallel_batch_threshold()
    }
    fn predict(&self, x: &[f64]) -> Label {
        (**self).predict(x)
    }
    fn uncertainty(&self, x: &[f64]) -> f64 {
        (**self).uncertainty(x)
    }
    fn dims(&self) -> usize {
        (**self).dims()
    }
}

/// Which probabilistic estimator to train — the tunable "Uncertainty
/// Estimator" row of the paper's Table 1 (DWKNN in the evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Dual weighted kNN (Gou et al. 2012) — the paper's choice.
    Dwknn {
        /// Neighbourhood size.
        k: usize,
    },
    /// Plain majority-vote kNN.
    Knn {
        /// Neighbourhood size.
        k: usize,
    },
    /// Gaussian Naive Bayes.
    NaiveBayes,
    /// Linear SVM (Pegasos) with Platt-calibrated probabilities.
    LinearSvm {
        /// Number of SGD epochs.
        epochs: usize,
        /// Regularization strength λ.
        lambda: f64,
    },
}

impl Default for EstimatorKind {
    fn default() -> Self {
        // Table 1: DWKNN; k = 5 is the usual small-neighbourhood default.
        EstimatorKind::Dwknn { k: 5 }
    }
}

impl EstimatorKind {
    /// Trains a classifier of this kind on `(point, label)` examples.
    ///
    /// Requires at least one example of each class — the exploration loop
    /// keeps sampling initial examples "until the set of initial examples
    /// contains at least one positive example and one negative example"
    /// (paper §3.2), so training on a single-class set is a protocol bug.
    pub fn train(&self, examples: &[(Vec<f64>, Label)]) -> Result<Box<dyn Classifier>> {
        check_two_classes(examples)?;
        match *self {
            EstimatorKind::Dwknn { k } => Ok(Box::new(crate::dwknn::Dwknn::fit(k, examples)?)),
            EstimatorKind::Knn { k } => Ok(Box::new(crate::knn::Knn::fit(k, examples)?)),
            EstimatorKind::NaiveBayes => {
                Ok(Box::new(crate::naive_bayes::GaussianNb::fit(examples)?))
            }
            EstimatorKind::LinearSvm { epochs, lambda } => {
                Ok(Box::new(crate::svm::LinearSvm::fit(examples, epochs, lambda, 0x5EED)?))
            }
        }
    }

    /// Short human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::Dwknn { .. } => "DWKNN",
            EstimatorKind::Knn { .. } => "KNN",
            EstimatorKind::NaiveBayes => "GaussianNB",
            EstimatorKind::LinearSvm { .. } => "LinearSVM",
        }
    }
}

/// Validates that a training set is non-empty, dimensionally consistent,
/// and contains both classes.
pub(crate) fn check_two_classes(examples: &[(Vec<f64>, Label)]) -> Result<()> {
    let first = examples
        .first()
        .ok_or_else(|| UeiError::invalid_state("cannot train on an empty labeled set"))?;
    let dims = first.0.len();
    let mut pos = false;
    let mut neg = false;
    for (x, label) in examples {
        if x.len() != dims {
            return Err(UeiError::DimensionMismatch { expected: dims, actual: x.len() });
        }
        match label {
            Label::Positive => pos = true,
            Label::Negative => neg = true,
        }
    }
    if !pos || !neg {
        return Err(UeiError::invalid_state(
            "training requires at least one positive and one negative example",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(f64);
    impl Classifier for Constant {
        fn predict_proba(&self, _x: &[f64]) -> f64 {
            self.0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    #[test]
    fn default_predict_threshold() {
        assert_eq!(Constant(0.7).predict(&[0.0]), Label::Positive);
        assert_eq!(Constant(0.5).predict(&[0.0]), Label::Positive);
        assert_eq!(Constant(0.49).predict(&[0.0]), Label::Negative);
    }

    #[test]
    fn least_confidence_uncertainty() {
        assert!((Constant(0.5).uncertainty(&[0.0]) - 0.5).abs() < 1e-12);
        assert!((Constant(0.9).uncertainty(&[0.0]) - 0.1).abs() < 1e-12);
        assert!((Constant(0.1).uncertainty(&[0.0]) - 0.1).abs() < 1e-12);
        assert_eq!(Constant(1.0).uncertainty(&[0.0]), 0.0);
    }

    #[test]
    fn boxed_classifier_delegates() {
        let boxed: Box<dyn Classifier> = Box::new(Constant(0.8));
        assert_eq!(boxed.predict_proba(&[0.0]), 0.8);
        assert_eq!(boxed.predict(&[0.0]), Label::Positive);
        assert_eq!(boxed.dims(), 1);
        assert_eq!(boxed.parallel_batch_threshold(), crate::batch::PARALLEL_THRESHOLD);
    }

    #[test]
    fn default_rescore_contract_is_conservative() {
        let model = Constant(0.3);
        let boxed: Box<dyn Classifier> = Box::new(Constant(0.3));
        let points = PointMatrix::from_rows(&[vec![0.0]]).unwrap();
        let (mut scores, mut radii2, mut neighbours) = ([0.0], [0.0], []);
        for m in [&model as &dyn Classifier, &boxed] {
            // A global model keeps no neighbour lists and cannot rescore a
            // range incrementally: callers rescore every point instead.
            assert_eq!(m.neighbour_width(), None);
            let out = TrackedRange {
                score: &|p| p,
                scores: &mut scores,
                radii2: &mut radii2,
                neighbours: &mut neighbours,
            };
            assert_eq!(m.rescore_range(&points, 0..1, RangePass::Capture, out), None);
            // No spatial structure, no influence space: geometric
            // prefiltering stays disabled by default.
            assert!(m.influence_position(&[0.0]).is_none());
        }
    }

    fn xy(examples: &[(f64, f64, Label)]) -> Vec<(Vec<f64>, Label)> {
        examples.iter().map(|&(a, b, l)| (vec![a, b], l)).collect()
    }

    #[test]
    fn train_rejects_degenerate_sets() {
        let kind = EstimatorKind::default();
        assert!(kind.train(&[]).is_err());
        let single = xy(&[(0.0, 0.0, Label::Positive), (1.0, 1.0, Label::Positive)]);
        assert!(kind.train(&single).is_err());
        let ragged = vec![(vec![0.0, 0.0], Label::Positive), (vec![1.0], Label::Negative)];
        assert!(kind.train(&ragged).is_err());
    }

    #[test]
    fn every_kind_trains_and_separates() {
        // A linearly separable cloud: positives near (1, 1), negatives near (0, 0).
        let mut examples = Vec::new();
        for i in 0..10 {
            let t = i as f64 / 10.0 * 0.2;
            examples.push((vec![1.0 - t, 1.0 + t], Label::Positive));
            examples.push((vec![0.0 + t, 0.0 - t], Label::Negative));
        }
        for kind in [
            EstimatorKind::Dwknn { k: 3 },
            EstimatorKind::Knn { k: 3 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 50, lambda: 0.01 },
        ] {
            let model = kind.train(&examples).unwrap();
            assert_eq!(model.dims(), 2, "{}", kind.name());
            assert_eq!(model.predict(&[1.0, 1.0]), Label::Positive, "{}", kind.name());
            assert_eq!(model.predict(&[0.0, 0.0]), Label::Negative, "{}", kind.name());
            let p = model.predict_proba(&[0.5, 0.5]);
            assert!((0.0..=1.0).contains(&p), "{}: {p}", kind.name());
        }
    }

    #[test]
    fn names() {
        assert_eq!(EstimatorKind::default().name(), "DWKNN");
        assert_eq!(EstimatorKind::NaiveBayes.name(), "GaussianNB");
    }
}
