//! Property-based tests for the learning toolkit: kd-tree vs brute force,
//! probability bounds for every classifier, metric identities, the scaler,
//! and the incremental neighbour-list patch against a fresh capture.

use proptest::prelude::*;
use uei_learn::kdtree::{KdTree, NearestScratch};
use uei_learn::metrics::{set_f_measure, ConfusionMatrix};
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::{
    Classifier, Committee, EstimatorKind, MinMaxScaler, RangePass, ScaledClassifier, TrackedRange,
    NO_NEIGHBOUR,
};
use uei_types::point::squared_distance;
use uei_types::{Label, PointMatrix, Region};

fn points_strategy(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, dims), 1..80)
}

fn brute_knn(points: &[Vec<f64>], q: &[f64], k: usize) -> Vec<(f64, usize)> {
    let mut all: Vec<(f64, usize)> =
        points.iter().enumerate().map(|(i, p)| (squared_distance(p, q).unwrap(), i)).collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kdtree_knn_equals_brute_force(
        points in points_strategy(3),
        query in proptest::collection::vec(-120.0f64..120.0, 3),
        k in 1usize..12,
    ) {
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&query, k).unwrap();
        let want = brute_knn(&points, &query, k);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn kdtree_bit_identical_across_dims(
        (points, query, k) in (1usize..=8).prop_flat_map(|dims| (
            proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, dims), 1..60),
            proptest::collection::vec(-60.0f64..60.0, dims),
            1usize..70, // exceeds the point count: covers k >= n
        )),
    ) {
        // The flat bucketed tree must return *bit-identical* (dist², index)
        // sequences to brute force — same distances down to the last ulp
        // (identical accumulation order), same tie-breaking by build index.
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&query, k).unwrap();
        let want = brute_knn(&points, &query, k);
        prop_assert_eq!(got.len(), want.len());
        for (i, ((gd, gi), (wd, wi))) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                (gd.to_bits(), *gi), (wd.to_bits(), *wi),
                "rank {i}: got ({gd}, {gi}) want ({wd}, {wi})"
            );
        }
    }

    #[test]
    fn kdtree_bit_identical_on_duplicate_heavy_sets(
        (points, query, k) in (1usize..=4).prop_flat_map(|dims| (
            proptest::collection::vec(
                proptest::collection::vec((-2i32..3).prop_map(f64::from), dims), 1..80),
            proptest::collection::vec((-2i32..3).prop_map(f64::from), dims),
            1usize..90,
        )),
    ) {
        // Coordinates drawn from five integers: masses of exact duplicates
        // and exact distance ties, so the build-index tie-break carries all
        // the ordering. Duplicates also stress the median partition (equal
        // keys must still split into two non-empty sides).
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.nearest(&query, k).unwrap();
        let want = brute_knn(&points, &query, k);
        prop_assert_eq!(got.len(), want.len());
        for ((gd, gi), (wd, wi)) in got.iter().zip(&want) {
            prop_assert_eq!((gd.to_bits(), *gi), (wd.to_bits(), *wi));
        }
    }

    #[test]
    fn nearest_scratch_reuse_never_leaks_state(
        (a_pts, a_qs, b_pts, b_qs, k) in ((1usize..=6), (1usize..=6)).prop_flat_map(|(da, db)| (
            proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, da), 1..40),
            proptest::collection::vec(
                proptest::collection::vec(-12.0f64..12.0, da), 1..6),
            proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, db), 1..40),
            proptest::collection::vec(
                proptest::collection::vec(-12.0f64..12.0, db), 1..6),
            1usize..50,
        )),
    ) {
        // One scratch shared across two trees of independent shapes and
        // dimensionalities, queries interleaved: every answer must equal
        // the fresh-scratch answer bit for bit.
        let ta = KdTree::build(a_pts.clone()).unwrap();
        let tb = KdTree::build(b_pts.clone()).unwrap();
        let mut scratch = NearestScratch::new();
        for i in 0..a_qs.len().max(b_qs.len()) {
            if let Some(q) = a_qs.get(i) {
                let shared = ta.nearest_with(&mut scratch, q, k).unwrap().to_vec();
                let fresh = ta.nearest(q, k).unwrap();
                prop_assert_eq!(shared, fresh);
            }
            if let Some(q) = b_qs.get(i) {
                let shared = tb.nearest_with(&mut scratch, q, k).unwrap().to_vec();
                let fresh = tb.nearest(q, k).unwrap();
                prop_assert_eq!(shared, fresh);
            }
        }
    }

    #[test]
    fn kdtree_range_equals_filter(
        points in points_strategy(2),
        lo in proptest::collection::vec(-120.0f64..0.0, 2),
        width in proptest::collection::vec(0.0f64..200.0, 2),
    ) {
        let hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
        let region = Region::new(lo, hi).unwrap();
        let tree = KdTree::build(points.clone()).unwrap();
        let got = tree.range_query(&region).unwrap();
        let want: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| region.contains(p).unwrap())
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn all_classifiers_emit_valid_probabilities(
        pos in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 2..20),
        neg in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..0.0, 3), 2..20),
        queries in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..2.0, 3), 1..10),
    ) {
        let mut examples: Vec<(Vec<f64>, Label)> =
            pos.into_iter().map(|x| (x, Label::Positive)).collect();
        examples.extend(neg.into_iter().map(|x| (x, Label::Negative)));
        for kind in [
            EstimatorKind::Dwknn { k: 3 },
            EstimatorKind::Knn { k: 3 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 5, lambda: 1e-2 },
        ] {
            let model = kind.train(&examples).unwrap();
            for q in &queries {
                let p = model.predict_proba(q);
                prop_assert!(
                    (0.0..=1.0).contains(&p) && p.is_finite(),
                    "{}: p = {p}", kind.name()
                );
                let u = model.uncertainty(q);
                prop_assert!((0.0..=0.5).contains(&u), "{}: u = {u}", kind.name());
            }
        }
    }

    #[test]
    fn uncertainty_measures_symmetric_and_peaked(p in 0.0f64..=1.0) {
        for m in [
            UncertaintyMeasure::LeastConfidence,
            UncertaintyMeasure::Margin,
            UncertaintyMeasure::Entropy,
        ] {
            let s = m.score(p);
            let s_mirror = m.score(1.0 - p);
            prop_assert!((s - s_mirror).abs() < 1e-9, "{m:?} not symmetric at {p}");
            prop_assert!(s <= m.score(0.5) + 1e-12, "{m:?} exceeds its peak at {p}");
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn confusion_matrix_identities(tp in 0u64..1000, fp in 0u64..1000, fn_ in 0u64..1000, tn in 0u64..1000) {
        let m = ConfusionMatrix { tp, fp, fn_, tn };
        let f1 = m.f_measure();
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!((0.0..=1.0).contains(&m.precision()));
        prop_assert!((0.0..=1.0).contains(&m.recall()));
        // F1, a mean, lies between precision and recall.
        if m.precision() > 0.0 && m.recall() > 0.0 {
            let (lo, hi) = (m.precision().min(m.recall()), m.precision().max(m.recall()));
            prop_assert!(f1 >= lo - 1e-12 && f1 <= hi + 1e-12);
        }
        // F1 = 1 iff perfect.
        if f1 > 1.0 - 1e-12 {
            prop_assert_eq!(fp, 0);
            prop_assert_eq!(fn_, 0);
        }
    }

    #[test]
    fn set_f_measure_agrees_with_matrix(
        predicted in proptest::collection::btree_set(0u64..200, 0..60),
        relevant in proptest::collection::btree_set(0u64..200, 0..60),
    ) {
        let p: Vec<u64> = predicted.iter().copied().collect();
        let r: Vec<u64> = relevant.iter().copied().collect();
        let tp = predicted.intersection(&relevant).count() as u64;
        let m = ConfusionMatrix {
            tp,
            fp: p.len() as u64 - tp,
            fn_: r.len() as u64 - tp,
            tn: 0,
        };
        prop_assert!((set_f_measure(&p, &r) - m.f_measure()).abs() < 1e-12);
    }

    #[test]
    fn scaler_roundtrip(
        dims_data in (1usize..6).prop_flat_map(|d| (
            proptest::collection::vec(-1e3f64..1e3, d),
            proptest::collection::vec(0.001f64..1e3, d),
            proptest::collection::vec(0.0f64..1.0, d),
        )),
    ) {
        let (lo, width, t) = dims_data;
        let hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
        let scaler = MinMaxScaler::new(lo.clone(), hi).unwrap();
        let point: Vec<f64> =
            lo.iter().zip(&width).zip(&t).map(|((l, w), tt)| l + w * tt).collect();
        let z = scaler.transform(&point).unwrap();
        for &v in &z {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
        let back = scaler.inverse(&z).unwrap();
        for (a, b) in point.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn batch_scoring_is_bit_identical_to_sequential(
        pos in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 2..15),
        neg in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..0.0, 3), 2..15),
        queries in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..2.0, 3), 1..40),
    ) {
        // The batch-scoring contract: predict_proba_batch(xs)[i] is
        // bit-for-bit the same float predict_proba(xs[i]) returns, for
        // every classifier, including the composite ones.
        let mut examples: Vec<(Vec<f64>, Label)> =
            pos.into_iter().map(|x| (x, Label::Positive)).collect();
        examples.extend(neg.into_iter().map(|x| (x, Label::Negative)));
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();

        let mut models: Vec<(String, Box<dyn Classifier>)> = Vec::new();
        for kind in [
            EstimatorKind::Dwknn { k: 3 },
            EstimatorKind::Knn { k: 3 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 5, lambda: 1e-2 },
        ] {
            models.push((kind.name().to_string(), kind.train(&examples).unwrap()));
        }
        models.push((
            "committee".to_string(),
            Box::new(Committee::train(
                EstimatorKind::Dwknn { k: 3 }, 3, &examples, 7).unwrap()),
        ));
        let scaler = MinMaxScaler::new(vec![-2.0; 3], vec![2.0; 3]).unwrap();
        models.push((
            "scaled-dwknn".to_string(),
            Box::new(ScaledClassifier::train(
                EstimatorKind::Dwknn { k: 3 }, scaler, &examples).unwrap()),
        ));

        for (name, model) in &models {
            let batch = model.predict_proba_batch(&refs);
            prop_assert_eq!(batch.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                let scalar = model.predict_proba(q);
                prop_assert_eq!(
                    batch[i].to_bits(), scalar.to_bits(),
                    "{}: batch[{i}] = {} vs scalar {}", name, batch[i], scalar
                );
            }
        }
    }

    #[test]
    fn dwknn_prediction_matches_training_labels_on_exact_points(
        pos in proptest::collection::vec(
            proptest::collection::vec(5.0f64..10.0, 2), 2..10),
        neg in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..-5.0, 2), 2..10),
    ) {
        // Well-separated clusters: every training point must classify as
        // its own label with k = 1.
        let mut examples: Vec<(Vec<f64>, Label)> =
            pos.iter().cloned().map(|x| (x, Label::Positive)).collect();
        examples.extend(neg.iter().cloned().map(|x| (x, Label::Negative)));
        let model = uei_learn::Dwknn::fit(1, &examples).unwrap();
        for (x, label) in &examples {
            prop_assert_eq!(model.predict(x), *label);
        }
    }
}

/// Whole-plane rescoring state, as the index plane keeps it; scores hold
/// raw posteriors so probabilities compare directly.
#[derive(Clone)]
struct PlaneState {
    probs: Vec<f64>,
    radii2: Vec<f64>,
    neighbours: Vec<u32>,
    width: usize,
}

impl PlaneState {
    fn new(rows: usize, width: usize) -> PlaneState {
        PlaneState {
            probs: vec![0.0; rows],
            radii2: vec![0.0; rows],
            neighbours: vec![NO_NEIGHBOUR; rows * width],
            width,
        }
    }

    /// Runs `pass` over `shards` contiguous near-even row ranges and sums
    /// the rescored counts.
    fn run(
        &mut self,
        model: &dyn Classifier,
        points: &PointMatrix,
        pass: RangePass<'_>,
        shards: usize,
    ) -> Option<usize> {
        let n = points.len();
        let mut total = 0;
        for s in 0..shards {
            let (lo, hi) = (n * s / shards, n * (s + 1) / shards);
            let out = TrackedRange {
                score: &|p| p,
                scores: &mut self.probs[lo..hi],
                radii2: &mut self.radii2[lo..hi],
                neighbours: &mut self.neighbours[lo * self.width..hi * self.width],
            };
            total += model.rescore_range(points, lo..hi, pass, out)?;
        }
        Some(total)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}

/// Coordinates on a 0.5-spaced lattice of `[0, 3]²`: duplicate-heavy, and
/// every distance is exact, so ties and on-radius insertions really occur.
fn lattice_point() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..7).prop_map(|v| f64::from(v) * 0.5), 2)
}

/// A lattice point or an arbitrary one in `[-100, 100)²`, about half each:
/// arbitrary coordinates make squared distances inexact, so the patch's
/// scalar kernel and the kd-tree's block kernel must agree in every bit.
fn mixed_point() -> impl Strategy<Value = Vec<f64>> {
    (any::<bool>(), lattice_point(), proptest::collection::vec(-100.0f64..100.0, 2))
        .prop_map(|(lattice, l, a)| if lattice { l } else { a })
}

/// One patch-versus-capture scenario.
struct PatchCase {
    dwknn: bool,
    scaled: bool,
    k: usize,
    base: Vec<Vec<f64>>,
    appended: Vec<Vec<f64>>,
    stray: Vec<Vec<f64>>,
    on_radius: bool,
    margin: f64,
    shards: usize,
    queries: Vec<Vec<f64>>,
    scaler: MinMaxScaler,
}

/// Patching the state captured under model A with the examples B appends
/// must reproduce B's own from-scratch capture bit for bit — probabilities,
/// radii, neighbour lists — at any range partition, rescoring exactly the
/// rows the influence-ball predicate marks.
fn check_patch_matches_capture(case: PatchCase) -> Result<(), TestCaseError> {
    let PatchCase {
        dwknn,
        scaled,
        k,
        base,
        mut appended,
        stray,
        on_radius,
        margin,
        shards,
        queries,
        scaler,
    } = case;
    let kind = if dwknn { EstimatorKind::Dwknn { k } } else { EstimatorKind::Knn { k } };
    let train = |ex: &[(Vec<f64>, Label)]| -> Box<dyn Classifier> {
        if scaled {
            Box::new(ScaledClassifier::train(kind, scaler.clone(), ex).unwrap())
        } else {
            kind.train(ex).unwrap()
        }
    };
    let label = |i: usize| Label::from_bool(i.is_multiple_of(2));
    let mut examples: Vec<(Vec<f64>, Label)> =
        base.iter().cloned().enumerate().map(|(i, x)| (x, label(i))).collect();
    let points = PointMatrix::from_rows(&queries).unwrap();
    let a = train(&examples);
    prop_assert_eq!(a.neighbour_width(), Some(k));
    let mut patched = PlaneState::new(points.len(), k);
    prop_assert_eq!(
        patched.run(a.as_ref(), &points, RangePass::Capture, shards),
        Some(points.len())
    );
    let before = patched.clone();

    let since = examples.len();
    if on_radius && before.radii2[0].is_finite() {
        // A duplicate of query 0's k-th neighbour sits exactly on its
        // radius and must lose the tie.
        let kth = before.neighbours[k - 1] as usize;
        appended[0] = examples[kth].0.clone();
    }
    for (i, x) in appended.iter().enumerate() {
        examples.push((x.clone(), label(since + i)));
    }
    let b = train(&examples);
    // `added` may be a superset of what B gained.
    let added: Vec<&[f64]> = appended.iter().chain(&stray).map(|x| x.as_slice()).collect();
    let pass = RangePass::Patch { since, added: &added, margin };
    let rescored = patched.run(b.as_ref(), &points, pass, shards);
    prop_assert!(rescored.is_some(), "a well-formed patch must run");

    let mut fresh = PlaneState::new(points.len(), k);
    fresh.run(b.as_ref(), &points, RangePass::Capture, 1).unwrap();
    prop_assert_eq!(PlaneState::bits(&patched.probs), PlaneState::bits(&fresh.probs));
    prop_assert_eq!(PlaneState::bits(&patched.radii2), PlaneState::bits(&fresh.radii2));
    prop_assert_eq!(&patched.neighbours, &fresh.neighbours);
    let plain = b.predict_proba_batch(&points.row_refs());
    prop_assert_eq!(PlaneState::bits(&plain), PlaneState::bits(&fresh.probs));

    // The dirty count is the influence-ball predicate, evaluated in the
    // model's own (scaled) space.
    let space = |x: &[f64]| if scaled { scaler.transform(x).unwrap() } else { x.to_vec() };
    let inflate = (1.0 + margin) * (1.0 + margin);
    let dirty = queries
        .iter()
        .zip(&before.radii2)
        .filter(|(q, &r2)| {
            !r2.is_finite()
                || added
                    .iter()
                    .any(|a| squared_distance(&space(q), &space(a)).unwrap() < r2 * inflate)
        })
        .count();
    prop_assert_eq!(rescored, Some(dirty));
    Ok(())
}

/// Query points offset half a lattice step from the example lattice.
fn lattice_queries() -> Vec<Vec<f64>> {
    (0..7)
        .flat_map(|i| (0..7).map(move |j| vec![f64::from(i) * 0.5 + 0.25, f64::from(j) * 0.5]))
        .collect()
}

fn k_strategy() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1usize, 3, 5, 8][i])
}

fn margin_strategy() -> impl Strategy<Value = f64> {
    (0usize..2).prop_map(|i| [0.0, 0.25][i])
}

fn shards_strategy() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [1usize, 2, 8][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn neighbour_patch_equals_a_fresh_capture(
        dwknn in any::<bool>(),
        scaled in any::<bool>(),
        k in k_strategy(),
        base in proptest::collection::vec(lattice_point(), 2..14),
        appended in proptest::collection::vec(lattice_point(), 1..4),
        stray in proptest::collection::vec(lattice_point(), 0..3),
        on_radius in any::<bool>(),
        margin in margin_strategy(),
        shards in shards_strategy(),
    ) {
        // Exact distances under the power-of-two scaler: ties and
        // on-radius duplicates are frequent.
        let scaler = MinMaxScaler::new(vec![0.0, 0.0], vec![4.0, 4.0]).unwrap();
        check_patch_matches_capture(PatchCase {
            dwknn, scaled, k, base, appended, stray, on_radius, margin, shards,
            queries: lattice_queries(),
            scaler,
        })?;
    }

    #[test]
    fn neighbour_patch_equals_a_fresh_capture_at_inexact_distances(
        dwknn in any::<bool>(),
        scaled in any::<bool>(),
        k in k_strategy(),
        base in proptest::collection::vec(mixed_point(), 2..14),
        appended in proptest::collection::vec(mixed_point(), 1..4),
        stray in proptest::collection::vec(mixed_point(), 0..3),
        on_radius in any::<bool>(),
        margin in margin_strategy(),
        shards in shards_strategy(),
        extra in proptest::collection::vec(mixed_point(), 0..16),
    ) {
        // Arbitrary coordinates and a scaler whose width is not a power of
        // two: distances round, so only a kernel that matches the kd-tree's
        // bit for bit keeps the dirty set, the on-radius tie and the
        // rebuilt lists identical.
        let scaler = MinMaxScaler::new(vec![-100.0, -100.0], vec![100.0, 100.0]).unwrap();
        let mut queries = extra;
        queries.extend(lattice_queries());
        check_patch_matches_capture(PatchCase {
            dwknn, scaled, k, base, appended, stray, on_radius, margin, shards, queries, scaler,
        })?;
    }
}
