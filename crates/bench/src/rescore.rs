//! Incremental vs. full index-point rescoring benchmark.
//!
//! Measures the tentpole claim of the incremental rescoring layer: over a
//! boundary-converging active-learning session, patching only the points
//! inside the new labels' influence balls
//! ([`uei_learn::Classifier::rescore_range`]) does a small fraction of the
//! work of a full per-iteration rescore — while producing **bit-identical**
//! scores. The kNN-family estimators prune (that is the `reduction`
//! column); the globally updating models (Naive Bayes, the SVM, the
//! committee) exercise the conservative fall-back contract and report a
//! reduction of 1.
//!
//! Every iteration bit-compares the incremental instance's scores against
//! a twin instance that rescores from scratch, so a pruning bug cannot
//! produce a flattering number silently; and a kNN-family case whose
//! incremental passes fell back to full rescoring fails validation, so a
//! silently lost fast path cannot pass as "identical" either.
//!
//! Results serialize to the `BENCH_rescore.json` schema documented in
//! `BENCH_SCHEMA.json` at the repository root.

use std::time::{Duration, Instant};

use serde::Serialize;
use uei_index::grid::Grid;
use uei_index::points::IndexPoints;
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::{Classifier, Committee, EstimatorKind};
use uei_types::{AttributeDef, Label, Rng, Schema};

/// One estimator's incremental-vs-full comparison over a whole session.
#[derive(Debug, Clone, Serialize)]
pub struct RescoreCase {
    /// Estimator name (`DWKNN`, `KNN`, `GaussianNB`, `LinearSVM`,
    /// `committee`).
    pub model: String,
    /// Number of symbolic index points `|P|`.
    pub n_points: usize,
    /// Labeled iterations measured (after the shared warm-up pass).
    pub iterations: usize,
    /// Points scored by the full-rescore twin: `iterations × n_points`.
    pub points_rescored_full: u64,
    /// Points the incremental instance actually rescored.
    pub points_rescored_incremental: u64,
    /// Points the incremental instance served verbatim from its cache.
    pub points_cached: u64,
    /// `points_rescored_full / points_rescored_incremental` — the work
    /// reduction (1.0 for globally updating models).
    pub reduction: f64,
    /// Total wall time of the full-rescore passes, nanoseconds.
    pub full_ns: u64,
    /// Total wall time of the incremental passes (delta computation
    /// included), nanoseconds.
    pub incremental_ns: u64,
    /// `full_ns / incremental_ns`.
    pub speedup: f64,
    /// Whether the two instances held bit-identical scores after every
    /// iteration (must be true).
    pub identical: bool,
    /// Incremental passes that found a warm cache yet rescored every point
    /// ([`IndexPoints::incremental_fallbacks`]): one per iteration for the
    /// globally updating models, and required to be 0 for the kNN family.
    pub fallbacks: u64,
}

/// The full report written to `BENCH_rescore.json`.
#[derive(Debug, Clone, Serialize)]
pub struct RescoreReport {
    /// Rayon worker count at run time.
    pub threads: usize,
    /// Grid resolution per dimension (`|P| = cells_per_dim ^ 5`).
    pub cells_per_dim: usize,
    /// Bootstrap training-set size before the measured iterations.
    pub bootstrap: usize,
    pub cases: Vec<RescoreCase>,
}

/// Five-dimensional unit cube — the Table-1 dimensionality, normalized so
/// the influence-ball geometry is easy to reason about.
fn schema5() -> Schema {
    Schema::new(
        (0..5).map(|i| AttributeDef::new(format!("a{i}"), 0.0, 1.0).unwrap()).collect::<Vec<_>>(),
    )
    .unwrap()
}

fn teacher(x: &[f64]) -> Label {
    Label::from_bool(x.iter().sum::<f64>() > 2.5)
}

fn bootstrap_examples(n: usize, seed: u64) -> Vec<(Vec<f64>, Label)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..5).map(|_| rng.range_f64(0.0, 1.0)).collect();
            let label = teacher(&x);
            (x, label)
        })
        .collect()
}

/// A label near the `Σx = 2.5` decision boundary — where uncertainty
/// sampling concentrates once the model has converged, and therefore where
/// the locality-pruning claim has to hold up.
fn boundary_example(rng: &mut Rng) -> (Vec<f64>, Label) {
    let mut x: Vec<f64> = (0..4).map(|_| rng.range_f64(0.2, 0.8)).collect();
    let last = (2.5 - x.iter().sum::<f64>() + rng.range_f64(-0.05, 0.05)).clamp(0.0, 1.0);
    x.push(last);
    let label = teacher(&x);
    (x, label)
}

type Trainer = Box<dyn Fn(&[(Vec<f64>, Label)]) -> Box<dyn Classifier>>;

fn trainers() -> Vec<(&'static str, Trainer)> {
    let kinds = [
        EstimatorKind::Dwknn { k: 5 },
        EstimatorKind::Knn { k: 5 },
        EstimatorKind::NaiveBayes,
        EstimatorKind::LinearSvm { epochs: 10, lambda: 1e-2 },
    ];
    let mut out: Vec<(&'static str, Trainer)> = kinds
        .into_iter()
        .map(|kind| (kind.name(), Box::new(move |ex: &[_]| kind.train(ex).unwrap()) as Trainer))
        .collect();
    out.push((
        "committee",
        Box::new(|ex: &[_]| {
            Box::new(Committee::train(EstimatorKind::Dwknn { k: 5 }, 4, ex, 13).unwrap())
        }),
    ));
    out
}

fn scores_of(points: &IndexPoints) -> Vec<u64> {
    (0..points.len()).map(|i| points.uncertainty(i).unwrap().to_bits()).collect()
}

fn session_case(
    name: &str,
    train: &Trainer,
    grid: &Grid,
    bootstrap: usize,
    iterations: usize,
) -> RescoreCase {
    let measure = UncertaintyMeasure::LeastConfidence;
    let mut examples = bootstrap_examples(bootstrap, 11);
    let mut rng = Rng::new(17);

    let mut full = IndexPoints::from_grid(grid).unwrap();
    let mut incremental = IndexPoints::from_grid(grid).unwrap();

    // Warm-up pass on the bootstrap model: both instances score every
    // point; the incremental one also captures its influence radii.
    let model = train(&examples);
    full.update_tracked(model.as_ref(), measure);
    incremental.update_incremental(model.as_ref(), measure, &[], 0.0, 0);
    let mut identical = scores_of(&full) == scores_of(&incremental);

    let mut rescored = 0u64;
    let mut cached = 0u64;
    let mut full_time = Duration::ZERO;
    let mut incremental_time = Duration::ZERO;
    for _ in 0..iterations {
        let (x, label) = boundary_example(&mut rng);
        examples.push((x.clone(), label));
        let model = train(&examples);
        let added: [&[f64]; 1] = [x.as_slice()];

        let start = Instant::now();
        full.update_tracked(model.as_ref(), measure);
        full_time += start.elapsed();

        let start = Instant::now();
        // `full_every = 0`: never force a periodic full pass, so the
        // numbers measure pure pruning (the index layer's config keeps its
        // own staleness bound for real sessions).
        let stats = incremental.update_incremental(model.as_ref(), measure, &added, 0.0, 0);
        incremental_time += start.elapsed();

        rescored += stats.points_rescored;
        cached += stats.points_cached;
        identical &= scores_of(&full) == scores_of(&incremental);
    }

    let points_rescored_full = (iterations * full.len()) as u64;
    RescoreCase {
        model: name.to_string(),
        n_points: full.len(),
        iterations,
        points_rescored_full,
        points_rescored_incremental: rescored,
        points_cached: cached,
        reduction: points_rescored_full as f64 / rescored.max(1) as f64,
        full_ns: full_time.as_nanos() as u64,
        incremental_ns: incremental_time.as_nanos() as u64,
        speedup: full_time.as_nanos() as f64 / (incremental_time.as_nanos() as f64).max(1.0),
        identical,
        fallbacks: incremental.incremental_fallbacks(),
    }
}

/// Runs the incremental-vs-full comparison for every estimator on a
/// `cells_per_dim ^ 5` grid, with `bootstrap` initial examples and
/// `iterations` boundary-localized labels.
pub fn run_rescore_bench(
    cells_per_dim: usize,
    bootstrap: usize,
    iterations: usize,
) -> RescoreReport {
    let grid = Grid::new(&schema5(), cells_per_dim).unwrap();
    let cases = trainers()
        .iter()
        .map(|(name, train)| session_case(name, train, &grid, bootstrap, iterations))
        .collect();
    RescoreReport { threads: rayon::current_num_threads(), cells_per_dim, bootstrap, cases }
}

/// The default full-size run: the Table-1 grid (`5⁵ = 3125` index points),
/// a 300-example bootstrap, 20 labeled iterations.
pub fn full_rescore_report() -> RescoreReport {
    run_rescore_bench(5, 300, 20)
}

/// A seconds-scale smoke run used by CI: `3⁵ = 243` points, 5 iterations.
/// Panics if any case diverged from the full-rescore twin, if any
/// incremental pass claimed to rescore more points than exist, or if a
/// kNN-family case fell back to full rescoring.
pub fn smoke_rescore_report() -> RescoreReport {
    let report = run_rescore_bench(3, 60, 5);
    validate_rescore(&report);
    report
}

/// Estimators whose incremental passes must always take the neighbour-list
/// patch.
const PATCHING_MODELS: [&str; 2] = ["DWKNN", "KNN"];

/// Invariants every report must satisfy, smoke or full.
pub fn validate_rescore(report: &RescoreReport) {
    for case in &report.cases {
        assert!(
            !PATCHING_MODELS.contains(&case.model.as_str()) || case.fallbacks == 0,
            "{}: {} incremental passes fell back to a full kd-tree rescore",
            case.model,
            case.fallbacks,
        );
        assert!(case.identical, "{}: incremental scores diverged from full rescore", case.model);
        assert!(
            case.points_rescored_incremental <= case.iterations as u64 * case.n_points as u64,
            "{}: rescored {} points across {} iterations of {} points — more than a full \
             rescore every iteration",
            case.model,
            case.points_rescored_incremental,
            case.iterations,
            case.n_points,
        );
        assert_eq!(
            case.points_rescored_incremental + case.points_cached,
            case.points_rescored_full,
            "{}: every point must be either rescored or served from cache, every iteration",
            case.model,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_completes_and_prunes() {
        let report = smoke_rescore_report();
        assert_eq!(report.cases.len(), 5);
        assert!(report.cases.iter().all(|c| c.identical));
        let dwknn = report.cases.iter().find(|c| c.model == "DWKNN").unwrap();
        assert!(
            dwknn.points_rescored_incremental < dwknn.points_rescored_full,
            "DWKNN must prune even at smoke scale: {dwknn:?}"
        );
        // Globally updating models fall back to full rescoring.
        let nb = report.cases.iter().find(|c| c.model == "GaussianNB").unwrap();
        assert_eq!(nb.points_rescored_incremental, nb.points_rescored_full);
        assert!((nb.reduction - 1.0).abs() < 1e-12);
        assert_eq!(nb.fallbacks, nb.iterations as u64, "every NB pass rescores fully");
    }

    #[test]
    #[should_panic(expected = "fell back")]
    fn a_falling_back_knn_case_fails_validation() {
        let mut report = smoke_rescore_report();
        let knn = report.cases.iter_mut().find(|c| c.model == "KNN").unwrap();
        knn.fallbacks = 1;
        validate_rescore(&report);
    }

    #[test]
    fn report_serializes() {
        let report = smoke_rescore_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"reduction\""));
        assert!(json.contains("\"points_rescored_incremental\""));
    }
}
