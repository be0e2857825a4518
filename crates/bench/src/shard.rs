//! Sharded vs. single-shard index-plane benchmark.
//!
//! Measures the tentpole claim of the sharded index plane: partitioning
//! the grid cells into contiguous-range shards — each owning its slice of
//! the score arrays, its own dirty set, its own locality-prune bound, and
//! its own cached top-θ list — makes the per-iteration update + select
//! step faster on large grids (shard-granular influence-ball pruning of
//! the neighbour-list patch, dirty-shard-only re-ranking) while the
//! deterministic k-way merge keeps the selected cells **bit-identical** to
//! the single-shard reference at every shard count.
//!
//! Every case replays the same fixed-seed boundary-converging session and
//! records the full top-θ selection of every iteration; any divergence
//! from the 1-shard run of the same grid fails validation loudly.
//!
//! Results serialize to the `BENCH_shard.json` schema documented in
//! `BENCH_SCHEMA.json` at the repository root.

use std::time::{Duration, Instant};

use serde::Serialize;
use uei_index::grid::Grid;
use uei_index::points::IndexPoints;
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::EstimatorKind;
use uei_types::{AttributeDef, Label, Rng, Schema};

/// Top-θ depth recorded (and merged) each iteration.
const THETA: usize = 8;

/// One (grid size, shard count) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ShardCase {
    /// Number of grid cells (= index points) in this case.
    pub cells: usize,
    /// Shard count the index plane was partitioned into.
    pub shards: usize,
    /// Labeled iterations measured (after the shared warm-up pass).
    pub iterations: usize,
    /// Total wall time of the update + top-θ-select steps, nanoseconds.
    pub update_select_ns: u64,
    /// Wall time of the incremental-update steps alone, nanoseconds.
    pub update_ns: u64,
    /// Wall time of the cached top-θ selections alone, nanoseconds.
    pub select_ns: u64,
    /// `update_select_ns(1 shard) / update_select_ns(this)` on the same
    /// grid — above 1 means sharding helped.
    pub speedup_vs_single: f64,
    /// Cumulative shards touched across the measured iterations (every
    /// shard on a full pass, dirty shards only under incremental updates).
    pub shards_touched: u64,
    /// Cumulative shards whose patch the locality prune skipped (provably
    /// beyond every added example's inflated influence ball).
    pub shards_pruned: u64,
    /// Whether every iteration's top-θ selection was bit-identical to the
    /// single-shard reference run (must be true).
    pub selections_match: bool,
}

/// The full report written to `BENCH_shard.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ShardReport {
    /// Rayon worker count at run time.
    pub threads: usize,
    /// Labeled iterations per case.
    pub iterations: usize,
    pub cases: Vec<ShardCase>,
}

/// Three-dimensional unit cube: `cells_per_dim ^ 3` grids reach the 128k
/// cells the sweep needs without the 5-D cube's coarse resolution jumps.
fn schema3() -> Schema {
    Schema::new(
        (0..3).map(|i| AttributeDef::new(format!("a{i}"), 0.0, 1.0).unwrap()).collect::<Vec<_>>(),
    )
    .unwrap()
}

fn teacher(x: &[f64]) -> Label {
    Label::from_bool(x.iter().sum::<f64>() > 1.5)
}

fn bootstrap_examples(n: usize, seed: u64) -> Vec<(Vec<f64>, Label)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..3).map(|_| rng.range_f64(0.0, 1.0)).collect();
            let label = teacher(&x);
            (x, label)
        })
        .collect()
}

/// A label near the `Σx = 1.5` decision boundary, where uncertainty
/// sampling concentrates — so incremental passes stay localized and the
/// dirty-shard path (not the full-pass path) is what gets measured.
fn boundary_example(rng: &mut Rng) -> (Vec<f64>, Label) {
    let mut x: Vec<f64> = (0..2).map(|_| rng.range_f64(0.2, 0.8)).collect();
    let last = (1.5 - x.iter().sum::<f64>() + rng.range_f64(-0.05, 0.05)).clamp(0.0, 1.0);
    x.push(last);
    let label = teacher(&x);
    (x, label)
}

/// Replays the fixed-seed session against a `shards`-way index plane:
/// warm-up full pass, then `iterations` boundary labels, each followed by
/// an incremental update and a cached top-θ selection (the timed step).
/// Returns the case (speedup unfilled) and the per-iteration selections.
fn session_case(
    grid: &Grid,
    shards: usize,
    bootstrap: usize,
    iterations: usize,
) -> (ShardCase, Vec<Vec<usize>>) {
    let measure = UncertaintyMeasure::LeastConfidence;
    let mut examples = bootstrap_examples(bootstrap, 23);
    let mut rng = Rng::new(29);

    let mut points = IndexPoints::from_grid_with_shards(grid, shards).unwrap();
    let model = EstimatorKind::Dwknn { k: 5 }.train(&examples).unwrap();
    points.update_incremental(model.as_ref(), measure, &[], 0.0, 0);

    let mut selections = Vec::with_capacity(iterations);
    let mut update_time = Duration::ZERO;
    let mut select_time = Duration::ZERO;
    for _ in 0..iterations {
        let (x, label) = boundary_example(&mut rng);
        examples.push((x.clone(), label));
        let model = EstimatorKind::Dwknn { k: 5 }.train(&examples).unwrap();
        let added: [&[f64]; 1] = [x.as_slice()];

        let start = Instant::now();
        // `full_every = 0`: never force a periodic full pass — the sweep
        // measures the steady-state dirty-shard update plus the cached
        // shard-merge selection.
        points.update_incremental(model.as_ref(), measure, &added, 0.0, 0);
        update_time += start.elapsed();

        let start = Instant::now();
        let top = points.ranked_top_cached(THETA).unwrap();
        select_time += start.elapsed();
        selections.push(top);
    }

    let case = ShardCase {
        cells: grid.num_cells(),
        shards: points.num_shards(),
        iterations,
        update_select_ns: (update_time + select_time).as_nanos() as u64,
        update_ns: update_time.as_nanos() as u64,
        select_ns: select_time.as_nanos() as u64,
        speedup_vs_single: 1.0,
        shards_touched: points.shards_touched(),
        shards_pruned: points.shards_pruned(),
        selections_match: true,
    };
    (case, selections)
}

/// Runs the (grid size × shard count) sweep: for each `cells_per_dim`,
/// a single-shard reference session then one session per entry of
/// `shard_counts`, bit-comparing every iteration's top-θ selection
/// against the reference.
pub fn run_shard_bench(
    cells_per_dim: &[usize],
    shard_counts: &[usize],
    bootstrap: usize,
    iterations: usize,
) -> ShardReport {
    let schema = schema3();
    let mut cases = Vec::new();
    for &cpd in cells_per_dim {
        let grid = Grid::new(&schema, cpd).unwrap();
        let (reference, ref_selections) = session_case(&grid, 1, bootstrap, iterations);
        let single_ns = reference.update_select_ns;
        cases.push(reference);
        for &shards in shard_counts {
            if shards == 1 {
                continue;
            }
            let (mut case, selections) = session_case(&grid, shards, bootstrap, iterations);
            case.selections_match = selections == ref_selections;
            case.speedup_vs_single = single_ns as f64 / (case.update_select_ns as f64).max(1.0);
            cases.push(case);
        }
    }
    ShardReport { threads: rayon::current_num_threads(), iterations, cases }
}

/// The default full-size run: 1k / ~16k / 125k-cell grids (`10³`, `25³`,
/// `50³`) at 1, 2, 4, and 8 shards, a 200-example bootstrap, 12 labeled
/// iterations per session.
pub fn full_shard_report() -> ShardReport {
    run_shard_bench(&[10, 25, 50], &[1, 2, 4, 8], 2500, 12)
}

/// A seconds-scale smoke run used by CI: `6³ = 216` and `10³ = 1000` cell
/// grids, 4 iterations. Panics if any sharded selection diverged from the
/// single-shard reference.
pub fn smoke_shard_report() -> ShardReport {
    let report = run_shard_bench(&[6, 10], &[1, 2, 4, 8], 60, 4);
    validate_shard(&report);
    report
}

/// Invariants every report must satisfy, smoke or full.
pub fn validate_shard(report: &ShardReport) {
    for case in &report.cases {
        assert!(
            case.selections_match,
            "{} cells / {} shards: top-θ selection diverged from the single-shard reference",
            case.cells, case.shards,
        );
        assert!(
            case.shards_touched >= case.shards as u64,
            "{} cells / {} shards: the warm-up full pass alone touches every shard \
             (counted {})",
            case.cells,
            case.shards,
            case.shards_touched,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_completes_and_matches_reference() {
        let report = smoke_shard_report();
        // Two grids × four shard counts.
        assert_eq!(report.cases.len(), 8);
        assert!(report.cases.iter().all(|c| c.selections_match));
        // Explicit shard counts are honored (216 and 1000 cells both stay
        // above 8 cells per shard, so no clamping).
        for &shards in &[1usize, 2, 4, 8] {
            assert!(report.cases.iter().any(|c| c.shards == shards));
        }
    }

    #[test]
    fn report_serializes() {
        let report = smoke_shard_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"speedup_vs_single\""));
        assert!(json.contains("\"selections_match\""));
    }
}
