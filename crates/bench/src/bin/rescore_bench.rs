//! Incremental vs. full index-point rescoring comparison.
//!
//! ```text
//! cargo run -p uei-bench --release --bin rescore_bench            # full run
//! cargo run -p uei-bench --release --bin rescore_bench -- --smoke # CI smoke
//! ```
//!
//! Writes `BENCH_rescore.json` (schema: `BENCH_SCHEMA.json`) to the
//! current directory, or to the path given with `--out`.

use std::path::PathBuf;

use uei_bench::rescore::{
    full_rescore_report, smoke_rescore_report, validate_rescore, RescoreReport,
};

fn print_report(report: &RescoreReport) {
    println!(
        "incremental vs. full index-point rescoring — {} rayon thread(s), \
         {}^5 grid, {} bootstrap examples\n",
        report.threads, report.cells_per_dim, report.bootstrap
    );
    println!(
        "{:<12} {:>8} {:>6} {:>12} {:>12} {:>10} {:>12} {:>12} {:>9} {:>10} {:>9}",
        "model",
        "points",
        "iters",
        "full-scored",
        "inc-scored",
        "reduction",
        "full",
        "incremental",
        "speedup",
        "identical",
        "fallbacks"
    );
    for c in &report.cases {
        println!(
            "{:<12} {:>8} {:>6} {:>12} {:>12} {:>9.2}x {:>10.2}us {:>10.2}us {:>8.2}x {:>10} {:>9}",
            c.model,
            c.n_points,
            c.iterations,
            c.points_rescored_full,
            c.points_rescored_incremental,
            c.reduction,
            c.full_ns as f64 / 1e3,
            c.incremental_ns as f64 / 1e3,
            c.speedup,
            c.identical,
            c.fallbacks,
        );
    }
    #[cfg(debug_assertions)]
    println!(
        "\nnote: debug build — every incremental pass also runs the full \
         cross-check, so the timing columns are meaningless here."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_rescore.json"));

    let report = if smoke { smoke_rescore_report() } else { full_rescore_report() };
    print_report(&report);
    validate_rescore(&report);

    let json = serde_json::to_vec_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("\n[saved {}]", out.display());
}
