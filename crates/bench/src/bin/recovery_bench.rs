//! Journal overhead and crash-recovery speed.
//!
//! ```text
//! cargo run -p uei-bench --release --bin recovery_bench            # full run
//! cargo run -p uei-bench --release --bin recovery_bench -- --smoke # CI smoke
//! ```
//!
//! Writes `BENCH_recovery.json` (schema: `BENCH_SCHEMA.json`) to the
//! current directory, or to the path given with `--out`.

use std::path::PathBuf;

use uei_bench::recovery::{
    full_recovery_report, smoke_recovery_report, validate_recovery, RecoveryReport,
};

fn print_report(report: &RecoveryReport) {
    println!(
        "session journal overhead and crash recovery — {} rows, {} labels, γ = {}, \
         fsync {}, snapshot every {}, {} interleaved pairs, recovery best of {}\n",
        report.dataset_rows,
        report.max_labels,
        report.gamma,
        report.fsync,
        report.snapshot_every,
        report.pairs,
        report.repeats
    );
    println!(
        "clean path:  plain {:>9.2} ms   journaled {:>9.2} ms   overhead {:>+6.2}% median, \
         IQR {:.2} points  ({} journal writes)",
        report.plain_wall_ms,
        report.journaled_wall_ms,
        report.overhead_pct,
        report.overhead_iqr_pct,
        report.journal_writes
    );
    println!(
        "crash @ op {:>3}: recover-and-finish {:>9.2} ms   full re-run {:>9.2} ms   \
         speedup {:>5.2}x   identical: {}",
        report.crash_op,
        report.recovery_wall_ms,
        report.full_rerun_wall_ms,
        report.recovery_speedup,
        report.recovered_identical
    );
    #[cfg(debug_assertions)]
    println!(
        "\nnote: debug build — iteration compute dominates, so the overhead \
         percentage is not representative here."
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
        .unwrap_or_else(|| PathBuf::from("BENCH_recovery.json"));

    let report = if smoke { smoke_recovery_report() } else { full_recovery_report() };
    print_report(&report);
    validate_recovery(&report);

    let json = serde_json::to_vec_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("\n[saved {}]", out.display());
}
