//! End-to-end wall-clock benchmark of closed-loop UEI exploration.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload region-1m --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up the store and engine
//! several times (reporting the median), runs complete exploration sessions
//! in which a simulated analyst labels every example as soon as it is shown,
//! and checks the outputs. `--trace 0` prints the end-to-end metrics of the
//! untraced sessions; `--trace 1` also replays every session through the
//! traced loop and prints the per-layer breakdown. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md in this directory.

mod report;
mod trace;
mod traced;
mod untraced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use serde::Value;
use uei_explore::Oracle;
use uei_index::EngineCore;
use uei_types::{Result, UeiError};

use crate::report::{obj, percentile};
use crate::traced::{ReplaySplit, TracedRun};
use crate::untraced::SessionRun;
use crate::workload::{WorkDir, Workload, PASSES};

/// Seed used when `--seed` is absent. Seed 20210323 is held out from
/// tuning, reserved for confirming later performance claims (README.md).
const DEFAULT_SEED: u64 = 1;

/// Scratch space (stores) inside the checkout; removed per run.
const WORK_DIR: &str = ".bench_work";
/// Stamped results and Chrome traces.
const RESULTS_DIR: &str = ".bench_results";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 24;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` when a correctness check
/// failed.
fn run(args: &Args) -> Result<bool> {
    let w = args.workload;
    let seed = args.seed;
    let sessions = w.sessions(args.seconds);
    let work = WorkDir(Path::new(WORK_DIR).join(format!("{}-{}", w.name, std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| UeiError::io(&work.0, e))?;

    // Inputs: rows and one target per session, all from the seed. Neither
    // is part of set-up time.
    let t = Instant::now();
    let rows = w.generate_rows(seed);
    let oracles =
        (0..sessions).map(|a| w.oracle(&rows, seed, a)).collect::<Result<Vec<Oracle>>>()?;
    let inputs_s = t.elapsed().as_secs_f64();

    let mut setup = workload::set_up(w, &rows, seed, &work.0)?;
    let store_bytes = workload::dir_bytes(setup.store.dir());
    drop(rows);
    release_free_heap();
    reset_peak_rss();

    // Untraced exploration: the end-to-end metrics. The sessions run one
    // after another, `PASSES` times over; once when tracing, which reports
    // no end-to-end metric.
    let mut passes: Vec<Vec<SessionRun>> = Vec::new();
    for _ in 0..if args.trace { 1 } else { PASSES } {
        let mut runs = Vec::new();
        for (a, oracle) in oracles.iter().enumerate() {
            let backend = match setup.backend.take() {
                Some(b) => b,
                None => workload::open_backend(&setup.engine, w, seed, a)?,
            };
            runs.push(untraced::run_session(w, seed, a, backend, oracle));
        }
        passes.push(runs);
    }
    let peak_rss_mb = peak_rss_kb() as f64 / 1024.0;

    // Traced exploration on a fresh engine over the same store, so that its
    // cache starts as cold as the untraced run's did: every session when
    // tracing, else the first only, for the reproduction check.
    let traced_engine = EngineCore::new(Arc::clone(&setup.store), setup.config.clone())?;
    let epoch = Instant::now();
    let traced_runs: Vec<TracedRun> = (0..if args.trace { sessions } else { 1 })
        .map(|a| traced::run_session(w, seed, a, &traced_engine, &oracles[a], epoch))
        .collect();

    let mut checks = check(w, &passes, &traced_runs);
    let rows = w.generate_rows(seed);
    let regions_checked = traced::check_regions(&traced_engine, &rows, &traced_runs)
        .unwrap_or_else(|e| {
            checks.failures.push(e.to_string());
            0
        });
    drop(rows);

    let untraced_runs = untraced::fastest(&passes);
    let steps = untraced_runs.iter().map(SessionRun::steps).sum();
    let labels_per_s = report::labels_per_s(steps, untraced_runs.iter().map(|s| s.explore_s));
    let mut metrics = if args.trace {
        let split = replay_all(&traced_engine, &traced_runs, &mut checks.failures);
        let traced_steps = traced_runs.iter().map(|t| t.counters.steps as usize).sum();
        let traced_labels_per_s =
            report::labels_per_s(traced_steps, traced_runs.iter().map(|t| t.explore_s));
        // Tracing overhead against the first untraced pass, which, like the
        // traced run, ran every session once.
        let first_labels_per_s = report::labels_per_s(steps, passes[0].iter().map(|s| s.explore_s));
        report::per_layer(w, &setup, &traced_runs, split, traced_labels_per_s, first_labels_per_s)
    } else {
        let store_ratio = store_bytes as f64 / w.user_bytes() as f64;
        report::end_to_end(&setup, &untraced_runs, labels_per_s, peak_rss_mb, store_ratio)
    };
    for metric in &mut metrics {
        if !metric.value.is_finite() {
            checks.failures.push(format!("metric {} is not finite", metric.name));
            metric.value = 0.0;
        }
    }
    let correct = checks.failures.is_empty();
    let design = if args.trace { report::design_checks(w, &metrics) } else { Vec::new() };

    // Report: readable lines, the stamp, then the result line.
    let header = format!("perfbench {} seed={} trace={}", w.name, seed, u8::from(args.trace));
    println!("{header}");
    for metric in &metrics {
        println!("  {:<28} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    for (check, met) in &design {
        println!("  design: {check}: {}", if *met { "met" } else { "NOT MET" });
    }
    for f in &checks.failures {
        println!("  CHECK FAILED: {f}");
    }
    let metrics_json = report::metrics_json(&metrics);
    let params = w.params(args.seconds).into_iter().map(|(k, v)| (k, Value::Str(v))).collect();
    let stamp = obj(vec![
        ("workload", Value::Str(w.name.into())),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("params", obj(params)),
        ("env", report::env_stamp()),
        (
            "store",
            obj(vec![
                ("bytes_on_disk", Value::UInt(store_bytes)),
                ("chunk_bytes", Value::UInt(setup.store.manifest().total_chunk_bytes())),
                ("cache_bytes", Value::UInt(setup.config.chunk_cache_bytes as u64)),
            ]),
        ),
        (
            "samples",
            obj(vec![
                ("steps", Value::UInt(steps as u64)),
                ("sessions", Value::UInt(untraced_runs.len() as u64)),
                ("setup_repeats", Value::UInt(setup.total_s.len() as u64)),
                ("traced_sessions", Value::UInt(traced_runs.len() as u64)),
                ("regions_checked", Value::UInt(regions_checked as u64)),
            ]),
        ),
        ("passes", Value::Array(passes.iter().map(|runs| pass_json(runs)).collect())),
        ("inputs_s", Value::Float(inputs_s)),
        ("final_f1", Value::Float(report::mean_f1(untraced_runs.iter().map(|s| s.final_f1)))),
        (
            "design_checks",
            Value::Array(
                design
                    .iter()
                    .map(|(check, met)| {
                        obj(vec![("check", Value::Str(check.clone())), ("met", Value::Bool(*met))])
                    })
                    .collect(),
            ),
        ),
        ("failures", Value::Array(checks.failures.iter().cloned().map(Value::Str).collect())),
        ("metrics", metrics_json.clone()),
    ]);
    println!("{}", serde_json::to_string(&stamp).expect("serializable"));

    // The result file also holds every session's figures.
    let mut record = stamp;
    if let Value::Object(fields) = &mut record {
        let sessions = untraced_runs.iter().map(session_json).collect();
        fields.push(("sessions".into(), Value::Array(sessions)));
    }
    let results = PathBuf::from(RESULTS_DIR);
    let base = format!("{}-seed{}-trace{}", w.name, seed, u8::from(args.trace));
    report::write_json(&results.join(format!("{base}.json")), &record)?;
    if args.trace {
        let logs: Vec<&[trace::Span]> = traced_runs.iter().map(|t| t.spans.as_slice()).collect();
        let chrome = trace::chrome_trace(&header, &logs);
        report::write_json(&results.join(format!("{base}.chrome.json")), &chrome)?;
    }
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(checks.attempted)),
        ("failed", Value::UInt(checks.failed)),
        ("metrics", metrics_json),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    Ok(correct)
}

/// Outcome of the session-level correctness checks.
struct Checks {
    attempted: u64,
    /// Steps that did not complete, plus degraded ones.
    failed: u64,
    failures: Vec<String>,
}

/// Every session of every pass reached its label budget without a degraded
/// step, every pass labeled what the first labeled, and the traced loop
/// labeled exactly that too, with a bit-identical final F-measure.
fn check(w: &Workload, passes: &[Vec<SessionRun>], traced: &[TracedRun]) -> Checks {
    let planned = w.steps_per_session() as u64;
    let untraced = passes.iter().map(Vec::len).sum::<usize>();
    let mut c = Checks {
        attempted: planned * (untraced + traced.len()) as u64,
        failed: 0,
        failures: Vec::new(),
    };
    let first = &passes[0];
    for (p, pass) in passes.iter().enumerate() {
        for (s, u) in pass.iter().zip(first) {
            c.failed += planned.saturating_sub(s.steps() as u64) + s.degraded;
            if let Some(e) = &s.aborted {
                c.failures.push(format!("untraced analyst {} aborted: {e}", s.analyst));
            } else if s.degraded > 0 {
                c.failures
                    .push(format!("untraced analyst {}: {} degraded steps", s.analyst, s.degraded));
            } else if s.labeled_ids != u.labeled_ids || s.final_f1.to_bits() != u.final_f1.to_bits()
            {
                c.failures.push(format!(
                    "untraced analyst {} pass {p}: other rows or F1 than pass 0",
                    s.analyst
                ));
            }
        }
    }
    for t in traced {
        c.failed += planned.saturating_sub(t.counters.steps);
        let u = &first[t.analyst];
        if let Some(e) = &t.aborted {
            c.failures.push(format!("traced analyst {} aborted: {e}", t.analyst));
        } else if t.labeled_ids != u.labeled_ids {
            c.failures
                .push(format!("traced analyst {} labeled other rows than untraced", t.analyst));
        } else if t.final_f1.to_bits() != u.final_f1.to_bits() {
            c.failures.push(format!(
                "traced analyst {} final F1 {} != untraced {}",
                t.analyst, t.final_f1, u.final_f1
            ));
        }
    }
    c
}

fn replay_all(engine: &EngineCore, runs: &[TracedRun], failures: &mut Vec<String>) -> ReplaySplit {
    let mut total = ReplaySplit::default();
    for run in runs {
        match traced::replay(engine, &run.loads) {
            Ok(s) => {
                total.fetch_ns += s.fetch_ns;
                total.merge_ns += s.merge_ns;
                total.release_ns += s.release_ns;
            }
            Err(e) => failures.push(e.to_string()),
        }
    }
    total
}

/// One untraced pass's own figures, before passes are folded.
fn pass_json(runs: &[SessionRun]) -> Value {
    let steps: Vec<f64> = runs.iter().flat_map(|s| s.step_ms.iter().copied()).collect();
    let finish: Vec<f64> = runs.iter().map(|s| s.finish_s).collect();
    obj(vec![
        ("step_p50_ms", Value::Float(percentile(&steps, 0.5))),
        ("step_p90_ms", Value::Float(percentile(&steps, 0.9))),
        (
            "labels_per_s",
            Value::Float(report::labels_per_s(steps.len(), runs.iter().map(|s| s.explore_s))),
        ),
        ("result_s", Value::Float(report::median(&finish))),
    ])
}

fn session_json(s: &SessionRun) -> Value {
    obj(vec![
        ("analyst", Value::UInt(s.analyst as u64)),
        ("steps", Value::UInt(s.steps() as u64)),
        ("step_p50_ms", Value::Float(percentile(&s.step_ms, 0.5))),
        ("explore_s", Value::Float(s.explore_s)),
        ("finish_s", Value::Float(s.finish_s)),
        ("final_f1", Value::Float(s.final_f1)),
    ])
}

/// Returns freed heap pages to the OS, so that the peak resident set
/// measured from here on counts live memory, not what set-up and the
/// dropped input rows left cached in the allocator.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain byte count, only
        // touches the allocator's own free lists, and may be called at any
        // time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the peak resident set (`VmHWM`) to the current one.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_holds_enough_steps_for_p90() {
        for w in workload::WORKLOADS {
            for seconds in [1, 12, 60] {
                let steps = w.sessions(seconds) * w.steps_per_session();
                assert!(steps >= workload::MIN_STEPS, "{} at {seconds}s: {steps}", w.name);
            }
        }
    }
}
