//! Metrics from the measured sessions, the design checks, and the stamp
//! recorded with every result.

use std::path::Path;
use std::process::Command;

use serde::Value;
use uei_index::LoadSource;
use uei_types::{Result, UeiError};

use crate::trace;
use crate::traced::{Counters, LoadRecord, ReplaySplit, TracedRun};
use crate::untraced::SessionRun;
use crate::workload::{Setup, Workload, SIGMA_MS};

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON object with fields in the given order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn metrics_json(metrics: &[Metric]) -> Value {
    obj(metrics
        .iter()
        .map(|x| {
            (
                x.name,
                obj(vec![("value", Value::Float(x.value)), ("unit", Value::Str(x.unit.into()))]),
            )
        })
        .collect())
}

/// Labels acquired by steps ÷ wall time of the sessions' exploration
/// phases (`start` through the last step).
pub fn labels_per_s(steps: usize, explore_s: impl Iterator<Item = f64>) -> f64 {
    steps as f64 / explore_s.sum::<f64>()
}

/// The end-to-end metrics of the untraced sessions.
pub fn end_to_end(
    setup: &Setup,
    runs: &[SessionRun],
    labels_per_s: f64,
    peak_rss_mb: f64,
    store_bytes_per_user_byte: f64,
) -> Vec<Metric> {
    let steps: Vec<f64> = runs.iter().flat_map(|s| s.step_ms.iter().copied()).collect();
    let virt: Vec<f64> = runs.iter().flat_map(|s| s.virtual_ms.iter().copied()).collect();
    let finish: Vec<f64> = runs.iter().map(|s| s.finish_s).collect();
    let within_sigma = steps.iter().filter(|&&s| s <= SIGMA_MS).count();
    vec![
        m("setup_s", median(&setup.total_s), "s"),
        m("step_p50_ms", percentile(&steps, 0.5), "ms"),
        m("step_p90_ms", percentile(&steps, 0.9), "ms"),
        m("virtual_mean_ms", mean(&virt), "ms"),
        m("labels_per_s", labels_per_s, "1/s"),
        m("result_s", median(&finish), "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("within_sigma_ratio", within_sigma as f64 / steps.len() as f64, "ratio"),
        m("store_bytes_per_user_byte", store_bytes_per_user_byte, "ratio"),
    ]
}

/// The per-layer breakdown of the traced sessions. Times are ms per step
/// (run total ÷ steps) and add up to `explore.step_ms`, except the
/// retrieval times, which are ms per result retrieval; counts are per step.
pub fn per_layer(
    w: &Workload,
    setup: &Setup,
    runs: &[TracedRun],
    split: ReplaySplit,
    traced_labels_per_s: f64,
    untraced_labels_per_s: f64,
) -> Vec<Metric> {
    let logs: Vec<&[trace::Span]> = runs.iter().map(|r| r.spans.as_slice()).collect();
    let self_ns = trace::self_time_by_name(&logs);
    let mut c = Counters::default();
    for r in runs {
        c.add(&r.counters);
    }
    let steps = c.steps.max(1) as f64;
    let self_ms = |name: &str| *self_ns.get(name).unwrap_or(&0) as f64 / 1e6;
    let per_step_ms = |name: &str| self_ms(name) / steps;
    let per_retrieval_ms = |name: &str| self_ms(name) / c.retrievals.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Foreground loads: the ones a step waited for.
    let sync: Vec<&LoadRecord> = runs
        .iter()
        .flat_map(|r| &r.loads)
        .filter(|l| l.source == LoadSource::Synchronous)
        .collect();
    let sum = |f: fn(&LoadRecord) -> f64| sync.iter().map(|l| f(l)).sum::<f64>();
    let load_wall = sum(|l| l.stats.wall_time.as_secs_f64());
    let load_virtual = sum(|l| l.stats.virtual_time.as_secs_f64());

    let refit = per_step_ms("learn.refit");
    let rescore = per_step_ms("index.rescore");
    let select = per_step_ms("index.select");
    let region_load = per_step_ms("storage.region_load");
    let pool_select = per_step_ms("learn.pool_select");
    let other = per_step_ms("explore.step")
        + per_step_ms("explore.pool_swap")
        + per_step_ms("explore.oracle");
    let step = refit + rescore + select + region_load + pool_select + other;
    let ns_per_step_ms = |ns: u64| ns as f64 / 1e6 / steps;
    vec![
        m("explore.step_ms", step, "ms"),
        m("storage.region_load_ms", region_load, "ms"),
        m("storage.fetch_ms", ns_per_step_ms(split.fetch_ns), "ms"),
        m("storage.merge_ms", ns_per_step_ms(split.merge_ns), "ms"),
        m("storage.release_ms", ns_per_step_ms(split.release_ns), "ms"),
        m(
            "storage.merge_yield",
            ratio(
                sum(|l| l.stats.merge.result_rows as f64),
                sum(|l| l.stats.merge.seed_candidates as f64),
            ),
            "ratio",
        ),
        m("storage.id_updates", sum(|l| l.stats.merge.id_updates as f64) / steps, "count"),
        m("storage.wall_over_virtual", ratio(load_wall, load_virtual), "ratio"),
        m("storage.chunks_loaded", sum(|l| l.stats.merge.chunks_loaded as f64) / steps, "count"),
        m("storage.chunks_reused", sum(|l| l.stats.merge.chunks_reused as f64) / steps, "count"),
        m("storage.bytes_read", c.bytes_read as f64 / steps, "B"),
        m("storage.seeks", c.seeks as f64 / steps, "count"),
        m("storage.cache_hit_ratio", ratio(c.cache_hits as f64, c.cache_lookups as f64), "ratio"),
        m("storage.cache_evictions", c.cache_evictions as f64 / steps, "count"),
        m("storage.build_s", median(&setup.build_s), "s"),
        m("storage.scan_ms", per_retrieval_ms("storage.scan"), "ms"),
        m("index.rescore_ms", rescore, "ms"),
        m("index.points_rescored", c.points_rescored as f64 / steps, "count"),
        m(
            "index.rescore_ratio",
            c.points_rescored as f64 / (w.index_points() as f64 * steps),
            "ratio",
        ),
        m("index.shards_pruned", c.shards_pruned as f64 / steps, "count"),
        m("index.select_ms", select, "ms"),
        m("index.engine_open_s", median(&setup.open_s), "s"),
        m("learn.refit_ms", refit, "ms"),
        m("learn.pool_select_ms", pool_select, "ms"),
        m("learn.pool_size", c.pool_size as f64 / steps, "count"),
        m("learn.retrieve_score_ms", per_retrieval_ms("learn.retrieve_score"), "ms"),
        m("explore.other_ms", other, "ms"),
        m("explore.final_f1", mean_f1(runs.iter().map(|r| r.final_f1)), "ratio"),
        m("obs.trace_overhead", 1.0 - ratio(traced_labels_per_s, untraced_labels_per_s), "ratio"),
    ]
}

/// The shares of the mean traced step that confirm what each workload was
/// chosen to exercise. Reported, not enforced: they describe the program on
/// this input, not its correctness.
pub fn design_checks(w: &Workload, metrics: &[Metric]) -> Vec<(String, bool)> {
    let get = |name: &str| metrics.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let step = get("explore.step_ms");
    let storage = get("storage.region_load_ms") / step;
    let index = (get("index.rescore_ms") + get("index.select_ms")) / step;
    let other = get("explore.other_ms") / step;
    let check = |layer: &str, share: f64, above: bool, bound: f64| {
        let op = if above { ">" } else { "<" };
        let met = if above { share > bound } else { share < bound };
        (format!("{layer} {:.1} % of the step {op} {:.0} %", 100.0 * share, 100.0 * bound), met)
    };
    let mut checks = vec![check("explore.other", other, false, 0.10)];
    match w.name {
        "region-1m" => {
            checks.push(check("storage", storage, true, 0.5));
            checks.push(check("index", index, false, 0.05));
        }
        "grid-100k" => {
            checks.push(check("index", index, true, 0.5));
            checks.push(check("storage", storage, false, 0.25));
        }
        _ => {}
    }
    checks
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Mean exact final F-measure over sessions. Deterministic per seed, so it
/// moves only when selections change; it varies too much from seed to seed
/// (per-session coefficient of variation ~0.3) to carry a regression bound.
pub fn mean_f1(f1: impl Iterator<Item = f64>) -> f64 {
    mean(&f1.collect::<Vec<_>>())
}

/// Host and build facts recorded with every result.
pub fn env_stamp() -> Value {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = cmd("git", &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| cmd("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || Value::Str("unknown".into());
    obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("rustc", cmd("rustc", &["-V"]).map_or_else(unknown, Value::Str)),
        ("git_rev", rev.map_or_else(unknown, Value::Str)),
        ("git_dirty", dirty.map_or_else(unknown, Value::Bool)),
    ])
}

pub fn write_json(path: &Path, value: &Value) -> Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| UeiError::io(dir, e))?;
    }
    let text = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(path, text).map_err(|e| UeiError::io(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
