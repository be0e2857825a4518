//! In-memory span recording for the traced run, self times, and export as
//! Chrome trace-event JSON (opened by Perfetto and chrome://tracing).
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! the program itself is not instrumented. A span's layer is the part of
//! its name before the first `.` (`storage.region_load` → `storage`).

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

use crate::report::obj;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`SpanLog`].
    pub parent: Option<usize>,
    pub analyst: usize,
    pub step: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The spans of one analyst thread. Spans nest through an explicit stack,
/// so a span opened inside another records it as its parent.
pub struct SpanLog {
    epoch: Instant,
    analyst: usize,
    step: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(epoch: Instant, analyst: usize) -> SpanLog {
        SpanLog { epoch, analyst, step: 0, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.push(name, self.now_ns(), 0);
        self.open.push(idx);
        idx
    }

    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Records an already measured interval as a child of span `parent`.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: usize) {
        let idx = self.push(name, start_ns, end_ns);
        self.spans[idx].parent = Some(parent);
    }

    /// Duration of a closed span.
    pub fn dur_ns(&self, idx: usize) -> u64 {
        self.spans[idx].dur_ns()
    }

    /// End of a closed span.
    pub fn end_ns(&self, idx: usize) -> u64 {
        self.spans[idx].end_ns
    }

    /// The innermost open span.
    pub fn innermost(&self) -> Option<usize> {
        self.open.last().copied()
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span must be closed");
        self.spans
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            analyst: self.analyst,
            step: self.step,
        });
        self.spans.len() - 1
    }
}

/// Self time of every span of one log: its duration minus the part of its
/// interval that its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time per span name, over every analyst's log.
pub fn self_time_by_name(logs: &[&[Span]]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for spans in logs {
        for (s, t) in spans.iter().zip(self_times_ns(spans)) {
            *out.entry(s.name).or_insert(0) += t;
        }
    }
    out
}

/// Chrome trace-event JSON: one pid for the run, one tid per analyst,
/// complete (`X`) events in microseconds with the step id and self time in
/// `args`.
pub fn chrome_trace(run_name: &str, logs: &[&[Span]]) -> Value {
    let mut events = vec![obj(vec![
        ("name", Value::Str("process_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(1)),
        ("args", obj(vec![("name", Value::Str(run_name.into()))])),
    ])];
    for spans in logs {
        let Some(first) = spans.first() else { continue };
        events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(first.analyst as u64)),
            ("args", obj(vec![("name", Value::Str(format!("analyst {}", first.analyst)))])),
        ]));
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            events.push(obj(vec![
                ("name", Value::Str(s.name.into())),
                ("cat", Value::Str(s.layer().into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(s.analyst as u64)),
                ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                ("dur", Value::Float(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    obj(vec![
                        ("step", Value::UInt(s.step)),
                        ("self_us", Value::Float(self_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    obj(vec![("traceEvents", Value::Array(events)), ("displayTimeUnit", Value::Str("ms".into()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "x.y", start_ns, end_ns, parent, analyst: 0, step: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the previous child
            span(90, 120, Some(0)), // runs past the parent's end
            span(15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 25, 30, 30, 5]);
    }
}
