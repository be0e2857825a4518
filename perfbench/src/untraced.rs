//! The untraced exploration phase: complete sessions through the public
//! `ExplorationSession` driver, each step timed from outside the program.

use std::time::Instant;

use uei_explore::{ExplorationSession, Oracle, UeiBackend};
use uei_types::Result;

use crate::workload::Workload;

/// Everything one analyst's untraced session yields.
#[derive(Debug, Clone)]
pub struct SessionRun {
    pub analyst: usize,
    /// Wall time of each `ExplorationSession::step` call, ms.
    pub step_ms: Vec<f64>,
    /// Modeled response time of each step, ms.
    pub virtual_ms: Vec<f64>,
    /// Steps whose selection degraded to the resident pool.
    pub degraded: u64,
    /// The labeled row ids in labeling order, bootstrap first.
    pub labeled_ids: Vec<u64>,
    pub final_f1: f64,
    /// `ExplorationSession::finish`: final retrain plus result retrieval.
    pub finish_s: f64,
    /// From `start` until the last step returned (seconds).
    pub explore_s: f64,
    /// The session stopped before its label budget or a call failed.
    pub aborted: Option<String>,
}

impl SessionRun {
    pub fn steps(&self) -> usize {
        self.step_ms.len()
    }
}

/// Folds the passes of every session into one run whose steps, exploration
/// and result retrieval each take their fastest pass; the rest is the first
/// pass's.
/// Every pass holds the same sessions with the same steps (`main::check`).
pub fn fastest(passes: &[Vec<SessionRun>]) -> Vec<SessionRun> {
    let mut runs = passes[0].clone();
    for pass in &passes[1..] {
        for (run, other) in runs.iter_mut().zip(pass) {
            for (ms, o) in run.step_ms.iter_mut().zip(&other.step_ms) {
                *ms = ms.min(*o);
            }
            run.explore_s = run.explore_s.min(other.explore_s);
            run.finish_s = run.finish_s.min(other.finish_s);
        }
    }
    runs
}

/// Runs one analyst's session to its label budget.
pub fn run_session(
    w: &Workload,
    seed: u64,
    analyst: usize,
    mut backend: UeiBackend,
    oracle: &Oracle,
) -> SessionRun {
    let mut run = SessionRun {
        analyst,
        step_ms: Vec::new(),
        virtual_ms: Vec::new(),
        degraded: 0,
        labeled_ids: Vec::new(),
        final_f1: f64::NAN,
        finish_s: 0.0,
        explore_s: 0.0,
        aborted: None,
    };
    if let Err(e) = drive(w, seed, analyst, &mut backend, oracle, &mut run) {
        run.aborted = Some(e.to_string());
    }
    run
}

fn drive(
    w: &Workload,
    seed: u64,
    analyst: usize,
    backend: &mut UeiBackend,
    oracle: &Oracle,
    run: &mut SessionRun,
) -> Result<()> {
    let tracker = backend.index().store().tracker().clone();
    let config = w.session_config(seed, analyst);
    let mut session = ExplorationSession::new(backend, oracle, config, tracker);
    let explore = Instant::now();
    let mut state = session.start()?;
    while state.labeled().len() < w.labels {
        let t = Instant::now();
        let more = session.step(&mut state)?;
        let dt = t.elapsed().as_secs_f64() * 1e3;
        if !more {
            return Err(uei_types::UeiError::invalid_state("candidate pool exhausted"));
        }
        run.step_ms.push(dt);
    }
    run.explore_s = explore.elapsed().as_secs_f64();
    for t in state.traces() {
        run.virtual_ms.push(t.response_virtual_ms);
        run.degraded += u64::from(t.counters.degraded);
    }
    run.labeled_ids = state.labeled().entries().iter().map(|(p, _)| p.id.as_u64()).collect();
    let t = Instant::now();
    let result = session.finish(state)?;
    run.finish_s = t.elapsed().as_secs_f64();
    run.final_f1 = result.final_f_measure;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(step_ms: &[f64], explore_s: f64, finish_s: f64) -> SessionRun {
        SessionRun {
            analyst: 0,
            step_ms: step_ms.to_vec(),
            virtual_ms: vec![1.0; step_ms.len()],
            degraded: 0,
            labeled_ids: vec![7, 8, 9],
            final_f1: 0.5,
            finish_s,
            explore_s,
            aborted: None,
        }
    }

    #[test]
    fn every_step_takes_its_fastest_pass() {
        let passes = vec![
            vec![run(&[3.0, 1.0, 5.0], 9.0, 0.2), run(&[2.0], 2.0, 0.4)],
            vec![run(&[2.0, 4.0, 5.0], 11.0, 0.1), run(&[6.0], 6.0, 0.3)],
        ];
        let runs = fastest(&passes);
        assert_eq!(runs[0].step_ms, vec![2.0, 1.0, 5.0]);
        assert_eq!((runs[0].explore_s, runs[0].finish_s), (9.0, 0.1));
        assert_eq!(runs[1].step_ms, vec![2.0]);
        assert_eq!((runs[1].explore_s, runs[1].finish_s), (2.0, 0.3));
    }
}
