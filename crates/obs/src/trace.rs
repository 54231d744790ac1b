//! The recording observer: everything a run reports, kept in memory.

use crate::accounting;
use crate::observer::{
    InferenceObserver, IterationRecord, ObsEvent, RunInfo, RunSummary, SpanKind,
};
use std::sync::{Mutex, MutexGuard};

/// The complete record of one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Run metadata.
    pub info: RunInfo,
    /// One record per BP iteration, in order.
    pub iterations: Vec<IterationRecord>,
    /// Timed phases, in completion order.
    pub spans: Vec<(SpanKind, f64)>,
    /// Structured events, in emission order.
    pub events: Vec<ObsEvent>,
    /// Final verdict; `None` if the run never finished.
    pub summary: Option<RunSummary>,
}

impl RunTrace {
    /// Per-iteration max residuals — the convergence curve most analyses
    /// want. `NaN`-free by construction when residuals were recorded.
    pub fn residual_curve(&self) -> Vec<f64> {
        self.iterations
            .iter()
            .filter_map(IterationRecord::max_residual)
            .collect()
    }
}

/// An [`InferenceObserver`] that records every callback into [`RunTrace`]s.
///
/// Interior mutability behind a mutex lets the synchronous-schedule rayon
/// path report from worker threads. The observer is designed for
/// *sequential* runs (one BP run at a time, any number of them back to
/// back); concurrent runs reporting into one `TraceObserver` interleave
/// their records into whichever run started last. The evaluation runner
/// therefore attaches one `TraceObserver` per trial.
#[derive(Debug, Default)]
pub struct TraceObserver {
    runs: Mutex<Vec<RunTrace>>,
}

impl TraceObserver {
    /// A fresh, empty observer.
    pub fn new() -> Self {
        TraceObserver::default()
    }

    /// Locks the record store; a poisoned lock (a panicking reporter) is
    /// recovered since every mutation keeps the records consistent.
    fn locked(&self) -> MutexGuard<'_, Vec<RunTrace>> {
        self.runs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Snapshot of all recorded runs.
    pub fn runs(&self) -> Vec<RunTrace> {
        self.locked().clone()
    }

    /// Removes and returns all recorded runs, leaving the observer empty.
    pub fn take_runs(&self) -> Vec<RunTrace> {
        std::mem::take(&mut *self.locked())
    }

    /// The most recently started run, if any.
    pub fn last_run(&self) -> Option<RunTrace> {
        self.locked().last().cloned()
    }

    /// Number of recorded runs.
    pub fn run_count(&self) -> usize {
        self.locked().len()
    }
}

impl InferenceObserver for TraceObserver {
    fn wants_residuals(&self) -> bool {
        true
    }

    fn on_run_start(&self, info: &RunInfo) {
        self.locked().push(RunTrace {
            info: *info,
            iterations: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
            summary: None,
        });
    }

    fn on_iteration(&self, record: &IterationRecord) {
        accounting::note_iteration_record();
        if let Some(run) = self.locked().last_mut() {
            run.iterations.push(record.clone());
        }
    }

    fn on_span(&self, span: SpanKind, secs: f64) {
        if let Some(run) = self.locked().last_mut() {
            run.spans.push((span, secs));
        }
    }

    fn on_event(&self, event: &ObsEvent) {
        if let Some(run) = self.locked().last_mut() {
            run.events.push(event.clone());
        }
    }

    fn on_run_end(&self, summary: &RunSummary) {
        if let Some(run) = self.locked().last_mut() {
            run.summary = Some(*summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NodeResidual;
    use wsnloc_net::accounting::CommStats;

    fn info() -> RunInfo {
        RunInfo {
            backend: "particle",
            nodes: 10,
            free: 8,
            edges: 12,
            max_iterations: 5,
            tolerance: 1.0,
            damping: 0.0,
            schedule: "synchronous",
            message_bytes: 24,
            seed: 7,
        }
    }

    fn iteration(i: usize, residual: f64) -> IterationRecord {
        IterationRecord {
            iteration: i,
            max_shift: residual,
            comm: CommStats {
                messages: 8,
                bytes: 192,
            },
            damping: 0.0,
            schedule: "synchronous",
            secs: 0.0,
            residuals: vec![NodeResidual {
                node: 1,
                residual,
                kl: None,
            }],
        }
    }

    #[test]
    fn records_a_full_run() {
        let obs = TraceObserver::new();
        obs.on_run_start(&info());
        obs.on_span(SpanKind::PriorInit, 0.01);
        obs.on_iteration(&iteration(0, 3.0));
        obs.on_iteration(&iteration(1, 1.0));
        obs.on_event(&ObsEvent::GridUniformFallback {
            edge: 3,
            stage: "kernel",
        });
        obs.on_run_end(&RunSummary {
            iterations: 2,
            converged: true,
            comm: CommStats {
                messages: 16,
                bytes: 384,
            },
        });

        let runs = obs.runs();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.iterations.len(), 2);
        assert_eq!(run.residual_curve(), vec![3.0, 1.0]);
        assert_eq!(run.spans, vec![(SpanKind::PriorInit, 0.01)]);
        assert_eq!(run.events.len(), 1);
        assert_eq!(run.summary.map(|s| s.converged), Some(true));
    }

    #[test]
    fn separates_sequential_runs() {
        let obs = TraceObserver::new();
        obs.on_run_start(&info());
        obs.on_iteration(&iteration(0, 2.0));
        obs.on_run_start(&info());
        obs.on_iteration(&iteration(0, 5.0));
        assert_eq!(obs.run_count(), 2);
        let runs = obs.take_runs();
        assert_eq!(runs[0].iterations.len(), 1);
        assert_eq!(runs[1].residual_curve(), vec![5.0]);
        assert_eq!(obs.run_count(), 0);
    }

    #[test]
    fn callbacks_before_run_start_are_dropped() {
        let obs = TraceObserver::new();
        obs.on_iteration(&iteration(0, 1.0));
        obs.on_span(SpanKind::ModelBuild, 0.1);
        assert_eq!(obs.run_count(), 0);
    }

    #[test]
    fn trace_observer_wants_residuals() {
        assert!(TraceObserver::new().wants_residuals());
    }
}
