//! The aggregation observer: folds every observer callback into
//! per-iteration and per-run metrics.
//!
//! [`MetricsObserver`] implements [`InferenceObserver`] over two parts:
//!
//! - a private [`WindowedMetrics`] store, whose observer impl is the one
//!   mapping of callbacks onto run totals (runs, iterations, messages,
//!   fault and stream events, iteration-second and residual histograms);
//! - a mutex-guarded fold of what the store does not keep: exact
//!   per-iteration residual pools, communication and fault counts keyed
//!   by the *event's own* iteration field, and span totals by label.
//!
//! The fold is deliberately **order-insensitive within a run**: fault
//! events carry their iteration index, span seconds accumulate by
//! label, and residual quantiles are computed from sorted pools at
//! snapshot time. That is the property that makes `repro analyze` on a
//! recorded trace.jsonl reproduce the live run's snapshot bit for bit,
//! even though serialization regroups records (iterations, then spans,
//! then events).
//!
//! [`MetricsObserver::snapshot`] freezes the fold into a
//! [`MetricsSnapshot`] — a plain comparable value with table renderers
//! ([`MetricsSnapshot::convergence_table`],
//! [`MetricsSnapshot::fault_table`]) — and
//! [`MetricsSnapshot::merge`] combines per-trial snapshots exactly
//! (residual pools concatenate, counts sum, quantiles recompute).

use crate::metrics::Fact;
use crate::observer::{
    InferenceObserver, IterationRecord, ObsEvent, RunInfo, RunSummary, SpanKind,
};
use crate::window::WindowedMetrics;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Totals of every structured [`ObsEvent`] kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Directed-link messages lost to the fault transport.
    pub dropped_messages: u64,
    /// Directed links that delivered stale (duplicate) content.
    pub stale_messages: u64,
    /// Nodes that died under the fault plan.
    pub node_deaths: u64,
    /// MAP→MMSE estimator fallbacks.
    pub map_fallbacks: u64,
    /// Grid messages that collapsed to the uniform fallback.
    pub grid_uniform_fallbacks: u64,
    /// Evaluation thread-pool build failures.
    pub pool_fallbacks: u64,
    /// Streaming-tenant epochs advanced (BP ran).
    pub epoch_advances: u64,
    /// Streaming-tenant epochs shed under overload (coasted, no BP).
    pub tenants_shed: u64,
    /// Correlation-context stamps (tenant/epoch/shard/round markers).
    pub contexts: u64,
    /// Sharded outer-round boundary exchanges (one per shard per round).
    pub boundary_exchanges: u64,
    /// Cross-shard belief messages delivered at boundary exchanges.
    pub boundary_messages: u64,
    /// Free-form notes.
    pub notes: u64,
}

/// Aggregates for one iteration index, pooled over every run that
/// reached it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationMetrics {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Runs that executed this iteration.
    pub runs: u64,
    /// Belief broadcasts this iteration, summed over runs.
    pub messages: u64,
    /// Wire bytes this iteration, summed over runs.
    pub bytes: u64,
    /// Messages dropped by the fault transport at this iteration.
    pub dropped: u64,
    /// Stale deliveries at this iteration.
    pub stale: u64,
    /// Node deaths at this iteration.
    pub deaths: u64,
    /// Runs that measured a finite `max_shift` here (a sharded run's
    /// first round has no baseline and reports infinity).
    pub shifts: u64,
    /// Sum of the finite per-run `max_shift`s (divide by `shifts` for
    /// the mean).
    pub max_shift_sum: f64,
    /// Pooled per-node residuals across runs, in arrival order. Kept so
    /// snapshots merge exactly; quantiles below derive from it.
    pub residuals: Vec<f64>,
    /// Median pooled residual, when residuals were recorded.
    pub residual_q50: Option<f64>,
    /// 90th-percentile pooled residual.
    pub residual_q90: Option<f64>,
    /// Largest pooled residual.
    pub residual_max: Option<f64>,
}

impl IterationMetrics {
    /// Mean `max_shift` over the runs that measured one here; NaN when
    /// none did.
    #[must_use]
    pub fn mean_max_shift(&self) -> f64 {
        if self.shifts == 0 {
            f64::NAN
        } else {
            self.max_shift_sum / self.shifts as f64
        }
    }

    fn finalize_quantiles(&mut self) {
        let mut sorted = self.residuals.clone();
        sorted.sort_by(f64::total_cmp);
        self.residual_q50 = quantile(&sorted, 0.50);
        self.residual_q90 = quantile(&sorted, 0.90);
        self.residual_max = sorted.last().copied();
    }
}

/// Nearest-rank quantile of an ascending-sorted slice: the smallest
/// value with at least `ceil(q·n)` values at or below it.
pub(crate) fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// A frozen, comparable aggregate of everything a [`MetricsObserver`]
/// saw. Two snapshots are equal iff every counter, pooled residual, and
/// span total matches — the equality the trace-replay round-trip test
/// asserts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Inference runs started.
    pub runs: u64,
    /// Runs that converged before their iteration cap.
    pub converged_runs: u64,
    /// Iterations executed across all runs.
    pub iterations: u64,
    /// Belief broadcasts across all runs.
    pub messages: u64,
    /// Wire bytes across all runs.
    pub bytes: u64,
    /// Structured-event totals.
    pub events: EventCounts,
    /// Per-iteration aggregates, index = iteration.
    pub per_iteration: Vec<IterationMetrics>,
    /// Per-phase wall-clock totals `(label, total_secs, calls)`, sorted
    /// by label.
    pub span_secs: Vec<(String, f64, u64)>,
}

impl MetricsSnapshot {
    /// Exactly merges snapshots (typically one per trial): counts sum,
    /// residual pools concatenate in order, quantiles recompute.
    #[must_use]
    pub fn merge(parts: &[MetricsSnapshot]) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for p in parts {
            out.runs += p.runs;
            out.converged_runs += p.converged_runs;
            out.iterations += p.iterations;
            out.messages += p.messages;
            out.bytes += p.bytes;
            let e = &mut out.events;
            e.dropped_messages += p.events.dropped_messages;
            e.stale_messages += p.events.stale_messages;
            e.node_deaths += p.events.node_deaths;
            e.map_fallbacks += p.events.map_fallbacks;
            e.grid_uniform_fallbacks += p.events.grid_uniform_fallbacks;
            e.pool_fallbacks += p.events.pool_fallbacks;
            e.epoch_advances += p.events.epoch_advances;
            e.tenants_shed += p.events.tenants_shed;
            e.contexts += p.events.contexts;
            e.boundary_exchanges += p.events.boundary_exchanges;
            e.boundary_messages += p.events.boundary_messages;
            e.notes += p.events.notes;
            if out.per_iteration.len() < p.per_iteration.len() {
                out.per_iteration
                    .resize_with(p.per_iteration.len(), IterationMetrics::default);
            }
            for (i, it) in p.per_iteration.iter().enumerate() {
                let acc = &mut out.per_iteration[i];
                acc.iteration = i;
                acc.runs += it.runs;
                acc.messages += it.messages;
                acc.bytes += it.bytes;
                acc.dropped += it.dropped;
                acc.stale += it.stale;
                acc.deaths += it.deaths;
                acc.shifts += it.shifts;
                acc.max_shift_sum += it.max_shift_sum;
                acc.residuals.extend_from_slice(&it.residuals);
            }
            for (label, secs, calls) in &p.span_secs {
                match out.span_secs.iter_mut().find(|(l, _, _)| l == label) {
                    Some((_, s, c)) => {
                        *s += secs;
                        *c += calls;
                    }
                    None => out.span_secs.push((label.clone(), *secs, *calls)),
                }
            }
        }
        for it in &mut out.per_iteration {
            it.finalize_quantiles();
        }
        out.span_secs.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The convergence curve as an aligned text table: per iteration,
    /// how many runs reached it, residual quantiles, mean belief shift,
    /// and communication volume.
    #[must_use]
    pub fn convergence_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
            "iter", "runs", "res_q50", "res_q90", "res_max", "mean_shift", "msgs", "bytes"
        );
        for it in &self.per_iteration {
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>12} {:>12} {:>12} {:>12.4} {:>10} {:>12}",
                it.iteration,
                it.runs,
                fmt_opt(it.residual_q50),
                fmt_opt(it.residual_q90),
                fmt_opt(it.residual_max),
                it.mean_max_shift(),
                it.messages,
                it.bytes
            );
        }
        out
    }

    /// Fault impact per iteration: drop counts and rates, stale
    /// deliveries, node deaths. Rates are relative to the messages the
    /// iteration actually carried plus the ones it lost.
    #[must_use]
    pub fn fault_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>10} {:>9} {:>10} {:>7} {:>7}",
            "iter", "runs", "msgs", "dropped", "drop_rate", "stale", "deaths"
        );
        for it in &self.per_iteration {
            let offered = it.messages + it.dropped;
            let rate = if offered > 0 {
                it.dropped as f64 / offered as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>10} {:>9} {:>9.1}% {:>7} {:>7}",
                it.iteration,
                it.runs,
                it.messages,
                it.dropped,
                100.0 * rate,
                it.stale,
                it.deaths
            );
        }
        let e = &self.events;
        let _ = writeln!(
            out,
            "totals: dropped={} stale={} deaths={} map_fallbacks={} grid_fallbacks={} pool_fallbacks={}",
            e.dropped_messages,
            e.stale_messages,
            e.node_deaths,
            e.map_fallbacks,
            e.grid_uniform_fallbacks,
            e.pool_fallbacks
        );
        out
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4}"),
        None => "-".to_owned(),
    }
}

/// The half of the fold the store does not keep.
#[derive(Debug, Default)]
struct FoldState {
    per_iter: Vec<IterationMetrics>,
    spans: Vec<(&'static str, f64, u64)>,
}

impl FoldState {
    fn at(&mut self, iteration: usize) -> &mut IterationMetrics {
        if self.per_iter.len() <= iteration {
            self.per_iter
                .resize_with(iteration + 1, IterationMetrics::default);
        }
        let acc = &mut self.per_iter[iteration];
        acc.iteration = iteration;
        acc
    }
}

/// An [`InferenceObserver`] that folds callbacks into per-iteration and
/// per-run aggregates over a private [`WindowedMetrics`] store.
///
/// Like [`TraceObserver`](crate::TraceObserver), one `MetricsObserver`
/// is designed to watch *sequential* runs (any number, back to back);
/// the evaluation runner attaches one per trial and merges the
/// snapshots.
#[derive(Debug)]
pub struct MetricsObserver {
    store: WindowedMetrics,
    state: Mutex<FoldState>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver {
            store: WindowedMetrics::new(1),
            state: Mutex::new(FoldState::default()),
        }
    }
}

impl MetricsObserver {
    /// A fresh observer with its own private store.
    #[must_use]
    pub fn new() -> Self {
        MetricsObserver::default()
    }

    /// The store holding this observer's run totals (its lifetime view
    /// is what [`MetricsObserver::snapshot`] reports).
    #[must_use]
    pub fn window(&self) -> &WindowedMetrics {
        &self.store
    }

    fn locked(&self) -> MutexGuard<'_, FoldState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Freezes the current fold into a comparable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let st = self.locked();
        let mut per_iteration = st.per_iter.clone();
        for it in &mut per_iteration {
            it.finalize_quantiles();
        }
        let mut span_secs: Vec<(String, f64, u64)> = st
            .spans
            .iter()
            .map(|(l, s, c)| ((*l).to_owned(), *s, *c))
            .collect();
        drop(st);
        span_secs.sort_by(|a, b| a.0.cmp(&b.0));
        let t = |fact| self.store.total(fact);
        MetricsSnapshot {
            runs: t(Fact::Runs),
            converged_runs: t(Fact::RunsConverged),
            iterations: t(Fact::Iterations),
            messages: t(Fact::Messages),
            bytes: t(Fact::Bytes),
            events: EventCounts {
                dropped_messages: t(Fact::Dropped),
                stale_messages: t(Fact::Stale),
                node_deaths: t(Fact::Deaths),
                map_fallbacks: t(Fact::MapFallbacks),
                grid_uniform_fallbacks: t(Fact::GridFallbacks),
                pool_fallbacks: t(Fact::PoolFallbacks),
                epoch_advances: t(Fact::EpochsSolved),
                tenants_shed: t(Fact::EpochsShed),
                contexts: t(Fact::Contexts),
                boundary_exchanges: t(Fact::BoundaryExchanges),
                boundary_messages: t(Fact::BoundaryMessages),
                notes: t(Fact::Notes),
            },
            per_iteration,
            span_secs,
        }
    }
}

impl InferenceObserver for MetricsObserver {
    fn wants_residuals(&self) -> bool {
        true
    }

    fn on_run_start(&self, info: &RunInfo) {
        self.store.on_run_start(info);
    }

    fn on_iteration(&self, record: &IterationRecord) {
        self.store.on_iteration(record);
        let mut st = self.locked();
        let acc = st.at(record.iteration);
        acc.runs += 1;
        acc.messages += record.comm.messages;
        acc.bytes += record.comm.bytes;
        // A non-finite shift measured nothing, and trace JSONL writes it
        // as `null` (read back as NaN): skipping it keeps replay == live.
        if record.max_shift.is_finite() {
            acc.shifts += 1;
            acc.max_shift_sum += record.max_shift;
        }
        acc.residuals
            .extend(record.residuals.iter().map(|r| r.residual));
    }

    fn on_span(&self, span: SpanKind, secs: f64) {
        let label = span.label();
        let mut st = self.locked();
        match st.spans.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, s, c)) => {
                *s += secs;
                *c += 1;
            }
            None => st.spans.push((label, secs, 1)),
        }
    }

    fn on_event(&self, event: &ObsEvent) {
        self.store.on_event(event);
        match event {
            ObsEvent::MessageDropped { iteration, count } => {
                self.locked().at(*iteration).dropped += count;
            }
            ObsEvent::StaleMessageUsed { iteration, count } => {
                self.locked().at(*iteration).stale += count;
            }
            ObsEvent::NodeDied { iteration, .. } => {
                self.locked().at(*iteration).deaths += 1;
            }
            _ => {}
        }
    }

    fn on_run_end(&self, summary: &RunSummary) {
        self.store.on_run_end(summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NodeResidual;
    use wsnloc_net::accounting::CommStats;

    fn info() -> RunInfo {
        RunInfo {
            backend: "grid",
            nodes: 4,
            free: 2,
            edges: 3,
            max_iterations: 3,
            tolerance: 0.0,
            damping: 0.0,
            schedule: "synchronous",
            message_bytes: 40,
            seed: 9,
        }
    }

    fn rec(i: usize, residuals: &[f64]) -> IterationRecord {
        IterationRecord {
            iteration: i,
            max_shift: residuals.iter().copied().fold(0.0, f64::max),
            comm: CommStats {
                messages: 4,
                bytes: 160,
            },
            damping: 0.0,
            schedule: "synchronous",
            secs: 0.001,
            residuals: residuals
                .iter()
                .enumerate()
                .map(|(n, &r)| NodeResidual {
                    node: n,
                    residual: r,
                    kl: None,
                })
                .collect(),
        }
    }

    #[test]
    fn folds_a_run_into_per_iteration_aggregates() {
        let m = MetricsObserver::new();
        m.on_run_start(&info());
        m.on_iteration(&rec(0, &[3.0, 1.0]));
        m.on_iteration(&rec(1, &[0.5, 0.25]));
        m.on_event(&ObsEvent::MessageDropped {
            iteration: 1,
            count: 2,
        });
        m.on_event(&ObsEvent::NodeDied {
            iteration: 0,
            node: 3,
        });
        m.on_span(SpanKind::MessagePassing, 0.5);
        m.on_run_end(&RunSummary {
            iterations: 2,
            converged: true,
            comm: CommStats {
                messages: 8,
                bytes: 320,
            },
        });

        let s = m.snapshot();
        assert_eq!(s.runs, 1);
        assert_eq!(s.converged_runs, 1);
        assert_eq!(s.iterations, 2);
        assert_eq!(s.messages, 8);
        assert_eq!(s.bytes, 320);
        assert_eq!(s.events.dropped_messages, 2);
        assert_eq!(s.events.node_deaths, 1);
        assert_eq!(s.per_iteration.len(), 2);
        assert_eq!(s.per_iteration[0].deaths, 1);
        assert_eq!(s.per_iteration[1].dropped, 2);
        assert_eq!(s.per_iteration[0].residual_max, Some(3.0));
        // Nearest-rank on [0.25, 0.5]: rank ceil(0.5 * 2) = 1 → lower element.
        assert_eq!(s.per_iteration[1].residual_q50, Some(0.25));
        assert_eq!(s.span_secs.len(), 1);
        assert!(s.convergence_table().contains("res_q50"));
        assert!(s.fault_table().contains("dropped=2"));
        // The store renders the same totals for export.
        let text = m.window().render_openmetrics();
        assert!(text.contains("wsnloc_bp_iterations_total 2"));
        assert!(text.contains("wsnloc_fault_dropped_messages_total 2"));
    }

    #[test]
    fn event_folding_is_order_insensitive() {
        // Same records, events delivered before vs after the iteration
        // records (the serialization reorder): identical snapshots.
        let drop_event = ObsEvent::MessageDropped {
            iteration: 0,
            count: 3,
        };
        let live = MetricsObserver::new();
        live.on_run_start(&info());
        live.on_event(&drop_event);
        live.on_iteration(&rec(0, &[1.0]));
        live.on_span(SpanKind::PriorInit, 0.25);

        let replay = MetricsObserver::new();
        replay.on_run_start(&info());
        replay.on_iteration(&rec(0, &[1.0]));
        replay.on_span(SpanKind::PriorInit, 0.25);
        replay.on_event(&drop_event);

        assert_eq!(live.snapshot(), replay.snapshot());
    }

    #[test]
    fn merge_concatenates_pools_and_recomputes_quantiles() {
        let a = MetricsObserver::new();
        a.on_run_start(&info());
        a.on_iteration(&rec(0, &[1.0, 2.0]));
        let b = MetricsObserver::new();
        b.on_run_start(&info());
        b.on_iteration(&rec(0, &[3.0, 4.0]));

        let merged = MetricsSnapshot::merge(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.per_iteration[0].runs, 2);
        assert_eq!(merged.per_iteration[0].residuals, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(merged.per_iteration[0].residual_max, Some(4.0));
        // Nearest-rank on [1, 2, 3, 4]: rank ceil(0.5 * 4) = 2 → second element.
        assert_eq!(merged.per_iteration[0].residual_q50, Some(2.0));

        // Merging matches a single observer that saw both runs.
        let both = MetricsObserver::new();
        both.on_run_start(&info());
        both.on_iteration(&rec(0, &[1.0, 2.0]));
        both.on_run_start(&info());
        both.on_iteration(&rec(0, &[3.0, 4.0]));
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sorted, 0.5), Some(3.0));
        assert_eq!(quantile(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile(&sorted, 1.0), Some(5.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
