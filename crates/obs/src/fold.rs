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
//!   by the *event's own* iteration field, and the span table — seconds
//!   and calls per span label, plus an `iteration` row summing the
//!   iteration records' seconds.
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
//! [`MetricsSnapshot::fault_table`], [`MetricsSnapshot::flame_table`]).
//! Several runs fold into one snapshot by going through one observer,
//! live or through [`replay`](crate::replay()).

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
    /// Grid messages that collapsed to the uniform fallback.
    pub grid_uniform_fallbacks: u64,
    /// Streaming-tenant epochs advanced (BP ran).
    pub epoch_advances: u64,
    /// Streaming-tenant epochs shed under overload (coasted, no BP).
    pub tenants_shed: u64,
    /// Correlation-context stamps (tenant/epoch markers).
    pub contexts: u64,
    /// Shard boundary exchanges (one per occupied shard per iteration of
    /// a sharded run).
    pub boundary_exchanges: u64,
    /// Fresh cross-shard belief deliveries reported by boundary
    /// exchanges.
    pub boundary_messages: u64,
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
    /// Runs that measured a finite `max_shift` here (a diverging run
    /// can report a non-finite one).
    pub shifts: u64,
    /// Sum of the finite per-run `max_shift`s (divide by `shifts` for
    /// the mean).
    pub max_shift_sum: f64,
    /// Pooled per-node residuals across runs, in arrival order; the
    /// quantiles below are computed from it.
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
    /// The span table: wall-clock totals `(label, total_secs, calls)`
    /// per [`SpanKind`] label, plus an `iteration` row (the iteration
    /// records' seconds, one call per record), sorted by label.
    pub span_secs: Vec<(String, f64, u64)>,
}

impl MetricsSnapshot {
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

    /// Fault impact per iteration: belief broadcasts, directed links
    /// that dropped or delivered stale content, node deaths. A broadcast
    /// reaches every neighbor over its own link, so the two units share
    /// no denominator and the table prints counts, not rates.
    #[must_use]
    pub fn fault_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>10} {:>13} {:>11} {:>7}",
            "iter", "runs", "bcasts", "links_dropped", "links_stale", "deaths"
        );
        for it in &self.per_iteration {
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>10} {:>13} {:>11} {:>7}",
                it.iteration, it.runs, it.messages, it.dropped, it.stale, it.deaths
            );
        }
        let e = &self.events;
        let _ = writeln!(
            out,
            "totals: dropped={} stale={} deaths={} grid_fallbacks={}",
            e.dropped_messages, e.stale_messages, e.node_deaths, e.grid_uniform_fallbacks
        );
        out
    }

    /// The span table as an indented flame table over the fixed tree
    /// `run → {estimate_extract, message_passing → iteration,
    /// model_build, prior_init}`: calls, total seconds, self seconds
    /// (total minus children) and percent of the run total, children
    /// sorted by label. A node with no recorded seconds shows the sum
    /// of its children: always the `run` row, and `message_passing`
    /// when its runs were interrupted before the phase closed (0 calls,
    /// the iteration sum as total).
    #[must_use]
    pub fn flame_table(&self) -> String {
        use std::fmt::Write as _;
        let row = |label: &str| {
            self.span_secs
                .iter()
                .find(|(l, _, _)| l == label)
                .map_or((0.0, 0), |(_, secs, calls)| (*secs, *calls))
        };
        let (iter_secs, iter_calls) = row(ITERATION_SPAN);
        // (depth, label, calls, total, self), depth-first.
        let mut rows: Vec<(usize, &str, u64, f64, f64)> = Vec::new();
        // The phases in label order.
        for phase in [
            SpanKind::EstimateExtract,
            SpanKind::MessagePassing,
            SpanKind::ModelBuild,
            SpanKind::PriorInit,
        ] {
            let (secs, calls) = row(phase.label());
            let iteration = (phase == SpanKind::MessagePassing && iter_calls > 0)
                .then(|| attribute(iter_secs, &[]));
            if calls == 0 && iteration.is_none() {
                continue;
            }
            let children: Vec<f64> = iteration.iter().map(|&(total, _)| total).collect();
            let (total, own) = attribute(secs, &children);
            rows.push((1, phase.label(), calls, total, own));
            if let Some((total, own)) = iteration {
                rows.push((2, ITERATION_SPAN, iter_calls, total, own));
            }
        }
        let phase_totals: Vec<f64> = rows.iter().filter(|r| r.0 == 1).map(|r| r.3).collect();
        let (grand_total, own) = attribute(0.0, &phase_totals);
        if self.runs > 0 || !self.span_secs.is_empty() {
            rows.insert(0, (0, "run", self.runs, grand_total, own));
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12} {:>7}",
            "span", "calls", "total s", "self s", "%"
        );
        for (depth, label, calls, total, own) in rows {
            let pct = if grand_total > 0.0 {
                100.0 * total / grand_total
            } else {
                0.0
            };
            let label = format!("{:indent$}{label}", "", indent = 2 * depth);
            let _ = writeln!(
                out,
                "{label:<40} {calls:>8} {total:>12.6} {own:>12.6} {pct:>7.1}"
            );
        }
        out
    }
}

/// A flame-table node's `(total, self)` seconds: its recorded seconds,
/// or the sum of its children's totals when it recorded none, and that
/// total minus the children, floored at zero.
fn attribute(secs: f64, children: &[f64]) -> (f64, f64) {
    let child_sum: f64 = children.iter().sum();
    let total = if secs > 0.0 { secs } else { child_sum };
    (total, (total - child_sum).max(0.0))
}

/// The span-table row of the iteration records.
const ITERATION_SPAN: &str = "iteration";

/// Adds one call of `secs` to `label`'s row of a span table, appending
/// the row the first time the label appears.
fn add_span(table: &mut Vec<(&'static str, f64, u64)>, label: &'static str, secs: f64) {
    match table.iter_mut().find(|(l, _, _)| *l == label) {
        Some((_, s, c)) => {
            *s += secs;
            *c += 1;
        }
        None => table.push((label, secs, 1)),
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
    /// Seconds and calls per span label, in first-seen order.
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
/// `repro trace` and `repro analyze` replay recorded runs into one.
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
            .map(|&(l, s, c)| (l.to_owned(), s, c))
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
                grid_uniform_fallbacks: t(Fact::GridFallbacks),
                epoch_advances: t(Fact::EpochsSolved),
                tenants_shed: t(Fact::EpochsShed),
                contexts: t(Fact::Contexts),
                boundary_exchanges: t(Fact::BoundaryExchanges),
                boundary_messages: t(Fact::BoundaryMessages),
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
        add_span(&mut st.spans, ITERATION_SPAN, record.secs);
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
        add_span(&mut self.locked().spans, span.label(), secs);
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
        // The message_passing span and the iteration row.
        assert_eq!(s.span_secs.len(), 2);
        assert!(s.convergence_table().contains("res_q50"));
        let fault = s.fault_table();
        assert!(fault.contains("dropped=2"));
        // Broadcasts and dropped links are different units: the header
        // names them and no cell divides one by the other.
        let header: Vec<&str> = fault
            .lines()
            .next()
            .expect("header line")
            .split_whitespace()
            .collect();
        assert_eq!(
            header,
            [
                "iter",
                "runs",
                "bcasts",
                "links_dropped",
                "links_stale",
                "deaths"
            ]
        );
        assert!(!fault.contains('%'), "no rate cells: {fault}");
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
    fn quantiles_cover_residuals_pooled_over_runs() {
        // One observer over two runs pools each iteration's residuals
        // across them, in arrival order, and takes quantiles over the pool.
        let both = MetricsObserver::new();
        both.on_run_start(&info());
        both.on_iteration(&rec(0, &[1.0, 2.0]));
        both.on_run_start(&info());
        both.on_iteration(&rec(0, &[3.0, 4.0]));
        let s = both.snapshot();
        assert_eq!(s.runs, 2);
        assert_eq!(s.per_iteration[0].runs, 2);
        assert_eq!(s.per_iteration[0].residuals, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.per_iteration[0].residual_max, Some(4.0));
        // Nearest-rank on [1, 2, 3, 4]: rank ceil(0.5 * 4) = 2 → second element.
        assert_eq!(s.per_iteration[0].residual_q50, Some(2.0));
    }

    fn timed(i: usize, secs: f64) -> IterationRecord {
        IterationRecord {
            secs,
            ..rec(i, &[])
        }
    }

    fn span_row(s: &MetricsSnapshot, label: &str) -> Option<(f64, u64)> {
        s.span_secs
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, secs, calls)| (*secs, *calls))
    }

    #[test]
    fn observer_callbacks_build_the_fixed_hierarchy() {
        let m = MetricsObserver::new();
        m.on_run_start(&info());
        m.on_span(SpanKind::PriorInit, 0.010);
        m.on_iteration(&timed(0, 0.005));
        m.on_iteration(&timed(1, 0.007));
        m.on_span(SpanKind::MessagePassing, 0.020);
        let s = m.snapshot();
        let (iter_total, iter_calls) = span_row(&s, "iteration").expect("iteration row");
        assert!((iter_total - 0.012).abs() < 1e-12);
        assert_eq!(iter_calls, 2);
        assert_eq!(span_row(&s, "message_passing"), Some((0.020, 1)));
        let table = s.flame_table();
        let cells = |label: &str| -> Vec<String> {
            table
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label))
                .unwrap_or_else(|| panic!("{label} row in {table}"))
                .split_whitespace()
                .map(str::to_owned)
                .collect()
        };
        // The run total derives from its children; message_passing's self
        // time excludes the iterations nested under it.
        assert_eq!(cells("run")[1..4], ["1", "0.030000", "0.000000"]);
        assert_eq!(
            cells("message_passing")[1..4],
            ["1", "0.020000", "0.008000"]
        );
        assert_eq!(cells("iteration")[1..4], ["2", "0.012000", "0.012000"]);
        assert!(
            table.contains("\n    iteration "),
            "nested two levels: {table}"
        );
    }

    #[test]
    fn ingest_order_does_not_change_the_table() {
        // Live runs report prior_init before the iterations; trace
        // replays deliver all iterations before any span. Same table.
        let live = MetricsObserver::new();
        live.on_run_start(&info());
        live.on_span(SpanKind::PriorInit, 0.004);
        live.on_iteration(&timed(0, 0.001));
        live.on_span(SpanKind::MessagePassing, 0.002);

        let replayed = MetricsObserver::new();
        replayed.on_run_start(&info());
        replayed.on_iteration(&timed(0, 0.001));
        replayed.on_span(SpanKind::PriorInit, 0.004);
        replayed.on_span(SpanKind::MessagePassing, 0.002);

        assert_eq!(
            live.snapshot().flame_table(),
            replayed.snapshot().flame_table()
        );
    }

    #[test]
    fn flame_table_matches_snapshot_rows() {
        let m = MetricsObserver::new();
        m.on_run_start(&info());
        m.on_span(SpanKind::ModelBuild, 0.25);
        m.on_iteration(&timed(0, 0.125));
        m.on_span(SpanKind::EstimateExtract, 0.5);
        let s = m.snapshot();
        let table = s.flame_table();
        // Header, run, and one row per span-table label; the iteration
        // row brings its message_passing parent along.
        assert_eq!(table.lines().count(), 2 + s.span_secs.len() + 1);
        for (label, _, calls) in &s.span_secs {
            let row = table
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label.as_str()))
                .unwrap_or_else(|| panic!("row {label} in {table}"));
            assert!(row.split_whitespace().nth(1) == Some(calls.to_string().as_str()));
        }
    }

    #[test]
    fn snapshot_works_with_spans_still_open() {
        // A snapshot taken mid-run includes the running run's spans and
        // leaves the fold untouched: the next run adds on top.
        let m = MetricsObserver::new();
        m.on_run_start(&info());
        m.on_span(SpanKind::ModelBuild, 0.5);
        assert_eq!(span_row(&m.snapshot(), "model_build"), Some((0.5, 1)));
        m.on_span(SpanKind::ModelBuild, 0.25);
        m.on_run_start(&info());
        m.on_span(SpanKind::ModelBuild, 0.125);
        assert_eq!(span_row(&m.snapshot(), "model_build"), Some((0.875, 3)));
        // An empty fold renders the header alone.
        assert_eq!(
            MetricsObserver::new()
                .snapshot()
                .flame_table()
                .lines()
                .count(),
            1
        );
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
