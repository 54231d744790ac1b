//! The metric fact table and its OpenMetrics text rendering.
//!
//! A [`Fact`] is one quantity the observability tier counts: BP runs,
//! dropped messages, epochs solved, tick latency. `Fact::spec` is the
//! only place a fact's family names, help text, kind, label and
//! histogram bounds are written, and `render` is the only OpenMetrics
//! writer: `/metrics` and `repro analyze`'s `metrics.prom` both come from
//! it. [`WindowedMetrics`](crate::WindowedMetrics) stores the facts, and
//! each fact has up to two views:
//!
//! - **lifetime**: a `_total` counter or a histogram, summed over labels,
//!   at 0 before the first write. A store that only folds runs (the
//!   `metrics.prom` of `repro analyze`) leaves out the facts an engine
//!   writes once per tick.
//! - **window**: one series per label id over the last `slots` ticks — a
//!   gauge holding the windowed total, a summary of windowed quantiles, or
//!   a last-write gauge. A series renders once written.
//!
//! Families render sorted by name, each with `# HELP`, `# TYPE` and, for
//! `_seconds`/`_bytes` names, `# UNIT`; the exposition ends with one
//! `# EOF`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One quantity the observability tier counts (see module docs). Writers
/// pair it with a label id: the tenant or shard for labeled facts, 0 for
/// the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fact {
    /// Inference runs started.
    Runs,
    /// Runs that converged before their iteration cap.
    RunsConverged,
    /// BP iterations executed.
    Iterations,
    /// Belief broadcasts.
    Messages,
    /// Belief broadcast wire bytes.
    Bytes,
    /// Wall seconds per BP iteration.
    IterationSeconds,
    /// Per-node belief residuals.
    Residual,
    /// Messages lost to the fault transport.
    Dropped,
    /// Stale (duplicate) deliveries.
    Stale,
    /// Nodes dead under the fault plan.
    Deaths,
    /// Grid messages collapsed to the uniform fallback.
    GridFallbacks,
    /// Tenant epochs that ran BP, per tenant.
    EpochsSolved,
    /// Tenant epochs shed under overload, per tenant.
    EpochsShed,
    /// Correlation-context stamps.
    Contexts,
    /// Per-iteration shard boundary exchanges.
    BoundaryExchanges,
    /// Fresh cross-shard belief deliveries at exchanges, per shard.
    BoundaryMessages,
    /// Scheduler ticks executed.
    Ticks,
    /// Wall seconds per scheduler tick.
    TickSeconds,
    /// Queued epochs per tenant at the end of a tick.
    QueueDepth,
}

/// How a fact's writes combine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Kind {
    /// Integer increments.
    Count,
    /// Real-valued samples; the lifetime histogram uses 1–2–5 bounds
    /// from the first value to the second.
    Samples(f64, f64),
    /// The last written value.
    Gauge,
}

/// One row of the fact table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spec {
    /// Lifetime family name, when the fact has that view.
    pub(crate) lifetime: Option<&'static str>,
    /// Window family name, when the fact has that view.
    pub(crate) window: Option<&'static str>,
    pub(crate) kind: Kind,
    /// Label key of the window series (`tenant`, `shard`), if any.
    pub(crate) label: Option<&'static str>,
    pub(crate) help: &'static str,
    /// Written by the engine once per tick, not folded from observer
    /// callbacks.
    pub(crate) per_tick: bool,
}

impl Fact {
    /// Every fact, in declaration order (`ALL[f as usize] == f`).
    pub(crate) const ALL: [Fact; 19] = [
        Fact::Runs,
        Fact::RunsConverged,
        Fact::Iterations,
        Fact::Messages,
        Fact::Bytes,
        Fact::IterationSeconds,
        Fact::Residual,
        Fact::Dropped,
        Fact::Stale,
        Fact::Deaths,
        Fact::GridFallbacks,
        Fact::EpochsSolved,
        Fact::EpochsShed,
        Fact::Contexts,
        Fact::BoundaryExchanges,
        Fact::BoundaryMessages,
        Fact::Ticks,
        Fact::TickSeconds,
        Fact::QueueDepth,
    ];

    /// The fact table.
    #[rustfmt::skip]
    pub(crate) fn spec(self) -> Spec {
        use Kind::{Count, Gauge, Samples};
        let (none, tenant, shard) = (None, Some("tenant"), Some("shard"));
        let (lifetime, window, kind, label, help) = match self {
            Fact::Runs =>              (Some("wsnloc_bp_runs"),                  Some("wsnloc_window_bp_runs"),           Count,               none,   "inference runs started"),
            Fact::RunsConverged =>     (Some("wsnloc_bp_runs_converged"),        None,                                    Count,               none,   "runs converged before the cap"),
            Fact::Iterations =>        (Some("wsnloc_bp_iterations"),            None,                                    Count,               none,   "BP iterations executed"),
            Fact::Messages =>          (Some("wsnloc_bp_messages"),              None,                                    Count,               none,   "belief broadcasts"),
            Fact::Bytes =>             (Some("wsnloc_bp_bytes"),                 None,                                    Count,               none,   "belief broadcast wire bytes"),
            Fact::IterationSeconds =>  (Some("wsnloc_bp_iteration_seconds"),     None,                                    Samples(1e-6, 10.0), none,   "wall seconds per BP iteration"),
            Fact::Residual =>          (Some("wsnloc_bp_residual"),              None,                                    Samples(1e-4, 100.0), none,  "per-node belief residuals"),
            Fact::Dropped =>           (Some("wsnloc_fault_dropped_messages"),   Some("wsnloc_window_fault_dropped"),     Count,               none,   "messages lost to the fault transport"),
            Fact::Stale =>             (Some("wsnloc_fault_stale_messages"),     Some("wsnloc_window_fault_stale"),       Count,               none,   "stale (duplicate) deliveries"),
            Fact::Deaths =>            (Some("wsnloc_fault_node_deaths"),        Some("wsnloc_window_node_deaths"),       Count,               none,   "nodes dead under the fault plan"),
            Fact::GridFallbacks =>     (Some("wsnloc_grid_uniform_fallbacks"),   Some("wsnloc_window_grid_fallbacks"),    Count,               none,   "grid messages collapsed to uniform"),
            Fact::EpochsSolved =>      (Some("wsnloc_serve_epochs_solved"),      Some("wsnloc_window_epochs_solved"),     Count,               tenant, "tenant epochs that ran BP"),
            Fact::EpochsShed =>        (Some("wsnloc_serve_epochs_shed"),        Some("wsnloc_window_epochs_shed"),       Count,               tenant, "tenant epochs shed under overload"),
            Fact::Contexts =>          (Some("wsnloc_context_stamps"),           None,                                    Count,               none,   "correlation-context stamps (tenant/epoch)"),
            Fact::BoundaryExchanges => (Some("wsnloc_shard_boundary_exchanges"), None,                                    Count,               none,   "per-iteration shard boundary exchanges"),
            Fact::BoundaryMessages =>  (Some("wsnloc_shard_boundary_messages"),  Some("wsnloc_window_boundary_messages"), Count,               shard,  "cross-shard belief messages delivered at exchanges"),
            Fact::Ticks =>             (Some("wsnloc_serve_ticks"),              None,                                    Count,               none,   "scheduler ticks executed"),
            Fact::TickSeconds =>       (Some("wsnloc_serve_tick_seconds"),       Some("wsnloc_window_tick_seconds"),      Samples(1e-4, 10.0), none,   "wall seconds per scheduler tick"),
            Fact::QueueDepth =>        (None,                                    Some("wsnloc_window_queue_depth"),       Gauge,               tenant, "queued epochs per tenant"),
        };
        let per_tick = matches!(self, Fact::Ticks | Fact::TickSeconds | Fact::QueueDepth);
        Spec { lifetime, window, kind, label, help, per_tick }
    }
}

/// Log-scale 1–2–5 bounds covering `[lo, hi]` (both positive), e.g.
/// `log_bounds(1e-6, 10.0)` → `1e-6, 2e-6, 5e-6, …, 5.0, 10.0`.
pub(crate) fn log_bounds(lo: f64, hi: f64) -> Vec<f64> {
    let lo = lo.abs().max(1e-12);
    let hi = hi.abs().max(lo);
    let mut bounds = Vec::new();
    let mut decade = 10f64.powi(lo.log10().floor() as i32);
    while decade <= hi * 1.0000001 {
        for mult in [1.0, 2.0, 5.0] {
            let b = decade * mult;
            if b >= lo * 0.9999999 && b <= hi * 1.0000001 {
                bounds.push(b);
            }
        }
        decade *= 10.0;
    }
    bounds
}

/// A lifetime histogram: fixed upper bucket bounds (an `+Inf` bucket
/// follows the last), per-bucket counts, and the sum and count of the
/// observed values.
#[derive(Debug, Clone)]
pub(crate) struct Buckets {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Buckets {
    pub(crate) fn new(bounds: Vec<f64>) -> Self {
        Buckets {
            counts: vec![0; bounds.len() + 1],
            bounds,
            sum: 0.0,
            count: 0,
        }
    }

    /// Values observed so far.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Records one value. Non-finite values land in the `+Inf` bucket
    /// and stay out of the sum.
    pub(crate) fn observe(&mut self, v: f64) {
        let idx = if v.is_finite() {
            self.sum += v;
            self.bounds
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(self.bounds.len())
        } else {
            self.bounds.len()
        };
        self.counts[idx] += 1;
        self.count += 1;
    }

    /// `(upper bound, cumulative count)` per bucket, ending with
    /// `(+Inf, count)`.
    pub(crate) fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let bounds = self.bounds.iter().copied().chain([f64::INFINITY]);
        bounds.zip(self.counts.iter().scan(0, |acc, &c| {
            *acc += c;
            Some(*acc)
        }))
    }
}

/// The lifetime view of one fact.
#[derive(Debug, Clone)]
pub(crate) enum Total {
    Count(u64),
    Samples(Buckets),
    /// Gauges have no lifetime view.
    Gauge,
}

impl Total {
    pub(crate) fn new(kind: Kind) -> Self {
        match kind {
            Kind::Count => Total::Count(0),
            Kind::Samples(lo, hi) => Total::Samples(Buckets::new(log_bounds(lo, hi))),
            Kind::Gauge => Total::Gauge,
        }
    }
}

/// One window series: per-slot sums or sample pools, or the last write.
#[derive(Debug, Clone)]
pub(crate) enum Ring {
    Sums(Vec<u64>),
    Pools(Vec<Vec<f64>>),
    Last(f64),
}

impl Ring {
    pub(crate) fn new(kind: Kind, slots: usize) -> Self {
        match kind {
            Kind::Count => Ring::Sums(vec![0; slots]),
            Kind::Samples(..) => Ring::Pools(vec![Vec::new(); slots]),
            Kind::Gauge => Ring::Last(0.0),
        }
    }
}

/// Writes both views of every fact as one OpenMetrics exposition:
/// `totals` indexed by fact, `rings` keyed by `(fact, label id)`, over a
/// window of `slots` ticks. `per_tick: false` leaves out the per-tick
/// engine facts.
pub(crate) fn render(
    slots: usize,
    totals: &[Total],
    rings: &BTreeMap<(Fact, u64), Ring>,
    per_tick: bool,
) -> String {
    let mut families: Vec<(&str, Fact, bool)> = Vec::new();
    for fact in Fact::ALL {
        let spec = fact.spec();
        if spec.per_tick && !per_tick {
            continue;
        }
        families.extend(spec.lifetime.map(|name| (name, fact, false)));
        families.extend(spec.window.map(|name| (name, fact, true)));
    }
    families.sort_unstable_by_key(|&(name, ..)| name);
    let mut out = String::new();
    for (name, fact, window) in families {
        let spec = fact.spec();
        if window {
            let series: Vec<(u64, &Ring)> = rings
                .range((fact, 0)..=(fact, u64::MAX))
                .map(|(&(_, id), ring)| (id, ring))
                .collect();
            render_window(&mut out, name, spec, slots, &series);
        } else {
            render_lifetime(&mut out, name, spec, &totals[fact as usize]);
        }
    }
    out.push_str("# EOF\n");
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    if name.ends_with("_seconds") {
        let _ = writeln!(out, "# UNIT {name} seconds");
    } else if name.ends_with("_bytes") {
        let _ = writeln!(out, "# UNIT {name} bytes");
    }
}

fn render_lifetime(out: &mut String, name: &str, spec: Spec, total: &Total) {
    match total {
        Total::Count(v) => {
            header(out, name, spec.help, "counter");
            let _ = writeln!(out, "{name}_total {v}");
        }
        Total::Samples(b) => {
            header(out, name, spec.help, "histogram");
            for (bound, count) in b.cumulative() {
                if bound.is_finite() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {count}");
                } else {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}", b.sum);
            let _ = writeln!(out, "{name}_count {}", b.count);
        }
        Total::Gauge => {}
    }
}

fn render_window(out: &mut String, name: &str, spec: Spec, slots: usize, series: &[(u64, &Ring)]) {
    let Some(&(_, first)) = series.first() else {
        return;
    };
    let help = spec.help;
    match first {
        Ring::Sums(_) => header(
            out,
            name,
            &format!("{help}: sliding-window total over {slots} slots"),
            "gauge",
        ),
        Ring::Pools(_) => header(
            out,
            name,
            &format!("{help}: sliding-window quantiles over {slots} slots"),
            "summary",
        ),
        Ring::Last(_) => header(out, name, help, "gauge"),
    }
    for &(id, ring) in series {
        let own = spec.label.map(|key| format!("{key}=\"{id}\""));
        // `{key="id",extra}`, or nothing when there are no labels.
        let braced = |extra: Option<String>| -> String {
            let parts: Vec<String> = own.iter().cloned().chain(extra).collect();
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        let plain = braced(None);
        match ring {
            Ring::Sums(sums) => {
                let _ = writeln!(out, "{name}{plain} {}", sums.iter().sum::<u64>());
            }
            Ring::Last(v) => {
                let _ = writeln!(out, "{name}{plain} {v}");
            }
            Ring::Pools(pools) => {
                let mut pool: Vec<f64> = pools.iter().flatten().copied().collect();
                pool.sort_by(f64::total_cmp);
                for q in [0.5, 0.9, 0.99] {
                    let v = crate::fold::quantile(&pool, q).unwrap_or(f64::NAN);
                    let labels = braced(Some(format!("quantile=\"{q}\"")));
                    let _ = writeln!(out, "{name}{labels} {v}");
                }
                let _ = writeln!(out, "{name}_count{plain} {}", pool.len());
                let _ = writeln!(out, "{name}_sum{plain} {}", pool.iter().sum::<f64>());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowedMetrics;

    #[test]
    fn every_fact_has_a_family_and_a_consistent_row() {
        for (i, fact) in Fact::ALL.iter().enumerate() {
            assert_eq!(*fact as usize, i, "ALL is in declaration order");
            let spec = fact.spec();
            assert!(spec.lifetime.is_some() || spec.window.is_some());
            // Gauges are a window-only view; labeled facts label a window.
            assert_eq!(spec.kind == Kind::Gauge, spec.lifetime.is_none());
            assert!(spec.label.is_none() || spec.window.is_some());
        }
    }

    #[test]
    fn counter_sums_across_threads() {
        let w = WindowedMetrics::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        w.add(Fact::Messages, 0, 1);
                    }
                });
            }
        });
        assert_eq!(w.total(Fact::Messages), 4000);
        w.add(Fact::Messages, 0, 5);
        assert_eq!(w.total(Fact::Messages), 4005);
    }

    #[test]
    fn gauge_holds_last_write() {
        let w = WindowedMetrics::new(2);
        w.set(Fact::QueueDepth, 1, 2.5);
        w.set(Fact::QueueDepth, 1, -1.25);
        assert_eq!(w.gauge_value(Fact::QueueDepth, 1), Some(-1.25));
        assert_eq!(w.gauge_value(Fact::QueueDepth, 2), None);
    }

    #[test]
    fn histogram_buckets_cumulate() {
        let mut h = Buckets::new(vec![0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(0.05);
        h.observe(5.0); // overflow
        h.observe(f64::NAN); // overflow, excluded from sum
        assert_eq!(h.count, 5);
        assert!((h.sum - 5.0555).abs() < 1e-12);
        let buckets: Vec<(f64, u64)> = h.cumulative().collect();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].1, 1);
        assert_eq!(buckets[1].1, 2);
        assert_eq!(buckets[2].1, 3);
        assert_eq!(buckets[3].1, 5);
        assert!(buckets[3].0.is_infinite());
    }

    #[test]
    fn log_bounds_build_a_125_series() {
        let b = log_bounds(1e-3, 1.0);
        assert_eq!(b.len(), 10);
        assert!((b[0] - 1e-3).abs() < 1e-15);
        assert!((b[1] - 2e-3).abs() < 1e-15);
        assert!((b[2] - 5e-3).abs() < 1e-15);
        assert!((b[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn openmetrics_rendering_is_sorted_and_terminated() {
        let w = WindowedMetrics::new(4);
        w.add(Fact::Runs, 0, 1);
        w.observe(Fact::TickSeconds, 0, 0.5);
        let text = w.render_openmetrics();
        // Families sort by name across both views: every lifetime family
        // (`wsnloc_bp_*` … `wsnloc_shard_*`) precedes the window families.
        let runs = text.find("# TYPE wsnloc_bp_runs counter").expect("counter");
        let ticks = text.find("# TYPE wsnloc_serve_tick_seconds histogram");
        let window = text
            .find("# TYPE wsnloc_window_bp_runs gauge")
            .expect("window");
        assert!(runs < ticks.expect("histogram") && ticks < Some(window));
        assert!(text.contains("wsnloc_bp_runs_total 1\n"));
        // Lifetime families render at 0 before their first write.
        assert!(text.contains("wsnloc_fault_node_deaths_total 0\n"));
        assert!(text.contains("wsnloc_serve_ticks_total 0\n"));
        assert!(text.contains("wsnloc_serve_tick_seconds_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("wsnloc_serve_tick_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("wsnloc_serve_tick_seconds_sum 0.5\n"));
        assert!(text.contains("wsnloc_serve_tick_seconds_count 1\n"));
        // `# UNIT` follows `# TYPE` for `_seconds`/`_bytes` families only.
        assert!(text.contains(
            "# TYPE wsnloc_serve_tick_seconds histogram\n# UNIT wsnloc_serve_tick_seconds seconds\n"
        ));
        assert!(text.contains("# TYPE wsnloc_bp_bytes counter\n# UNIT wsnloc_bp_bytes bytes\n"));
        assert!(text.contains(
            "# TYPE wsnloc_window_tick_seconds summary\n# UNIT wsnloc_window_tick_seconds seconds\n"
        ));
        assert!(!text.contains("# UNIT wsnloc_bp_runs"));
        assert_eq!(text.matches("# EOF").count(), 1);
        assert!(text.ends_with("# EOF\n"));
        // A run fold's exposition leaves out the per-tick engine facts.
        let runs = w.render_run_facts();
        assert!(runs.contains("wsnloc_bp_runs_total 1\n"));
        assert!(!runs.contains("wsnloc_serve_tick"));
        assert!(!runs.contains("wsnloc_window_tick_seconds"));
        assert!(runs.ends_with("# EOF\n"));
    }
}
