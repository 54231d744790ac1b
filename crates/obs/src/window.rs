//! The metric store: lifetime totals and sliding windows over every
//! [`Fact`], and the one fold from observer callbacks onto them.
//!
//! A long-running service gets asked both "how many epochs were shed
//! since start" and "what is the shed rate *right now*".
//! [`WindowedMetrics`] answers both from one store. Every write lands in
//! the fact's lifetime view ([`total`](WindowedMetrics::total)) and, for
//! facts with a window view, in the current slot of a per-label ring.
//! The engine calls [`WindowedMetrics::advance`] once per scheduler tick
//! to retire the oldest slot, and the window queries
//! ([`window_total`](WindowedMetrics::window_total),
//! [`window_rate`](WindowedMetrics::window_rate),
//! [`window_quantile`](WindowedMetrics::window_quantile)) see only the
//! last `slots` slots. Slot rotation is driven by the *caller's* tick,
//! never by wall clock, so the aggregation is deterministic for a given
//! call sequence and costs nothing when nobody ticks it.
//!
//! The [`InferenceObserver`] impl is the only code that maps observer
//! callbacks onto facts: run starts and verdicts, iteration records
//! (message and byte volume, iteration seconds, residuals, which it
//! asks for), fault events, tenant epochs solved and shed, per-shard
//! [`ObsEvent::BoundaryExchange`] traffic and context stamps.
//! A series' state is fixed in size (a window slot's sample pool empties
//! when the slot retires), so a ticked store grows only with the tenants
//! and shards it labels; [`retire_tenant`](WindowedMetrics::retire_tenant)
//! drops a closed tenant's series.
//! [`render_openmetrics`](WindowedMetrics::render_openmetrics) writes both
//! views through the fact table in [`metrics`](crate::metrics).

use crate::metrics::{render, Fact, Ring, Total};
use crate::observer::{InferenceObserver, IterationRecord, ObsEvent, RunInfo, RunSummary};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct Store {
    slots: usize,
    /// Current ring position every write lands in.
    head: usize,
    /// Total [`WindowedMetrics::advance`] calls, for fill accounting.
    advances: u64,
    /// Lifetime view, indexed by fact.
    totals: Vec<Total>,
    /// Window view, keyed by `(fact, label id)`; a series exists once
    /// written.
    rings: BTreeMap<(Fact, u64), Ring>,
}

impl Store {
    /// The window ring of `fact{id}`, created on first use; `None` when
    /// the fact has no window view.
    fn ring(&mut self, fact: Fact, id: u64) -> Option<&mut Ring> {
        let spec = fact.spec();
        spec.window?;
        let slots = self.slots;
        Some(
            self.rings
                .entry((fact, id))
                .or_insert_with(|| Ring::new(spec.kind, slots)),
        )
    }

    fn add(&mut self, fact: Fact, id: u64, n: u64) {
        debug_assert!(matches!(self.totals[fact as usize], Total::Count(_)));
        if let Total::Count(v) = &mut self.totals[fact as usize] {
            *v += n;
        }
        let head = self.head;
        if let Some(Ring::Sums(sums)) = self.ring(fact, id) {
            sums[head] += n;
        }
    }

    fn observe(&mut self, fact: Fact, id: u64, v: f64) {
        debug_assert!(matches!(self.totals[fact as usize], Total::Samples(_)));
        if let Total::Samples(b) = &mut self.totals[fact as usize] {
            b.observe(v);
        }
        let head = self.head;
        if let Some(Ring::Pools(pools)) = self.ring(fact, id) {
            pools[head].push(v);
        }
    }

    fn set(&mut self, fact: Fact, id: u64, v: f64) {
        debug_assert!(matches!(self.totals[fact as usize], Total::Gauge));
        if let Some(Ring::Last(last)) = self.ring(fact, id) {
            *last = v;
        }
    }
}

/// The metric store: lifetime totals plus fixed-slot ring buffers over
/// labeled window series, for every [`Fact`].
///
/// Thread-safe behind one mutex: writes are one lock plus O(log series)
/// map lookups per observer callback, never inside BP inner loops.
#[derive(Debug)]
pub struct WindowedMetrics {
    state: Mutex<Store>,
}

impl WindowedMetrics {
    /// A store whose window holds `slots` ring slots (clamped to at
    /// least 1). One slot is "the current tick";
    /// [`advance`](WindowedMetrics::advance) retires the oldest.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        WindowedMetrics {
            state: Mutex::new(Store {
                slots: slots.max(1),
                head: 0,
                advances: 0,
                totals: Fact::ALL.map(|f| Total::new(f.spec().kind)).to_vec(),
                rings: BTreeMap::new(),
            }),
        }
    }

    /// Ring slots this window was built with.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.locked().slots
    }

    fn locked(&self) -> MutexGuard<'_, Store> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `n` to the count `fact{id}`.
    pub(crate) fn add(&self, fact: Fact, id: u64, n: u64) {
        self.locked().add(fact, id, n);
    }

    /// Records sample `v` of `fact{id}`.
    pub(crate) fn observe(&self, fact: Fact, id: u64, v: f64) {
        self.locked().observe(fact, id, v);
    }

    /// Sets the gauge `fact{id}` to `v`.
    pub(crate) fn set(&self, fact: Fact, id: u64, v: f64) {
        self.locked().set(fact, id, v);
    }

    /// Rotates the ring: the oldest slot of every series is cleared and
    /// becomes the new current slot. Engines call this once per tick.
    pub fn advance(&self) {
        let mut st = self.locked();
        st.advances += 1;
        st.head = (st.head + 1) % st.slots;
        let head = st.head;
        for ring in st.rings.values_mut() {
            match ring {
                Ring::Sums(sums) => sums[head] = 0,
                Ring::Pools(pools) => pools[head].clear(),
                Ring::Last(_) => {}
            }
        }
    }

    /// Slots currently carrying data: the window is partially filled
    /// until `slots - 1` advances have happened.
    #[must_use]
    pub fn filled_slots(&self) -> usize {
        let st = self.locked();
        ((st.advances + 1).min(st.slots as u64)) as usize
    }

    /// Lifetime total of a count fact, summed over labels (the sample
    /// count for a samples fact; 0 for a gauge).
    #[must_use]
    pub fn total(&self, fact: Fact) -> u64 {
        match &self.locked().totals[fact as usize] {
            Total::Count(v) => *v,
            Total::Samples(b) => b.count(),
            Total::Gauge => 0,
        }
    }

    /// Windowed total of the count `fact{id}`, or `None` if that series
    /// was never written (or is not a count).
    #[must_use]
    pub fn window_total(&self, fact: Fact, id: u64) -> Option<u64> {
        match self.locked().rings.get(&(fact, id)) {
            Some(Ring::Sums(sums)) => Some(sums.iter().sum()),
            _ => None,
        }
    }

    /// Windowed per-slot rate of the count `fact{id}`: total over the
    /// window divided by the filled slot count.
    #[must_use]
    pub fn window_rate(&self, fact: Fact, id: u64) -> Option<f64> {
        let total = self.window_total(fact, id)?;
        Some(total as f64 / self.filled_slots() as f64)
    }

    /// Nearest-rank quantile `q` in `[0, 1]` over every sample in the
    /// window of `fact{id}`.
    #[must_use]
    pub fn window_quantile(&self, fact: Fact, id: u64, q: f64) -> Option<f64> {
        let mut pool: Vec<f64> = match self.locked().rings.get(&(fact, id)) {
            Some(Ring::Pools(pools)) => pools.iter().flatten().copied().collect(),
            _ => return None,
        };
        pool.sort_by(f64::total_cmp);
        crate::fold::quantile(&pool, q)
    }

    /// Last value of the gauge `fact{id}`.
    #[must_use]
    pub fn gauge_value(&self, fact: Fact, id: u64) -> Option<f64> {
        match self.locked().rings.get(&(fact, id)) {
            Some(Ring::Last(v)) => Some(*v),
            _ => None,
        }
    }

    /// Drops the window series labelled with `tenant` (its epochs solved
    /// and shed, its queue depth). Lifetime totals and shard series stay.
    /// Engines call this when a tenant's session closes, so tenants that
    /// come and go leave no series behind.
    pub fn retire_tenant(&self, tenant: u64) {
        let mut st = self.locked();
        for fact in Fact::ALL {
            if fact.spec().label == Some("tenant") {
                st.rings.remove(&(fact, tenant));
            }
        }
    }

    /// The OpenMetrics exposition of both views (see
    /// [`metrics`](crate::metrics)), ending in `# EOF`.
    #[must_use]
    pub fn render_openmetrics(&self) -> String {
        let st = self.locked();
        render(st.slots, &st.totals, &st.rings, true)
    }

    /// [`render_openmetrics`](WindowedMetrics::render_openmetrics)
    /// without the per-tick engine facts, for a store that only folds
    /// runs.
    pub(crate) fn render_run_facts(&self) -> String {
        let st = self.locked();
        render(st.slots, &st.totals, &st.rings, false)
    }
}

/// The one fold from observer callbacks onto facts.
impl InferenceObserver for WindowedMetrics {
    /// Residuals feed the lifetime `wsnloc_bp_residual` histogram.
    fn wants_residuals(&self) -> bool {
        true
    }

    fn on_run_start(&self, _info: &RunInfo) {
        self.add(Fact::Runs, 0, 1);
    }

    fn on_iteration(&self, record: &IterationRecord) {
        let mut st = self.locked();
        st.add(Fact::Iterations, 0, 1);
        st.add(Fact::Messages, 0, record.comm.messages);
        st.add(Fact::Bytes, 0, record.comm.bytes);
        st.observe(Fact::IterationSeconds, 0, record.secs);
        for r in &record.residuals {
            st.observe(Fact::Residual, 0, r.residual);
        }
    }

    fn on_event(&self, event: &ObsEvent) {
        let mut st = self.locked();
        match event {
            ObsEvent::GridUniformFallback { .. } => st.add(Fact::GridFallbacks, 0, 1),
            ObsEvent::MessageDropped { count, .. } => st.add(Fact::Dropped, 0, *count),
            ObsEvent::StaleMessageUsed { count, .. } => st.add(Fact::Stale, 0, *count),
            ObsEvent::NodeDied { .. } => st.add(Fact::Deaths, 0, 1),
            ObsEvent::EpochAdvanced { tenant, .. } => st.add(Fact::EpochsSolved, *tenant, 1),
            ObsEvent::TenantShed { tenant, .. } => st.add(Fact::EpochsShed, *tenant, 1),
            ObsEvent::Context { .. } => st.add(Fact::Contexts, 0, 1),
            ObsEvent::BoundaryExchange {
                shard, messages, ..
            } => {
                st.add(Fact::BoundaryExchanges, 0, 1);
                st.add(Fact::BoundaryMessages, *shard as u64, *messages);
            }
        }
    }

    fn on_run_end(&self, summary: &RunSummary) {
        if summary.converged {
            self.add(Fact::RunsConverged, 0, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_retire_with_the_window() {
        let w = WindowedMetrics::new(3);
        w.add(Fact::EpochsSolved, 1, 2);
        assert_eq!(w.window_total(Fact::EpochsSolved, 1), Some(2));
        w.advance();
        w.add(Fact::EpochsSolved, 1, 3);
        assert_eq!(w.window_total(Fact::EpochsSolved, 1), Some(5));
        // Two more advances push the first slot out of the window; the
        // lifetime total keeps it.
        w.advance();
        w.advance();
        assert_eq!(w.window_total(Fact::EpochsSolved, 1), Some(3));
        assert_eq!(w.total(Fact::EpochsSolved), 5);
        // Per-tenant isolation: tenant 2 has its own series.
        assert_eq!(w.window_total(Fact::EpochsSolved, 2), None);
    }

    #[test]
    fn quantiles_pool_across_slots() {
        let w = WindowedMetrics::new(4);
        for v in [0.1, 0.2] {
            w.observe(Fact::TickSeconds, 0, v);
        }
        w.advance();
        for v in [0.3, 0.4] {
            w.observe(Fact::TickSeconds, 0, v);
        }
        let p50 = w
            .window_quantile(Fact::TickSeconds, 0, 0.5)
            .expect("samples present");
        assert!((p50 - 0.2).abs() < 1e-12);
        let p99 = w
            .window_quantile(Fact::TickSeconds, 0, 0.99)
            .expect("samples present");
        assert!((p99 - 0.4).abs() < 1e-12);
        assert_eq!(w.filled_slots(), 2);
        let rate = w.window_rate(Fact::TickSeconds, 0);
        assert!(rate.is_none(), "pools have no rate");
    }

    #[test]
    fn events_fold_into_labeled_series() {
        let w = WindowedMetrics::new(8);
        w.on_event(&ObsEvent::EpochAdvanced {
            tenant: 3,
            epoch: 0,
        });
        w.on_event(&ObsEvent::TenantShed {
            tenant: 3,
            epoch: 1,
        });
        w.on_event(&ObsEvent::BoundaryExchange {
            round: 0,
            shard: 5,
            messages: 17,
        });
        w.on_event(&ObsEvent::MessageDropped {
            iteration: 2,
            count: 4,
        });
        assert_eq!(w.window_total(Fact::EpochsSolved, 3), Some(1));
        assert_eq!(w.window_total(Fact::EpochsShed, 3), Some(1));
        assert_eq!(w.window_total(Fact::BoundaryMessages, 5), Some(17));
        assert_eq!(w.window_total(Fact::Dropped, 0), Some(4));
        // The lifetime view counts the same events, summed over labels.
        assert_eq!(w.total(Fact::BoundaryExchanges), 1);
        assert_eq!(w.total(Fact::BoundaryMessages), 17);
        assert_eq!(w.total(Fact::Dropped), 4);
    }

    #[test]
    fn render_is_sorted_and_labeled() {
        let w = WindowedMetrics::new(2);
        w.add(Fact::EpochsSolved, 10, 4);
        w.add(Fact::EpochsSolved, 2, 1);
        w.set(Fact::QueueDepth, 7, 3.0);
        w.observe(Fact::TickSeconds, 0, 0.25);
        let out = w.render_openmetrics();
        assert!(out.contains("wsnloc_window_epochs_solved{tenant=\"10\"} 4\n"));
        assert!(out.contains("wsnloc_window_epochs_solved{tenant=\"2\"} 1\n"));
        // Labels sort by id; the lifetime family sums over them.
        let two = out.find("{tenant=\"2\"}").expect("tenant 2");
        assert!(two < out.find("{tenant=\"10\"}").expect("tenant 10"));
        assert!(out.contains("wsnloc_serve_epochs_solved_total 5\n"));
        assert!(out.contains("wsnloc_window_queue_depth{tenant=\"7\"} 3\n"));
        assert!(out.contains("# TYPE wsnloc_window_tick_seconds summary"));
        assert!(out.contains("wsnloc_window_tick_seconds{quantile=\"0.99\"} 0.25\n"));
        assert!(out.contains("wsnloc_window_tick_seconds_count 1\n"));
        // One TYPE header per family, not per label set.
        assert_eq!(out.matches("# TYPE wsnloc_window_epochs_solved").count(), 1);
    }

    #[test]
    fn retiring_a_tenant_keeps_totals_and_shard_series() {
        let w = WindowedMetrics::new(4);
        for tenant in [1, 2] {
            w.on_event(&ObsEvent::EpochAdvanced { tenant, epoch: 0 });
            w.on_event(&ObsEvent::TenantShed { tenant, epoch: 1 });
            w.set(Fact::QueueDepth, tenant, 2.0);
        }
        w.on_event(&ObsEvent::BoundaryExchange {
            round: 0,
            shard: 1,
            messages: 5,
        });
        w.retire_tenant(1);
        for fact in [Fact::EpochsSolved, Fact::EpochsShed] {
            assert_eq!(w.window_total(fact, 1), None);
            assert_eq!(w.window_total(fact, 2), Some(1));
            assert_eq!(w.total(fact), 2);
        }
        assert_eq!(w.gauge_value(Fact::QueueDepth, 1), None);
        assert_eq!(w.gauge_value(Fact::QueueDepth, 2), Some(2.0));
        assert_eq!(w.window_total(Fact::BoundaryMessages, 1), Some(5));
        assert!(!w.render_openmetrics().contains("tenant=\"1\""));
    }

    #[test]
    fn gauges_hold_last_write_across_advances() {
        let w = WindowedMetrics::new(2);
        w.set(Fact::QueueDepth, 1, 5.0);
        w.advance();
        w.advance();
        assert_eq!(w.gauge_value(Fact::QueueDepth, 1), Some(5.0));
    }
}
