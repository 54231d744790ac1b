//! # wsnloc-serve
//!
//! A streaming, multi-tenant localization service over the epoch-session
//! API. A long-running [`StreamingEngine`] multiplexes many concurrent
//! tenant scenarios — each an independent
//! [`LocalizationSession`] with its own localizer configuration, motion
//! model, and belief state — over one shared worker pool:
//!
//! - tenants [`open_session`](StreamingEngine::open_session) and
//!   [`submit`](StreamingEngine::submit) [`MeasurementEpoch`]s (a network
//!   snapshot plus that epoch's seed);
//! - each [`tick`](StreamingEngine::tick) drains at most one epoch per
//!   tenant, solving the admitted tenants as one parallel batch and
//!   returning a [`PositionUpdate`] per processed epoch;
//! - when more tenants have work than
//!   [`EngineConfig::capacity_per_tick`] admits, the overflow is *shed*:
//!   instead of running BP, the tenant's session degrades per the
//!   configured [`DropPolicy`] — `DecayToPrior` coasts on the motion
//!   model (uncertainty grows toward the prior), `HoldLast` freezes the
//!   carried beliefs — and the update is flagged
//!   [`degraded`](PositionUpdate::degraded);
//! - the engine's telemetry store exposes epoch/shed totals for
//!   scraping.
//!
//! **Live telemetry.** Every engine publishes into a [`TelemetryHub`]:
//! one [`WindowedMetrics`] store, the only fold of every solve and shed
//! event (lifetime totals plus per-tenant epochs solved/shed and
//! per-shard boundary-message windows when a tenant's localizer is
//! sharded), the tick count, tick latency and per-tenant queue depths
//! the engine records as it closes each [`tick`](StreamingEngine::tick),
//! liveness, and a per-tenant JSON rollup. Beyond its session and queue a
//! tenant keeps two counters (epochs solved and shed) for that rollup,
//! and closing its session retires its series from the store, so a
//! long-running engine does not grow with its ticks. Whoever owns a hub
//! serves it: `TelemetryServer::start(addr, engine.hub())` binds
//! `/metrics`, `/healthz` and `/tenants`. [`StreamingEngine::builder`]
//! can join an external hub shared across engines and attach an extra
//! [`InferenceObserver`] (e.g. a trace recorder) that receives
//! [`ObsEvent::Context`] correlation stamps (tenant/epoch) ahead of each
//! run's callbacks. Telemetry never touches the solve path: updates are
//! bit-identical with a scrape server on, off, or absent (pinned by
//! tests).
//!
//! **Determinism.** Tenant state is fully isolated (sessions never share
//! RNG streams, beliefs, or seeds) and admission is a pure function of
//! the tick index and the ready set (a round-robin window over ascending
//! ids), so every tenant's trajectory is bit-identical to running that
//! tenant alone — independent of batching order, pool size, or how many
//! other tenants the engine hosts. The cross-tenant soak test pins this
//! with `f64::to_bits` fingerprints.

#![warn(missing_docs)]
// Library lint policy (README "Correctness tooling"); test code is exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::undocumented_unsafe_blocks,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use rayon::{IntoParallelIterator, ParallelIterator};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use wsnloc::session::LocalizationSession;
use wsnloc::{BnlLocalizer, LocalizationResult, MotionModel};
use wsnloc_net::{DropPolicy, Network};
use wsnloc_obs::{
    FanoutObserver, InferenceObserver, ObsEvent, Stopwatch, TelemetryHub, WindowedMetrics,
};

/// Opaque handle identifying one tenant's session within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The numeric id (unique among the engines sharing a hub, stable
    /// for the engine's lifetime; also the `tenant` field of trace
    /// events and the `tenant` label of its series).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Per-tenant configuration handed to
/// [`StreamingEngine::open_session`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    localizer: BnlLocalizer,
    motion: Option<MotionModel>,
}

impl SessionConfig {
    /// A session around a configured localizer, with no between-epoch
    /// motion model (static scenario observed repeatedly).
    #[must_use]
    pub fn new(localizer: BnlLocalizer) -> Self {
        SessionConfig {
            localizer,
            motion: None,
        }
    }

    /// Sets the between-epoch motion model (the predict step applied to
    /// carried beliefs, and the decay law while coasting).
    #[must_use]
    pub fn with_motion(mut self, motion: MotionModel) -> Self {
        self.motion = Some(motion);
        self
    }
}

/// One epoch of measurements a tenant submits: the network snapshot to
/// localize and the seed driving that epoch's stochastic parts.
#[derive(Debug, Clone)]
pub struct MeasurementEpoch {
    /// The observed network (fresh measurements, current topology).
    pub network: Network,
    /// Seed for this epoch's inference (per tenant, per epoch).
    pub seed: u64,
}

impl MeasurementEpoch {
    /// Bundles a snapshot with its epoch seed.
    #[must_use]
    pub fn new(network: Network, seed: u64) -> Self {
        MeasurementEpoch { network, seed }
    }
}

/// The engine's answer for one processed epoch of one tenant.
#[derive(Debug, Clone)]
pub struct PositionUpdate {
    /// Which tenant this update belongs to.
    pub tenant: SessionId,
    /// 0-based epoch index within the tenant's stream.
    pub epoch: u64,
    /// `true` when the tenant was shed this tick: no BP ran and the
    /// estimates come from the degraded (coasted or held) beliefs.
    pub degraded: bool,
    /// The epoch's localization result.
    pub result: LocalizationResult,
}

/// Tick slots of the sliding window in an engine's own telemetry hub.
const WINDOW_SLOTS: usize = 64;

/// Engine-wide scheduling configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Tenants admitted to the BP solve batch per tick; the rest of the
    /// ready tenants are shed. `0` means unlimited (never shed).
    pub capacity_per_tick: usize,
    /// What a shed tenant's session does instead of running BP:
    /// [`DropPolicy::DecayToPrior`] coasts on the motion model (the
    /// session-level decay law; the policy's numeric decay rate is
    /// governed by the motion model's process noise),
    /// [`DropPolicy::HoldLast`] freezes the carried beliefs.
    pub shed_policy: DropPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            capacity_per_tick: 0,
            shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
        }
    }
}

/// One tenant's full state: session, epoch queue, and the epoch counts
/// `/tenants` reports.
#[derive(Debug)]
struct Tenant {
    session: LocalizationSession,
    queue: VecDeque<MeasurementEpoch>,
    solved: u64,
    shed: u64,
}

/// A long-running, multi-tenant localization engine.
///
/// ```
/// use wsnloc::prelude::*;
/// use wsnloc_serve::{EngineConfig, MeasurementEpoch, SessionConfig, StreamingEngine};
///
/// let scenario = Scenario::standard_with_preknowledge(100.0);
/// let (network, _truth) = scenario.build_trial(0);
/// let engine_cfg = EngineConfig {
///     capacity_per_tick: 1,
///     ..EngineConfig::default()
/// };
/// let mut engine = StreamingEngine::new(engine_cfg);
///
/// let localizer = BnlLocalizer::builder(Backend::particle(60).expect("valid backend"))
///     .max_iterations(2)
///     .try_build()
///     .expect("valid configuration");
/// let cfg = SessionConfig::new(localizer).with_motion(MotionModel::random_walk(3.0));
/// let a = engine.open_session(cfg.clone());
/// let b = engine.open_session(cfg);
/// engine.submit(a, MeasurementEpoch::new(network.clone(), 1));
/// engine.submit(b, MeasurementEpoch::new(network, 1));
///
/// // Capacity 1: one tenant solves, the other sheds (degraded update).
/// let updates = engine.tick();
/// assert_eq!(updates.len(), 2);
/// assert_eq!(updates.iter().filter(|u| u.degraded).count(), 1);
/// ```
pub struct StreamingEngine {
    config: EngineConfig,
    tenants: BTreeMap<u64, Tenant>,
    /// Lifetime tick count — drives the round-robin admission rotation.
    ticks: u64,
    /// Store + liveness + rollup publication point (always present,
    /// whether or not a server scrapes it).
    hub: TelemetryHub,
    /// Extra observer fanned into every solve, after its correlation
    /// stamps. `None` keeps the pre-telemetry solve wiring.
    observer: Option<Arc<dyn InferenceObserver + Send + Sync>>,
}

impl std::fmt::Debug for StreamingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingEngine")
            .field("config", &self.config)
            .field("tenants", &self.tenants.len())
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Configures a [`StreamingEngine`] beyond the scheduling knobs of
/// [`EngineConfig`]: an external [`TelemetryHub`] (which also sizes the
/// sliding window; the engine's own hub keeps 64 tick slots) and an
/// extra run observer. Obtained from [`StreamingEngine::builder`].
pub struct EngineBuilder {
    config: EngineConfig,
    hub: Option<TelemetryHub>,
    observer: Option<Arc<dyn InferenceObserver + Send + Sync>>,
}

impl EngineBuilder {
    /// Joins an external hub instead of creating one: the engine adopts
    /// the hub's store and takes its tenant ids from the hub, so several
    /// sequential engines can publish to one scrape endpoint without
    /// mixing their tenants' series. Whoever owns the hub serves it.
    #[must_use]
    pub fn hub(mut self, hub: TelemetryHub) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Fans an extra observer into every solved epoch, after the
    /// engine's store. It receives an
    /// [`ObsEvent::Context`] stamp (tenant + epoch) immediately before
    /// each run's callbacks and a stamp + [`ObsEvent::TenantShed`] for
    /// shed epochs. With `capacity_per_tick > 1` the admitted batch
    /// solves in parallel, so a *shared* observer sees the tenants'
    /// streams interleaved — key off the stamps to de-interleave.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn InferenceObserver + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds the engine.
    #[must_use]
    pub fn build(self) -> StreamingEngine {
        StreamingEngine {
            config: self.config,
            tenants: BTreeMap::new(),
            ticks: 0,
            hub: self.hub.unwrap_or_else(|| TelemetryHub::new(WINDOW_SLOTS)),
            observer: self.observer,
        }
    }
}

impl StreamingEngine {
    /// An engine with its own private telemetry hub.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        StreamingEngine::builder(config).build()
    }

    /// Starts configuring an engine (see [`EngineBuilder`]).
    #[must_use]
    pub fn builder(config: EngineConfig) -> EngineBuilder {
        EngineBuilder {
            config,
            hub: None,
            observer: None,
        }
    }

    /// The engine's metric store (its hub's).
    #[must_use]
    pub fn window(&self) -> Arc<WindowedMetrics> {
        Arc::clone(self.hub.window())
    }

    /// The telemetry hub the engine publishes into: store, liveness and
    /// the `/tenants` rollup. Serve it with
    /// [`TelemetryServer::start`](wsnloc_obs::TelemetryServer::start).
    #[must_use]
    pub fn hub(&self) -> TelemetryHub {
        self.hub.clone()
    }

    /// Opens a tenant session and returns its handle. The hub numbers
    /// tenants, so engines that share a hub never reuse an id.
    pub fn open_session(&mut self, cfg: SessionConfig) -> SessionId {
        let id = self.hub.next_tenant_id();
        let mut session = LocalizationSession::new(cfg.localizer);
        if let Some(motion) = cfg.motion {
            session = session.with_motion(motion);
        }
        self.tenants.insert(
            id,
            Tenant {
                session,
                queue: VecDeque::new(),
                solved: 0,
                shed: 0,
            },
        );
        SessionId(id)
    }

    /// Closes a session, dropping its state, any queued epochs, its
    /// tenant-labelled series in the store (the lifetime totals keep its
    /// epochs) and its `/tenants` entry. Returns `false` if the id was
    /// unknown (already closed).
    pub fn close_session(&mut self, id: SessionId) -> bool {
        let open = self.tenants.remove(&id.0).is_some();
        if open {
            self.hub.window().retire_tenant(id.0);
            self.hub.set_tenants_json(self.tenants_rollup_json());
        }
        open
    }

    /// Enqueues one measurement epoch for a tenant. Returns `false`
    /// (and drops the epoch) if the session does not exist.
    pub fn submit(&mut self, id: SessionId, epoch: MeasurementEpoch) -> bool {
        match self.tenants.get_mut(&id.0) {
            Some(t) => {
                t.queue.push_back(epoch);
                true
            }
            None => false,
        }
    }

    /// Open sessions.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Queued epochs for one tenant.
    #[must_use]
    pub fn pending(&self, id: SessionId) -> Option<usize> {
        self.tenants.get(&id.0).map(|t| t.queue.len())
    }

    /// Queued epochs across all tenants.
    #[must_use]
    pub fn pending_total(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Whether a tenant holds carried beliefs (has completed at least
    /// one epoch since opening or being reset by a scenario change).
    #[must_use]
    pub fn is_warm(&self, id: SessionId) -> bool {
        self.tenants.get(&id.0).is_some_and(|t| t.session.is_warm())
    }

    /// Runs one scheduler tick: drains at most one queued epoch per
    /// tenant, admits up to [`EngineConfig::capacity_per_tick`] ready
    /// tenants to a parallel BP batch, sheds the rest per the drop
    /// policy, and returns every produced update sorted by tenant id.
    /// Tenants with empty queues are untouched.
    ///
    /// Admission is a deterministic round-robin: the window over the
    /// ready tenants (ascending id) rotates by one each tick, so under
    /// sustained overload every tenant keeps solving some epochs instead
    /// of the highest ids being starved forever.
    pub fn tick(&mut self) -> Vec<PositionUpdate> {
        let tick_watch = Stopwatch::start();
        let tick_idx = self.ticks;
        self.ticks += 1;
        let window = Arc::clone(self.hub.window());
        let mut ready: Vec<u64> = self
            .tenants
            .iter()
            .filter(|(_, t)| !t.queue.is_empty())
            .map(|(&id, _)| id)
            .collect();
        if !ready.is_empty() {
            let offset = (tick_idx % ready.len() as u64) as usize;
            ready.rotate_left(offset);
        }
        let admit = if self.config.capacity_per_tick == 0 {
            ready.len()
        } else {
            self.config.capacity_per_tick.min(ready.len())
        };
        let (solve_ids, shed_ids) = ready.split_at(admit);

        let mut updates = Vec::with_capacity(ready.len());

        // Shed the overflow: degraded epochs, no BP, sequential (cheap).
        for &id in shed_ids {
            let Some(t) = self.tenants.get_mut(&id) else {
                continue;
            };
            let Some(epoch) = t.queue.pop_front() else {
                continue;
            };
            let epoch_idx = t.session.epoch();
            let result = match self.config.shed_policy {
                DropPolicy::HoldLast => t.session.hold(&epoch.network),
                DropPolicy::DecayToPrior { .. } => t.session.coast(&epoch.network, epoch.seed),
            };
            let shed_event = ObsEvent::TenantShed {
                tenant: id,
                epoch: epoch_idx,
            };
            t.shed += 1;
            window.on_event(&shed_event);
            if let Some(obs) = &self.observer {
                obs.on_event(&ObsEvent::Context {
                    tenant: Some(id),
                    epoch: Some(epoch_idx),
                });
                obs.on_event(&shed_event);
            }
            updates.push(PositionUpdate {
                tenant: SessionId(id),
                epoch: epoch_idx,
                degraded: true,
                result,
            });
        }

        // Solve the admitted batch on the worker pool. Tenants move into
        // the jobs and move back afterwards; isolation makes the parallel
        // order irrelevant.
        let mut jobs: Vec<(u64, Tenant, MeasurementEpoch)> = Vec::with_capacity(solve_ids.len());
        for &id in solve_ids {
            if let Some(mut t) = self.tenants.remove(&id) {
                match t.queue.pop_front() {
                    Some(epoch) => jobs.push((id, t, epoch)),
                    None => {
                        self.tenants.insert(id, t);
                    }
                }
            }
        }
        let extra = self.observer.clone();
        let solved: Vec<(u64, Tenant, u64, LocalizationResult)> = jobs
            .into_par_iter()
            .map(|(id, mut t, epoch)| {
                let epoch_idx = t.session.epoch();
                // The window and the extra observer ride every solve via
                // fan-out; the context stamp precedes the run's callbacks
                // so downstream consumers can attribute them.
                let mut targets: Vec<&dyn InferenceObserver> = vec![window.as_ref()];
                if let Some(obs) = extra.as_deref() {
                    targets.push(obs);
                }
                let fanout = FanoutObserver::new(targets);
                fanout.on_event(&ObsEvent::Context {
                    tenant: Some(id),
                    epoch: Some(epoch_idx),
                });
                let result = t
                    .session
                    .advance_observed(&epoch.network, epoch.seed, &fanout);
                fanout.on_event(&ObsEvent::EpochAdvanced {
                    tenant: id,
                    epoch: epoch_idx,
                });
                t.solved += 1;
                (id, t, epoch_idx, result)
            })
            .collect();
        for (id, t, epoch_idx, result) in solved {
            self.tenants.insert(id, t);
            updates.push(PositionUpdate {
                tenant: SessionId(id),
                epoch: epoch_idx,
                degraded: false,
                result,
            });
        }
        updates.sort_by_key(|u| u.tenant.0);

        // Close out the tick's telemetry: the `/tenants` rollup, then
        // latency, queue depths and liveness, which also rotates the
        // window so the next tick writes a fresh slot.
        let tick_secs = tick_watch.elapsed_secs();
        self.hub.set_tenants_json(self.tenants_rollup_json());
        let depths = self.tenants.iter().map(|(&id, t)| (id, t.queue.len()));
        self.hub.note_tick(tick_secs, depths);
        updates
    }

    /// The `/tenants` JSON document: one entry per open session.
    fn tenants_rollup_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"tenants\":[");
        for (i, (&id, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{id},\"pending\":{},\"warm\":{},\"solved\":{},\"shed\":{},\"next_epoch\":{}}}",
                t.queue.len(),
                t.session.is_warm(),
                t.solved,
                t.shed,
                t.session.epoch()
            );
        }
        let _ = write!(out, "],\"ticks\":{}}}", self.ticks);
        out
    }

    /// Ticks until every queue is drained, concatenating the updates.
    pub fn drain(&mut self) -> Vec<PositionUpdate> {
        let mut all = Vec::new();
        while self.pending_total() > 0 {
            all.extend(self.tick());
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnloc::prelude::*;
    use wsnloc_net::network::NetworkBuilder;
    use wsnloc_net::{AnchorStrategy, Deployment, RadioModel, RangingModel};
    use wsnloc_obs::{Fact, TelemetryServer};

    fn net(seed: u64) -> Network {
        NetworkBuilder {
            deployment: Deployment::planned_square_drop(500.0, 4, 40.0),
            node_count: 40,
            anchors: AnchorStrategy::Random { count: 6 },
            radio: RadioModel::UnitDisk { range: 180.0 },
            ranging: RangingModel::Multiplicative { factor: 0.05 },
        }
        .build(seed)
        .0
    }

    fn localizer() -> BnlLocalizer {
        BnlLocalizer::builder(Backend::particle(60).expect("valid backend"))
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(2)
            .tolerance(0.0)
            .try_build()
            .expect("valid config")
    }

    fn cfg() -> SessionConfig {
        SessionConfig::new(localizer()).with_motion(MotionModel::random_walk(3.0))
    }

    #[test]
    fn single_tenant_matches_direct_session() {
        let network = net(1);
        let mut engine = StreamingEngine::new(EngineConfig::default());
        let id = engine.open_session(cfg());
        for s in 0..3u64 {
            engine.submit(id, MeasurementEpoch::new(network.clone(), s));
        }
        let updates = engine.drain();

        let mut session =
            LocalizationSession::new(localizer()).with_motion(MotionModel::random_walk(3.0));
        for (s, u) in updates.iter().enumerate() {
            let direct = session.advance(&network, s as u64);
            assert_eq!(u.epoch, s as u64);
            assert!(!u.degraded);
            assert_eq!(u.result.estimates, direct.estimates);
            assert_eq!(u.result.uncertainty, direct.uncertainty);
        }
    }

    #[test]
    fn capacity_sheds_overflow_and_recovers() {
        let network = net(2);
        let mut engine = StreamingEngine::new(EngineConfig {
            capacity_per_tick: 2,
            shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
        });
        let ids: Vec<SessionId> = (0..3).map(|_| engine.open_session(cfg())).collect();
        // Warm every tenant with an uncontended tick each (ticks 0..3).
        for &id in &ids {
            engine.submit(id, MeasurementEpoch::new(network.clone(), 0));
            let warm = engine.tick();
            assert_eq!(warm.len(), 1);
            assert!(!warm[0].degraded);
        }
        // Contend on tick 3: round-robin offset 3 % 3 == 0, so the window
        // admits tenants 0 and 1 and sheds tenant 2.
        for &id in &ids {
            engine.submit(id, MeasurementEpoch::new(network.clone(), 1));
        }
        let second = engine.tick();
        assert_eq!(second.len(), 3);
        assert!(!second[0].degraded && !second[1].degraded && second[2].degraded);
        // The shed (warm) tenant still reports estimates for every node.
        let shed = &second[2];
        assert!(shed.result.estimates.iter().all(Option::is_some));
        assert_eq!(shed.result.iterations, 0);
        // And a later uncontended tick lets it solve again.
        engine.submit(ids[2], MeasurementEpoch::new(network.clone(), 2));
        let third = engine.tick();
        assert_eq!(third.len(), 1);
        assert!(!third[0].degraded);
    }

    #[test]
    fn hold_last_freezes_uncertainty_decay_inflates_it() {
        let network = net(3);
        let run = |policy: DropPolicy| {
            let mut engine = StreamingEngine::new(EngineConfig {
                capacity_per_tick: 1,
                shed_policy: policy,
            });
            let keep = engine.open_session(cfg());
            let shed = engine.open_session(cfg());
            // Warm both with an uncontended tick each.
            engine.submit(keep, MeasurementEpoch::new(network.clone(), 0));
            engine.tick();
            engine.submit(shed, MeasurementEpoch::new(network.clone(), 0));
            let warm = engine.tick();
            // Now contend on tick 2: round-robin offset 2 % 2 == 0 admits
            // the first tenant and sheds the second.
            engine.submit(keep, MeasurementEpoch::new(network.clone(), 1));
            engine.submit(shed, MeasurementEpoch::new(network.clone(), 1));
            let contended = engine.tick();
            (warm[0].result.clone(), contended[1].result.clone())
        };
        let (held_before, held) = run(DropPolicy::HoldLast);
        let (decay_before, decayed) = run(DropPolicy::DecayToPrior { decay: 0.5 });
        for id in network.unknowns() {
            // HoldLast re-reports the frozen beliefs verbatim…
            assert_eq!(held.estimates[id], held_before.estimates[id]);
            assert_eq!(held.uncertainty[id], held_before.uncertainty[id]);
            // …while DecayToPrior's motion predict grows the spread.
            let (before, after) = (decay_before.uncertainty[id], decayed.uncertainty[id]);
            if let (Some(b), Some(a)) = (before, after) {
                assert!(a > b, "coasting must inflate uncertainty: {a} <= {b}");
            }
        }
    }

    #[test]
    fn per_tenant_metrics_stay_isolated() {
        let network = net(4);
        let mut engine = StreamingEngine::new(EngineConfig {
            capacity_per_tick: 1,
            shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
        });
        let a = engine.open_session(cfg());
        let b = engine.open_session(cfg());
        let c = engine.open_session(cfg());
        for s in 0..2u64 {
            engine.submit(a, MeasurementEpoch::new(network.clone(), s));
            engine.submit(b, MeasurementEpoch::new(network.clone(), s));
            engine.tick();
        }
        // Round-robin under capacity 1: each tenant solved one epoch and
        // was shed once, and each count only saw its own tenant's events.
        let w = engine.window();
        for id in [a, b] {
            assert_eq!(w.window_total(Fact::EpochsSolved, id.raw()), Some(1));
            assert_eq!(w.window_total(Fact::EpochsShed, id.raw()), Some(1));
        }
        // A tenant with no epochs has no series and zero counts.
        assert_eq!(w.window_total(Fact::EpochsSolved, c.raw()), None);
        assert_eq!(
            engine.hub().render_tenants(),
            "{\"tenants\":[\
             {\"id\":0,\"pending\":0,\"warm\":true,\"solved\":1,\"shed\":1,\"next_epoch\":2},\
             {\"id\":1,\"pending\":0,\"warm\":true,\"solved\":1,\"shed\":1,\"next_epoch\":2},\
             {\"id\":2,\"pending\":0,\"warm\":false,\"solved\":0,\"shed\":0,\"next_epoch\":0}\
             ],\"ticks\":2}"
        );
        // The engine-level store sees both tenants.
        let scrape = engine.hub().render_metrics();
        assert!(scrape.contains("wsnloc_serve_epochs_solved_total 2"));
        assert!(scrape.contains("wsnloc_serve_epochs_shed_total 2"));
        assert!(scrape.contains("wsnloc_bp_runs_total 2"));
    }

    /// Runs a fixed 3-tenant, 3-epoch workload and fingerprints every
    /// update (estimates + uncertainty bits, degraded flags).
    fn workload_fingerprint(mut engine: StreamingEngine) -> Vec<u64> {
        let network = net(6);
        let ids: Vec<SessionId> = (0..3).map(|_| engine.open_session(cfg())).collect();
        let mut fp = Vec::new();
        for s in 0..3u64 {
            for &id in &ids {
                engine.submit(id, MeasurementEpoch::new(network.clone(), s));
            }
            for u in engine.tick() {
                fp.push(u.tenant.raw());
                fp.push(u.epoch);
                fp.push(u64::from(u.degraded));
                for e in u.result.estimates.iter().flatten() {
                    fp.push(e.x.to_bits());
                    fp.push(e.y.to_bits());
                }
                for s in u.result.uncertainty.iter().flatten() {
                    fp.push(s.to_bits());
                }
            }
        }
        fp
    }

    #[test]
    fn telemetry_on_off_is_bit_identical() {
        let overloaded = EngineConfig {
            capacity_per_tick: 2,
            shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
        };
        let plain = workload_fingerprint(StreamingEngine::new(overloaded));
        let engine = StreamingEngine::new(overloaded);
        let _server =
            TelemetryServer::start("127.0.0.1:0", engine.hub()).expect("bind ephemeral port");
        let served = workload_fingerprint(engine);
        let observed = workload_fingerprint(
            StreamingEngine::builder(overloaded)
                .observer(Arc::new(wsnloc_obs::TraceObserver::new()))
                .build(),
        );
        assert_eq!(plain, served, "live scrape server must not perturb results");
        assert_eq!(plain, observed, "extra observer must not perturb results");
    }

    #[test]
    fn scrape_serves_windowed_per_tenant_series_and_health() {
        use std::io::{Read as _, Write as _};
        let mut engine = StreamingEngine::new(EngineConfig {
            capacity_per_tick: 1,
            shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
        });
        let server =
            TelemetryServer::start("127.0.0.1:0", engine.hub()).expect("bind ephemeral port");
        let network = net(7);
        let a = engine.open_session(cfg());
        let b = engine.open_session(cfg());
        engine.submit(a, MeasurementEpoch::new(network.clone(), 0));
        engine.submit(b, MeasurementEpoch::new(network.clone(), 0));
        engine.tick();

        let addr = server.local_addr();
        let get = |path: &str| {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
            stream.write_all(req.as_bytes()).expect("send");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read");
            out
        };

        let metrics = get("/metrics");
        // Lifetime totals and windowed per-tenant series side by side.
        assert!(metrics.contains("wsnloc_serve_ticks_total 1"));
        assert!(metrics.contains("wsnloc_serve_tick_seconds"));
        // Capacity 1: tenant 0 solved, tenant 1 shed.
        assert!(metrics.contains("wsnloc_window_epochs_solved{tenant=\"0\"} 1"));
        assert!(metrics.contains("wsnloc_window_epochs_shed{tenant=\"1\"} 1"));
        assert!(metrics.contains("wsnloc_window_queue_depth{tenant=\"0\"} 0"));
        assert!(metrics.contains("wsnloc_window_tick_seconds_count 1"));
        assert_eq!(metrics.matches("# EOF").count(), 1);

        let health = get("/healthz");
        assert!(health.contains("\"ok\":true"));
        assert!(health.contains("\"ticks\":1"));
        assert!(health.contains("\"last_tick_age_secs\":"));

        let tenants = get("/tenants");
        assert!(tenants.contains("\"id\":0"));
        assert!(tenants.contains("\"solved\":1"));
        assert!(tenants.contains("\"shed\":1"));
    }

    #[test]
    fn window_retires_old_ticks() {
        let mut engine = StreamingEngine::builder(EngineConfig::default())
            .hub(TelemetryHub::new(2))
            .build();
        let network = net(8);
        let id = engine.open_session(cfg());
        engine.submit(id, MeasurementEpoch::new(network.clone(), 0));
        engine.tick();
        let w = engine.window();
        assert_eq!(w.window_total(Fact::EpochsSolved, 0), Some(1));
        // Two empty ticks push the solve out of the 2-slot window; the
        // lifetime view keeps it.
        engine.tick();
        engine.tick();
        assert_eq!(w.window_total(Fact::EpochsSolved, 0), Some(0));
        let scrape = engine.hub().render_metrics();
        assert!(scrape.contains("wsnloc_serve_epochs_solved_total 1"));
    }

    #[test]
    fn extra_observer_gets_context_stamps_before_runs() {
        let trace = Arc::new(wsnloc_obs::TraceObserver::new());
        let mut engine = StreamingEngine::builder(EngineConfig::default())
            .observer(Arc::clone(&trace) as Arc<dyn InferenceObserver + Send + Sync>)
            .build();
        let network = net(9);
        let id = engine.open_session(cfg());
        engine.submit(id, MeasurementEpoch::new(network.clone(), 0));
        engine.submit(id, MeasurementEpoch::new(network, 1));
        engine.drain();
        let runs = trace.take_runs();
        assert_eq!(runs.len(), 2, "one trace per solved epoch");
        // The engine stamps tenant+epoch context; the stamp for run N+1
        // lands in run N's event tail (pre-first-run stamps are dropped
        // by TraceObserver, by design), and each run's events also carry
        // the post-run EpochAdvanced marker.
        let first_events = &runs[0].events;
        assert!(first_events.iter().any(|e| matches!(
            e,
            ObsEvent::EpochAdvanced {
                tenant: 0,
                epoch: 0
            }
        )));
        assert!(first_events.iter().any(|e| matches!(
            e,
            ObsEvent::Context {
                tenant: Some(0),
                epoch: Some(1),
                ..
            }
        )));
    }

    #[test]
    fn closing_a_session_retires_its_tenant_series() {
        let network = net(5);
        let mut engine = StreamingEngine::new(EngineConfig {
            capacity_per_tick: 1,
            shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
        });
        let a = engine.open_session(cfg());
        let b = engine.open_session(cfg());
        for s in 0..3u64 {
            engine.submit(a, MeasurementEpoch::new(network.clone(), s));
            engine.submit(b, MeasurementEpoch::new(network.clone(), s));
        }
        // Capacity 1: tenant 0 solves and tenant 1 sheds, 2 epochs left each.
        engine.tick();
        let open = engine.hub().render_metrics();
        assert!(open.contains("wsnloc_window_queue_depth{tenant=\"1\"} 2\n"));
        assert!(open.contains("wsnloc_window_epochs_shed{tenant=\"1\"} 1\n"));
        assert!(engine.close_session(b));
        assert!(!engine.hub().render_metrics().contains("tenant=\"1\""));
        assert!(!engine.hub().render_tenants().contains("\"id\":1"));
        engine.tick();
        let closed = engine.hub().render_metrics();
        assert!(!closed.contains("tenant=\"1\""), "{closed}");
        assert!(closed.contains("wsnloc_window_epochs_solved{tenant=\"0\"} 2\n"));
        assert!(closed.contains("wsnloc_window_queue_depth{tenant=\"0\"} 1\n"));
        // Lifetime totals keep the closed tenant's epochs.
        assert!(closed.contains("wsnloc_serve_epochs_shed_total 1\n"));
    }

    #[test]
    fn engines_sharing_a_hub_keep_their_tenants_apart() {
        // Two engines, one after the other, on one hub: the first solves
        // three epochs for its tenant, the second one epoch for each of
        // two tenants. Every tenant keeps its own series.
        let network = net(10);
        let hub = TelemetryHub::new(WINDOW_SLOTS);
        let mut first = StreamingEngine::builder(EngineConfig::default())
            .hub(hub.clone())
            .build();
        let a = first.open_session(cfg());
        for s in 0..3u64 {
            first.submit(a, MeasurementEpoch::new(network.clone(), s));
        }
        first.drain();
        drop(first);
        let mut second = StreamingEngine::builder(EngineConfig::default())
            .hub(hub.clone())
            .build();
        let later = [second.open_session(cfg()), second.open_session(cfg())];
        for &id in &later {
            second.submit(id, MeasurementEpoch::new(network.clone(), 0));
        }
        second.tick();

        assert!(!later.contains(&a), "{a} reused by {later:?}");
        let metrics = hub.render_metrics();
        let tenants = hub.render_tenants();
        let solved =
            |id: SessionId| format!("wsnloc_window_epochs_solved{{tenant=\"{}\"}} ", id.raw());
        assert!(metrics.contains(&format!("{}3\n", solved(a))), "{metrics}");
        // The second engine's `/tenants` ids are its series labels.
        for id in later {
            assert!(metrics.contains(&format!("{}1\n", solved(id))), "{metrics}");
            let entry = format!(
                "{{\"id\":{},\"pending\":0,\"warm\":true,\"solved\":1,",
                id.raw()
            );
            assert!(tenants.contains(&entry), "{tenants}");
        }
    }

    #[test]
    fn close_and_unknown_sessions() {
        let network = net(5);
        let mut engine = StreamingEngine::new(EngineConfig::default());
        let id = engine.open_session(cfg());
        assert_eq!(engine.tenant_count(), 1);
        assert!(engine.submit(id, MeasurementEpoch::new(network.clone(), 0)));
        assert_eq!(engine.pending(id), Some(1));
        assert!(engine.close_session(id));
        assert!(!engine.close_session(id));
        assert!(!engine.submit(id, MeasurementEpoch::new(network, 0)));
        assert_eq!(engine.pending(id), None);
        assert!(engine.tick().is_empty());
    }
}
