//! The BNL-PK localizer: loopy BP on the position Bayesian network.
//!
//! [`BnlLocalizer`] is the paper's algorithm. It composes:
//! - a [`PriorModel`] (the pre-knowledge),
//! - a belief [`Backend`] — particle (nonparametric), grid (discrete
//!   Bayesian network), or Gaussian (parametric ablation) — carrying
//!   its backend-specific options ([`ParticleOptions`]/[`GridOptions`]),
//! - [`BpOptions`] controlling schedule/iterations/damping,
//! - an optional [`ShardPlan`] switching inference to sharded BP
//!   execution for very large deployments.
//!
//! Construction goes through [`BnlLocalizer::builder`], the *only*
//! route: every knob is validated either at its own constructor
//! ([`Backend::particle`], [`GridOptions::new`],
//! [`ShardPlan::target_nodes`], …) or by
//! [`BnlLocalizerBuilder::try_build`], so a `BnlLocalizer` that exists
//! is a `BnlLocalizer` that is valid.
//!
//! Communication is charged per belief broadcast: in the distributed
//! protocol each unknown node transmits a subsampled particle summary (or a
//! Gaussian summary for the grid backend) to its neighbors once per
//! iteration.

use crate::model::{build_mrf, ModelOptions};
use crate::options::{GridOptions, ParticleOptions, ShardPlan};
use crate::prior::PriorModel;
use crate::result::{LocalizationResult, Localizer};
use crate::session::{CarriedBeliefs, LocalizationSession};
use std::sync::Arc;
use wsnloc_bayes::{
    Belief, BpEngine, BpOptions, GaussianBp, GridBp, ParticleBp, Schedule, ShardedEngine,
    SpatialMrf, Transport, ValidationError,
};
use wsnloc_geom::{ShardLayout, Vec2};
use wsnloc_net::accounting::{CommStats, WireMessage};
use wsnloc_net::{FaultPlan, Network};
use wsnloc_obs::Stopwatch;
use wsnloc_obs::{InferenceObserver, NullObserver, SpanKind};

/// Belief representation used by inference, with its backend-specific
/// options. Variants carry construction-validated option bundles;
/// build them through [`Backend::particle`]/[`Backend::grid`]/
/// [`Backend::gaussian`] (or construct the options directly for the
/// non-default knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Nonparametric (particle) beliefs.
    Particle(ParticleOptions),
    /// Grid-discretized beliefs (the discrete Bayesian-network
    /// formulation).
    Grid(GridOptions),
    /// Single-Gaussian beliefs (EKF-style linearized updates) — the cheap
    /// parametric ablation. Fast and bandwidth-minimal, but blind to the
    /// multi-modal posteriors that motivate the nonparametric backends.
    Gaussian,
}

impl Backend {
    /// Particle backend with `particles` per unknown node (at least 1).
    pub fn particle(particles: usize) -> Result<Backend, ValidationError> {
        Ok(Backend::Particle(ParticleOptions::new(particles)?))
    }

    /// Grid backend at `resolution` cells per side (at least 2).
    pub fn grid(resolution: usize) -> Result<Backend, ValidationError> {
        Ok(Backend::Grid(GridOptions::new(resolution)?))
    }

    /// Gaussian backend (no options to validate).
    #[must_use]
    pub fn gaussian() -> Backend {
        Backend::Gaussian
    }
}

/// Cooperative Bayesian-network localization with pre-knowledge.
///
/// Construct through [`BnlLocalizer::builder`] — the only construction
/// route. Fields are crate-private and there are no setters: any
/// configuration change goes back through the validated builder.
#[derive(Debug, Clone)]
pub struct BnlLocalizer {
    /// Pre-knowledge model.
    pub(crate) prior: PriorModel,
    /// Belief representation with backend-specific options.
    pub(crate) backend: Backend,
    /// BP engine options (seed is overridden per `localize` call).
    pub(crate) bp: BpOptions,
    /// Particles included in each broadcast belief summary (communication
    /// accounting; also the mixture subsample size of the particle engine).
    pub(crate) broadcast_particles: usize,
    /// Fault-injection plan applied to inter-node messaging (`None` =
    /// perfect transport, the bit-identical fault-free path).
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    /// Sharded-execution plan (`None` = flat inference).
    pub(crate) shards: Option<ShardPlan>,
}

/// Validated builder for [`BnlLocalizer`] — the only construction route.
///
/// ```
/// use wsnloc::prelude::*;
/// let loc = BnlLocalizer::builder(Backend::particle(300).expect("valid backend"))
///     .prior(PriorModel::DropPoint { sigma: 40.0 })
///     .max_iterations(10)
///     .tolerance(1.0)
///     .try_build()
///     .expect("valid configuration");
/// assert_eq!(loc.name(), "BNL-PK/particle");
///
/// // Out-of-range configurations are typed errors at the point of
/// // construction, not runtime surprises:
/// assert!(Backend::particle(0).is_err());
/// assert!(Backend::grid(1).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct BnlLocalizerBuilder {
    inner: BnlLocalizer,
}

impl BnlLocalizerBuilder {
    /// Sets the pre-knowledge model.
    pub fn prior(mut self, prior: PriorModel) -> Self {
        self.inner.prior = prior;
        self
    }

    /// Sets the iteration cap (must be at least 1).
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.inner.bp.max_iterations = n;
        self
    }

    /// Sets the convergence tolerance in meters (finite, non-negative).
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.inner.bp.tolerance = tol;
        self
    }

    /// Sets belief damping (in `[0, 1)`).
    pub fn damping(mut self, damping: f64) -> Self {
        self.inner.bp.damping = damping;
        self
    }

    /// Sets the update schedule.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.inner.bp.schedule = schedule;
        self
    }

    /// Sets the broadcast belief summary size (must be at least 1).
    pub fn broadcast_particles(mut self, count: usize) -> Self {
        self.inner.broadcast_particles = count;
        self
    }

    /// Injects faults into inter-node messaging per `plan` (message loss,
    /// node death, stale delivery). A [`FaultPlan::none`] plan compiles to
    /// the perfect transport — the bit-identical fault-free path. Under a
    /// [`ShardPlan`], faults apply to cross-shard links.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.inner.fault_plan = if plan.is_none() {
            None
        } else {
            Some(Arc::new(plan))
        };
        self
    }

    /// Switches inference to sharded BP execution per `plan` — the
    /// large-network path. A layout that resolves to a single tile
    /// (small networks) runs the flat engine, bit-identically.
    pub fn shards(mut self, plan: ShardPlan) -> Self {
        self.inner.shards = Some(plan);
        self
    }

    /// Validates the configuration and returns the finished localizer.
    /// Backend and shard options were already validated at their own
    /// construction; this checks the remaining builder-level knobs.
    pub fn try_build(self) -> Result<BnlLocalizer, ValidationError> {
        if self.inner.broadcast_particles == 0 {
            return Err(ValidationError::InvalidOption {
                option: "broadcast_particles",
                value: 0.0,
                requirement: "must be at least 1",
            });
        }
        self.inner.bp.validated()?;
        Ok(self.inner)
    }
}

/// An estimate-level per-iteration callback: `(iteration, per-node
/// estimates)` after every BP iteration.
pub(crate) type OnIteration<'a> = &'a mut dyn FnMut(usize, &[Option<Vec2>]);

impl BnlLocalizer {
    /// Starts a validated [`BnlLocalizerBuilder`] for the given backend.
    pub fn builder(backend: Backend) -> BnlLocalizerBuilder {
        BnlLocalizerBuilder {
            inner: BnlLocalizer {
                prior: PriorModel::Uninformative,
                backend,
                bp: BpOptions::default(),
                broadcast_particles: 24,
                fault_plan: None,
                shards: None,
            },
        }
    }

    /// Localizes and additionally reports the per-iteration estimates —
    /// used by the convergence experiment (F4). The callback receives
    /// `(iteration, per-node estimates)` after every BP iteration.
    pub fn localize_observed<F>(
        &self,
        network: &Network,
        seed: u64,
        mut on_iteration: F,
    ) -> LocalizationResult
    where
        F: FnMut(usize, &[Option<Vec2>]),
    {
        LocalizationSession::new(self.clone()).solve(
            network,
            seed,
            &NullObserver,
            Some(&mut on_iteration),
        )
    }

    /// The full single-epoch localization path: builds the model, runs the
    /// configured backend — warm-started from `warm` carried beliefs when
    /// present and backend-compatible, else cold from the pre-knowledge
    /// prior — with the structured `obs` observer and, when given, the
    /// estimate-level `on_iteration` callback, then extracts the result and
    /// hands the final posterior beliefs back for the next epoch. This is
    /// the one code path under every public entry point: one-shot
    /// [`BnlLocalizer::localize`] is a fresh session advanced once.
    pub(crate) fn localize_epoch(
        &self,
        network: &Network,
        seed: u64,
        warm: Option<&CarriedBeliefs>,
        obs: &dyn InferenceObserver,
        on_iteration: Option<OnIteration<'_>>,
    ) -> (LocalizationResult, CarriedBeliefs) {
        let start = Stopwatch::start();
        let build_start = Stopwatch::start();
        let mrf = build_mrf(
            network,
            &self.prior,
            &ModelOptions {
                negative_constraints_per_node: 0,
                seed: seed ^ 0x9E37_79B9,
            },
        );
        let build_secs = build_start.elapsed_secs();
        let mut opts = self.bp;
        opts.seed = seed;
        opts.message_bytes = self.broadcast_message_bytes();

        let n = network.len();
        let mut result = LocalizationResult::empty(n);
        for (id, pos) in network.anchors() {
            result.estimates[id] = Some(pos);
            result.uncertainty[id] = Some(0.0);
        }

        let transport = match &self.fault_plan {
            Some(plan) => Transport::faulted(Arc::clone(plan)),
            None => Transport::perfect(),
        };

        // TraceObserver opens its record at the engine's `on_run_start`, so
        // the model-build span (measured above) and the estimate-extraction
        // span are reported after the run instead of in wall-clock order.
        // A carried-belief bundle from a different backend (the session's
        // engine was reconfigured) degrades to a cold start rather than
        // guessing a conversion.
        let carried = match self.backend {
            Backend::Particle(popts) => {
                let mut engine = ParticleBp::with_particles(popts.particles);
                engine.mixture_samples = self.broadcast_particles;
                let w = match warm {
                    Some(CarriedBeliefs::Particle(v)) => Some(v.as_slice()),
                    _ => None,
                };
                CarriedBeliefs::Particle(self.run_maybe_sharded(
                    engine,
                    network,
                    &mrf,
                    &opts,
                    &transport,
                    w,
                    obs,
                    build_secs,
                    &mut result,
                    on_iteration,
                ))
            }
            Backend::Gaussian => {
                let w = match warm {
                    Some(CarriedBeliefs::Gaussian(v)) => Some(v.as_slice()),
                    _ => None,
                };
                CarriedBeliefs::Gaussian(self.run_maybe_sharded(
                    GaussianBp,
                    network,
                    &mrf,
                    &opts,
                    &transport,
                    w,
                    obs,
                    build_secs,
                    &mut result,
                    on_iteration,
                ))
            }
            Backend::Grid(gopts) => {
                let w = match warm {
                    Some(CarriedBeliefs::Grid(v)) => Some(v.as_slice()),
                    _ => None,
                };
                CarriedBeliefs::Grid(self.run_maybe_sharded(
                    GridBp::with_resolution(gopts.resolution),
                    network,
                    &mrf,
                    &opts,
                    &transport,
                    w,
                    obs,
                    build_secs,
                    &mut result,
                    on_iteration,
                ))
            }
        };

        result.elapsed_secs = start.elapsed_secs();
        (result, carried)
    }

    /// Resolves the configured [`ShardPlan`] against a concrete network:
    /// node positions (anchor > planned > field center) and tile counts
    /// from the target shard size. `None` when sharding is off or the plan
    /// resolves to a single tile — flat execution is the same thing,
    /// cheaper.
    fn shard_layout(&self, network: &Network) -> Option<Arc<ShardLayout>> {
        let plan = self.shards?;
        let n = network.len();
        if n == 0 {
            return None;
        }
        let bounds = network.field_bounds();
        let (tiles_x, tiles_y) = ShardLayout::tiles_for_target(n, plan.target_shard_nodes);
        if tiles_x * tiles_y <= 1 {
            return None;
        }
        let positions: Vec<Vec2> = (0..n)
            .map(|id| {
                network
                    .anchor_position(id)
                    .or_else(|| network.planned_position(id))
                    .unwrap_or_else(|| bounds.center())
            })
            .collect();
        // The radius argument is unused.
        Some(Arc::new(ShardLayout::build(
            bounds, tiles_x, tiles_y, &positions, 0.0,
        )))
    }

    /// Runs the engine flat, or wrapped in a [`ShardedEngine`] when the
    /// shard plan resolves to more than one tile for this network.
    #[expect(
        clippy::too_many_arguments,
        reason = "private hop that forwards one solve's state to `run_backend`"
    )]
    fn run_maybe_sharded<E: BpEngine>(
        &self,
        engine: E,
        network: &Network,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: Option<&[E::Belief]>,
        obs: &dyn InferenceObserver,
        build_secs: f64,
        result: &mut LocalizationResult,
        on_iteration: Option<OnIteration<'_>>,
    ) -> Vec<E::Belief> {
        match self.shard_layout(network) {
            Some(layout) => {
                let sharded = ShardedEngine::new(engine, layout);
                self.run_backend(
                    &sharded,
                    mrf,
                    opts,
                    transport,
                    warm,
                    obs,
                    build_secs,
                    result,
                    on_iteration,
                )
            }
            None => self.run_backend(
                &engine,
                mrf,
                opts,
                transport,
                warm,
                obs,
                build_secs,
                result,
                on_iteration,
            ),
        }
    }

    /// Backend-generic run-and-extract: drives [`BpEngine::run_carried`]
    /// with the warm beliefs and, when given, the estimate-level iteration
    /// callback (the per-iteration estimate vector is built only for it),
    /// then reads point estimates (posterior means) and uncertainties out
    /// of the final beliefs through the [`Belief`] trait and returns those
    /// beliefs for epoch carry-over.
    #[expect(
        clippy::too_many_arguments,
        reason = "private solve step; its inputs are one solve's state, not a reusable config"
    )]
    fn run_backend<E: BpEngine>(
        &self,
        engine: &E,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: Option<&[E::Belief]>,
        obs: &dyn InferenceObserver,
        build_secs: f64,
        result: &mut LocalizationResult,
        mut on_iteration: Option<OnIteration<'_>>,
    ) -> Vec<E::Belief> {
        let n = result.estimates.len();
        let out = engine.run_carried(mrf, opts, transport, warm, obs, |iter, beliefs| {
            if let Some(f) = on_iteration.as_mut() {
                let estimates: Vec<Option<Vec2>> = (0..n)
                    .map(|id| match mrf.fixed(id) {
                        Some(p) => Some(p),
                        None => Some(beliefs[id].mean()),
                    })
                    .collect();
                f(iter, &estimates);
            }
        });
        obs.on_span(SpanKind::ModelBuild, build_secs);
        let extract_start = Stopwatch::start();
        for id in mrf.free_vars() {
            let b = &out.beliefs[id];
            result.estimates[id] = Some(b.mean());
            result.uncertainty[id] = Some(b.spread());
        }
        obs.on_span(SpanKind::EstimateExtract, extract_start.elapsed_secs());
        result.iterations = out.bp.iterations;
        result.converged = out.bp.converged;
        result.comm = CommStats {
            messages: out.bp.messages,
            bytes: out.bp.messages * opts.message_bytes,
        };
        out.beliefs
    }

    /// Encoded size of one belief broadcast for the configured backend —
    /// what the observer's per-iteration byte accounting and the result's
    /// ledger charge. Computed once per solve.
    fn broadcast_message_bytes(&self) -> u64 {
        let msg = match self.backend {
            Backend::Particle(_) => WireMessage::ParticleBelief {
                from: 0,
                count: u32::try_from(self.broadcast_particles).unwrap_or(u32::MAX),
                payload: vec![(Vec2::ZERO, 0.0); self.broadcast_particles],
            },
            Backend::Grid(_) | Backend::Gaussian => WireMessage::GaussianBelief {
                from: 0,
                mean: Vec2::ZERO,
                cov: [0.0; 3],
            },
        };
        msg.encoded_len() as u64
    }
}

impl Localizer for BnlLocalizer {
    fn name(&self) -> String {
        let backend = match self.backend {
            Backend::Particle(_) => "particle",
            Backend::Grid(_) => "grid",
            Backend::Gaussian => "gaussian",
        };
        if self.prior.is_informative() {
            format!("BNL-PK/{backend}")
        } else {
            format!("NBP/{backend}")
        }
    }

    fn localize(&self, network: &Network, seed: u64) -> LocalizationResult {
        LocalizationSession::new(self.clone()).advance(network, seed)
    }

    fn localize_with_observer(
        &self,
        network: &Network,
        seed: u64,
        observer: &dyn InferenceObserver,
    ) -> LocalizationResult {
        LocalizationSession::new(self.clone()).advance_observed(network, seed, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnloc_net::network::NetworkBuilder;
    use wsnloc_net::{AnchorStrategy, Deployment, GroundTruth, RadioModel, RangingModel};

    fn small_world(seed: u64) -> (Network, GroundTruth) {
        NetworkBuilder {
            deployment: Deployment::planned_square_drop(500.0, 4, 40.0),
            node_count: 48,
            anchors: AnchorStrategy::Grid { count: 6 },
            radio: RadioModel::UnitDisk { range: 140.0 },
            ranging: RangingModel::Multiplicative { factor: 0.08 },
        }
        .build(seed)
    }

    fn particle(particles: usize) -> BnlLocalizerBuilder {
        BnlLocalizer::builder(Backend::particle(particles).expect("valid backend"))
    }

    fn grid(resolution: usize) -> BnlLocalizerBuilder {
        BnlLocalizer::builder(Backend::grid(resolution).expect("valid backend"))
    }

    fn mean_error(result: &LocalizationResult, truth: &GroundTruth, net: &Network) -> f64 {
        let errs: Vec<f64> = result
            .errors_for(truth, Some(net))
            .into_iter()
            .flatten()
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    #[test]
    fn particle_bnl_localizes_standard_world() {
        let (net, truth) = small_world(1);
        let loc = particle(250)
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(10)
            .tolerance(1.0)
            .try_build()
            .expect("valid config");
        let r = loc.localize(&net, 0);
        assert!(r.iterations >= 1);
        let err = mean_error(&r, &truth, &net);
        // Radio range 140: cooperative + priors should land well under R/2.
        assert!(err < 55.0, "mean error {err}");
        // All unknowns localized.
        assert!((r.coverage(net.unknowns()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preknowledge_beats_uninformative() {
        let mut pk_total = 0.0;
        let mut nbp_total = 0.0;
        for trial in 0..3u64 {
            let (net, truth) = small_world(10 + trial);
            let pk = particle(250)
                .prior(PriorModel::DropPoint { sigma: 40.0 })
                .max_iterations(10)
                .try_build()
                .expect("valid config");
            let nbp = particle(250)
                .max_iterations(10)
                .try_build()
                .expect("valid config");
            pk_total += mean_error(&pk.localize(&net, trial), &truth, &net);
            nbp_total += mean_error(&nbp.localize(&net, trial), &truth, &net);
        }
        assert!(
            pk_total < nbp_total,
            "pre-knowledge {pk_total} should beat uninformative {nbp_total}"
        );
    }

    #[test]
    fn grid_backend_localizes() {
        let (net, truth) = small_world(2);
        let loc = grid(30)
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(6)
            .tolerance(1.0)
            .try_build()
            .expect("valid config");
        let r = loc.localize(&net, 0);
        let err = mean_error(&r, &truth, &net);
        assert!(err < 70.0, "grid mean error {err}");
    }

    #[test]
    fn anchors_keep_their_positions() {
        let (net, truth) = small_world(3);
        let r = particle(100)
            .max_iterations(3)
            .try_build()
            .expect("valid config")
            .localize(&net, 0);
        for (id, pos) in net.anchors() {
            assert_eq!(r.estimates[id], Some(pos));
            assert_eq!(pos, truth.position(id));
            assert_eq!(r.uncertainty[id], Some(0.0));
        }
    }

    #[test]
    fn results_are_deterministic() {
        let (net, _) = small_world(4);
        let loc = particle(120)
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(4)
            .try_build()
            .expect("valid config");
        let a = loc.localize(&net, 9);
        let b = loc.localize(&net, 9);
        assert_eq!(a.estimates, b.estimates);
        let c = loc.localize(&net, 10);
        assert_ne!(a.estimates, c.estimates);
    }

    #[test]
    fn communication_is_charged_per_iteration() {
        let (net, _) = small_world(5);
        let loc = particle(100)
            .max_iterations(4)
            .tolerance(0.0) // run all iterations
            .try_build()
            .expect("valid config");
        let r = loc.localize(&net, 0);
        let unknowns = net.unknowns().count() as u64;
        assert_eq!(r.comm.messages, 4 * unknowns);
        assert!(r.comm.bytes > r.comm.messages * 24);
    }

    #[test]
    fn observer_reports_each_iteration() {
        let (net, _) = small_world(6);
        let mut iters = Vec::new();
        let loc = particle(80)
            .max_iterations(3)
            .tolerance(0.0)
            .try_build()
            .expect("valid config");
        let _ = loc.localize_observed(&net, 0, |iter, estimates| {
            iters.push(iter);
            assert_eq!(estimates.len(), net.len());
            assert!(estimates.iter().all(Option::is_some));
        });
        assert_eq!(iters, vec![0, 1, 2]);
    }

    #[test]
    fn names_distinguish_preknowledge() {
        let pk = particle(10)
            .prior(PriorModel::DropPoint { sigma: 1.0 })
            .try_build()
            .expect("valid config");
        let nbp = particle(10).try_build().expect("valid config");
        assert_eq!(pk.name(), "BNL-PK/particle");
        assert_eq!(nbp.name(), "NBP/particle");
        assert_eq!(
            grid(10).try_build().expect("valid config").name(),
            "NBP/grid"
        );
    }

    #[test]
    fn uncertainty_shrinks_with_anchor_contact() {
        // A node ringed by anchors should end up more certain than the
        // network-average unknown.
        let (net, _) = small_world(7);
        let r = particle(200)
            .max_iterations(8)
            .try_build()
            .expect("valid config")
            .localize(&net, 0);
        let spreads: Vec<f64> = net.unknowns().filter_map(|id| r.uncertainty[id]).collect();
        assert!(!spreads.is_empty());
        // Sanity: spreads are positive and bounded by the field diagonal.
        for s in spreads {
            assert!((0.0..750.0).contains(&s));
        }
    }

    #[test]
    fn gaussian_backend_localizes_with_priors() {
        let (net, truth) = small_world(9);
        let loc = BnlLocalizer::builder(Backend::gaussian())
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(25)
            .tolerance(0.5)
            .try_build()
            .expect("valid config");
        let r = loc.localize(&net, 0);
        let err = mean_error(&r, &truth, &net);
        // Parametric backend with good priors: posteriors mostly unimodal.
        assert!(err < 60.0, "gaussian mean error {err}");
        assert_eq!(loc.name(), "BNL-PK/gaussian");
        // Every unknown carries an uncertainty estimate.
        for u in net.unknowns() {
            let spread = r.uncertainty[u].expect("gaussian spread");
            assert!(spread > 0.0 && spread < 700.0);
        }
        // Gaussian summaries are tiny on the wire compared to particles.
        let particle_run = particle(100)
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(4)
            .tolerance(0.0)
            .try_build()
            .expect("valid config")
            .localize(&net, 0);
        let per_msg_gauss = r.comm.bytes as f64 / r.comm.messages.max(1) as f64;
        let per_msg_particle =
            particle_run.comm.bytes as f64 / particle_run.comm.messages.max(1) as f64;
        assert!(per_msg_gauss * 5.0 < per_msg_particle);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(Backend::particle(0).is_err());
        assert!(Backend::grid(1).is_err());
        assert!(BnlLocalizer::builder(Backend::gaussian())
            .broadcast_particles(0)
            .try_build()
            .is_err());
        assert!(BnlLocalizer::builder(Backend::gaussian())
            .damping(1.0)
            .try_build()
            .is_err());
        let err = BnlLocalizer::builder(Backend::gaussian())
            .max_iterations(0)
            .try_build()
            .expect_err("zero iterations must fail");
        assert!(err.to_string().contains("max_iterations"));
    }

    #[test]
    fn trace_observer_sees_full_run() {
        use wsnloc_obs::TraceObserver;
        let (net, _) = small_world(12);
        let loc = particle(80)
            .max_iterations(3)
            .tolerance(0.0)
            .try_build()
            .expect("valid config");
        let obs = TraceObserver::new();
        let r = loc.localize_with_observer(&net, 0, &obs);
        let run = obs.last_run().expect("one recorded run");
        assert_eq!(run.info.backend, "particle");
        assert_eq!(run.iterations.len(), r.iterations);
        assert_eq!(run.summary.map(|s| s.comm.messages), Some(r.comm.messages));
        // Byte accounting through the observer matches the result's ledger.
        assert_eq!(run.summary.map(|s| s.comm.bytes), Some(r.comm.bytes));
        let spans: Vec<_> = run.spans.iter().map(|(k, _)| *k).collect();
        assert!(spans.contains(&wsnloc_obs::SpanKind::ModelBuild));
        assert!(spans.contains(&wsnloc_obs::SpanKind::PriorInit));
        assert!(spans.contains(&wsnloc_obs::SpanKind::MessagePassing));
        assert!(spans.contains(&wsnloc_obs::SpanKind::EstimateExtract));
        // Residuals recorded for every free node each iteration.
        let free = net.unknowns().count();
        assert!(run.iterations.iter().all(|it| it.residuals.len() == free));
    }

    #[test]
    fn sharded_execution_matches_flat_on_small_worlds() {
        // Shards sized to force a multi-tile layout on a 48-node world;
        // on a fault-free plan sharded estimates equal flat ones bit for
        // bit.
        let (net, _) = small_world(14);
        let base = grid(24)
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(4)
            .tolerance(0.0);
        let flat = base.clone().try_build().expect("valid config");
        let plan = ShardPlan::target_nodes(16).expect("valid plan");
        let sharded = base.shards(plan).try_build().expect("valid config");
        let a = flat.localize(&net, 0);
        let b = sharded.localize(&net, 0);
        assert_eq!(a.estimates, b.estimates);
    }

    #[test]
    fn single_tile_shard_plan_runs_flat_path() {
        // Target shard size larger than the network: the plan resolves
        // to one tile, which must be the identical flat code path.
        let (net, _) = small_world(15);
        let base = particle(80)
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(3)
            .tolerance(0.0);
        let flat = base.clone().try_build().expect("valid config");
        let sharded = base
            .shards(ShardPlan::target_nodes(10_000).expect("valid plan"))
            .try_build()
            .expect("valid config");
        assert_eq!(
            flat.localize(&net, 0).estimates,
            sharded.localize(&net, 0).estimates
        );
    }
}
