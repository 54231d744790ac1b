//! Epoch-to-epoch localization sessions with belief carry-over.
//!
//! A [`LocalizationSession`] is the stateful, streaming counterpart of
//! [`BnlLocalizer`]'s [`localize`](crate::Localizer::localize): it runs one BP solve per *measurement
//! epoch* and carries the posterior beliefs forward, convolving them
//! with a [`MotionModel`] so that each epoch starts from last epoch's
//! knowledge instead of from the static pre-knowledge prior. This is
//! the paper's pre-knowledge idea made recursive — the posterior at
//! time `t`, pushed through `x_{t+1} = F·x_t + w`, *is* the
//! pre-knowledge at time `t+1` — and it is what lets a moving network
//! be tracked with 2–3 BP iterations per epoch instead of re-solved
//! from scratch.
//!
//! One-shot localization is the degenerate single-epoch case:
//! [`BnlLocalizer`]'s [`localize`](crate::Localizer::localize) constructs a fresh session and advances
//! it once, so observers, fault plans, and metrics flow through one
//! code path whether the caller streams or not.

use crate::localizer::BnlLocalizer;
use crate::result::LocalizationResult;
use wsnloc_bayes::engine::Belief;
use wsnloc_bayes::{GaussianBelief, GridBelief, MotionModel, ParticleBelief};
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::Vec2;
use wsnloc_net::Network;
use wsnloc_obs::{InferenceObserver, NullObserver, Stopwatch};

/// Seed-mixing tag for the motion-prediction RNG stream, so particle
/// jitter draws can never collide with the engines' own streams.
const MOTION_STREAM_TAG: u64 = 0x4D07_10DE;

/// Posterior beliefs carried between epochs, type-erased over the
/// backend that produced them. One entry per network node (anchor
/// entries are present but ignored on re-entry — anchors re-fix).
#[derive(Debug, Clone)]
pub enum CarriedBeliefs {
    /// Grid-backend cell histograms.
    Grid(Vec<GridBelief>),
    /// Particle-backend weighted particle sets.
    Particle(Vec<ParticleBelief>),
    /// Gaussian-backend means and covariances.
    Gaussian(Vec<GaussianBelief>),
}

impl CarriedBeliefs {
    /// Number of per-node beliefs carried.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            CarriedBeliefs::Grid(v) => v.len(),
            CarriedBeliefs::Particle(v) => v.len(),
            CarriedBeliefs::Gaussian(v) => v.len(),
        }
    }

    /// `true` iff no beliefs are carried.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point estimate and RMS spread of node `id`'s carried belief.
    #[must_use]
    pub fn moments(&self, id: usize) -> (Vec2, f64) {
        match self {
            CarriedBeliefs::Grid(v) => (v[id].mean(), Belief::spread(&v[id])),
            CarriedBeliefs::Particle(v) => (v[id].mean(), Belief::spread(&v[id])),
            CarriedBeliefs::Gaussian(v) => (v[id].mean, v[id].spread()),
        }
    }

    /// The predict step: every belief convolved with `motion`. The
    /// particle variant's process-noise jitter draws from a dedicated
    /// stream derived from `seed` (mixed with `MOTION_STREAM_TAG`
    /// and split per node), leaving engine RNG streams untouched.
    #[must_use]
    pub fn predicted(&self, motion: &MotionModel, seed: u64) -> CarriedBeliefs {
        match self {
            CarriedBeliefs::Grid(v) => {
                CarriedBeliefs::Grid(v.iter().map(|b| motion.predict_grid(b)).collect())
            }
            CarriedBeliefs::Particle(v) => {
                let root = Xoshiro256pp::seed_from(seed ^ MOTION_STREAM_TAG);
                CarriedBeliefs::Particle(
                    v.iter()
                        .enumerate()
                        .map(|(u, b)| {
                            let mut rng = root.split(u as u64);
                            motion.predict_particles(b, &mut rng)
                        })
                        .collect(),
                )
            }
            CarriedBeliefs::Gaussian(v) => {
                CarriedBeliefs::Gaussian(v.iter().map(|b| motion.predict_gaussian(b)).collect())
            }
        }
    }
}

/// A long-lived localization session: one BP solve per measurement
/// epoch, with posterior beliefs carried (and motion-convolved)
/// between epochs.
///
/// ```
/// use wsnloc::prelude::*;
/// use wsnloc::session::LocalizationSession;
///
/// let scenario = Scenario::standard_with_preknowledge(100.0);
/// let (network, _truth) = scenario.build_trial(0);
/// let engine = BnlLocalizer::builder(Backend::particle(80).expect("valid backend"))
///     .max_iterations(2)
///     .try_build()
///     .expect("valid configuration");
/// let mut session = LocalizationSession::new(engine)
///     .with_motion(MotionModel::random_walk(5.0));
/// let first = session.advance(&network, 7);
/// let second = session.advance(&network, 8); // warm-started
/// assert_eq!(session.epoch(), 2);
/// assert_eq!(first.estimates.len(), second.estimates.len());
/// ```
#[derive(Debug, Clone)]
pub struct LocalizationSession {
    engine: BnlLocalizer,
    motion: Option<MotionModel>,
    carried: Option<CarriedBeliefs>,
    epoch: u64,
}

impl LocalizationSession {
    /// Opens a session around a configured localizer. Without a motion
    /// model, carried beliefs re-enter the next epoch unchanged
    /// (appropriate for a static network observed repeatedly).
    #[must_use]
    pub fn new(engine: BnlLocalizer) -> Self {
        LocalizationSession {
            engine,
            motion: None,
            carried: None,
            epoch: 0,
        }
    }

    /// Sets the between-epoch motion model (the predict step).
    #[must_use]
    pub fn with_motion(mut self, motion: MotionModel) -> Self {
        self.motion = Some(motion);
        self
    }

    /// The underlying localizer configuration.
    #[must_use]
    pub fn engine(&self) -> &BnlLocalizer {
        &self.engine
    }

    /// Epochs advanced (or coasted) so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the session holds carried beliefs to warm-start from.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.carried.is_some()
    }

    /// Drops all carried state; the next epoch cold-starts from the
    /// configured pre-knowledge prior, exactly as a fresh session.
    pub fn reset(&mut self) {
        self.carried = None;
        self.epoch = 0;
    }

    /// Advances one epoch: motion-predicts the carried beliefs, runs
    /// the localizer warm-started from them, and captures the new
    /// posterior for the next epoch.
    pub fn advance(&mut self, network: &Network, seed: u64) -> LocalizationResult {
        self.advance_full(network, seed, &NullObserver, |_, _| {})
    }

    /// [`LocalizationSession::advance`] with structured telemetry
    /// reported into `observer`.
    pub fn advance_observed(
        &mut self,
        network: &Network,
        seed: u64,
        observer: &dyn InferenceObserver,
    ) -> LocalizationResult {
        self.advance_full(network, seed, observer, |_, _| {})
    }

    /// The full epoch path: telemetry observer plus the estimate-level
    /// per-iteration callback. A carried-belief/network size mismatch
    /// (the scenario changed under the session) falls back to a cold
    /// start rather than indexing out of range.
    pub fn advance_full<F>(
        &mut self,
        network: &Network,
        seed: u64,
        observer: &dyn InferenceObserver,
        on_iteration: F,
    ) -> LocalizationResult
    where
        F: FnMut(usize, &[Option<Vec2>]),
    {
        let warm = self
            .carried
            .take()
            .map(|c| match &self.motion {
                Some(m) => c.predicted(m, seed),
                None => c,
            })
            .filter(|c| c.len() == network.len());
        let (result, carried) =
            self.engine
                .localize_epoch(network, seed, warm.as_ref(), observer, on_iteration);
        self.carried = Some(carried);
        self.epoch += 1;
        result
    }

    /// Degraded epoch under load shedding: no BP runs. The carried
    /// beliefs receive their motion predict (so uncertainty grows and
    /// a later real epoch resumes consistently — the `DecayToPrior`
    /// behavior at the session level) and the predicted moments are
    /// reported as this epoch's estimates. Anchors report their known
    /// positions; a session with no carried state yet reports only
    /// anchors.
    pub fn coast(&mut self, network: &Network, seed: u64) -> LocalizationResult {
        let start = Stopwatch::start();
        if let (Some(c), Some(m)) = (self.carried.as_ref(), self.motion.as_ref()) {
            self.carried = Some(c.predicted(m, seed));
        }
        let mut result = self.report_carried(network);
        self.epoch += 1;
        result.elapsed_secs = start.elapsed_secs();
        result
    }

    /// Degraded epoch under the `HoldLast` policy: no BP runs and no
    /// motion predict either — the carried beliefs stay frozen and last
    /// epoch's moments are re-reported verbatim.
    pub fn hold(&mut self, network: &Network) -> LocalizationResult {
        let start = Stopwatch::start();
        let mut result = self.report_carried(network);
        self.epoch += 1;
        result.elapsed_secs = start.elapsed_secs();
        result
    }

    /// Anchors at their known positions plus carried-belief moments for
    /// every free node (when carried state matches the network).
    fn report_carried(&self, network: &Network) -> LocalizationResult {
        let mut result = LocalizationResult::empty(network.len());
        for (id, pos) in network.anchors() {
            result.estimates[id] = Some(pos);
            result.uncertainty[id] = Some(0.0);
        }
        if let Some(c) = self.carried.as_ref().filter(|c| c.len() == network.len()) {
            for id in 0..network.len() {
                if !network.is_anchor(id) {
                    let (mean, spread) = c.moments(id);
                    result.estimates[id] = Some(mean);
                    result.uncertainty[id] = Some(spread);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localizer::Backend;
    use crate::prior::PriorModel;
    use crate::result::Localizer;
    use wsnloc_net::network::NetworkBuilder;
    use wsnloc_net::{AnchorStrategy, Deployment, GroundTruth, RadioModel, RangingModel};

    fn world(seed: u64) -> (Network, GroundTruth) {
        NetworkBuilder {
            deployment: Deployment::planned_square_drop(500.0, 4, 40.0),
            node_count: 40,
            anchors: AnchorStrategy::Random { count: 6 },
            radio: RadioModel::UnitDisk { range: 180.0 },
            ranging: RangingModel::Multiplicative { factor: 0.05 },
        }
        .build(seed)
    }

    fn engine() -> BnlLocalizer {
        BnlLocalizer::builder(Backend::particle(80).expect("valid backend"))
            .prior(PriorModel::DropPoint { sigma: 40.0 })
            .max_iterations(3)
            .tolerance(0.0)
            .try_build()
            .expect("valid config")
    }

    #[test]
    fn single_epoch_session_matches_one_shot_localize() {
        let (network, _) = world(1);
        let algo = engine();
        let one_shot = algo.localize(&network, 42);
        let mut session = LocalizationSession::new(algo);
        let epoch = session.advance(&network, 42);
        assert_eq!(one_shot.estimates, epoch.estimates);
        assert_eq!(one_shot.uncertainty, epoch.uncertainty);
        assert_eq!(one_shot.iterations, epoch.iterations);
    }

    #[test]
    fn warm_epochs_are_deterministic() {
        let (network, _) = world(2);
        let run = || {
            let mut s =
                LocalizationSession::new(engine()).with_motion(MotionModel::random_walk(4.0));
            let _ = s.advance(&network, 1);
            s.advance(&network, 2)
        };
        let a = run();
        let b = run();
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.uncertainty, b.uncertainty);
    }

    #[test]
    fn warm_start_differs_from_cold_start() {
        let (network, _) = world(3);
        let mut s = LocalizationSession::new(engine());
        let _ = s.advance(&network, 1);
        assert!(s.is_warm());
        let warm = s.advance(&network, 2);
        let cold = engine().localize(&network, 2);
        assert_ne!(warm.estimates, cold.estimates);
    }

    #[test]
    fn reset_restores_cold_start() {
        let (network, _) = world(4);
        let mut s = LocalizationSession::new(engine());
        let first = s.advance(&network, 9);
        let _ = s.advance(&network, 10);
        s.reset();
        assert_eq!(s.epoch(), 0);
        let again = s.advance(&network, 9);
        assert_eq!(first.estimates, again.estimates);
    }

    #[test]
    fn coast_reports_predicted_moments_and_inflates_uncertainty() {
        let (network, _) = world(5);
        let mut s = LocalizationSession::new(engine()).with_motion(MotionModel::random_walk(10.0));
        let solved = s.advance(&network, 1);
        let coasted = s.coast(&network, 2);
        assert_eq!(s.epoch(), 2);
        let mut free_checked = 0;
        for id in 0..network.len() {
            if network.is_anchor(id) {
                assert_eq!(coasted.estimates[id], solved.estimates[id]);
                continue;
            }
            assert!(coasted.estimates[id].is_some());
            // Process noise must grow the reported spread.
            assert!(coasted.uncertainty[id].unwrap() > solved.uncertainty[id].unwrap());
            free_checked += 1;
        }
        assert!(free_checked > 0);
        assert_eq!(coasted.iterations, 0);
        assert!(!coasted.converged);
    }

    #[test]
    fn coast_before_any_epoch_reports_only_anchors() {
        let (network, _) = world(6);
        let mut s = LocalizationSession::new(engine());
        let r = s.coast(&network, 1);
        for id in 0..network.len() {
            assert_eq!(r.estimates[id].is_some(), network.is_anchor(id));
        }
    }

    #[test]
    fn size_mismatch_falls_back_to_cold_start() {
        let (big, _) = world(7);
        let (small, _) = NetworkBuilder {
            deployment: Deployment::planned_square_drop(500.0, 3, 40.0),
            node_count: 20,
            anchors: AnchorStrategy::Random { count: 5 },
            radio: RadioModel::UnitDisk { range: 200.0 },
            ranging: RangingModel::Multiplicative { factor: 0.05 },
        }
        .build(8);
        let mut s = LocalizationSession::new(engine());
        let _ = s.advance(&big, 1);
        let switched = s.advance(&small, 2);
        let cold = engine().localize(&small, 2);
        assert_eq!(switched.estimates, cold.estimates);
    }

    #[test]
    fn grid_and_gaussian_sessions_carry_over() {
        let (network, _) = world(9);
        for algo in [
            BnlLocalizer::builder(Backend::grid(20).expect("valid backend"))
                .prior(PriorModel::DropPoint { sigma: 40.0 })
                .max_iterations(2)
                .try_build()
                .expect("valid config"),
            BnlLocalizer::builder(Backend::gaussian())
                .prior(PriorModel::DropPoint { sigma: 40.0 })
                .max_iterations(2)
                .try_build()
                .expect("valid config"),
        ] {
            let mut s =
                LocalizationSession::new(algo.clone()).with_motion(MotionModel::random_walk(3.0));
            let _ = s.advance(&network, 1);
            let warm = s.advance(&network, 2);
            let cold = algo.localize(&network, 2);
            assert_ne!(
                warm.estimates,
                cold.estimates,
                "{} warm epoch must differ from cold",
                algo.name()
            );
        }
    }
}
