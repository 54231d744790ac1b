//! Belief-level motion models for temporal tracking.
//!
//! Sequential localization turns the paper's pre-knowledge idea
//! recursive: each epoch's posterior, pushed through the random walk
//! `x_{t+1} = x_t + w` with `w ~ N(0, σ² I)`, is the next epoch's
//! pre-knowledge. [`MotionModel`] is that predict step, expressed once
//! per belief representation:
//!
//! - **grid** — separable truncated-Gaussian blur of the carried cell
//!   array;
//! - **particle** — jitter every particle with process noise from a
//!   caller-supplied RNG stream, leaving the engine's own streams
//!   untouched;
//! - **gaussian** — the textbook Kalman predict: `Σ ← Σ + σ² I`.
//!
//! [`MotionModel::new`] validates σ into a typed [`ValidationError`];
//! [`MotionModel::random_walk`] clamps it instead.

use crate::gaussian::GaussianBelief;
use crate::grid::GridBelief;
use crate::particle::ParticleBelief;
use crate::validate::ValidationError;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::Vec2;

/// An isotropic random-walk motion model: process noise `N(0, σ² I)`
/// per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionModel {
    sigma: f64,
}

impl MotionModel {
    /// Builds a motion model whose process-noise standard deviation is
    /// `sigma` meters per step.
    ///
    /// # Errors
    /// [`ValidationError::InvalidOption`] when `sigma` is negative or
    /// non-finite.
    pub fn new(sigma: f64) -> Result<MotionModel, ValidationError> {
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(ValidationError::InvalidOption {
                option: "sigma",
                value: sigma,
                requirement: "process-noise sigma must be finite and >= 0",
            });
        }
        Ok(MotionModel { sigma })
    }

    /// The standard model for untracked waypoint mobility; `sigma`
    /// should cover the per-step displacement (speed × dt). Negative or
    /// non-finite sigmas are clamped to zero rather than rejected,
    /// keeping this convenience constructor infallible.
    #[must_use]
    pub fn random_walk(sigma: f64) -> MotionModel {
        let sigma = if sigma.is_finite() {
            sigma.max(0.0)
        } else {
            0.0
        };
        MotionModel { sigma }
    }

    /// Predict step on a grid belief: blur by the process noise. See
    /// [`GridBelief::predicted`].
    #[must_use]
    pub fn predict_grid(&self, belief: &GridBelief) -> GridBelief {
        belief.predicted(self.sigma)
    }

    /// Predict step on a particle belief: every particle receives
    /// independent `N(0, σ² I)` jitter from `rng`; weights are
    /// preserved. The caller owns the RNG stream — engines never touch
    /// it, so prediction cannot perturb inference determinism.
    #[must_use]
    pub fn predict_particles(
        &self,
        belief: &ParticleBelief,
        rng: &mut Xoshiro256pp,
    ) -> ParticleBelief {
        let sigma = self.sigma.max(1e-12);
        let moved: Vec<Vec2> = belief
            .particles()
            .iter()
            .map(|&p| p + Vec2::new(rng.normal(0.0, sigma), rng.normal(0.0, sigma)))
            .collect();
        ParticleBelief::new(moved, belief.weights().to_vec())
    }

    /// Predict step on a Gaussian belief: `Σ ← Σ + σ² I`, mean
    /// unchanged.
    #[must_use]
    pub fn predict_gaussian(&self, belief: &GaussianBelief) -> GaussianBelief {
        let c = belief.cov;
        let q = self.sigma * self.sigma;
        GaussianBelief {
            mean: belief.mean,
            cov: [c[0] + q, c[1], c[2], c[3] + q],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnloc_geom::Aabb;

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(MotionModel::new(f64::NAN).is_err());
        assert!(MotionModel::new(-1.0).is_err());
        assert!(MotionModel::new(f64::INFINITY).is_err());
        assert!(MotionModel::new(2.0).is_ok());
    }

    #[test]
    fn random_walk_is_identity_transition() {
        let m = MotionModel::random_walk(5.0);
        assert_eq!(MotionModel::new(5.0), Ok(m));
        // The predict step moves no mean, it only grows the spread.
        let b = GaussianBelief::isotropic(Vec2::new(10.0, 20.0), 4.0);
        assert_eq!(m.predict_gaussian(&b).mean, b.mean);
        // Clamped, never panicking.
        let still = MotionModel::new(0.0).expect("valid");
        assert_eq!(MotionModel::random_walk(-3.0), still);
        assert_eq!(MotionModel::random_walk(f64::NAN), still);
    }

    #[test]
    fn gaussian_predict_inflates_covariance() {
        let m = MotionModel::random_walk(3.0);
        let b = GaussianBelief::isotropic(Vec2::new(10.0, 20.0), 4.0);
        let p = m.predict_gaussian(&b);
        assert_eq!(p.mean, b.mean);
        assert!((p.cov[0] - (16.0 + 9.0)).abs() < 1e-12);
        assert!((p.cov[3] - (16.0 + 9.0)).abs() < 1e-12);
        assert_eq!(p.cov[1], 0.0);
    }

    #[test]
    fn particle_predict_preserves_weights_and_jitters_support() {
        let m = MotionModel::random_walk(2.0);
        let b = ParticleBelief::new(
            vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)],
            vec![0.25, 0.75],
        );
        let mut rng = Xoshiro256pp::seed_from(7);
        let p = m.predict_particles(&b, &mut rng);
        assert_eq!(p.weights(), b.weights());
        assert_ne!(p.particles(), b.particles());
        // Same seed → same prediction.
        let mut rng2 = Xoshiro256pp::seed_from(7);
        assert_eq!(m.predict_particles(&b, &mut rng2), p);
    }

    #[test]
    fn grid_predict_spreads_mass() {
        let domain = Aabb::from_size(100.0, 100.0);
        let m = MotionModel::random_walk(10.0);
        let b = GridBelief::delta(Vec2::new(50.0, 50.0), domain, 20, 20);
        let p = m.predict_grid(&b);
        assert!((p.mass().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.entropy() > b.entropy(), "blur must spread the delta");
        // The mean stays put under a random walk.
        assert!(p.mean().dist(b.mean()) < 1.0);
    }

    #[test]
    fn grid_predict_clamps_a_huge_validated_sigma_to_the_grid() {
        // `f64::MAX` passes validation (finite, >= 0). The blur support
        // must clamp to the axis instead of asking for ~3σ kernel cells;
        // a σ that dwarfs the field spreads the mass evenly.
        let domain = Aabb::from_size(100.0, 100.0);
        let m = MotionModel::new(f64::MAX).expect("valid");
        let b = GridBelief::delta(Vec2::new(25.0, 75.0), domain, 10, 10);
        let p = m.predict_grid(&b);
        assert!((p.mass().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (i, &mass) in p.mass().iter().enumerate() {
            assert!((mass - 0.01).abs() < 1e-12, "cell {i}: {mass} vs 0.01");
        }
    }

    #[test]
    fn grid_predict_zero_noise_is_identity_for_identity_f() {
        let domain = Aabb::from_size(100.0, 100.0);
        let m = MotionModel::random_walk(0.0);
        let b = GridBelief::delta(Vec2::new(25.0, 75.0), domain, 10, 10);
        let p = m.predict_grid(&b);
        assert_eq!(p.mass(), b.mass());
    }
}
