//! Belief-level motion models for temporal tracking.
//!
//! Sequential localization turns the paper's pre-knowledge idea
//! recursive: each epoch's posterior, pushed through the dynamics
//! `x_{t+1} = F·x_t + w` with `w ~ N(0, Q)`, is the next epoch's
//! pre-knowledge. [`MotionModel`] is that predict step, expressed once
//! per belief representation:
//!
//! - **grid** — separable truncated-Gaussian blur of the carried cell
//!   array (plus a bilinear remap when `F` is not the identity);
//! - **particle** — propagate every particle through `F` and jitter it
//!   with process noise from a caller-supplied RNG stream, leaving the
//!   engine's own streams untouched;
//! - **gaussian** — the textbook Kalman predict:
//!   `μ ← F·μ`, `Σ ← F·Σ·Fᵀ + Q`.
//!
//! The model is validated at construction ([`MotionModel::new`]
//! returns a typed [`ValidationError`]); [`MotionModel::random_walk`]
//! is the common isotropic `F = I` case.

use crate::gaussian::GaussianBelief;
use crate::grid::GridBelief;
use crate::particle::ParticleBelief;
use crate::validate::ValidationError;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::Vec2;

/// A linear-Gaussian motion model: state transition `F` (row-major
/// 2×2) and axis-aligned process noise `Q = diag(σx², σy²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionModel {
    f: [f64; 4],
    sigma_x: f64,
    sigma_y: f64,
}

impl MotionModel {
    /// Builds a motion model from a state-transition matrix and
    /// per-axis process-noise standard deviations (meters per step).
    ///
    /// # Errors
    /// [`ValidationError::InvalidOption`] when any entry of `f` is
    /// non-finite or a sigma is negative or non-finite.
    pub fn new(f: [f64; 4], sigma_x: f64, sigma_y: f64) -> Result<MotionModel, ValidationError> {
        if f.iter().any(|v| !v.is_finite()) {
            return Err(ValidationError::InvalidOption {
                option: "transition",
                value: f
                    .iter()
                    .copied()
                    .find(|v| !v.is_finite())
                    .unwrap_or(f64::NAN),
                requirement: "every entry of F must be finite",
            });
        }
        for (option, value) in [("sigma_x", sigma_x), ("sigma_y", sigma_y)] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ValidationError::InvalidOption {
                    option,
                    value,
                    requirement: "process-noise sigma must be finite and >= 0",
                });
            }
        }
        Ok(MotionModel {
            f,
            sigma_x,
            sigma_y,
        })
    }

    /// The isotropic random walk: `F = I`, `Q = sigma² I`. The standard
    /// model for untracked waypoint mobility; `sigma` should cover the
    /// per-step displacement (speed × dt). Negative or non-finite
    /// sigmas are clamped to zero rather than rejected, keeping this
    /// convenience constructor infallible.
    #[must_use]
    pub fn random_walk(sigma: f64) -> MotionModel {
        let s = if sigma.is_finite() {
            sigma.max(0.0)
        } else {
            0.0
        };
        MotionModel {
            f: [1.0, 0.0, 0.0, 1.0],
            sigma_x: s,
            sigma_y: s,
        }
    }

    /// The state-transition matrix `F`, row-major.
    #[must_use]
    pub fn transition(&self) -> [f64; 4] {
        self.f
    }

    /// Per-axis process-noise standard deviations `(σx, σy)`.
    #[must_use]
    pub fn noise_sigma(&self) -> (f64, f64) {
        (self.sigma_x, self.sigma_y)
    }

    /// `F · p`.
    fn apply_f(&self, p: Vec2) -> Vec2 {
        Vec2::new(
            self.f[0] * p.x + self.f[1] * p.y,
            self.f[2] * p.x + self.f[3] * p.y,
        )
    }

    /// Predict step on a grid belief: remap through `F` (identity
    /// skips it) and blur by the process noise. See
    /// [`GridBelief::predicted`].
    #[must_use]
    pub fn predict_grid(&self, belief: &GridBelief) -> GridBelief {
        belief.predicted(self.f, self.sigma_x, self.sigma_y)
    }

    /// Predict step on a particle belief: every particle moves through
    /// `F` and receives independent `N(0, Q)` jitter from `rng`;
    /// weights are preserved. The caller owns the RNG stream — engines
    /// never touch it, so prediction cannot perturb inference
    /// determinism.
    #[must_use]
    pub fn predict_particles(
        &self,
        belief: &ParticleBelief,
        rng: &mut Xoshiro256pp,
    ) -> ParticleBelief {
        let moved: Vec<Vec2> = belief
            .particles()
            .iter()
            .map(|&p| {
                self.apply_f(p)
                    + Vec2::new(
                        rng.normal(0.0, self.sigma_x.max(1e-12)),
                        rng.normal(0.0, self.sigma_y.max(1e-12)),
                    )
            })
            .collect();
        ParticleBelief::new(moved, belief.weights().to_vec())
    }

    /// Predict step on a Gaussian belief: `μ ← F·μ`,
    /// `Σ ← F·Σ·Fᵀ + Q`.
    #[must_use]
    pub fn predict_gaussian(&self, belief: &GaussianBelief) -> GaussianBelief {
        let c = belief.cov;
        let f = self.f;
        // F·Σ (row-major 2×2 product).
        let fs = [
            f[0] * c[0] + f[1] * c[2],
            f[0] * c[1] + f[1] * c[3],
            f[2] * c[0] + f[3] * c[2],
            f[2] * c[1] + f[3] * c[3],
        ];
        // (F·Σ)·Fᵀ + Q.
        let cov = [
            fs[0] * f[0] + fs[1] * f[1] + self.sigma_x * self.sigma_x,
            fs[0] * f[2] + fs[1] * f[3],
            fs[2] * f[0] + fs[3] * f[1],
            fs[2] * f[2] + fs[3] * f[3] + self.sigma_y * self.sigma_y,
        ];
        GaussianBelief {
            mean: self.apply_f(belief.mean),
            cov,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnloc_geom::Aabb;

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(MotionModel::new([1.0, 0.0, 0.0, f64::NAN], 1.0, 1.0).is_err());
        assert!(MotionModel::new([1.0, 0.0, 0.0, 1.0], -1.0, 1.0).is_err());
        assert!(MotionModel::new([1.0, 0.0, 0.0, 1.0], 1.0, f64::INFINITY).is_err());
        assert!(MotionModel::new([1.0, 0.0, 0.0, 1.0], 2.0, 3.0).is_ok());
    }

    #[test]
    fn random_walk_is_identity_transition() {
        let m = MotionModel::random_walk(5.0);
        assert_eq!(m.transition(), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(m.noise_sigma(), (5.0, 5.0));
        // Clamped, never panicking.
        assert_eq!(MotionModel::random_walk(-3.0).noise_sigma(), (0.0, 0.0));
        assert_eq!(MotionModel::random_walk(f64::NAN).noise_sigma(), (0.0, 0.0));
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
    fn gaussian_predict_applies_transition() {
        let m = MotionModel::new([0.5, 0.0, 0.0, 2.0], 0.0, 0.0).expect("valid");
        let b = GaussianBelief::isotropic(Vec2::new(8.0, 3.0), 2.0);
        let p = m.predict_gaussian(&b);
        assert_eq!(p.mean, Vec2::new(4.0, 6.0));
        assert!((p.cov[0] - 1.0).abs() < 1e-12); // 0.25 · 4
        assert!((p.cov[3] - 16.0).abs() < 1e-12); // 4 · 4
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
        // The mean stays put under the identity transition.
        assert!(p.mean().dist(b.mean()) < 1.0);
    }

    #[test]
    fn grid_predict_clamps_a_huge_validated_sigma_to_the_grid() {
        // `f64::MAX` passes validation (finite, >= 0). The blur support
        // must clamp to the axis instead of asking for ~3σ kernel cells;
        // a σ that dwarfs the field spreads each row evenly.
        let domain = Aabb::from_size(100.0, 100.0);
        let m = MotionModel::new([1.0, 0.0, 0.0, 1.0], f64::MAX, 0.0).expect("valid");
        let b = GridBelief::delta(Vec2::new(25.0, 75.0), domain, 10, 10);
        let p = m.predict_grid(&b);
        assert!((p.mass().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let row = b.cell_of(Vec2::new(25.0, 75.0)) / 10;
        for (i, &mass) in p.mass().iter().enumerate() {
            let want = if i / 10 == row { 0.1 } else { 0.0 };
            assert!((mass - want).abs() < 1e-12, "cell {i}: {mass} vs {want}");
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
