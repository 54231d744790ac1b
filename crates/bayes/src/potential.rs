//! Potentials for spatial Markov random fields.
//!
//! The localization posterior factorizes as
//! `p(x₁..x_N) ∝ Π_u φ_u(x_u) · Π_(u,v) ψ_uv(‖x_u − x_v‖)`:
//!
//! - **Unary potentials** `φ_u` ([`UnaryPotential`]) encode everything known
//!   about a node *before* measurements — this is exactly the paper's
//!   "pre-knowledge". Implementations: Gaussian drop-point priors and
//!   uniform boxes/shapes.
//! - **Pairwise potentials** `ψ_uv` ([`PairPotential`]) encode measurements.
//!   They depend on the two positions only through their distance, which is
//!   what makes message passing tractable. Implementations here cover the
//!   Gaussian range observation; the core crate adapts its richer noise
//!   models through the same trait.

use wsnloc_geom::exp::exp_in_place;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Shape, Vec2};

/// Draws behind the default [`UnaryPotential::moments`] estimate.
const MOMENT_DRAWS: usize = 64;

/// Prior knowledge about a single node position.
///
/// Beyond its density and a sampler, a prior reports its first two
/// moments, which the parametric [`crate::gaussian::GaussianBp`] backend
/// uses as its Gaussian prior. A prior whose moments are known in closed
/// form ([`GaussianUnary`]) returns them exactly; any other prior gets
/// the sampled estimate of the default.
pub trait UnaryPotential: Send + Sync {
    /// Unnormalized log density at `x`. `-inf` is allowed (outside support).
    fn log_density(&self, x: Vec2) -> f64;

    /// Draws a sample from (an approximation of) the prior.
    fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2;

    /// The prior's mean and isotropic per-axis standard deviation.
    ///
    /// The default estimates both from 64 draws on `rng`: the centroid,
    /// and `sqrt(mean squared distance to it / 2)`. That is a moment
    /// match for boxes and shapes. An override that knows its moments
    /// returns them and leaves `rng` untouched.
    fn moments(&self, rng: &mut Xoshiro256pp) -> (Vec2, f64) {
        let mut samples = [Vec2::ZERO; MOMENT_DRAWS];
        for s in &mut samples {
            *s = self.sample(rng);
        }
        let n = MOMENT_DRAWS as f64;
        let mean = samples.iter().copied().sum::<Vec2>() / n;
        let var = samples.iter().map(|s| s.dist_sq(mean)).sum::<f64>() / n / 2.0;
        (mean, var.sqrt())
    }
}

/// A measurement potential over the distance between two nodes.
pub trait PairPotential: Send + Sync {
    /// Unnormalized log likelihood of the potential at inter-node distance
    /// `d`.
    fn log_likelihood(&self, d: f64) -> f64;

    /// Likelihood (convenience; exponentiated [`PairPotential::log_likelihood`]).
    fn likelihood(&self, d: f64) -> f64 {
        self.log_likelihood(d).exp()
    }

    /// [`PairPotential::likelihood`] at every distance in `ds`, written to
    /// `out` (equal lengths). The particle engine's mixture kernel makes
    /// one such call per (candidate, neighbor) pair, so an override can
    /// hoist per-observation terms and exponentiate the batch at once
    /// (`wsnloc_geom::exp`); the default loops over the scalar form.
    fn likelihoods(&self, ds: &[f64], out: &mut [f64]) {
        debug_assert_eq!(ds.len(), out.len());
        for (o, &d) in out.iter_mut().zip(ds) {
            *o = self.likelihood(d);
        }
    }

    /// Draws a distance hypothesis compatible with the potential — the
    /// proposal used by particle message passing ("my neighbor is *about
    /// this far* in some direction").
    fn sample_distance(&self, rng: &mut Xoshiro256pp) -> f64;

    /// Distance beyond which the likelihood is negligible; `None` means
    /// unbounded. Grid message convolution truncates kernels here.
    fn max_distance(&self) -> Option<f64>;

    /// If this potential is (approximately) a Gaussian range observation,
    /// its `(observed distance, noise standard deviation)` — consumed by
    /// the parametric [`crate::gaussian::GaussianBp`] backend, which skips
    /// potentials that return `None`.
    fn gaussian_range(&self) -> Option<(f64, f64)> {
        None
    }
}

/// Isotropic Gaussian prior — the drop-point pre-knowledge model.
#[derive(Debug, Clone, Copy)]
pub struct GaussianUnary {
    /// Prior mean (the planned drop coordinate).
    pub mean: Vec2,
    /// Per-axis standard deviation.
    pub sigma: f64,
}

impl UnaryPotential for GaussianUnary {
    fn log_density(&self, x: Vec2) -> f64 {
        -x.dist_sq(self.mean) / (2.0 * self.sigma * self.sigma)
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2 {
        rng.gaussian_point(self.mean, self.sigma)
    }

    /// Exact: the drop point and its σ, with no draws.
    fn moments(&self, _rng: &mut Xoshiro256pp) -> (Vec2, f64) {
        (self.mean, self.sigma)
    }
}

/// Uniform prior over an axis-aligned box — the uninformative default
/// ("somewhere in the field").
#[derive(Debug, Clone, Copy)]
pub struct UniformBoxUnary(pub Aabb);

impl UnaryPotential for UniformBoxUnary {
    fn log_density(&self, x: Vec2) -> f64 {
        if self.0.contains(x) {
            0.0
        } else {
            f64::NEG_INFINITY
        }
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2 {
        rng.point_in(self.0.min, self.0.max)
    }
}

/// Uniform prior over an arbitrary region — corridor/zone pre-knowledge
/// ("this node is somewhere in sector 7").
#[derive(Debug, Clone)]
pub struct UniformShapeUnary(pub Shape);

impl UnaryPotential for UniformShapeUnary {
    fn log_density(&self, x: Vec2) -> f64 {
        if self.0.contains(x) {
            0.0
        } else {
            f64::NEG_INFINITY
        }
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2 {
        self.0.sample(rng)
    }
}

/// Gaussian range observation: `observed ~ N(true distance, sigma²)`.
#[derive(Debug, Clone, Copy)]
pub struct GaussianRange {
    /// The measured distance.
    pub observed: f64,
    /// Measurement noise standard deviation.
    pub sigma: f64,
}

impl PairPotential for GaussianRange {
    fn log_likelihood(&self, d: f64) -> f64 {
        let z = (self.observed - d) / self.sigma;
        -0.5 * z * z
    }

    fn likelihoods(&self, ds: &[f64], out: &mut [f64]) {
        debug_assert_eq!(ds.len(), out.len());
        for (o, &d) in out.iter_mut().zip(ds) {
            let z = (self.observed - d) / self.sigma;
            *o = -0.5 * z * z;
        }
        exp_in_place(out);
    }

    fn sample_distance(&self, rng: &mut Xoshiro256pp) -> f64 {
        rng.normal(self.observed, self.sigma).max(1e-3)
    }

    fn max_distance(&self) -> Option<f64> {
        Some(self.observed + 5.0 * self.sigma)
    }

    fn gaussian_range(&self) -> Option<(f64, f64)> {
        Some((self.observed, self.sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_prior_shape() {
        let g = GaussianUnary {
            mean: Vec2::new(10.0, 10.0),
            sigma: 2.0,
        };
        assert_eq!(g.log_density(g.mean), 0.0);
        // One sigma out: log density -0.5.
        assert!((g.log_density(Vec2::new(12.0, 10.0)) + 0.5).abs() < 1e-12);
        let mut rng = Xoshiro256pp::seed_from(2);
        let n = 20_000;
        let mean_dist: f64 =
            (0..n).map(|_| g.sample(&mut rng).dist(g.mean)).sum::<f64>() / n as f64;
        // Rayleigh mean = σ·sqrt(π/2) ≈ 2.5066.
        assert!((mean_dist - 2.0 * (std::f64::consts::PI / 2.0).sqrt()).abs() < 0.05);
    }

    #[test]
    fn uniform_box_support() {
        let u = UniformBoxUnary(Aabb::from_size(10.0, 10.0));
        assert_eq!(u.log_density(Vec2::new(5.0, 5.0)), 0.0);
        assert_eq!(u.log_density(Vec2::new(-1.0, 5.0)), f64::NEG_INFINITY);
        let mut rng = Xoshiro256pp::seed_from(3);
        for _ in 0..1000 {
            let s = u.sample(&mut rng);
            assert!(u.log_density(s) == 0.0);
        }
    }

    #[test]
    fn uniform_shape_support() {
        let u = UniformShapeUnary(Shape::Disk {
            center: Vec2::new(5.0, 5.0),
            radius: 2.0,
        });
        assert_eq!(u.log_density(Vec2::new(5.0, 5.0)), 0.0);
        assert_eq!(u.log_density(Vec2::new(9.0, 5.0)), f64::NEG_INFINITY);
        let mut rng = Xoshiro256pp::seed_from(4);
        for _ in 0..500 {
            assert!(u.log_density(u.sample(&mut rng)).is_finite());
        }
    }

    #[test]
    fn gaussian_moments_are_the_fields_and_box_moments_are_sampled() {
        let g = GaussianUnary {
            mean: Vec2::new(12.5, -3.0),
            sigma: 7.25,
        };
        let mut rng = Xoshiro256pp::seed_from(5);
        let untouched = rng.clone();
        assert_eq!(g.moments(&mut rng), (g.mean, g.sigma));
        assert_eq!(rng.next_u64(), untouched.clone().next_u64(), "no draws");

        // The default is the 64-draw estimate the Gaussian backend made
        // inline before priors reported their own moments, bit for bit.
        let b = UniformBoxUnary(Aabb::new(Vec2::new(-40.0, 10.0), Vec2::new(260.0, 90.0)));
        let root = Xoshiro256pp::seed_from(0xB0D);
        for u in [0u64, 1, 97] {
            let mut rng = root.split(0x6A05 ^ u);
            let mut samples = [Vec2::ZERO; 64];
            for s in &mut samples {
                *s = b.sample(&mut rng);
            }
            let mean = Vec2::centroid(&samples).expect("64 draws");
            let var =
                samples.iter().map(|s| s.dist_sq(mean)).sum::<f64>() / samples.len() as f64 / 2.0;
            let (m, sigma) = b.moments(&mut root.split(0x6A05 ^ u));
            assert_eq!(
                (m.x.to_bits(), m.y.to_bits()),
                (mean.x.to_bits(), mean.y.to_bits())
            );
            assert_eq!(sigma.to_bits(), var.sqrt().to_bits());
        }
    }

    #[test]
    fn gaussian_range_peaks_at_observation() {
        let g = GaussianRange {
            observed: 50.0,
            sigma: 5.0,
        };
        assert_eq!(g.log_likelihood(50.0), 0.0);
        assert!(g.log_likelihood(45.0) < 0.0);
        assert!((g.likelihood(55.0) - (-0.5f64).exp()).abs() < 1e-12);
        assert_eq!(g.max_distance(), Some(75.0));
        let mut rng = Xoshiro256pp::seed_from(6);
        let mean: f64 = (0..20_000)
            .map(|_| g.sample_distance(&mut rng))
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 50.0).abs() < 0.2);
    }

    #[test]
    fn sampled_distances_positive() {
        let g = GaussianRange {
            observed: 1.0,
            sigma: 10.0,
        };
        let mut rng = Xoshiro256pp::seed_from(7);
        for _ in 0..5_000 {
            assert!(g.sample_distance(&mut rng) > 0.0);
        }
    }
}
