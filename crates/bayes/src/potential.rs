//! Potentials for spatial Markov random fields.
//!
//! The localization posterior factorizes as
//! `p(x₁..x_N) ∝ Π_u φ_u(x_u) · Π_(u,v) ψ_uv(‖x_u − x_v‖)`:
//!
//! - **Unary potentials** `φ_u` ([`UnaryPotential`]) encode everything known
//!   about a node *before* measurements — this is exactly the paper's
//!   "pre-knowledge". Implementations: delta (anchors), Gaussian drop-point
//!   priors, uniform boxes/shapes, and mixtures.
//! - **Pairwise potentials** `ψ_uv` ([`PairPotential`]) encode measurements.
//!   They depend on the two positions only through their distance, which is
//!   what makes message passing tractable. Implementations here cover the
//!   Gaussian range observation; the core crate adapts its richer noise
//!   models through the same trait.

use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Shape, Vec2};

/// Prior knowledge about a single node position.
pub trait UnaryPotential: Send + Sync {
    /// Unnormalized log density at `x`. `-inf` is allowed (outside support).
    fn log_density(&self, x: Vec2) -> f64;

    /// Draws a sample from (an approximation of) the prior.
    fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2;

    /// A representative point (mode/mean) if one exists — used to seed
    /// deterministic initializations.
    fn mode_hint(&self) -> Option<Vec2> {
        None
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

    /// Translation-invariance hook for the grid backend's stencil cache.
    ///
    /// On a regular grid a distance-only potential depends on a cell pair
    /// only through the integer offset `(Δx, Δy)` between the cells, so
    /// the grid engine can precompute the likelihood once per offset
    /// instead of once per (source cell × kernel cell) pair. This method
    /// returns that table for cell sizes `(dx, dy)` and half-extents
    /// `(rx, ry)`: a row-major `(2·ry + 1) × (2·rx + 1)` vector where the
    /// entry for offset `(ox, oy)` (each in `−r..=r`) lives at
    /// `(oy + ry) · (2·rx + 1) + (ox + rx)` and holds
    /// `likelihood(‖(ox·dx, oy·dy)‖)`.
    ///
    /// The default evaluates [`PairPotential::likelihood`] per offset,
    /// which is exact for every distance-only potential. Override to
    /// return `None` for a potential whose discretization must *not*
    /// assume pure distance dependence (an anisotropic or
    /// position-dependent factor adapted through this trait); the grid
    /// engine then falls back to the per-pair evaluation path for that
    /// potential's edges.
    fn discretized_kernel(&self, dx: f64, dy: f64, rx: usize, ry: usize) -> Option<Vec<f64>> {
        let w = 2 * rx + 1;
        let h = 2 * ry + 1;
        let mut table = Vec::with_capacity(w * h);
        for iy in 0..h {
            let oy = iy as isize - ry as isize;
            for ix in 0..w {
                let ox = ix as isize - rx as isize;
                let d = Vec2::new(ox as f64 * dx, oy as f64 * dy).norm();
                table.push(self.likelihood(d));
            }
        }
        Some(table)
    }
}

/// Exactly-known position (anchors enter the graph as delta priors).
#[derive(Debug, Clone, Copy)]
pub struct DeltaUnary(pub Vec2);

impl UnaryPotential for DeltaUnary {
    fn log_density(&self, x: Vec2) -> f64 {
        // A numerical delta: extremely tight Gaussian so grid cells
        // containing the anchor dominate without producing actual infinities.
        -x.dist_sq(self.0) / (2.0 * 1e-6)
    }

    fn sample(&self, _rng: &mut Xoshiro256pp) -> Vec2 {
        self.0
    }

    fn mode_hint(&self) -> Option<Vec2> {
        Some(self.0)
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

    fn mode_hint(&self) -> Option<Vec2> {
        Some(self.mean)
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

    fn mode_hint(&self) -> Option<Vec2> {
        Some(self.0.center())
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

    fn mode_hint(&self) -> Option<Vec2> {
        Some(self.0.bounding_box().center())
    }
}

/// Weighted mixture of priors — e.g. "dropped from pass A or pass B".
pub struct MixtureUnary {
    components: Vec<(f64, Box<dyn UnaryPotential>)>,
}

impl MixtureUnary {
    /// Builds a mixture; weights are normalized. Panics when empty or when
    /// weights do not sum to a positive value.
    pub fn new(components: Vec<(f64, Box<dyn UnaryPotential>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "mixture weights must sum to a positive value");
        MixtureUnary {
            components: components
                .into_iter()
                .map(|(w, c)| (w / total, c))
                .collect(),
        }
    }
}

impl UnaryPotential for MixtureUnary {
    fn log_density(&self, x: Vec2) -> f64 {
        // log-sum-exp over components.
        let logs: Vec<f64> = self
            .components
            .iter()
            .map(|(w, c)| w.ln() + c.log_density(x))
            .collect();
        let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if m == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        m + logs.iter().map(|l| (l - m).exp()).sum::<f64>().ln()
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2 {
        let weights: Vec<f64> = self.components.iter().map(|(w, _)| *w).collect();
        // Weights are normalized at construction; fall back to the first
        // component if the mass has degenerated.
        let idx = rng.weighted_index(&weights).unwrap_or(0);
        self.components[idx].1.sample(rng)
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
    fn delta_concentrates_all_mass() {
        let d = DeltaUnary(Vec2::new(3.0, 4.0));
        assert_eq!(d.log_density(Vec2::new(3.0, 4.0)), 0.0);
        assert!(d.log_density(Vec2::new(3.1, 4.0)) < -100.0);
        let mut rng = Xoshiro256pp::seed_from(1);
        assert_eq!(d.sample(&mut rng), Vec2::new(3.0, 4.0));
        assert_eq!(d.mode_hint(), Some(Vec2::new(3.0, 4.0)));
    }

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
    fn mixture_combines_components() {
        let m = MixtureUnary::new(vec![
            (
                1.0,
                Box::new(GaussianUnary {
                    mean: Vec2::ZERO,
                    sigma: 1.0,
                }) as Box<dyn UnaryPotential>,
            ),
            (
                3.0,
                Box::new(GaussianUnary {
                    mean: Vec2::new(100.0, 0.0),
                    sigma: 1.0,
                }),
            ),
        ]);
        // Density near both modes, higher (by weight) at the second.
        let d0 = m.log_density(Vec2::ZERO);
        let d1 = m.log_density(Vec2::new(100.0, 0.0));
        assert!(d1 > d0);
        assert!((d1 - d0 - (3.0f64).ln()).abs() < 1e-9);
        // Samples split ~1:3.
        let mut rng = Xoshiro256pp::seed_from(5);
        let n = 20_000;
        let right = (0..n).filter(|_| m.sample(&mut rng).x > 50.0).count();
        assert!((right as f64 / n as f64 - 0.75).abs() < 0.02);
    }

    #[test]
    fn mixture_log_density_outside_all_support() {
        let m = MixtureUnary::new(vec![(
            1.0,
            Box::new(UniformBoxUnary(Aabb::from_size(1.0, 1.0))) as Box<dyn UnaryPotential>,
        )]);
        assert_eq!(m.log_density(Vec2::new(5.0, 5.0)), f64::NEG_INFINITY);
    }

    #[test]
    fn discretized_kernel_matches_pointwise_likelihood() {
        let g = GaussianRange {
            observed: 10.0,
            sigma: 3.0,
        };
        let (dx, dy, rx, ry) = (2.0, 2.5, 6usize, 5usize);
        let table = g.discretized_kernel(dx, dy, rx, ry).expect("default table");
        assert_eq!(table.len(), (2 * rx + 1) * (2 * ry + 1));
        for oy in -(ry as isize)..=(ry as isize) {
            for ox in -(rx as isize)..=(rx as isize) {
                let idx = (oy + ry as isize) as usize * (2 * rx + 1) + (ox + rx as isize) as usize;
                let d = Vec2::new(ox as f64 * dx, oy as f64 * dy).norm();
                assert_eq!(table[idx].to_bits(), g.likelihood(d).to_bits());
            }
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
