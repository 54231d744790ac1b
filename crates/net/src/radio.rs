//! Radio connectivity models.
//!
//! A [`RadioModel`] decides which node pairs share a link. Cooperative
//! localization results are sensitive to this choice: unit-disk graphs are
//! the analytical workhorse, quasi-UDG adds a probabilistic transition band,
//! and log-normal shadowing reproduces the irregular, asymmetric-looking
//! neighborhoods of real deployments.
//!
//! All models expose `connect_prob(distance)` — the link probability at a
//! given true distance — which doubles as the *connectivity likelihood* used
//! by Bayesian inference (the probability of observing "connected" given a
//! hypothesized pair of positions).

use wsnloc_geom::rng::Xoshiro256pp;

/// Link model between two nodes at a known true distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RadioModel {
    /// Deterministic disk: connected iff `distance <= range`.
    UnitDisk {
        /// Communication range (meters).
        range: f64,
    },
    /// Quasi unit disk: always connected below `inner`, never beyond
    /// `outer`, and linearly decreasing probability in between.
    QuasiUdg {
        /// Distance below which links always exist.
        inner: f64,
        /// Distance beyond which links never exist.
        outer: f64,
    },
    /// Log-normal shadowing: received power fluctuates by a zero-mean
    /// Gaussian in dB, so the connection probability at distance `d` is
    /// `Q( 10·η·log10(d/range) / σ_dB )` — 50% at the nominal range,
    /// smoothly decaying with distance.
    LogNormal {
        /// Nominal range where connectivity probability is 50%.
        range: f64,
        /// Path-loss exponent η (≈ 2 free space, 3–4 indoor).
        path_loss_exp: f64,
        /// Shadowing standard deviation in dB.
        sigma_db: f64,
    },
}

impl RadioModel {
    /// The nominal communication range — the distance scale experiments
    /// normalize errors by.
    pub fn nominal_range(&self) -> f64 {
        match self {
            RadioModel::UnitDisk { range } => *range,
            RadioModel::QuasiUdg { inner, outer } => (inner + outer) / 2.0,
            RadioModel::LogNormal { range, .. } => *range,
        }
    }

    /// A hard upper bound on link distance: beyond this, `connect_prob` is
    /// negligible. Used to size spatial-grid queries and as the support of
    /// connectivity-constraint factors.
    pub fn max_range(&self) -> f64 {
        match self {
            RadioModel::UnitDisk { range } => *range,
            RadioModel::QuasiUdg { outer, .. } => *outer,
            // 4σ of shadowing translated into distance.
            RadioModel::LogNormal {
                range,
                path_loss_exp,
                sigma_db,
            } => range * 10f64.powf(4.0 * sigma_db / (10.0 * path_loss_exp)),
        }
    }

    /// Probability that two nodes at true distance `d` share a link.
    pub fn connect_prob(&self, d: f64) -> f64 {
        debug_assert!(d >= 0.0, "distance must be non-negative");
        match self {
            RadioModel::UnitDisk { range } => {
                if d <= *range {
                    1.0
                } else {
                    0.0
                }
            }
            RadioModel::QuasiUdg { inner, outer } => {
                if d <= *inner {
                    1.0
                } else if d >= *outer {
                    0.0
                } else {
                    (outer - d) / (outer - inner)
                }
            }
            RadioModel::LogNormal {
                range,
                path_loss_exp,
                sigma_db,
            } => {
                if d <= 0.0 {
                    return 1.0;
                }
                // Excess path loss relative to the nominal range, in dB.
                let excess_db = 10.0 * path_loss_exp * (d / range).log10();
                q_function(excess_db / sigma_db)
            }
        }
    }

    /// Samples whether a link exists at true distance `d`.
    pub fn sample_link(&self, d: f64, rng: &mut Xoshiro256pp) -> bool {
        match self {
            // Fast path: no RNG draw for the deterministic model.
            RadioModel::UnitDisk { range } => d <= *range,
            _ => rng.bernoulli(self.connect_prob(d)),
        }
    }
}

/// Gaussian tail probability `Q(x) = P(Z > x)` via the complementary error
/// function (Abramowitz–Stegun 7.1.26 polynomial, |error| < 1.5e-7).
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let tau = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_disk_is_a_step() {
        let r = RadioModel::UnitDisk { range: 10.0 };
        assert_eq!(r.connect_prob(9.999), 1.0);
        assert_eq!(r.connect_prob(10.0), 1.0);
        assert_eq!(r.connect_prob(10.001), 0.0);
        assert_eq!(r.nominal_range(), 10.0);
        assert_eq!(r.max_range(), 10.0);
    }

    #[test]
    fn quasi_udg_transitions_linearly() {
        let r = RadioModel::QuasiUdg {
            inner: 8.0,
            outer: 12.0,
        };
        assert_eq!(r.connect_prob(7.0), 1.0);
        assert_eq!(r.connect_prob(13.0), 0.0);
        assert!((r.connect_prob(10.0) - 0.5).abs() < 1e-12);
        assert!((r.connect_prob(9.0) - 0.75).abs() < 1e-12);
        assert_eq!(r.nominal_range(), 10.0);
    }

    #[test]
    fn lognormal_half_probability_at_nominal_range() {
        let r = RadioModel::LogNormal {
            range: 100.0,
            path_loss_exp: 3.0,
            sigma_db: 6.0,
        };
        assert!((r.connect_prob(100.0) - 0.5).abs() < 1e-6);
        assert!(r.connect_prob(50.0) > 0.9);
        assert!(r.connect_prob(200.0) < 0.1);
        assert!(r.max_range() > 100.0);
    }

    #[test]
    fn connect_prob_is_monotone_decreasing() {
        let models = [
            RadioModel::UnitDisk { range: 50.0 },
            RadioModel::QuasiUdg {
                inner: 40.0,
                outer: 60.0,
            },
            RadioModel::LogNormal {
                range: 50.0,
                path_loss_exp: 3.0,
                sigma_db: 4.0,
            },
        ];
        for m in models {
            let mut prev = m.connect_prob(0.0);
            for i in 1..200 {
                let p = m.connect_prob(i as f64);
                assert!(p <= prev + 1e-12, "{m:?} not monotone at d={i}");
                assert!((0.0..=1.0).contains(&p));
                prev = p;
            }
        }
    }

    #[test]
    fn sample_link_frequency_matches_probability() {
        let r = RadioModel::QuasiUdg {
            inner: 8.0,
            outer: 12.0,
        };
        let mut rng = Xoshiro256pp::seed_from(9);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.sample_link(10.0, &mut rng)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "link fraction {frac}");
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-5);
        assert!((q_function(-1.0) - 0.841_345).abs() < 1e-5);
        assert!(q_function(5.0) < 1e-6);
        assert!(q_function(-5.0) > 1.0 - 1e-6);
    }

    #[test]
    fn erfc_symmetry() {
        for x in [-2.0, -0.7, 0.0, 0.3, 1.8] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-6);
        }
    }
}
