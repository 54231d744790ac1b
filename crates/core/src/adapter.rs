//! Adapters from simulator models to inference potentials.
//!
//! The simulator's [`RangingModel`] is the *generative* truth; inference
//! needs the same density viewed as a function of the hypothesized distance
//! for a fixed observation. [`RangingPotential`] is that view. Because both
//! sides share one [`RangingModel`], the localizer runs in the
//! well-specified-likelihood regime the Bayesian formulation assumes;
//! model-mismatch experiments substitute a different model here on purpose.
//!
//! [`ConnectivityPotential`] is the optional negative-information factor:
//! two nodes that *cannot* hear each other are probably far apart. It is a
//! soft constraint derived from the radio model's connect probability.

use wsnloc_bayes::PairPotential;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_net::{RadioModel, RangingModel};

/// A ranging observation as a pairwise potential.
#[derive(Debug, Clone, Copy)]
pub struct RangingPotential {
    /// The observed distance.
    pub observed: f64,
    /// The noise model the observation was (assumed) drawn from.
    pub model: RangingModel,
}

impl PairPotential for RangingPotential {
    fn log_likelihood(&self, d: f64) -> f64 {
        self.model.log_likelihood(self.observed, d)
    }

    /// The model's batch form. The scalar `likelihood` stays
    /// `exp(log_likelihood)`: the grid's kernel tables read it, and their
    /// bits are pinned.
    fn likelihoods(&self, ds: &[f64], out: &mut [f64]) {
        self.model.likelihoods(self.observed, ds, out);
    }

    fn sample_distance(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.model.sample_distance(self.observed, rng)
    }

    fn max_distance(&self) -> Option<f64> {
        // 5 sigma beyond the observation, with the noise evaluated at the
        // observation itself (adequate for the mild noise levels swept).
        Some(self.observed + 5.0 * self.model.noise_std(self.observed))
    }

    fn gaussian_range(&self) -> Option<(f64, f64)> {
        // Moment-match every ranging model at the observation point; exact
        // for the additive model, a first-order match for the others.
        Some((self.observed, self.model.noise_std(self.observed)))
    }
}

/// "We are connected" as a soft potential (for radio models with a
/// transition band) or "we are NOT connected" as its complement.
#[derive(Debug, Clone, Copy)]
pub struct ConnectivityPotential {
    /// The radio model.
    pub radio: RadioModel,
    /// `true`: the pair is connected; `false`: the pair is known to be
    /// disconnected (negative information).
    pub connected: bool,
}

impl PairPotential for ConnectivityPotential {
    fn log_likelihood(&self, d: f64) -> f64 {
        let p = self.radio.connect_prob(d);
        let p = if self.connected { p } else { 1.0 - p };
        p.max(1e-12).ln()
    }

    fn sample_distance(&self, rng: &mut Xoshiro256pp) -> f64 {
        let r = self.radio.nominal_range();
        if self.connected {
            // Area-uniform within the nominal disk.
            r * rng.f64().sqrt()
        } else {
            // Uniform in the "just out of range" band.
            r * (1.0 + rng.f64())
        }
    }

    fn max_distance(&self) -> Option<f64> {
        if self.connected {
            Some(self.radio.max_range())
        } else {
            None // disconnection is informative at any distance
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranging_potential_peaks_at_observation() {
        let p = RangingPotential {
            observed: 80.0,
            model: RangingModel::Multiplicative { factor: 0.1 },
        };
        let peak = p.log_likelihood(80.0);
        assert!(peak > p.log_likelihood(60.0));
        assert!(peak > p.log_likelihood(100.0));
    }

    #[test]
    fn ranging_potential_matches_model_likelihood() {
        let model = RangingModel::AdditiveGaussian { sigma: 4.0 };
        let p = RangingPotential {
            observed: 50.0,
            model,
        };
        for d in [30.0, 50.0, 70.0] {
            assert!((p.log_likelihood(d) - model.log_likelihood(50.0, d)).abs() < 1e-12);
        }
    }

    #[test]
    fn ranging_max_distance_covers_tail() {
        let p = RangingPotential {
            observed: 100.0,
            model: RangingModel::Multiplicative { factor: 0.1 },
        };
        let max = p.max_distance().unwrap();
        assert!((max - 150.0).abs() < 1e-9);
        // Likelihood at the truncation radius is small vs the peak (the
        // multiplicative model widens with hypothesized distance, so the
        // tail decays slower than a fixed-σ Gaussian's 12.5 nats).
        assert!(p.log_likelihood(max) < p.log_likelihood(100.0) - 5.0);
    }

    #[test]
    fn ranging_samples_cluster_near_observation() {
        let p = RangingPotential {
            observed: 60.0,
            model: RangingModel::Multiplicative { factor: 0.05 },
        };
        let mut rng = Xoshiro256pp::seed_from(4);
        let mean: f64 = (0..10_000)
            .map(|_| p.sample_distance(&mut rng))
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 60.0).abs() < 1.0);
    }

    #[test]
    fn connectivity_positive_prefers_close() {
        let p = ConnectivityPotential {
            radio: RadioModel::QuasiUdg {
                inner: 80.0,
                outer: 120.0,
            },
            connected: true,
        };
        assert!(p.log_likelihood(50.0) > p.log_likelihood(110.0));
        assert!(p.log_likelihood(110.0) > p.log_likelihood(130.0));
        assert_eq!(p.max_distance(), Some(120.0));
    }

    #[test]
    fn connectivity_negative_prefers_far() {
        let p = ConnectivityPotential {
            radio: RadioModel::QuasiUdg {
                inner: 80.0,
                outer: 120.0,
            },
            connected: false,
        };
        assert!(p.log_likelihood(130.0) > p.log_likelihood(100.0));
        assert!(p.log_likelihood(100.0) > p.log_likelihood(50.0));
        assert_eq!(p.max_distance(), None);
    }

    #[test]
    fn connectivity_samples_respect_side() {
        let radio = RadioModel::UnitDisk { range: 100.0 };
        let mut rng = Xoshiro256pp::seed_from(5);
        let inside = ConnectivityPotential {
            radio,
            connected: true,
        };
        let outside = ConnectivityPotential {
            radio,
            connected: false,
        };
        for _ in 0..1000 {
            assert!(inside.sample_distance(&mut rng) <= 100.0);
            assert!(outside.sample_distance(&mut rng) >= 100.0);
        }
    }
}
