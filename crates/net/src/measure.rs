//! Ranging measurement models.
//!
//! Connected node pairs observe a noisy estimate of their distance. The
//! model is used twice: *generatively* by the simulator
//! ([`RangingModel::observe`]) and *inferentially* by the Bayesian-network
//! localizer ([`RangingModel::likelihood`] evaluates p(observed | true
//! distance) up to proportionality). Keeping both in one type keeps the two
//! in step. For `AdditiveGaussian`, `Multiplicative` and `LogNormal` the
//! likelihood is the simulator's density exactly, up to the `MIN_DISTANCE`
//! floor both apply — the "well-specified model" regime the paper's
//! Bayesian formulation assumes. `NlosMixture` is approximate: `observe`
//! scales an outlier's `d + e` by the LOS factor `(1 + N(0, factor²))`,
//! while the likelihood models the outlier excess as a pure exponential
//! starting at `observed = d`, leaving that smear out. The gap grows with
//! distance: at d = 150 m and a 10% factor the smear's spread (15 m) is a
//! quarter of a 60 m outlier scale.

use wsnloc_geom::exp::exp_in_place;
use wsnloc_geom::rng::Xoshiro256pp;

/// A symmetric pairwise range observation between nodes `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// First endpoint (node index).
    pub a: usize,
    /// Second endpoint (node index).
    pub b: usize,
    /// Observed distance (meters), always > 0.
    pub distance: f64,
}

/// Noise model for distance observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangingModel {
    /// `observed = true + N(0, sigma²)`, truncated at a small positive floor.
    AdditiveGaussian {
        /// Noise standard deviation (meters).
        sigma: f64,
    },
    /// `observed = true · (1 + N(0, factor²))` — noise grows with distance,
    /// the standard model for RSSI-derived ranging. `factor` is the "noise
    /// factor" swept by the experiments (e.g. 0.1 = 10% ranging noise).
    Multiplicative {
        /// Relative noise standard deviation.
        factor: f64,
    },
    /// Log-normal: `log(observed) = log(true) + N(0, sigma_log²)`. Models
    /// RSSI inversion through a log-distance path-loss law; `sigma_log =
    /// σ_dB · ln10 / (10 η)`.
    LogNormal {
        /// Standard deviation of the log-distance error.
        sigma_log: f64,
    },
    /// Non-line-of-sight mixture: with probability `1 − outlier_prob` the
    /// observation is the multiplicative-Gaussian LOS measurement; with
    /// probability `outlier_prob` an exponential positive excess delay of
    /// mean `outlier_scale` meters is added first (signal detoured around
    /// an obstacle — NLOS bias is always positive). The likelihood is the
    /// matching two-component mixture, which is what lets Bayesian fusion
    /// shrug off outliers that break least-squares solvers.
    NlosMixture {
        /// LOS relative noise standard deviation.
        factor: f64,
        /// Probability of an NLOS (outlier) observation, in `[0, 1]`.
        outlier_prob: f64,
        /// Mean positive excess distance of NLOS observations (meters).
        outlier_scale: f64,
    },
}

/// Floor applied to observed distances (meters) so likelihoods stay finite.
const MIN_DISTANCE: f64 = 1e-3;

impl RangingModel {
    /// Builds the log-normal model from RSSI channel parameters.
    pub fn from_rssi(sigma_db: f64, path_loss_exp: f64) -> RangingModel {
        RangingModel::LogNormal {
            sigma_log: sigma_db * std::f64::consts::LN_10 / (10.0 * path_loss_exp),
        }
    }

    /// Draws one observation of a true distance.
    pub fn observe(&self, true_dist: f64, rng: &mut Xoshiro256pp) -> f64 {
        debug_assert!(true_dist >= 0.0);
        let raw = match self {
            RangingModel::AdditiveGaussian { sigma } => rng.normal(true_dist, *sigma),
            RangingModel::Multiplicative { factor } => true_dist * (1.0 + rng.normal(0.0, *factor)),
            RangingModel::LogNormal { sigma_log } => {
                (true_dist.max(MIN_DISTANCE).ln() + rng.normal(0.0, *sigma_log)).exp()
            }
            RangingModel::NlosMixture {
                factor,
                outlier_prob,
                outlier_scale,
            } => {
                let base = if rng.bernoulli(*outlier_prob) {
                    true_dist + rng.exponential(1.0 / outlier_scale.max(1e-9))
                } else {
                    true_dist
                };
                base * (1.0 + rng.normal(0.0, *factor))
            }
        };
        raw.max(MIN_DISTANCE)
    }

    /// Standard deviation of the observation at a given true distance —
    /// used for bandwidths, CRLB weights, and gating.
    pub fn noise_std(&self, true_dist: f64) -> f64 {
        match self {
            RangingModel::AdditiveGaussian { sigma } => *sigma,
            RangingModel::Multiplicative { factor } => factor * true_dist.max(MIN_DISTANCE),
            // Delta-method approximation: sd(d·e^X) ≈ d·σ_log for small σ.
            RangingModel::LogNormal { sigma_log } => sigma_log * true_dist.max(MIN_DISTANCE),
            // Mixture: LOS spread plus the outlier component's mean+std
            // contribution (exponential has mean = sd = scale).
            RangingModel::NlosMixture {
                factor,
                outlier_prob,
                outlier_scale,
            } => {
                let los = factor * true_dist.max(MIN_DISTANCE);
                ((1.0 - outlier_prob) * los * los
                    + outlier_prob * 2.0 * outlier_scale * outlier_scale)
                    .sqrt()
            }
        }
    }

    /// Likelihood `p(observed | true_dist)` up to a constant factor (the
    /// message-passing code renormalizes, so constants are dropped where
    /// convenient but *distance-dependent* terms are kept).
    pub fn likelihood(&self, observed: f64, true_dist: f64) -> f64 {
        let observed = observed.max(MIN_DISTANCE);
        let true_dist = true_dist.max(MIN_DISTANCE);
        match self {
            RangingModel::AdditiveGaussian { sigma } => {
                let z = (observed - true_dist) / sigma;
                (-0.5 * z * z).exp()
            }
            RangingModel::Multiplicative { factor } => {
                // observed | true ~ N(true, (factor·true)²): the normalizer
                // depends on the hypothesis, so keep the 1/true term.
                let sd = factor * true_dist;
                let z = (observed - true_dist) / sd;
                (-0.5 * z * z).exp() / sd
            }
            RangingModel::LogNormal { sigma_log } => {
                let z = (observed.ln() - true_dist.ln()) / sigma_log;
                (-0.5 * z * z).exp()
            }
            RangingModel::NlosMixture {
                factor,
                outlier_prob,
                outlier_scale,
            } => {
                // LOS component (normalized in obs for fixed d).
                let sd = factor * true_dist;
                let z = (observed - true_dist) / sd;
                let los = (-0.5 * z * z).exp() / (sd * (std::f64::consts::TAU).sqrt());
                // NLOS component: exponential excess, approximating the
                // multiplicative smear as negligible relative to the scale.
                let lambda = 1.0 / outlier_scale.max(1e-9);
                let nlos = if observed >= true_dist {
                    lambda * (-(observed - true_dist) * lambda).exp()
                } else {
                    0.0
                };
                ((1.0 - outlier_prob) * los + outlier_prob * nlos).max(1e-300)
            }
        }
    }

    /// [`RangingModel::likelihood`] at every hypothesized distance in
    /// `ds`, written to `out` — the batch form the particle engine's
    /// mixture kernel calls once per (candidate, neighbor) pair.
    ///
    /// Each variant writes its exponents first and exponentiates them in
    /// one [`exp_in_place`] pass; per-observation terms (`ln observed`,
    /// the NLOS rate) are computed once per call. Agrees with the scalar
    /// [`RangingModel::likelihood`] to 1e-14 relative: the batched `exp`
    /// is within 2 ulp of libm's.
    ///
    /// # Panics
    /// If `ds` and `out` differ in length.
    pub fn likelihoods(&self, observed: f64, ds: &[f64], out: &mut [f64]) {
        assert_eq!(ds.len(), out.len(), "distance/output length mismatch");
        let observed = observed.max(MIN_DISTANCE);
        match *self {
            RangingModel::AdditiveGaussian { sigma } => {
                for (o, &d) in out.iter_mut().zip(ds) {
                    let z = (observed - d.max(MIN_DISTANCE)) / sigma;
                    *o = -0.5 * z * z;
                }
                exp_in_place(out);
            }
            RangingModel::Multiplicative { factor } => {
                for (o, &d) in out.iter_mut().zip(ds) {
                    let d = d.max(MIN_DISTANCE);
                    let z = (observed - d) / (factor * d);
                    *o = -0.5 * z * z;
                }
                exp_in_place(out);
                for (o, &d) in out.iter_mut().zip(ds) {
                    *o /= factor * d.max(MIN_DISTANCE);
                }
            }
            RangingModel::LogNormal { sigma_log } => {
                let log_observed = observed.ln();
                for (o, &d) in out.iter_mut().zip(ds) {
                    let z = (log_observed - d.max(MIN_DISTANCE).ln()) / sigma_log;
                    *o = -0.5 * z * z;
                }
                exp_in_place(out);
            }
            RangingModel::NlosMixture {
                factor,
                outlier_prob,
                outlier_scale,
            } => {
                let lambda = 1.0 / outlier_scale.max(1e-9);
                let root_tau = std::f64::consts::TAU.sqrt();
                // LOS exponents go to `out`, NLOS exponents to a stack
                // chunk beside it (−∞ where the excess would be negative).
                const CHUNK: usize = 32;
                let mut excess = [0.0; CHUNK];
                for (oc, dc) in out.chunks_mut(CHUNK).zip(ds.chunks(CHUNK)) {
                    let ec = &mut excess[..dc.len()];
                    for ((o, e), &d) in oc.iter_mut().zip(ec.iter_mut()).zip(dc) {
                        let d = d.max(MIN_DISTANCE);
                        let z = (observed - d) / (factor * d);
                        *o = -0.5 * z * z;
                        *e = if observed >= d {
                            -(observed - d) * lambda
                        } else {
                            f64::NEG_INFINITY
                        };
                    }
                    exp_in_place(oc);
                    exp_in_place(ec);
                    for ((o, &e), &d) in oc.iter_mut().zip(ec.iter()).zip(dc) {
                        let los = *o / (factor * d.max(MIN_DISTANCE) * root_tau);
                        *o = ((1.0 - outlier_prob) * los + outlier_prob * (lambda * e)).max(1e-300);
                    }
                }
            }
        }
    }

    /// Log-likelihood, matching [`RangingModel::likelihood`].
    pub fn log_likelihood(&self, observed: f64, true_dist: f64) -> f64 {
        let observed = observed.max(MIN_DISTANCE);
        let true_dist = true_dist.max(MIN_DISTANCE);
        match self {
            RangingModel::AdditiveGaussian { sigma } => {
                let z = (observed - true_dist) / sigma;
                -0.5 * z * z
            }
            RangingModel::Multiplicative { factor } => {
                let sd = factor * true_dist;
                let z = (observed - true_dist) / sd;
                -0.5 * z * z - sd.ln()
            }
            RangingModel::LogNormal { sigma_log } => {
                let z = (observed.ln() - true_dist.ln()) / sigma_log;
                -0.5 * z * z
            }
            m @ RangingModel::NlosMixture { .. } => m.likelihood(observed, true_dist).ln(),
        }
    }

    /// Samples a plausible true distance given an observation — the
    /// "inverse" draw used by particle-based message passing (approximate:
    /// applies the forward noise model around the observation, which is
    /// exact for the additive model and a good proposal for the others).
    pub fn sample_distance(&self, observed: f64, rng: &mut Xoshiro256pp) -> f64 {
        self.observe(observed, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_observations_center_on_truth() {
        let m = RangingModel::AdditiveGaussian { sigma: 2.0 };
        let mut rng = Xoshiro256pp::seed_from(1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| m.observe(100.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn multiplicative_noise_grows_with_distance() {
        let m = RangingModel::Multiplicative { factor: 0.1 };
        let mut rng = Xoshiro256pp::seed_from(2);
        let spread = |d: f64, rng: &mut Xoshiro256pp| {
            let n = 20_000;
            let obs: Vec<f64> = (0..n).map(|_| m.observe(d, rng)).collect();
            let mean = obs.iter().sum::<f64>() / n as f64;
            (obs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt()
        };
        let near = spread(10.0, &mut rng);
        let far = spread(100.0, &mut rng);
        assert!((far / near - 10.0).abs() < 1.0, "near {near} far {far}");
    }

    #[test]
    fn observations_are_positive() {
        let m = RangingModel::AdditiveGaussian { sigma: 50.0 };
        let mut rng = Xoshiro256pp::seed_from(3);
        for _ in 0..10_000 {
            assert!(m.observe(1.0, &mut rng) > 0.0);
        }
    }

    #[test]
    fn likelihood_peaks_near_truth() {
        for m in [
            RangingModel::AdditiveGaussian { sigma: 5.0 },
            RangingModel::Multiplicative { factor: 0.1 },
            RangingModel::LogNormal { sigma_log: 0.2 },
        ] {
            let obs = 50.0;
            let at_truth = m.likelihood(obs, 50.0);
            assert!(at_truth > m.likelihood(obs, 30.0), "{m:?}");
            assert!(at_truth > m.likelihood(obs, 80.0), "{m:?}");
        }
    }

    #[test]
    fn log_likelihood_matches_likelihood() {
        for m in [
            RangingModel::AdditiveGaussian { sigma: 5.0 },
            RangingModel::Multiplicative { factor: 0.15 },
            RangingModel::LogNormal { sigma_log: 0.3 },
        ] {
            for (obs, d) in [(40.0, 50.0), (10.0, 9.0), (100.0, 140.0)] {
                let l = m.likelihood(obs, d);
                let ll = m.log_likelihood(obs, d);
                assert!(
                    (l.ln() - ll).abs() < 1e-9,
                    "{m:?}: ln({l}) vs {ll} at obs={obs}, d={d}"
                );
            }
        }
    }

    #[test]
    fn batched_likelihoods_match_scalar() {
        let models = [
            RangingModel::AdditiveGaussian { sigma: 5.0 },
            RangingModel::Multiplicative { factor: 0.1 },
            RangingModel::LogNormal { sigma_log: 0.3 },
            RangingModel::NlosMixture {
                factor: 0.1,
                outlier_prob: 0.3,
                outlier_scale: 40.0,
            },
        ];
        let mut rng = Xoshiro256pp::seed_from(18);
        // Below MIN_DISTANCE, zero, and 70 random distances either side
        // of the observation (both NLOS branches), spanning several
        // 32-element chunks.
        let mut ds = vec![0.0, 1e-4, MIN_DISTANCE, 60.0];
        ds.extend((0..70).map(|_| rng.range(0.0, 150.0)));
        for m in models {
            for observed in [60.0, 0.5, 1e-4] {
                let mut out = vec![f64::NAN; ds.len()];
                m.likelihoods(observed, &ds, &mut out);
                for (&d, &got) in ds.iter().zip(&out) {
                    let want = m.likelihood(observed, d);
                    assert!(
                        (got - want).abs() <= 1e-14 * want,
                        "{m:?}: observed {observed}, d {d}: batched {got:e} vs scalar {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn noise_std_consistency() {
        assert_eq!(
            RangingModel::AdditiveGaussian { sigma: 3.0 }.noise_std(100.0),
            3.0
        );
        assert_eq!(
            RangingModel::Multiplicative { factor: 0.1 }.noise_std(100.0),
            10.0
        );
        let ln = RangingModel::LogNormal { sigma_log: 0.1 };
        assert!((ln.noise_std(100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn from_rssi_conversion() {
        // σ_dB = 6, η = 3 → σ_log = 6·ln10/30 ≈ 0.4605.
        let m = RangingModel::from_rssi(6.0, 3.0);
        match m {
            RangingModel::LogNormal { sigma_log } => {
                assert!((sigma_log - 0.460_517).abs() < 1e-5);
            }
            _ => panic!("expected LogNormal"),
        }
    }

    #[test]
    fn lognormal_observations_have_correct_log_spread() {
        let m = RangingModel::LogNormal { sigma_log: 0.25 };
        let mut rng = Xoshiro256pp::seed_from(4);
        let n = 50_000;
        let logs: Vec<f64> = (0..n).map(|_| m.observe(50.0, &mut rng).ln()).collect();
        let mean = logs.iter().sum::<f64>() / n as f64;
        let sd = (logs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 50.0f64.ln()).abs() < 0.01);
        assert!((sd - 0.25).abs() < 0.01);
    }

    #[test]
    fn nlos_observations_are_positively_biased() {
        let clean = RangingModel::Multiplicative { factor: 0.05 };
        let nlos = RangingModel::NlosMixture {
            factor: 0.05,
            outlier_prob: 0.3,
            outlier_scale: 40.0,
        };
        let mut rng = Xoshiro256pp::seed_from(21);
        let n = 50_000;
        let mean = |m: &RangingModel, rng: &mut Xoshiro256pp| {
            (0..n).map(|_| m.observe(100.0, rng)).sum::<f64>() / n as f64
        };
        let clean_mean = mean(&clean, &mut rng);
        let nlos_mean = mean(&nlos, &mut rng);
        // Expected bias = p · scale = 12 m.
        assert!((clean_mean - 100.0).abs() < 0.5);
        assert!((nlos_mean - 112.0).abs() < 1.5, "nlos mean {nlos_mean}");
    }

    #[test]
    fn nlos_likelihood_has_heavy_right_tail() {
        let m = RangingModel::NlosMixture {
            factor: 0.05,
            outlier_prob: 0.2,
            outlier_scale: 50.0,
        };
        // A 60 m over-measurement is far more plausible than a 60 m
        // under-measurement at d = 100.
        let over = m.likelihood(160.0, 100.0);
        let under = m.likelihood(40.0, 100.0);
        assert!(over > 100.0 * under, "over {over} vs under {under}");
        // And log matches.
        assert!((m.log_likelihood(160.0, 100.0) - over.ln()).abs() < 1e-9);
    }

    #[test]
    fn nlos_noise_std_interpolates_components() {
        let pure_los = RangingModel::NlosMixture {
            factor: 0.1,
            outlier_prob: 0.0,
            outlier_scale: 50.0,
        };
        assert!((pure_los.noise_std(100.0) - 10.0).abs() < 1e-9);
        let heavy = RangingModel::NlosMixture {
            factor: 0.1,
            outlier_prob: 0.5,
            outlier_scale: 50.0,
        };
        assert!(heavy.noise_std(100.0) > 30.0);
    }

    #[test]
    fn degenerate_distances_do_not_blow_up() {
        for m in [
            RangingModel::AdditiveGaussian { sigma: 1.0 },
            RangingModel::Multiplicative { factor: 0.1 },
            RangingModel::LogNormal { sigma_log: 0.2 },
            RangingModel::NlosMixture {
                factor: 0.1,
                outlier_prob: 0.2,
                outlier_scale: 30.0,
            },
        ] {
            let l = m.likelihood(0.0, 0.0);
            assert!(l.is_finite());
            let ll = m.log_likelihood(0.0, 0.0);
            assert!(ll.is_finite());
        }
    }
}
