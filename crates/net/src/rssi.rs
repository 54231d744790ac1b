//! RSSI modeling and channel calibration.
//!
//! Range-based localization on commodity hardware starts from received
//! signal strength. This module provides the log-distance path-loss model
//! with shadowing, RSSI → distance inversion, and — the part that connects
//! to *pre-knowledge* — channel calibration: anchors know their mutual
//! distances, so the anchor–anchor RSSI observations identify the channel
//! parameters by linear regression before any unknown node is localized.
//!
//! `RSSI(d) = P₀ − 10·η·log₁₀(d/d₀) + N(0, σ_dB²)`

use wsnloc_geom::rng::Xoshiro256pp;

/// Log-distance path-loss channel model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Received power at the reference distance (dBm).
    pub p0_dbm: f64,
    /// Reference distance (meters, > 0). Conventionally 1 m.
    pub d0: f64,
    /// Path-loss exponent η (≈2 free space, 3–4 cluttered).
    pub exponent: f64,
    /// Shadowing standard deviation (dB).
    pub sigma_db: f64,
}

impl PathLossModel {
    /// A typical 2.4 GHz outdoor channel: −40 dBm at 1 m, η = 3, 4 dB
    /// shadowing.
    pub fn typical_outdoor() -> Self {
        PathLossModel {
            p0_dbm: -40.0,
            d0: 1.0,
            exponent: 3.0,
            sigma_db: 4.0,
        }
    }

    /// Mean RSSI at a distance (no shadowing).
    pub fn expected_rssi(&self, distance: f64) -> f64 {
        let d = distance.max(1e-3);
        self.p0_dbm - 10.0 * self.exponent * (d / self.d0).log10()
    }

    /// One shadowed RSSI observation.
    pub fn observe_rssi(&self, distance: f64, rng: &mut Xoshiro256pp) -> f64 {
        self.expected_rssi(distance) + rng.normal(0.0, self.sigma_db)
    }

    /// Maximum-likelihood distance estimate from one RSSI value (the
    /// inversion of [`PathLossModel::expected_rssi`]).
    pub fn distance_from_rssi(&self, rssi_dbm: f64) -> f64 {
        self.d0 * 10f64.powf((self.p0_dbm - rssi_dbm) / (10.0 * self.exponent))
    }

    /// The equivalent log-normal ranging model (`σ_log = σ_dB·ln10/(10η)`),
    /// for plugging a calibrated channel into the simulator/inference.
    pub fn ranging_model(&self) -> crate::measure::RangingModel {
        crate::measure::RangingModel::from_rssi(self.sigma_db, self.exponent)
    }
}

/// One calibration observation: a known distance and the RSSI measured at
/// it (anchor–anchor pairs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// True (known) distance, meters.
    pub distance: f64,
    /// Measured RSSI, dBm.
    pub rssi_dbm: f64,
}

/// Fits `(P₀, η, σ_dB)` by ordinary least squares on
/// `rssi = P₀ − 10·η·log₁₀(d/d₀)`. Needs at least two samples at distinct
/// distances; returns `None` otherwise. `d0` is the caller's reference
/// distance for the fitted model.
pub fn fit_path_loss(samples: &[CalibrationSample], d0: f64) -> Option<PathLossModel> {
    if samples.len() < 2 {
        return None;
    }
    // x = log10(d/d0), y = rssi; fit y = a + b x with b = −10η.
    let xy: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| ((s.distance.max(1e-3) / d0).log10(), s.rssi_dbm))
        .collect();
    let n = xy.len() as f64;
    let sx: f64 = xy.iter().map(|(x, _)| x).sum();
    let sy: f64 = xy.iter().map(|(_, y)| y).sum();
    let sxx: f64 = xy.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = xy.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None; // all samples at one distance
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    let exponent = -b / 10.0;
    if !(0.1..=10.0).contains(&exponent) {
        return None; // physically implausible fit
    }
    // Residual standard deviation → shadowing estimate.
    let ss_res: f64 = xy
        .iter()
        .map(|(x, y)| {
            let pred = a + b * x;
            (y - pred).powi(2)
        })
        .sum();
    let dof = (samples.len() as f64 - 2.0).max(1.0);
    Some(PathLossModel {
        p0_dbm: a,
        d0,
        exponent,
        sigma_db: (ss_res / dof).sqrt(),
    })
}

/// Convenience: generate anchor–anchor calibration samples for a network's
/// anchor set under a true channel, then fit. Returns the fitted model and
/// the samples used. The network's anchors must share links for samples to
/// exist; distances come from the *known* anchor positions (which is what
/// makes this legitimate calibration, not cheating).
pub fn calibrate_from_anchors(
    network: &crate::network::Network,
    true_channel: &PathLossModel,
    rng: &mut Xoshiro256pp,
) -> (Option<PathLossModel>, Vec<CalibrationSample>) {
    let mut samples = Vec::new();
    for m in network.measurements() {
        let (Some(pa), Some(pb)) = (network.anchor_position(m.a), network.anchor_position(m.b))
        else {
            continue;
        };
        let d = pa.dist(pb);
        samples.push(CalibrationSample {
            distance: d,
            rssi_dbm: true_channel.observe_rssi(d, rng),
        });
    }
    (fit_path_loss(&samples, true_channel.d0), samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rssi_decreases_with_distance() {
        let m = PathLossModel::typical_outdoor();
        assert!(m.expected_rssi(10.0) > m.expected_rssi(100.0));
        // −40 at 1 m, η = 3 → −70 at 10 m, −100 at 100 m.
        assert!((m.expected_rssi(10.0) + 70.0).abs() < 1e-12);
        assert!((m.expected_rssi(100.0) + 100.0).abs() < 1e-12);
    }

    #[test]
    fn inversion_roundtrip() {
        let m = PathLossModel::typical_outdoor();
        for d in [1.0, 7.5, 42.0, 180.0] {
            let rssi = m.expected_rssi(d);
            assert!((m.distance_from_rssi(rssi) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn observations_scatter_around_mean() {
        let m = PathLossModel::typical_outdoor();
        let mut rng = Xoshiro256pp::seed_from(1);
        let n = 20_000;
        let obs: Vec<f64> = (0..n).map(|_| m.observe_rssi(50.0, &mut rng)).collect();
        let mean = obs.iter().sum::<f64>() / n as f64;
        let sd = (obs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - m.expected_rssi(50.0)).abs() < 0.1);
        assert!((sd - 4.0).abs() < 0.1);
    }

    #[test]
    fn fit_recovers_noise_free_channel() {
        let truth = PathLossModel {
            p0_dbm: -38.0,
            d0: 1.0,
            exponent: 2.7,
            sigma_db: 0.0,
        };
        let samples: Vec<CalibrationSample> = [2.0, 5.0, 11.0, 30.0, 80.0, 150.0]
            .iter()
            .map(|&d| CalibrationSample {
                distance: d,
                rssi_dbm: truth.expected_rssi(d),
            })
            .collect();
        let fit = fit_path_loss(&samples, 1.0).unwrap();
        assert!((fit.p0_dbm + 38.0).abs() < 1e-9);
        assert!((fit.exponent - 2.7).abs() < 1e-9);
        assert!(fit.sigma_db < 1e-6);
    }

    #[test]
    fn fit_recovers_noisy_channel_approximately() {
        let truth = PathLossModel::typical_outdoor();
        let mut rng = Xoshiro256pp::seed_from(2);
        let samples: Vec<CalibrationSample> = (0..400)
            .map(|i| {
                let d = 2.0 + (i % 40) as f64 * 5.0;
                CalibrationSample {
                    distance: d,
                    rssi_dbm: truth.observe_rssi(d, &mut rng),
                }
            })
            .collect();
        let fit = fit_path_loss(&samples, 1.0).unwrap();
        assert!((fit.exponent - 3.0).abs() < 0.15, "η fit {}", fit.exponent);
        assert!((fit.p0_dbm + 40.0).abs() < 2.0, "P0 fit {}", fit.p0_dbm);
        assert!((fit.sigma_db - 4.0).abs() < 0.5, "σ fit {}", fit.sigma_db);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(fit_path_loss(&[], 1.0).is_none());
        assert!(fit_path_loss(
            &[CalibrationSample {
                distance: 5.0,
                rssi_dbm: -60.0
            }],
            1.0
        )
        .is_none());
        // All at the same distance: unidentifiable.
        let same: Vec<CalibrationSample> = (0..5)
            .map(|i| CalibrationSample {
                distance: 10.0,
                rssi_dbm: -60.0 - i as f64,
            })
            .collect();
        assert!(fit_path_loss(&same, 1.0).is_none());
    }

    #[test]
    fn calibrated_ranging_model_matches_channel() {
        let m = PathLossModel::typical_outdoor();
        match m.ranging_model() {
            crate::measure::RangingModel::LogNormal { sigma_log } => {
                let expected = 4.0 * std::f64::consts::LN_10 / 30.0;
                assert!((sigma_log - expected).abs() < 1e-12);
            }
            other => panic!("expected LogNormal, got {other:?}"),
        }
    }

    #[test]
    fn anchor_calibration_end_to_end() {
        use crate::network::NetworkBuilder;
        use crate::{AnchorStrategy, Deployment, RadioModel, RangingModel};
        let (net, _) = NetworkBuilder {
            deployment: Deployment::uniform_square(400.0),
            node_count: 120,
            anchors: AnchorStrategy::Random { count: 30 },
            radio: RadioModel::UnitDisk { range: 180.0 },
            ranging: RangingModel::Multiplicative { factor: 0.1 },
        }
        .build(5);
        let truth = PathLossModel::typical_outdoor();
        let mut rng = Xoshiro256pp::seed_from(6);
        let (fit, samples) = calibrate_from_anchors(&net, &truth, &mut rng);
        assert!(
            samples.len() > 20,
            "need anchor-anchor links, got {}",
            samples.len()
        );
        let fit = fit.expect("calibration should succeed");
        assert!((fit.exponent - 3.0).abs() < 0.5, "η {}", fit.exponent);
    }
}
