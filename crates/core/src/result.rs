//! Localization results and the common algorithm interface.

use wsnloc_geom::Vec2;
use wsnloc_net::accounting::CommStats;
use wsnloc_net::{GroundTruth, Network};
use wsnloc_obs::InferenceObserver;

/// The output of one localization run.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizationResult {
    /// Per-node position estimate. Anchors carry their known position;
    /// `None` marks unknowns the algorithm could not localize (e.g. DV-Hop
    /// nodes that heard fewer than three anchors).
    pub estimates: Vec<Option<Vec2>>,
    /// Per-node scalar uncertainty (RMS belief spread, meters) where the
    /// algorithm produces one.
    pub uncertainty: Vec<Option<f64>>,
    /// Communication cost a distributed execution would have incurred.
    pub comm: CommStats,
    /// Inference iterations executed (1 for one-shot algorithms).
    pub iterations: usize,
    /// Whether iterative inference converged before its iteration cap.
    pub converged: bool,
    /// Wall-clock seconds spent in the algorithm.
    pub elapsed_secs: f64,
}

impl LocalizationResult {
    /// Empty result scaffold for `n` nodes.
    pub fn empty(n: usize) -> Self {
        LocalizationResult {
            estimates: vec![None; n],
            uncertainty: vec![None; n],
            comm: CommStats::default(),
            iterations: 0,
            converged: false,
            elapsed_secs: 0.0,
        }
    }

    /// Per-node localization error against ground truth: `Some(err)` for
    /// localized *unknown* nodes, `None` for anchors and unlocalized nodes.
    pub fn errors(&self, truth: &GroundTruth) -> Vec<Option<f64>> {
        self.errors_for(truth, None)
    }

    /// Like [`LocalizationResult::errors`] but, when `network` is supplied,
    /// anchors are excluded by the network's own labeling rather than by
    /// estimate presence.
    pub fn errors_for(&self, truth: &GroundTruth, network: Option<&Network>) -> Vec<Option<f64>> {
        self.estimates
            .iter()
            .enumerate()
            .map(|(id, est)| {
                if let Some(net) = network {
                    if net.is_anchor(id) {
                        return None;
                    }
                }
                est.map(|e| e.dist(truth.position(id)))
            })
            .collect()
    }

    /// Fraction of nodes in `ids` with an estimate.
    pub fn coverage(&self, ids: impl Iterator<Item = usize>) -> f64 {
        let mut total = 0usize;
        let mut localized = 0usize;
        for id in ids {
            total += 1;
            if self.estimates[id].is_some() {
                localized += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            localized as f64 / total as f64
        }
    }
}

/// The interface every localization algorithm in the workspace implements —
/// the paper's BNL-PK and all baselines alike, so experiments are generic.
pub trait Localizer: Send + Sync {
    /// Short display name used in tables ("BNL-PK", "DV-Hop", …).
    fn name(&self) -> String;

    /// Estimates positions for all nodes of the network. `seed` drives any
    /// internal randomness; the same `(network, seed)` pair must return the
    /// same result.
    fn localize(&self, network: &Network, seed: u64) -> LocalizationResult;

    /// Like [`Localizer::localize`], reporting convergence telemetry into
    /// `observer` along the way. The default implementation ignores the
    /// observer and delegates to `localize` — the right behavior for
    /// one-shot baselines (DV-Hop, MDS, …) that have no iteration structure
    /// to report. Iterative algorithms override this.
    fn localize_with_observer(
        &self,
        network: &Network,
        seed: u64,
        observer: &dyn InferenceObserver,
    ) -> LocalizationResult {
        let _ = observer;
        self.localize(network, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_measure_distance_to_truth() {
        let truth = GroundTruth::from_positions(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(20.0, 0.0),
        ]);
        let mut r = LocalizationResult::empty(3);
        r.estimates[0] = Some(Vec2::new(3.0, 4.0));
        r.estimates[2] = Some(Vec2::new(20.0, 0.0));
        let errs = r.errors(&truth);
        assert_eq!(errs[0], Some(5.0));
        assert_eq!(errs[1], None);
        assert_eq!(errs[2], Some(0.0));
    }

    #[test]
    fn coverage_counts_estimates() {
        let mut r = LocalizationResult::empty(4);
        r.estimates[1] = Some(Vec2::ZERO);
        r.estimates[3] = Some(Vec2::ZERO);
        assert!((r.coverage(0..4) - 0.5).abs() < 1e-12);
        assert!((r.coverage(std::iter::empty()) - 1.0).abs() < 1e-12);
        assert!((r.coverage([1, 3].into_iter()) - 1.0).abs() < 1e-12);
    }
}
