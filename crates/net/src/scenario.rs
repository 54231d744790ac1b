//! Simulation scenarios.
//!
//! A [`Scenario`] fully determines one simulated world: deployment, node
//! counts, anchors, radio, ranging noise, and the seed. Experiments are
//! defined as scenario sweeps in code, so every reported number is
//! regenerable from its config alone.

use crate::anchors::AnchorStrategy;
use crate::deploy::Deployment;
use crate::measure::RangingModel;
use crate::network::{GroundTruth, Network, NetworkBuilder};
use crate::radio::RadioModel;

/// A complete, named simulation configuration.
///
/// ```
/// use wsnloc_net::Scenario;
/// let scenario = Scenario::standard();
/// let (network, truth) = scenario.build_trial(0);
/// assert_eq!(network.len(), truth.positions().len());
/// // Anchors know exactly where they are.
/// for (id, pos) in network.anchors() {
///     assert_eq!(pos, truth.position(id));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label used in reports.
    pub name: String,
    /// Placement model.
    pub deployment: Deployment,
    /// Total nodes (anchors included).
    pub node_count: usize,
    /// Anchor selection.
    pub anchors: AnchorStrategy,
    /// Link model.
    pub radio: RadioModel,
    /// Ranging noise.
    pub ranging: RangingModel,
    /// Master seed; trial `t` uses `seed + t`.
    pub seed: u64,
}

impl Scenario {
    /// The workspace's standard configuration (see DESIGN.md §4): 225 nodes
    /// uniform in a 1000 m square, 10% random anchors, 150 m unit-disk
    /// radio, 10% multiplicative ranging noise.
    pub fn standard() -> Scenario {
        Scenario {
            name: "standard".to_string(),
            deployment: Deployment::uniform_square(1000.0),
            node_count: 225,
            anchors: AnchorStrategy::Random { count: 22 },
            radio: RadioModel::UnitDisk { range: 150.0 },
            ranging: RangingModel::Multiplicative { factor: 0.1 },
            seed: 0x5EED,
        }
    }

    /// Standard configuration but deployed by planned drops (pre-knowledge
    /// available): a 5×5 drop grid with `sigma` scatter.
    pub fn standard_with_preknowledge(sigma: f64) -> Scenario {
        let mut s = Scenario::standard();
        s.name = format!("standard-pk-sigma{sigma}");
        s.deployment = Deployment::planned_square_drop(1000.0, 5, sigma);
        s
    }

    /// Realizes trial `t` of this scenario.
    pub fn build_trial(&self, t: u64) -> (Network, GroundTruth) {
        let builder = NetworkBuilder {
            deployment: self.deployment.clone(),
            node_count: self.node_count,
            anchors: self.anchors.clone(),
            radio: self.radio,
            ranging: self.ranging,
        };
        builder.build(self.seed.wrapping_add(t))
    }

    /// Nominal radio range — the error normalization constant.
    pub fn nominal_range(&self) -> f64 {
        self.radio.nominal_range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scenario_is_sane() {
        let s = Scenario::standard();
        let (net, truth) = s.build_trial(0);
        assert_eq!(net.len(), 225);
        assert_eq!(net.anchor_count(), 22);
        assert_eq!(truth.positions().len(), 225);
        assert_eq!(s.nominal_range(), 150.0);
        // Standard density gives a healthy average degree.
        assert!(net.avg_degree() > 8.0, "degree {}", net.avg_degree());
    }

    #[test]
    fn trials_differ_but_are_reproducible() {
        let s = Scenario::standard();
        let (_, t0a) = s.build_trial(0);
        let (_, t0b) = s.build_trial(0);
        let (_, t1) = s.build_trial(1);
        assert_eq!(t0a, t0b);
        assert_ne!(t0a, t1);
    }

    #[test]
    fn preknowledge_scenario_has_plans() {
        let s = Scenario::standard_with_preknowledge(100.0);
        let (net, _) = s.build_trial(0);
        assert!(net.planned_position(0).is_some());
    }

    #[test]
    fn cloned_scenario_regenerates_identical_world() {
        // The config alone must determine the generated world.
        let s = Scenario::standard_with_preknowledge(80.0);
        let back = s.clone();
        let (_, t1) = s.build_trial(3);
        let (_, t2) = back.build_trial(3);
        assert_eq!(t1, t2);
    }
}
