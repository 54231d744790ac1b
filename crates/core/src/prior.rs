//! Pre-knowledge prior models.
//!
//! "Pre-knowledge" is whatever is known about node positions *before*
//! measurement. [`PriorModel`] enumerates the forms the paper's setting
//! admits and maps each node of a [`Network`] to a unary potential for the
//! Bayesian network. The interesting experimental axes are the prior's
//! *quality* (how tight `sigma` is relative to the true deployment scatter)
//! and its *coverage* (which fraction of nodes has any pre-knowledge at
//! all) — both are swept by experiment F6.

use std::sync::Arc;
use wsnloc_bayes::{GaussianUnary, UnaryPotential, UniformBoxUnary, UniformShapeUnary};
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::Shape;
use wsnloc_net::Network;

/// What is known about unknown-node positions before measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum PriorModel {
    /// No pre-knowledge: uniform over the field bounding box. This ablation
    /// turns BNL-PK into plain cooperative NBP.
    Uninformative,
    /// Gaussian prior centered on each node's planned drop point with the
    /// given standard deviation. Nodes whose deployment carries no plan
    /// fall back to uninformative.
    DropPoint {
        /// Prior standard deviation (meters). Well-specified when equal to
        /// the true deployment scatter; the F6 sweep deliberately
        /// mis-specifies it.
        sigma: f64,
    },
    /// Every unknown node is known to lie inside a region (e.g. "the
    /// corridor", "sector 7") — uniform over that shape.
    Region(Shape),
    /// Drop-point priors for a random fraction of nodes, uninformative for
    /// the rest — models partial pre-knowledge.
    PartialDropPoint {
        /// Prior standard deviation for covered nodes.
        sigma: f64,
        /// Fraction of unknowns with pre-knowledge, in `[0, 1]`.
        coverage: f64,
        /// Seed for the coverage lottery (kept in the model so the same
        /// configuration always covers the same nodes).
        seed: u64,
    },
}

impl PriorModel {
    /// Builds the per-node unary potentials for a network. The returned
    /// vector is indexed by node id; anchors get potentials too (unused by
    /// inference, which fixes them) for uniformity.
    pub fn build(&self, network: &Network) -> Vec<Arc<dyn UnaryPotential>> {
        let bounds = network.field_bounds();
        let uninformative: Arc<dyn UnaryPotential> = Arc::new(UniformBoxUnary(bounds));
        match self {
            PriorModel::Uninformative => vec![uninformative; network.len()],
            PriorModel::DropPoint { sigma } => (0..network.len())
                .map(|id| match network.planned_position(id) {
                    Some(mean) => Arc::new(GaussianUnary {
                        mean,
                        sigma: *sigma,
                    }) as Arc<dyn UnaryPotential>,
                    None => uninformative.clone(),
                })
                .collect(),
            PriorModel::Region(shape) => {
                let region: Arc<dyn UnaryPotential> = Arc::new(UniformShapeUnary(shape.clone()));
                vec![region; network.len()]
            }
            PriorModel::PartialDropPoint {
                sigma,
                coverage,
                seed,
            } => {
                let mut rng = Xoshiro256pp::seed_from(*seed);
                (0..network.len())
                    .map(|id| match network.planned_position(id) {
                        Some(mean) if rng.bernoulli(*coverage) => Arc::new(GaussianUnary {
                            mean,
                            sigma: *sigma,
                        })
                            as Arc<dyn UnaryPotential>,
                        _ => uninformative.clone(),
                    })
                    .collect()
            }
        }
    }

    /// `true` when this model injects any information beyond the field
    /// boundary.
    pub fn is_informative(&self) -> bool {
        !matches!(self, PriorModel::Uninformative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnloc_geom::Vec2;
    use wsnloc_net::network::NetworkBuilder;
    use wsnloc_net::{AnchorStrategy, Deployment, RadioModel, RangingModel};

    fn planned_network() -> Network {
        NetworkBuilder {
            deployment: Deployment::planned_square_drop(1000.0, 4, 60.0),
            node_count: 64,
            anchors: AnchorStrategy::Random { count: 6 },
            radio: RadioModel::UnitDisk { range: 200.0 },
            ranging: RangingModel::Multiplicative { factor: 0.1 },
        }
        .build(1)
        .0
    }

    fn uniform_network() -> Network {
        NetworkBuilder {
            deployment: Deployment::uniform_square(1000.0),
            node_count: 30,
            anchors: AnchorStrategy::Random { count: 4 },
            radio: RadioModel::UnitDisk { range: 200.0 },
            ranging: RangingModel::Multiplicative { factor: 0.1 },
        }
        .build(2)
        .0
    }

    #[test]
    fn uninformative_covers_whole_field() {
        let net = uniform_network();
        let priors = PriorModel::Uninformative.build(&net);
        assert_eq!(priors.len(), net.len());
        let inside = Vec2::new(500.0, 500.0);
        let outside = Vec2::new(-10.0, 500.0);
        assert!(priors[0].log_density(inside).is_finite());
        assert_eq!(priors[0].log_density(outside), f64::NEG_INFINITY);
        assert!(!PriorModel::Uninformative.is_informative());
    }

    #[test]
    fn drop_point_prior_centers_on_plan() {
        let net = planned_network();
        let priors = PriorModel::DropPoint { sigma: 50.0 }.build(&net);
        for (id, prior) in priors.iter().enumerate() {
            let plan = net.planned_position(id).unwrap();
            assert_eq!(prior.log_density(plan), 0.0);
            assert!(prior.log_density(plan + Vec2::new(100.0, 0.0)) < -1.0);
        }
    }

    #[test]
    fn drop_point_falls_back_without_plans() {
        let net = uniform_network();
        let priors = PriorModel::DropPoint { sigma: 50.0 }.build(&net);
        // Uniform deployment has no plans: uniform prior, flat inside.
        let a = priors[0].log_density(Vec2::new(100.0, 100.0));
        let b = priors[0].log_density(Vec2::new(900.0, 900.0));
        assert_eq!(a, b);
    }

    #[test]
    fn region_prior_restricts_support() {
        let net = uniform_network();
        let shape = Shape::Disk {
            center: Vec2::new(500.0, 500.0),
            radius: 200.0,
        };
        let priors = PriorModel::Region(shape).build(&net);
        assert!(priors[3].log_density(Vec2::new(500.0, 500.0)).is_finite());
        assert_eq!(
            priors[3].log_density(Vec2::new(50.0, 50.0)),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn partial_coverage_fraction_respected() {
        let net = planned_network();
        let priors = PriorModel::PartialDropPoint {
            sigma: 50.0,
            coverage: 0.5,
            seed: 9,
        }
        .build(&net);
        // Count nodes with informative priors: their density at the plan
        // beats the density far away.
        let covered = (0..net.len())
            .filter(|&id| {
                let plan = net.planned_position(id).unwrap();
                priors[id].log_density(plan) > priors[id].log_density(plan + Vec2::new(200.0, 0.0))
            })
            .count();
        assert!(
            (10..=54).contains(&covered),
            "covered {covered} out of {}",
            net.len()
        );
        // Same seed → same lottery.
        let again = PriorModel::PartialDropPoint {
            sigma: 50.0,
            coverage: 0.5,
            seed: 9,
        }
        .build(&net);
        for id in 0..net.len() {
            let p = Vec2::new(123.0, 456.0);
            assert_eq!(priors[id].log_density(p), again[id].log_density(p));
        }
    }

    #[test]
    fn coverage_extremes() {
        let net = planned_network();
        let none = PriorModel::PartialDropPoint {
            sigma: 50.0,
            coverage: 0.0,
            seed: 1,
        }
        .build(&net);
        let all = PriorModel::PartialDropPoint {
            sigma: 50.0,
            coverage: 1.0,
            seed: 1,
        }
        .build(&net);
        let plan = net.planned_position(0).unwrap();
        let far = plan + Vec2::new(300.0, 0.0);
        // coverage 0: flat (if far is inside the field).
        if none[0].log_density(far).is_finite() {
            assert_eq!(none[0].log_density(plan), none[0].log_density(far));
        }
        // coverage 1: peaked.
        assert!(all[0].log_density(plan) > all[0].log_density(far));
    }
}
