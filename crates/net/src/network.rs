//! Network assembly: the observable world handed to localization algorithms.
//!
//! [`NetworkBuilder`] runs the whole generative pipeline — deployment, anchor
//! selection, link sampling, range measurement — and splits the result into:
//!
//! - [`Network`]: everything an algorithm may legitimately see (anchor
//!   positions, the connectivity graph, noisy range measurements, planned
//!   drop positions = pre-knowledge, the radio/ranging models).
//! - [`GroundTruth`]: realized true positions, used only for evaluation.
//!
//! Keeping the two in separate types makes cheating a type error rather than
//! a reviewer's job.

use crate::anchors::AnchorStrategy;
use crate::deploy::Deployment;
use crate::measure::{Measurement, RangingModel};
use crate::radio::RadioModel;
use crate::topology::Topology;
use wsnloc_geom::grid::SpatialGrid;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Shape, Vec2};

/// Node index within a network (`0..n`).
pub type NodeId = usize;

/// Whether a node knows its own position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Position known a priori (GPS/manual placement).
    Anchor,
    /// Position must be estimated.
    Unknown,
}

/// The observable simulation state: what localization algorithms receive.
#[derive(Debug, Clone)]
pub struct Network {
    field: Shape,
    radio: RadioModel,
    ranging: RangingModel,
    kinds: Vec<NodeKind>,
    /// Known position per anchor (None for unknowns).
    anchor_positions: Vec<Option<Vec2>>,
    /// Pre-knowledge: planned position per node, when the deployment had one.
    planned: Vec<Option<Vec2>>,
    topology: Topology,
    measurements: Vec<Measurement>,
    /// Indices into `measurements` incident to each node.
    meas_by_node: Vec<Vec<usize>>,
}

/// The hidden true positions, for evaluation only.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    positions: Vec<Vec2>,
}

impl GroundTruth {
    /// Builds from explicit positions (exposed for hand-crafted test
    /// networks).
    pub fn from_positions(positions: Vec<Vec2>) -> Self {
        GroundTruth { positions }
    }

    /// True position of a node.
    pub fn position(&self, id: NodeId) -> Vec2 {
        self.positions[id]
    }

    /// All true positions, indexed by node id.
    pub fn positions(&self) -> &[Vec2] {
        &self.positions
    }
}

impl Network {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` iff the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The deployment field shape.
    pub fn field(&self) -> &Shape {
        &self.field
    }

    /// Bounding box of the field — the default support of uninformative
    /// priors.
    pub fn field_bounds(&self) -> Aabb {
        self.field.bounding_box()
    }

    /// The radio model links were sampled from.
    pub fn radio(&self) -> RadioModel {
        self.radio
    }

    /// The ranging noise model measurements were drawn from.
    pub fn ranging(&self) -> RangingModel {
        self.ranging
    }

    /// Kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id]
    }

    /// `true` iff `id` is an anchor.
    pub fn is_anchor(&self, id: NodeId) -> bool {
        self.kinds[id] == NodeKind::Anchor
    }

    /// Known position of an anchor (`None` for unknowns).
    pub fn anchor_position(&self, id: NodeId) -> Option<Vec2> {
        self.anchor_positions[id]
    }

    /// Iterator over `(id, position)` for all anchors.
    pub fn anchors(&self) -> impl Iterator<Item = (NodeId, Vec2)> + '_ {
        self.anchor_positions
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|pos| (i, pos)))
    }

    /// Ids of all unknown nodes.
    pub fn unknowns(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(i, k)| (*k == NodeKind::Unknown).then_some(i))
    }

    /// Number of anchors.
    pub fn anchor_count(&self) -> usize {
        self.anchors().count()
    }

    /// Pre-knowledge planned position for a node, if the deployment defined
    /// one.
    pub fn planned_position(&self, id: NodeId) -> Option<Vec2> {
        self.planned[id]
    }

    /// Replaces the pre-knowledge plan wholesale (one entry per node).
    /// Used by generators that learn the plan outside the deployment
    /// model, e.g. a mobile world whose plan is its initial placement.
    #[must_use]
    pub fn with_planned(mut self, planned: Vec<Option<Vec2>>) -> Self {
        assert_eq!(planned.len(), self.planned.len(), "one plan entry per node");
        self.planned = planned;
        self
    }

    /// The connectivity graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.topology.neighbors(id)
    }

    /// All range measurements (one per link).
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Indices into [`Network::measurements`] incident to `id`.
    pub fn measurements_of(&self, id: NodeId) -> impl Iterator<Item = &Measurement> + '_ {
        self.meas_by_node[id].iter().map(|&k| &self.measurements[k])
    }

    /// Mean node degree.
    pub fn avg_degree(&self) -> f64 {
        self.topology.avg_degree()
    }

    /// Constructs a network directly from parts — the escape hatch for unit
    /// tests and hand-built topologies. `measurements` must reference valid
    /// node ids; links are derived from them.
    pub fn from_parts(
        field: Shape,
        radio: RadioModel,
        ranging: RangingModel,
        kinds: Vec<NodeKind>,
        anchor_positions: Vec<Option<Vec2>>,
        planned: Vec<Option<Vec2>>,
        measurements: Vec<Measurement>,
    ) -> Self {
        let n = kinds.len();
        assert_eq!(anchor_positions.len(), n);
        assert_eq!(planned.len(), n);
        for (i, k) in kinds.iter().enumerate() {
            match k {
                NodeKind::Anchor => assert!(
                    anchor_positions[i].is_some(),
                    "anchor {i} missing its position"
                ),
                NodeKind::Unknown => assert!(
                    anchor_positions[i].is_none(),
                    "unknown {i} must not carry a position"
                ),
            }
        }
        let edges: Vec<(usize, usize)> = measurements.iter().map(|m| (m.a, m.b)).collect();
        let topology = Topology::from_edges(n, &edges);
        let mut meas_by_node = vec![Vec::new(); n];
        for (k, m) in measurements.iter().enumerate() {
            meas_by_node[m.a].push(k);
            meas_by_node[m.b].push(k);
        }
        Network {
            field,
            radio,
            ranging,
            kinds,
            anchor_positions,
            planned,
            topology,
            measurements,
            meas_by_node,
        }
    }
}

/// Configures and generates a network + ground truth pair.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    /// Node placement model.
    pub deployment: Deployment,
    /// Total node count (anchors included).
    pub node_count: usize,
    /// Anchor selection strategy.
    pub anchors: AnchorStrategy,
    /// Link model.
    pub radio: RadioModel,
    /// Range-noise model.
    pub ranging: RangingModel,
}

impl NetworkBuilder {
    /// Generates the network with all randomness drawn from `seed`.
    ///
    /// Sub-streams are split per phase (deployment / anchors / links /
    /// ranging) so that, e.g., changing the anchor strategy does not perturb
    /// node placement — sweeps stay paired across configurations.
    pub fn build(&self, seed: u64) -> (Network, GroundTruth) {
        let root = Xoshiro256pp::seed_from(seed);
        let mut deploy_rng = root.split(1);
        let mut anchor_rng = root.split(2);
        let mut link_rng = root.split(3);
        let mut range_rng = root.split(4);

        let placement = self.deployment.realize(self.node_count, &mut deploy_rng);
        let positions = placement.positions;
        let field = self.deployment.field_shape();
        let bounds = field.bounding_box();

        let anchor_ids = self.anchors.select(&positions, bounds, &mut anchor_rng);
        let mut kinds = vec![NodeKind::Unknown; positions.len()];
        let mut anchor_positions = vec![None; positions.len()];
        for &id in &anchor_ids {
            kinds[id] = NodeKind::Anchor;
            anchor_positions[id] = Some(positions[id]);
        }

        // Candidate links from the spatial grid, then per-link sampling.
        let max_range = self.radio.max_range();
        let grid = SpatialGrid::build(bounds, max_range.max(1e-9), &positions);
        let mut measurements = Vec::new();
        for a in 0..positions.len() {
            for b in grid.within(positions[a], max_range) {
                if b <= a {
                    continue;
                }
                let d = positions[a].dist(positions[b]);
                if self.radio.sample_link(d, &mut link_rng) {
                    let observed = self.ranging.observe(d, &mut range_rng);
                    measurements.push(Measurement {
                        a,
                        b,
                        distance: observed,
                    });
                }
            }
        }

        let planned = match placement.planned {
            Some(p) => p.into_iter().map(Some).collect(),
            None => vec![None; positions.len()],
        };

        let network = Network::from_parts(
            field,
            self.radio,
            self.ranging,
            kinds,
            anchor_positions,
            planned,
            measurements,
        );
        (network, GroundTruth { positions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn standard_builder() -> NetworkBuilder {
        NetworkBuilder {
            deployment: Deployment::uniform_square(1000.0),
            node_count: 225,
            anchors: AnchorStrategy::Random { count: 22 },
            radio: RadioModel::UnitDisk { range: 150.0 },
            ranging: RangingModel::Multiplicative { factor: 0.1 },
        }
    }

    #[test]
    fn build_produces_consistent_network() {
        let (net, truth) = standard_builder().build(42);
        assert_eq!(net.len(), 225);
        assert_eq!(truth.positions().len(), 225);
        assert_eq!(net.anchor_count(), 22);
        assert_eq!(net.unknowns().count(), 203);
        // Anchors carry their true positions.
        for (id, pos) in net.anchors() {
            assert_eq!(pos, truth.position(id));
            assert!(net.is_anchor(id));
        }
    }

    #[test]
    fn links_respect_unit_disk_range() {
        let (net, truth) = standard_builder().build(7);
        for m in net.measurements() {
            let d = truth.position(m.a).dist(truth.position(m.b));
            assert!(d <= 150.0 + 1e-9, "link at distance {d}");
            assert!(m.distance > 0.0);
        }
    }

    #[test]
    fn all_in_range_pairs_are_linked_under_unit_disk() {
        let (net, truth) = standard_builder().build(13);
        for a in 0..net.len() {
            for b in (a + 1)..net.len() {
                let d = truth.position(a).dist(truth.position(b));
                if d <= 150.0 {
                    assert!(
                        net.topology().connected(a, b),
                        "in-range pair ({a},{b}) at {d} not linked"
                    );
                }
            }
        }
    }

    #[test]
    fn expected_average_degree_matches_geometry() {
        // E[degree] ≈ ρ·πR² for uniform density ρ (minus edge effects).
        let (net, _) = standard_builder().build(3);
        let rho = 225.0 / (1000.0 * 1000.0);
        let expected = rho * std::f64::consts::PI * 150.0 * 150.0;
        let got = net.avg_degree();
        assert!(
            got > expected * 0.6 && got < expected * 1.1,
            "avg degree {got} vs expected ~{expected}"
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let b = standard_builder();
        let (n1, t1) = b.build(5);
        let (n2, t2) = b.build(5);
        assert_eq!(t1, t2);
        assert_eq!(n1.measurements(), n2.measurements());
        let (_, t3) = b.build(6);
        assert_ne!(t1, t3);
    }

    #[test]
    fn anchor_strategy_change_does_not_move_nodes() {
        let mut b = standard_builder();
        let (_, t1) = b.build(11);
        b.anchors = AnchorStrategy::Grid { count: 22 };
        let (_, t2) = b.build(11);
        assert_eq!(t1, t2, "placement must be independent of anchor strategy");
    }

    #[test]
    fn planned_positions_flow_through() {
        let b = NetworkBuilder {
            deployment: Deployment::planned_square_drop(1000.0, 5, 80.0),
            node_count: 100,
            anchors: AnchorStrategy::Random { count: 10 },
            radio: RadioModel::UnitDisk { range: 200.0 },
            ranging: RangingModel::Multiplicative { factor: 0.05 },
        };
        let (net, truth) = b.build(2);
        let mut total_err = 0.0;
        for id in 0..net.len() {
            let plan = net.planned_position(id).expect("drop deployment has plans");
            total_err += plan.dist(truth.position(id));
        }
        // Scatter σ = 80 → mean offset ≈ 80·sqrt(π/2)/… ~ 100; just check
        // plans are informative but not exact.
        let mean_err = total_err / net.len() as f64;
        assert!(
            mean_err > 10.0 && mean_err < 250.0,
            "mean plan error {mean_err}"
        );
    }

    #[test]
    fn uniform_deployment_has_no_plans() {
        let (net, _) = standard_builder().build(1);
        assert!(net.planned_position(0).is_none());
    }

    #[test]
    fn from_parts_validates_anchor_invariants() {
        let result = std::panic::catch_unwind(|| {
            Network::from_parts(
                Shape::Rect(Aabb::from_size(1.0, 1.0)),
                RadioModel::UnitDisk { range: 1.0 },
                RangingModel::AdditiveGaussian { sigma: 0.1 },
                vec![NodeKind::Anchor],
                vec![None], // anchor without a position: must panic
                vec![None],
                vec![],
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn quasi_udg_produces_fewer_links_than_outer_disk() {
        let mut b = standard_builder();
        b.radio = RadioModel::QuasiUdg {
            inner: 100.0,
            outer: 150.0,
        };
        let (quasi, _) = b.build(9);
        b.radio = RadioModel::UnitDisk { range: 150.0 };
        let (disk, _) = b.build(9);
        assert!(quasi.topology().edge_count() < disk.topology().edge_count());
        b.radio = RadioModel::UnitDisk { range: 100.0 };
        let (inner_disk, _) = b.build(9);
        assert!(quasi.topology().edge_count() > inner_disk.topology().edge_count());
    }
}
