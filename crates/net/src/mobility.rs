//! Node mobility: the random-waypoint model and time-stepped worlds.
//!
//! The paper's setting is static, but tracking mobile nodes is the natural
//! extension (and the setting of the Monte-Carlo-localization literature).
//! [`RandomWaypoint`] is the standard mobility model: each node picks a
//! uniform destination in the field, travels toward it at a per-leg uniform
//! speed, pauses, and repeats. [`MobileWorld`] advances true positions and
//! re-samples connectivity + measurements each step, yielding a fresh
//! [`Network`] snapshot per tick while anchors stay fixed.

use crate::anchors::AnchorStrategy;
use crate::deploy::Deployment;
use crate::measure::RangingModel;
use crate::network::{Network, NetworkBuilder};
use crate::radio::RadioModel;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Shape, Vec2};

/// Random-waypoint mobility parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypoint {
    /// Minimum leg speed (m/s), > 0.
    pub min_speed: f64,
    /// Maximum leg speed (m/s), ≥ min.
    pub max_speed: f64,
    /// Pause duration at each waypoint (seconds).
    pub pause: f64,
}

/// Per-node mobility state.
#[derive(Debug, Clone, Copy)]
struct WaypointState {
    target: Vec2,
    speed: f64,
    pause_left: f64,
}

/// A time-stepped mutable world: true positions move, anchors stay put,
/// and every call to [`MobileWorld::step`] returns the next observable
/// network snapshot.
pub struct MobileWorld {
    field: Shape,
    radio: RadioModel,
    ranging: RangingModel,
    mobility: RandomWaypoint,
    dt: f64,
    positions: Vec<Vec2>,
    anchor_ids: Vec<usize>,
    states: Vec<WaypointState>,
    rng: Xoshiro256pp,
    time: f64,
    /// When set, every snapshot carries this placement as the
    /// pre-knowledge deployment plan (see [`Network::planned_position`]).
    plan: Option<Vec<Vec2>>,
}

impl MobileWorld {
    /// Creates a world with `node_count` nodes uniformly placed in `field`,
    /// `anchor_count` static random anchors, and the given models. `dt` is
    /// the interval between snapshots in seconds.
    #[expect(
        clippy::too_many_arguments,
        reason = "the world's full configuration, each value set once at construction"
    )]
    pub fn new(
        field: Shape,
        node_count: usize,
        anchor_count: usize,
        radio: RadioModel,
        ranging: RangingModel,
        mobility: RandomWaypoint,
        dt: f64,
        seed: u64,
    ) -> Self {
        assert!(mobility.min_speed > 0.0 && mobility.max_speed >= mobility.min_speed);
        assert!(dt > 0.0, "time step must be positive");
        let root = Xoshiro256pp::seed_from(seed);
        let mut place_rng = root.split(1);
        let mut anchor_rng = root.split(2);
        let mut motion_rng = root.split(3);
        let positions = field.sample_n(&mut place_rng, node_count);
        let anchor_ids = AnchorStrategy::Random {
            count: anchor_count,
        }
        .select(&positions, field.bounding_box(), &mut anchor_rng);
        let states = positions
            .iter()
            .map(|_| WaypointState {
                target: field.sample(&mut motion_rng),
                speed: motion_rng.range(mobility.min_speed, mobility.max_speed),
                pause_left: 0.0,
            })
            .collect();
        MobileWorld {
            field,
            radio,
            ranging,
            mobility,
            dt,
            positions,
            anchor_ids,
            states,
            rng: root.split(4),
            time: 0.0,
            plan: None,
        }
    }

    /// Marks the initial placement as the deployment plan: every
    /// snapshot then exposes it as per-node pre-knowledge
    /// ([`Network::planned_position`]), the way a planned drop does for
    /// static networks. Spatial planners (e.g. shard layouts) can then
    /// place mobile free nodes near where they were deployed instead of
    /// collapsing them to the field center.
    #[must_use]
    pub fn with_deployment_plan(mut self) -> Self {
        self.plan = Some(self.positions.clone());
        self
    }

    /// Current true positions (evaluation only).
    pub fn positions(&self) -> &[Vec2] {
        &self.positions
    }

    /// Static anchor ids.
    pub fn anchor_ids(&self) -> &[usize] {
        &self.anchor_ids
    }

    /// Simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Advances unknowns by one `dt` and returns the new observable network
    /// snapshot. The first call (time 0) returns the initial placement
    /// without moving — call order: snapshot, localize, snapshot, …
    pub fn step(&mut self) -> Network {
        if self.time > 0.0 {
            self.advance();
        }
        self.time += self.dt;
        self.snapshot()
    }

    fn advance(&mut self) {
        let anchor_set: std::collections::BTreeSet<usize> =
            self.anchor_ids.iter().copied().collect();
        for i in 0..self.positions.len() {
            if anchor_set.contains(&i) {
                continue; // anchors are static
            }
            let state = &mut self.states[i];
            if state.pause_left > 0.0 {
                state.pause_left = (state.pause_left - self.dt).max(0.0);
                continue;
            }
            let to_target = state.target - self.positions[i];
            let step_len = state.speed * self.dt;
            if to_target.norm() <= step_len {
                // Arrive, pause, pick the next leg.
                self.positions[i] = state.target;
                state.pause_left = self.mobility.pause;
                state.target = self.field.sample(&mut self.rng);
                state.speed = self
                    .rng
                    .range(self.mobility.min_speed, self.mobility.max_speed);
            } else {
                self.positions[i] += to_target.normalize_or_x() * step_len;
            }
        }
    }

    fn snapshot(&mut self) -> Network {
        let builder = NetworkBuilder {
            deployment: Deployment::Fixed(self.positions.clone()),
            node_count: self.positions.len(),
            anchors: AnchorStrategy::Explicit(self.anchor_ids.clone()),
            radio: self.radio,
            ranging: self.ranging,
        };
        // Fresh link/measurement randomness each step.
        let seed = self.rng.next_u64();
        let net = builder.build(seed).0;
        match &self.plan {
            Some(plan) => net.with_planned(plan.iter().copied().map(Some).collect()),
            None => net,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnloc_geom::Aabb;

    fn world(seed: u64, speed: f64) -> MobileWorld {
        MobileWorld::new(
            Shape::Rect(Aabb::from_size(500.0, 500.0)),
            40,
            8,
            RadioModel::UnitDisk { range: 150.0 },
            RangingModel::Multiplicative { factor: 0.1 },
            RandomWaypoint {
                min_speed: speed,
                max_speed: speed,
                pause: 0.0,
            },
            1.0,
            seed,
        )
    }

    #[test]
    fn anchors_never_move() {
        let mut w = world(1, 10.0);
        let anchors = w.anchor_ids().to_vec();
        let initial: Vec<Vec2> = anchors.iter().map(|&a| w.positions()[a]).collect();
        for _ in 0..20 {
            let _ = w.step();
        }
        for (&a, &p) in anchors.iter().zip(&initial) {
            assert_eq!(w.positions()[a], p);
        }
    }

    #[test]
    fn unknowns_move_at_the_configured_speed() {
        let mut w = world(2, 10.0);
        let anchor_set: std::collections::BTreeSet<usize> =
            w.anchor_ids().iter().copied().collect();
        let before = w.positions().to_vec();
        let _ = w.step(); // t=0 snapshot: no motion yet
        let _ = w.step(); // one dt of motion
        let mut moved = 0;
        for (i, &b) in before.iter().enumerate() {
            if anchor_set.contains(&i) {
                continue;
            }
            let d = w.positions()[i].dist(b);
            // One step at 10 m/s for 1 s, unless the node arrived early.
            assert!(d <= 10.0 + 1e-9, "node {i} moved {d}");
            if d > 1.0 {
                moved += 1;
            }
        }
        assert!(moved > 20, "only {moved} nodes moved");
    }

    #[test]
    fn positions_stay_in_field() {
        let mut w = world(3, 25.0);
        for _ in 0..50 {
            let _ = w.step();
            for &p in w.positions() {
                assert!(p.x >= -1e-9 && p.y >= -1e-9 && p.x <= 500.0 + 1e-9 && p.y <= 500.0 + 1e-9);
            }
        }
    }

    #[test]
    fn snapshots_track_current_positions() {
        let mut w = world(4, 15.0);
        for _ in 0..5 {
            let net = w.step();
            // Anchor positions in the snapshot match the world.
            for (id, pos) in net.anchors() {
                assert_eq!(pos, w.positions()[id]);
            }
            // Links only between currently-in-range pairs.
            for m in net.measurements() {
                let d = w.positions()[m.a].dist(w.positions()[m.b]);
                assert!(d <= 150.0 + 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_trajectories() {
        let mut a = world(5, 12.0);
        let mut b = world(5, 12.0);
        for _ in 0..10 {
            let _ = a.step();
            let _ = b.step();
        }
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn pausing_reduces_path_length() {
        // Compare *cumulative* distance traveled (displacement from start is
        // not monotone in pause — unpaused nodes can wander back).
        let travel = |pause: f64| {
            let mut w = MobileWorld::new(
                Shape::Rect(Aabb::from_size(500.0, 500.0)),
                30,
                5,
                RadioModel::UnitDisk { range: 150.0 },
                RangingModel::Multiplicative { factor: 0.1 },
                RandomWaypoint {
                    min_speed: 20.0,
                    max_speed: 20.0,
                    pause,
                },
                1.0,
                6,
            );
            let mut total = 0.0;
            let mut prev = w.positions().to_vec();
            for _ in 0..40 {
                let _ = w.step();
                total += w
                    .positions()
                    .iter()
                    .zip(&prev)
                    .map(|(a, b)| a.dist(*b))
                    .sum::<f64>();
                prev = w.positions().to_vec();
            }
            total
        };
        assert!(travel(10.0) < travel(0.0));
    }

    #[test]
    fn deployment_plan_is_initial_placement_and_stays_fixed() {
        let mut w = world(77, 10.0).with_deployment_plan();
        let initial = w.positions().to_vec();
        let first = w.step();
        let second = w.step();
        for (id, &planned) in initial.iter().enumerate() {
            // The plan is the t=0 placement on every snapshot, even
            // after the nodes have moved away from it.
            assert_eq!(first.planned_position(id), Some(planned));
            assert_eq!(second.planned_position(id), Some(planned));
        }
        assert!(
            (0..initial.len()).any(|id| w.positions()[id] != initial[id]),
            "free nodes must have moved off the plan"
        );
        // Without the opt-in, snapshots carry no pre-knowledge.
        let mut plain = world(77, 10.0);
        let snap = plain.step();
        assert!((0..initial.len()).all(|id| snap.planned_position(id).is_none()));
    }
}
