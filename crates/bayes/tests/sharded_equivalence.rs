//! Cross-crate contract tests for the sharded execution layer: the
//! [`ShardedEngine`] must degenerate to the flat engine bit-for-bit on
//! single-shard layouts for *every* backend, track the flat fixed point
//! on multi-shard layouts under the synchronous schedule, and stay
//! finite when the boundary exchange runs over a degraded transport.

use std::sync::Arc;
use wsnloc_bayes::{
    Belief, BpEngine, BpOptions, GaussianBp, GaussianRange, GridBp, ParticleBp, Schedule,
    ShardedEngine, SpatialMrf, Transport, UniformBoxUnary,
};
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, ShardLayout, Vec2};
use wsnloc_net::faults::FaultPlan;

/// A jittered lattice with a sparse anchor sub-lattice and
/// radius-limited range edges — the same shape the unit suite uses, but
/// rebuilt here so this file only exercises the public API.
fn deployment(side: usize, spacing: f64, seed: u64) -> (SpatialMrf, Vec<Vec2>) {
    let extent = spacing * side as f64;
    let domain = Aabb::from_size(extent, extent);
    let mut rng = Xoshiro256pp::seed_from(seed);
    let positions: Vec<Vec2> = (0..side * side)
        .map(|i| {
            let x = (i % side) as f64 * spacing + spacing / 2.0;
            let y = (i / side) as f64 * spacing + spacing / 2.0;
            Vec2::new(
                x + rng.range(-0.2, 0.2) * spacing,
                y + rng.range(-0.2, 0.2) * spacing,
            )
        })
        .collect();
    let mut mrf = SpatialMrf::new(positions.len(), domain, Arc::new(UniformBoxUnary(domain)));
    for (i, &p) in positions.iter().enumerate() {
        if (i % side).is_multiple_of(3) && (i / side).is_multiple_of(3) {
            mrf.fix(i, p);
        }
    }
    let radius = spacing * 1.6;
    for u in 0..positions.len() {
        for v in (u + 1)..positions.len() {
            let d = positions[u].dist(positions[v]);
            if d <= radius {
                mrf.add_edge(
                    u,
                    v,
                    Arc::new(GaussianRange {
                        observed: d,
                        sigma: 0.5,
                    }),
                );
            }
        }
    }
    (mrf, positions)
}

fn layout_for(positions: &[Vec2], domain: Aabb, tiles: usize, radius: f64) -> Arc<ShardLayout> {
    Arc::new(ShardLayout::build(domain, tiles, tiles, positions, radius))
}

/// Sharded over a single-tile layout must be indistinguishable from the
/// flat engine — same RNG streams, same iteration trajectory, beliefs
/// bit-identical — for all three backends.
fn assert_single_shard_identity<E>(make: impl Fn() -> E, label: &str)
where
    E: BpEngine + Sync,
    E::Belief: wsnloc_bayes::TemperBelief,
{
    let (mrf, positions) = deployment(5, 10.0, 0x51DE);
    let layout = layout_for(&positions, mrf.domain(), 1, 16.0);
    let opts = BpOptions::builder()
        .max_iterations(5)
        .tolerance(0.0)
        .try_build()
        .expect("valid options");
    let sharded = ShardedEngine::new(make(), layout, 2).expect("valid config");
    let (fb, fo) = make().run(&mrf, &opts);
    let (sb, so) = sharded.run(&mrf, &opts);
    assert_eq!(fo.iterations, so.iterations, "{label}: iteration count");
    assert_eq!(fo.messages, so.messages, "{label}: message count");
    for (u, (f, s)) in fb.iter().zip(&sb).enumerate() {
        let (fm, sm) = (f.mean(), s.mean());
        assert_eq!(
            (fm.x.to_bits(), fm.y.to_bits()),
            (sm.x.to_bits(), sm.y.to_bits()),
            "{label}: node {u} mean must be bit-identical"
        );
    }
}

#[test]
fn single_shard_grid_is_bit_identical_to_flat() {
    assert_single_shard_identity(|| GridBp::with_resolution(20), "grid");
}

#[test]
fn single_shard_particle_is_bit_identical_to_flat() {
    assert_single_shard_identity(|| ParticleBp::with_particles(60), "particle");
}

#[test]
fn single_shard_gaussian_is_bit_identical_to_flat() {
    assert_single_shard_identity(GaussianBp::default, "gaussian");
}

/// Synchronous schedule + one interior iteration per outer round +
/// perfect transport: every member update reads exactly the state the
/// flat iteration reads, so the sharded grid run lands on the flat
/// answer to floating-point noise.
#[test]
fn multi_shard_grid_tracks_flat_under_synchronous_schedule() {
    let (mrf, positions) = deployment(7, 10.0, 0x7E57);
    let layout = layout_for(&positions, mrf.domain(), 2, 16.0);
    assert!(layout.occupied_shards() > 1, "layout must actually shard");
    let opts = BpOptions::builder()
        .max_iterations(4)
        .tolerance(0.0)
        .schedule(Schedule::Synchronous)
        .try_build()
        .expect("valid options");
    let flat = GridBp::with_resolution(18);
    let sharded = ShardedEngine::new(GridBp::with_resolution(18), layout, 1).expect("valid config");
    let (fb, _) = flat.run(&mrf, &opts);
    let (sb, _) = sharded.run(&mrf, &opts);
    for (u, (f, s)) in fb.iter().zip(&sb).enumerate() {
        let d = f.mean().dist(s.mean());
        assert!(d < 1e-9, "node {u}: sharded mean drifted {d} m from flat");
    }
}

/// Boundary messages ride the transport seam, so a lossy fault plan
/// degrades cross-shard freshness; beliefs must stay finite and the run
/// must still burn its full iteration budget.
#[test]
fn faulted_boundary_exchange_keeps_beliefs_finite() {
    let (mrf, positions) = deployment(6, 10.0, 0xFA57);
    let layout = layout_for(&positions, mrf.domain(), 2, 16.0);
    assert!(layout.occupied_shards() > 1);
    let opts = BpOptions::builder()
        .max_iterations(6)
        .tolerance(0.0)
        .try_build()
        .expect("valid options");
    let sharded =
        ShardedEngine::new(GaussianBp::default(), Arc::clone(&layout), 1).expect("valid config");
    let transport = Transport::faulted(Arc::new(FaultPlan::iid_loss(0xFA57, 0.4)));
    let out = sharded.run_carried(
        &mrf,
        &opts,
        &transport,
        None,
        &wsnloc_obs::NullObserver,
        |_, _| {},
    );
    assert_eq!(out.bp.iterations, 6);
    for (u, b) in out.beliefs.iter().enumerate() {
        let m = b.mean();
        assert!(
            m.x.is_finite() && m.y.is_finite(),
            "node {u}: belief mean went non-finite under 40% boundary loss"
        );
    }
}

/// Larger interior batches trade boundary freshness for fewer
/// synchronization points, but the total interior iteration budget must
/// still equal the flat cap exactly.
#[test]
fn interior_batching_preserves_the_iteration_budget() {
    let (mrf, positions) = deployment(6, 10.0, 0xB47C);
    let layout = layout_for(&positions, mrf.domain(), 2, 16.0);
    for interior in [1usize, 2, 3, 5] {
        let sharded =
            ShardedEngine::new(GridBp::with_resolution(16), Arc::clone(&layout), interior)
                .expect("valid config");
        let opts = BpOptions::builder()
            .max_iterations(5)
            .tolerance(0.0)
            .try_build()
            .expect("valid options");
        let (_, outcome) = sharded.run(&mrf, &opts);
        assert_eq!(
            outcome.iterations, 5,
            "interior={interior}: total interior iterations must match the flat cap"
        );
    }
}
