//! Cross-crate contract tests for the sharded execution layer. A
//! [`ShardedEngine`] is the inner engine's own BP loop on a transport
//! scoped to the layout's shard boundaries, so on a perfect transport it
//! must equal the flat engine bit for bit — beliefs, outcome and every
//! iteration's trajectory — for every backend and schedule; under a
//! fault plan only links between shards may drop or go stale, and every
//! iteration must report each shard's boundary traffic.

use std::fmt::Debug;
use std::sync::Arc;
use wsnloc_bayes::{
    Belief, BpEngine, BpOptions, GaussianBp, GaussianRange, GridBp, ParticleBp, RunOutcome,
    Schedule, ShardedEngine, SpatialMrf, Transport, UniformBoxUnary,
};
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, ShardLayout, Vec2};
use wsnloc_net::faults::FaultPlan;
use wsnloc_obs::{ObsEvent, RunTrace, TraceObserver};

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
    E: BpEngine,
{
    let (mrf, positions) = deployment(5, 10.0, 0x51DE);
    let layout = layout_for(&positions, mrf.domain(), 1, 16.0);
    let opts = BpOptions::builder()
        .max_iterations(5)
        .tolerance(0.0)
        .try_build()
        .expect("valid options");
    let sharded = ShardedEngine::new(make(), layout);
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

/// One traced run: its outcome, every `on_iter` belief vector (as
/// `Debug` text, which tells any two distinct `f64` bit patterns other
/// than NaN payloads apart) and its trace.
fn traced<E>(
    engine: &E,
    mrf: &SpatialMrf,
    opts: &BpOptions,
    transport: &Transport,
) -> (RunOutcome<E::Belief>, Vec<String>, RunTrace)
where
    E: BpEngine,
    E::Belief: Debug,
{
    let tracer = TraceObserver::new();
    let mut per_iter = Vec::new();
    let out = engine.run_carried(mrf, opts, transport, None, &tracer, |_, b| {
        per_iter.push(format!("{b:?}"));
    });
    (out, per_iter, tracer.last_run().expect("one recorded run"))
}

/// The 7×7 fixture on a 2×2 tile layout.
fn tiled() -> (SpatialMrf, Arc<ShardLayout>) {
    let (mrf, positions) = deployment(7, 10.0, 0x7E57);
    let layout = layout_for(&positions, mrf.domain(), 2, 16.0);
    assert!(layout.occupied_shards() > 1, "layout must actually shard");
    (mrf, layout)
}

/// On a perfect transport a multi-shard run equals the flat run bit for
/// bit under both schedules: final beliefs, outcome and the beliefs
/// handed to `on_iter` after every iteration. The run is labeled with
/// the engine's own `sharded-` name.
fn assert_multi_shard_matches_flat<E>(make: impl Fn() -> E, label: &str)
where
    E: BpEngine,
    E::Belief: Debug,
{
    let (mrf, layout) = tiled();
    for schedule in [Schedule::Synchronous, Schedule::Sweep] {
        let opts = BpOptions::builder()
            .max_iterations(4)
            .tolerance(0.0)
            .schedule(schedule)
            .try_build()
            .expect("valid options");
        let sharded = ShardedEngine::new(make(), Arc::clone(&layout));
        let perfect = Transport::perfect();
        let (flat, flat_iters, _) = traced(&make(), &mrf, &opts, &perfect);
        let (shard, shard_iters, trace) = traced(&sharded, &mrf, &opts, &perfect);
        let case = format!("{label}/{}", schedule.name());
        assert_eq!(
            format!("{:?}", flat.beliefs),
            format!("{:?}", shard.beliefs),
            "{case}: beliefs"
        );
        assert_eq!(flat.bp, shard.bp, "{case}: outcome");
        assert_eq!(flat_iters, shard_iters, "{case}: on_iter beliefs");
        assert_eq!(shard_iters.len(), 4, "{case}: on_iter calls");
        assert_eq!(
            trace.info.backend,
            format!("sharded-{label}"),
            "{case}: label"
        );
    }
}

#[test]
fn multi_shard_grid_tracks_flat_under_synchronous_schedule() {
    assert_multi_shard_matches_flat(|| GridBp::with_resolution(18), "grid");
}

#[test]
fn multi_shard_particle_matches_flat_bit_for_bit() {
    assert_multi_shard_matches_flat(|| ParticleBp::with_particles(40), "particle");
}

#[test]
fn multi_shard_gaussian_matches_flat_bit_for_bit() {
    assert_multi_shard_matches_flat(GaussianBp::default, "gaussian");
}

/// Per shard, the directed links from free senders in other shards into
/// the shard's free nodes, and the total of cross-shard directed links
/// into free nodes (anchor senders included).
fn boundary_links(mrf: &SpatialMrf, layout: &ShardLayout) -> (Vec<u64>, u64) {
    let mut per_shard = vec![0u64; layout.shard_count()];
    let mut into_free = 0u64;
    for edge in mrf.edges() {
        for (recv, send) in [(edge.u, edge.v), (edge.v, edge.u)] {
            let (sr, ss) = (layout.shard_of(recv), layout.shard_of(send));
            if sr == ss || mrf.fixed(recv).is_some() {
                continue;
            }
            into_free += 1;
            if mrf.fixed(send).is_none() {
                per_shard[sr] += 1;
            }
        }
    }
    (per_shard, into_free)
}

/// `(round, shard, messages)` of every `BoundaryExchange` in `trace`.
fn exchanges(trace: &RunTrace) -> Vec<(usize, usize, u64)> {
    trace
        .events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::BoundaryExchange {
                round,
                shard,
                messages,
            } => Some((*round, *shard, *messages)),
            _ => None,
        })
        .collect()
}

/// Faults reach only the boundary. Under total loss every iteration
/// drops exactly the cross-shard links into free nodes (no intra-shard
/// link drops) and no boundary delivery arrives; on a perfect transport
/// each shard's exchange equals its static count of boundary links.
#[test]
fn faults_reach_only_cross_shard_links() {
    let (mrf, layout) = tiled();
    let (per_shard, into_free) = boundary_links(&mrf, &layout);
    let occupied: Vec<usize> = (0..layout.shard_count())
        .filter(|&s| !layout.shards()[s].is_empty())
        .collect();
    let opts = BpOptions::builder()
        .max_iterations(3)
        .tolerance(0.0)
        .try_build()
        .expect("valid options");
    let sharded = ShardedEngine::new(GaussianBp, Arc::clone(&layout));

    let lossy = Transport::faulted(Arc::new(FaultPlan::iid_loss(0x7E57, 1.0)));
    let (_, _, trace) = traced(&sharded, &mrf, &opts, &lossy);
    let dropped: Vec<(usize, u64)> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::MessageDropped { iteration, count } => Some((*iteration, *count)),
            _ => None,
        })
        .collect();
    assert!(into_free > 0, "the fixture must have boundary links");
    assert_eq!(
        dropped,
        vec![(0, into_free), (1, into_free), (2, into_free)]
    );
    let lost = exchanges(&trace);
    assert_eq!(
        lost.len(),
        3 * occupied.len(),
        "one exchange per shard per iteration"
    );
    assert!(lost.iter().all(|e| e.2 == 0), "nothing crosses: {lost:?}");

    let (_, _, trace) = traced(&sharded, &mrf, &opts, &Transport::perfect());
    let want: Vec<(usize, usize, u64)> = (0..3)
        .flat_map(|iter| occupied.iter().map(move |&s| (iter, s)))
        .map(|(iter, s)| (iter, s, per_shard[s]))
        .collect();
    assert_eq!(exchanges(&trace), want);
}

/// A sharded run reports iterations as a flat run does: none for a
/// zero-iteration budget, and a finite shift with residuals from the
/// first iteration on.
#[test]
fn sharded_runs_report_iterations_like_flat_runs() {
    let (mrf, layout) = tiled();
    let sharded = ShardedEngine::new(GaussianBp, layout);
    let opts = BpOptions::builder()
        .max_iterations(4)
        .tolerance(0.0)
        .try_build()
        .expect("valid options");
    // The builder requires a positive budget; a zero budget is set
    // directly, as a prior-init probe does.
    let mut zero = opts;
    zero.max_iterations = 0;
    let (out, calls, trace) = traced(&sharded, &mrf, &zero, &Transport::perfect());
    assert_eq!(out.bp.iterations, 0);
    assert!(calls.is_empty(), "no on_iter call without an iteration");
    assert!(trace.iterations.is_empty(), "no iteration record");
    let (_, _, trace) = traced(&sharded, &mrf, &opts, &Transport::perfect());
    assert_eq!(trace.iterations.len(), 4);
    let first = &trace.iterations[0];
    assert!(
        first.max_shift.is_finite(),
        "iteration 0 shift {}",
        first.max_shift
    );
    assert!(!first.residuals.is_empty(), "iteration 0 residuals");
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
    let sharded = ShardedEngine::new(GaussianBp, Arc::clone(&layout));
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
