//! Sharded BP execution for very large networks.
//!
//! [`ShardedEngine`] cuts the deployment into spatially contiguous
//! tiles with a [`ShardLayout`] (the `wsnloc-geom` spatial partitioner)
//! and treats each tile boundary as what it is in a deployed network: a
//! set of radio links. A sharded solve is the wrapped engine's own BP
//! loop over the whole MRF, on a [`Transport`] scoped to the layout:
//!
//! - Links whose endpoints share a shard read the sender's live belief
//!   on the perfect path.
//! - Links between shards carry the fault plan: loss, staleness,
//!   asymmetry and drop policy act on them exactly as on a flat
//!   faulted run, keyed by the same global directed-link ids. Node
//!   deaths follow the plan's schedule as on a flat run.
//! - Every iteration reports one `BoundaryExchange` per occupied shard,
//!   counting fresh belief deliveries from free senders in other shards
//!   into the shard's free nodes.
//!
//! On a fault-free plan no link is tracked at all, so a sharded run
//! computes exactly what the flat run computes — beliefs, outcome and
//! every iteration's trajectory are bit-identical — and differs only in
//! its `sharded-` run label and the boundary events.

use std::sync::Arc;

use crate::engine::{BpEngine, RunOutcome};
use crate::mrf::{BpOptions, SpatialMrf};
use crate::transport::Transport;
use wsnloc_geom::ShardLayout;
use wsnloc_obs::InferenceObserver;

/// The run label of `backend` under sharded execution.
pub(crate) fn run_label(backend: &str) -> &'static str {
    match backend {
        "grid" => "sharded-grid",
        "particle" => "sharded-particle",
        "gaussian" => "sharded-gaussian",
        _ => "sharded",
    }
}

/// A [`BpEngine`] that runs its inner engine over a [`ShardLayout`],
/// with faults confined to links between shards. See the module docs.
pub struct ShardedEngine<E> {
    inner: E,
    layout: Arc<ShardLayout>,
}

impl<E> ShardedEngine<E> {
    /// Wraps `inner` to execute over `layout`.
    pub fn new(inner: E, layout: Arc<ShardLayout>) -> Self {
        ShardedEngine { inner, layout }
    }

    /// [`ShardedEngine::new`], kept for callers of the former
    /// three-argument form; the third argument is ignored.
    #[doc(hidden)]
    pub fn clamped(inner: E, layout: Arc<ShardLayout>, _rounds: usize) -> Self {
        ShardedEngine::new(inner, layout)
    }
}

impl<E: BpEngine> BpEngine for ShardedEngine<E> {
    type Belief = E::Belief;

    fn run_carried<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: Option<&[E::Belief]>,
        obs: &dyn InferenceObserver,
        on_iter: F,
    ) -> RunOutcome<E::Belief>
    where
        F: FnMut(usize, &[E::Belief]),
    {
        assert_eq!(
            self.layout.len(),
            mrf.len(),
            "shard layout was built for a different node count"
        );
        let scoped = transport.sharded(Arc::clone(&self.layout));
        self.inner
            .run_carried(mrf, opts, &scoped, warm, obs, on_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBp;
    use crate::mrf::Schedule;
    use crate::potential::{GaussianRange, UniformBoxUnary};
    use wsnloc_geom::rng::Xoshiro256pp;
    use wsnloc_geom::{Aabb, Vec2};

    /// A jittered grid deployment with corner/edge anchors and
    /// radius-limited range edges — enough loops to exercise real BP.
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
            // Anchor a sparse sub-lattice so every region is covered.
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

    #[test]
    fn single_occupied_shard_is_bit_identical_to_flat() {
        let (mrf, positions) = deployment(5, 10.0, 0xA11CE);
        let layout = layout_for(&positions, mrf.domain(), 1, 16.0);
        let opts = BpOptions {
            max_iterations: 6,
            tolerance: 0.0,
            ..BpOptions::default()
        };
        let flat = GridBp::with_resolution(24);
        let sharded = ShardedEngine::new(GridBp::with_resolution(24), layout);
        let (fb, fo) = flat.run(&mrf, &opts);
        let (sb, so) = sharded.run(&mrf, &opts);
        assert_eq!(fo.iterations, so.iterations);
        for (f, s) in fb.iter().zip(&sb) {
            assert_eq!(
                f.mass(),
                s.mass(),
                "single-shard grid beliefs must be bit-identical"
            );
        }
    }

    #[test]
    fn multi_shard_grid_matches_flat_with_unit_interior_rounds() {
        // One iteration per boundary exchange on a perfect transport:
        // every update reads exactly the beliefs the flat iteration
        // reads, in the same summation order.
        let (mrf, positions) = deployment(6, 10.0, 0xBEEF);
        let layout = layout_for(&positions, mrf.domain(), 2, 16.0);
        assert!(layout.occupied_shards() > 1);
        let opts = BpOptions {
            max_iterations: 5,
            tolerance: 0.0,
            schedule: Schedule::Synchronous,
            ..BpOptions::default()
        };
        let flat = GridBp::with_resolution(20);
        let sharded = ShardedEngine::new(GridBp::with_resolution(20), layout);
        let (fb, _) = flat.run(&mrf, &opts);
        let (sb, _) = sharded.run(&mrf, &opts);
        for (u, (f, s)) in fb.iter().zip(&sb).enumerate() {
            assert_eq!(f.mass(), s.mass(), "node {u}: sharded belief differs");
        }
    }
}
