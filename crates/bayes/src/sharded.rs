//! Sharded BP execution for very large networks.
//!
//! A flat BP run holds every belief and every message stencil in one
//! arena — fine at 10³ nodes, hopeless at 10⁶. [`ShardedEngine`] cuts
//! the deployment into spatially contiguous tiles with a
//! [`ShardLayout`] (the `wsnloc-geom` spatial partitioner) and runs the
//! wrapped flat engine on one *sub-factor-graph per shard*:
//!
//! - **Members** — the nodes a tile owns. Their beliefs are
//!   authoritative and are merged into the global answer after every
//!   round.
//! - **Halo** — foreign nodes mirrored into the shard so members keep
//!   their full neighborhoods. The geometric halo from the layout is
//!   closed over the actual factor-graph adjacency, so correctness
//!   never depends on the layout's halo radius bounding the longest
//!   edge. Halo beliefs are *mirrors*: the shard updates them locally
//!   during a round (overlapping-Schwarz style) but their post-round
//!   values are discarded and re-synchronized from their owners.
//!
//! Execution alternates **interior sweeps** and **boundary exchange**:
//! each outer round runs `interior_iterations` BP iterations inside
//! every shard in parallel on the persistent worker pool (the inner
//! engines resume from the previous round's state via
//! [`WarmStart::resume`], so measurements are never double-counted),
//! then every shard's halo mirrors are refreshed from the owners'
//! fresh beliefs. Cross-shard refreshes travel through the existing
//! [`Transport`] seam: under a faulted transport, a per-run
//! `TransportSession` is built over the *boundary graph* (exactly the
//! factor-graph edges whose endpoints live in different shards), so
//! fault injection — loss, bursts, staleness, node death, asymmetry —
//! applies per cross-shard link while interior sweeps stay lossless.
//! Staleness-discounted deliveries temper the mirrored belief itself
//! through [`TemperBelief`] (the belief-level analog of the flat
//! engines' per-message `alpha` discount).
//!
//! Equivalence with the flat engine:
//!
//! - A layout with **one occupied tile** delegates straight to the
//!   inner engine — bit-identical by construction.
//! - Multi-shard, synchronous schedule, `interior_iterations = 1`,
//!   perfect transport: every member update reads exactly the beliefs
//!   a flat run's iteration would read (mirrors are synced every
//!   round), and sub-graph edges are added in ascending global edge
//!   order so per-node message summation order is preserved. For the
//!   deterministic grid backend this makes member beliefs match the
//!   flat run to the bit; stochastic backends differ only through
//!   their per-node RNG streams being keyed by local index.
//! - `interior_iterations > 1` trades boundary freshness for fewer
//!   synchronization points: mirrors go stale by up to `k - 1`
//!   iterations, the classic overlapping domain-decomposition
//!   approximation. Convergence is owned by the outer loop (inner runs
//!   are given a zero tolerance), tested on the largest owned-belief
//!   mean displacement per round against `opts.tolerance`.
//!
//! Scope notes, deliberately accepted and documented: node death under
//! sharding silences a node's *cross-shard* messages only (interior
//! sweeps run on the lossless in-memory path); coarse-to-fine grid
//! pre-solves apply per shard; message counts include the halo-overlap
//! duplication a real distributed deployment would also pay.

use std::sync::Arc;

use crate::engine::{self, Belief, BpEngine, RunOutcome, WarmStart};
use crate::gaussian::GaussianBelief;
use crate::mrf::{BpOptions, BpOutcome, SpatialMrf};
use crate::particle::ParticleBelief;
use crate::transport::{Transport, TransportSession, Verdict};
use crate::validate::ValidationError;
use rayon::prelude::*;
use wsnloc_geom::{ShardLayout, Vec2};
use wsnloc_obs::{
    CommStats, InferenceObserver, IterationRecord, NodeResidual, NullObserver, ObsEvent, SpanKind,
    Stopwatch,
};

/// Belief-level staleness tempering, `belief^alpha` in the appropriate
/// representation. Used when a cross-shard mirror refresh arrives
/// staleness-discounted (`Verdict::Deliver` with `alpha < 1`): the
/// flat engines discount the *message* built from a belief, the
/// sharded engine must discount the mirrored *belief* itself.
///
/// `alpha = 1` must be the identity; implementations treat
/// out-of-range `alpha` (≤ 0, ≥ 1) as 1.
pub trait TemperBelief {
    /// This belief raised to power `alpha` and renormalized.
    #[must_use]
    fn tempered(&self, alpha: f64) -> Self;
}

impl TemperBelief for GaussianBelief {
    fn tempered(&self, alpha: f64) -> GaussianBelief {
        if !(alpha > 0.0 && alpha < 1.0) {
            return *self;
        }
        // Raising a Gaussian to power α scales the information matrix
        // by α, i.e. the covariance by 1/α; the mean is unchanged.
        GaussianBelief {
            mean: self.mean,
            cov: [
                self.cov[0] / alpha,
                self.cov[1] / alpha,
                self.cov[2] / alpha,
                self.cov[3] / alpha,
            ],
        }
    }
}

impl TemperBelief for ParticleBelief {
    fn tempered(&self, alpha: f64) -> ParticleBelief {
        if !(alpha > 0.0 && alpha < 1.0) {
            return self.clone();
        }
        let weights: Vec<f64> = self.weights().iter().map(|w| w.powf(alpha)).collect();
        // `new` renormalizes (and falls back to uniform on all-zero).
        ParticleBelief::new(self.particles().to_vec(), weights)
    }
}

/// One shard's compiled execution state: the induced sub-factor-graph
/// over members ∪ halo, plus the index maps needed to merge results
/// and refresh mirrors.
struct SubGraph {
    /// Global ids of local nodes (members ∪ closed halo), ascending.
    /// Local index `i` ↔ global id `locals[i]`.
    locals: Vec<usize>,
    /// `(local, global)` for every node this shard owns.
    members: Vec<(usize, usize)>,
    /// Free halo mirrors refreshed through the boundary transport:
    /// `(local, global, boundary edge index, receiver_is_v)`. A mirror
    /// may appear once per cross-shard link; the last delivering link
    /// wins, so any delivered link refreshes the mirror.
    routed: Vec<(usize, usize, usize, bool)>,
    /// Free halo mirrors with no link to a free member (geometric halo
    /// only): `(local, global)`. Synced directly every round — they
    /// only influence halo-side evolution during multi-iteration
    /// rounds, never a member update directly.
    ambient: Vec<(usize, usize)>,
    /// The induced sub-factor-graph, over the full spatial domain.
    sub: SpatialMrf,
}

/// A [`BpEngine`] that runs its inner engine shard-by-shard over a
/// [`ShardLayout`]. See the module docs for the execution model.
pub struct ShardedEngine<E> {
    inner: E,
    layout: Arc<ShardLayout>,
    interior_iterations: usize,
}

impl<E> ShardedEngine<E> {
    /// Wraps `inner` to execute over `layout`, running
    /// `interior_iterations` BP iterations inside each shard between
    /// boundary exchanges. `interior_iterations` must be at least 1;
    /// 1 gives the tightest flat-run equivalence, larger values trade
    /// boundary freshness for fewer synchronization points.
    pub fn new(
        inner: E,
        layout: Arc<ShardLayout>,
        interior_iterations: usize,
    ) -> Result<Self, ValidationError> {
        if interior_iterations == 0 {
            return Err(ValidationError::InvalidOption {
                option: "interior_iterations",
                value: 0.0,
                requirement: "must be at least 1 interior iteration per outer round",
            });
        }
        Ok(ShardedEngine {
            inner,
            layout,
            interior_iterations,
        })
    }

    /// Infallible variant of [`ShardedEngine::new`] for callers whose
    /// own validation already guarantees a positive iteration count:
    /// values below 1 are clamped to 1 instead of erroring.
    pub fn clamped(inner: E, layout: Arc<ShardLayout>, interior_iterations: usize) -> Self {
        ShardedEngine {
            inner,
            layout,
            interior_iterations: interior_iterations.max(1),
        }
    }

    /// The spatial layout shards execute over.
    #[must_use]
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Interior BP iterations per outer round.
    #[must_use]
    pub fn interior_iterations(&self) -> usize {
        self.interior_iterations
    }

    /// The wrapped flat engine.
    #[must_use]
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E> ShardedEngine<E>
where
    E: BpEngine,
{
    /// Compiles the boundary graph (cross-shard edges only, global node
    /// indexing, same anchors fixed) and one [`SubGraph`] per occupied
    /// shard.
    fn compile(&self, mrf: &SpatialMrf, occupied: &[usize]) -> (SpatialMrf, Vec<SubGraph>) {
        let layout = &*self.layout;
        let n = mrf.len();
        let mut boundary = SpatialMrf::new(n, mrf.domain(), Arc::clone(mrf.unary(0)));
        for u in 0..n {
            if let Some(p) = mrf.fixed(u) {
                boundary.fix(u, p);
            }
        }
        // Boundary edge `be` is the `be`-th crossing edge in global
        // edge order; `be_of[e]` inverts that mapping so each shard can
        // find its crossing edges through member adjacency lists instead
        // of rescanning the whole edge set (which would make compilation
        // quadratic in the shard count on large deployments).
        let mut crossing = 0usize;
        let mut be_of: Vec<usize> = vec![usize::MAX; mrf.edges().len()];
        for (e, edge) in mrf.edges().iter().enumerate() {
            if layout.shard_of(edge.u) != layout.shard_of(edge.v) {
                be_of[e] = crossing;
                crossing += 1;
                boundary.add_edge(edge.u, edge.v, Arc::clone(&edge.potential));
            }
        }
        let subs = occupied
            .iter()
            .map(|&s| {
                let shard = &layout.shards()[s];
                // Locals = members ∪ geometric halo ∪ adjacency halo,
                // ascending. Closing over the factor-graph adjacency
                // means a member's neighborhood is always complete even
                // if an edge outruns the layout's halo radius.
                let mut locals: Vec<usize> = shard.members.clone();
                locals.extend_from_slice(&shard.halo);
                for &u in &shard.members {
                    for &e in mrf.edges_of(u) {
                        let v = mrf.other_end(e, u);
                        if layout.shard_of(v) != s {
                            locals.push(v);
                        }
                    }
                }
                locals.sort_unstable();
                locals.dedup();
                let mut sub =
                    SpatialMrf::new(locals.len(), mrf.domain(), Arc::clone(mrf.unary(locals[0])));
                for (i, &g) in locals.iter().enumerate() {
                    match mrf.fixed(g) {
                        Some(p) => sub.fix(i, p),
                        None => sub.set_unary(i, Arc::clone(mrf.unary(g))),
                    }
                }
                // Induced edges in ascending global edge order, gathered
                // through the locals' adjacency lists so only incident
                // edges are touched; the ascending replay preserves each
                // node's message summation order from the flat graph.
                let mut induced: Vec<usize> = locals
                    .iter()
                    .flat_map(|&g| mrf.edges_of(g).iter().copied())
                    .collect();
                induced.sort_unstable();
                induced.dedup();
                for &e in &induced {
                    let edge = &mrf.edges()[e];
                    if let (Ok(lu), Ok(lv)) =
                        (locals.binary_search(&edge.u), locals.binary_search(&edge.v))
                    {
                        sub.add_edge(lu, lv, Arc::clone(&edge.potential));
                    }
                }
                // Crossing edges incident to this shard's members, in
                // ascending boundary-edge order (`be_of` is monotone in
                // the global edge id, so sorting by edge id suffices). A
                // crossing edge has exactly one end in this shard, so a
                // member sweep finds each at most once.
                let mut routed: Vec<(usize, usize, usize, bool)> = Vec::new();
                let mut member_crossing: Vec<usize> = shard
                    .members
                    .iter()
                    .flat_map(|&u| mrf.edges_of(u).iter().copied())
                    .filter(|&e| be_of[e] != usize::MAX)
                    .collect();
                member_crossing.sort_unstable();
                member_crossing.dedup();
                for &ge in &member_crossing {
                    let edge = &mrf.edges()[ge];
                    for (member_end, foreign_end) in [(edge.u, edge.v), (edge.v, edge.u)] {
                        // A usable cross-shard link needs a free member
                        // receiver and a free foreign sender (anchor
                        // content is position, never mirrored state).
                        if layout.shard_of(member_end) == s
                            && layout.shard_of(foreign_end) != s
                            && mrf.fixed(member_end).is_none()
                            && mrf.fixed(foreign_end).is_none()
                        {
                            if let Ok(l) = locals.binary_search(&foreign_end) {
                                routed.push((l, foreign_end, be_of[ge], member_end == edge.v));
                            }
                        }
                    }
                }
                let mut has_route = vec![false; locals.len()];
                for &(l, _, _, _) in &routed {
                    has_route[l] = true;
                }
                let members: Vec<(usize, usize)> = locals
                    .iter()
                    .enumerate()
                    .filter(|&(_, &g)| layout.shard_of(g) == s)
                    .map(|(l, &g)| (l, g))
                    .collect();
                let ambient: Vec<(usize, usize)> = locals
                    .iter()
                    .enumerate()
                    .filter(|&(l, &g)| {
                        layout.shard_of(g) != s && mrf.fixed(g).is_none() && !has_route[l]
                    })
                    .map(|(l, &g)| (l, g))
                    .collect();
                SubGraph {
                    locals,
                    members,
                    routed,
                    ambient,
                    sub,
                }
            })
            .collect();
        (boundary, subs)
    }
}

impl<E> BpEngine for ShardedEngine<E>
where
    E: BpEngine + Sync,
    E::Belief: TemperBelief,
{
    type Belief = E::Belief;

    fn backend_name(&self) -> &'static str {
        match self.inner.backend_name() {
            "grid" => "sharded-grid",
            "particle" => "sharded-particle",
            "gaussian" => "sharded-gaussian",
            _ => "sharded",
        }
    }

    fn run_warm<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: WarmStart<'_, Self::Belief>,
        obs: &dyn InferenceObserver,
        mut on_iter: F,
    ) -> RunOutcome<Self::Belief>
    where
        F: FnMut(usize, &[Self::Belief]),
    {
        let layout = &*self.layout;
        assert_eq!(
            layout.len(),
            mrf.len(),
            "shard layout was built for a different node count"
        );
        let occupied: Vec<usize> = layout
            .shards()
            .iter()
            .enumerate()
            .filter(|(_, sh)| !sh.is_empty())
            .map(|(s, _)| s)
            .collect();
        if occupied.len() <= 1 {
            // Degenerate layout: the whole problem is one shard. The
            // flat engine *is* the sharded engine here — bit-identical.
            return self
                .inner
                .run_warm(mrf, opts, transport, warm, obs, on_iter);
        }

        let n = mrf.len();
        let free: Vec<bool> = (0..n).map(|u| mrf.fixed(u).is_none()).collect();
        let free_count = free.iter().filter(|&&f| f).count();
        engine::start_run(obs, self.backend_name(), mrf, free_count, opts);

        let build_t = Stopwatch::start();
        let (boundary, subs) = self.compile(mrf, &occupied);
        obs.on_span(SpanKind::ModelBuild, build_t.elapsed_secs());

        // Fault state lives on the boundary graph only: interior sweeps
        // are in-memory and lossless, cross-shard links roll fates once
        // per outer round (one exchange = one "iteration" to the plan).
        let mut session: Option<TransportSession<E::Belief>> =
            transport.session(&boundary, opts.seed);

        let prior_locals: Vec<Option<Vec<E::Belief>>> = subs
            .iter()
            .map(|sg| {
                warm.prior
                    .map(|p| sg.locals.iter().map(|&g| p[g].clone()).collect())
            })
            .collect();
        // Per-shard belief arenas, reused across rounds: round r resumes
        // from round r-1's local state (mirrors refreshed in between).
        let mut states: Vec<Option<Vec<E::Belief>>> = subs
            .iter()
            .map(|sg| {
                warm.state
                    .map(|st| sg.locals.iter().map(|&g| st[g].clone()).collect())
            })
            .collect();

        let interior = self.interior_iterations;
        let rounds_total = opts.max_iterations.div_ceil(interior).max(1);
        let mut global: Vec<E::Belief> = Vec::new();
        let mut prev_means: Vec<Vec2> = Vec::new();
        let mut outcome = BpOutcome {
            iterations: 0,
            converged: false,
            messages: 0,
        };
        let mut pending_boundary = 0u64;

        let loop_t = Stopwatch::start();
        for round in 0..rounds_total {
            let round_t = Stopwatch::start();
            // The final round absorbs any remainder of the iteration
            // budget so total interior iterations equal the flat cap.
            let iters = interior.min(opts.max_iterations - outcome.iterations);
            let outs: Vec<RunOutcome<E::Belief>> = (0..subs.len())
                .into_par_iter()
                .map(|si| {
                    let sg = &subs[si];
                    let mut ropts = *opts;
                    ropts.max_iterations = iters;
                    // Convergence is owned by the outer loop; a shard
                    // stopping early would desynchronize the rounds.
                    ropts.tolerance = 0.0;
                    let w = WarmStart {
                        prior: prior_locals[si].as_deref(),
                        state: states[si].as_deref(),
                    };
                    self.inner.run_warm(
                        &sg.sub,
                        &ropts,
                        &Transport::perfect(),
                        w,
                        &NullObserver,
                        |_, _| {},
                    )
                })
                .collect();
            outcome.iterations += iters;
            let round_msgs: u64 =
                outs.iter().map(|o| o.bp.messages).sum::<u64>() + pending_boundary;
            pending_boundary = 0;
            outcome.messages += round_msgs;

            // Merge owned beliefs into the global arena, shard order
            // (deterministic; every node is owned by exactly one shard).
            if global.is_empty() {
                let mut pairs: Vec<(usize, E::Belief)> = Vec::with_capacity(n);
                for (sg, out) in subs.iter().zip(&outs) {
                    for &(l, g) in &sg.members {
                        pairs.push((g, out.beliefs[l].clone()));
                    }
                }
                pairs.sort_by_key(|p| p.0);
                global = pairs.into_iter().map(|(_, b)| b).collect();
            } else {
                for (sg, out) in subs.iter().zip(&outs) {
                    for &(l, g) in &sg.members {
                        global[g] = out.beliefs[l].clone();
                    }
                }
            }
            for (st, out) in states.iter_mut().zip(outs) {
                *st = Some(out.beliefs);
            }

            let means: Vec<Vec2> = global.iter().map(Belief::mean).collect();
            let max_shift = if prev_means.is_empty() {
                // No baseline yet: a run can't claim convergence off
                // its very first round.
                f64::INFINITY
            } else {
                means
                    .iter()
                    .zip(&prev_means)
                    .zip(&free)
                    .filter(|(_, &f)| f)
                    .map(|((m, p), _)| m.dist(*p))
                    .fold(0.0, f64::max)
            };
            let residuals = if obs.wants_residuals() && !prev_means.is_empty() {
                means
                    .iter()
                    .zip(&prev_means)
                    .enumerate()
                    .filter(|&(u, _)| free[u])
                    .map(|(u, (m, p))| NodeResidual {
                        node: u,
                        residual: m.dist(*p),
                        kl: None,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            prev_means = means;
            obs.on_iteration(&IterationRecord {
                iteration: round,
                max_shift,
                comm: CommStats {
                    messages: round_msgs,
                    bytes: round_msgs * opts.message_bytes,
                },
                damping: opts.damping,
                schedule: opts.schedule.name(),
                secs: round_t.elapsed_secs(),
                residuals,
            });
            on_iter(round, &global);

            if opts.tolerance > 0.0 && max_shift < opts.tolerance {
                outcome.converged = true;
                break;
            }
            if round + 1 >= rounds_total {
                break;
            }

            // Boundary exchange: refresh every shard's halo mirrors from
            // the owners' fresh beliefs, through the transport.
            match session.as_mut() {
                Some(sess) => {
                    sess.begin_iteration(round, &global, obs);
                    for (si, (sg, st)) in subs.iter().zip(states.iter_mut()).enumerate() {
                        if let Some(state) = st.as_mut() {
                            let mut delivered: u64 = 0;
                            for &(l, _, be, riv) in &sg.routed {
                                if let Verdict::Deliver { alpha } = sess.verdict(be, riv) {
                                    if let Some(content) = sess.snapshot(be, riv) {
                                        state[l] = if alpha < 1.0 {
                                            content.tempered(alpha)
                                        } else {
                                            content.clone()
                                        };
                                        pending_boundary += 1;
                                        delivered += 1;
                                    }
                                }
                            }
                            for &(l, g) in &sg.ambient {
                                state[l] = global[g].clone();
                            }
                            obs.on_event(&ObsEvent::BoundaryExchange {
                                round,
                                shard: occupied[si],
                                messages: delivered,
                            });
                        }
                    }
                }
                None => {
                    for (si, (sg, st)) in subs.iter().zip(states.iter_mut()).enumerate() {
                        if let Some(state) = st.as_mut() {
                            for &(l, g, _, _) in &sg.routed {
                                state[l] = global[g].clone();
                            }
                            for &(l, g) in &sg.ambient {
                                state[l] = global[g].clone();
                            }
                            obs.on_event(&ObsEvent::BoundaryExchange {
                                round,
                                shard: occupied[si],
                                messages: sg.routed.len() as u64,
                            });
                        }
                    }
                }
            }
        }
        obs.on_span(SpanKind::MessagePassing, loop_t.elapsed_secs());
        engine::end_run(obs, &outcome, opts);
        RunOutcome {
            beliefs: global,
            bp: outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::GaussianBp;
    use crate::grid::GridBp;
    use crate::mrf::Schedule;
    use crate::potential::{GaussianRange, UniformBoxUnary};
    use wsnloc_geom::rng::Xoshiro256pp;
    use wsnloc_geom::Aabb;

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
        let sharded =
            ShardedEngine::new(GridBp::with_resolution(24), layout, 2).expect("valid config");
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
        // Synchronous schedule + one interior iteration per round +
        // perfect transport: member updates read exactly what the flat
        // iteration reads, in the same summation order.
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
        let sharded =
            ShardedEngine::new(GridBp::with_resolution(20), layout, 1).expect("valid config");
        let (fb, _) = flat.run(&mrf, &opts);
        let (sb, _) = sharded.run(&mrf, &opts);
        for (u, (f, s)) in fb.iter().zip(&sb).enumerate() {
            let d = f.mean().dist(s.mean());
            assert!(d < 1e-9, "node {u}: sharded mean drifted {d} m from flat");
        }
    }

    #[test]
    fn multi_shard_gaussian_stays_close_to_flat() {
        let (mrf, positions) = deployment(6, 10.0, 0xCAFE);
        let layout = layout_for(&positions, mrf.domain(), 2, 16.0);
        let opts = BpOptions {
            max_iterations: 12,
            tolerance: 0.0,
            ..BpOptions::default()
        };
        let flat = GaussianBp::default();
        let sharded = ShardedEngine::new(GaussianBp::default(), layout, 2).expect("valid config");
        let (fb, _) = flat.run(&mrf, &opts);
        let (sb, _) = sharded.run(&mrf, &opts);
        // The Gaussian backend keys its per-node RNG streams by local
        // index and carries 2-iteration boundary staleness, so beliefs
        // are not comparable node-for-node; the documented tolerance is
        // on localization quality.
        let mean_err = |bs: &[GaussianBelief]| -> f64 {
            let free: Vec<f64> = bs
                .iter()
                .enumerate()
                .filter(|&(u, _)| mrf.fixed(u).is_none())
                .map(|(u, b)| b.mean.dist(positions[u]))
                .collect();
            free.iter().sum::<f64>() / free.len() as f64
        };
        let fe = mean_err(&fb);
        let se = mean_err(&sb);
        assert!(fe.is_finite() && se.is_finite());
        assert!(
            se < fe * 1.2 + 1.0,
            "sharded gaussian quality regressed: flat {fe} m, sharded {se} m"
        );
        for (u, b) in sb.iter().enumerate() {
            assert!(
                b.mean.x.is_finite() && b.mean.y.is_finite(),
                "node {u}: non-finite sharded mean"
            );
        }
    }

    #[test]
    fn zero_interior_iterations_is_rejected() {
        let layout = Arc::new(ShardLayout::build(
            Aabb::from_size(10.0, 10.0),
            2,
            2,
            &[Vec2::new(1.0, 1.0)],
            2.0,
        ));
        assert!(ShardedEngine::new(GaussianBp::default(), layout, 0).is_err());
    }

    #[test]
    fn tempering_is_identity_at_alpha_one() {
        let g = GaussianBelief::isotropic(Vec2::new(1.0, 2.0), 3.0);
        let t = g.tempered(1.0);
        assert_eq!(g.cov, t.cov);
        let half = g.tempered(0.5);
        assert!((half.cov[0] - 2.0 * g.cov[0]).abs() < 1e-12);
        assert_eq!(half.mean, g.mean);

        let p = ParticleBelief::new(
            vec![Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)],
            vec![0.9, 0.1],
        );
        let tp = p.tempered(1.0);
        assert_eq!(p.weights(), tp.weights());
        let hp = p.tempered(0.5);
        let ratio = hp.weights()[0] / hp.weights()[1];
        assert!(
            (ratio - 3.0).abs() < 1e-9,
            "0.9^0.5 / 0.1^0.5 = 3, got {ratio}"
        );
    }
}
