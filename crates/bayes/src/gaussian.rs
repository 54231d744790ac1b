//! Gaussian (parametric) belief propagation.
//!
//! The cheapest belief representation: every node's posterior is a single
//! 2-D Gaussian, updated in information form by EKF-style linearization of
//! the range measurements (distributed Gauss–Newton with uncertainty
//! tracking). One mean + covariance per node is all a node ever transmits —
//! 40 bytes against kilobytes of particles.
//!
//! The catch, and the reason the paper's formulation is nonparametric: a
//! range ring is *not* Gaussian. With few anchors the true posterior is
//! multi-modal (rings, reflection ambiguities), the linearization point is
//! wrong, and Gaussian BP converges to whichever mode its initialization
//! fell into. The backend-comparison experiment measures exactly this
//! failure mode; Gaussian BP is competitive only when priors or anchors
//! make posteriors unimodal.
//!
//! Update rule per node `u`, iteration `k`:
//! `Λ ← Λ₀ + Σ_v g gᵀ / s²`, `η ← η₀ + Σ_v g (gᵀμᵤ + r) / s²`, where
//! `g = (μᵤ − μᵥ)/‖μᵤ − μᵥ‖` is the linearized range gradient,
//! `r = d_obs − ‖μᵤ − μᵥ‖` the innovation, and
//! `s² = σ_d² + gᵀΣᵥg` the measurement variance inflated by the neighbor's
//! own positional uncertainty along the line of sight.
//!
//! The prior `(Λ₀, η₀)` of a cold run comes from
//! [`UnaryPotential::moments`]: exact for a Gaussian drop-point prior
//! ([`crate::potential::GaussianUnary`] returns its own mean and σ), and
//! a 64-draw estimate for box and shape priors. Each run also tabulates,
//! per free node, the observed distance and noise variance of every
//! range edge once, so an update does arithmetic over its table instead
//! of asking each edge's potential again.
//!
//! [`UnaryPotential::moments`]: crate::potential::UnaryPotential::moments

use crate::engine::{self, BpEngine, Delivery, Inbox, NodeUpdate, RunOutcome};
use crate::mrf::{BpOptions, SpatialMrf};
use crate::transport::Transport;
use crate::validate::{DistributionAudit, ValidationError};
use rayon::prelude::*;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::Vec2;
use wsnloc_obs::InferenceObserver;

/// A 2-D Gaussian belief: mean and covariance (row-major 2×2, symmetric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianBelief {
    /// Mean position.
    pub mean: Vec2,
    /// Covariance `[cxx, cxy, cxy, cyy]`.
    pub cov: [f64; 4],
}

impl GaussianBelief {
    /// A near-certain belief at a point (anchors).
    pub fn point(p: Vec2) -> Self {
        GaussianBelief {
            mean: p,
            cov: [1e-9, 0.0, 0.0, 1e-9],
        }
    }

    /// An isotropic Gaussian belief.
    pub fn isotropic(mean: Vec2, sigma: f64) -> Self {
        GaussianBelief {
            mean,
            cov: [sigma * sigma, 0.0, 0.0, sigma * sigma],
        }
    }

    /// RMS spread `sqrt(trace(cov))`.
    pub fn spread(&self) -> f64 {
        (self.cov[0] + self.cov[3]).max(0.0).sqrt()
    }

    /// Variance along unit direction `g`: `gᵀ Σ g`.
    pub fn directional_variance(&self, g: Vec2) -> f64 {
        g.x * g.x * self.cov[0] + 2.0 * g.x * g.y * self.cov[1] + g.y * g.y * self.cov[3]
    }
}

impl crate::engine::Belief for GaussianBelief {
    fn mean(&self) -> Vec2 {
        self.mean
    }

    fn spread(&self) -> f64 {
        GaussianBelief::spread(self)
    }
}

/// 2×2 symmetric inverse; `None` when singular.
fn inv2(m: [f64; 4]) -> Option<[f64; 4]> {
    let det = m[0] * m[3] - m[1] * m[2];
    if det.abs() < 1e-300 || !det.is_finite() {
        return None;
    }
    Some([m[3] / det, -m[1] / det, -m[2] / det, m[0] / det])
}

/// Magnitude (meters) of the deterministic per-node jitter applied to
/// cold initial means, breaking the gradient singularity of coincident
/// initializations.
const INIT_JITTER: f64 = 1.0;

/// Gaussian-belief loopy BP engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianBp;

impl BpEngine for GaussianBp {
    type Belief = GaussianBelief;

    /// Under a fault plan, undelivered neighbor beliefs are replaced by
    /// held snapshots (their information contribution scaled by
    /// `alpha`), never-received links contribute nothing, and dead nodes
    /// freeze. A cold free node's prior moments are its unary's
    /// [`UnaryPotential::moments`] (exact for a Gaussian drop-point
    /// prior, sampled otherwise). A carried belief replaces those
    /// moments and the jittered initial belief — the textbook
    /// predict/update recursion with the carried Gaussian as the
    /// predicted prior.
    ///
    /// [`UnaryPotential::moments`]: crate::potential::UnaryPotential::moments
    fn run_carried<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: Option<&[GaussianBelief]>,
        obs: &dyn InferenceObserver,
        on_iter: F,
    ) -> RunOutcome<GaussianBelief>
    where
        F: FnMut(usize, &[GaussianBelief]),
    {
        let init = || init(mrf, opts, warm);
        engine::drive(mrf, opts, transport, obs, init, on_iter)
    }
}

/// Per-node prior moments, range tables and initial beliefs for one run,
/// in one pass on the pool: each chunk job writes its nodes' initial
/// beliefs in place and builds its own [`NodeChunk`]. Each node draws
/// from its own split streams, so the result does not depend on how the
/// nodes are chunked. A cold free node's prior is the exact mean and σ
/// of a Gaussian drop-point unary, or the sampled estimate of
/// [`UnaryPotential::moments`]'s default for any other prior.
///
/// [`UnaryPotential::moments`]: crate::potential::UnaryPotential::moments
fn init(
    mrf: &SpatialMrf,
    opts: &BpOptions,
    warm: Option<&[GaussianBelief]>,
) -> (GaussianRun, Vec<GaussianBelief>) {
    let default_sigma = mrf.domain().diagonal() / 2.0;
    let root = Xoshiro256pp::seed_from(opts.seed);
    // Every slot is overwritten below.
    let mut beliefs = vec![GaussianBelief::point(Vec2::ZERO); mrf.len()];
    let chunks = beliefs.par_map_chunks_mut(|start, slots| {
        let mut chunk = NodeChunk::new(mrf, start, slots.len());
        for (u, slot) in (start..).zip(slots) {
            let (prior, belief) = match (mrf.fixed(u), warm) {
                (Some(p), _) => (GaussianBelief::point(p), GaussianBelief::point(p)),
                // Carried-over epoch prior: the previous posterior,
                // already motion-convolved by the caller. Warm starts
                // skip the symmetry-breaking jitter: the carried mean is
                // already a meaningful linearization point, not a
                // coincident initialization.
                (None, Some(w)) => (w[u], w[u]),
                (None, None) => {
                    // Prior moments: exact for a Gaussian drop-point
                    // prior, sampled from the node's own stream otherwise.
                    let (mean, sigma) = mrf.unary(u).moments(&mut root.split(0x6A05 ^ u as u64));
                    let prior = GaussianBelief::isotropic(mean, sigma.max(1e-3).min(default_sigma));
                    let mut belief = prior;
                    let mut rng = root.split(0x11773 ^ u as u64);
                    belief.mean += Vec2::new(rng.gaussian(), rng.gaussian()) * INIT_JITTER;
                    (prior, belief)
                }
            };
            chunk.push(mrf, u, prior);
            *slot = belief;
        }
        chunk
    });
    let run = GaussianRun {
        chunks,
        damping: opts.damping,
    };
    (run, beliefs)
}

/// One range edge as a free node's update reads it.
struct RangeEdge {
    /// The directed link into the updating node: `2e` when it is edge
    /// `e`'s `u` endpoint, `2e + 1` when it is the `v` endpoint.
    link: usize,
    /// The far end, whose belief the edge delivers.
    v: usize,
    /// The observed distance.
    observed: f64,
    /// The ranging noise variance, `sigma * sigma`.
    var: f64,
}

/// The prior moments and range tables of one chunk of consecutive
/// nodes: one flat table per chunk job rather than one allocation per
/// node.
struct NodeChunk {
    /// The chunk's first node.
    start: usize,
    /// Prior moments per node (points for anchors).
    priors: Vec<GaussianBelief>,
    /// Node `start + i`'s range edges are `ranges[ends[i]..ends[i + 1]]`.
    ends: Vec<usize>,
    /// Each free node's range edges in [`SpatialMrf::edges_of`] order.
    /// Edges whose potential has no [`PairPotential::gaussian_range`]
    /// are left out, because this backend ignores them; anchors have
    /// none.
    ///
    /// [`PairPotential::gaussian_range`]: crate::potential::PairPotential::gaussian_range
    ranges: Vec<RangeEdge>,
}

impl NodeChunk {
    /// An empty chunk for the `len` nodes from `start`, sized for them.
    fn new(mrf: &SpatialMrf, start: usize, len: usize) -> Self {
        let edges = (start..start + len)
            .filter(|&u| mrf.fixed(u).is_none())
            .map(|u| mrf.edges_of(u).len())
            .sum();
        let mut ends = Vec::with_capacity(len + 1);
        ends.push(0);
        NodeChunk {
            start,
            priors: Vec::with_capacity(len),
            ends,
            ranges: Vec::with_capacity(edges),
        }
    }

    /// Appends node `u` (the chunk's next) with its prior moments and,
    /// when it is free, its range edges.
    fn push(&mut self, mrf: &SpatialMrf, u: usize, prior: GaussianBelief) {
        if mrf.fixed(u).is_none() {
            for &e in mrf.edges_of(u) {
                let edge = &mrf.edges()[e];
                let Some((observed, sigma)) = edge.potential.gaussian_range() else {
                    continue;
                };
                let receiver_is_v = edge.v == u;
                self.ranges.push(RangeEdge {
                    link: 2 * e + usize::from(receiver_is_v),
                    v: if receiver_is_v { edge.u } else { edge.v },
                    observed,
                    var: sigma * sigma,
                });
            }
        }
        self.priors.push(prior);
        self.ends.push(self.ranges.len());
    }
}

/// One Gaussian run's update state.
struct GaussianRun {
    /// Prior moments and range tables, per chunk of consecutive nodes
    /// from node 0.
    chunks: Vec<NodeChunk>,
    /// Fraction of the old mean kept by each update.
    damping: f64,
}

impl NodeUpdate for GaussianRun {
    type Belief = GaussianBelief;

    const BACKEND: &'static str = "gaussian";

    /// The information-form update; a singular posterior keeps the
    /// previous belief. Damping pulls the new mean toward the old one.
    fn update(&self, u: usize, _iter: usize, inbox: &Inbox<'_, GaussianBelief>) -> GaussianBelief {
        let old = inbox.beliefs()[u];
        let mut b = self.information_update(u, inbox).unwrap_or(old);
        if self.damping > 0.0 {
            b.mean = b.mean.lerp(old.mean, self.damping);
        }
        b
    }

    fn audit(
        audit: &DistributionAudit,
        context: &str,
        belief: &GaussianBelief,
    ) -> Result<(), ValidationError> {
        audit.check_gaussian(context, belief)
    }
}

impl GaussianRun {
    /// Node `u`'s prior moments and range edges.
    fn node(&self, u: usize) -> (&GaussianBelief, &[RangeEdge]) {
        // The chunks run consecutively from node 0, so `u` lies in the
        // last one that starts at or before it.
        let c = &self.chunks[self.chunks.partition_point(|c| c.start <= u) - 1];
        let i = u - c.start;
        (&c.priors[i], &c.ranges[c.ends[i]..c.ends[i + 1]])
    }

    /// One information-form update; `None` when the posterior information
    /// matrix is singular.
    fn information_update(
        &self,
        u: usize,
        inbox: &Inbox<'_, GaussianBelief>,
    ) -> Option<GaussianBelief> {
        let (prior, ranges) = self.node(u);
        let mu = inbox.beliefs()[u].mean;
        // Prior information.
        let p_info = inv2(prior.cov)?;
        let mut lam = p_info;
        let mut eta = [
            p_info[0] * prior.mean.x + p_info[1] * prior.mean.y,
            p_info[2] * prior.mean.x + p_info[3] * prior.mean.y,
        ];

        for range in ranges {
            // Never-received links contribute nothing; a held snapshot's
            // measurement information is scaled by its staleness
            // discount `alpha` (exactly 1 on the perfect transport).
            let Some(Delivery {
                belief: nb, alpha, ..
            }) = inbox.deliver(range.link / 2, range.v, range.link % 2 == 1)
            else {
                continue;
            };
            let diff = mu - nb.mean;
            let dist = diff.norm();
            if dist < 1e-6 {
                continue; // gradient undefined this iteration
            }
            let g = diff / dist;
            let s2 = range.var + nb.directional_variance(g);
            if s2 <= 0.0 {
                continue;
            }
            let r = range.observed - dist;
            // Pseudo-measurement of gᵀx with value gᵀμᵤ + r.
            let z = g.dot(mu) + r;
            lam[0] += alpha * (g.x * g.x / s2);
            lam[1] += alpha * (g.x * g.y / s2);
            lam[2] += alpha * (g.y * g.x / s2);
            lam[3] += alpha * (g.y * g.y / s2);
            eta[0] += alpha * (g.x * z / s2);
            eta[1] += alpha * (g.y * z / s2);
        }

        let cov = inv2(lam)?;
        let mean = Vec2::new(
            cov[0] * eta[0] + cov[1] * eta[1],
            cov[2] * eta[0] + cov[3] * eta[1],
        );
        mean.is_finite().then_some(GaussianBelief { mean, cov })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{GaussianRange, GaussianUnary, UniformBoxUnary};
    use std::sync::Arc;
    use wsnloc_geom::Aabb;

    fn domain() -> Aabb {
        Aabb::from_size(100.0, 100.0)
    }

    #[test]
    fn inv2_roundtrip() {
        let m = [4.0, 1.0, 1.0, 3.0];
        let inv = inv2(m).unwrap();
        // m · inv = I.
        let prod = [
            m[0] * inv[0] + m[1] * inv[2],
            m[0] * inv[1] + m[1] * inv[3],
            m[2] * inv[0] + m[3] * inv[2],
            m[2] * inv[1] + m[3] * inv[3],
        ];
        assert!((prod[0] - 1.0).abs() < 1e-12);
        assert!(prod[1].abs() < 1e-12);
        assert!((prod[3] - 1.0).abs() < 1e-12);
        assert!(inv2([1.0, 1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn directional_variance() {
        let b = GaussianBelief {
            mean: Vec2::ZERO,
            cov: [9.0, 0.0, 0.0, 1.0],
        };
        assert!((b.directional_variance(Vec2::new(1.0, 0.0)) - 9.0).abs() < 1e-12);
        assert!((b.directional_variance(Vec2::new(0.0, 1.0)) - 1.0).abs() < 1e-12);
        assert!((b.spread() - 10.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn trilateration_with_three_anchors() {
        let dom = domain();
        let truth = Vec2::new(42.0, 58.0);
        let anchors = [
            Vec2::new(10.0, 10.0),
            Vec2::new(90.0, 15.0),
            Vec2::new(45.0, 92.0),
        ];
        let mut mrf = SpatialMrf::new(4, dom, Arc::new(UniformBoxUnary(dom)));
        for (i, &a) in anchors.iter().enumerate() {
            mrf.fix(i, a);
            mrf.add_edge(
                i,
                3,
                Arc::new(GaussianRange {
                    observed: truth.dist(a),
                    sigma: 1.0,
                }),
            );
        }
        let (beliefs, outcome) = GaussianBp.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(30)
                .tolerance(0.05)
                .seed(1)
                .try_build()
                .expect("valid options"),
        );
        assert!(outcome.converged);
        let est = beliefs[3].mean;
        assert!(est.dist(truth) < 2.0, "estimate {est} vs {truth}");
        // Posterior is confident.
        assert!(beliefs[3].spread() < 5.0);
    }

    #[test]
    fn prior_pulls_ring_posterior_to_the_right_mode() {
        // One anchor + ring: bimodal in truth, but the Gaussian prior
        // selects the correct mode.
        let dom = domain();
        let mut mrf = SpatialMrf::new(2, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(50.0, 50.0));
        mrf.set_unary(
            1,
            Arc::new(GaussianUnary {
                mean: Vec2::new(75.0, 50.0),
                sigma: 8.0,
            }),
        );
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 20.0,
                sigma: 1.5,
            }),
        );
        let (beliefs, _) = GaussianBp.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(25)
                .tolerance(0.05)
                .seed(2)
                .try_build()
                .expect("valid options"),
        );
        let est = beliefs[1].mean;
        assert!(est.dist(Vec2::new(70.0, 50.0)) < 3.0, "estimate {est}");
    }

    #[test]
    fn uncertainty_inflation_from_uncertain_neighbors() {
        // A node ranged only from another *uncertain* node must end up less
        // confident than one ranged from an anchor at the same geometry.
        let dom = domain();
        let mut mrf = SpatialMrf::new(3, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(30.0, 50.0));
        mrf.set_unary(
            1,
            Arc::new(GaussianUnary {
                mean: Vec2::new(50.0, 50.0),
                sigma: 15.0, // uncertain relay
            }),
        );
        mrf.set_unary(
            2,
            Arc::new(GaussianUnary {
                mean: Vec2::new(70.0, 50.0),
                sigma: 30.0,
            }),
        );
        // Node 2 ranges only to the uncertain node 1.
        mrf.add_edge(
            1,
            2,
            Arc::new(GaussianRange {
                observed: 20.0,
                sigma: 1.0,
            }),
        );
        // Node 1 ranges to the anchor.
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 20.0,
                sigma: 1.0,
            }),
        );
        let (beliefs, _) = GaussianBp.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(20)
                .tolerance(0.05)
                .seed(3)
                .try_build()
                .expect("valid options"),
        );
        // Node 2's spread must exceed node 1's: its information came through
        // an uncertain relay.
        assert!(
            beliefs[2].spread() > beliefs[1].spread(),
            "relay uncertainty must propagate: {} vs {}",
            beliefs[2].spread(),
            beliefs[1].spread()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(2, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(50.0, 50.0));
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 15.0,
                sigma: 2.0,
            }),
        );
        let opts = BpOptions::builder()
            .max_iterations(10)
            .seed(9)
            .try_build()
            .expect("valid options");
        let engine = GaussianBp;
        let (a, _) = engine.run(&mrf, &opts);
        let (b, _) = engine.run(&mrf, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_node_keeps_prior_moments() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(1, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.set_unary(
            0,
            Arc::new(GaussianUnary {
                mean: Vec2::new(20.0, 80.0),
                sigma: 5.0,
            }),
        );
        let (beliefs, _) = GaussianBp.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(5)
                .seed(4)
                .try_build()
                .expect("valid options"),
        );
        // Exact prior moments and no damping: one update lands on the
        // prior itself, its mean and its spread σ·√2.
        assert!(beliefs[0].mean.dist(Vec2::new(20.0, 80.0)) < 1e-9);
        assert!((beliefs[0].spread() - 5.0 * (2.0f64).sqrt()).abs() < 1e-9);
    }
}
