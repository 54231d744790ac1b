//! Particle (nonparametric) beliefs and belief propagation.
//!
//! The scalable counterpart to [`crate::grid`]: beliefs are weighted particle
//! sets and each BP iteration is an importance-sampling update in the style
//! of nonparametric BP / SPAWN:
//!
//! 1. **Propose** candidate positions from three sources — jittered current
//!    particles (exploitation), neighbor-ring proposals (a neighbor particle
//!    plus a distance drawn from the edge potential at a random bearing),
//!    and fresh prior samples (support maintenance).
//! 2. **Weight** each candidate by its prior density times, per neighbor,
//!    the mixture likelihood of the candidate against the neighbor's belief
//!    (a subsample of its particles pushed through the edge potential).
//! 3. **Resample** systematically back to the configured particle count.
//!
//! The update uses neighbor *beliefs* rather than exclusive messages (the
//! standard SPAWN simplification); the resulting fixed point slightly
//! overcounts loops but converges fast and matches the distributed protocol
//! a WSN would actually run.

use crate::engine::{self, BpEngine, Inbox, NodeUpdate, RunOutcome};
use crate::mrf::{BpOptions, SpatialMrf};
use crate::potential::{PairPotential, UnaryPotential};
use crate::transport::Transport;
use crate::validate::{DistributionAudit, ValidationError};
use wsnloc_geom::exp::exp_in_place;
use wsnloc_geom::kde::silverman_bandwidth;
use wsnloc_geom::rng::{systematic_resample, Xoshiro256pp};
use wsnloc_geom::{Matrix, Vec2};
use wsnloc_obs::InferenceObserver;

/// A weighted particle representation of a position belief.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleBelief {
    particles: Vec<Vec2>,
    /// Normalized weights (sum to 1).
    weights: Vec<f64>,
}

impl ParticleBelief {
    /// Builds from particles and (unnormalized, non-negative) weights.
    /// All-zero weights become uniform.
    pub fn new(particles: Vec<Vec2>, weights: Vec<f64>) -> Self {
        assert_eq!(particles.len(), weights.len(), "length mismatch");
        assert!(!particles.is_empty(), "belief needs at least one particle");
        let mut b = ParticleBelief { particles, weights };
        b.normalize();
        b
    }

    /// Equal-weight belief over the given support.
    pub fn from_points(particles: Vec<Vec2>) -> Self {
        let n = particles.len();
        ParticleBelief::new(particles, vec![1.0 / n as f64; n])
    }

    /// A single-particle (anchor) belief.
    pub fn point(p: Vec2) -> Self {
        ParticleBelief {
            particles: vec![p],
            weights: vec![1.0],
        }
    }

    /// The particle support.
    pub fn particles(&self) -> &[Vec2] {
        &self.particles
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// `true` iff the belief holds no particles (never constructed so).
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    fn normalize(&mut self) {
        let total: f64 = self.weights.iter().map(|w| w.max(0.0)).sum();
        if total > 0.0 && total.is_finite() {
            for w in &mut self.weights {
                *w = w.max(0.0) / total;
            }
        } else {
            let n = self.weights.len();
            self.weights.fill(1.0 / n as f64);
        }
    }

    /// MMSE point estimate: the weighted mean.
    pub fn mean(&self) -> Vec2 {
        self.particles
            .iter()
            .zip(&self.weights)
            .fold(Vec2::ZERO, |acc, (&p, &w)| acc + p * w)
    }

    /// Weighted covariance (2×2).
    pub fn covariance(&self) -> Matrix {
        let mean = self.mean();
        let mut cov = Matrix::zeros(2, 2);
        for (&p, &w) in self.particles.iter().zip(&self.weights) {
            let d = p - mean;
            cov[(0, 0)] += w * d.x * d.x;
            cov[(0, 1)] += w * d.x * d.y;
            cov[(1, 1)] += w * d.y * d.y;
        }
        cov[(1, 0)] = cov[(0, 1)];
        cov
    }

    /// RMS spread: `sqrt(trace(cov))`.
    pub fn spread(&self) -> f64 {
        self.covariance().trace().sqrt()
    }

    /// Effective sample size `(Σw)²/Σw²` — `len()` for uniform weights,
    /// 1 for a degenerate belief.
    pub fn effective_sample_size(&self) -> f64 {
        let sum_sq: f64 = self.weights.iter().map(|w| w * w).sum();
        if sum_sq > 0.0 {
            1.0 / sum_sq
        } else {
            0.0
        }
    }

    /// Systematic resample to `count` equally weighted particles.
    pub fn resampled(&self, count: usize, rng: &mut Xoshiro256pp) -> ParticleBelief {
        let particles: Vec<Vec2> = match systematic_resample(rng, &self.weights, count) {
            Some(idx) => idx.into_iter().map(|i| self.particles[i]).collect(),
            // Total weight collapsed to zero (weights are normalized at
            // construction, so this is a numerical edge case): recycle the
            // existing support instead of panicking mid-inference.
            None => (0..count)
                .map(|k| self.particles[k % self.particles.len()])
                .collect(),
        };
        ParticleBelief::from_points(particles)
    }

    /// A Silverman-rule kernel bandwidth for this belief, floored.
    pub fn bandwidth(&self, min: f64) -> f64 {
        silverman_bandwidth(&self.particles, &self.weights, min)
    }
}

/// Whole-number share of the particle budget: `round(n * fraction)`.
///
/// Fractions lie in `[0, 1]` (constants or validated damping), and the
/// cast happens once per node update — never in a per-particle loop.
#[expect(
    clippy::cast_possible_truncation,
    reason = "fraction-of-budget sizing: validated [0, 1] input, once per node update"
)]
fn share(n: usize, fraction: f64) -> usize {
    ((n as f64) * fraction).round() as usize
}

impl crate::engine::Belief for ParticleBelief {
    fn mean(&self) -> Vec2 {
        ParticleBelief::mean(self)
    }

    fn spread(&self) -> f64 {
        ParticleBelief::spread(self)
    }
}

/// Per-edge neighbor context resolved once per node update: the
/// neighbor belief the transport delivered (live on the perfect path, a
/// held snapshot under faults), its potential, its anchor position when
/// fixed, and the staleness discount. Hoisting this out of the
/// per-candidate loops removes the repeated edge-table and fixed-map
/// lookups from the weighting hot path; edges whose link has never
/// delivered are absent entirely.
struct EdgeCtx<'a> {
    /// The neighbor belief to propose from and weight against.
    belief: &'a ParticleBelief,
    /// The edge's distance potential.
    potential: &'a dyn PairPotential,
    /// The neighbor's position when it is a fixed anchor.
    fixed: Option<Vec2>,
    /// Staleness discount on the edge's log-likelihood contribution
    /// (1.0 on the perfect transport).
    alpha: f64,
}

/// The effective per-epoch prior of one node: the MRF unary on a cold
/// start, or the carried (motion-predicted) belief on a warm start.
/// Both proposal refreshes and the prior term of the importance
/// weights go through this, so a carried posterior is never
/// re-multiplied by the pre-knowledge unary it already absorbed.
enum EpochPrior<'a> {
    /// Cold start: sample and weight against the node's unary.
    Unary(&'a dyn UnaryPotential),
    /// Warm start: sample and weight against the carried belief's KDE.
    Carried(CarriedKde<'a>),
}

/// A carried particle set as an isotropic Gaussian KDE prior,
/// `log Σᵢ wᵢ·N(x; pᵢ, h²I)`. This is what lets a carried set act as a
/// *prior* in a later importance-weighting pass, not just as a sample
/// support. Everything that does not depend on the query point — the
/// log weights, `h²` and the normalizer — is computed once per run.
struct CarriedKde<'a> {
    /// The carried particle set (sampled with its full weight vector).
    belief: &'a ParticleBelief,
    /// Kernel bandwidth for sampling.
    bandwidth: f64,
    /// The support points with positive weight…
    points: Vec<Vec2>,
    /// …and their log weights.
    log_weights: Vec<f64>,
    /// Squared bandwidth (floored at `1e-18`).
    h2: f64,
    /// `−ln(2π·h²)`, the 2-D kernel normalizer.
    log_norm: f64,
}

impl<'a> CarriedKde<'a> {
    fn new(belief: &'a ParticleBelief, bandwidth: f64) -> Self {
        let h2 = bandwidth.max(1e-9).powi(2);
        let (points, log_weights) = belief
            .particles()
            .iter()
            .zip(belief.weights())
            .filter(|&(_, &w)| w > 0.0)
            .map(|(&p, &w)| (p, w.ln()))
            .unzip();
        CarriedKde {
            belief,
            bandwidth,
            points,
            log_weights,
            h2,
            log_norm: -(std::f64::consts::TAU * h2).ln(),
        }
    }

    /// KDE log-density at `x`, log-sum-exp stabilized: one pass of
    /// log-kernels into `terms`, then one batched `exp`.
    fn log_density(&self, x: Vec2, terms: &mut Vec<f64>) -> f64 {
        terms.clear();
        let mut max_l = f64::NEG_INFINITY;
        for (&p, &lw) in self.points.iter().zip(&self.log_weights) {
            let l = lw - 0.5 * x.dist_sq(p) / self.h2;
            max_l = max_l.max(l);
            terms.push(l);
        }
        if max_l == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        for l in terms.iter_mut() {
            *l -= max_l;
        }
        exp_in_place(terms);
        let sum: f64 = terms.iter().sum();
        max_l + sum.ln() + self.log_norm
    }
}

impl EpochPrior<'_> {
    fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2 {
        match self {
            EpochPrior::Unary(u) => u.sample(rng),
            EpochPrior::Carried(kde) => {
                let idx = rng.weighted_index(kde.belief.weights()).unwrap_or(0);
                rng.gaussian_point(kde.belief.particles()[idx], kde.bandwidth)
            }
        }
    }

    /// Log prior density at `x`; `terms` holds the KDE's log-kernels.
    fn log_density(&self, x: Vec2, terms: &mut Vec<f64>) -> f64 {
        match self {
            EpochPrior::Unary(u) => u.log_density(x),
            EpochPrior::Carried(kde) => kde.log_density(x, terms),
        }
    }
}

/// Fraction of candidates proposed from the prior each iteration.
const PRIOR_FRACTION: f64 = 0.1;

/// Fraction of candidates proposed from neighbor rings.
const NEIGHBOR_FRACTION: f64 = 0.4;

/// Loopy belief propagation with particle beliefs.
#[derive(Debug, Clone, Copy)]
pub struct ParticleBp {
    /// Particles per free variable.
    pub particles: usize,
    /// Neighbor particles subsampled when evaluating mixture likelihoods
    /// (caps the O(particles × neighbors × mixture) inner loop). At
    /// least 1: a run panics on 0.
    pub mixture_samples: usize,
}

impl Default for ParticleBp {
    fn default() -> Self {
        ParticleBp {
            particles: 300,
            mixture_samples: 24,
        }
    }
}

impl ParticleBp {
    /// Engine with the given particle count and default proposal mix.
    pub fn with_particles(n: usize) -> Self {
        ParticleBp {
            particles: n,
            ..ParticleBp::default()
        }
    }
}

impl BpEngine for ParticleBp {
    type Belief = ParticleBelief;

    /// Under a fault plan, undelivered neighbor beliefs are replaced by
    /// held snapshots (their log-likelihood contribution discounted by
    /// `alpha`), never-received links drop out of the proposal/weighting
    /// mix, and dead nodes freeze. A carried particle set replaces the
    /// prior-sampled initial belief, and its KDE stands in for the unary
    /// in proposal refreshes and importance weights — the
    /// particle-filter predict/update recursion, with propagation and
    /// jitter applied by the caller before the run.
    fn run_carried<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: Option<&[ParticleBelief]>,
        obs: &dyn InferenceObserver,
        on_iter: F,
    ) -> RunOutcome<ParticleBelief>
    where
        F: FnMut(usize, &[ParticleBelief]),
    {
        assert!(self.particles > 0, "need at least one particle");
        assert!(
            self.mixture_samples > 0,
            "need at least one mixture sample per neighbor"
        );
        let init = || self.init(mrf, opts, warm);
        engine::drive(mrf, opts, transport, obs, init, on_iter)
    }
}

/// One particle run's update state.
struct ParticleRun<'a> {
    engine: ParticleBp,
    mrf: &'a SpatialMrf,
    /// Root of the per-iteration, per-node RNG streams.
    root: Xoshiro256pp,
    /// Per-node epoch priors.
    priors: Vec<EpochPrior<'a>>,
    /// Share of each node's old support kept by the resample.
    damping: f64,
}

impl NodeUpdate for ParticleRun<'_> {
    type Belief = ParticleBelief;

    const BACKEND: &'static str = "particle";

    fn update(&self, u: usize, iter: usize, inbox: &Inbox<'_, ParticleBelief>) -> ParticleBelief {
        // Per-iteration, per-node deterministic RNG streams.
        let iter_tag = (iter as u64 + 1) << 32;
        let mut rng = self.root.split(iter_tag | u as u64);
        self.engine
            .update_node(self.mrf, u, inbox, self.damping, &self.priors[u], &mut rng)
    }

    fn audit(
        audit: &DistributionAudit,
        context: &str,
        belief: &ParticleBelief,
    ) -> Result<(), ValidationError> {
        audit.check_particles(context, belief)
    }
}

impl ParticleBp {
    /// Initial beliefs and per-node epoch priors for one run: fixed vars
    /// are points, free vars take the carried belief, else sample their
    /// unary.
    fn init<'a>(
        &self,
        mrf: &'a SpatialMrf,
        opts: &BpOptions,
        warm: Option<&'a [ParticleBelief]>,
    ) -> (ParticleRun<'a>, Vec<ParticleBelief>) {
        let root = Xoshiro256pp::seed_from(opts.seed);
        let beliefs: Vec<ParticleBelief> = (0..mrf.len())
            .map(|u| match (mrf.fixed(u), warm) {
                (Some(p), _) => ParticleBelief::point(p),
                // Carried-over particle set, already propagated +
                // jittered by the caller. Skipping the init sampling is
                // safe for determinism because `split` derives, not
                // advances, the per-node streams.
                (None, Some(w)) => w[u].clone(),
                (None, None) => {
                    let mut rng = root.split(u as u64);
                    let pts: Vec<Vec2> = (0..self.particles)
                        .map(|_| mrf.unary(u).sample(&mut rng))
                        .collect();
                    ParticleBelief::from_points(pts)
                }
            })
            .collect();
        // Per-node epoch priors: carried beliefs shadow the unary for
        // free nodes; the KDE bandwidth matches the walk-jitter floor.
        let priors: Vec<EpochPrior<'a>> = (0..mrf.len())
            .map(|u| match warm {
                Some(w) if mrf.fixed(u).is_none() => EpochPrior::Carried(CarriedKde::new(
                    &w[u],
                    w[u].bandwidth(1e-3).max(mrf.domain().diagonal() * 1e-4),
                )),
                _ => EpochPrior::Unary(mrf.unary(u).as_ref()),
            })
            .collect();
        let run = ParticleRun {
            engine: *self,
            mrf,
            root,
            priors,
            damping: opts.damping,
        };
        (run, beliefs)
    }

    /// One SPAWN-style importance update of node `u`, against the
    /// neighbor beliefs `inbox` delivers. `prior` is the node's epoch
    /// prior — its unary on a cold start, the carried belief's KDE on a
    /// warm start. `damping` retains that share of the old support.
    fn update_node(
        &self,
        mrf: &SpatialMrf,
        u: usize,
        inbox: &Inbox<'_, ParticleBelief>,
        damping: f64,
        prior: &EpochPrior<'_>,
        rng: &mut Xoshiro256pp,
    ) -> ParticleBelief {
        let current = &inbox.beliefs()[u];
        let edges = mrf.edges_of(u);
        let n = self.particles;
        let domain = mrf.domain();

        // Neighbor context — delivered belief, potential, anchor position,
        // staleness discount — is invariant across the proposal and
        // weighting loops below; resolve it once per update instead of
        // per candidate. On the perfect transport the RNG call sequence
        // is untouched, so results stay bit-identical; under faults,
        // never-received links are filtered out here.
        let ctx: Vec<EdgeCtx<'_>> = edges
            .iter()
            .filter_map(|&e| {
                let d = inbox.receive(e, u)?;
                Some(EdgeCtx {
                    belief: d.belief,
                    potential: mrf.edges()[e].potential.as_ref(),
                    fixed: mrf.fixed(d.v),
                    alpha: d.alpha,
                })
            })
            .collect();

        // --- Proposal ---------------------------------------------------
        let n_prior = share(n, PRIOR_FRACTION);
        let n_neighbor = if ctx.is_empty() {
            0
        } else {
            share(n, NEIGHBOR_FRACTION)
        };
        let n_walk = n.saturating_sub(n_prior + n_neighbor);

        let mut candidates = Vec::with_capacity(n);
        // (a) jittered current particles — random walk exploitation.
        let jitter = (current.bandwidth(1e-3)).max(domain.diagonal() * 1e-4);
        for _ in 0..n_walk {
            let idx = rng.weighted_index(current.weights()).unwrap_or(0);
            candidates.push(rng.gaussian_point(current.particles()[idx], jitter));
        }
        // (b) neighbor-ring proposals.
        for _ in 0..n_neighbor {
            let c = &ctx[rng.index(ctx.len())];
            let anchor_point = match c.fixed {
                Some(p) => p,
                None => {
                    let nb = c.belief;
                    let idx = rng.weighted_index(nb.weights()).unwrap_or(0);
                    nb.particles()[idx]
                }
            };
            let d = c.potential.sample_distance(rng);
            let theta = rng.range(0.0, std::f64::consts::TAU);
            candidates.push(anchor_point + Vec2::from_angle(theta) * d);
        }
        // (c) prior refreshes.
        for _ in 0..n_prior {
            candidates.push(prior.sample(rng));
        }
        // Pad in the unlikely rounding shortfall.
        while candidates.len() < n {
            candidates.push(prior.sample(rng));
        }

        // --- Weighting ----------------------------------------------------
        let mut bufs = KernelBufs::default();
        let log_weights: Vec<f64> = candidates
            .iter()
            .map(|&x| {
                let mut lw = prior.log_density(x, &mut bufs.likelihoods);
                for c in &ctx {
                    // alpha == 1 multiplies exactly (IEEE), so the
                    // perfect path stays bit-identical.
                    lw += c.alpha * self.mixture_log_likelihood(x, c, rng, &mut bufs);
                }
                lw
            })
            .collect();

        let max_lw = log_weights
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = if max_lw == f64::NEG_INFINITY {
            vec![1.0; candidates.len()]
        } else {
            log_weights.iter().map(|lw| (lw - max_lw).exp()).collect()
        };

        let weighted = ParticleBelief::new(candidates, weights);

        // --- Resample (with damping: retain a slice of the old support) ---
        let keep_old = share(n, damping);
        let mut resampled = weighted.resampled(n - keep_old.min(n), rng);
        if keep_old > 0 {
            let old = current.resampled(keep_old, rng);
            let mut pts = resampled.particles.clone();
            pts.extend_from_slice(old.particles());
            resampled = ParticleBelief::from_points(pts);
        }
        resampled
    }

    /// `log Σ_k w_k ψ(‖x − y_k‖)` against a (subsampled) neighbor belief:
    /// the distances go to `bufs`, then one batched
    /// [`PairPotential::likelihoods`] call weighs them all.
    fn mixture_log_likelihood(
        &self,
        x: Vec2,
        edge: &EdgeCtx<'_>,
        rng: &mut Xoshiro256pp,
        bufs: &mut KernelBufs,
    ) -> f64 {
        if let Some(p) = edge.fixed {
            return edge.potential.log_likelihood(x.dist(p));
        }
        let (particles, weights) = (edge.belief.particles(), edge.belief.weights());
        let m = particles.len();
        let take = self.mixture_samples.min(m);
        let KernelBufs {
            distances,
            likelihoods,
        } = bufs;
        // Every particle, or a uniform-stride subsample with a random
        // phase, which keeps the estimate unbiased without per-candidate
        // index draws; `phase < stride` and `take · stride ≤ m`, so the
        // subsample never wraps.
        let (phase, stride) = if take == m {
            (0, 1)
        } else {
            let stride = m / take;
            (rng.index(stride), stride)
        };
        // `sqrt(dx² + dy²)`, not `Vec2::dist`'s libm `hypot`: positions
        // are bounded by the field, so the squares cannot overflow.
        distances.clear();
        distances.extend(
            particles[phase..]
                .iter()
                .step_by(stride)
                .take(take)
                .map(|&p| x.dist_sq(p).sqrt()),
        );
        likelihoods.resize(take, 0.0);
        edge.potential.likelihoods(distances, likelihoods);
        let (mut acc, mut total_w) = (0.0f64, 0.0f64);
        for (&w, &l) in weights[phase..]
            .iter()
            .step_by(stride)
            .zip(likelihoods.iter())
        {
            total_w += w;
            acc += w * l;
        }
        // A subsample's weights need not sum to one.
        if take < m && total_w > 0.0 {
            acc /= total_w;
        }
        acc.max(1e-300).ln()
    }
}

/// Per-update buffers for the weighting kernels, reused across every
/// candidate and neighbor of one node update.
#[derive(Default)]
struct KernelBufs {
    /// Candidate-to-particle distances of one mixture term.
    distances: Vec<f64>,
    /// Their likelihoods, or the carried KDE's log-kernel terms.
    likelihoods: Vec<f64>,
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
    fn belief_mean_and_weights() {
        let b = ParticleBelief::new(vec![Vec2::ZERO, Vec2::new(10.0, 0.0)], vec![1.0, 3.0]);
        assert!((b.mean().x - 7.5).abs() < 1e-12);
        assert!((b.weights()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_become_uniform() {
        let b = ParticleBelief::new(vec![Vec2::ZERO, Vec2::new(2.0, 0.0)], vec![0.0, 0.0]);
        assert!((b.weights()[0] - 0.5).abs() < 1e-12);
        assert!((b.mean().x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ess_detects_degeneracy() {
        let uniform = ParticleBelief::from_points(vec![Vec2::ZERO; 100]);
        assert!((uniform.effective_sample_size() - 100.0).abs() < 1e-9);
        let degenerate = ParticleBelief::new(
            vec![Vec2::ZERO; 100],
            std::iter::once(1.0)
                .chain(std::iter::repeat_n(1e-12, 99))
                .collect(),
        );
        assert!(degenerate.effective_sample_size() < 1.5);
    }

    #[test]
    fn resample_concentrates_on_heavy_particles() {
        let mut rng = Xoshiro256pp::seed_from(1);
        let b = ParticleBelief::new(vec![Vec2::ZERO, Vec2::new(50.0, 0.0)], vec![0.05, 0.95]);
        let r = b.resampled(1000, &mut rng);
        let heavy = r.particles().iter().filter(|p| p.x > 25.0).count();
        assert!((heavy as f64 / 1000.0 - 0.95).abs() < 0.03);
        // Resampled weights are uniform.
        assert!((r.weights()[0] - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_axis_spread() {
        let pts: Vec<Vec2> = (0..100).map(|i| Vec2::new(i as f64, 0.0)).collect();
        let b = ParticleBelief::from_points(pts);
        let cov = b.covariance();
        assert!(cov[(0, 0)] > 100.0);
        assert!(cov[(1, 1)].abs() < 1e-9);
        assert!(b.spread() > 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn empty_belief_panics() {
        let _ = ParticleBelief::new(vec![], vec![]);
    }

    fn random_belief(rng: &mut Xoshiro256pp, m: usize) -> ParticleBelief {
        let pts = (0..m)
            .map(|_| rng.point_in(Vec2::ZERO, Vec2::new(100.0, 100.0)))
            .collect();
        let ws = (0..m)
            .map(|k| if k % 5 == 3 { 0.0 } else { rng.f64() })
            .collect();
        ParticleBelief::new(pts, ws)
    }

    /// The mixture kernel as scalar code: `Vec2::dist` (libm `hypot`)
    /// and one `likelihood` call per term.
    fn reference_mixture(
        engine: &ParticleBp,
        x: Vec2,
        edge: &EdgeCtx<'_>,
        rng: &mut Xoshiro256pp,
    ) -> f64 {
        if let Some(p) = edge.fixed {
            return edge.potential.log_likelihood(x.dist(p));
        }
        let nb = edge.belief;
        let m = nb.len();
        let take = engine.mixture_samples.min(m);
        let mut acc = 0.0;
        if take == m {
            for (&p, &w) in nb.particles().iter().zip(nb.weights()) {
                acc += w * edge.potential.likelihood(x.dist(p));
            }
        } else {
            let stride = m / take;
            let phase = rng.index(stride);
            let mut total_w = 0.0;
            for k in 0..take {
                let idx = phase + k * stride;
                let w = nb.weights()[idx];
                total_w += w;
                acc += w * edge.potential.likelihood(x.dist(nb.particles()[idx]));
            }
            if total_w > 0.0 {
                acc /= total_w;
            }
        }
        acc.max(1e-300).ln()
    }

    /// The carried prior's KDE as a scalar two-pass log-sum-exp.
    fn reference_kde(belief: &ParticleBelief, x: Vec2, bandwidth: f64) -> f64 {
        let h2 = bandwidth.max(1e-9).powi(2);
        let terms: Vec<f64> = belief
            .particles()
            .iter()
            .zip(belief.weights())
            .filter(|&(_, &w)| w > 0.0)
            .map(|(&p, &w)| w.ln() - 0.5 * x.dist_sq(p) / h2)
            .collect();
        let max_l = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = terms.iter().map(|l| (l - max_l).exp()).sum();
        max_l + sum.ln() - (std::f64::consts::TAU * h2).ln()
    }

    #[test]
    fn batched_mixture_matches_scalar_reference() {
        let mut rng = Xoshiro256pp::seed_from(0x18);
        let potential = GaussianRange {
            observed: 35.0,
            sigma: 4.0,
        };
        let engine = ParticleBp::with_particles(50);
        let mut bufs = KernelBufs::default();
        // 100 and 50 particles take the strided branch (24 of them);
        // 24 and 7 take every particle.
        for m in [100, 50, 24, 7] {
            let belief = random_belief(&mut rng, m);
            for fixed in [None, Some(Vec2::new(30.0, 70.0))] {
                let edge = EdgeCtx {
                    belief: &belief,
                    potential: &potential,
                    fixed,
                    alpha: 1.0,
                };
                for _ in 0..40 {
                    let x = rng.point_in(Vec2::new(-20.0, -20.0), Vec2::new(120.0, 120.0));
                    let (mut a, mut b) = (rng.clone(), rng.clone());
                    let got = engine.mixture_log_likelihood(x, &edge, &mut a, &mut bufs);
                    let want = reference_mixture(&engine, x, &edge, &mut b);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "m {m}, fixed {fixed:?}, x {x}: batched {got} vs scalar {want}"
                    );
                    assert_eq!(a.next_u64(), b.next_u64(), "the RNG draws must match");
                    rng.next_u64();
                }
            }
        }
    }

    #[test]
    fn carried_prior_density_matches_scalar_reference() {
        let mut rng = Xoshiro256pp::seed_from(0x19);
        let mut terms = Vec::new();
        for m in [1, 13, 50] {
            let belief = random_belief(&mut rng, m);
            for bandwidth in [0.5, belief.bandwidth(1e-3)] {
                let kde = CarriedKde::new(&belief, bandwidth);
                for _ in 0..40 {
                    let x = rng.point_in(Vec2::ZERO, Vec2::new(100.0, 100.0));
                    let got = kde.log_density(x, &mut terms);
                    let want = reference_kde(&belief, x, bandwidth);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "m {m}, h {bandwidth}, x {x}: batched {got} vs scalar {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn carried_prior_density_is_normalized() {
        // Numerically integrate the KDE of a two-particle set on a grid.
        let belief = ParticleBelief::new(vec![Vec2::ZERO, Vec2::new(3.0, 1.0)], vec![1.0, 3.0]);
        let h = 0.7;
        let kde = CarriedKde::new(&belief, h);
        let mut terms = Vec::new();
        let (step, lo, hi) = (0.05, -6.0 * h, 3.0 + 6.0 * h);
        let n = ((hi - lo) / step) as usize;
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                let x = Vec2::new(lo + (i as f64 + 0.5) * step, lo + (j as f64 + 0.5) * step);
                acc += kde.log_density(x, &mut terms).exp() * step * step;
            }
        }
        assert!((acc - 1.0).abs() < 1e-3, "integral {acc}");
    }

    #[test]
    fn carried_prior_kernel_peaks_at_particle() {
        // A one-particle KDE is the bare kernel: it falls off with distance.
        let belief = ParticleBelief::from_points(vec![Vec2::ZERO]);
        let kde = CarriedKde::new(&belief, 1.0);
        let mut terms = Vec::new();
        let mut at = |x: f64| kde.log_density(Vec2::new(x, 0.0), &mut terms);
        let (peak, near, far) = (at(0.0), at(0.5), at(2.0));
        assert!(peak > near && near > far, "{peak} {near} {far}");
    }

    #[test]
    fn carried_prior_density_positive_and_peaked() {
        let belief = ParticleBelief::from_points(vec![Vec2::ZERO, Vec2::new(10.0, 0.0)]);
        let kde = CarriedKde::new(&belief, 1.0);
        let mut terms = Vec::new();
        let mut at = |x: f64| kde.log_density(Vec2::new(x, 0.0), &mut terms);
        let (peak, mid) = (at(0.0), at(5.0));
        assert!(peak > mid, "{peak} {mid}");
        assert!(mid.is_finite());
        // Weightless particles drop out of the density.
        let one = ParticleBelief::new(vec![Vec2::ZERO, Vec2::new(10.0, 0.0)], vec![1.0, 0.0]);
        let kde = CarriedKde::new(&one, 1.0);
        assert!(kde.log_density(Vec2::new(10.0, 0.0), &mut terms) < -40.0);
    }

    #[test]
    fn carried_prior_sampling_tracks_weights() {
        let belief = ParticleBelief::new(vec![Vec2::ZERO, Vec2::new(100.0, 0.0)], vec![0.2, 0.8]);
        let prior = EpochPrior::Carried(CarriedKde::new(&belief, 1.0));
        let mut rng = Xoshiro256pp::seed_from(7);
        let n = 20_000;
        let right = (0..n).filter(|_| prior.sample(&mut rng).x > 50.0).count();
        let frac = right as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "right fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one mixture sample")]
    fn zero_mixture_samples_panics() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(3, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(50.0, 50.0));
        for u in [1, 2] {
            mrf.add_edge(
                0,
                u,
                Arc::new(GaussianRange {
                    observed: 15.0,
                    sigma: 2.0,
                }),
            );
        }
        mrf.add_edge(
            1,
            2,
            Arc::new(GaussianRange {
                observed: 10.0,
                sigma: 2.0,
            }),
        );
        let engine = ParticleBp {
            particles: 50,
            mixture_samples: 0,
        };
        let _ = engine.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(2)
                .seed(1)
                .try_build()
                .expect("valid options"),
        );
    }

    #[test]
    fn bp_fuses_prior_and_anchor_ring() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(2, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(50.0, 50.0));
        mrf.set_unary(
            1,
            Arc::new(GaussianUnary {
                mean: Vec2::new(80.0, 50.0),
                sigma: 8.0,
            }),
        );
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 20.0,
                sigma: 2.0,
            }),
        );
        let engine = ParticleBp::with_particles(400);
        let (beliefs, outcome) = engine.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(15)
                .tolerance(0.3)
                .seed(42)
                .try_build()
                .expect("valid options"),
        );
        assert!(outcome.iterations >= 2);
        let est = beliefs[1].mean();
        assert!(est.dist(Vec2::new(70.0, 50.0)) < 5.0, "estimate {est}");
    }

    #[test]
    fn bp_trilateration_with_three_anchors() {
        let dom = domain();
        let truth = Vec2::new(40.0, 60.0);
        let anchors = [
            Vec2::new(10.0, 10.0),
            Vec2::new(90.0, 20.0),
            Vec2::new(50.0, 90.0),
        ];
        let mut mrf = SpatialMrf::new(4, dom, Arc::new(UniformBoxUnary(dom)));
        for (i, &a) in anchors.iter().enumerate() {
            mrf.fix(i, a);
            mrf.add_edge(
                i,
                3,
                Arc::new(GaussianRange {
                    observed: truth.dist(a),
                    sigma: 1.5,
                }),
            );
        }
        let engine = ParticleBp::with_particles(500);
        let (beliefs, _) = engine.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(12)
                .tolerance(0.2)
                .seed(7)
                .try_build()
                .expect("valid options"),
        );
        let est = beliefs[3].mean();
        assert!(est.dist(truth) < 4.0, "estimate {est} vs truth {truth}");
    }

    #[test]
    fn bp_cooperative_chain_localizes_middle_node() {
        // anchor — u1 — u2 — anchor: u1/u2 have no direct anchor pair
        // coverage; only cooperation localizes them along the chain.
        let dom = domain();
        let p = [
            Vec2::new(10.0, 50.0),
            Vec2::new(37.0, 50.0),
            Vec2::new(63.0, 50.0),
            Vec2::new(90.0, 50.0),
        ];
        let mut mrf = SpatialMrf::new(4, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, p[0]);
        mrf.fix(3, p[3]);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            mrf.add_edge(
                a,
                b,
                Arc::new(GaussianRange {
                    observed: p[a].dist(p[b]),
                    sigma: 1.0,
                }),
            );
        }
        let engine = ParticleBp::with_particles(600);
        let (beliefs, _) = engine.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(25)
                .tolerance(0.2)
                .seed(3)
                .try_build()
                .expect("valid options"),
        );
        // x coordinates should be recovered; y has a reflection ambiguity
        // mitigated only by the chain being collinear with the anchors.
        assert!(
            (beliefs[1].mean().x - 37.0).abs() < 6.0,
            "{}",
            beliefs[1].mean()
        );
        assert!(
            (beliefs[2].mean().x - 63.0).abs() < 6.0,
            "{}",
            beliefs[2].mean()
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
        let engine = ParticleBp::with_particles(200);
        let opts = BpOptions::builder()
            .max_iterations(5)
            .seed(99)
            .try_build()
            .expect("valid options");
        let (b1, _) = engine.run(&mrf, &opts);
        let (b2, _) = engine.run(&mrf, &opts);
        assert_eq!(b1[1], b2[1]);
    }

    #[test]
    fn sync_parallel_matches_itself_across_runs() {
        // The rayon path must not introduce scheduling nondeterminism.
        let dom = domain();
        let mut mrf = SpatialMrf::new(6, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(10.0, 10.0));
        mrf.fix(1, Vec2::new(90.0, 10.0));
        for u in 2..6 {
            mrf.add_edge(
                0,
                u,
                Arc::new(GaussianRange {
                    observed: 40.0,
                    sigma: 3.0,
                }),
            );
            mrf.add_edge(
                1,
                u,
                Arc::new(GaussianRange {
                    observed: 60.0,
                    sigma: 3.0,
                }),
            );
        }
        let engine = ParticleBp::with_particles(150);
        let opts = BpOptions::builder()
            .max_iterations(6)
            .seed(5)
            .try_build()
            .expect("valid options");
        let (b1, _) = engine.run(&mrf, &opts);
        let (b2, _) = engine.run(&mrf, &opts);
        for (x, y) in b1.iter().zip(&b2) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn damping_retains_old_support() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(2, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(50.0, 50.0));
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 10.0,
                sigma: 1.0,
            }),
        );
        let engine = ParticleBp::with_particles(100);
        let (b, _) = engine.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(3)
                .damping(0.5)
                .seed(11)
                .tolerance(0.0)
                .try_build()
                .expect("valid options"),
        );
        assert_eq!(b[1].len(), 100);
    }

    #[test]
    fn isolated_node_keeps_prior() {
        let dom = domain();
        let prior_mean = Vec2::new(25.0, 75.0);
        let mut mrf = SpatialMrf::new(1, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.set_unary(
            0,
            Arc::new(GaussianUnary {
                mean: prior_mean,
                sigma: 5.0,
            }),
        );
        let engine = ParticleBp::with_particles(300);
        let (b, _) = engine.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(4)
                .seed(2)
                .try_build()
                .expect("valid options"),
        );
        assert!(b[0].mean().dist(prior_mean) < 2.0);
    }
}
