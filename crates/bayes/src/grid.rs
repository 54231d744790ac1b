//! Grid-discretized beliefs and belief propagation.
//!
//! This is the literal "Bayesian network" formulation of the localization
//! model: the field is cut into `nx × ny` cells, each position variable
//! becomes a finite variable over cells, and loopy sum–product runs with
//! exact per-cell message products. Messages are *truncated kernel
//! scatters*: a neighbor's belief mass at cell `s` contributes
//! `belief(s) · ψ(‖c − s‖)` to every cell `c` within the potential's
//! support radius, so the cost per message is
//! `O(active source cells × kernel cells)` rather than `O(cells²)`.
//!
//! The scatter kernel lives in [`crate::stencil`]: each potential's table
//! is built once per run and scattered row by row, and the inner
//! accumulate dispatches to runtime-detected SIMD. Beliefs,
//! messages and tables are all `f64`.

use crate::engine::{self, BpEngine, Delivery, Inbox, NodeUpdate, RunOutcome};
use crate::mrf::{BpOptions, SpatialMrf};
use crate::potential::{PairPotential, UnaryPotential};
use crate::stencil::KernelStencil;
use crate::transport::Transport;
use crate::validate::{DistributionAudit, ValidationError};
use std::sync::Arc;
use wsnloc_geom::{Aabb, Matrix, Vec2};
use wsnloc_obs::{InferenceObserver, ObsEvent};

/// A probability mass function over the cells of a fixed grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridBelief {
    domain: Aabb,
    nx: usize,
    ny: usize,
    /// Cell masses, row-major by y then x, summing to 1.
    mass: Vec<f64>,
}

impl GridBelief {
    /// Uniform belief over the domain.
    pub fn uniform(domain: Aabb, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid must be non-empty");
        let cells = nx * ny;
        GridBelief {
            domain,
            nx,
            ny,
            mass: vec![1.0 / cells as f64; cells],
        }
    }

    /// Belief proportional to a unary potential evaluated at cell centers.
    /// Falls back to uniform when the potential has no mass on the grid.
    pub fn from_unary(potential: &dyn UnaryPotential, domain: Aabb, nx: usize, ny: usize) -> Self {
        let mut b = GridBelief::uniform(domain, nx, ny);
        // Evaluate in log space then exponentiate stably.
        let logs: Vec<f64> = (0..nx * ny)
            .map(|i| potential.log_density(b.cell_center(i)))
            .collect();
        let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if m == f64::NEG_INFINITY {
            return b; // no support on the grid: stay uniform
        }
        for (cell, &l) in b.mass.iter_mut().zip(&logs) {
            *cell = (l - m).exp();
        }
        b.normalize();
        b
    }

    /// A near-delta belief at `p` (all mass in the containing cell).
    pub fn delta(p: Vec2, domain: Aabb, nx: usize, ny: usize) -> Self {
        let mut b = GridBelief {
            domain,
            nx,
            ny,
            mass: vec![0.0; nx * ny],
        };
        let idx = b.cell_of(p);
        b.mass[idx] = 1.0;
        b
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The spatial domain.
    pub fn domain(&self) -> Aabb {
        self.domain
    }

    /// Cell masses (row-major, y-major ordering).
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    /// Cell side lengths `(dx, dy)`.
    pub fn cell_size(&self) -> (f64, f64) {
        (
            self.domain.width() / self.nx as f64,
            self.domain.height() / self.ny as f64,
        )
    }

    /// Center coordinate of flat cell index `i`.
    pub fn cell_center(&self, i: usize) -> Vec2 {
        let (dx, dy) = self.cell_size();
        let x = i % self.nx;
        let y = i / self.nx;
        Vec2::new(
            self.domain.min.x + (x as f64 + 0.5) * dx,
            self.domain.min.y + (y as f64 + 0.5) * dy,
        )
    }

    /// Flat index of the cell containing `p` (clamped into the grid).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float→cell index: `as isize` saturates (NaN to 0), and the clamp keeps the \
                  cell on the grid"
    )]
    pub fn cell_of(&self, p: Vec2) -> usize {
        let (dx, dy) = self.cell_size();
        let x = (((p.x - self.domain.min.x) / dx) as isize).clamp(0, self.nx as isize - 1);
        let y = (((p.y - self.domain.min.y) / dy) as isize).clamp(0, self.ny as isize - 1);
        y as usize * self.nx + x as usize
    }

    fn normalize(&mut self) {
        let total: f64 = self.mass.iter().sum();
        if total > 0.0 && total.is_finite() {
            for m in &mut self.mass {
                *m /= total;
            }
        } else {
            let cells = self.mass.len();
            self.mass.fill(1.0 / cells as f64);
        }
    }

    /// Pointwise product with another mass function on the same grid,
    /// renormalized; annihilation (zero overlap) falls back to uniform.
    pub fn product(&mut self, other: &[f64]) {
        assert_eq!(other.len(), self.mass.len(), "grid shape mismatch");
        for (m, &o) in self.mass.iter_mut().zip(other) {
            *m *= o;
        }
        self.normalize();
    }

    /// MMSE point estimate: the belief mean.
    pub fn mean(&self) -> Vec2 {
        let mut acc = Vec2::ZERO;
        for (i, &m) in self.mass.iter().enumerate() {
            acc += self.cell_center(i) * m;
        }
        acc
    }

    /// MAP point estimate: center of the highest-mass cell.
    pub fn map_estimate(&self) -> Vec2 {
        let idx = self
            .mass
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        self.cell_center(idx)
    }

    /// Covariance matrix of the belief (2×2).
    pub fn covariance(&self) -> Matrix {
        let mean = self.mean();
        let mut cov = Matrix::zeros(2, 2);
        for (i, &m) in self.mass.iter().enumerate() {
            let d = self.cell_center(i) - mean;
            cov[(0, 0)] += m * d.x * d.x;
            cov[(0, 1)] += m * d.x * d.y;
            cov[(1, 1)] += m * d.y * d.y;
        }
        cov[(1, 0)] = cov[(0, 1)];
        cov
    }

    /// RMS spread: `sqrt(trace(cov))` — a scalar position uncertainty.
    pub fn spread(&self) -> f64 {
        self.covariance().trace().sqrt()
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        -self
            .mass
            .iter()
            .filter(|&&m| m > 0.0)
            .map(|&m| m * m.ln())
            .sum::<f64>()
    }

    /// Total-variation-style L1 distance to another belief on the same grid
    /// (in `[0, 2]`).
    pub fn l1_distance(&self, other: &GridBelief) -> f64 {
        assert_eq!(self.mass.len(), other.mass.len(), "grid shape mismatch");
        self.mass
            .iter()
            .zip(&other.mass)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// KL divergence `KL(self ‖ other)` in nats, on the same grid.
    ///
    /// Cells where `self` carries no mass contribute nothing; cells where
    /// `self` has mass but `other` does not are evaluated against a 1e-300
    /// floor rather than returning infinity, so the result stays finite and
    /// summarizable for convergence curves.
    pub fn kl_divergence(&self, other: &GridBelief) -> f64 {
        assert_eq!(self.mass.len(), other.mass.len(), "grid shape mismatch");
        self.mass
            .iter()
            .zip(&other.mass)
            .filter(|(&p, _)| p > 0.0)
            .map(|(&p, &q)| p * (p.ln() - q.max(1e-300).ln()))
            .sum::<f64>()
            .max(0.0)
    }

    /// Motion-model predict step on the cell array: a separable
    /// truncated-Gaussian blur of `sigma` meters along each axis — the
    /// discrete convolution with the isotropic process noise
    /// `N(0, sigma² I)`. The result is renormalized; a sigma of zero
    /// leaves the belief untouched.
    #[must_use]
    pub fn predicted(&self, sigma: f64) -> GridBelief {
        let mut out = self.clone();
        let (dx, dy) = self.cell_size();
        blur_axis(&mut out.mass, self.nx, self.ny, sigma / dx, true);
        blur_axis(&mut out.mass, self.nx, self.ny, sigma / dy, false);
        out.normalize();
        out
    }
}

/// One pass of a separable truncated-Gaussian blur along the x (row)
/// or y (column) axis, with `sigma` in cell units. Kernel support is
/// truncated at 3σ and renormalized, so mass never leaks off the grid
/// edges asymmetrically. A sub-cell sigma is a no-op. The support is
/// also clamped to the axis length − 1, the furthest reachable offset,
/// so a huge (but finite) sigma cannot ask for an unbounded kernel.
#[expect(
    clippy::cast_possible_truncation,
    reason = "blur kernel radius: sigma is checked finite and positive above, once per blur pass"
)]
fn blur_axis(mass: &mut [f64], nx: usize, ny: usize, sigma: f64, along_x: bool) {
    if sigma <= 1e-6 || !sigma.is_finite() {
        return;
    }
    let len = if along_x { nx } else { ny };
    let radius = ((3.0 * sigma).ceil() as usize).max(1);
    let radius = radius.min(len.saturating_sub(1));
    let kernel: Vec<f64> = (0..=radius)
        .map(|k| (-0.5 * (k as f64 / sigma).powi(2)).exp())
        .collect();
    let out: Vec<f64> = (0..mass.len())
        .map(|i| {
            let (x, y) = (i % nx, i / nx);
            let pos = if along_x { x } else { y };
            let mut acc = 0.0;
            let mut norm = 0.0;
            let lo = pos.saturating_sub(radius);
            let hi = (pos + radius).min(len - 1);
            for q in lo..=hi {
                let w = kernel[q.abs_diff(pos)];
                let j = if along_x { y * nx + q } else { q * nx + x };
                acc += w * mass[j];
                norm += w;
            }
            if norm > 0.0 {
                acc / norm
            } else {
                mass[i]
            }
        })
        .collect();
    mass.copy_from_slice(&out);
}

impl crate::engine::Belief for GridBelief {
    const SUPPORTS_MAP: bool = true;

    fn mean(&self) -> Vec2 {
        GridBelief::mean(self)
    }

    fn spread(&self) -> f64 {
        GridBelief::spread(self)
    }

    fn map_estimate(&self) -> Option<Vec2> {
        Some(GridBelief::map_estimate(self))
    }
}

/// Guard against total annihilation downstream: a zero or non-finite
/// message total is replaced by a flat message. Returns whether the
/// fallback fired (callers surface it as
/// [`ObsEvent::GridUniformFallback`]).
fn finalize_message(msg: &mut [f64]) -> bool {
    let total: f64 = msg.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        msg.fill(1.0);
        true
    } else {
        false
    }
}

/// Staleness tempering `m^alpha` per positive cell; `alpha ≥ 1` is the
/// identity and a negative `alpha` acts as 0.
fn temper_message(msg: &mut [f64], alpha: f64) {
    if alpha >= 1.0 {
        return;
    }
    let a = alpha.max(0.0);
    for m in msg.iter_mut() {
        if *m > 0.0 {
            *m = m.powf(a);
        }
    }
}

/// Damped belief blend `new = (1 − d)·new + d·old`, renormalized.
fn damp(new: &mut GridBelief, old: &GridBelief, damping: f64) {
    let keep = 1.0 - damping;
    for (n, &o) in new.mass.iter_mut().zip(&old.mass) {
        *n = keep * *n + damping * o;
    }
    new.normalize();
}

/// Message from a *fixed* (anchor) source: the potential evaluated against
/// the known position. Returns the message and whether the uniform
/// fallback fired.
fn point_message(
    target_shape: &GridBelief,
    source_pos: Vec2,
    potential: &dyn PairPotential,
) -> (Vec<f64>, bool) {
    let mut msg: Vec<f64> = (0..target_shape.mass.len())
        .map(|t| potential.likelihood(target_shape.cell_center(t).dist(source_pos)))
        .collect();
    let collapsed = finalize_message(&mut msg);
    (msg, collapsed)
}

/// How one edge's message reaches its free endpoint.
enum EdgeMessage {
    /// Exactly one endpoint is fixed: the message into the free one,
    /// computed once in the fixed→free direction.
    Anchor(Vec<f64>),
    /// Both endpoints are free: an index into [`MessageCache::stencils`],
    /// scattered from the sender's belief in every update.
    Kernel(usize),
    /// Both endpoints are fixed: no update reads the edge.
    Inert,
}

/// Iteration-invariant message state, built once per run.
///
/// Three quantities never change across BP iterations: the prior-derived
/// initial beliefs (unary potentials don't change), the anchor messages
/// (fixed positions don't move), and the kernel tables of the pair
/// potentials (on a regular grid a pair likelihood depends only on the
/// cell offset). All three are built before the iteration loop.
struct MessageCache {
    /// Initial beliefs: priors for free variables, deltas for fixed ones.
    init: Vec<GridBelief>,
    /// Per-edge message source, indexed like [`SpatialMrf::edges`].
    edges: Vec<EdgeMessage>,
    /// Deduplicated stencils: edges sharing a potential (by `Arc`
    /// identity) share one entry.
    stencils: Vec<KernelStencil>,
}

impl MessageCache {
    #[expect(
        clippy::disallowed_types,
        reason = "Arc-pointer-identity memo: entry() lookup only, never iterated, and pointer \
                  keys have no stable order for a BTreeMap to expose"
    )]
    fn build(mrf: &SpatialMrf, shape: &GridBelief, obs: &dyn InferenceObserver) -> MessageCache {
        let (domain, nx, ny) = (shape.domain, shape.nx, shape.ny);
        let init: Vec<GridBelief> = (0..mrf.len())
            .map(|u| match mrf.fixed(u) {
                Some(p) => GridBelief::delta(p, domain, nx, ny),
                None => GridBelief::from_unary(mrf.unary(u).as_ref(), domain, nx, ny),
            })
            .collect();
        let (dx, dy) = shape.cell_size();
        let mut stencils: Vec<KernelStencil> = Vec::new();
        let mut by_potential: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut edges = Vec::with_capacity(mrf.edges().len());
        for (e, edge) in mrf.edges().iter().enumerate() {
            edges.push(match (mrf.fixed(edge.u), mrf.fixed(edge.v)) {
                (Some(p), None) | (None, Some(p)) => {
                    let (msg, collapsed) = point_message(shape, p, edge.potential.as_ref());
                    if collapsed {
                        obs.on_event(&ObsEvent::GridUniformFallback {
                            edge: e,
                            stage: "point",
                        });
                    }
                    EdgeMessage::Anchor(msg)
                }
                (None, None) => {
                    let key = Arc::as_ptr(&edge.potential) as *const () as usize;
                    EdgeMessage::Kernel(*by_potential.entry(key).or_insert_with(|| {
                        stencils.push(KernelStencil::build(
                            edge.potential.as_ref(),
                            nx,
                            ny,
                            dx,
                            dy,
                        ));
                        stencils.len() - 1
                    }))
                }
                (Some(_), Some(_)) => EdgeMessage::Inert,
            });
        }
        MessageCache {
            init,
            edges,
            stencils,
        }
    }
}

/// Source cells below this mass, scaled by 1/cells, are skipped when
/// scattering messages (a speed/accuracy trade-off).
const MASS_FLOOR: f64 = 1e-4;

/// Loopy belief propagation with grid-discretized beliefs.
#[derive(Debug, Clone, Copy)]
pub struct GridBp {
    nx: usize,
    ny: usize,
}

impl GridBp {
    /// Engine with an `n × n` grid.
    pub fn with_resolution(n: usize) -> Self {
        GridBp { nx: n, ny: n }
    }

    /// Initial beliefs and update state for one run at this engine's
    /// resolution. The iteration-invariant pieces (priors, anchor
    /// messages, kernel stencils) are built here, once.
    fn init<'a>(
        &self,
        mrf: &'a SpatialMrf,
        opts: &BpOptions,
        warm: Option<&'a [GridBelief]>,
        obs: &'a dyn InferenceObserver,
    ) -> (GridRun<'a>, Vec<GridBelief>) {
        let shape = GridBelief::uniform(mrf.domain(), self.nx, self.ny);
        let run = GridRun {
            mrf,
            floor: MASS_FLOOR / (self.nx * self.ny) as f64,
            damping: opts.damping,
            cache: MessageCache::build(mrf, &shape, obs),
            shape,
            warm,
            obs,
        };
        // Every node starts from its update base.
        let beliefs = (0..mrf.len()).map(|u| run.base_belief(u).clone()).collect();
        (run, beliefs)
    }
}

/// One grid run's update state.
struct GridRun<'a> {
    mrf: &'a SpatialMrf,
    /// Source cells below this mass are skipped when scattering.
    floor: f64,
    /// Fraction of the old belief blended into each update.
    damping: f64,
    /// The run's grid, as a uniform belief: the shape a carried belief
    /// must match.
    shape: GridBelief,
    cache: MessageCache,
    /// Carried beliefs that replace the prior-derived update base.
    warm: Option<&'a [GridBelief]>,
    obs: &'a dyn InferenceObserver,
}

impl GridRun<'_> {
    /// Whether `b` can stand in for free node `u`'s belief: same grid
    /// shape (fixed nodes always keep their delta).
    fn matches(&self, u: usize, b: &GridBelief) -> bool {
        self.mrf.fixed(u).is_none()
            && b.nx == self.shape.nx
            && b.ny == self.shape.ny
            && b.domain == self.shape.domain
    }

    /// The per-node base belief every update product starts from: a
    /// warm carried belief shadows the prior-derived initial belief.
    fn base_belief(&self, u: usize) -> &GridBelief {
        self.warm
            .and_then(|w| w.get(u))
            .filter(|b| self.matches(u, b))
            .unwrap_or(&self.cache.init[u])
    }
}

impl NodeUpdate for GridRun<'_> {
    type Belief = GridBelief;

    const BACKEND: &'static str = "grid";

    const SNAPSHOT_RESIDUALS: bool = true;

    fn update(&self, u: usize, _iter: usize, inbox: &Inbox<'_, GridBelief>) -> GridBelief {
        let mut bel = self.base_belief(u).clone();
        // Message scratch, reused across edges.
        let mut msg: Vec<f64> = Vec::new();
        for &e in self.mrf.edges_of(u) {
            // Never-received links contribute nothing; held content is
            // tempered by its staleness discount `alpha`.
            let Some(Delivery {
                belief: source,
                alpha,
                ..
            }) = inbox.receive(e, u)
            else {
                continue;
            };
            match &self.cache.edges[e] {
                // Cached once per run; its fallback, if any, was reported
                // at build time.
                EdgeMessage::Anchor(am) => {
                    if alpha < 1.0 {
                        msg.clear();
                        msg.extend_from_slice(am);
                        temper_message(&mut msg, alpha);
                        bel.product(&msg);
                    } else {
                        bel.product(am);
                    }
                }
                EdgeMessage::Kernel(k) => {
                    msg.clear();
                    msg.resize(bel.mass.len(), 0.0);
                    self.cache.stencils[*k].scatter(
                        &source.mass,
                        self.shape.nx,
                        self.floor,
                        &mut msg,
                    );
                    if finalize_message(&mut msg) {
                        self.obs.on_event(&ObsEvent::GridUniformFallback {
                            edge: e,
                            stage: "kernel",
                        });
                    }
                    temper_message(&mut msg, alpha);
                    bel.product(&msg);
                }
                EdgeMessage::Inert => {}
            }
        }
        if self.damping > 0.0 {
            damp(&mut bel, &inbox.beliefs()[u], self.damping);
        }
        bel
    }

    /// L1 mass distance and KL divergence from the pre-update snapshot.
    fn residual(old: Option<&GridBelief>, new: &GridBelief, prev_mean: Vec2) -> (f64, Option<f64>) {
        match old {
            Some(old) => (new.l1_distance(old), Some(new.kl_divergence(old))),
            None => (new.mean().dist(prev_mean), None),
        }
    }

    fn audit(
        audit: &DistributionAudit,
        context: &str,
        belief: &GridBelief,
    ) -> Result<(), ValidationError> {
        audit.check_grid(context, belief)
    }
}

impl BpEngine for GridBp {
    type Belief = GridBelief;

    fn backend_name(&self) -> &'static str {
        GridRun::BACKEND
    }

    /// Under a fault plan, undelivered messages fall back per the plan's
    /// drop policy (stale held messages are tempered as `m^α`),
    /// never-received links contribute nothing, and dead nodes freeze. A
    /// carried belief (same grid shape) seeds its free node's initial
    /// belief and replaces the prior-derived base belief inside every
    /// update product, so a carried posterior acts as this epoch's prior
    /// instead of re-applying the pre-knowledge unary it already
    /// absorbed.
    fn run_carried<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: Option<&[GridBelief]>,
        obs: &dyn InferenceObserver,
        on_iter: F,
    ) -> RunOutcome<GridBelief>
    where
        F: FnMut(usize, &[GridBelief]),
    {
        let init = || self.init(mrf, opts, warm, obs);
        engine::drive(mrf, opts, transport, obs, init, on_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrf::Schedule;
    use crate::potential::{GaussianRange, GaussianUnary, UniformBoxUnary};
    use std::sync::Arc;

    fn domain() -> Aabb {
        Aabb::from_size(100.0, 100.0)
    }

    #[test]
    fn uniform_belief_properties() {
        let b = GridBelief::uniform(domain(), 10, 10);
        assert!((b.mass().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(b.mean().dist(Vec2::new(50.0, 50.0)) < 1e-9);
        assert!((b.entropy() - (100f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn cell_roundtrip() {
        let b = GridBelief::uniform(domain(), 20, 10);
        for i in [0, 7, 99, 150, 199] {
            let c = b.cell_center(i);
            assert_eq!(b.cell_of(c), i, "roundtrip failed for {i}");
        }
        // Out-of-domain points clamp.
        assert_eq!(b.cell_of(Vec2::new(-50.0, -50.0)), 0);
        assert_eq!(b.cell_of(Vec2::new(500.0, 500.0)), 199);
    }

    #[test]
    fn from_unary_concentrates_gaussian() {
        let g = GaussianUnary {
            mean: Vec2::new(30.0, 70.0),
            sigma: 5.0,
        };
        let b = GridBelief::from_unary(&g, domain(), 50, 50);
        assert!(b.mean().dist(g.mean) < 2.0);
        assert!(b.map_estimate().dist(g.mean) < 2.0);
        assert!(b.spread() < 10.0);
    }

    #[test]
    fn delta_belief_has_single_cell() {
        let b = GridBelief::delta(Vec2::new(10.0, 10.0), domain(), 10, 10);
        assert_eq!(b.mass().iter().filter(|&&m| m > 0.0).count(), 1);
        assert!(b.mean().dist(Vec2::new(10.0, 10.0)) < 10.0); // within a cell
        assert_eq!(b.spread(), 0.0);
    }

    #[test]
    fn product_concentrates() {
        let mut a = GridBelief::from_unary(
            &GaussianUnary {
                mean: Vec2::new(40.0, 50.0),
                sigma: 10.0,
            },
            domain(),
            40,
            40,
        );
        let b = GridBelief::from_unary(
            &GaussianUnary {
                mean: Vec2::new(60.0, 50.0),
                sigma: 10.0,
            },
            domain(),
            40,
            40,
        );
        let spread_before = a.spread();
        a.product(b.mass());
        // Product of two Gaussians sits between the means with less spread.
        assert!(a.mean().dist(Vec2::new(50.0, 50.0)) < 3.0);
        assert!(a.spread() < spread_before);
    }

    #[test]
    fn product_annihilation_falls_back_to_uniform() {
        let mut a = GridBelief::delta(Vec2::new(5.0, 5.0), domain(), 10, 10);
        let b = GridBelief::delta(Vec2::new(95.0, 95.0), domain(), 10, 10);
        a.product(b.mass());
        // No overlap: uniform fallback keeps inference alive.
        assert!((a.mass().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(a.entropy() > 4.0);
    }

    #[test]
    fn covariance_of_elongated_belief() {
        // Mass along a horizontal line: var(x) >> var(y).
        let mut b = GridBelief::uniform(domain(), 20, 20);
        let mut mass = vec![0.0; 400];
        for x in 0..20 {
            mass[10 * 20 + x] = 1.0;
        }
        b.mass.copy_from_slice(&mass);
        b.normalize();
        let cov = b.covariance();
        assert!(cov[(0, 0)] > 100.0 * cov[(1, 1)].max(1e-12));
    }

    /// Three nodes on a line: anchor(10,50) — u1 — anchor(90,50), ranges 40
    /// each. Posterior for u1 should sit near (50,50).
    #[test]
    fn bp_trilaterates_between_anchors() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(3, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(10.0, 50.0));
        mrf.fix(2, Vec2::new(90.0, 50.0));
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 40.0,
                sigma: 3.0,
            }),
        );
        mrf.add_edge(
            1,
            2,
            Arc::new(GaussianRange {
                observed: 40.0,
                sigma: 3.0,
            }),
        );
        let (beliefs, outcome) = GridBp::with_resolution(40).run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(10)
                .tolerance(0.5)
                .try_build()
                .expect("valid options"),
        );
        assert!(outcome.iterations >= 1);
        let est = beliefs[1].mean();
        // Ring intersection is symmetric about y = 50; x pinned near 50.
        assert!((est.x - 50.0).abs() < 5.0, "x estimate {est}");
    }

    /// A node with a Gaussian prior and one anchor range: the posterior mean
    /// should move from the prior mean toward the ring around the anchor.
    #[test]
    fn bp_fuses_prior_with_measurement() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(2, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(50.0, 50.0));
        mrf.set_unary(
            1,
            Arc::new(GaussianUnary {
                mean: Vec2::new(80.0, 50.0),
                sigma: 10.0,
            }),
        );
        // Measured distance 20 from the central anchor.
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 20.0,
                sigma: 2.0,
            }),
        );
        let (beliefs, _) = GridBp::with_resolution(50).run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(5)
                .tolerance(0.5)
                .try_build()
                .expect("valid options"),
        );
        let est = beliefs[1].mean();
        // Posterior concentrates near (70, 50): on the ring, pulled toward
        // the prior side.
        assert!(est.dist(Vec2::new(70.0, 50.0)) < 6.0, "estimate {est}");
    }

    #[test]
    fn sweep_schedule_matches_sync_approximately() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(3, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(20.0, 20.0));
        mrf.fix(2, Vec2::new(80.0, 80.0));
        let d = Vec2::new(20.0, 20.0).dist(Vec2::new(50.0, 50.0));
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: d,
                sigma: 3.0,
            }),
        );
        mrf.add_edge(
            1,
            2,
            Arc::new(GaussianRange {
                observed: d,
                sigma: 3.0,
            }),
        );
        let run = |schedule| {
            GridBp::with_resolution(40)
                .run(
                    &mrf,
                    &BpOptions::builder()
                        .max_iterations(8)
                        .tolerance(0.5)
                        .schedule(schedule)
                        .try_build()
                        .expect("valid options"),
                )
                .0[1]
                .mean()
        };
        let sync = run(Schedule::Synchronous);
        let sweep = run(Schedule::Sweep);
        assert!(sync.dist(sweep) < 8.0, "sync {sync} sweep {sweep}");
    }

    #[test]
    fn observer_sees_every_iteration() {
        let dom = domain();
        let mut mrf = SpatialMrf::new(2, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(50.0, 50.0));
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 10.0,
                sigma: 2.0,
            }),
        );
        let mut seen = Vec::new();
        let outcome = GridBp::with_resolution(20)
            .run_carried(
                &mrf,
                &BpOptions::builder()
                    .max_iterations(4)
                    .tolerance(0.0) // never converge early
                    .try_build()
                    .expect("valid options"),
                &Transport::perfect(),
                None,
                &wsnloc_obs::NullObserver,
                |iter, beliefs| {
                    seen.push((iter, beliefs.len()));
                },
            )
            .bp;
        assert_eq!(outcome.iterations, 4);
        assert!(!outcome.converged);
        assert_eq!(seen, vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
        assert_eq!(outcome.messages, 4);
    }

    #[test]
    fn normalize_replicates_grid_belief_semantics() {
        let mut b = GridBelief::uniform(domain(), 3, 1);
        b.mass.copy_from_slice(&[1.0, 3.0, 4.0]);
        b.normalize();
        assert_eq!(b.mass(), [1.0 / 8.0, 3.0 / 8.0, 4.0 / 8.0]);
        // Zero total: uniform fallback.
        let mut z = GridBelief::uniform(domain(), 2, 2);
        z.mass.fill(0.0);
        z.normalize();
        assert_eq!(z.mass(), [0.25; 4]);
        // Non-finite total: uniform fallback.
        let mut nan = GridBelief::uniform(domain(), 2, 1);
        nan.mass.copy_from_slice(&[f64::NAN, 1.0]);
        nan.normalize();
        assert_eq!(nan.mass(), [0.5, 0.5]);
    }

    #[test]
    fn finalize_flags_collapse() {
        let mut ok = vec![0.0f64, 2.0];
        assert!(!finalize_message(&mut ok));
        let mut dead = vec![0.0f64, 0.0];
        assert!(finalize_message(&mut dead));
        assert_eq!(dead, vec![1.0, 1.0]);
    }

    #[test]
    fn temper_flattens_toward_one() {
        let mut m = vec![0.25f64, 0.0, 1.0];
        temper_message(&mut m, 0.5);
        assert_eq!(m, vec![0.5, 0.0, 1.0]);
        let mut id = vec![0.25f64];
        temper_message(&mut id, 1.0);
        assert_eq!(id, vec![0.25]);
    }

    #[test]
    fn l1_distance_bounds() {
        let a = GridBelief::delta(Vec2::new(5.0, 5.0), domain(), 10, 10);
        let b = GridBelief::delta(Vec2::new(95.0, 95.0), domain(), 10, 10);
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-12);
        assert_eq!(a.l1_distance(&a), 0.0);
    }

    #[test]
    fn kl_divergence_properties() {
        let uniform = GridBelief::uniform(domain(), 10, 10);
        let peaked = GridBelief::from_unary(
            &GaussianUnary {
                mean: Vec2::new(50.0, 50.0),
                sigma: 5.0,
            },
            domain(),
            10,
            10,
        );
        // Self-divergence is zero; divergence from a different belief is
        // positive and finite, even against zero-mass cells.
        assert_eq!(peaked.kl_divergence(&peaked), 0.0);
        assert!(peaked.kl_divergence(&uniform) > 0.0);
        let delta = GridBelief::delta(Vec2::new(5.0, 5.0), domain(), 10, 10);
        let kl = peaked.kl_divergence(&delta);
        assert!(kl.is_finite() && kl > 0.0);
    }
}
