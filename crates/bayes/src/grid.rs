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
//! The scatter kernel lives in [`crate::stencil`]: each free–free edge's
//! table is built once per run, and each message is one register-grouped
//! scatter dispatched to runtime-detected SIMD. Beliefs, messages and
//! tables are all `f64`.
//!
//! **Cost follows the mass.** Every [`GridBelief`] carries a private
//! support box, and every cell outside it holds exactly `+0.0`. A
//! kernel message's window is the sender's above-floor box grown by the
//! stencil radii; the product zeroes the receiving box's cells outside
//! that window and shrinks the box to the overlap. Normalization,
//! message totals, tempering, damping (over the union of both boxes),
//! `mean`, `covariance` and the residuals run over the box only, in
//! row-major order. That leaves every result bit-identical to the same
//! pass over the whole grid: each pass is a left-to-right row-major fold
//! or an elementwise operation, a skipped cell holds `+0.0`, and adding
//! `+0.0` to a sum or multiplying it by a finite factor changes nothing.
//! Every fallback (a zero or non-finite total becoming uniform) resets
//! the box to the whole grid, as it writes every cell.

use crate::engine::{self, BpEngine, Delivery, Inbox, NodeUpdate, RunOutcome};
use crate::mrf::{BpOptions, SpatialMrf};
use crate::potential::{PairPotential, UnaryPotential};
use crate::stencil::{scatters, CellBox, KernelStencil, Message};
use crate::transport::Transport;
use crate::validate::{DistributionAudit, ValidationError};
use rayon::prelude::*;
use wsnloc_geom::{Aabb, Matrix, Vec2};
use wsnloc_obs::{InferenceObserver, ObsEvent};

/// A probability mass function over the cells of a fixed grid.
///
/// Equality compares the domain, the shape and the cell masses.
#[derive(Debug, Clone)]
pub struct GridBelief {
    domain: Aabb,
    nx: usize,
    ny: usize,
    /// Cell masses, row-major by y then x, summing to 1.
    mass: Vec<f64>,
    /// Every cell outside this box holds exactly `+0.0`.
    support: CellBox,
}

impl PartialEq for GridBelief {
    fn eq(&self, other: &Self) -> bool {
        self.domain == other.domain
            && self.nx == other.nx
            && self.ny == other.ny
            && self.mass == other.mass
    }
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
            support: CellBox::full(nx, ny),
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
            support: CellBox::EMPTY,
        };
        let idx = b.cell_of(p);
        b.mass[idx] = 1.0;
        b.support = CellBox::cell(idx % nx, idx / nx);
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

    /// The support box: every cell outside it holds exactly `+0.0`.
    pub(crate) fn support(&self) -> CellBox {
        self.support
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

    /// The support box's cells, row by row, with their flat indices.
    fn support_cells(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (nx, x0) = (self.nx, self.support.x0);
        self.support
            .rows(&self.mass, nx)
            .flat_map(move |(y, row)| (y * nx + x0..).zip(row.iter().copied()))
    }

    /// Scales the box to sum 1, summing it in row-major order; a zero or
    /// non-finite total makes the whole grid uniform.
    fn normalize(&mut self) {
        let total: f64 = self.support_cells().map(|(_, m)| m).sum();
        if total > 0.0 && total.is_finite() {
            for (_, row) in self.support.rows_mut(&mut self.mass, self.nx) {
                for m in row {
                    *m /= total;
                }
            }
        } else {
            let cells = self.mass.len();
            self.mass.fill(1.0 / cells as f64);
            self.support = CellBox::full(self.nx, self.ny);
        }
    }

    /// Pointwise product with another mass function on the same grid,
    /// renormalized; annihilation (zero overlap) falls back to uniform.
    pub fn product(&mut self, other: &[f64]) {
        assert_eq!(other.len(), self.mass.len(), "grid shape mismatch");
        for (m, &o) in self.mass.iter_mut().zip(other) {
            *m *= o;
        }
        self.support = CellBox::full(self.nx, self.ny);
        self.normalize();
    }

    /// The product with message `msg` tempered as `msg^alpha`,
    /// renormalized: [`GridBelief::product`] with a message that is 0
    /// outside its window. Box cells outside the window become 0 and the
    /// box shrinks to the overlap, so only the overlap is multiplied.
    fn absorb(&mut self, msg: &Message<'_>, alpha: f64) {
        let keep = self.support.intersect(msg.window);
        let x0 = self.support.x0;
        for (y, row) in self.support.rows_mut(&mut self.mass, self.nx) {
            if !(keep.y0..keep.y1).contains(&y) {
                row.fill(0.0);
                continue;
            }
            let (lo, hi) = (keep.x0 - x0, keep.x1 - x0);
            row[..lo].fill(0.0);
            row[hi..].fill(0.0);
            let factors = msg.row(y, keep.x0, keep.x1);
            if alpha >= 1.0 {
                for (m, &o) in row[lo..hi].iter_mut().zip(factors) {
                    *m *= o;
                }
            } else {
                for (m, &o) in row[lo..hi].iter_mut().zip(factors) {
                    *m *= tempered(o, alpha);
                }
            }
        }
        self.support = keep;
        self.normalize();
    }

    /// Point estimate: the belief mean.
    pub fn mean(&self) -> Vec2 {
        let mut acc = Vec2::ZERO;
        for (i, m) in self.support_cells() {
            acc += self.cell_center(i) * m;
        }
        acc
    }

    /// Covariance matrix of the belief (2×2).
    pub fn covariance(&self) -> Matrix {
        let mean = self.mean();
        let mut cov = Matrix::zeros(2, 2);
        for (i, m) in self.support_cells() {
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
    /// (in `[0, 2]`), summed row-major over the union of both supports.
    pub fn l1_distance(&self, other: &GridBelief) -> f64 {
        assert_eq!(self.mass.len(), other.mass.len(), "grid shape mismatch");
        let cells = if self.nx == other.nx {
            self.support.union(other.support)
        } else {
            CellBox::full(self.nx, self.ny)
        };
        cells
            .rows(&self.mass, self.nx)
            .zip(cells.rows(&other.mass, self.nx))
            .flat_map(|((_, a), (_, b))| a.iter().zip(b))
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
        // Only `self`'s support can hold p > 0.
        self.support_cells()
            .map(|(i, p)| (p, other.mass[i]))
            .filter(|&(p, _)| p > 0.0)
            .map(|(p, q)| p * (p.ln() - q.max(1e-300).ln()))
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
        out.support = CellBox::full(self.nx, self.ny);
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
    fn mean(&self) -> Vec2 {
        GridBelief::mean(self)
    }

    fn spread(&self) -> f64 {
        GridBelief::spread(self)
    }
}

/// Whether a message with this total collapses: a zero or non-finite
/// total would annihilate the product downstream, so the message is
/// replaced by a flat one (callers surface it as
/// [`ObsEvent::GridUniformFallback`]).
fn collapses(total: f64) -> bool {
    total <= 0.0 || !total.is_finite()
}

/// Guards a full-grid message against total annihilation: a collapsing
/// message becomes all ones. Returns whether the fallback fired.
fn finalize_message(msg: &mut [f64]) -> bool {
    let collapsed = collapses(msg.iter().sum());
    if collapsed {
        msg.fill(1.0);
    }
    collapsed
}

/// Staleness tempering `m^alpha` of one positive cell; `alpha ≥ 1` is
/// the identity and a negative `alpha` acts as 0.
fn tempered(m: f64, alpha: f64) -> f64 {
    if alpha < 1.0 && m > 0.0 {
        m.powf(alpha.max(0.0))
    } else {
        m
    }
}

/// Damped belief blend `new = (1 − d)·new + d·old` over the union of
/// both supports, renormalized.
fn damp(new: &mut GridBelief, old: &GridBelief, damping: f64) {
    let keep = 1.0 - damping;
    new.support = new.support.union(old.support);
    let olds = new.support.rows(&old.mass, old.nx);
    for ((_, n), (_, o)) in new.support.rows_mut(&mut new.mass, new.nx).zip(olds) {
        for (n, &o) in n.iter_mut().zip(o) {
            *n = keep * *n + damping * o;
        }
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
/// cell offset). All three are built before the iteration loop, in
/// parallel over the pool.
struct MessageCache {
    /// Initial beliefs: priors for free variables, deltas for fixed ones.
    init: Vec<GridBelief>,
    /// Per-edge message source, indexed like [`SpatialMrf::edges`].
    edges: Vec<EdgeMessage>,
    /// One stencil per free–free edge, in edge order.
    stencils: Vec<KernelStencil>,
}

impl MessageCache {
    /// Sorts the edges sequentially, builds the priors, stencils and
    /// anchor messages in parallel, then reports collapsed anchor
    /// messages in edge order.
    fn build(mrf: &SpatialMrf, shape: &GridBelief, obs: &dyn InferenceObserver) -> MessageCache {
        let (domain, nx, ny) = (shape.domain, shape.nx, shape.ny);
        let mut edges = Vec::with_capacity(mrf.edges().len());
        let mut tables: Vec<&dyn PairPotential> = Vec::new();
        let mut anchors: Vec<(Vec2, &dyn PairPotential)> = Vec::new();
        for edge in mrf.edges() {
            edges.push(match (mrf.fixed(edge.u), mrf.fixed(edge.v)) {
                (Some(p), None) | (None, Some(p)) => {
                    anchors.push((p, edge.potential.as_ref()));
                    EdgeMessage::Anchor(Vec::new())
                }
                (None, None) => {
                    tables.push(edge.potential.as_ref());
                    EdgeMessage::Kernel(tables.len() - 1)
                }
                (Some(_), Some(_)) => EdgeMessage::Inert,
            });
        }
        let init: Vec<GridBelief> = (0..mrf.len())
            .into_par_iter()
            .map(|u| match mrf.fixed(u) {
                Some(p) => GridBelief::delta(p, domain, nx, ny),
                None => GridBelief::from_unary(mrf.unary(u).as_ref(), domain, nx, ny),
            })
            .collect();
        let (dx, dy) = shape.cell_size();
        let stencils: Vec<KernelStencil> = tables
            .par_iter()
            .map(|&potential| KernelStencil::build(potential, nx, ny, dx, dy))
            .collect();
        let messages: Vec<(Vec<f64>, bool)> = anchors
            .par_iter()
            .map(|&(p, potential)| point_message(shape, p, potential))
            .collect();
        let slots = edges
            .iter_mut()
            .enumerate()
            .filter_map(|(e, edge)| match edge {
                EdgeMessage::Anchor(slot) => Some((e, slot)),
                _ => None,
            });
        for ((e, slot), (msg, collapsed)) in slots.zip(messages) {
            if collapsed {
                obs.on_event(&ObsEvent::GridUniformFallback {
                    edge: e,
                    stage: "point",
                });
            }
            *slot = msg;
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

    fn update(&self, u: usize, _iter: usize, inbox: &Inbox<'_, GridBelief>) -> GridBelief {
        let mut bel = self.base_belief(u).clone();
        let (nx, ny) = (self.shape.nx, self.shape.ny);
        // Message scratch, reused across edges.
        let mut scratch: Vec<f64> = Vec::new();
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
                EdgeMessage::Anchor(am) => bel.absorb(&Message::dense(am, nx, ny), alpha),
                EdgeMessage::Kernel(k) => {
                    let live = source
                        .support
                        .bound(&source.mass, nx, |m| scatters(m, self.floor));
                    let msg = self.cache.stencils[*k].scatter_box(
                        &source.mass,
                        nx,
                        live,
                        self.floor,
                        &mut scratch,
                    );
                    if collapses(msg.total()) {
                        self.obs.on_event(&ObsEvent::GridUniformFallback {
                            edge: e,
                            stage: "kernel",
                        });
                        // The flat fallback message, tempered or not, is
                        // all ones: the product only renormalizes.
                        bel.normalize();
                    } else {
                        bel.absorb(&msg, alpha);
                    }
                }
                EdgeMessage::Inert => {}
            }
        }
        if self.damping > 0.0 {
            damp(&mut bel, &inbox.beliefs()[u], self.damping);
        }
        bel
    }

    /// L1 mass distance and KL divergence from the belief replaced.
    fn residual(old: &GridBelief, new: &GridBelief, _shift: f64) -> (f64, Option<f64>) {
        (new.l1_distance(old), Some(new.kl_divergence(old)))
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
        let m: Vec<f64> = [0.25f64, 0.0, 1.0]
            .iter()
            .map(|&m| tempered(m, 0.5))
            .collect();
        assert_eq!(m, vec![0.5, 0.0, 1.0]);
        assert_eq!(tempered(0.25, 1.0), 0.25);
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

    /// `b` with its support box widened to the whole grid: the same
    /// masses, read by every pass over every cell.
    fn widened(b: &GridBelief) -> GridBelief {
        GridBelief {
            support: CellBox::full(b.nx, b.ny),
            ..b.clone()
        }
    }

    fn same_bits(a: &GridBelief, b: &GridBelief) -> bool {
        a.mass.len() == b.mass.len()
            && a.mass
                .iter()
                .zip(&b.mass)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn windowed_passes_equal_whole_grid_passes() {
        // Random priors on an unequal grid, shrunk by kernel messages
        // from concentrated senders (tempered or not): every windowed
        // pass reads the same bits as the same pass over every cell.
        use wsnloc_geom::rng::Xoshiro256pp;
        let bits = |v: Vec2| (v.x.to_bits(), v.y.to_bits());
        let mut rng = Xoshiro256pp::seed_from(0x51D3);
        let (nx, ny) = (23, 17);
        let dom = Aabb::new(Vec2::new(-40.0, 10.0), Vec2::new(75.0, 95.0));
        let floor = MASS_FLOOR / (nx * ny) as f64;
        let mut point = || Vec2::new(rng.range(-40.0, 75.0), rng.range(10.0, 95.0));
        let mut shrunk = 0;
        for case in 0..24 {
            let unary = |mean, sigma| GaussianUnary { mean, sigma };
            let base = GridBelief::from_unary(&unary(point(), 30.0), dom, nx, ny);
            let mut b = base.clone();
            for m in 0..3 {
                let sender = GridBelief::from_unary(&unary(point(), 4.0), dom, nx, ny);
                let range = GaussianRange {
                    observed: 15.0 + 5.0 * m as f64,
                    sigma: 2.0,
                };
                let (dx, dy) = b.cell_size();
                let st = KernelStencil::build(&range, nx, ny, dx, dy);
                let live = sender
                    .support
                    .bound(&sender.mass, nx, |v| scatters(v, floor));
                let mut scratch = Vec::new();
                let msg = st.scatter_box(&sender.mass, nx, live, floor, &mut scratch);
                let mut dense = vec![0.0; nx * ny];
                st.scatter(&sender.mass, nx, floor, &mut dense);
                assert_eq!(msg.total().to_bits(), dense.iter().sum::<f64>().to_bits());
                let alpha = if case % 2 == 0 { 1.0 } else { 0.6 };
                let mut whole = widened(&b);
                for v in &mut dense {
                    *v = tempered(*v, alpha);
                }
                whole.product(&dense);
                b.absorb(&msg, alpha);
                assert!(same_bits(&b, &whole), "case {case}: product {m}");
            }
            let full = CellBox::full(nx, ny);
            shrunk += usize::from(b.support != full);
            let w = widened(&b);
            assert_eq!(bits(b.mean()), bits(w.mean()), "case {case}: mean");
            let (c, cw) = (b.covariance(), w.covariance());
            for (i, j) in [(0, 0), (0, 1), (1, 1)] {
                assert_eq!(
                    c[(i, j)].to_bits(),
                    cw[(i, j)].to_bits(),
                    "case {case}: cov"
                );
            }
            let other = GridBelief::from_unary(&unary(point(), 3.0), dom, nx, ny);
            let mut narrow = widened(&other);
            narrow.absorb(&Message::dense(&b.mass, nx, ny), 1.0);
            for o in [&base, &narrow] {
                let ow = widened(o);
                assert_eq!(b.l1_distance(o).to_bits(), w.l1_distance(&ow).to_bits());
                assert_eq!(o.l1_distance(&b).to_bits(), ow.l1_distance(&w).to_bits());
                assert_eq!(b.kl_divergence(o).to_bits(), w.kl_divergence(&ow).to_bits());
                assert_eq!(
                    o.kl_divergence(&b).to_bits(),
                    ow.kl_divergence(&w).to_bits()
                );
                let (mut d, mut dw) = (b.clone(), w.clone());
                damp(&mut d, o, 0.3);
                damp(&mut dw, &ow, 0.3);
                assert!(same_bits(&d, &dw), "case {case}: damping");
            }
        }
        assert!(shrunk >= 12, "only {shrunk} of 24 supports shrank");
    }

    #[test]
    fn support_audit_rejects_mass_outside_the_box() {
        let audit = DistributionAudit::default();
        let mut b = GridBelief::delta(Vec2::new(15.0, 25.0), domain(), 10, 10);
        assert_eq!(audit.check_grid("delta", &b), Ok(()));
        // Half the mass moves outside the one-cell box.
        let inside = b.cell_of(Vec2::new(15.0, 25.0));
        b.mass[inside] = 0.5;
        b.mass[inside + 3] = 0.5;
        assert!(matches!(
            audit.check_grid("stray", &b),
            Err(ValidationError::MassOutsideSupport { index, .. }) if index == inside + 3
        ));
        // A negative zero is not the +0.0 the windowed passes assume.
        b.mass[inside] = 1.0;
        b.mass[inside + 3] = -0.0;
        assert!(matches!(
            audit.check_grid("signed zero", &b),
            Err(ValidationError::MassOutsideSupport { .. })
        ));
        assert_eq!(audit.check_grid("widened", &widened(&b)), Ok(()));
    }
}
