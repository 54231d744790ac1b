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
//! messages and tables are all `f64`. One opt-in throughput knob rides
//! on top: [`CoarseToFine`] pre-solves on a reduced grid and carries
//! concentrated beliefs up to the full resolution.

use crate::engine::{self, BpEngine, Delivery, Inbox, NodeUpdate, RunOutcome, WarmStart};
use crate::mrf::{BpOptions, SpatialMrf};
use crate::potential::{PairPotential, UnaryPotential};
use crate::stencil::KernelStencil;
use crate::transport::Transport;
use crate::validate::{DistributionAudit, ValidationError};
use std::collections::HashMap;
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

    /// Piecewise-constant upsample onto a finer `nx × ny` grid over the
    /// same domain, renormalized — the belief carry-over step of the
    /// coarse-to-fine schedule.
    fn upsampled_to(&self, nx: usize, ny: usize) -> GridBelief {
        let mut out = GridBelief {
            domain: self.domain,
            nx,
            ny,
            mass: vec![0.0; nx * ny],
        };
        for y in 0..ny {
            let cy = y * self.ny / ny;
            for x in 0..nx {
                let cx = x * self.nx / nx;
                out.mass[y * nx + x] = self.mass[cy * self.nx + cx];
            }
        }
        out.normalize();
        out
    }

    /// Sum of the `k` largest cell masses — the concentration statistic
    /// the coarse-to-fine schedule thresholds on (≈1 when the posterior
    /// has collapsed onto a few cells, ≈`k/cells` when diffuse).
    fn top_k_mass(&self, k: usize) -> f64 {
        if k >= self.mass.len() {
            return self.mass.iter().sum();
        }
        let mut m = self.mass.clone();
        m.sort_unstable_by(|a, b| b.total_cmp(a));
        m[..k].iter().sum()
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

    /// Motion-model predict step on the cell array: an optional affine
    /// remap through the state-transition matrix `f` (row-major 2×2;
    /// bilinear gather through `f⁻¹`, identity and singular `f` skip
    /// it) followed by a separable truncated-Gaussian blur of
    /// `(sigma_x, sigma_y)` meters — the discrete convolution with the
    /// process noise `N(0, Q)`. The result is renormalized; sigmas of
    /// zero leave the corresponding axis untouched.
    #[must_use]
    pub fn predicted(&self, f: [f64; 4], sigma_x: f64, sigma_y: f64) -> GridBelief {
        let mut out = self.clone();
        let identity = f == [1.0, 0.0, 0.0, 1.0];
        let det = f[0] * f[3] - f[1] * f[2];
        if !identity && det.abs() > 1e-12 && det.is_finite() {
            // x_prev = f⁻¹ · x: gather each target cell's mass from the
            // bilinearly-interpolated source location.
            let inv = [f[3] / det, -f[1] / det, -f[2] / det, f[0] / det];
            let (dx, dy) = self.cell_size();
            let mut remapped = vec![0.0; self.mass.len()];
            for (i, slot) in remapped.iter_mut().enumerate() {
                let c = self.cell_center(i);
                let s = Vec2::new(inv[0] * c.x + inv[1] * c.y, inv[2] * c.x + inv[3] * c.y);
                // Fractional cell coordinates of the source point.
                let fx = (s.x - self.domain.min.x) / dx - 0.5;
                let fy = (s.y - self.domain.min.y) / dy - 0.5;
                let x0 = fx.floor();
                let y0 = fy.floor();
                let (tx, ty) = (fx - x0, fy - y0);
                for (gx, gy, w) in [
                    (x0, y0, (1.0 - tx) * (1.0 - ty)),
                    (x0 + 1.0, y0, tx * (1.0 - ty)),
                    (x0, y0 + 1.0, (1.0 - tx) * ty),
                    (x0 + 1.0, y0 + 1.0, tx * ty),
                ] {
                    if gx >= 0.0 && gy >= 0.0 && gx < self.nx as f64 && gy < self.ny as f64 {
                        *slot += w * self.mass[gy as usize * self.nx + gx as usize];
                    }
                }
            }
            out.mass = remapped;
        }
        let (dx, dy) = self.cell_size();
        blur_axis(&mut out.mass, self.nx, self.ny, sigma_x / dx, true);
        blur_axis(&mut out.mass, self.nx, self.ny, sigma_y / dy, false);
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

impl crate::sharded::TemperBelief for GridBelief {
    fn tempered(&self, alpha: f64) -> GridBelief {
        if !(alpha > 0.0 && alpha < 1.0) {
            return self.clone();
        }
        let mut b = self.clone();
        temper_message(&mut b.mass, alpha);
        b.normalize();
        b
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

/// Computes the message from a source belief into a target grid through a
/// distance potential, truncated at the potential's support radius.
/// Returns the message and whether the uniform fallback fired.
fn kernel_message(
    source: &GridBelief,
    potential: &dyn PairPotential,
    mass_floor: f64,
) -> (Vec<f64>, bool) {
    let nx = source.nx;
    let ny = source.ny;
    let (dx, dy) = source.cell_size();
    let mut msg = vec![0.0; nx * ny];
    // Support radius in cells, conservatively ceil'd. Unbounded potentials
    // scatter over the whole grid.
    let reach = potential.max_distance();
    let (rx, ry) = match reach {
        Some(r) => ((r / dx).ceil() as isize, (r / dy).ceil() as isize),
        None => (nx as isize, ny as isize),
    };
    for (s, &m) in source.mass.iter().enumerate() {
        if m < mass_floor {
            continue;
        }
        let sp = source.cell_center(s);
        let sx = (s % nx) as isize;
        let sy = (s / nx) as isize;
        let x0 = (sx - rx).max(0) as usize;
        let x1 = (sx + rx).min(nx as isize - 1) as usize;
        let y0 = (sy - ry).max(0) as usize;
        let y1 = (sy + ry).min(ny as isize - 1) as usize;
        for y in y0..=y1 {
            for x in x0..=x1 {
                let t = y * nx + x;
                let d = source.cell_center(t).dist(sp);
                msg[t] += m * potential.likelihood(d);
            }
        }
    }
    let collapsed = finalize_message(&mut msg);
    (msg, collapsed)
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

/// Iteration-invariant message state, built once per run.
///
/// Three quantities never change across BP iterations: the prior-derived
/// initial beliefs (unary potentials don't change), the anchor messages
/// (fixed positions don't move), and the kernel tables of distance-only
/// potentials (on a regular grid the likelihood depends only on the cell
/// offset). The seed path recomputed all three inside every
/// `update_one`; this cache hoists them out of the iteration loop.
struct MessageCache {
    /// Initial beliefs: priors for free variables, deltas for fixed
    /// ones (shared with the run's belief vector).
    init: Vec<GridBelief>,
    /// Per-edge anchor message — `Some` iff exactly one endpoint is
    /// fixed, computed in the fixed→free direction.
    anchor_msgs: Vec<Option<Vec<f64>>>,
    /// Per-edge index into `stencils` — `Some` iff both endpoints are
    /// free and the potential discretizes.
    edge_stencils: Vec<Option<usize>>,
    /// Deduplicated stencils: edges sharing a potential (by
    /// `Arc` identity) share one entry.
    stencils: Vec<KernelStencil>,
}

impl MessageCache {
    fn build(
        mrf: &SpatialMrf,
        domain: Aabb,
        nx: usize,
        ny: usize,
        obs: &dyn InferenceObserver,
    ) -> MessageCache {
        let init: Vec<GridBelief> = (0..mrf.len())
            .map(|u| match mrf.fixed(u) {
                Some(p) => GridBelief::delta(p, domain, nx, ny),
                None => GridBelief::from_unary(mrf.unary(u).as_ref(), domain, nx, ny),
            })
            .collect();
        // Geometry template for anchor messages: point_message reads only
        // cell centers, identical across all beliefs on this grid.
        let shape = GridBelief::uniform(domain, nx, ny);
        let (dx, dy) = shape.cell_size();
        let mut anchor_msgs = Vec::with_capacity(mrf.edges().len());
        let mut edge_stencils = Vec::with_capacity(mrf.edges().len());
        let mut stencils: Vec<KernelStencil> = Vec::new();
        let mut by_potential: HashMap<usize, Option<usize>> = HashMap::new();
        for (e, edge) in mrf.edges().iter().enumerate() {
            let anchor = match (mrf.fixed(edge.u), mrf.fixed(edge.v)) {
                (Some(p), None) | (None, Some(p)) => {
                    let (msg, collapsed) = point_message(&shape, p, edge.potential.as_ref());
                    if collapsed {
                        obs.on_event(&ObsEvent::GridUniformFallback {
                            edge: e,
                            stage: "point",
                        });
                    }
                    Some(msg)
                }
                _ => None,
            };
            // Kernel messages only flow along free–free edges; fixed
            // sources use the anchor message and fixed targets are never
            // updated.
            let stencil =
                if anchor.is_none() && mrf.fixed(edge.u).is_none() && mrf.fixed(edge.v).is_none() {
                    let key = Arc::as_ptr(&edge.potential) as *const () as usize;
                    *by_potential.entry(key).or_insert_with(|| {
                        KernelStencil::build(edge.potential.as_ref(), nx, ny, dx, dy).map(|s| {
                            stencils.push(s);
                            stencils.len() - 1
                        })
                    })
                } else {
                    None
                };
            anchor_msgs.push(anchor);
            edge_stencils.push(stencil);
        }
        MessageCache {
            init,
            anchor_msgs,
            edge_stencils,
            stencils,
        }
    }

    /// The cached anchor message for edge `e`, when one exists.
    fn anchor(&self, e: usize) -> Option<&[f64]> {
        self.anchor_msgs.get(e).and_then(|m| m.as_deref())
    }

    /// The shared stencil for edge `e`, when the potential discretizes.
    fn stencil(&self, e: usize) -> Option<&KernelStencil> {
        self.edge_stencils
            .get(e)
            .copied()
            .flatten()
            .and_then(|i| self.stencils.get(i))
    }
}

/// Opt-in coarse-to-fine schedule for [`GridBp`].
///
/// The run starts on a `(nx/factor) × (ny/factor)` grid for
/// `coarse_iterations` BP iterations (or until the run's convergence
/// tolerance is met). Free nodes whose coarse posterior concentrates —
/// the mass of their `top_k` heaviest cells reaches `concentration` —
/// carry their upsampled belief into the full-resolution run as its
/// starting point (the same belief-level carry-over seam `wsnloc-serve`
/// uses between epochs); diffuse nodes restart cold from their priors.
/// The coarse pre-solve runs on the perfect transport without observer
/// telemetry; its broadcasts are added to the run's message count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseToFine {
    /// Resolution divisor for the coarse phase (≥ 2).
    pub factor: usize,
    /// Iteration budget of the coarse phase (≥ 1).
    pub coarse_iterations: usize,
    /// Number of heaviest cells whose combined mass is thresholded (≥ 1).
    pub top_k: usize,
    /// Concentration threshold in `(0, 1]`: carry a node's coarse belief
    /// up only when its top-k mass reaches this value.
    pub concentration: f64,
}

impl Default for CoarseToFine {
    fn default() -> Self {
        CoarseToFine {
            factor: 4,
            coarse_iterations: 6,
            top_k: 9,
            concentration: 0.5,
        }
    }
}

impl CoarseToFine {
    /// Validates the schedule parameters, returning `self` unchanged on
    /// success.
    pub fn validated(self) -> Result<Self, ValidationError> {
        if self.factor < 2 {
            return Err(ValidationError::InvalidOption {
                option: "refine.factor",
                value: self.factor as f64,
                requirement: "coarse-to-fine resolution divisor must be at least 2",
            });
        }
        if self.coarse_iterations == 0 {
            return Err(ValidationError::InvalidOption {
                option: "refine.coarse_iterations",
                value: 0.0,
                requirement: "coarse phase needs at least 1 iteration",
            });
        }
        if self.top_k == 0 {
            return Err(ValidationError::InvalidOption {
                option: "refine.top_k",
                value: 0.0,
                requirement: "concentration statistic needs at least 1 cell",
            });
        }
        if !(self.concentration > 0.0 && self.concentration <= 1.0) {
            return Err(ValidationError::InvalidOption {
                option: "refine.concentration",
                value: self.concentration,
                requirement: "concentration threshold must lie in (0, 1]",
            });
        }
        Ok(self)
    }
}

/// Per-node warm-start lookup unifying the two carry-over sources: the
/// caller's carried beliefs (all free nodes) and the coarse-to-fine
/// pre-solve (only nodes that concentrated).
enum Warm<'a> {
    None,
    All(&'a [GridBelief]),
    PerNode(&'a [Option<GridBelief>]),
}

impl Warm<'_> {
    fn get(&self, u: usize) -> Option<&GridBelief> {
        match self {
            Warm::None => None,
            Warm::All(w) => w.get(u),
            Warm::PerNode(w) => w.get(u).and_then(|b| b.as_ref()),
        }
    }
}

/// Loopy belief propagation with grid-discretized beliefs.
#[derive(Debug, Clone, Copy)]
pub struct GridBp {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Source cells below this mass are skipped when scattering messages
    /// (speed/accuracy trade-off; scaled by 1/cells internally).
    pub mass_floor: f64,
    /// Whether the per-run message cache (prior beliefs, anchor messages,
    /// kernel stencils) is used. On by default; disabling it runs the
    /// recompute-everything reference path, kept for equivalence tests
    /// and before/after benchmarks.
    pub cache_messages: bool,
    refine: Option<CoarseToFine>,
}

impl GridBp {
    /// Engine with an `n × n` grid and the default mass floor.
    pub fn with_resolution(n: usize) -> Self {
        GridBp {
            nx: n,
            ny: n,
            mass_floor: 1e-4,
            cache_messages: true,
            refine: None,
        }
    }

    /// The same engine with the per-run message cache disabled: every
    /// prior, anchor message, and kernel evaluation is recomputed from
    /// the potentials each iteration, exactly as the pre-cache engine
    /// did.
    pub fn without_message_cache(mut self) -> Self {
        self.cache_messages = false;
        self
    }

    /// The same engine with the coarse-to-fine schedule enabled.
    /// Callers should pass parameters through
    /// [`CoarseToFine::validated`]; degenerate values (a factor that
    /// leaves fewer than 2 coarse cells per axis) skip the pre-solve at
    /// run time rather than failing.
    pub fn with_refinement(mut self, refine: CoarseToFine) -> Self {
        self.refine = Some(refine);
        self
    }

    /// The coarse-to-fine schedule, when enabled.
    pub fn refinement(&self) -> Option<CoarseToFine> {
        self.refine
    }

    /// Initial beliefs and update state for one run at this engine's
    /// resolution. With the message cache on, the iteration-invariant
    /// pieces (priors, anchor messages, kernel stencils) are built here,
    /// once, and the initial beliefs are shared with the cache.
    fn init<'a>(
        &self,
        mrf: &'a SpatialMrf,
        opts: &BpOptions,
        warm: Warm<'a>,
        state: Warm<'_>,
        obs: &'a dyn InferenceObserver,
    ) -> (GridRun<'a>, Vec<GridBelief>) {
        let domain = mrf.domain();
        let cache = self
            .cache_messages
            .then(|| MessageCache::build(mrf, domain, self.nx, self.ny, obs));
        let run = GridRun {
            mrf,
            floor: self.mass_floor / (self.nx * self.ny) as f64,
            damping: opts.damping,
            shape: GridBelief::uniform(domain, self.nx, self.ny),
            cache,
            warm,
            obs,
        };
        // Initial belief state: a resumed state (same grid shape) wins
        // over the update base for free nodes; fixed nodes and everyone
        // else start from the base (prior or carried belief).
        let beliefs = match (&run.cache, &run.warm, &state) {
            (Some(c), Warm::None, Warm::None) => c.init.clone(),
            _ => (0..mrf.len())
                .map(|u| match state.get(u).filter(|b| run.matches(u, b)) {
                    Some(b) => b.clone(),
                    None => run.base_belief(u),
                })
                .collect(),
        };
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
    /// The run's grid: its shape, and the cell-center template for the
    /// pointwise fallback paths (identical across all its beliefs).
    shape: GridBelief,
    cache: Option<MessageCache>,
    /// Carried beliefs that replace the prior-derived update base.
    warm: Warm<'a>,
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
    fn base_belief(&self, u: usize) -> GridBelief {
        if let Some(b) = self.warm.get(u).filter(|b| self.matches(u, b)) {
            return b.clone();
        }
        match &self.cache {
            Some(c) => c.init[u].clone(),
            None => {
                let (domain, nx, ny) = (self.shape.domain, self.shape.nx, self.shape.ny);
                match self.mrf.fixed(u) {
                    Some(p) => GridBelief::delta(p, domain, nx, ny),
                    None => GridBelief::from_unary(self.mrf.unary(u).as_ref(), domain, nx, ny),
                }
            }
        }
    }
}

impl NodeUpdate for GridRun<'_> {
    type Belief = GridBelief;

    const BACKEND: &'static str = "grid";

    const SNAPSHOT_RESIDUALS: bool = true;

    fn update(&self, u: usize, _iter: usize, inbox: &Inbox<'_, GridBelief>) -> GridBelief {
        let mrf = self.mrf;
        let mut bel = self.base_belief(u);
        // Message scratch, reused across edges.
        let mut msg: Vec<f64> = Vec::new();
        for &e in mrf.edges_of(u) {
            // Never-received links contribute nothing; held content is
            // tempered by its staleness discount `alpha`.
            let Some(Delivery {
                v,
                belief: source,
                alpha,
            }) = inbox.receive(e, u)
            else {
                continue;
            };
            let potential = mrf.edges()[e].potential.as_ref();
            match mrf.fixed(v) {
                Some(p) => {
                    // Anchor message: cached once per run (its fallback,
                    // if any, was reported at build time), recomputed
                    // only on the reference path.
                    if let Some(am) = self.cache.as_ref().and_then(|c| c.anchor(e)) {
                        if alpha < 1.0 {
                            msg.clear();
                            msg.extend_from_slice(am);
                            temper_message(&mut msg, alpha);
                            bel.product(&msg);
                        } else {
                            bel.product(am);
                        }
                    } else {
                        let (mut m, collapsed) = point_message(&self.shape, p, potential);
                        if collapsed {
                            self.obs.on_event(&ObsEvent::GridUniformFallback {
                                edge: e,
                                stage: "point",
                            });
                        }
                        temper_message(&mut m, alpha);
                        bel.product(&m);
                    }
                }
                None => {
                    let collapsed = match self.cache.as_ref().and_then(|c| c.stencil(e)) {
                        Some(st) => {
                            msg.clear();
                            msg.resize(bel.mass.len(), 0.0);
                            st.scatter(&source.mass, self.shape.nx, self.floor, &mut msg);
                            finalize_message(&mut msg)
                        }
                        None => {
                            let (m, collapsed) = kernel_message(source, potential, self.floor);
                            msg = m;
                            collapsed
                        }
                    };
                    if collapsed {
                        self.obs.on_event(&ObsEvent::GridUniformFallback {
                            edge: e,
                            stage: "kernel",
                        });
                    }
                    temper_message(&mut msg, alpha);
                    bel.product(&msg);
                }
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

    /// The superset entry point the core localizer drives: structured
    /// telemetry observer, belief-level per-iteration closure, a
    /// message [`Transport`], and a [`WarmStart`]. With the perfect
    /// transport and a cold start this is bit-identical to the
    /// pre-transport engine; under a fault plan, undelivered messages
    /// fall back per the plan's drop policy (stale held messages are
    /// tempered as `m^α`), never-received links contribute nothing, and
    /// dead nodes freeze. A `warm.prior` belief (same grid shape)
    /// replaces the prior-derived base belief of its free node inside
    /// every update product, so a carried posterior acts as this
    /// epoch's prior instead of re-applying the pre-knowledge unary it
    /// already absorbed; a `warm.state` belief seeds the initial belief
    /// vector only (mid-run resume against the model's own priors).
    ///
    /// With coarse-to-fine enabled, a cold run first pre-solves on a
    /// reduced grid and carries concentrated coarse posteriors up per
    /// node; the pre-solve's broadcasts are counted as this run's
    /// messages. The pre-solve is skipped when the caller already
    /// supplied warm beliefs (they carry posterior structure of their
    /// own) or when the coarse grid would degenerate.
    fn run_warm<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: WarmStart<'_, GridBelief>,
        obs: &dyn InferenceObserver,
        on_iter: F,
    ) -> RunOutcome<GridBelief>
    where
        F: FnMut(usize, &[GridBelief]),
    {
        let mut carried: Option<Vec<Option<GridBelief>>> = None;
        let mut pre_messages = 0u64;
        if let Some(cf) = self.refine {
            let f = cf.factor.max(1);
            let (cnx, cny) = (self.nx / f, self.ny / f);
            if warm.is_cold() && cf.factor >= 2 && cnx >= 2 && cny >= 2 {
                let coarse = GridBp {
                    nx: cnx,
                    ny: cny,
                    refine: None,
                    ..*self
                };
                let mut copts = *opts;
                copts.max_iterations = cf.coarse_iterations.max(1);
                let (beliefs, bp) = coarse.run(mrf, &copts);
                pre_messages = bp.messages;
                carried = Some(
                    beliefs
                        .into_iter()
                        .enumerate()
                        .map(|(u, b)| {
                            if mrf.fixed(u).is_some() {
                                return None;
                            }
                            if b.top_k_mass(cf.top_k) >= cf.concentration {
                                Some(b.upsampled_to(self.nx, self.ny))
                            } else {
                                None
                            }
                        })
                        .collect(),
                );
            }
        }
        let prior = match (&carried, warm.prior) {
            (Some(c), _) => Warm::PerNode(c),
            (None, Some(w)) => Warm::All(w),
            (None, None) => Warm::None,
        };
        let state = match warm.state {
            Some(s) => Warm::All(s),
            None => Warm::None,
        };
        let init = || self.init(mrf, opts, prior, state, obs);
        engine::drive(mrf, opts, transport, obs, pre_messages, init, on_iter)
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

    #[test]
    fn upsample_preserves_structure() {
        let coarse = GridBelief::from_unary(
            &GaussianUnary {
                mean: Vec2::new(30.0, 60.0),
                sigma: 8.0,
            },
            domain(),
            10,
            10,
        );
        let fine = coarse.upsampled_to(40, 40);
        assert_eq!(fine.nx(), 40);
        assert!((fine.mass().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(fine.mean().dist(coarse.mean()) < 4.0);
    }

    #[test]
    fn top_k_mass_measures_concentration() {
        let peaked = GridBelief::delta(Vec2::new(50.0, 50.0), domain(), 10, 10);
        assert!((peaked.top_k_mass(1) - 1.0).abs() < 1e-12);
        let uniform = GridBelief::uniform(domain(), 10, 10);
        assert!((uniform.top_k_mass(10) - 0.1).abs() < 1e-12);
        assert!((uniform.top_k_mass(1000) - 1.0).abs() < 1e-12);
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
    fn stencil_message_matches_kernel_message() {
        let pot = GaussianRange {
            observed: 30.0,
            sigma: 4.0,
        };
        let src = GridBelief::from_unary(
            &GaussianUnary {
                mean: Vec2::new(40.0, 60.0),
                sigma: 12.0,
            },
            domain(),
            25,
            25,
        );
        let (dx, dy) = src.cell_size();
        let st = KernelStencil::build(&pot, 25, 25, dx, dy).expect("range potential discretizes");
        let floor = 1e-4 / 625.0;
        let (reference, ref_collapsed) = kernel_message(&src, &pot, floor);
        let mut cached = vec![0.0f64; 625];
        st.scatter(src.mass(), 25, floor, &mut cached);
        let cache_collapsed = finalize_message(&mut cached);
        assert_eq!(ref_collapsed, cache_collapsed);
        for (t, (a, b)) in reference.iter().zip(&cached).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "cell {t}: reference {a} vs stencil {b}"
            );
        }
    }

    fn four_node_mrf() -> SpatialMrf {
        let dom = domain();
        let mut mrf = SpatialMrf::new(4, dom, Arc::new(UniformBoxUnary(dom)));
        mrf.fix(0, Vec2::new(10.0, 50.0));
        mrf.fix(3, Vec2::new(90.0, 50.0));
        for (u, v, d) in [(0, 1, 30.0), (1, 2, 25.0), (2, 3, 30.0), (1, 3, 52.0)] {
            mrf.add_edge(
                u,
                v,
                Arc::new(GaussianRange {
                    observed: d,
                    sigma: 3.0,
                }),
            );
        }
        mrf
    }

    #[test]
    fn cached_run_matches_reference_run() {
        let mrf = four_node_mrf();
        let opts = BpOptions::builder()
            .max_iterations(6)
            .tolerance(0.0)
            .try_build()
            .expect("valid options");
        let engine = GridBp::with_resolution(30);
        let (cached, co) = engine.run(&mrf, &opts);
        let (reference, ro) = engine.without_message_cache().run(&mrf, &opts);
        assert_eq!(co.iterations, ro.iterations);
        for (u, (c, r)) in cached.iter().zip(&reference).enumerate() {
            for (i, (a, b)) in c.mass().iter().zip(r.mass()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9,
                    "belief[{u}] cell {i}: cached {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn coarse_to_fine_tracks_dense_estimates() {
        let mrf = four_node_mrf();
        let opts = BpOptions::builder()
            .max_iterations(8)
            .tolerance(0.0)
            .try_build()
            .expect("valid options");
        let (dense, od) = GridBp::with_resolution(40).run(&mrf, &opts);
        let refine = CoarseToFine::default().validated().expect("valid schedule");
        let (refined, or) = GridBp::with_resolution(40)
            .with_refinement(refine)
            .run(&mrf, &opts);
        // The coarse pre-solve's broadcasts are real messages.
        assert!(or.messages > od.messages, "coarse messages counted");
        for (u, (a, b)) in dense.iter().zip(&refined).enumerate() {
            assert!(
                a.mean().dist(b.mean()) < 3.0,
                "node {u}: dense {} vs refined {}",
                a.mean(),
                b.mean()
            );
        }
    }

    #[test]
    fn coarse_to_fine_validation_rejects_degenerate_schedules() {
        assert!(CoarseToFine::default().validated().is_ok());
        let bad_factor = CoarseToFine {
            factor: 1,
            ..CoarseToFine::default()
        };
        assert!(matches!(
            bad_factor.validated(),
            Err(ValidationError::InvalidOption { option, .. }) if option == "refine.factor"
        ));
        let bad_conc = CoarseToFine {
            concentration: 0.0,
            ..CoarseToFine::default()
        };
        assert!(bad_conc.validated().is_err());
        let bad_iters = CoarseToFine {
            coarse_iterations: 0,
            ..CoarseToFine::default()
        };
        assert!(bad_iters.validated().is_err());
        let bad_k = CoarseToFine {
            top_k: 0,
            ..CoarseToFine::default()
        };
        assert!(bad_k.validated().is_err());
    }

    #[test]
    fn refinement_skips_degenerate_coarse_grids() {
        // 4÷4 = 1 coarse cell per axis: the pre-solve must be skipped,
        // leaving a plain full-resolution run.
        let mrf = four_node_mrf();
        let opts = BpOptions::builder()
            .max_iterations(3)
            .tolerance(0.0)
            .try_build()
            .expect("valid options");
        let (plain, op) = GridBp::with_resolution(4).run(&mrf, &opts);
        let (refined, or) = GridBp::with_resolution(4)
            .with_refinement(CoarseToFine::default())
            .run(&mrf, &opts);
        assert_eq!(op.messages, or.messages);
        for (a, b) in plain.iter().zip(&refined) {
            assert_eq!(a.mass(), b.mass());
        }
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
