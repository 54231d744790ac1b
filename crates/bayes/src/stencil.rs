//! Translation-invariant kernel stencils for grid message passing.
//!
//! A distance-only [`PairPotential`](crate::potential::PairPotential)
//! depends on a cell pair only through the integer offset `(Δx, Δy)`, so
//! the grid engine tabulates its likelihood once per run and the
//! per-message scatter becomes table-lookup multiply–adds. This module
//! classifies each table at build time into one of two forms:
//!
//! - **Separable** — the table is (numerically) a rank-1 outer product
//!   `K(Δx, Δy) = row(Δx) · col(Δy)` (detected by a max-pivot rank test,
//!   or declared exactly via
//!   [`PairPotential::discretized_kernel_separable`](crate::potential::PairPotential::discretized_kernel_separable)).
//!   The 2-D scatter collapses into a horizontal pass followed by a
//!   vertical pass: `(2rx+1) + (2ry+1)` multiply–adds per cell instead of
//!   `(2rx+1)·(2ry+1)`.
//! - **Dense** — anything else (ring kernels, asymmetric custom tables)
//!   keeps the full `(2ry+1) × (2rx+1)` table and scatters it row by row.
//!
//! Both scatter kernels drive the runtime-dispatched SIMD accumulate in
//! `cellbuf` and are `#[inline(never)]`, so profiles and the stencil
//! microbench time each form in isolation.

use crate::cellbuf::axpy;
use crate::potential::PairPotential;

/// Storage form of a classified kernel table.
#[derive(Debug, Clone)]
enum StencilKind {
    /// Full `(2ry+1) × (2rx+1)` table, row-major by `Δy`.
    Dense { table: Vec<f64> },
    /// Rank-1 factors: `row` over `Δx ∈ −rx..=rx`, `col` over
    /// `Δy ∈ −ry..=ry`; the kernel entry is `col[Δy+ry] · row[Δx+rx]`.
    Separable { row: Vec<f64>, col: Vec<f64> },
}

/// A classified kernel table with its support radii in cells.
#[derive(Debug, Clone)]
pub struct KernelStencil {
    rx: isize,
    ry: isize,
    kind: StencilKind,
}

impl KernelStencil {
    /// Tabulates and classifies `potential` for an `nx × ny` grid with
    /// cell size `(dx, dy)`. `None` when the potential opts out of
    /// discretization or returns a malformed table/factors (callers then
    /// scatter through the pointwise path).
    ///
    /// The support radius is clamped to `nx − 1` / `ny − 1`: the furthest
    /// reachable offset between two cells of an `n`-wide axis is `n − 1`,
    /// so an oversized `max_distance` cannot tabulate unreachable
    /// offsets (a previous clamp to `n` kept one dead row and column per
    /// axis).
    pub fn build(
        potential: &dyn PairPotential,
        nx: usize,
        ny: usize,
        dx: f64,
        dy: f64,
    ) -> Option<KernelStencil> {
        let (rx, ry) = match potential.max_distance() {
            Some(r) => ((r / dx).ceil() as isize, (r / dy).ceil() as isize),
            None => (nx as isize, ny as isize),
        };
        let rx = rx.clamp(0, nx as isize - 1) as usize;
        let ry = ry.clamp(0, ny as isize - 1) as usize;
        if let Some((row, col)) = potential.discretized_kernel_separable(dx, dy, rx, ry) {
            if row.len() == 2 * rx + 1
                && col.len() == 2 * ry + 1
                && row.iter().chain(&col).all(|v| v.is_finite())
            {
                return Some(KernelStencil::separable(rx, ry, row, col));
            }
            return None; // malformed custom factors: pointwise fallback
        }
        let table = potential.discretized_kernel(dx, dy, rx, ry)?;
        if table.len() != (2 * rx + 1) * (2 * ry + 1) {
            return None; // malformed custom kernel: pointwise fallback
        }
        Some(KernelStencil::classify(rx, ry, table))
    }

    /// Classifies a full `(2ry+1) × (2rx+1)` table: separable when it
    /// passes the rank-1 test, dense otherwise.
    ///
    /// # Panics
    /// When `table.len() != (2rx+1)·(2ry+1)`.
    pub fn classify(rx: usize, ry: usize, table: Vec<f64>) -> KernelStencil {
        assert_eq!(
            table.len(),
            (2 * rx + 1) * (2 * ry + 1),
            "kernel table shape mismatch"
        );
        if let Some((row, col)) = try_separate(&table, rx, ry) {
            return KernelStencil::separable(rx, ry, row, col);
        }
        KernelStencil::dense(rx, ry, table)
    }

    /// A dense stencil from a full `(2ry+1) × (2rx+1)` table.
    ///
    /// # Panics
    /// When the table length does not match the radii.
    pub fn dense(rx: usize, ry: usize, table: Vec<f64>) -> KernelStencil {
        assert_eq!(
            table.len(),
            (2 * rx + 1) * (2 * ry + 1),
            "dense table shape mismatch"
        );
        KernelStencil {
            rx: rx as isize,
            ry: ry as isize,
            kind: StencilKind::Dense { table },
        }
    }

    /// A separable stencil from rank-1 factors.
    ///
    /// # Panics
    /// When the factor lengths do not match the radii.
    pub fn separable(rx: usize, ry: usize, row: Vec<f64>, col: Vec<f64>) -> KernelStencil {
        assert_eq!(row.len(), 2 * rx + 1, "row factor shape mismatch");
        assert_eq!(col.len(), 2 * ry + 1, "column factor shape mismatch");
        KernelStencil {
            rx: rx as isize,
            ry: ry as isize,
            kind: StencilKind::Separable { row, col },
        }
    }

    /// Support radius in cells along x.
    pub fn rx(&self) -> isize {
        self.rx
    }

    /// Support radius in cells along y.
    pub fn ry(&self) -> isize {
        self.ry
    }

    /// The classified form: `"dense"` or `"separable"`.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            StencilKind::Dense { .. } => "dense",
            StencilKind::Separable { .. } => "separable",
        }
    }

    /// Total stored table entries (full table or both factors) — what
    /// the classification actually keeps resident.
    pub fn stored_len(&self) -> usize {
        match &self.kind {
            StencilKind::Dense { table } => table.len(),
            StencilKind::Separable { row, col } => row.len() + col.len(),
        }
    }

    /// Scatters `src` (row-major `nx`-wide cell masses) into `out`
    /// through this stencil, skipping source cells below `floor`. `out`
    /// must be zeroed by the caller; `temp` is scratch reused across
    /// calls (only the separable form touches it).
    pub fn scatter(
        &self,
        src: &[f64],
        nx: usize,
        floor: f64,
        out: &mut [f64],
        temp: &mut Vec<f64>,
    ) {
        match &self.kind {
            StencilKind::Dense { table } => {
                scatter_dense(self.rx, self.ry, table, src, nx, floor, out);
            }
            StencilKind::Separable { row, col } => {
                scatter_separable(self.rx, self.ry, row, col, src, nx, floor, out, temp);
            }
        }
    }
}

/// Max-pivot rank-1 test: factors the table as `col ⊗ row` anchored at
/// its largest-magnitude entry and accepts when every entry matches the
/// outer product within `1e-13 · max|entry|`. Non-finite or all-zero
/// tables are rejected (they classify onward as dense).
fn try_separate(table: &[f64], rx: usize, ry: usize) -> Option<(Vec<f64>, Vec<f64>)> {
    let w = 2 * rx + 1;
    let h = 2 * ry + 1;
    let mut pi = 0usize;
    let mut pmax = 0.0f64;
    for (i, &v) in table.iter().enumerate() {
        if !v.is_finite() {
            return None;
        }
        if v.abs() > pmax {
            pmax = v.abs();
            pi = i;
        }
    }
    if pmax <= 0.0 {
        return None; // all-zero table: nothing to factor
    }
    let (py, px) = (pi / w, pi % w);
    let pivot = table[py * w + px];
    let row: Vec<f64> = table[py * w..py * w + w].to_vec();
    let col: Vec<f64> = (0..h).map(|y| table[y * w + px] / pivot).collect();
    let tol = 1e-13 * pmax;
    for y in 0..h {
        for x in 0..w {
            if (table[y * w + x] - col[y] * row[x]).abs() > tol {
                return None;
            }
        }
    }
    Some((row, col))
}

/// Dense scatter: per source cell above `floor`, accumulate the clamped
/// kernel window row by row over contiguous slices.
#[inline(never)]
fn scatter_dense(
    rx: isize,
    ry: isize,
    table: &[f64],
    src: &[f64],
    nx: usize,
    floor: f64,
    out: &mut [f64],
) {
    let ny = out.len() / nx;
    let width = 2 * rx as usize + 1;
    for (s, &m) in src.iter().enumerate() {
        if m < floor {
            continue;
        }
        let sx = (s % nx) as isize;
        let sy = (s / nx) as isize;
        let x0 = (sx - rx).max(0);
        let x1 = (sx + rx).min(nx as isize - 1);
        let y0 = (sy - ry).max(0);
        let y1 = (sy + ry).min(ny as isize - 1);
        for y in y0..=y1 {
            let krow = ((y - sy + ry) as usize) * width;
            let k0 = krow + (x0 - sx + rx) as usize;
            let t0 = y as usize * nx + x0 as usize;
            let cols = (x1 - x0) as usize + 1;
            axpy(&mut out[t0..t0 + cols], m, &table[k0..k0 + cols]);
        }
    }
}

/// Separable scatter: a horizontal pass accumulates `mass · row(Δx)`
/// into a scratch plane (the per-source mass floor applies here, exactly
/// as in the dense path), then a vertical pass accumulates
/// `col(Δy) · scratch-row` over full contiguous rows. Rows with no
/// source above the floor are skipped.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn scatter_separable(
    rx: isize,
    ry: isize,
    row: &[f64],
    col: &[f64],
    src: &[f64],
    nx: usize,
    floor: f64,
    out: &mut [f64],
    temp: &mut Vec<f64>,
) {
    let ny = out.len() / nx;
    temp.clear();
    temp.resize(out.len(), 0.0);
    for (s, &m) in src.iter().enumerate() {
        if m < floor {
            continue;
        }
        let sx = (s % nx) as isize;
        let sy = s / nx;
        let x0 = (sx - rx).max(0);
        let x1 = (sx + rx).min(nx as isize - 1);
        let k0 = (x0 - sx + rx) as usize;
        let t0 = sy * nx + x0 as usize;
        let cols = (x1 - x0) as usize + 1;
        axpy(&mut temp[t0..t0 + cols], m, &row[k0..k0 + cols]);
    }
    for sy in 0..ny {
        // A row no source passed the floor in received nothing above.
        if !src[sy * nx..(sy + 1) * nx].iter().any(|&m| m >= floor) {
            continue;
        }
        let trow = &temp[sy * nx..(sy + 1) * nx];
        let y0 = (sy as isize - ry).max(0);
        let y1 = (sy as isize + ry).min(ny as isize - 1);
        for ty in y0..=y1 {
            let c = col[(ty - sy as isize + ry) as usize];
            let t = ty as usize * nx;
            axpy(&mut out[t..t + nx], c, trow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{GaussianProximity, GaussianRange, PairPotential};
    use wsnloc_geom::rng::Xoshiro256pp;

    /// Random asymmetric table: must classify dense.
    fn asymmetric_table(rx: usize, ry: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from(seed);
        (0..(2 * rx + 1) * (2 * ry + 1))
            .map(|_| rng.range(0.05, 1.0))
            .collect()
    }

    fn scatter_ref(st: &KernelStencil, src: &[f64], nx: usize, floor: f64) -> Vec<f64> {
        let mut out = vec![0.0; src.len()];
        let mut temp = Vec::new();
        st.scatter(src, nx, floor, &mut out, &mut temp);
        out
    }

    fn random_src(nx: usize, ny: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from(seed);
        let mut src: Vec<f64> = (0..nx * ny).map(|_| rng.range(0.0, 1.0)).collect();
        // Sprinkle sub-floor cells so the skip path is exercised.
        for i in (0..src.len()).step_by(7) {
            src[i] = 1e-9;
        }
        let total: f64 = src.iter().sum();
        for m in &mut src {
            *m /= total;
        }
        src
    }

    #[test]
    fn gaussian_range_classifies_dense() {
        let pot = GaussianRange {
            observed: 30.0,
            sigma: 4.0,
        };
        let st = KernelStencil::build(&pot, 25, 25, 4.0, 4.0).expect("discretizes");
        // Ring kernels are radially symmetric but not rank-1: the full
        // table is kept.
        assert_eq!(st.kind_name(), "dense");
        assert_eq!(
            st.stored_len(),
            (2 * st.rx() as usize + 1) * (2 * st.ry() as usize + 1)
        );
    }

    #[test]
    fn gaussian_proximity_classifies_separable() {
        let pot = GaussianProximity { sigma: 10.0 };
        let st = KernelStencil::build(&pot, 30, 30, 3.0, 3.0).expect("discretizes");
        assert_eq!(st.kind_name(), "separable");
        let (rx, ry) = (st.rx() as usize, st.ry() as usize);
        assert_eq!(st.stored_len(), (2 * rx + 1) + (2 * ry + 1));
    }

    #[test]
    fn separable_detection_catches_rank_one_tables() {
        // An anisotropic exponential product the numeric rank test must
        // catch without any hook.
        let (rx, ry) = (6usize, 4usize);
        let w = 2 * rx + 1;
        let table: Vec<f64> = (0..(2 * ry + 1) * w)
            .map(|i| {
                let oy = (i / w) as isize - ry as isize;
                let ox = (i % w) as isize - rx as isize;
                (-0.1 * (ox * ox) as f64).exp() * (-0.3 * (oy * oy) as f64).exp()
            })
            .collect();
        let st = KernelStencil::classify(rx, ry, table);
        assert_eq!(st.kind_name(), "separable");
    }

    #[test]
    fn asymmetric_tables_fall_back_to_dense() {
        for seed in 0..8 {
            let st = KernelStencil::classify(5, 3, asymmetric_table(5, 3, 1000 + seed));
            assert_eq!(st.kind_name(), "dense", "seed {seed}");
        }
    }

    #[test]
    fn oversized_max_distance_clamps_to_reachable_offsets() {
        // Regression: the support radius must clamp to nx−1/ny−1; the old
        // clamp to nx/ny tabulated one unreachable row and column per
        // axis.
        struct Everywhere;
        impl PairPotential for Everywhere {
            fn log_likelihood(&self, d: f64) -> f64 {
                -0.001 * d
            }
            fn sample_distance(&self, _rng: &mut Xoshiro256pp) -> f64 {
                1.0
            }
            fn max_distance(&self) -> Option<f64> {
                Some(1e9) // vastly larger than any grid extent
            }
        }
        let (nx, ny) = (10usize, 8usize);
        let st = KernelStencil::build(&Everywhere, nx, ny, 2.0, 2.0).expect("discretizes");
        assert_eq!(st.rx(), nx as isize - 1);
        assert_eq!(st.ry(), ny as isize - 1);
        // Distance-only default tabulation is not rank-1 → dense table
        // pinned to exactly the (2nx−1) × (2ny−1) reachable offsets.
        assert_eq!(st.kind_name(), "dense");
        assert_eq!(st.stored_len(), (2 * nx - 1) * (2 * ny - 1));

        // Unbounded potentials clamp identically.
        struct Unbounded;
        impl PairPotential for Unbounded {
            fn log_likelihood(&self, d: f64) -> f64 {
                -0.001 * d
            }
            fn sample_distance(&self, _rng: &mut Xoshiro256pp) -> f64 {
                1.0
            }
            fn max_distance(&self) -> Option<f64> {
                None
            }
        }
        let st = KernelStencil::build(&Unbounded, nx, ny, 2.0, 2.0).expect("discretizes");
        assert_eq!((st.rx(), st.ry()), (nx as isize - 1, ny as isize - 1));
    }

    #[test]
    fn separable_scatter_matches_dense_on_rank_one_tables() {
        let (rx, ry) = (7usize, 5usize);
        let w = 2 * rx + 1;
        let h = 2 * ry + 1;
        let rowf: Vec<f64> = (0..w)
            .map(|i| (-0.08 * (i as f64 - rx as f64).powi(2)).exp())
            .collect();
        let colf: Vec<f64> = (0..h)
            .map(|i| (-0.2 * (i as f64 - ry as f64).powi(2)).exp())
            .collect();
        let mut table = Vec::with_capacity(w * h);
        for &c in &colf {
            for &r in &rowf {
                table.push(c * r);
            }
        }
        let (nx, ny) = (19usize, 23usize);
        let dense = KernelStencil::dense(rx, ry, table);
        let sep = KernelStencil::separable(rx, ry, rowf, colf);
        let src = random_src(nx, ny, 7);
        let floor = 1e-4 / (nx * ny) as f64;
        let a = scatter_ref(&dense, &src, nx, floor);
        let b = scatter_ref(&sep, &src, nx, floor);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                "cell {i}: dense {x} vs separable {y}"
            );
        }
    }
}
