//! Translation-invariant kernel stencils for grid message passing.
//!
//! A distance-only [`PairPotential`] depends on a cell pair only through
//! the integer offset `(Δx, Δy)`, so the grid engine tabulates its
//! likelihood once per run as a full `(2ry+1) × (2rx+1)` table and the
//! per-message scatter becomes table-lookup multiply–adds, row by row
//! over contiguous slices. The row accumulate is the runtime-dispatched
//! SIMD `axpy` in `cellbuf`, and the scatter is `#[inline(never)]` so
//! profiles time it in isolation.

use crate::cellbuf::axpy;
use crate::potential::PairPotential;

/// A tabulated kernel with its support radii in cells: the full
/// `(2ry+1) × (2rx+1)` table, row-major by `Δy`.
#[derive(Debug, Clone)]
pub struct KernelStencil {
    rx: isize,
    ry: isize,
    table: Vec<f64>,
}

impl KernelStencil {
    /// Tabulates `potential` for an `nx × ny` grid with cell size
    /// `(dx, dy)`. `None` when the potential opts out of discretization
    /// or returns a malformed table (callers then scatter through the
    /// pointwise path).
    ///
    /// The support radius is clamped to `nx − 1` / `ny − 1`: the furthest
    /// reachable offset between two cells of an `n`-wide axis is `n − 1`,
    /// so an oversized `max_distance` cannot tabulate unreachable
    /// offsets (a previous clamp to `n` kept one dead row and column per
    /// axis).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "support radius in cells: `as isize` saturates an unbounded reach, and the \
                  radius is clamped to the axis length − 1 below"
    )]
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
        let table = potential.discretized_kernel(dx, dy, rx, ry)?;
        if table.len() != (2 * rx + 1) * (2 * ry + 1) {
            return None; // malformed custom kernel: pointwise fallback
        }
        Some(KernelStencil::dense(rx, ry, table))
    }

    /// A stencil from a full `(2ry+1) × (2rx+1)` table.
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
            table,
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

    /// Stored table entries, `(2rx+1)·(2ry+1)`.
    pub fn stored_len(&self) -> usize {
        self.table.len()
    }

    /// Scatters `src` (row-major `nx`-wide cell masses) into `out`
    /// through this stencil, skipping source cells below `floor`. `out`
    /// must be zeroed by the caller.
    pub fn scatter(&self, src: &[f64], nx: usize, floor: f64, out: &mut [f64]) {
        scatter_dense(self.rx, self.ry, &self.table, src, nx, floor, out);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{GaussianRange, PairPotential};
    use wsnloc_geom::rng::Xoshiro256pp;

    /// Random table with no symmetry.
    fn asymmetric_table(rx: usize, ry: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from(seed);
        (0..(2 * rx + 1) * (2 * ry + 1))
            .map(|_| rng.range(0.05, 1.0))
            .collect()
    }

    #[test]
    fn gaussian_range_classifies_dense() {
        let pot = GaussianRange {
            observed: 30.0,
            sigma: 4.0,
        };
        let st = KernelStencil::build(&pot, 25, 25, 4.0, 4.0).expect("discretizes");
        // Ring kernels keep the full table.
        assert_eq!(
            st.stored_len(),
            (2 * st.rx() as usize + 1) * (2 * st.ry() as usize + 1)
        );
    }

    #[test]
    fn asymmetric_tables_fall_back_to_dense() {
        // An asymmetric table is stored whole, and a unit source at the
        // grid center scatters it back in table orientation (row-major by
        // Δy, Δx increasing along the row).
        let (rx, ry) = (5usize, 3usize);
        let (nx, ny) = (2 * rx + 1, 2 * ry + 1);
        for seed in 0..8 {
            let table = asymmetric_table(rx, ry, 1000 + seed);
            let st = KernelStencil::dense(rx, ry, table.clone());
            assert_eq!(st.stored_len(), table.len());
            let mut src = vec![0.0; nx * ny];
            src[ry * nx + rx] = 1.0;
            let mut out = vec![0.0; nx * ny];
            st.scatter(&src, nx, 0.5, &mut out);
            assert_eq!(out, table, "seed {seed}");
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
        // The table covers exactly the (2nx−1) × (2ny−1) reachable offsets.
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
}
