//! Translation-invariant kernel stencils for grid message passing.
//!
//! A [`PairPotential`] sees two positions only through their distance,
//! so on a regular grid its likelihood between two cells depends only on
//! the integer offset `(Δx, Δy)`. The grid engine therefore tabulates it
//! once per run as a full `(2ry+1) × (2rx+1)` table, and the
//! per-message scatter becomes table-lookup multiply–adds, row by row
//! over contiguous slices. The row accumulate is the runtime-dispatched
//! SIMD `axpy` in `cellbuf`, and the scatter is `#[inline(never)]` so
//! profiles time it in isolation.

use crate::cellbuf::axpy;
use crate::potential::PairPotential;
use wsnloc_geom::Vec2;

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
    /// `(dx, dy)`: the entry for offset `(ox, oy)`, each in `−r..=r`,
    /// holds `likelihood(‖(ox·dx, oy·dy)‖)`. That is exact for every
    /// [`PairPotential`], which sees positions only through
    /// [`PairPotential::log_likelihood`] of their distance.
    ///
    /// The support radius is `⌈max_distance / d⌉` cells per axis, the
    /// whole grid when the potential is unbounded, clamped to `nx − 1` /
    /// `ny − 1`: the furthest reachable offset between two cells of an
    /// `n`-wide axis is `n − 1`, so an oversized `max_distance` cannot
    /// tabulate unreachable offsets.
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
    ) -> KernelStencil {
        let (rx, ry) = match potential.max_distance() {
            Some(r) => ((r / dx).ceil() as isize, (r / dy).ceil() as isize),
            None => (nx as isize, ny as isize),
        };
        let rx = rx.clamp(0, nx as isize - 1);
        let ry = ry.clamp(0, ny as isize - 1);
        let mut table = Vec::with_capacity((2 * rx as usize + 1) * (2 * ry as usize + 1));
        for oy in -ry..=ry {
            for ox in -rx..=rx {
                let d = Vec2::new(ox as f64 * dx, oy as f64 * dy).norm();
                table.push(potential.likelihood(d));
            }
        }
        KernelStencil { rx, ry, table }
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
    use crate::potential::GaussianRange;
    use wsnloc_geom::rng::Xoshiro256pp;

    /// Random table with no symmetry.
    fn asymmetric_table(rx: usize, ry: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from(seed);
        (0..(2 * rx + 1) * (2 * ry + 1))
            .map(|_| rng.range(0.05, 1.0))
            .collect()
    }

    #[test]
    fn build_tabulates_pointwise_likelihood() {
        // Bit for bit: entry (ox, oy) is likelihood(‖(ox·dx, oy·dy)‖),
        // row-major by Δy, on unequal cell sides.
        let g = GaussianRange {
            observed: 10.0,
            sigma: 3.0,
        };
        let (dx, dy) = (2.0, 2.5);
        let st = KernelStencil::build(&g, 40, 40, dx, dy);
        let (rx, ry) = (st.rx, st.ry);
        assert_eq!((rx, ry), (13, 10), "⌈25/2⌉ and ⌈25/2.5⌉ cells");
        let mut entries = st.table.iter();
        for oy in -ry..=ry {
            for ox in -rx..=rx {
                let d = Vec2::new(ox as f64 * dx, oy as f64 * dy).norm();
                let got = entries.next().map(|v| v.to_bits());
                assert_eq!(got, Some(g.likelihood(d).to_bits()), "offset ({ox}, {oy})");
            }
        }
        assert!(entries.next().is_none(), "table longer than its radii");
    }

    #[test]
    fn asymmetric_tables_scatter_in_table_orientation() {
        // A unit source at the grid center scatters an asymmetric table
        // back in table orientation (row-major by Δy, Δx increasing
        // along the row).
        let (rx, ry) = (5usize, 3usize);
        let (nx, ny) = (2 * rx + 1, 2 * ry + 1);
        for seed in 0..8 {
            let table = asymmetric_table(rx, ry, 1000 + seed);
            let st = KernelStencil::dense(rx, ry, table.clone());
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
        let st = KernelStencil::build(&Everywhere, nx, ny, 2.0, 2.0);
        // The table covers exactly the (2nx−1) × (2ny−1) reachable offsets.
        assert_eq!(st.rx, nx as isize - 1);
        assert_eq!(st.ry, ny as isize - 1);
        assert_eq!(st.table.len(), (2 * nx - 1) * (2 * ny - 1));

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
        let st = KernelStencil::build(&Unbounded, nx, ny, 2.0, 2.0);
        assert_eq!((st.rx, st.ry), (nx as isize - 1, ny as isize - 1));
    }
}
