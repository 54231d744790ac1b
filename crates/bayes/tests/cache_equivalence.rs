//! The grid backend against an engine-independent pointwise oracle, on
//! randomized MRFs.
//!
//! [`reference`] is loopy sum–product written out over plain `Vec<f64>`
//! masses. It borrows only `GridBelief`'s geometry (cell centers and
//! sizes) and its prior constructors from the engine: every message is
//! evaluated pointwise as `likelihood(‖c_t − c_s‖)` between cell
//! centers, and the products, normalization, damping and both schedules
//! are its own, so it also checks the driver's schedule and damping. The
//! engine evaluates the same potential through its per-run kernel
//! stencil at the offset distance `‖(Δx·dx, Δy·dy)‖`, which can differ
//! from the cell-center difference in the last ulp, and accumulates
//! through a fused multiply–add where the CPU has one, so beliefs are
//! compared per cell within 1e-12.

use std::sync::Arc;
use wsnloc_bayes::{
    BpEngine, BpOptions, GaussianRange, GaussianUnary, GridBelief, GridBp, KernelStencil,
    PairPotential, Schedule, SpatialMrf, UniformBoxUnary,
};
use wsnloc_geom::check;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Vec2};

const CASES: u64 = 16;
const PER_CELL_TOLERANCE: f64 = 1e-12;
/// BP iterations of every compared run (tolerance 0, so all of them run).
const ITERATIONS: usize = 5;
/// Source cells below this mass, divided by the cell count, scatter
/// nothing — the engine's truncation, restated.
const MASS_FLOOR: f64 = 1e-4;

/// Scales `mass` to sum 1; a zero or non-finite total becomes uniform.
fn normalize(mass: &mut [f64]) {
    let total: f64 = mass.iter().sum();
    if total > 0.0 && total.is_finite() {
        for m in mass.iter_mut() {
            *m /= total;
        }
    } else {
        let cells = mass.len();
        mass.fill(1.0 / cells as f64);
    }
}

/// A message whose total is zero or non-finite collapses to all ones.
fn collapse_to_ones(msg: &mut [f64]) {
    let total: f64 = msg.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        msg.fill(1.0);
    }
}

/// The message from a fixed neighbor at `anchor`: the likelihood at
/// every cell center.
fn anchor_message(grid: &GridBelief, anchor: Vec2, potential: &dyn PairPotential) -> Vec<f64> {
    let mut msg: Vec<f64> = (0..grid.nx() * grid.ny())
        .map(|t| potential.likelihood(grid.cell_center(t).dist(anchor)))
        .collect();
    collapse_to_ones(&mut msg);
    msg
}

/// The message from a free neighbor with cell masses `source`: every
/// source cell at or above `floor` adds `mass · likelihood(distance)`
/// to each cell within `⌈max_distance / d⌉` cells of it per axis (the
/// whole grid when the potential is unbounded).
fn kernel_message(
    grid: &GridBelief,
    source: &[f64],
    potential: &dyn PairPotential,
    floor: f64,
) -> Vec<f64> {
    let (nx, ny) = (grid.nx(), grid.ny());
    let (dx, dy) = grid.cell_size();
    let (rx, ry) = match potential.max_distance() {
        Some(r) => ((r / dx).ceil() as usize, (r / dy).ceil() as usize),
        None => (nx, ny),
    };
    let mut msg = vec![0.0; nx * ny];
    for (s, &m) in source.iter().enumerate() {
        if m < floor {
            continue;
        }
        let (sx, sy) = (s % nx, s / nx);
        let from = grid.cell_center(s);
        for y in sy.saturating_sub(ry)..=sy.saturating_add(ry).min(ny - 1) {
            for x in sx.saturating_sub(rx)..=sx.saturating_add(rx).min(nx - 1) {
                let t = y * nx + x;
                msg[t] += m * potential.likelihood(grid.cell_center(t).dist(from));
            }
        }
    }
    collapse_to_ones(&mut msg);
    msg
}

/// Loopy sum–product on a `res × res` grid over the MRF's domain: the
/// cell masses of every variable after `iterations` rounds of
/// `schedule`. A free node's update starts from its prior, multiplies
/// in each neighbor's message in `edges_of` order (renormalizing after
/// each product), then blends in `damping` of its previous belief and
/// renormalizes. Fixed nodes keep their delta.
fn reference(
    mrf: &SpatialMrf,
    res: usize,
    iterations: usize,
    schedule: Schedule,
    damping: f64,
) -> Vec<Vec<f64>> {
    let domain = mrf.domain();
    let grid = GridBelief::uniform(domain, res, res);
    let floor = MASS_FLOOR / (res * res) as f64;
    let priors: Vec<Vec<f64>> = (0..mrf.len())
        .map(|u| {
            let prior = match mrf.fixed(u) {
                Some(p) => GridBelief::delta(p, domain, res, res),
                None => GridBelief::from_unary(mrf.unary(u).as_ref(), domain, res, res),
            };
            prior.mass().to_vec()
        })
        .collect();
    let update = |u: usize, beliefs: &[Vec<f64>]| {
        let mut bel = priors[u].clone();
        for &e in mrf.edges_of(u) {
            let v = mrf.other_end(e, u);
            let potential = mrf.edges()[e].potential.as_ref();
            let msg = match mrf.fixed(v) {
                Some(p) => anchor_message(&grid, p, potential),
                None => kernel_message(&grid, &beliefs[v], potential, floor),
            };
            for (b, m) in bel.iter_mut().zip(&msg) {
                *b *= m;
            }
            normalize(&mut bel);
        }
        if damping > 0.0 {
            for (b, old) in bel.iter_mut().zip(&beliefs[u]) {
                *b = (1.0 - damping) * *b + damping * old;
            }
            normalize(&mut bel);
        }
        bel
    };
    let free: Vec<usize> = (0..mrf.len()).filter(|&u| mrf.fixed(u).is_none()).collect();
    let mut beliefs = priors.clone();
    for _ in 0..iterations {
        match schedule {
            Schedule::Synchronous => {
                let old = beliefs.clone();
                for &u in &free {
                    beliefs[u] = update(u, &old);
                }
            }
            Schedule::Sweep => {
                for &u in &free {
                    beliefs[u] = update(u, &beliefs);
                }
            }
        }
    }
    beliefs
}

/// A random connected-ish localization MRF on `domain`: 4–7 nodes, 2
/// fixed anchors, noisy ranging edges between nodes within 60 m plus a
/// spanning chain so no node is isolated.
fn random_mrf(rng: &mut Xoshiro256pp, domain: Aabb) -> SpatialMrf {
    let n = 4 + rng.index(4);
    let mut mrf = SpatialMrf::new(n, domain, Arc::new(UniformBoxUnary(domain)));
    let pts: Vec<Vec2> = (0..n)
        .map(|_| rng.point_in(domain.min, domain.max))
        .collect();
    mrf.fix(0, pts[0]);
    mrf.fix(1, pts[1]);
    for (u, pt) in pts.iter().enumerate().skip(2) {
        if rng.f64() < 0.5 {
            mrf.set_unary(
                u,
                Arc::new(GaussianUnary {
                    mean: *pt + Vec2::new(rng.gaussian() * 5.0, rng.gaussian() * 5.0),
                    sigma: 8.0 + 10.0 * rng.f64(),
                }),
            );
        }
    }
    let add = |mrf: &mut SpatialMrf, u: usize, v: usize, rng: &mut Xoshiro256pp| {
        let potential = GaussianRange {
            observed: (pts[u].dist(pts[v]) + rng.gaussian() * 2.0).max(1.0),
            sigma: 2.0 + 4.0 * rng.f64(),
        };
        mrf.add_edge(u, v, Arc::new(potential));
    };
    // Spanning chain keeps every node reachable from the anchors.
    for u in 1..n {
        add(&mut mrf, u - 1, u, rng);
    }
    for u in 0..n {
        for v in (u + 2)..n {
            if pts[u].dist(pts[v]) < 60.0 && rng.f64() < 0.6 {
                add(&mut mrf, u, v, rng);
            }
        }
    }
    mrf
}

fn assert_beliefs_close(engine: &[GridBelief], reference: &[Vec<f64>], tolerance: f64) {
    assert_eq!(engine.len(), reference.len());
    for (u, (c, r)) in engine.iter().zip(reference).enumerate() {
        assert_eq!(c.mass().len(), r.len());
        for (i, (a, b)) in c.mass().iter().zip(r).enumerate() {
            assert!(
                (a - b).abs() <= tolerance,
                "belief[{u}] cell {i}: engine {a} vs reference {b} (tol {tolerance})"
            );
        }
    }
}

fn options(schedule: Schedule, damping: f64) -> BpOptions {
    BpOptions::builder()
        .max_iterations(ITERATIONS)
        .tolerance(0.0)
        .schedule(schedule)
        .damping(damping)
        .try_build()
        .expect("valid options")
}

/// `GridBp::run` against [`reference`] for both schedules at damping 0
/// and 0.3.
fn assert_matches_reference(mrf: &SpatialMrf, res: usize) {
    let engine = GridBp::with_resolution(res);
    for schedule in [Schedule::Synchronous, Schedule::Sweep] {
        for damping in [0.0, 0.3] {
            let (beliefs, outcome) = engine.run(mrf, &options(schedule, damping));
            assert_eq!(outcome.iterations, ITERATIONS);
            let want = reference(mrf, res, ITERATIONS, schedule, damping);
            assert_beliefs_close(&beliefs, &want, PER_CELL_TOLERANCE);
        }
    }
}

#[test]
fn cached_beliefs_match_reference_on_random_mrfs() {
    check::cases(CASES, |_, rng| {
        let mrf = random_mrf(rng, Aabb::from_size(100.0, 100.0));
        assert_matches_reference(&mrf, 18);
    });
}

/// Unequal cell sides (dx ≠ dy) on an offset domain: ring kernels on a
/// square grid are symmetric under transposition, so only these cases
/// catch a stencil that swaps its x and y radii or offsets.
#[test]
fn cached_beliefs_match_reference_on_unequal_cell_sides() {
    check::cases(CASES / 2, |_, rng| {
        let (short, long) = (rng.range(50.0, 90.0), rng.range(110.0, 160.0));
        let (w, h) = if rng.bernoulli(0.5) {
            (short, long)
        } else {
            (long, short)
        };
        let min = Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0));
        let mrf = random_mrf(rng, Aabb::new(min, min + Vec2::new(w, h)));
        assert_matches_reference(&mrf, 14 + rng.index(8));
    });
}

/// Randomized asymmetric tables: the stencil scatter reproduces the
/// brute-force table scatter (same table values, same accumulation
/// targets), so no transposed or mirrored lookup can hide behind a
/// radially symmetric kernel. Grid widths are not multiples of the
/// kernel's 4-cell source groups, radii reach `nx − 1` (spans wider
/// than one accumulator chunk), and half the cases skip sources below
/// a floor.
#[test]
fn asymmetric_kernels_scatter_like_brute_force() {
    check::cases(16, |case, rng| {
        let (nx, ny) = ([14, 9, 23, 37][case as usize % 4], 11);
        let (rx, ry) = (1 + rng.index(nx - 1), 1 + rng.index(ny - 1));
        let table: Vec<f64> = (0..(2 * rx + 1) * (2 * ry + 1))
            .map(|_| rng.range(0.1, 1.0))
            .collect();
        let st = KernelStencil::dense(rx, ry, table.clone());
        let src: Vec<f64> = (0..nx * ny).map(|_| rng.range(0.0, 1.0)).collect();
        let floor = if case % 2 == 0 { 0.0 } else { 0.6 };
        let mut out = vec![f64::NAN; nx * ny];
        st.scatter(&src, nx, floor, &mut out);
        let mut want = vec![0.0f64; nx * ny];
        let w = 2 * rx + 1;
        for (s, &m) in src.iter().enumerate().filter(|&(_, &m)| m >= floor) {
            let (sx, sy) = ((s % nx) as isize, (s / nx) as isize);
            for oy in -(ry as isize)..=(ry as isize) {
                let y = sy + oy;
                if y < 0 || y >= ny as isize {
                    continue;
                }
                for ox in -(rx as isize)..=(rx as isize) {
                    let x = sx + ox;
                    if x < 0 || x >= nx as isize {
                        continue;
                    }
                    let k = table[(oy + ry as isize) as usize * w + (ox + rx as isize) as usize];
                    want[y as usize * nx + x as usize] += m * k;
                }
            }
        }
        for (t, (a, b)) in out.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                "cell {t}: scatter {a} vs brute force {b}"
            );
        }
    });
}

#[test]
fn cached_run_is_deterministic() {
    check::cases(4, |_, rng| {
        let mrf = random_mrf(rng, Aabb::from_size(100.0, 100.0));
        let engine = GridBp::with_resolution(16);
        let opts = options(Schedule::Synchronous, 0.1);
        let (a, _) = engine.run(&mrf, &opts);
        let (b, _) = engine.run(&mrf, &opts);
        assert_eq!(a, b);
    });
}
