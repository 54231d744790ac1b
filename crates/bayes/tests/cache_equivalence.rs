//! Equivalence of the grid backend's per-run message cache against the
//! reference (recompute-everything) path, on randomized MRFs.
//!
//! The hoisted prior beliefs and anchor messages are pure-function reuse
//! and therefore bit-identical to the reference computation. The kernel
//! stencil evaluates the same potential at offset distances computed as
//! `‖(Δx·dx, Δy·dy)‖` instead of as a cell-center difference, which can
//! differ in the last ulp — so cached beliefs are compared per-cell with
//! a 1e-12 tolerance. A potential that opts out of discretization
//! (`discretized_kernel → None`) exercises the cached run's pointwise
//! fallback, which must be *bit*-identical to the reference.

use std::sync::Arc;
use wsnloc_bayes::{
    BpEngine, BpOptions, GaussianProximity, GaussianRange, GaussianUnary, GridBelief, GridBp,
    KernelStencil, PairPotential, Schedule, SpatialMrf, Transport, UniformBoxUnary,
};
use wsnloc_geom::check;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Vec2};
use wsnloc_net::{DropPolicy, FaultPlan};
use wsnloc_obs::NullObserver;

const CASES: u64 = 16;
const PER_CELL_TOLERANCE: f64 = 1e-12;

/// A Gaussian range potential that refuses stencil discretization,
/// forcing the cached engine through the pointwise kernel path.
#[derive(Debug)]
struct OptOutRange(GaussianRange);

impl PairPotential for OptOutRange {
    fn log_likelihood(&self, d: f64) -> f64 {
        self.0.log_likelihood(d)
    }

    fn sample_distance(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.0.sample_distance(rng)
    }

    fn max_distance(&self) -> Option<f64> {
        self.0.max_distance()
    }

    fn discretized_kernel(&self, _dx: f64, _dy: f64, _rx: usize, _ry: usize) -> Option<Vec<f64>> {
        None
    }
}

/// A random connected-ish localization MRF: 4–7 nodes in a 100×100 m
/// field, 2 fixed anchors, noisy ranging edges between nodes within
/// 60 m plus a spanning chain so no node is isolated.
fn random_mrf(rng: &mut Xoshiro256pp, opt_out: bool) -> SpatialMrf {
    let domain = Aabb::from_size(100.0, 100.0);
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
        let base = GaussianRange {
            observed: (pts[u].dist(pts[v]) + rng.gaussian() * 2.0).max(1.0),
            sigma: 2.0 + 4.0 * rng.f64(),
        };
        let potential: Arc<dyn PairPotential> = if opt_out {
            Arc::new(OptOutRange(base))
        } else {
            Arc::new(base)
        };
        mrf.add_edge(u, v, potential);
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

fn assert_beliefs_close(cached: &[GridBelief], reference: &[GridBelief], tolerance: f64) {
    assert_eq!(cached.len(), reference.len());
    for (u, (c, r)) in cached.iter().zip(reference).enumerate() {
        for (i, (a, b)) in c.mass().iter().zip(r.mass()).enumerate() {
            assert!(
                (a - b).abs() <= tolerance,
                "belief[{u}] cell {i}: cached {a} vs reference {b} (tol {tolerance})"
            );
        }
    }
}

fn options(schedule: Schedule, damping: f64) -> BpOptions {
    BpOptions::builder()
        .max_iterations(5)
        .tolerance(0.0)
        .schedule(schedule)
        .damping(damping)
        .try_build()
        .expect("valid options")
}

#[test]
fn cached_beliefs_match_reference_on_random_mrfs() {
    check::cases(CASES, |_, rng| {
        let mrf = random_mrf(rng, false);
        let engine = GridBp::with_resolution(18);
        for schedule in [Schedule::Synchronous, Schedule::Sweep] {
            for damping in [0.0, 0.3] {
                let opts = options(schedule, damping);
                let (cached, co) = engine.run(&mrf, &opts);
                let (reference, ro) = engine.without_message_cache().run(&mrf, &opts);
                assert_eq!(co.iterations, ro.iterations);
                assert_eq!(co.converged, ro.converged);
                assert_beliefs_close(&cached, &reference, PER_CELL_TOLERANCE);
            }
        }
    });
}

/// Cached vs reference under a faulted transport: lossy, stale links
/// drive the held-snapshot and tempered-message paths of the node
/// update, which the perfect-transport property above never reaches.
#[test]
fn cached_beliefs_match_reference_under_faults() {
    check::cases(4, |case, rng| {
        let mrf = random_mrf(rng, false);
        let engine = GridBp::with_resolution(18);
        for policy in [
            DropPolicy::HoldLast,
            DropPolicy::DecayToPrior { decay: 0.6 },
        ] {
            let plan = FaultPlan::iid_loss(0xFA17 + case, 0.35)
                .with_stale_prob(0.2)
                .with_drop_policy(policy);
            let transport = Transport::faulted(Arc::new(plan));
            for schedule in [Schedule::Synchronous, Schedule::Sweep] {
                for damping in [0.0, 0.3] {
                    let opts = options(schedule, damping);
                    let run = |engine: GridBp| {
                        engine.run_carried(&mrf, &opts, &transport, None, &NullObserver, |_, _| {})
                    };
                    let cached = run(engine);
                    let reference = run(engine.without_message_cache());
                    assert_eq!(cached.bp.iterations, reference.bp.iterations);
                    assert_eq!(cached.bp.messages, reference.bp.messages);
                    assert_beliefs_close(&cached.beliefs, &reference.beliefs, PER_CELL_TOLERANCE);
                }
            }
        }
    });
}

#[test]
fn opt_out_potentials_are_bit_identical_to_reference() {
    check::cases(CASES / 2, |_, rng| {
        let mrf = random_mrf(rng, true);
        let engine = GridBp::with_resolution(18);
        for schedule in [Schedule::Synchronous, Schedule::Sweep] {
            let opts = options(schedule, 0.2);
            let (cached, _) = engine.run(&mrf, &opts);
            let (reference, _) = engine.without_message_cache().run(&mrf, &opts);
            // Pointwise fallback + hoisted priors/anchors: pure-function
            // reuse, so equality is exact.
            assert_beliefs_close(&cached, &reference, 0.0);
        }
    });
}

/// The same random geometry as [`random_mrf`] but with proximity
/// potentials, whose kernels factorize exactly — the cached engine runs
/// them through the two-pass separable scatter.
fn random_proximity_mrf(rng: &mut Xoshiro256pp) -> SpatialMrf {
    let domain = Aabb::from_size(100.0, 100.0);
    let n = 4 + rng.index(4);
    let mut mrf = SpatialMrf::new(n, domain, Arc::new(UniformBoxUnary(domain)));
    let pts: Vec<Vec2> = (0..n)
        .map(|_| rng.point_in(domain.min, domain.max))
        .collect();
    mrf.fix(0, pts[0]);
    mrf.fix(1, pts[1]);
    for u in 1..n {
        let sigma = 6.0 + 10.0 * rng.f64();
        mrf.add_edge(u - 1, u, Arc::new(GaussianProximity { sigma }));
    }
    for u in 0..n {
        for v in (u + 2)..n {
            if pts[u].dist(pts[v]) < 60.0 && rng.f64() < 0.5 {
                let sigma = 6.0 + 10.0 * rng.f64();
                mrf.add_edge(u, v, Arc::new(GaussianProximity { sigma }));
            }
        }
    }
    mrf
}

/// Separable-vs-dense: proximity kernels classify separable (asserted),
/// and the cached two-pass scatter matches the reference pointwise path
/// within the f64 contract.
#[test]
fn separable_kernels_match_reference_on_random_mrfs() {
    check::cases(CASES / 2, |_, rng| {
        let sigma = 6.0 + 10.0 * rng.f64();
        let st = KernelStencil::build(
            &GaussianProximity { sigma },
            18,
            18,
            100.0 / 18.0,
            100.0 / 18.0,
        )
        .expect("proximity potential discretizes");
        assert_eq!(st.kind_name(), "separable");
        let mrf = random_proximity_mrf(rng);
        let engine = GridBp::with_resolution(18);
        for schedule in [Schedule::Synchronous, Schedule::Sweep] {
            let opts = options(schedule, 0.2);
            let (cached, co) = engine.run(&mrf, &opts);
            let (reference, ro) = engine.without_message_cache().run(&mrf, &opts);
            assert_eq!(co.iterations, ro.iterations);
            assert_beliefs_close(&cached, &reference, PER_CELL_TOLERANCE);
        }
    });
}

/// The default ring kernels of [`random_mrf`] are not rank-1, so they
/// classify dense with the full table stored, and the main equivalence
/// property above pins their cached runs to the reference within
/// 1e-12 — this test makes the classification explicit.
#[test]
fn range_kernels_classify_dense() {
    check::cases(CASES / 2, |_, rng| {
        let pot = GaussianRange {
            observed: 10.0 + 50.0 * rng.f64(),
            sigma: 2.0 + 4.0 * rng.f64(),
        };
        let st =
            KernelStencil::build(&pot, 18, 18, 100.0 / 18.0, 100.0 / 18.0).expect("discretizes");
        assert_eq!(st.kind_name(), "dense");
        let full = (2 * st.rx() as usize + 1) * (2 * st.ry() as usize + 1);
        assert_eq!(st.stored_len(), full);
    });
}

/// A potential publishing a randomized *asymmetric* kernel table: no
/// radial symmetry, no rank-1 structure. Classification must fall back
/// to the dense scatter rather than mis-folding the table.
#[derive(Debug)]
struct AsymmetricKernel {
    seed: u64,
    radius: f64,
}

impl PairPotential for AsymmetricKernel {
    fn log_likelihood(&self, d: f64) -> f64 {
        -d / self.radius
    }

    fn sample_distance(&self, rng: &mut Xoshiro256pp) -> f64 {
        rng.range(0.0, self.radius)
    }

    fn max_distance(&self) -> Option<f64> {
        Some(self.radius)
    }

    fn discretized_kernel(&self, _dx: f64, _dy: f64, rx: usize, ry: usize) -> Option<Vec<f64>> {
        let mut rng = Xoshiro256pp::seed_from(self.seed);
        Some(
            (0..(2 * rx + 1) * (2 * ry + 1))
                .map(|_| rng.range(0.1, 1.0))
                .collect(),
        )
    }
}

/// Dense-fallback proof: randomized asymmetric kernels classify dense,
/// and the dense scatter reproduces the brute-force table scatter
/// exactly (same table values, same accumulation targets).
#[test]
fn asymmetric_kernels_fall_back_to_dense_scatter() {
    check::cases(8, |case, rng| {
        let (nx, ny) = (14, 11);
        let (dx, dy) = (100.0 / nx as f64, 100.0 / ny as f64);
        let pot = AsymmetricKernel {
            seed: 0xA5A5 + case,
            radius: 15.0 + 20.0 * rng.f64(),
        };
        let st = KernelStencil::build(&pot, nx, ny, dx, dy).expect("kernel table provided");
        assert_eq!(st.kind_name(), "dense");
        let (rx, ry) = (st.rx() as usize, st.ry() as usize);
        let table = pot
            .discretized_kernel(dx, dy, rx, ry)
            .expect("table exists");
        let src: Vec<f64> = (0..nx * ny).map(|_| rng.range(0.0, 1.0)).collect();
        let mut out = vec![0.0f64; nx * ny];
        let mut scratch = Vec::new();
        st.scatter(&src, nx, 0.0, &mut out, &mut scratch);
        // Brute-force reference straight off the published table.
        let mut want = vec![0.0f64; nx * ny];
        let w = 2 * rx + 1;
        for (s, &m) in src.iter().enumerate() {
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
        let mrf = random_mrf(rng, false);
        let engine = GridBp::with_resolution(16);
        let opts = options(Schedule::Synchronous, 0.1);
        let (a, _) = engine.run(&mrf, &opts);
        let (b, _) = engine.run(&mrf, &opts);
        assert_beliefs_close(&a, &b, 0.0);
    });
}
