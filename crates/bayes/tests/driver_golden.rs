//! Golden bit-identity contract for the BP iteration loop.
//!
//! Every flat engine — grid, particle and Gaussian — runs a small matrix of
//! schedule × damping × transport × start, and one [`ShardedEngine`] per
//! backend runs on a perfect and on a faulted transport. Each case folds
//! into one FNV-1a digest of:
//!
//! - the final belief bits and the [`BpOutcome`](wsnloc_bayes::BpOutcome);
//! - the beliefs handed to `on_iter` after every iteration;
//! - the [`TraceObserver`] record with timing fields dropped: the run
//!   info; per iteration the `max_shift`, residuals, KL and comm; the
//!   span kinds in order; the events as a sorted multiset (parallel
//!   updates may emit them in any order); and the run summary.
//!
//! The constants below pin those digests, so a change to the driver, the
//! transport delivery lookup or a backend's node update that moves a
//! single bit fails here and names the case.
//!
//! The cached grid path accumulates through the runtime-dispatched
//! AVX2+FMA kernel, whose fused rounding differs from the portable loop,
//! so the constants hold on x86-64 hosts with AVX2 and FMA. Elsewhere the
//! test still runs the whole matrix twice and requires identical digests.

use std::sync::Arc;
use wsnloc_bayes::{
    BpEngine, BpOptions, GaussianBelief, GaussianBp, GaussianRange, GaussianUnary, GridBelief,
    GridBp, ParticleBelief, ParticleBp, RunOutcome, Schedule, ShardedEngine, SpatialMrf, Transport,
    UniformBoxUnary,
};
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, ShardLayout, Vec2};
use wsnloc_net::faults::{DeathModel, DropPolicy, FaultPlan};
use wsnloc_obs::{RunTrace, TraceObserver};

/// `(case, digest)`, in the order [`cases`] produces them.
const GOLDEN: &[(&str, u64)] = &[
    ("grid/synchronous/d0/perfect/cold", 0x227e7e85d7d2a158),
    ("grid/synchronous/d0/perfect/carried", 0xebfec53bbf2bbe7e),
    ("grid/synchronous/d0/faulted/cold", 0x6e839bbcc8b43a99),
    ("grid/synchronous/d0/faulted/carried", 0x0b88b1ccdbae1cac),
    ("grid/synchronous/d0.3/perfect/cold", 0x6ae4fee233595db3),
    ("grid/synchronous/d0.3/perfect/carried", 0xa3b0ad439665a578),
    ("grid/synchronous/d0.3/faulted/cold", 0x78bdc9d55cb4e85c),
    ("grid/synchronous/d0.3/faulted/carried", 0x9615ac7296ee6cdc),
    ("grid/sweep/d0/perfect/cold", 0xc095bf41c1478f80),
    ("grid/sweep/d0/perfect/carried", 0x6eac5e1d1b5ed96a),
    ("grid/sweep/d0/faulted/cold", 0xd680a6ce89486177),
    ("grid/sweep/d0/faulted/carried", 0x9011df797ab6728a),
    ("grid/sweep/d0.3/perfect/cold", 0x6d97ed40aee60bdd),
    ("grid/sweep/d0.3/perfect/carried", 0x76ab70664da884cc),
    ("grid/sweep/d0.3/faulted/cold", 0xad04c1eca5764f6a),
    ("grid/sweep/d0.3/faulted/carried", 0x39aff726bd4b88ca),
    ("particle/synchronous/d0/perfect/cold", 0x4aaa3676871ec40a),
    (
        "particle/synchronous/d0/perfect/carried",
        0x3b149dc4dba1872b,
    ),
    ("particle/synchronous/d0/faulted/cold", 0x4daa4e38f3eeb964),
    (
        "particle/synchronous/d0/faulted/carried",
        0xa073ab509e4b183d,
    ),
    ("particle/synchronous/d0.3/perfect/cold", 0x9ed383ba7bd912a1),
    (
        "particle/synchronous/d0.3/perfect/carried",
        0x3ec794266a178b0c,
    ),
    ("particle/synchronous/d0.3/faulted/cold", 0xbefdc639e18ce129),
    (
        "particle/synchronous/d0.3/faulted/carried",
        0x0876ea1c3e21a199,
    ),
    ("particle/sweep/d0/perfect/cold", 0xc0e8bc31f1f9a377),
    ("particle/sweep/d0/perfect/carried", 0x6f23d8959ed75b7d),
    ("particle/sweep/d0/faulted/cold", 0x1ca00723d216ef76),
    ("particle/sweep/d0/faulted/carried", 0x54aaf2030247117f),
    ("particle/sweep/d0.3/perfect/cold", 0x0a8d04ce44416b85),
    ("particle/sweep/d0.3/perfect/carried", 0x0ace20f7ae7b57e3),
    ("particle/sweep/d0.3/faulted/cold", 0xa93aeddb5f31a7b3),
    ("particle/sweep/d0.3/faulted/carried", 0x75d3b52795dd2d23),
    ("gaussian/synchronous/d0/perfect/cold", 0xcf4025a8b15b9df5),
    (
        "gaussian/synchronous/d0/perfect/carried",
        0x4f68d17b9ca45b55,
    ),
    ("gaussian/synchronous/d0/faulted/cold", 0x81d033feb9a02dda),
    (
        "gaussian/synchronous/d0/faulted/carried",
        0x4be56d24c0afe045,
    ),
    ("gaussian/synchronous/d0.3/perfect/cold", 0xbd07e41fc59d3c40),
    (
        "gaussian/synchronous/d0.3/perfect/carried",
        0x0b5a190e99989e76,
    ),
    ("gaussian/synchronous/d0.3/faulted/cold", 0x8f69ec1ecd18dbd3),
    (
        "gaussian/synchronous/d0.3/faulted/carried",
        0x8ccac166e51416da,
    ),
    ("gaussian/sweep/d0/perfect/cold", 0xd4524d06bf1ed7f6),
    ("gaussian/sweep/d0/perfect/carried", 0x59a8769cb6337e51),
    ("gaussian/sweep/d0/faulted/cold", 0x2427e239acd5e91c),
    ("gaussian/sweep/d0/faulted/carried", 0xeaf6089a3668fc7f),
    ("gaussian/sweep/d0.3/perfect/cold", 0x04cabe89d455d5bb),
    ("gaussian/sweep/d0.3/perfect/carried", 0x72d126f963159a3d),
    ("gaussian/sweep/d0.3/faulted/cold", 0x71275a2ac9d5b191),
    ("gaussian/sweep/d0.3/faulted/carried", 0x5b73452255e14ed0),
    ("sharded-grid/perfect", 0x77a7c6d9d8197fdf),
    ("sharded-grid/faulted", 0x6016ab9872a3ac6f),
    ("sharded-particle/perfect", 0xadf8fb4bba7249ac),
    ("sharded-particle/faulted", 0x9af3818a8514af2c),
    ("sharded-gaussian/perfect", 0x449f4321e9f1f637),
    ("sharded-gaussian/faulted", 0x7a45048f7085e6cb),
    ("gaussian-forked/perfect/cold", 0xbb013fac2eea24cc),
    ("gaussian-forked/perfect/carried", 0x32fc49a24c4ac12c),
    ("gaussian-forked/faulted/cold", 0xe1e9e3ecefe3f773),
    ("gaussian-forked/faulted/carried", 0x1ffcce983e1979cb),
    ("gaussian-drop/cold", 0x9a0b098053320680),
    ("gaussian-drop/carried", 0xec173fb1c4f3c775),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn vec2(&mut self, v: Vec2) {
        self.f64(v.x);
        self.f64(v.y);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

/// Belief bits for the digest.
trait Digest {
    fn digest(&self, h: &mut Fnv);
}

impl Digest for GridBelief {
    fn digest(&self, h: &mut Fnv) {
        h.vec2(self.domain().min);
        h.vec2(self.domain().max);
        h.usize(self.nx());
        h.usize(self.ny());
        for &m in self.mass() {
            h.f64(m);
        }
    }
}

impl Digest for ParticleBelief {
    fn digest(&self, h: &mut Fnv) {
        h.usize(self.len());
        for (&p, &w) in self.particles().iter().zip(self.weights()) {
            h.vec2(p);
            h.f64(w);
        }
    }
}

impl Digest for GaussianBelief {
    fn digest(&self, h: &mut Fnv) {
        h.vec2(self.mean);
        for &c in &self.cov {
            h.f64(c);
        }
    }
}

fn digest_beliefs<B: Digest>(h: &mut Fnv, beliefs: &[B]) {
    h.usize(beliefs.len());
    for b in beliefs {
        b.digest(h);
    }
}

/// The trace with every timing field dropped.
fn digest_trace(h: &mut Fnv, runs: &[RunTrace]) {
    h.usize(runs.len());
    for run in runs {
        let i = &run.info;
        h.str(i.backend);
        h.usize(i.nodes);
        h.usize(i.free);
        h.usize(i.edges);
        h.usize(i.max_iterations);
        h.f64(i.tolerance);
        h.f64(i.damping);
        h.str(i.schedule);
        h.u64(i.message_bytes);
        h.u64(i.seed);
        h.usize(run.iterations.len());
        for rec in &run.iterations {
            h.usize(rec.iteration);
            h.f64(rec.max_shift);
            h.u64(rec.comm.messages);
            h.u64(rec.comm.bytes);
            h.f64(rec.damping);
            h.str(rec.schedule);
            h.usize(rec.residuals.len());
            for r in &rec.residuals {
                h.usize(r.node);
                h.f64(r.residual);
                match r.kl {
                    Some(kl) => {
                        h.u64(1);
                        h.f64(kl);
                    }
                    None => h.u64(0),
                }
            }
        }
        h.usize(run.spans.len());
        for (kind, _secs) in &run.spans {
            h.str(kind.label());
        }
        let mut events: Vec<String> = run.events.iter().map(|e| format!("{e:?}")).collect();
        events.sort();
        h.usize(events.len());
        for e in &events {
            h.str(e);
        }
        match &run.summary {
            Some(s) => {
                h.u64(1);
                h.usize(s.iterations);
                h.u64(u64::from(s.converged));
                h.u64(s.comm.messages);
                h.u64(s.comm.bytes);
            }
            None => h.u64(0),
        }
    }
}

/// The pinned grid bench fixture: a 3×3 lattice on a 300×300 m field,
/// opposite corners anchored, ranging edges between lattice neighbors.
fn lattice9() -> SpatialMrf {
    let domain = Aabb::from_size(300.0, 300.0);
    let mut mrf = SpatialMrf::new(9, domain, Arc::new(UniformBoxUnary(domain)));
    let pts: Vec<Vec2> = (0..9)
        .map(|i| Vec2::new(50.0 + 100.0 * (i % 3) as f64, 50.0 + 100.0 * (i / 3) as f64))
        .collect();
    mrf.fix(0, pts[0]);
    mrf.fix(8, pts[8]);
    for i in 0..9 {
        for j in (i + 1)..9 {
            if pts[i].dist(pts[j]) < 150.0 {
                mrf.add_edge(
                    i,
                    j,
                    Arc::new(GaussianRange {
                        observed: pts[i].dist(pts[j]),
                        sigma: 5.0,
                    }),
                );
            }
        }
    }
    mrf
}

/// `n` random nodes (3 anchored) on a `side`×`side` m field with a 120 m
/// ranging radius, plus their positions. `cooperative(25, 300.0)` is the
/// pinned particle bench fixture.
fn cooperative(n: usize, side: f64) -> (SpatialMrf, Vec<Vec2>) {
    let domain = Aabb::from_size(side, side);
    let mut mrf = SpatialMrf::new(n, domain, Arc::new(UniformBoxUnary(domain)));
    let mut rng = Xoshiro256pp::seed_from(9);
    let pts: Vec<Vec2> = (0..n)
        .map(|_| rng.point_in(domain.min, domain.max))
        .collect();
    for (i, &p) in pts.iter().enumerate().take(3) {
        mrf.fix(i, p);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if pts[i].dist(pts[j]) < 120.0 {
                mrf.add_edge(
                    i,
                    j,
                    Arc::new(GaussianRange {
                        observed: pts[i].dist(pts[j]),
                        sigma: 5.0,
                    }),
                );
            }
        }
    }
    (mrf, pts)
}

/// Loss, bursty staleness, node deaths, asymmetric links and decaying
/// held messages, all at once.
fn faulted() -> Transport {
    Transport::faulted(Arc::new(
        FaultPlan::iid_loss(0xF00D, 0.3)
            .with_stale_prob(0.25)
            .with_drop_policy(DropPolicy::DecayToPrior { decay: 0.6 })
            .with_deaths(DeathModel::Random {
                fraction: 0.2,
                at_iteration: 2,
            })
            .with_asymmetry(0.1),
    ))
}

fn options(schedule: Schedule, damping: f64) -> BpOptions {
    BpOptions::builder()
        .max_iterations(5)
        .tolerance(0.25)
        .damping(damping)
        .schedule(schedule)
        .seed(7)
        .message_bytes(16)
        .try_build()
        .expect("valid options")
}

/// The carried beliefs of the carried cases: a short cold perfect run.
fn carried<E: BpEngine>(engine: &E, mrf: &SpatialMrf) -> Vec<E::Belief> {
    let opts = BpOptions::builder()
        .max_iterations(2)
        .tolerance(0.0)
        .seed(3)
        .try_build()
        .expect("valid options");
    engine.run(mrf, &opts).0
}

/// One traced run, digested.
fn traced<E, R>(engine: &E, run: R) -> u64
where
    E: BpEngine,
    E::Belief: Digest,
    R: FnOnce(&E, &TraceObserver, &mut dyn FnMut(usize, &[E::Belief])) -> RunOutcome<E::Belief>,
{
    let tracer = TraceObserver::new();
    let mut per_iter = Fnv::new();
    let out = run(engine, &tracer, &mut |iter, beliefs| {
        per_iter.usize(iter);
        digest_beliefs(&mut per_iter, beliefs);
    });
    let mut h = Fnv::new();
    digest_beliefs(&mut h, &out.beliefs);
    h.usize(out.bp.iterations);
    h.u64(u64::from(out.bp.converged));
    h.u64(out.bp.messages);
    h.u64(per_iter.0);
    digest_trace(&mut h, &tracer.take_runs());
    h.0
}

/// The flat matrix for one engine: schedule × damping × transport ×
/// start (cold, carried).
fn flat_cases<E>(label: &str, engine: &E, mrf: &SpatialMrf, out: &mut Vec<(String, u64)>)
where
    E: BpEngine,
    E::Belief: Digest,
{
    let carried = carried(engine, mrf);
    for schedule in [Schedule::Synchronous, Schedule::Sweep] {
        for damping in [0.0, 0.3] {
            let opts = options(schedule, damping);
            for (tname, transport) in [("perfect", Transport::perfect()), ("faulted", faulted())] {
                let prefix = format!("{label}/{}/d{damping}/{tname}", schedule.name());
                let cold = traced(engine, |e, obs, f| {
                    e.run_carried(mrf, &opts, &transport, None, obs, f)
                });
                out.push((format!("{prefix}/cold"), cold));
                let carry = traced(engine, |e, obs, f| {
                    e.run_carried(mrf, &opts, &transport, Some(&carried), obs, f)
                });
                out.push((format!("{prefix}/carried"), carry));
            }
        }
    }
}

/// One sharded engine over a 2×2 layout, perfect and faulted.
fn sharded_cases<E>(
    label: &str,
    inner: E,
    mrf: &SpatialMrf,
    pts: &[Vec2],
    out: &mut Vec<(String, u64)>,
) where
    E: BpEngine,
    E::Belief: Digest,
{
    let layout = Arc::new(ShardLayout::build(mrf.domain(), 2, 2, pts, 120.0));
    assert!(layout.occupied_shards() > 1, "the layout must really shard");
    let engine = ShardedEngine::new(inner, layout);
    let perfect = options(Schedule::Synchronous, 0.0);
    let d = traced(&engine, |e, obs, f| {
        e.run_carried(mrf, &perfect, &Transport::perfect(), None, obs, f)
    });
    out.push((format!("sharded-{label}/perfect"), d));
    let swept = options(Schedule::Sweep, 0.3);
    let d = traced(&engine, |e, obs, f| {
        e.run_carried(mrf, &swept, &faulted(), None, obs, f)
    });
    out.push((format!("sharded-{label}/faulted"), d));
}

/// Gaussian cold and carried on a fixture with 93 free nodes, under a
/// four-thread pool: above the pool's fork threshold, so these digests
/// pin a prior init and node updates split across chunk jobs (the
/// fixtures above are small enough to run every map inline). The
/// faulted rows kill 20% of the free nodes at iteration 2, so a forked
/// synchronous step carries dead nodes. The `gaussian-drop` rows give
/// every free node a [`GaussianUnary`] drop-point prior, the shape whose
/// prior moments are exact rather than sampled.
fn forked_gaussian_cases(out: &mut Vec<(String, u64)>) {
    let (mrf, pts) = cooperative(96, 600.0);
    assert!(mrf.free_vars().len() >= 64, "the fixture must fork");
    let drop = drop_priors(cooperative(96, 600.0).0, &pts);
    let opts = options(Schedule::Synchronous, 0.0);
    rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("shim pool build is infallible")
        .install(|| {
            let forked_carried = carried(&GaussianBp, &mrf);
            for (tname, transport) in [("perfect", Transport::perfect()), ("faulted", faulted())] {
                let cold = traced(&GaussianBp, |e, obs, f| {
                    e.run_carried(&mrf, &opts, &transport, None, obs, f)
                });
                out.push((format!("gaussian-forked/{tname}/cold"), cold));
                let carry = traced(&GaussianBp, |e, obs, f| {
                    e.run_carried(&mrf, &opts, &transport, Some(&forked_carried), obs, f)
                });
                out.push((format!("gaussian-forked/{tname}/carried"), carry));
            }
            let drop_carried = carried(&GaussianBp, &drop);
            let transport = faulted();
            let cold = traced(&GaussianBp, |e, obs, f| {
                e.run_carried(&drop, &opts, &transport, None, obs, f)
            });
            out.push(("gaussian-drop/cold".to_string(), cold));
            let carry = traced(&GaussianBp, |e, obs, f| {
                e.run_carried(&drop, &opts, &transport, Some(&drop_carried), obs, f)
            });
            out.push(("gaussian-drop/carried".to_string(), carry));
        });
}

/// `mrf` with a σ = 40 m [`GaussianUnary`] per free node, centered a
/// seeded σ-scale draw away from the node's true position in `pts`.
fn drop_priors(mut mrf: SpatialMrf, pts: &[Vec2]) -> SpatialMrf {
    const SIGMA: f64 = 40.0;
    let mut rng = Xoshiro256pp::seed_from(11);
    for u in mrf.free_vars() {
        let mean = rng.gaussian_point(pts[u], SIGMA);
        mrf.set_unary(u, Arc::new(GaussianUnary { mean, sigma: SIGMA }));
    }
    mrf
}

fn cases() -> Vec<(String, u64)> {
    let lattice = lattice9();
    let (coop, pts) = cooperative(25, 300.0);
    let mut out = Vec::new();
    flat_cases("grid", &GridBp::with_resolution(16), &lattice, &mut out);
    flat_cases("particle", &ParticleBp::with_particles(40), &coop, &mut out);
    flat_cases("gaussian", &GaussianBp, &coop, &mut out);
    sharded_cases("grid", GridBp::with_resolution(16), &coop, &pts, &mut out);
    sharded_cases(
        "particle",
        ParticleBp::with_particles(40),
        &coop,
        &pts,
        &mut out,
    );
    sharded_cases("gaussian", GaussianBp, &coop, &pts, &mut out);
    forked_gaussian_cases(&mut out);
    out
}

/// Whether this host runs the kernel path the constants were captured on.
fn golden_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[test]
fn driver_digests_match_the_golden_constants() {
    let got = cases();
    if !golden_host() {
        assert_eq!(got, cases(), "two runs of the matrix must digest equally");
        return;
    }
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let mismatched: Vec<&str> = got
        .iter()
        .zip(GOLDEN.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((name, d), want)| *want != Some(&(name.as_str(), *d)))
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        mismatched.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} cases differ from the golden digests (first: {:?}); \
         digests of this tree:\n{table}",
        mismatched.len(),
        got.len(),
        mismatched.first(),
    );
}
