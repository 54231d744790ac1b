//! `stream-particle`: one `StreamingEngine` hosting 64 tenants, each a
//! 30-node `planned_square_drop(400, 3, 40)` network on a `particle(50)`
//! backend with a 2-iteration budget and a `random_walk(2.0)` motion
//! model. Closed loop: every tenant submits its next epoch only after
//! the previous tick returned its update; ticks run back to back after
//! one warm-up tick. A short capped phase (capacity 32) follows, where
//! the session layer coasts instead of solving.
//!
//! This is the serving path — warm carry-over, predict, the per-tenant
//! `MetricsObserver` + `WindowedMetrics` folds, admission, and
//! tenant-level pool parallelism over small particle solves.

use crate::{
    digest, mix, timed, ErrorPool, Metric, PoolDeltas, Report, RunConfig, Samples, ServeFold, Size,
    SpanSamples,
};
use std::time::Instant;
use wsnloc::model::{build_mrf, ModelOptions};
use wsnloc::session::LocalizationSession;
use wsnloc::{Backend, BnlLocalizer, CarriedBeliefs, MotionModel, PriorModel};
use wsnloc_bayes::{BpEngine, BpOptions, ParticleBp, Transport};
use wsnloc_net::network::NetworkBuilder;
use wsnloc_net::{
    AnchorStrategy, Deployment, DropPolicy, GroundTruth, Network, RadioModel, RangingModel,
};
use wsnloc_obs::{NullObserver, TraceObserver};
use wsnloc_serve::{
    EngineConfig, MeasurementEpoch, PositionUpdate, SessionConfig, StreamingEngine,
};

/// Particles each unknown node broadcasts (the localizer's default),
/// which is also the particle engine's mixture subsample size.
const BROADCAST_PARTICLES: usize = 24;
/// Ticks of the capped phase, at half the tenants per tick.
pub const CAPPED_TICKS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Params {
    tenants: usize,
    nodes: usize,
    particles: usize,
    iterations: usize,
    setup_reps: usize,
    /// Minimum timed ticks, whatever `--seconds` says.
    min_ticks: usize,
    /// Ticks whose updates `rmse_m` pools (fixed, so it is exact per seed).
    rmse_ticks: usize,
    /// Tenants the traced run also solves with a fold and a trace.
    probes: usize,
}

impl Params {
    fn of(size: Size) -> Params {
        match size {
            Size::Full => Params {
                tenants: 64,
                nodes: 30,
                particles: 50,
                iterations: 2,
                setup_reps: 5,
                min_ticks: 8,
                rmse_ticks: 8,
                probes: 8,
            },
            Size::Toy => Params {
                tenants: 4,
                nodes: 30,
                particles: 20,
                iterations: 2,
                setup_reps: 2,
                min_ticks: 3,
                rmse_ticks: 2,
                probes: 2,
            },
        }
    }
}

fn localizer(p: Params) -> BnlLocalizer {
    BnlLocalizer::builder(Backend::particle(p.particles).expect("particles is at least 1"))
        .max_iterations(p.iterations)
        .tolerance(0.0)
        .broadcast_particles(BROADCAST_PARTICLES)
        .try_build()
        .expect("stream-particle localizer options are valid")
}

fn motion() -> MotionModel {
    MotionModel::random_walk(2.0)
}

/// BP seed of epoch `e` (every tenant's network differs, so tenants may
/// share epoch seeds).
fn epoch_seed(seed: u64, e: u64) -> u64 {
    mix(seed, 0xE90C ^ e)
}

fn tenant_network(seed: u64, nodes: usize, u: usize) -> (Network, GroundTruth) {
    NetworkBuilder {
        deployment: Deployment::planned_square_drop(400.0, 3, 40.0),
        node_count: nodes,
        anchors: AnchorStrategy::Random { count: 5 },
        radio: RadioModel::UnitDisk { range: 150.0 },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
    }
    .build(mix(seed, 0x57EA ^ u as u64))
}

struct Setup {
    nets: Vec<(Network, GroundTruth)>,
    engine: StreamingEngine,
    ids: Vec<wsnloc_serve::SessionId>,
    build_secs: Samples,
}

fn open(engine: &mut StreamingEngine, p: Params) -> Vec<wsnloc_serve::SessionId> {
    let cfg = SessionConfig::new(localizer(p)).with_motion(motion());
    (0..p.tenants)
        .map(|_| engine.open_session(cfg.clone()))
        .collect()
}

fn submit(
    engine: &mut StreamingEngine,
    ids: &[wsnloc_serve::SessionId],
    nets: &[(Network, GroundTruth)],
    seed: u64,
) {
    for (id, (net, _)) in ids.iter().zip(nets) {
        engine.submit(*id, MeasurementEpoch::new(net.clone(), seed));
    }
}

fn updates_digest(updates: &[PositionUpdate]) -> u64 {
    updates.iter().fold(0u64, |h, u| {
        mix(h, digest(&u.result) ^ u64::from(u.degraded))
    })
}

/// Checks one full-capacity tick; returns how many updates failed.
fn check_tick(
    report: &mut Report,
    updates: &[PositionUpdate],
    nets: &[(Network, GroundTruth)],
    label: &str,
) -> u64 {
    report.gate.check(updates.len() == nets.len(), || {
        format!(
            "{label}: {} updates for {} tenants",
            updates.len(),
            nets.len()
        )
    });
    let mut failed = 0;
    for (u, (net, _)) in updates.iter().zip(nets) {
        report.gate.check(!u.degraded, || {
            format!("{label}: tenant {} degraded at full capacity", u.tenant)
        });
        let finite = report
            .gate
            .finite_estimates(&u.result, net, &format!("{label} {}", u.tenant));
        if u.degraded || !finite {
            failed += 1;
        }
    }
    failed
}

/// Generates the tenant networks, opens the engine's sessions and runs
/// the warm-up tick, `setup_reps` times; every repetition must produce
/// bit-identical warm-up updates.
fn setup(cfg: &RunConfig, p: Params, report: &mut Report) -> Setup {
    let mut setup_secs = Samples::new();
    let mut build_secs = Samples::new();
    let mut first_digest = None;
    let mut last = None;
    for _ in 0..p.setup_reps {
        let start = Instant::now();
        let nets: Vec<(Network, GroundTruth)> = (0..p.tenants)
            .map(|u| {
                let (net, secs) = timed(|| tenant_network(cfg.seed, p.nodes, u));
                build_secs.push(secs);
                net
            })
            .collect();
        let mut engine = StreamingEngine::new(EngineConfig::default());
        let ids = open(&mut engine, p);
        submit(&mut engine, &ids, &nets, epoch_seed(cfg.seed, 0));
        let warm = engine.tick();
        setup_secs.push(start.elapsed().as_secs_f64());
        check_tick(report, &warm, &nets, "warm-up tick");
        let d = updates_digest(&warm);
        report
            .gate
            .same_digest(*first_digest.get_or_insert(d), d, "stream warm-up tick");
        last = Some((nets, engine, ids, warm));
    }
    let (nets, engine, ids, warm) = last.expect("at least one set-up repetition");
    report.end_to_end.push(setup_secs.median_metric(
        "setup_s",
        "s",
        "tenant networks + engine + sessions + one warm-up tick",
    ));
    report.input = vec![
        ("tenants", p.tenants as u64),
        ("nodes", nets.iter().map(|(n, _)| n.len() as u64).sum()),
        (
            "edges",
            nets.iter()
                .map(|(n, _)| n.measurements().len() as u64)
                .sum(),
        ),
        (
            "anchors",
            nets.iter().map(|(n, _)| n.anchor_count() as u64).sum(),
        ),
        ("shards", 1),
        ("particles", p.particles as u64),
        ("iterations", p.iterations as u64),
        (
            "messages_warmup_tick",
            warm.iter().map(|u| u.result.comm.messages).sum(),
        ),
    ];
    Setup {
        nets,
        engine,
        ids,
        build_secs,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let p = Params::of(cfg.size);
    let mut report = Report::new(cfg);
    let mut s = setup(cfg, p, &mut report);
    if cfg.trace {
        trace(cfg, p, &mut s, &mut report);
    } else {
        measure(cfg, p, &mut s, &mut report);
    }
    capped(cfg, p, &s.nets, &mut report);
    report
}

/// Untraced: full-capacity ticks back to back for `seconds` (at least
/// `min_ticks`).
fn measure(cfg: &RunConfig, p: Params, s: &mut Setup, report: &mut Report) {
    let mut tick = Samples::new();
    let mut errors = ErrorPool::default();
    let mut admitted = 0u64;
    let start = Instant::now();
    let mut e = 1u64;
    while tick.len() < p.min_ticks || start.elapsed().as_secs_f64() < cfg.seconds {
        submit(&mut s.engine, &s.ids, &s.nets, epoch_seed(cfg.seed, e));
        let (mut updates, secs) = timed(|| s.engine.tick());
        tick.push(secs);
        if cfg.inject_nonfinite && e == 1 {
            if let Some(u) = s.nets[0].0.unknowns().next() {
                updates[0].result.estimates[u] = Some(wsnloc_geom::Vec2::new(f64::INFINITY, 0.0));
            }
        }
        report.attempted += updates.len() as u64;
        report.failed += check_tick(report, &updates, &s.nets, &format!("tick {e}"));
        admitted += updates.iter().filter(|u| !u.degraded).count() as u64;
        if tick.len() <= p.rmse_ticks {
            for (u, (net, truth)) in updates.iter().zip(&s.nets) {
                errors.add(&u.result, net, truth);
            }
        }
        e += 1;
    }
    let e2e = &mut report.end_to_end;
    e2e.push(tick.median_metric(
        "tick_p50_s",
        "s",
        "StreamingEngine::tick, all tenants admitted",
    ));
    match tick.supported_quantile(0.9) {
        Some(v) => e2e.push(Metric::new("tick_p90_s", "s", v, tick.len(), "tick p90")),
        None => report.notes.push(format!(
            "tick_p90_s: not reported ({} ticks; needs at least 100)",
            tick.len()
        )),
    }
    e2e.push(Metric::new(
        "epochs_per_s",
        "1/s",
        admitted as f64 / tick.sum(),
        tick.len(),
        "admitted tenant-epochs / summed tick wall time",
    ));
    e2e.push(Metric::new(
        "rmse_m",
        "m",
        errors.rmse(),
        errors.count(),
        &format!(
            "RMSE over unknown nodes, first {} timed ticks",
            p.rmse_ticks
        ),
    ));
    e2e.push(Metric::new(
        "fail_frac",
        "1",
        report.failed as f64 / report.attempted as f64,
        report.attempted as usize,
        "tenant-epochs degraded or lacking a finite estimate",
    ));
}

/// The capped phase: a fresh engine admitting half the tenants per tick
/// for [`CAPPED_TICKS`] ticks. Round-robin admission makes the admitted
/// and shed counts exact.
fn capped(cfg: &RunConfig, p: Params, nets: &[(Network, GroundTruth)], report: &mut Report) {
    let capacity = p.tenants / 2;
    let mut engine = StreamingEngine::new(EngineConfig {
        capacity_per_tick: capacity,
        shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
    });
    let ids = open(&mut engine, p);
    let (mut admitted, mut shed) = (0u64, 0u64);
    let mut tick = Samples::new();
    for e in 0..CAPPED_TICKS as u64 {
        submit(&mut engine, &ids, nets, epoch_seed(cfg.seed, e));
        let (updates, secs) = timed(|| engine.tick());
        tick.push(secs);
        for (u, (net, _)) in updates.iter().zip(nets) {
            if u.degraded {
                shed += 1;
            } else {
                admitted += 1;
                report.gate.finite_estimates(
                    &u.result,
                    net,
                    &format!("capped tick {e} {}", u.tenant),
                );
            }
        }
    }
    let want = (CAPPED_TICKS * capacity) as u64;
    report.gate.check(admitted == want && shed == want, || {
        format!("capped phase admitted/shed {admitted}/{shed}, expected {want}/{want}")
    });
    report.input.push(("capped_admitted", admitted));
    report.input.push(("capped_shed", shed));
    report.notes.push(format!(
        "capped phase: capacity {capacity}, {admitted} admitted / {shed} shed over {CAPPED_TICKS} ticks, tick median {:.6} s (n={})",
        tick.median(),
        tick.len()
    ));
}

/// Traced: each tick is followed by the same epoch on sequential
/// shadow sessions (one per tenant, `NullObserver`), which must match
/// the engine's updates bit for bit; `probes` tenants are also solved
/// with the serve fold and with a `TraceObserver`, and tenant 0's epoch
/// is rebuilt from the layers' public calls.
fn trace(cfg: &RunConfig, p: Params, s: &mut Setup, report: &mut Report) {
    let threads = report.host.pool_threads as f64;
    let loc = localizer(p);
    let motion = motion();
    let seed0 = epoch_seed(cfg.seed, 0);
    let mut shadows: Vec<LocalizationSession> = s
        .nets
        .iter()
        .map(|(net, _)| {
            let mut session = LocalizationSession::new(loc.clone()).with_motion(motion);
            let _ = session.advance(net, seed0);
            session
        })
        .collect();

    let mut particle = ParticleBp::with_particles(p.particles);
    particle.mixture_samples = BROADCAST_PARTICLES;
    let model = |net: &Network, seed: u64| {
        build_mrf(
            net,
            &PriorModel::Uninformative,
            &ModelOptions {
                negative_constraints_per_node: 0,
                seed: seed ^ 0x9E37_79B9,
            },
        )
    };
    let opts_for = |seed: u64| {
        BpOptions::builder()
            .max_iterations(p.iterations)
            .tolerance(0.0)
            .seed(seed)
            .try_build()
            .expect("stream BP options are valid")
    };
    let probe_net = &s.nets[0].0;
    let mut beliefs = particle
        .run_carried(
            &model(probe_net, seed0),
            &opts_for(seed0),
            &Transport::perfect(),
            None,
            &NullObserver,
            |_, _| {},
        )
        .beliefs;

    let mut tick = Samples::new();
    let mut advance = Samples::new();
    let mut fold = Samples::new();
    let mut overhead = Samples::new();
    let mut build_mrf_s = Samples::new();
    let mut predict = Samples::new();
    let mut run_s = Samples::new();
    let mut iters = Samples::new();
    let mut msgs = Samples::new();
    let mut msg_rate = Samples::new();
    let mut prior_init = Samples::new();
    let mut efficiency = Samples::new();
    let mut unattributed = Samples::new();
    let mut spans = SpanSamples::default();
    let mut pool = PoolDeltas::default();
    let mut edges = 0usize;
    let start = Instant::now();
    let mut e = 1u64;
    while tick.len() < p.min_ticks || start.elapsed().as_secs_f64() < cfg.seconds {
        let seed = epoch_seed(cfg.seed, e);
        submit(&mut s.engine, &s.ids, &s.nets, seed);
        let (updates, tick_secs) = timed(|| pool.measure(|| s.engine.tick()));
        tick.push(tick_secs);
        report.attempted += updates.len() as u64;
        let failed = check_tick(report, &updates, &s.nets, &format!("traced tick {e}"));
        report.failed += failed;

        let mut summed = 0.0;
        for (u, ((net, _), shadow)) in s.nets.iter().zip(&mut shadows).enumerate() {
            let probes = (u < p.probes).then(|| (shadow.clone(), shadow.clone()));
            let (r, secs) = timed(|| shadow.advance(net, seed));
            advance.push(secs);
            summed += secs;
            report.gate.same_digest(
                digest(&updates[u].result),
                digest(&r),
                &format!("tick {e} tenant {u} sequential session vs engine"),
            );
            if let Some((mut folded, mut traced)) = probes {
                let serve = ServeFold::default();
                let (_, f) = timed(|| folded.advance_observed(net, seed, &serve.fanout()));
                fold.push(f - secs);
                let obs = TraceObserver::new();
                let (_, t) = timed(|| traced.advance_observed(net, seed, &obs));
                overhead.push((t - secs) / secs);
                spans.absorb(&obs);
            }
        }
        efficiency.push(summed / (tick_secs * threads));
        unattributed.push(tick_secs - summed / threads);

        // Tenant 0's epoch from the layers' own public calls.
        let carried = CarriedBeliefs::Particle(std::mem::take(&mut beliefs));
        let (warm, secs) = timed(|| carried.predicted(&motion, seed));
        predict.push(secs);
        let CarriedBeliefs::Particle(warm) = warm else {
            unreachable!("particle beliefs predict to particle beliefs")
        };
        let (mrf, secs) = timed(|| model(probe_net, seed));
        build_mrf_s.push(secs);
        edges = mrf.edges().len();
        let opts = opts_for(seed);
        let (out, secs) = timed(|| {
            particle.run_carried(
                &mrf,
                &opts,
                &Transport::perfect(),
                Some(&warm),
                &NullObserver,
                |_, _| {},
            )
        });
        run_s.push(secs);
        iters.push(out.bp.iterations as f64);
        msgs.push(out.bp.messages as f64);
        msg_rate.push(out.bp.messages as f64 / secs);
        let mut zero = opts;
        zero.max_iterations = 0;
        let (_, secs) = timed(|| {
            particle.run_carried(
                &mrf,
                &zero,
                &Transport::perfect(),
                Some(&warm),
                &NullObserver,
                |_, _| {},
            )
        });
        prior_init.push(secs);
        let same = mrf
            .free_vars()
            .into_iter()
            .all(|v| updates[0].result.estimates[v] == Some(out.beliefs[v].mean()));
        report.gate.check(same, || {
            format!("tick {e}: rebuilt tenant-0 epoch differs from the engine's update")
        });
        beliefs = out.beliefs;
        e += 1;
    }

    let l = &mut report.layers;
    l.push(
        s.build_secs
            .median_metric("net.build_s", "s", "NetworkBuilder::build of one tenant"),
    );
    l.push(build_mrf_s.median_metric("core.model.build_mrf_s", "s", "model::build_mrf, tenant 0"));
    l.push(Metric::new(
        "core.model.edges",
        "count",
        edges as f64,
        1,
        "MRF edges, tenant 0",
    ));
    l.push(advance.median_metric(
        "core.session.advance_s",
        "s",
        "one tenant's warm LocalizationSession::advance, sequential, NullObserver",
    ));
    l.push(run_s.median_metric(
        "bayes.run_s",
        "s",
        "ParticleBp::run_carried warm, tenant 0 (bayes.particle.run_s)",
    ));
    l.push(iters.median_metric(
        "bayes.iterations",
        "count",
        "particle BP iterations per epoch",
    ));
    l.push(msgs.median_metric("bayes.messages", "count", "particle BP messages per epoch"));
    l.push(msg_rate.median_metric(
        "bayes.messages_per_s",
        "1/s",
        "particle messages per second",
    ));
    l.push(prior_init.median_metric(
        "bayes.prior_init_s",
        "s",
        "ParticleBp::run_carried warm with a zero-iteration budget",
    ));
    l.push(predict.median_metric(
        "bayes.motion.predict_s",
        "s",
        "MotionModel::predict_particles over one tenant's beliefs",
    ));
    l.extend(spans.metrics("a traced tenant epoch"));
    l.push(fold.median_metric(
        "obs.fold_s",
        "s",
        "per tenant-epoch: advance_observed[MetricsObserver+WindowedMetrics] - advance",
    ));
    l.push(overhead.median_metric(
        "obs.trace_overhead_frac",
        "1",
        "per tenant-epoch: (TraceObserver advance - untraced) / untraced",
    ));
    l.extend(pool.metrics("tick"));
    l.push(unattributed.median_metric(
        "unattributed_s",
        "s",
        "tick - sum(core.session.advance_s) / pool threads (serve.unattributed_s)",
    ));
    l.push(efficiency.median_metric(
        "serve.parallel_efficiency",
        "1",
        "sum(core.session.advance_s) / (tick * pool threads)",
    ));
    l.push(tick.median_metric(
        "serve.tick_s",
        "s",
        "StreamingEngine::tick in the traced run",
    ));

    let per_epoch = advance.median();
    let tenants = p.tenants as f64;
    report.notes.push(format!(
        "tick attribution (medians): tick {:.6} s = {} tenant-epochs x {:.6} s / {} threads ({:.6} s) + unattributed {:.6} s",
        tick.median(),
        p.tenants,
        per_epoch,
        threads,
        tenants * per_epoch / threads,
        unattributed.median()
    ));
    report.notes.push(format!(
        "  per tenant-epoch: build_mrf {:.6} + predict {:.6} + particle run {:.6} + estimate {:.6} s; the serve fold adds {:.6} s",
        build_mrf_s.median(),
        predict.median(),
        run_s.median(),
        spans.estimate_extract.median(),
        fold.median()
    ));
}
