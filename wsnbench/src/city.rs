//! `city-sharded`: a 100k-node, constant-density planned-drop deployment
//! (degree ≈ 8 on a 150 m unit disk, 5% anchors) localized with
//! drop-point priors (σ = 60 m) on the Gaussian backend under
//! `ShardPlan::target_nodes(2000)`, 10 iterations. One cold `localize`
//! per cycle, then `LocalizationSession::advance` epochs on the same
//! topology.
//!
//! Gaussian messages are cheap, so this workload is dominated by code
//! that scales with node count: network and model build, shard layout,
//! shard compile, prior init, boundary exchange and merge. Cold and warm
//! epochs use the sharded layer differently, so caching compile across
//! epochs would show on one and cost the other.

use crate::{
    digest, mix, timed, ErrorPool, Metric, PoolDeltas, Report, RunConfig, Samples, ServeFold, Size,
    SpanSamples,
};
use std::sync::Arc;
use std::time::Instant;
use wsnloc::model::{build_mrf, ModelOptions};
use wsnloc::session::LocalizationSession;
use wsnloc::{Backend, BnlLocalizer, Localizer, PriorModel, ShardPlan};
use wsnloc_bayes::{Belief, BpEngine, BpOptions, GaussianBp, ShardedEngine, Transport};
use wsnloc_geom::{ShardLayout, Vec2};
use wsnloc_net::network::NetworkBuilder;
use wsnloc_net::{AnchorStrategy, Deployment, GroundTruth, Network, RadioModel, RangingModel};
use wsnloc_obs::{NullObserver, SpanKind, TraceObserver};

/// Drop scatter and prior σ, meters.
const SIGMA: f64 = 60.0;
/// Unit-disk radio range, meters.
const RANGE: f64 = 150.0;
/// Mean node degree the field is sized for.
const DEGREE: f64 = 8.0;
/// Upper bound on sharded RMSE / flat RMSE on the same network: sharding
/// may cost a little accuracy, not more. Measured ratios sit near 1.
pub const RMSE_VS_FLAT_MAX: f64 = 1.05;

#[derive(Debug, Clone, Copy)]
struct Params {
    nodes: usize,
    target_shard_nodes: usize,
    iterations: usize,
    /// Warm epochs after each cold solve.
    warm_epochs: u64,
    setup_reps: usize,
    /// Minimum cold + warm cycles, whatever `--seconds` says.
    min_cycles: usize,
}

impl Params {
    fn of(size: Size) -> Params {
        match size {
            Size::Full => Params {
                nodes: 100_000,
                target_shard_nodes: 2000,
                iterations: 10,
                warm_epochs: 5,
                setup_reps: 5,
                min_cycles: 2,
            },
            Size::Toy => Params {
                nodes: 2000,
                target_shard_nodes: 500,
                iterations: 4,
                warm_epochs: 2,
                setup_reps: 2,
                min_cycles: 2,
            },
        }
    }
}

fn network(seed: u64, nodes: usize) -> (Network, GroundTruth) {
    let side = (nodes as f64 * std::f64::consts::PI * RANGE * RANGE / DEGREE).sqrt();
    let drops_per_side = (nodes as f64).sqrt().ceil() as usize;
    NetworkBuilder {
        deployment: Deployment::planned_square_drop(side, drops_per_side, SIGMA),
        node_count: nodes,
        anchors: AnchorStrategy::Random { count: nodes / 20 },
        radio: RadioModel::UnitDisk { range: RANGE },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
    }
    .build(mix(seed, 0xC17E))
}

fn localizer(p: Params, sharded: bool) -> BnlLocalizer {
    let b = BnlLocalizer::builder(Backend::gaussian())
        .prior(PriorModel::DropPoint { sigma: SIGMA })
        .max_iterations(p.iterations)
        .tolerance(0.0);
    let b = if sharded {
        b.shards(ShardPlan::target_nodes(p.target_shard_nodes).expect("target is at least 1"))
    } else {
        b
    };
    b.try_build()
        .expect("city-sharded localizer options are valid")
}

/// BP seed of epoch `k` of a cycle (0 = the cold solve).
fn epoch_seed(seed: u64, k: u64) -> u64 {
    mix(seed, 0xC0D ^ k)
}

/// The layout the localizer derives from its shard plan: node positions
/// (anchor, else planned, else field center), tiles from the target
/// shard size, halo radius twice the mean node spacing.
fn shard_layout(network: &Network, target: usize) -> ShardLayout {
    let n = network.len();
    let bounds = network.field_bounds();
    let (tiles_x, tiles_y) = ShardLayout::tiles_for_target(n, target);
    let positions: Vec<Vec2> = (0..n)
        .map(|id| {
            network
                .anchor_position(id)
                .or_else(|| network.planned_position(id))
                .unwrap_or_else(|| bounds.center())
        })
        .collect();
    let radius = (2.0 * (bounds.width() * bounds.height() / n as f64).sqrt()).max(1e-6);
    ShardLayout::build(bounds, tiles_x, tiles_y, &positions, radius)
}

struct Setup {
    net: Network,
    truth: GroundTruth,
    localizer: BnlLocalizer,
    build_secs: Samples,
}

/// Generates the deployment and builds the localizer, `setup_reps`
/// times; every repetition must generate the same network.
fn setup(cfg: &RunConfig, p: Params, report: &mut Report) -> Setup {
    let mut setup_secs = Samples::new();
    let mut build_secs = Samples::new();
    let mut shape = None;
    let mut last = None;
    for _ in 0..p.setup_reps {
        let start = Instant::now();
        let ((net, truth), secs) = timed(|| network(cfg.seed, p.nodes));
        build_secs.push(secs);
        let loc = localizer(p, true);
        setup_secs.push(start.elapsed().as_secs_f64());
        let s = (net.measurements().len(), net.anchor_count());
        let first = *shape.get_or_insert(s);
        report.gate.check(first == s, || {
            format!("network generation not deterministic: {s:?} vs {first:?}")
        });
        last = Some(Setup {
            net,
            truth,
            localizer: loc,
            build_secs: Samples::new(),
        });
    }
    let mut s = last.expect("at least one set-up repetition");
    s.build_secs = build_secs;
    report.end_to_end.push(setup_secs.median_metric(
        "setup_s",
        "s",
        "100k-node network generation + localizer build",
    ));
    let shards = shard_layout(&s.net, p.target_shard_nodes).occupied_shards();
    report.input = vec![
        ("nodes", s.net.len() as u64),
        ("edges", s.net.measurements().len() as u64),
        ("anchors", s.net.anchor_count() as u64),
        ("shards", shards as u64),
        ("tenants", 1),
        ("iterations", p.iterations as u64),
        ("warm_epochs_per_cycle", p.warm_epochs),
    ];
    s
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let p = Params::of(cfg.size);
    let mut report = Report::new(cfg);
    let s = setup(cfg, p, &mut report);
    if cfg.trace {
        trace(cfg, p, &s, &mut report);
    } else {
        measure(cfg, p, &s, &mut report);
    }
    report
}

/// Untraced: cycles of one cold `localize` (a fresh session) and
/// `warm_epochs` warm advances, for `seconds` (at least `min_cycles`);
/// every cycle must reproduce the first cycle bit for bit.
fn measure(cfg: &RunConfig, p: Params, s: &Setup, report: &mut Report) {
    let mut cold = Samples::new();
    let mut warm = Samples::new();
    let mut first: Vec<Option<u64>> = vec![None; p.warm_epochs as usize + 1];
    let mut errors = ErrorPool::default();
    let mut cycles = 0usize;
    let start = Instant::now();
    while cycles < p.min_cycles || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut session = LocalizationSession::new(s.localizer.clone());
        for k in 0..=p.warm_epochs {
            let (mut r, secs) = timed(|| session.advance(&s.net, epoch_seed(cfg.seed, k)));
            if k == 0 {
                cold.push(secs);
            } else {
                warm.push(secs);
            }
            if cfg.inject_nonfinite && cycles == 0 && k == 0 {
                if let Some(u) = s.net.unknowns().next() {
                    r.estimates[u] = None;
                }
            }
            report.attempted += 1;
            if !report
                .gate
                .finite_estimates(&r, &s.net, &format!("cycle {cycles} epoch {k}"))
            {
                report.failed += 1;
            }
            let d = digest(&r);
            match first[k as usize] {
                Some(f) => report
                    .gate
                    .same_digest(f, d, &format!("cycle {cycles} epoch {k}")),
                None => {
                    first[k as usize] = Some(d);
                    if k == 0 {
                        errors.add(&r, &s.net, &s.truth);
                        report.input.push(("messages_cold", r.comm.messages));
                    }
                }
            }
        }
        cycles += 1;
    }

    let flat_loc = localizer(p, false);
    let (flat, flat_secs) = timed(|| flat_loc.localize(&s.net, epoch_seed(cfg.seed, 0)));
    report
        .gate
        .finite_estimates(&flat, &s.net, "flat reference");
    let mut flat_errors = ErrorPool::default();
    flat_errors.add(&flat, &s.net, &s.truth);
    let rmse = errors.rmse();
    let rmse_vs_flat = rmse / flat_errors.rmse();
    report.gate.check(rmse_vs_flat <= RMSE_VS_FLAT_MAX, || {
        format!("rmse_vs_flat {rmse_vs_flat:.4} above bound {RMSE_VS_FLAT_MAX}")
    });
    report.notes.push(format!(
        "flat Gaussian reference: one localize {flat_secs:.6} s (n=1), rmse {:.6} m",
        flat_errors.rmse()
    ));

    let e = &mut report.end_to_end;
    e.push(cold.median_metric(
        "solve_p50_s",
        "s",
        "one cold sharded BnlLocalizer::localize",
    ));
    e.push(warm.median_metric(
        "warm_epoch_p50_s",
        "s",
        "LocalizationSession::advance after the first epoch",
    ));
    e.push(Metric::new(
        "epochs_per_s",
        "1/s",
        warm.len() as f64 / warm.sum(),
        warm.len(),
        "warm epochs per second of warm-epoch wall time",
    ));
    e.push(Metric::new(
        "rmse_m",
        "m",
        rmse,
        errors.count(),
        "RMSE over unknown nodes of the cold solve",
    ));
    e.push(Metric::new(
        "rmse_vs_flat",
        "1",
        rmse_vs_flat,
        errors.count(),
        "sharded rmse / flat Gaussian rmse, same network and seed",
    ));
    e.push(Metric::new(
        "fail_frac",
        "1",
        report.failed as f64 / report.attempted as f64,
        report.attempted as usize,
        "epochs with an unknown node lacking a finite estimate",
    ));
}

/// The `ModelBuild` spans of a traced run, in report order. Inside the
/// sharded engine the first one is shard compile; the localizer reports
/// its own `build_mrf` after the engine returns.
fn model_build_spans(obs: &TraceObserver) -> Vec<f64> {
    obs.runs()
        .last()
        .map(|run| {
            run.spans
                .iter()
                .filter(|(k, _)| *k == SpanKind::ModelBuild)
                .map(|(_, s)| *s)
                .collect()
        })
        .unwrap_or_default()
}

/// Traced: per cycle, the cold and warm sharded solves rebuilt from the
/// layers' public calls (layout, model, sharded engine, flat reference),
/// then the localizer's own cold solve untraced and traced, and one warm
/// epoch plain, folded and traced.
fn trace(cfg: &RunConfig, p: Params, s: &Setup, report: &mut Report) {
    let prior = PriorModel::DropPoint { sigma: SIGMA };
    let seed0 = epoch_seed(cfg.seed, 0);
    let seed1 = epoch_seed(cfg.seed, 1);
    let mut layout_s = Samples::new();
    let mut build_mrf_s = Samples::new();
    let mut run_cold = Samples::new();
    let mut run_warm = Samples::new();
    let mut flat_run = Samples::new();
    let mut iters = Samples::new();
    let mut msgs = Samples::new();
    let mut msg_rate = Samples::new();
    let mut prior_init = Samples::new();
    let mut compile_cold = Samples::new();
    let mut compile_warm = Samples::new();
    let mut cold_untraced = Samples::new();
    let mut cold_traced = Samples::new();
    let mut advance = Samples::new();
    let mut fold = Samples::new();
    let mut spans = SpanSamples::default();
    let mut warm_spans = SpanSamples::default();
    let mut pool = PoolDeltas::default();
    let (mut shards, mut edges) = (0usize, 0usize);
    let start = Instant::now();
    let mut cycles = 0usize;
    while cycles < 1 || start.elapsed().as_secs_f64() < cfg.seconds {
        let (layout, secs) = timed(|| shard_layout(&s.net, p.target_shard_nodes));
        layout_s.push(secs);
        shards = layout.occupied_shards();
        let (mrf, secs) = timed(|| {
            build_mrf(
                &s.net,
                &prior,
                &ModelOptions {
                    negative_constraints_per_node: 0,
                    seed: seed0 ^ 0x9E37_79B9,
                },
            )
        });
        build_mrf_s.push(secs);
        edges = mrf.edges().len();
        let opts = BpOptions::builder()
            .max_iterations(p.iterations)
            .tolerance(0.0)
            .seed(seed0)
            .try_build()
            .expect("city BP options are valid");
        let sharded = ShardedEngine::clamped(GaussianBp::default(), Arc::new(layout), 1);
        let perfect = Transport::perfect();
        let (cold, secs) = timed(|| {
            pool.measure(|| {
                sharded.run_carried(&mrf, &opts, &perfect, None, &NullObserver, |_, _| {})
            })
        });
        run_cold.push(secs);
        iters.push(cold.bp.iterations as f64);
        msgs.push(cold.bp.messages as f64);
        msg_rate.push(cold.bp.messages as f64 / secs);
        let mut zero = opts;
        zero.max_iterations = 0;
        let probe = TraceObserver::new();
        let (_, secs) =
            timed(|| sharded.run_carried(&mrf, &zero, &perfect, None, &probe, |_, _| {}));
        prior_init.push(secs - model_build_spans(&probe).first().copied().unwrap_or(0.0));
        let mut warm_opts = opts;
        warm_opts.seed = seed1;
        let (warm, secs) = timed(|| {
            sharded.run_carried(
                &mrf,
                &warm_opts,
                &perfect,
                Some(&cold.beliefs),
                &NullObserver,
                |_, _| {},
            )
        });
        run_warm.push(secs);
        let (_, secs) = timed(|| {
            GaussianBp::default().run_carried(&mrf, &opts, &perfect, None, &NullObserver, |_, _| {})
        });
        flat_run.push(secs);

        let (r_cold, secs) =
            timed(|| LocalizationSession::new(s.localizer.clone()).advance(&s.net, seed0));
        cold_untraced.push(secs);
        let mut session = LocalizationSession::new(s.localizer.clone());
        let obs = TraceObserver::new();
        let (_, secs) = timed(|| session.advance_observed(&s.net, seed0, &obs));
        cold_traced.push(secs);
        compile_cold.push(model_build_spans(&obs).first().copied().unwrap_or(f64::NAN));
        spans.absorb(&obs);
        let (mut folded, mut traced) = (session.clone(), session.clone());
        let (r_warm, secs) = timed(|| session.advance(&s.net, seed1));
        advance.push(secs);
        let serve = ServeFold::default();
        let (_, f) = timed(|| folded.advance_observed(&s.net, seed1, &serve.fanout()));
        fold.push(f - secs);
        let obs = TraceObserver::new();
        let _ = traced.advance_observed(&s.net, seed1, &obs);
        compile_warm.push(model_build_spans(&obs).first().copied().unwrap_or(f64::NAN));
        warm_spans.absorb(&obs);

        let free = mrf.free_vars();
        let cold_same = free
            .iter()
            .all(|&u| r_cold.estimates[u] == Some(cold.beliefs[u].mean()));
        let warm_same = free
            .iter()
            .all(|&u| r_warm.estimates[u] == Some(warm.beliefs[u].mean()));
        report.gate.check(cold_same && warm_same, || {
            format!("cycle {cycles}: rebuilt sharded solve differs from the localizer (cold {cold_same}, warm {warm_same})")
        });
        for (r, label) in [(&r_cold, "traced cold"), (&r_warm, "traced warm")] {
            if !report.gate.finite_estimates(r, &s.net, label) {
                report.failed += 1;
            }
        }
        report.attempted += 2;
        cycles += 1;
    }

    let l = &mut report.layers;
    l.push(
        s.build_secs
            .median_metric("net.build_s", "s", "NetworkBuilder::build, 100k nodes"),
    );
    l.push(layout_s.median_metric(
        "geom.shard_layout_s",
        "s",
        "ShardLayout::build with the localizer's plan inputs",
    ));
    l.push(build_mrf_s.median_metric("core.model.build_mrf_s", "s", "model::build_mrf"));
    l.push(Metric::new(
        "core.model.edges",
        "count",
        edges as f64,
        1,
        "MRF edges",
    ));
    l.push(advance.median_metric(
        "core.session.advance_s",
        "s",
        "warm LocalizationSession::advance, NullObserver",
    ));
    l.push(run_cold.median_metric(
        "bayes.run_s",
        "s",
        "ShardedEngine<GaussianBp>::run_carried cold (bayes.sharded.run_cold_s)",
    ));
    l.push(iters.median_metric("bayes.iterations", "count", "sharded iterations, cold"));
    l.push(msgs.median_metric(
        "bayes.messages",
        "count",
        "sharded messages, cold (bayes.sharded.messages)",
    ));
    l.push(msg_rate.median_metric(
        "bayes.messages_per_s",
        "1/s",
        "sharded messages per second, cold",
    ));
    l.push(prior_init.median_metric(
        "bayes.prior_init_s",
        "s",
        "zero-iteration sharded run minus its compile span: per-shard prior init + merge",
    ));
    l.push(Metric::new(
        "bayes.sharded.shards",
        "count",
        shards as f64,
        1,
        "occupied shards",
    ));
    l.push(compile_cold.median_metric(
        "bayes.sharded.compile_cold_s",
        "s",
        "shard compile (engine ModelBuild span), cold localize",
    ));
    l.push(compile_warm.median_metric(
        "bayes.sharded.compile_warm_s",
        "s",
        "shard compile (engine ModelBuild span), warm epoch",
    ));
    l.push(run_warm.median_metric(
        "bayes.sharded.run_warm_s",
        "s",
        "ShardedEngine<GaussianBp>::run_carried warm from the cold beliefs",
    ));
    l.push(flat_run.median_metric(
        "bayes.gaussian.run_s",
        "s",
        "flat GaussianBp::run_carried cold on the same MRF",
    ));
    l.extend(spans.metrics("traced cold localize"));
    for mut m in warm_spans.metrics("traced warm epoch") {
        m.name = m.name.replacen("span.", "span.warm.", 1);
        l.push(m);
    }
    l.push(fold.median_metric(
        "obs.fold_s",
        "s",
        "warm advance_observed[MetricsObserver+WindowedMetrics] - advance",
    ));
    l.push(Metric::new(
        "obs.trace_overhead_frac",
        "1",
        (cold_traced.median() - cold_untraced.median()) / cold_untraced.median(),
        cold_traced.len(),
        "(traced cold localize - untraced) / untraced",
    ));
    l.extend(pool.metrics("cold sharded solve"));
    let attributed = layout_s.median()
        + build_mrf_s.median()
        + run_cold.median()
        + spans.estimate_extract.median();
    l.push(Metric::new(
        "unattributed_s",
        "s",
        cold_untraced.median() - attributed,
        cold_untraced.len(),
        "cold localize - (layout + build_mrf + sharded run + estimate extract)",
    ));
    report.notes.push(format!(
        "cold sharded solve split (medians): layout {:.6} + build_mrf {:.6} + compile {:.6} + prior init {:.6} + message passing {:.6} + extract {:.6} s; flat GaussianBp run {:.6} s",
        layout_s.median(),
        build_mrf_s.median(),
        compile_cold.median(),
        prior_init.median(),
        spans.message_passing.median(),
        spans.estimate_extract.median(),
        flat_run.median()
    ));
    report.notes.push(format!(
        "warm sharded epoch split (medians): compile {:.6} + message passing {:.6} s of run {:.6} s",
        compile_warm.median(),
        warm_spans.message_passing.median(),
        run_warm.median()
    ));
}
