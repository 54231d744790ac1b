//! Observer-layer guarantees: the zero-cost contract of `NullObserver`,
//! thread-count-independent telemetry under the synchronous schedule, the
//! builder-first validation surface, the trace.jsonl serialization path
//! end to end, the flame table against golden literals, and the live
//! scrape surface against a golden capture.

use std::sync::Mutex;
use wsnloc::prelude::*;
use wsnloc_eval::{evaluate, run_trial_observed, EvalConfig, Parallelism};
use wsnloc_obs::{
    accounting, analyze_str, parse_jsonl, write_jsonl, CommStats, FanoutObserver, IterationRecord,
    MetricsObserver, ObsEvent, RunInfo, RunSummary, RunTrace, SpanKind, TelemetryServer, VecSink,
};
use wsnloc_serve::{EngineConfig, MeasurementEpoch, SessionConfig, StreamingEngine};

/// The accounting counters are process-wide, so every test that runs
/// inference (bumping them) or asserts on them takes this lock first.
static SERIAL: Mutex<()> = Mutex::new(());

fn scenario() -> Scenario {
    Scenario {
        name: "observability".into(),
        deployment: Deployment::planned_square_drop(500.0, 3, 50.0),
        node_count: 40,
        anchors: AnchorStrategy::Random { count: 6 },
        radio: RadioModel::UnitDisk { range: 160.0 },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
        seed: 0x0B5,
    }
}

fn algo() -> BnlLocalizer {
    BnlLocalizer::builder(Backend::particle(80).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(4)
        .tolerance(0.0) // full trajectory: every iteration reports
        .try_build()
        .expect("valid localizer configuration")
}

/// A grid localizer on the same scenario: its residuals are L1 mass
/// distances with a KL divergence, computed on the pool workers.
fn grid_algo() -> BnlLocalizer {
    BnlLocalizer::builder(Backend::grid(30).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(4)
        .tolerance(0.0)
        .try_build()
        .expect("valid localizer configuration")
}

/// A sharded Gaussian localizer on the same scenario. It reports every
/// iteration as a flat run does, residuals from iteration 0 included.
fn sharded_algo() -> BnlLocalizer {
    BnlLocalizer::builder(Backend::gaussian())
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(4)
        .tolerance(0.0)
        .shards(ShardPlan::target_nodes(12).expect("valid plan"))
        .try_build()
        .expect("valid localizer configuration")
}

/// Two sequential trials of `localizer` on [`scenario`], each watched by
/// a live [`MetricsObserver`] fanned out next to a [`TraceObserver`]:
/// the recorded runs and the live fold of the same runs.
fn record_with_live_fold(localizer: &BnlLocalizer) -> (Vec<RunTrace>, MetricsObserver) {
    let live = MetricsObserver::new();
    let tracer = TraceObserver::new();
    let fan = FanoutObserver::new(vec![&live, &tracer]);
    for trial in 0..2 {
        run_trial_observed(localizer, &scenario(), trial, &fan);
    }
    (tracer.take_runs(), live)
}

/// The JSONL lines of recorded runs.
fn jsonl(runs: &[RunTrace]) -> String {
    let mut sink = VecSink::new();
    write_jsonl(runs, &mut sink).expect("in-memory sink");
    sink.lines.join("\n")
}

#[test]
fn trace_residuals_are_bit_identical_across_pool_sizes() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The synchronous schedule parallelizes belief updates, residuals
    // included, over rayon workers; residuals are deterministic functions
    // of the beliefs, so the recorded telemetry must not depend on the
    // pool size.
    let (net, _) = scenario().build_trial(0);
    for (backend, localizer) in [("particle", algo()), ("grid", grid_algo())] {
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| {
                    let tracer = TraceObserver::new();
                    let result = localizer.localize_with_observer(&net, 11, &tracer);
                    (result, tracer.take_runs())
                })
        };
        let (res1, runs1) = run(1);
        let (res4, runs4) = run(4);
        assert_eq!(res1.estimates, res4.estimates, "{backend}");
        assert_eq!(runs1.len(), 1, "{backend}");
        assert_eq!(runs4.len(), 1, "{backend}");
        assert_eq!(runs1[0].info, runs4[0].info, "{backend}");
        assert_eq!(runs1[0].info.backend, backend);
        assert_eq!(runs1[0].iterations.len(), runs4[0].iterations.len());
        for (a, b) in runs1[0].iterations.iter().zip(&runs4[0].iterations) {
            // Bit-identical: exact f64 equality on every per-node residual
            // and on the convergence quantity itself. Only wall-clock
            // timing may differ between the two runs.
            assert_eq!(a.iteration, b.iteration);
            assert!(a.max_shift.to_bits() == b.max_shift.to_bits(), "{backend}");
            assert_eq!(a.comm, b.comm);
            assert_eq!(a.residuals.len(), b.residuals.len());
            assert!(!a.residuals.is_empty(), "{backend}: no residuals");
            for (ra, rb) in a.residuals.iter().zip(&b.residuals) {
                assert_eq!(ra.node, rb.node);
                assert!(ra.residual.to_bits() == rb.residual.to_bits(), "{backend}");
                assert_eq!(ra.kl.map(f64::to_bits), rb.kl.map(f64::to_bits));
                // Only grid beliefs carry a KL divergence.
                assert_eq!(ra.kl.is_some(), backend == "grid");
            }
        }
    }
}

#[test]
fn null_observer_does_no_trace_accounting() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (net, _) = scenario().build_trial(1);
    // Warm up once so lazily-initialized state can't masquerade as
    // observer cost.
    let _ = algo().localize(&net, 3);

    let buffers_before = accounting::residual_buffers();
    let records_before = accounting::iteration_records();
    let _ = algo().localize(&net, 4); // default path: &NullObserver
    let _ = algo().localize_with_observer(&net, 5, &NullObserver);
    assert_eq!(
        accounting::residual_buffers(),
        buffers_before,
        "NullObserver run allocated residual buffers"
    );
    assert_eq!(
        accounting::iteration_records(),
        records_before,
        "NullObserver run stored iteration records"
    );

    // Sanity check that the counters are live at all: a recording
    // observer must move both.
    let tracer = TraceObserver::new();
    let _ = algo().localize_with_observer(&net, 6, &tracer);
    assert!(accounting::residual_buffers() > buffers_before);
    assert!(accounting::iteration_records() > records_before);
}

#[test]
fn builder_rejects_invalid_configuration_before_any_run() {
    // Backend options fail at their own constructors…
    assert!(Backend::particle(0).is_err());
    assert!(Backend::grid(1).is_err());
    // …and builder-level knobs fail at try_build.
    assert!(BnlLocalizer::builder(Backend::gaussian())
        .tolerance(f64::NAN)
        .try_build()
        .is_err());
    assert!(BnlLocalizer::builder(Backend::gaussian())
        .damping(1.0)
        .try_build()
        .is_err());
    let err = BnlLocalizer::builder(Backend::particle(50).expect("valid backend"))
        .max_iterations(0)
        .try_build()
        .expect_err("zero iterations must not validate");
    assert!(err.to_string().contains("max_iterations"));
}

#[test]
fn analyze_reproduces_the_live_metrics_snapshot() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The acceptance invariant of the aggregation tier: replaying a
    // recorded trace through `analyze` yields *exactly* the snapshot the
    // live MetricsObserver folded — same per-iteration residual
    // quantiles, comm totals, and fault-event counts. This holds because
    // the JSONL encoder round-trips every finite f64 (shortest-repr
    // printing + correctly-rounded parsing) and the fold is insensitive
    // to the record reordering serialization introduces. The sharded
    // run's infinite first-round shift measured nothing, so both paths
    // leave it out of the mean.
    for localizer in [algo(), sharded_algo()] {
        let (traces, live) = record_with_live_fold(&localizer);
        let live = live.snapshot();
        let analysis = analyze_str(&jsonl(&traces)).expect("recorded trace parses");

        assert_eq!(analysis.runs, traces.len());
        assert_eq!(analysis.incomplete_runs, 0);
        assert_eq!(
            analysis.snapshot, live,
            "replayed snapshot must equal the live fold"
        );
        // The rendered artifacts come from the same data.
        let flame = analysis.snapshot.flame_table();
        assert!(flame.contains("message_passing"));
        assert!(flame.contains("iteration"));
        assert!(analysis.openmetrics.contains("wsnloc_bp_runs_total 2"));
        assert!(analysis
            .openmetrics
            .contains(&format!("wsnloc_bp_messages_total {}", live.messages)));
    }
}

#[test]
fn panicked_run_still_yields_parseable_jsonl() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Record a real run, then serialize it through a buffered file sink
    // on a thread that panics before any explicit flush: the sink's Drop
    // must push every completed line to disk, and the parser must accept
    // the result (the interrupted run simply has no run_end record).
    let (net, _) = scenario().build_trial(3);
    let tracer = TraceObserver::new();
    let _ = algo().localize_with_observer(&net, 7, &tracer);
    let mut runs = tracer.take_runs();
    assert_eq!(runs.len(), 1);
    runs[0].summary = None; // the crash happened before the verdict

    let dir = std::env::temp_dir().join(format!("wsnloc-poison-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.jsonl");
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sink = JsonlSink::create(&path).expect("create trace file");
        write_jsonl(&runs, &mut sink).expect("serialize");
        panic!("simulated mid-run crash before finish()");
    }));
    assert!(panicked.is_err(), "the writer thread must have panicked");

    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let parsed = parse_jsonl(&text).expect("every flushed line parses");
    assert_eq!(parsed, runs, "nothing written before the panic was lost");
    assert!(parsed[0].summary.is_none());
    let analysis = analyze_str(&text).expect("interrupted traces analyze");
    assert_eq!(analysis.incomplete_runs, 1);
    assert_eq!(analysis.snapshot.runs, 1);
    assert_eq!(analysis.snapshot.converged_runs, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_traces_serialize_to_replayable_jsonl() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Flat and sharded runs alike report residuals from iteration 0.
    for localizer in [algo(), sharded_algo()] {
        let (traces, live) = record_with_live_fold(&localizer);
        assert_eq!(traces.len(), 2);
        let live = live.snapshot();
        assert_eq!(live.per_iteration.len(), 4);
        assert!(live.per_iteration.iter().all(|it| !it.residuals.is_empty()));
        // `evaluate` records the same runs, wall-clock timing aside.
        let evaluated = evaluate(
            &localizer,
            &scenario(),
            &EvalConfig::trials(2)
                .with_traces()
                .with_parallelism(Parallelism::Sequential),
        )
        .traces
        .expect("with_traces collects traces");
        assert_eq!(evaluated.len(), traces.len());
        for (e, t) in evaluated.iter().zip(&traces) {
            assert_eq!(
                (&e.info, &e.events, &e.summary),
                (&t.info, &t.events, &t.summary)
            );
        }

        let mut sink = VecSink::new();
        let lines = write_jsonl(&traces, &mut sink).expect("in-memory sink");
        assert_eq!(lines, sink.lines.len());
        // One run_start/run_end pair per trial, contiguous records in between.
        let starts: Vec<usize> = sink
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.starts_with("{\"type\":\"run_start\""))
            .map(|(i, _)| i)
            .collect();
        let ends: Vec<usize> = sink
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.starts_with("{\"type\":\"run_end\""))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(ends.len(), 2);
        assert_eq!(starts[0], 0);
        assert_eq!(*ends.last().expect("two run ends"), sink.lines.len() - 1);
        assert!(starts[1] > ends[0], "runs must not interleave");
        assert!(sink
            .lines
            .iter()
            .any(|l| l.contains("\"span\":\"model_build\"")));
        assert!(sink
            .lines
            .iter()
            .any(|l| l.contains("\"span\":\"message_passing\"")));
        for line in &sink.lines {
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced braces in {line}"
            );
        }

        // The lines parse back into the recorded runs. The one encoding
        // loss is a non-finite `max_shift`: JSONL writes it as `null`,
        // which parses as NaN.
        let text = sink.lines.join("\n");
        let parsed = parse_jsonl(&text).expect("recorded trace parses");
        assert_eq!(parsed.len(), traces.len());
        for (back, run) in parsed.iter().zip(&traces) {
            assert_eq!(back.info, run.info, "run info must round-trip");
            assert_eq!(back.spans, run.spans);
            assert_eq!(back.events, run.events);
            assert_eq!(back.summary, run.summary);
            assert_eq!(back.iterations.len(), run.iterations.len());
            for (b, r) in back.iterations.iter().zip(&run.iterations) {
                let mut b = b.clone();
                if !b.max_shift.is_finite() && !r.max_shift.is_finite() {
                    b.max_shift = r.max_shift;
                }
                assert_eq!(&b, r, "iteration {} must round-trip", r.iteration);
            }
        }
        // Replaying the parsed lines equals the live fold of the runs.
        assert_eq!(analyze_str(&text).expect("analyze").snapshot, live);
    }
}

#[test]
fn sharded_observer_emits_boundary_exchange_without_perturbing_results() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Attaching an observer to a sharded solve must not change the
    // estimates (observers are read-only), and the trace must carry the
    // per-shard BoundaryExchange volume events the windowed tier feeds on.
    let (net, _) = scenario().build_trial(6);
    let sharded = || {
        BnlLocalizer::builder(Backend::particle(80).expect("valid backend"))
            .prior(PriorModel::DropPoint { sigma: 50.0 })
            .max_iterations(4)
            .tolerance(0.0)
            .shards(ShardPlan::target_nodes(12).expect("valid plan"))
            .try_build()
            .expect("valid localizer configuration")
    };
    let silent = sharded().localize(&net, 9);
    let tracer = TraceObserver::new();
    let observed = sharded().localize_with_observer(&net, 9, &tracer);
    for (a, b) in silent.estimates.iter().zip(&observed.estimates) {
        match (a, b) {
            (Some(p), Some(q)) => {
                assert_eq!(p.x.to_bits(), q.x.to_bits());
                assert_eq!(p.y.to_bits(), q.y.to_bits());
            }
            (None, None) => {}
            _ => panic!("estimate presence diverged between observed and silent runs"),
        }
    }
    let run = tracer.last_run().expect("one recorded run");
    let exchanges: Vec<(usize, usize, u64)> = run
        .events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::BoundaryExchange {
                round,
                shard,
                messages,
            } => Some((*round, *shard, *messages)),
            _ => None,
        })
        .collect();
    assert!(
        !exchanges.is_empty(),
        "multi-shard run must report boundary exchanges, got events {:?}",
        run.events
    );
    let shards: std::collections::BTreeSet<usize> = exchanges.iter().map(|e| e.1).collect();
    assert!(shards.len() > 1, "expected several occupied shards");
    assert!(
        exchanges.iter().any(|e| e.2 > 0),
        "a multi-shard unit-disk network must route cross-shard messages, got {exchanges:?}"
    );
    // The events round-trip through the JSONL schema like everything else.
    let mut sink = VecSink::new();
    write_jsonl(std::slice::from_ref(&run), &mut sink).expect("in-memory sink");
    let parsed = parse_jsonl(&sink.lines.join("\n")).expect("trace parses");
    assert_eq!(parsed[0].events, run.events);
}

/// One `GET` against the scrape server of an engine's hub; returns the body.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to the scrape server");
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{path}: {head}");
    body.to_owned()
}

/// Masks the value of a timing sample (a `_seconds` name that does not
/// end in `_count`): wall-clock values differ run to run, names and
/// labels do not.
fn mask_timing(line: &str) -> String {
    if line.starts_with('#') {
        return line.to_owned();
    }
    let (series, _) = line.rsplit_once(' ').expect("sample line has a value");
    let name = series.split('{').next().unwrap_or(series);
    if name.contains("_seconds") && !name.ends_with("_count") {
        format!("{series} *")
    } else {
        line.to_owned()
    }
}

#[test]
fn scrape_surface_keeps_every_golden_series() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The live telemetry shape of `repro f16 --telemetry`: two particle
    // tenants and one sharded tenant on a capacity-1 engine, so every
    // tick solves one tenant and sheds the others. After 3 ticks each
    // tenant has solved once and been shed twice.
    let mut engine = StreamingEngine::new(EngineConfig {
        capacity_per_tick: 1,
        ..EngineConfig::default()
    });
    let server =
        TelemetryServer::start("127.0.0.1:0", engine.hub()).expect("bind an ephemeral port");
    let localizer = |shards: Option<ShardPlan>| {
        let mut b = BnlLocalizer::builder(Backend::particle(40).expect("valid backend"))
            .prior(PriorModel::DropPoint { sigma: 50.0 })
            .max_iterations(2)
            .tolerance(0.0);
        if let Some(plan) = shards {
            b = b.shards(plan);
        }
        b.try_build().expect("valid localizer configuration")
    };
    let sharded = ShardPlan::target_nodes(20).expect("valid shard plan");
    let tenants: Vec<_> = [Some(sharded), None, None]
        .into_iter()
        .enumerate()
        .map(|(t, plan)| {
            let cfg =
                SessionConfig::new(localizer(plan)).with_motion(MotionModel::random_walk(3.0));
            (engine.open_session(cfg), scenario().build_trial(t as u64).0)
        })
        .collect();
    for tick in 0..3u64 {
        for (id, net) in &tenants {
            engine.submit(*id, MeasurementEpoch::new(net.clone(), tick));
        }
        engine.tick();
    }
    let addr = server.local_addr();

    let metrics = scrape(addr, "/metrics");
    assert_eq!(metrics.matches("# EOF").count(), 1);
    assert!(metrics.ends_with("# EOF\n"));
    let live: std::collections::BTreeSet<String> = metrics.lines().map(mask_timing).collect();
    let golden = include_str!("golden/scrape_metrics.txt");
    let missing: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') || l.starts_with("# TYPE "))
        .filter(|l| !live.contains(*l))
        .collect();
    assert!(
        missing.is_empty(),
        "golden lines missing from /metrics: {missing:#?}"
    );
    // The store reads every served residual: 3 solved epochs × 2
    // iterations × 34 free nodes.
    assert!(
        live.contains("wsnloc_bp_residual_count 204"),
        "served residuals missing from /metrics"
    );

    assert_eq!(
        scrape(addr, "/tenants"),
        include_str!("golden/scrape_tenants.json").trim_end()
    );
    let health = scrape(addr, "/healthz");
    for key in ["\"ok\":true", "\"ticks\":3", "\"last_tick_age_secs\":"] {
        assert!(health.contains(key), "/healthz lacks {key}: {health}");
    }
}

/// A hand-built run for the flame-table golden test. Every duration is a
/// power of two, so each span total is exact in whatever order the fold
/// adds it up.
fn flame_run(
    backend: &'static str,
    iteration_secs: &[f64],
    spans: &[(SpanKind, f64)],
    complete: bool,
) -> RunTrace {
    let n = iteration_secs.len();
    RunTrace {
        info: RunInfo {
            backend,
            nodes: 4,
            free: 2,
            edges: 3,
            max_iterations: 4,
            tolerance: 0.0,
            damping: 0.0,
            schedule: "synchronous",
            message_bytes: 24,
            seed: 1,
        },
        iterations: iteration_secs
            .iter()
            .enumerate()
            .map(|(iteration, &secs)| IterationRecord {
                iteration,
                max_shift: 1.0,
                comm: CommStats {
                    messages: 2,
                    bytes: 48,
                },
                damping: 0.0,
                schedule: "synchronous",
                secs,
                residuals: Vec::new(),
            })
            .collect(),
        spans: spans.to_vec(),
        events: Vec::new(),
        summary: complete.then_some(RunSummary {
            iterations: n,
            converged: false,
            comm: CommStats {
                messages: 2 * n as u64,
                bytes: 48 * n as u64,
            },
        }),
    }
}

fn flame_of(runs: &[RunTrace]) -> String {
    analyze_str(&jsonl(runs))
        .expect("hand-built trace parses")
        .snapshot
        .flame_table()
}

#[test]
fn flame_table_matches_the_golden_rendering() {
    // (a) A flat run next to a sharded-style run that reports
    // `model_build` twice (model build, then shard compile).
    let flat = flame_run(
        "particle",
        &[0.125, 0.0625],
        &[
            (SpanKind::PriorInit, 0.5),
            (SpanKind::MessagePassing, 0.25),
            (SpanKind::ModelBuild, 0.25),
            (SpanKind::EstimateExtract, 0.03125),
        ],
        true,
    );
    let sharded = flame_run(
        "sharded-gaussian",
        &[0.125, 0.125, 0.0625],
        &[
            (SpanKind::ModelBuild, 0.125),
            (SpanKind::MessagePassing, 0.5),
            (SpanKind::ModelBuild, 0.0625),
            (SpanKind::EstimateExtract, 0.0625),
        ],
        true,
    );
    assert_eq!(flame_of(&[flat, sharded]), FLAME_FLAT_AND_SHARDED);
    // (b) An interrupted run: iterations but no `message_passing` span,
    // which still renders with 0 calls and the iteration sum as total.
    let interrupted = flame_run(
        "grid",
        &[0.25, 0.125],
        &[(SpanKind::ModelBuild, 0.0625), (SpanKind::PriorInit, 0.125)],
        false,
    );
    assert_eq!(flame_of(&[interrupted]), FLAME_INTERRUPTED);
}

/// The flame table of case (a) in `flame_table_matches_the_golden_rendering`.
const FLAME_FLAT_AND_SHARDED: &str = "\
span                                        calls      total s       self s       %
run                                             2     1.781250     0.000000   100.0
  estimate_extract                              2     0.093750     0.093750     5.3
  message_passing                               2     0.750000     0.250000    42.1
    iteration                                   5     0.500000     0.500000    28.1
  model_build                                   3     0.437500     0.437500    24.6
  prior_init                                    1     0.500000     0.500000    28.1
";

/// Case (b): the interrupted run.
const FLAME_INTERRUPTED: &str = "\
span                                        calls      total s       self s       %
run                                             1     0.562500     0.000000   100.0
  message_passing                               0     0.375000     0.000000    66.7
    iteration                                   2     0.375000     0.375000    66.7
  model_build                                   1     0.062500     0.062500    11.1
  prior_init                                    1     0.125000     0.125000    22.2
";
