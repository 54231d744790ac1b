//! `repro` — regenerates every table and figure of the reproduction.
//!
//! ```text
//! repro all                 # full suite (release build strongly advised)
//! repro t2 f1 f6            # selected experiments
//! repro f4 --trials 10      # override Monte-Carlo trials
//! repro all --quick         # smoke-test resolution
//! repro list                # print the experiment index
//! repro all --out results/  # also write one CSV per report
//! repro trace               # record BP telemetry to trace.jsonl
//! repro trace --backend grid --out traces/  # per-backend trace file
//! repro analyze trace.jsonl # replay a trace into convergence/fault/flame tables
//! repro bench               # write BENCH_grid.json / BENCH_particle.json / BENCH_stream.json
//! repro bench --scale       # also run the grid-resolution + sharded 1k-1M
//!                           # deployment sweeps into BENCH_scale.json
//! repro bench --scale --quick  # sharded sweep capped at 100k nodes, into
//!                              # BENCH_scale_quick.json (the CI lane)
//! repro bench --out perf/   # same, into a directory
//! repro bench --check --tolerance 2.0  # compare fresh numbers to the pinned JSONs
//! repro audit-determinism             # schedule-perturbation determinism audit
//! repro audit-determinism --quick     # reduced matrix for CI smoke jobs
//! ```
//!
//! The `trace` subcommand runs the standard scenario with a recording
//! observer attached and writes a replayable `trace.jsonl` (schema: see the
//! README's "Observability" section) with one JSON record per line —
//! `run_start`, per-iteration residual/communication records, timing
//! spans, structured events, and `run_end`.
//!
//! The `analyze` subcommand replays a recorded trace through the *same*
//! `MetricsObserver` fold a live run uses, so its convergence, fault and
//! flame tables match the live snapshot exactly (the fold is
//! order-insensitive and the JSONL encoder round-trips every finite
//! float).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use wsnloc::prelude::*;
use wsnloc_eval::{bench, evaluate, experiments, top, EvalConfig, ExpConfig, Parallelism};
use wsnloc_obs::{write_jsonl, Stopwatch, TelemetryHub, TelemetryServer};

fn usage() -> &'static str {
    "usage: repro <list | trace | analyze [FILE] [--follow] | top ADDR | bench [--check] [--scale] | audit-determinism | all | ids...> [--trials N] [--particles N] [--iterations N] [--backend particle|grid|gaussian] [--quick] [--tolerance R] [--out DIR] [--telemetry ADDR] [--telemetry-linger SECS] [--interval SECS] [--once] [--idle-timeout SECS]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    let mut cfg = ExpConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut backend = String::from("particle");
    let mut check = false;
    let mut scale = false;
    let mut tolerance = 1.5f64;
    let mut telemetry_addr: Option<String> = None;
    let mut linger = 0.0f64;
    let mut interval = 2.0f64;
    let mut once = false;
    let mut follow = false;
    let mut idle_timeout = 5.0f64;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--scale" => scale = true,
            "--once" => once = true,
            "--follow" => follow = true,
            "--telemetry" => {
                i += 1;
                telemetry_addr = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--telemetry needs host:port")),
                );
            }
            "--telemetry-linger" => {
                i += 1;
                linger = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| die("--telemetry-linger needs seconds"));
            }
            "--interval" => {
                i += 1;
                interval = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| die("--interval needs positive seconds"));
            }
            "--idle-timeout" => {
                i += 1;
                idle_timeout = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| die("--idle-timeout needs positive seconds"));
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t > 0.0)
                    .unwrap_or_else(|| die("--tolerance needs a positive ratio"));
            }
            "--quick" => {
                cfg = ExpConfig {
                    quick: true,
                    ..ExpConfig::quick()
                }
            }
            "--trials" => {
                i += 1;
                cfg.trials = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--trials needs a number"));
            }
            "--particles" => {
                i += 1;
                cfg.particles = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--particles needs a number"));
            }
            "--iterations" => {
                i += 1;
                cfg.iterations = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--iterations needs a number"));
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--out needs a directory")),
                ));
            }
            "--backend" => {
                i += 1;
                backend = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--backend needs particle|grid|gaussian"));
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }

    if ids.iter().any(|id| id == "list") {
        println!("experiments: {}", experiments::ids().join(", "));
        println!("(see DESIGN.md §4 for what each one reproduces)");
        return ExitCode::SUCCESS;
    }

    if ids.iter().any(|id| id == "trace") {
        return run_trace(&cfg, &backend, out_dir.as_deref());
    }

    if let Some(pos) = ids.iter().position(|id| id == "top") {
        let Some(addr) = ids.get(pos + 1).cloned().or(telemetry_addr) else {
            eprintln!("top needs a telemetry address (repro top HOST:PORT)");
            return ExitCode::FAILURE;
        };
        let refreshes = if once { 1 } else { cfg.iterations.max(1) };
        return run_top(&addr, interval, refreshes);
    }

    if let Some(pos) = ids.iter().position(|id| id == "analyze") {
        let path = ids
            .get(pos + 1)
            .map_or_else(|| PathBuf::from("trace.jsonl"), PathBuf::from);
        if follow {
            return run_analyze_follow(&path, interval.min(1.0), idle_timeout, out_dir.as_deref());
        }
        return run_analyze(&path, out_dir.as_deref());
    }

    if ids.iter().any(|id| id == "bench") {
        return run_bench(out_dir.as_deref(), check, scale, cfg.quick, tolerance);
    }

    if ids.iter().any(|id| id == "audit-determinism") {
        return run_audit(cfg.quick);
    }

    let selected: Vec<String> = if ids.iter().any(|id| id == "all") {
        experiments::ids()
            .iter()
            .map(std::string::ToString::to_string)
            .collect()
    } else {
        ids
    };
    if selected.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }

    eprintln!(
        "config: trials={} particles={} iterations={} quick={}",
        cfg.trials, cfg.particles, cfg.iterations, cfg.quick
    );

    // With --telemetry, experiments that support live publication (the
    // streaming service) share one hub whose scrape endpoint outlives the
    // individual engines; `--telemetry-linger` keeps it up after the last
    // report so external scrapers can catch the final window.
    let mut server: Option<TelemetryServer> = None;
    let hub = telemetry_addr.as_deref().map(|addr| {
        let hub = TelemetryHub::new(64);
        match TelemetryServer::start(addr, hub.clone()) {
            Ok(srv) => {
                eprintln!("telemetry listening on {}", srv.local_addr());
                server = Some(srv);
            }
            Err(e) => die(&format!("failed to bind telemetry on {addr}: {e}")),
        }
        hub
    });

    for id in &selected {
        let reports = match (id.as_str(), &hub) {
            ("f16", Some(hub)) => Some(experiments::f16_streaming::run_with_telemetry(&cfg, hub)),
            _ => experiments::by_id(id, &cfg),
        };
        let Some(reports) = reports else {
            eprintln!("unknown experiment id: {id} (try `repro list`)");
            return ExitCode::FAILURE;
        };
        for report in reports {
            println!("{}", report.to_ascii());
            if let Some(dir) = &out_dir {
                match report.write_csv(dir) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("failed to write {}: {e}", report.id),
                }
            }
        }
    }
    if let Some(mut srv) = server {
        if linger > 0.0 {
            eprintln!("telemetry lingering for {linger}s on {}", srv.local_addr());
            std::thread::sleep(Duration::from_secs_f64(linger));
        }
        srv.shutdown();
        eprintln!("telemetry stopped");
    }
    ExitCode::SUCCESS
}

/// Runs the schedule-perturbation determinism audit (the dynamic half of
/// the correctness gate; see `wsnloc_eval::audit`).
fn run_audit(quick: bool) -> ExitCode {
    let config = if quick {
        wsnloc_eval::AuditConfig::quick()
    } else {
        wsnloc_eval::AuditConfig::full()
    };
    eprintln!(
        "audit-determinism: threads {:?} x {} schedule permutations (+ input order), grid + particle + sharded-grid BP + streaming engine",
        config.thread_counts,
        config.permutation_seeds.len()
    );
    let outcome = wsnloc_eval::audit_determinism(&config);
    if outcome.passed() {
        eprintln!(
            "audit-determinism: {} runs, all bit-identical to the sequential reference",
            outcome.runs
        );
        ExitCode::SUCCESS
    } else {
        for failure in &outcome.failures {
            eprintln!("audit-determinism: FAIL {failure}");
        }
        eprintln!(
            "audit-determinism: {} of {} runs diverged",
            outcome.failures.len(),
            outcome.runs
        );
        ExitCode::FAILURE
    }
}

/// Runs the standard scenario with a recording observer and writes the
/// collected runs to `trace.jsonl` (in `out_dir` when given).
fn run_trace(cfg: &ExpConfig, backend: &str, out_dir: Option<&std::path::Path>) -> ExitCode {
    let backend = match backend {
        "particle" => experiments::particles(cfg.particles),
        "grid" => experiments::grid(30),
        "gaussian" => Backend::gaussian(),
        other => {
            eprintln!("unknown backend: {other} (want particle|grid|gaussian)");
            return ExitCode::FAILURE;
        }
    };
    let algo = match BnlLocalizer::builder(backend)
        .prior(PriorModel::DropPoint {
            sigma: experiments::PRIOR_SIGMA,
        })
        .max_iterations(cfg.iterations)
        .tolerance(experiments::RANGE * 0.02)
        .try_build()
    {
        Ok(algo) => algo,
        Err(e) => {
            eprintln!("invalid localizer configuration: {e}");
            return ExitCode::FAILURE;
        }
    };

    let scenario = experiments::standard_scenario();
    eprintln!(
        "tracing {} on '{}': trials={} iterations={}",
        algo.name(),
        scenario.name,
        cfg.trials,
        cfg.iterations
    );
    // Sequential trials keep the trace file in trial order; metrics ride
    // along so the live snapshot can be compared against `repro analyze`.
    let outcome = evaluate(
        &algo,
        &scenario,
        &EvalConfig::trials(cfg.trials)
            .with_traces()
            .with_metrics()
            .with_parallelism(Parallelism::Sequential),
    );
    let (Some(traces), Some(metrics)) = (outcome.traces.as_ref(), outcome.metrics.as_ref()) else {
        eprintln!("no traces were collected");
        return ExitCode::FAILURE;
    };

    let path = out_dir.map_or_else(|| PathBuf::from("trace.jsonl"), |d| d.join("trace.jsonl"));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("failed to create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let lines = match JsonlSink::create(&path).and_then(|mut sink| {
        let lines = write_jsonl(traces, &mut sink)?;
        // Surface buffered-write errors now instead of losing them in drop.
        sink.finish()?;
        Ok(lines)
    }) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let overall = &metrics.overall;
    eprintln!(
        "wrote {} lines ({} runs) to {}",
        lines,
        traces.len(),
        path.display()
    );
    let runs = overall.runs.max(1) as f64;
    for (label, secs, _) in &overall.span_secs {
        eprintln!("  span {label}: {:.1} ms/run", secs / runs * 1e3);
    }
    println!("{}", overall.convergence_table());
    ExitCode::SUCCESS
}

/// Live terminal view of a running telemetry endpoint: polls `/metrics`,
/// `/healthz`, and `/tenants` every `interval` seconds and redraws the
/// rollup, `refreshes` times (`--once` sets 1; `--iterations N` sets N).
fn run_top(addr: &str, interval: f64, refreshes: usize) -> ExitCode {
    for refresh in 0..refreshes {
        let scraped = top::http_get(addr, "/metrics").and_then(|metrics| {
            let healthz = top::http_get(addr, "/healthz")?;
            let tenants = top::http_get(addr, "/tenants")?;
            Ok((metrics, healthz, tenants))
        });
        match scraped {
            Ok((metrics, healthz, tenants)) => {
                if refreshes > 1 {
                    // Clear the screen and home the cursor between redraws.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", top::render_top(&metrics, &healthz, &tenants));
                println!("  [{addr}  refresh {}/{refreshes}]", refresh + 1);
            }
            Err(e) => {
                eprintln!("scrape of {addr} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if refresh + 1 < refreshes {
            std::thread::sleep(Duration::from_secs_f64(interval));
        }
    }
    ExitCode::SUCCESS
}

/// Tails a growing `trace.jsonl`: polls for appended complete lines,
/// reports progress as runs land, and prints the full analysis tables
/// once the file has been idle for `idle_timeout` seconds.
fn run_analyze_follow(
    path: &std::path::Path,
    poll: f64,
    idle_timeout: f64,
    out_dir: Option<&std::path::Path>,
) -> ExitCode {
    use std::io::{Read as _, Seek as _, SeekFrom};
    eprintln!(
        "following {} (idle timeout {idle_timeout}s)...",
        path.display()
    );
    let mut buffered = String::new();
    let mut complete_len = 0usize; // prefix of `buffered` ending in '\n'
    let mut offset = 0u64;
    let mut reported_runs = 0usize;
    let mut idle = Stopwatch::start();
    loop {
        let mut grew = false;
        if let Ok(mut file) = std::fs::File::open(path) {
            let len = file.metadata().map_or(0, |m| m.len());
            if len < offset {
                // Truncated/rewritten upstream: start over.
                eprintln!("{} shrank; restarting tail", path.display());
                buffered.clear();
                complete_len = 0;
                offset = 0;
            }
            if len > offset && file.seek(SeekFrom::Start(offset)).is_ok() {
                let mut chunk = String::new();
                if file.read_to_string(&mut chunk).is_ok() && !chunk.is_empty() {
                    offset += chunk.len() as u64;
                    buffered.push_str(&chunk);
                    if let Some(nl) = buffered.rfind('\n') {
                        complete_len = nl + 1;
                    }
                    grew = true;
                }
            }
        }
        if grew {
            idle = Stopwatch::start();
            let runs = buffered[..complete_len]
                .lines()
                .filter(|l| l.contains("\"run_end\""))
                .count();
            if runs > reported_runs {
                reported_runs = runs;
                let lines = buffered[..complete_len].lines().count();
                eprintln!("  {runs} runs complete ({lines} lines)");
            }
        } else if idle.elapsed_secs() >= idle_timeout {
            break;
        }
        std::thread::sleep(Duration::from_secs_f64(poll));
    }
    if complete_len == 0 {
        eprintln!("no complete trace lines appeared in {}", path.display());
        return ExitCode::FAILURE;
    }
    buffered.truncate(complete_len);
    analyze_text(&buffered, path, out_dir)
}

/// Replays a recorded `trace.jsonl` through the live analytics path and
/// prints convergence, fault, and span tables. With `--out DIR`, also
/// writes the OpenMetrics rendering to `DIR/metrics.prom`.
fn run_analyze(path: &std::path::Path, out_dir: Option<&std::path::Path>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("failed to read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    analyze_text(&text, path, out_dir)
}

/// The shared tail of `analyze` and `analyze --follow`: parse, print
/// tables, optionally export the OpenMetrics rendering.
fn analyze_text(text: &str, path: &std::path::Path, out_dir: Option<&std::path::Path>) -> ExitCode {
    let analysis = match wsnloc_obs::analyze_str(text) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("failed to parse {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "analyzed {}: {} runs ({} incomplete)",
        path.display(),
        analysis.runs,
        analysis.incomplete_runs
    );
    println!("{}", analysis.snapshot.convergence_table());
    println!("{}", analysis.snapshot.fault_table());
    println!("{}", analysis.flame_table);
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let prom = dir.join("metrics.prom");
        if let Err(e) = std::fs::write(&prom, &analysis.openmetrics) {
            eprintln!("failed to write {}: {e}", prom.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", prom.display());
    }
    ExitCode::SUCCESS
}

/// Runs the pinned perf benches. Default mode writes `BENCH_grid.json` /
/// `BENCH_particle.json` / `BENCH_stream.json` — plus `BENCH_scale.json`
/// with `--scale` — (into `out_dir` when given) so the perf
/// trajectory is tracked in version control; `--check` mode instead
/// compares the fresh numbers against the pinned files (read from
/// `out_dir` or the working directory) and exits nonzero on regression.
///
/// `--scale --quick` swaps the scale target to `BENCH_scale_quick.json`,
/// whose sharded deployment sweep stops at 100k nodes — the CI lane; the
/// full file's million-node row is a local pin
/// (`cargo run --release -p wsnloc-eval --bin repro -- bench --scale`).
fn run_bench(
    out_dir: Option<&std::path::Path>,
    check: bool,
    scale: bool,
    quick: bool,
    tolerance: f64,
) -> ExitCode {
    const SAMPLES: usize = 5;
    /// The scale sweep times up to 120×120 cells per row, so it runs
    /// fewer repetitions than the small pinned scenarios.
    const SCALE_SAMPLES: usize = 3;
    let dir = out_dir.unwrap_or_else(|| std::path::Path::new("."));
    if !check && !dir.as_os_str().is_empty() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!("grid message-passing bench: cached vs reference path ({SAMPLES} samples each)...");
    let grid = bench::grid_bench_json(SAMPLES);
    eprintln!("particle/gaussian bench ({SAMPLES} samples each)...");
    let particle = bench::particle_bench_json(SAMPLES);
    eprintln!(
        "streaming engine bench: {} warm tenant epochs per tick ({SAMPLES} samples)...",
        bench::STREAM_TENANTS
    );
    let stream = bench::stream_bench_json(SAMPLES);
    let scale_json;
    let mut outputs = vec![
        ("BENCH_grid.json", &grid),
        ("BENCH_particle.json", &particle),
        ("BENCH_stream.json", &stream),
    ];
    if scale {
        eprintln!(
            "scale sweep: grid resolutions {:?} dense vs coarse-to-fine, sharded deployments {:?}{} flat vs sharded-gaussian ({SCALE_SAMPLES} samples each)...",
            bench::SCALE_RESOLUTIONS,
            if quick {
                &bench::SHARD_SCALE_NODES[..bench::SHARD_SCALE_NODES.len() - 1]
            } else {
                &bench::SHARD_SCALE_NODES[..]
            },
            if quick { " (quick)" } else { "" },
        );
        scale_json = bench::scale_bench_json(SCALE_SAMPLES, quick);
        outputs.push((
            if quick {
                "BENCH_scale_quick.json"
            } else {
                "BENCH_scale.json"
            },
            &scale_json,
        ));
    }
    if check {
        let mut regressed = false;
        for (name, fresh) in outputs {
            let path = dir.join(name);
            let pinned = match std::fs::read_to_string(&path) {
                Ok(pinned) => pinned,
                Err(e) => {
                    eprintln!("failed to read pinned {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            match bench::check_bench_json(&pinned, fresh, tolerance) {
                Ok(failures) if failures.is_empty() => {
                    eprintln!("{name}: ok (tolerance {tolerance})");
                }
                Ok(failures) => {
                    regressed = true;
                    for failure in failures {
                        eprintln!("{name}: REGRESSION {failure}");
                    }
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    for (name, contents) in outputs {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        print!("{contents}");
    }
    ExitCode::SUCCESS
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{}", usage());
    std::process::exit(2)
}
