//! End-to-end benchmark for the wsnloc workspace.
//!
//! Three workloads, each driven only through the workspace's public
//! APIs from a single process (the in-tree rayon pool at its default size
//! is the only parallelism):
//!
//! - [`field`] — `field-grid`: the paper's 225-node scenario solved cold
//!   with the grid backend (kernel work, nothing else);
//! - [`stream`] — `stream-particle`: a closed-loop 64-tenant
//!   `StreamingEngine` with small warm particle solves (the serving path);
//! - [`city`] — `city-sharded`: a 100k-node Gaussian deployment through
//!   the sharded engine, cold and warm (code that scales with node count).
//!
//! An untraced run reports end-to-end metrics; a traced run (`--trace 1`)
//! times the benchmark's own calls into each layer's public functions and
//! reports a per-layer table. Both print a human-readable report and end
//! with one JSON result line. See `README.md` in this directory.

pub mod city;
pub mod field;
pub mod stream;

use std::fmt::Write as _;
use std::time::Instant;
use wsnloc::LocalizationResult;
use wsnloc_net::{GroundTruth, Network};

/// End-to-end metrics in the result line of an untraced run, in order.
/// `latency_p50_s` stands for the workload's headline latency
/// ([`Workload::headline`]).
pub const JSON_END_TO_END: [&str; 4] = ["setup_s", "latency_p50_s", "epochs_per_s", "rmse_m"];

/// Per-layer metrics in the result line of a traced run, in order. Every
/// workload measures each of them; workload-specific layers appear only
/// in the printed table.
pub const JSON_PER_LAYER: [&str; 18] = [
    "net.build_s",
    "core.model.build_mrf_s",
    "core.model.edges",
    "core.session.advance_s",
    "bayes.run_s",
    "bayes.iterations",
    "bayes.messages",
    "bayes.messages_per_s",
    "bayes.prior_init_s",
    "span.model_build_s",
    "span.message_passing_s",
    "span.estimate_extract_s",
    "obs.fold_s",
    "obs.trace_overhead_frac",
    "rayon.batches",
    "rayon.jobs",
    "rayon.inline_maps",
    "unattributed_s",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's field, grid backend, one-shot cold solves.
    FieldGrid,
    /// 64 tenants on one streaming engine, warm particle epochs.
    StreamParticle,
    /// 100k-node sharded Gaussian deployment, cold and warm epochs.
    CitySharded,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::FieldGrid,
        Workload::StreamParticle,
        Workload::CitySharded,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FieldGrid => "field-grid",
            Workload::StreamParticle => "stream-particle",
            Workload::CitySharded => "city-sharded",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The end-to-end metric the result line reports as `latency_p50_s`.
    #[must_use]
    pub fn headline(self) -> &'static str {
        match self {
            Workload::FieldGrid | Workload::CitySharded => "solve_p50_s",
            Workload::StreamParticle => "tick_p50_s",
        }
    }
}

/// Input size: the documented workloads, or a toy version of each that
/// the benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// Small inputs with the same shape, for tests.
    Toy,
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Minimum measured wall time of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer table) instead of end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Corrupts one estimate before the correctness checks, so tests can
    /// prove the gate trips.
    pub inject_nonfinite: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be finite and non-negative, got {s}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        inject_nonfinite: false,
    })
}

/// Runs one workload and returns its report.
#[must_use]
pub fn run(cfg: &RunConfig) -> Report {
    match cfg.workload {
        Workload::FieldGrid => field::run(cfg),
        Workload::StreamParticle => stream::run(cfg),
        Workload::CitySharded => city::run(cfg),
    }
}

/// Wall-clock seconds of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Mixes the run seed with a per-input tag (splitmix64 finalizer), so
/// every generated input is a pure function of the run seed.
#[must_use]
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measured values of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// No samples yet.
    #[must_use]
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` without samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Median (mean of the middle two for an even count); NaN when empty.
    #[must_use]
    pub fn median(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    /// The `q` quantile (nearest rank), reported only when at least ten
    /// samples lie above it — otherwise it would be a disguised maximum.
    #[must_use]
    pub fn supported_quantile(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        let rank = (q * n as f64).ceil() as usize;
        if rank == 0 || n < rank + 10 {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        Some(v[rank - 1])
    }

    /// Metric named `name` carrying this median and sample count.
    #[must_use]
    pub fn median_metric(&self, name: &str, unit: &'static str, what: &str) -> Metric {
        Metric::new(name, unit, self.median(), self.len(), what)
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as printed and as keyed in the result line.
    pub name: String,
    /// Unit (`s`, `m`, `1/s`, `count`, `1`).
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Number of measurements behind the value.
    pub samples: usize,
    /// One-line description of what was measured.
    pub what: String,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize, what: &str) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
            what: what.to_owned(),
        }
    }
}

/// The correctness gate: every failed check is recorded and turns the
/// run's result into `correct: false` with a nonzero exit code.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    checks: usize,
    failures: Vec<String>,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// `true` when every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks recorded.
    #[must_use]
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Descriptions of the failed checks.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Checks that every node of `network` has a finite estimate in
    /// `result`; returns whether it did.
    pub fn finite_estimates(
        &mut self,
        result: &LocalizationResult,
        network: &Network,
        label: &str,
    ) -> bool {
        let bad = (0..network.len()).find(|&id| {
            !result
                .estimates
                .get(id)
                .copied()
                .flatten()
                .is_some_and(|p| p.x.is_finite() && p.y.is_finite())
        });
        self.check(bad.is_none(), || {
            format!("{label}: node {} has no finite estimate", bad.unwrap_or(0))
        });
        bad.is_none()
    }

    /// Checks that a repeated solve reproduced the first solve's
    /// estimates bit for bit.
    pub fn same_digest(&mut self, first: u64, again: u64, label: &str) {
        self.check(first == again, || {
            format!(
                "{label}: estimates digest {again:#018x} differs from first solve {first:#018x}"
            )
        });
    }
}

/// Bit-exact fingerprint of a result's estimates.
#[must_use]
pub fn digest(result: &LocalizationResult) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for e in &result.estimates {
        match e {
            Some(p) => {
                eat(p.x.to_bits());
                eat(p.y.to_bits());
            }
            None => eat(u64::MAX),
        }
    }
    h
}

/// Pools squared position errors over unknown nodes for an RMSE.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorPool {
    sum_sq: f64,
    count: usize,
}

impl ErrorPool {
    /// Adds every unknown node of `network` with an estimate in `result`.
    pub fn add(&mut self, result: &LocalizationResult, network: &Network, truth: &GroundTruth) {
        for id in network.unknowns() {
            if let Some(p) = result.estimates[id] {
                self.sum_sq += p.dist_sq(truth.position(id));
                self.count += 1;
            }
        }
    }

    /// Root mean squared error in meters (NaN when empty).
    #[must_use]
    pub fn rmse(&self) -> f64 {
        (self.sum_sq / self.count as f64).sqrt()
    }

    /// Node estimates pooled.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }
}

/// What a result depends on besides the code: the machine and the build.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Runtime-detected AVX2.
    pub avx2: bool,
    /// Runtime-detected FMA.
    pub fma: bool,
    /// Worker threads of the rayon pool: the in-tree pool sizes itself
    /// to `available_parallelism` unless a `ThreadPool::install` scope
    /// says otherwise, and the benchmark installs none.
    pub pool_threads: usize,
    /// Build profile of this binary.
    pub profile: &'static str,
}

impl Host {
    /// Detects the current host.
    #[must_use]
    pub fn detect() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let (avx2, fma) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let (avx2, fma) = (false, false);
        Host {
            available_parallelism: cores,
            avx2,
            fma,
            pool_threads: cores,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// The run's configuration.
    pub config: RunConfig,
    /// The machine it ran on.
    pub host: Host,
    /// Exact-match input shape counts (nodes, edges, anchors, …).
    pub input: Vec<(&'static str, u64)>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Free-form lines printed after the tables.
    pub notes: Vec<String>,
    /// The correctness gate.
    pub gate: Gate,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed in the timed phase.
    pub failed: u64,
}

impl Report {
    /// An empty report for `config`.
    #[must_use]
    pub fn new(config: &RunConfig) -> Report {
        Report {
            config: *config,
            host: Host::detect(),
            input: Vec::new(),
            end_to_end: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
            gate: Gate::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// The metric named `name` from the table this run reports.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        let table = if self.config.trace {
            &self.layers
        } else {
            &self.end_to_end
        };
        table.iter().find(|m| m.name == name)
    }

    /// The `(key, metric)` pairs of the result line: every name in
    /// [`JSON_END_TO_END`] (untraced) or [`JSON_PER_LAYER`] (traced).
    /// A missing metric is a gate failure, reported by [`Report::render`].
    #[must_use]
    pub fn result_metrics(&self) -> Vec<(&'static str, Option<&Metric>)> {
        if self.config.trace {
            JSON_PER_LAYER
                .iter()
                .map(|&k| (k, self.metric(k)))
                .collect()
        } else {
            JSON_END_TO_END
                .iter()
                .map(|&k| {
                    let source = if k == "latency_p50_s" {
                        self.config.workload.headline()
                    } else {
                        k
                    };
                    (k, self.metric(source))
                })
                .collect()
        }
    }

    /// Whether every check passed and every result-line metric exists
    /// and is finite.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.gate.passed()
            && self
                .result_metrics()
                .iter()
                .all(|(_, m)| m.is_some_and(|m| m.value.is_finite()))
    }

    /// The human-readable report followed by the JSON result line.
    #[must_use]
    pub fn render(&self) -> String {
        let c = &self.config;
        let h = &self.host;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wsnbench workload={} seed={} seconds={} trace={} size={:?}",
            c.workload.name(),
            c.seed,
            c.seconds,
            u8::from(c.trace),
            c.size
        );
        let _ = writeln!(
            out,
            "host: available_parallelism={} avx2={} fma={} pool_threads={} profile={}",
            h.available_parallelism, h.avx2, h.fma, h.pool_threads, h.profile
        );
        let shape: Vec<String> = self.input.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "input: seed={} {}", c.seed, shape.join(" "));
        let (title, table) = if c.trace {
            ("per-layer (traced run)", &self.layers)
        } else {
            ("end-to-end (tracing off)", &self.end_to_end)
        };
        let _ = writeln!(out, "{title}:");
        let _ = writeln!(
            out,
            "  {:<28} {:>16} {:<6} {:>7}  what",
            "metric", "value", "unit", "samples"
        );
        for m in table {
            let alias = if !c.trace && m.name == c.workload.headline() {
                " (result line: latency_p50_s)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>16.6} {:<6} {:>7}  {}{alias}",
                m.name, m.value, m.unit, m.samples, m.what
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let missing: Vec<&str> = self
            .result_metrics()
            .iter()
            .filter(|(_, m)| !m.is_some_and(|m| m.value.is_finite()))
            .map(|(k, _)| *k)
            .collect();
        if self.gate.passed() && missing.is_empty() {
            let _ = writeln!(out, "gate: ok ({} checks)", self.gate.checks());
        } else {
            for f in self.gate.failures() {
                let _ = writeln!(out, "gate: FAILED {f}");
            }
            for k in &missing {
                let _ = writeln!(out, "gate: FAILED metric {k} missing or not finite");
            }
        }
        out.push_str(&self.result_line());
        out.push('\n');
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`. Missing or non-finite values are left out (and make
    /// `correct` false).
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut metrics = Vec::new();
        for (key, m) in self.result_metrics() {
            if let Some(m) = m.filter(|m| m.value.is_finite()) {
                metrics.push(format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `(after - before)` pool counters as `rayon.*` samples.
#[derive(Debug, Clone, Default)]
pub struct PoolDeltas {
    batches: Samples,
    jobs: Samples,
    inline_maps: Samples,
}

impl PoolDeltas {
    /// Runs `f` and records how many pool batches, chunk jobs and inline
    /// maps it caused.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = rayon::pool_stats();
        let out = f();
        let d = rayon::pool_stats().since(&before);
        self.batches.push(d.batches as f64);
        self.jobs.push(d.jobs as f64);
        self.inline_maps.push(d.inline_maps as f64);
        out
    }

    /// The three `rayon.*` metrics (medians per measured call).
    #[must_use]
    pub fn metrics(&self, per: &str) -> Vec<Metric> {
        vec![
            self.batches.median_metric(
                "rayon.batches",
                "count",
                &format!("pool batches per {per}"),
            ),
            self.jobs
                .median_metric("rayon.jobs", "count", &format!("pool chunk jobs per {per}")),
            self.inline_maps.median_metric(
                "rayon.inline_maps",
                "count",
                &format!("inline parallel maps per {per}"),
            ),
        ]
    }
}

/// Sum of the spans of `kind` in a recorded run.
#[must_use]
pub fn span_secs(run: &wsnloc_obs::RunTrace, kind: wsnloc_obs::SpanKind) -> f64 {
    run.spans
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, s)| s)
        .sum()
}

/// Per-span samples collected from traced runs.
#[derive(Debug, Clone, Default)]
pub struct SpanSamples {
    /// `ModelBuild` (model build, plus shard compile under sharding).
    pub model_build: Samples,
    /// `PriorInit` (absent under sharding: inner engines run unobserved).
    pub prior_init: Samples,
    /// `MessagePassing`.
    pub message_passing: Samples,
    /// `EstimateExtract`.
    pub estimate_extract: Samples,
}

impl SpanSamples {
    /// Adds the spans of every run `trace` recorded, then clears it.
    pub fn absorb(&mut self, trace: &wsnloc_obs::TraceObserver) {
        use wsnloc_obs::SpanKind;
        for run in trace.take_runs() {
            self.model_build.push(span_secs(&run, SpanKind::ModelBuild));
            if run.spans.iter().any(|(k, _)| *k == SpanKind::PriorInit) {
                self.prior_init.push(span_secs(&run, SpanKind::PriorInit));
            }
            self.message_passing
                .push(span_secs(&run, SpanKind::MessagePassing));
            self.estimate_extract
                .push(span_secs(&run, SpanKind::EstimateExtract));
        }
    }

    /// `span.*` metrics; `span.prior_init_s` only when the engine
    /// reported it.
    #[must_use]
    pub fn metrics(&self, of: &str) -> Vec<Metric> {
        let mut out = vec![
            self.model_build.median_metric(
                "span.model_build_s",
                "s",
                &format!("ModelBuild span of {of}"),
            ),
            self.message_passing.median_metric(
                "span.message_passing_s",
                "s",
                &format!("MessagePassing span of {of}"),
            ),
            self.estimate_extract.median_metric(
                "span.estimate_extract_s",
                "s",
                &format!("EstimateExtract span of {of}"),
            ),
        ];
        if !self.prior_init.is_empty() {
            out.push(self.prior_init.median_metric(
                "span.prior_init_s",
                "s",
                &format!("PriorInit span of {of}"),
            ));
        }
        out
    }
}

/// The observer pair the streaming engine folds every solved epoch into:
/// a private `MetricsObserver` and a `WindowedMetrics` window.
#[derive(Debug)]
pub struct ServeFold {
    metrics: wsnloc_obs::MetricsObserver,
    window: wsnloc_obs::WindowedMetrics,
}

impl Default for ServeFold {
    fn default() -> Self {
        ServeFold {
            metrics: wsnloc_obs::MetricsObserver::new(),
            window: wsnloc_obs::WindowedMetrics::new(64),
        }
    }
}

impl ServeFold {
    /// The fan-out the engine builds around each solve.
    #[must_use]
    pub fn fanout(&self) -> wsnloc_obs::FanoutObserver<'_> {
        let targets: Vec<&dyn wsnloc_obs::InferenceObserver> = vec![&self.metrics, &self.window];
        wsnloc_obs::FanoutObserver::new(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_need_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 0..99 {
            s.push(f64::from(i));
        }
        assert_eq!(s.supported_quantile(0.9), None);
        s.push(99.0);
        assert_eq!(s.supported_quantile(0.9), Some(89.0));
        assert_eq!(s.median(), 49.5);
    }

    #[test]
    fn args_round_trip_and_reject_garbage() {
        let args: Vec<String> = [
            "--workload",
            "city-sharded",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let cfg = parse_args(&args).expect("valid arguments");
        assert_eq!(cfg.workload, Workload::CitySharded);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 3.0, true));
        for bad in [
            vec!["--workload", "nope", "--seed", "1", "--seconds", "1"],
            vec!["--workload", "field-grid", "--seed", "x", "--seconds", "1"],
            vec!["--workload", "field-grid", "--seed", "1", "--seconds", "-1"],
            vec!["--workload", "field-grid", "--seed", "1"],
            vec![
                "--workload",
                "field-grid",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
        ] {
            let bad: Vec<String> = bad.iter().map(ToString::to_string).collect();
            assert!(parse_args(&bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
