//! Monte-Carlo trial runner.
//!
//! [`evaluate`] runs a [`Localizer`] over independent trials of a
//! [`Scenario`] — trial `t` realizes the scenario with seed offset `t` and
//! localizes with algorithm seed `t` — and aggregates errors,
//! coverage, communication, and runtime. How many trials, how they are
//! scheduled, and what telemetry they report is configured through
//! [`EvalConfig`]; `EvalConfig::trials(n)` reproduces the historical
//! positional call `evaluate(algo, scenario, n)`.
//!
//! Trials run in parallel through rayon by default; the per-trial seeds make
//! the aggregate independent of scheduling.

use rayon::prelude::*;
use rayon::PoolStats;
use wsnloc::Localizer;
use wsnloc_geom::stats::{self, Welford};
use wsnloc_net::Scenario;
use wsnloc_obs::{
    FanoutObserver, InferenceObserver, MetricsObserver, MetricsSnapshot, RunTrace, TraceObserver,
};

use crate::metrics::{localized_errors, ErrorSummary};

/// How [`evaluate`] schedules its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use whatever rayon pool is ambient (the default — trials fan out
    /// across the global pool, or the pool of an enclosing `install`).
    #[default]
    Ambient,
    /// Run trials one after another on the calling thread.
    Sequential,
}

/// Options for [`evaluate`]. `EvalConfig::trials(n)` matches the behavior
/// of the old positional `evaluate(algo, scenario, n)` signature exactly;
/// everything else is opt-in.
#[derive(Debug, Clone, Default)]
pub struct EvalConfig {
    /// Monte-Carlo trials to run.
    pub trials: u64,
    /// Trial scheduling.
    pub parallelism: Parallelism,
    /// Record a [`RunTrace`] per trial (one private [`TraceObserver`] each,
    /// so parallel trials cannot interleave) into [`EvalOutcome::traces`].
    /// Residual computation makes traced runs slower; leave off for
    /// timing-sensitive evaluations.
    pub collect_traces: bool,
    /// Fold a [`MetricsSnapshot`] per trial (one private
    /// [`MetricsObserver`] each) and aggregate them into
    /// [`EvalOutcome::metrics`], alongside the worker-pool dispatch
    /// counters for the whole evaluation. Enables residual computation,
    /// so metered runs are slower than bare ones.
    pub collect_metrics: bool,
}

impl EvalConfig {
    /// Configuration equivalent to the historical
    /// `evaluate(algo, scenario, trials)` call.
    pub fn trials(trials: u64) -> Self {
        EvalConfig {
            trials,
            ..EvalConfig::default()
        }
    }

    /// Sets the trial scheduling policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables per-trial trace recording into [`EvalOutcome::traces`].
    pub fn with_traces(mut self) -> Self {
        self.collect_traces = true;
        self
    }

    /// Enables per-trial metric folding into [`EvalOutcome::metrics`].
    pub fn with_metrics(mut self) -> Self {
        self.collect_metrics = true;
        self
    }
}

/// Metric snapshots folded across an evaluation (present on
/// [`EvalOutcome::metrics`] when [`EvalConfig::collect_metrics`] was
/// set).
#[derive(Debug, Clone, Default)]
pub struct MetricsAggregate {
    /// One snapshot per trial, in trial order, each folded by a private
    /// [`MetricsObserver`] so parallel trials cannot interleave.
    pub per_trial: Vec<MetricsSnapshot>,
    /// The trial snapshots merged ([`MetricsSnapshot::merge`]) — equal to
    /// what a single observer watching the trials back-to-back would have
    /// folded.
    pub overall: MetricsSnapshot,
    /// Worker-pool dispatch counters accumulated during this evaluation
    /// (process-wide: concurrent evaluations share the counters).
    pub pool: PoolStats,
}

/// Aggregated evaluation of one algorithm on one scenario.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EvalOutcome {
    /// Algorithm display name.
    pub algo: String,
    /// Scenario name.
    pub scenario: String,
    /// Trials executed.
    pub trials: u64,
    /// All localized-node errors pooled across trials (meters).
    pub pooled_errors: Vec<f64>,
    /// Mean of per-trial mean errors (meters).
    pub mean_error: f64,
    /// 95% confidence half-width of `mean_error` across trials.
    pub mean_error_ci95: f64,
    /// Mean coverage (fraction of unknowns localized).
    pub coverage: f64,
    /// Mean messages per node per trial.
    pub msgs_per_node: f64,
    /// Mean bytes per node per trial.
    pub bytes_per_node: f64,
    /// Mean wall seconds per trial.
    pub secs: f64,
    /// Mean iterations per trial.
    pub iterations: f64,
    /// Mean fraction of trials that converged (iterative algorithms).
    pub converged_frac: f64,
    /// The recorded runs in trial order, ready for
    /// [`wsnloc_obs::write_jsonl`]; `Some` only when the evaluation ran
    /// with [`EvalConfig::collect_traces`].
    #[cfg_attr(feature = "serde", serde(skip))]
    pub traces: Option<Vec<RunTrace>>,
    /// Per-trial metric snapshots and their merge; `Some` only when the
    /// evaluation ran with [`EvalConfig::collect_metrics`].
    #[cfg_attr(feature = "serde", serde(skip))]
    pub metrics: Option<MetricsAggregate>,
}

impl EvalOutcome {
    /// Summary of the pooled error distribution (meters).
    pub fn summary(&self) -> Option<ErrorSummary> {
        ErrorSummary::from_errors(&self.pooled_errors)
    }

    /// Summary normalized by `scale` (typically the radio range).
    pub fn normalized_summary(&self, scale: f64) -> Option<ErrorSummary> {
        self.summary().map(|s| s.normalized(scale))
    }
}

/// Per-trial raw record (used internally and by the scalability table).
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Localized-node errors (meters).
    pub errors: Vec<f64>,
    /// Coverage over unknowns.
    pub coverage: f64,
    /// Messages per node.
    pub msgs_per_node: f64,
    /// Bytes per node.
    pub bytes_per_node: f64,
    /// Algorithm wall seconds.
    pub secs: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Converged flag.
    pub converged: bool,
}

/// Runs one trial of `algo` on `scenario`.
pub fn run_trial(algo: &dyn Localizer, scenario: &Scenario, trial: u64) -> TrialRecord {
    trial_record(algo, scenario, trial, None)
}

/// Like [`run_trial`], reporting inference telemetry into `observer`.
pub fn run_trial_observed(
    algo: &dyn Localizer,
    scenario: &Scenario,
    trial: u64,
    observer: &dyn InferenceObserver,
) -> TrialRecord {
    trial_record(algo, scenario, trial, Some(observer))
}

fn trial_record(
    algo: &dyn Localizer,
    scenario: &Scenario,
    trial: u64,
    observer: Option<&dyn InferenceObserver>,
) -> TrialRecord {
    let (network, truth) = scenario.build_trial(trial);
    let result = match observer {
        Some(obs) => algo.localize_with_observer(&network, trial, obs),
        None => algo.localize(&network, trial),
    };
    let errors = localized_errors(&result.errors_for(&truth, Some(&network)));
    let n = network.len();
    TrialRecord {
        coverage: result.coverage(network.unknowns()),
        msgs_per_node: result.comm.messages_per_node(n),
        bytes_per_node: result.comm.bytes as f64 / n as f64,
        secs: result.elapsed_secs,
        iterations: result.iterations,
        converged: result.converged,
        errors,
    }
}

/// Evaluates `algo` over Monte-Carlo realizations of `scenario` as
/// configured by `config`.
pub fn evaluate(algo: &dyn Localizer, scenario: &Scenario, config: &EvalConfig) -> EvalOutcome {
    type TrialOutput = (TrialRecord, Vec<RunTrace>, Option<MetricsSnapshot>);
    let run_one = |t: u64| -> TrialOutput {
        let tracer = config.collect_traces.then(TraceObserver::new);
        let meter = config.collect_metrics.then(MetricsObserver::new);
        // With no recorders configured the bare (zero-cost) path is taken.
        let mut hooks: Vec<&dyn InferenceObserver> = Vec::new();
        if let Some(tracer) = tracer.as_ref() {
            hooks.push(tracer);
        }
        if let Some(meter) = meter.as_ref() {
            hooks.push(meter);
        }
        let record = match hooks.as_slice() {
            [] => run_trial(algo, scenario, t),
            [only] => run_trial_observed(algo, scenario, t, *only),
            _ => {
                let fan = FanoutObserver::new(hooks);
                run_trial_observed(algo, scenario, t, &fan)
            }
        };
        (
            record,
            tracer.map(|t| t.take_runs()).unwrap_or_default(),
            meter.as_ref().map(MetricsObserver::snapshot),
        )
    };

    let pool_before = config.collect_metrics.then(rayon::pool_stats);
    let results: Vec<TrialOutput> = match config.parallelism {
        Parallelism::Sequential => (0..config.trials).map(run_one).collect(),
        Parallelism::Ambient => (0..config.trials).into_par_iter().map(run_one).collect(),
    };

    let mut pooled = Vec::new();
    let mut mean_w = Welford::new();
    let mut cov_w = Welford::new();
    let mut msg_w = Welford::new();
    let mut byte_w = Welford::new();
    let mut sec_w = Welford::new();
    let mut iter_w = Welford::new();
    let mut conv_w = Welford::new();
    let mut per_trial_means = Vec::new();
    let mut traces = Vec::new();
    let mut snapshots = Vec::new();
    for (r, trial_traces, trial_metrics) in results {
        if let Some(m) = stats::mean(&r.errors) {
            mean_w.push(m);
            per_trial_means.push(m);
        }
        pooled.extend_from_slice(&r.errors);
        cov_w.push(r.coverage);
        msg_w.push(r.msgs_per_node);
        byte_w.push(r.bytes_per_node);
        sec_w.push(r.secs);
        iter_w.push(r.iterations as f64);
        conv_w.push(if r.converged { 1.0 } else { 0.0 });
        traces.extend(trial_traces);
        snapshots.extend(trial_metrics);
    }
    let metrics = pool_before.map(|before| MetricsAggregate {
        overall: MetricsSnapshot::merge(&snapshots),
        per_trial: snapshots,
        pool: rayon::pool_stats().since(&before),
    });

    EvalOutcome {
        algo: algo.name(),
        scenario: scenario.name.clone(),
        trials: config.trials,
        pooled_errors: pooled,
        mean_error: mean_w.mean().unwrap_or(f64::NAN),
        mean_error_ci95: stats::ci95_half_width(&per_trial_means).unwrap_or(f64::NAN),
        coverage: cov_w.mean().unwrap_or(0.0),
        msgs_per_node: msg_w.mean().unwrap_or(0.0),
        bytes_per_node: byte_w.mean().unwrap_or(0.0),
        secs: sec_w.mean().unwrap_or(0.0),
        iterations: iter_w.mean().unwrap_or(0.0),
        converged_frac: conv_w.mean().unwrap_or(0.0),
        traces: config.collect_traces.then_some(traces),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnloc::{Backend, BnlLocalizer};
    use wsnloc_baselines::Centroid;
    use wsnloc_net::{AnchorStrategy, Deployment, RadioModel, RangingModel};

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "tiny".into(),
            deployment: Deployment::uniform_square(300.0),
            node_count: 40,
            anchors: AnchorStrategy::Random { count: 8 },
            radio: RadioModel::UnitDisk { range: 120.0 },
            ranging: RangingModel::Multiplicative { factor: 0.05 },
            seed: 7,
        }
    }

    #[test]
    fn evaluate_aggregates_trials() {
        let outcome = evaluate(&Centroid, &tiny_scenario(), &EvalConfig::trials(4));
        assert_eq!(outcome.trials, 4);
        assert_eq!(outcome.algo, "Centroid");
        assert!(!outcome.pooled_errors.is_empty());
        assert!(outcome.mean_error > 0.0);
        assert!(outcome.coverage > 0.3);
        assert!(outcome.msgs_per_node > 0.0);
        assert!(outcome.traces.is_none());
        let s = outcome.summary().unwrap();
        assert!(s.median <= s.p90);
    }

    #[test]
    fn evaluate_is_deterministic_despite_parallelism() {
        let a = evaluate(&Centroid, &tiny_scenario(), &EvalConfig::trials(4));
        let b = evaluate(&Centroid, &tiny_scenario(), &EvalConfig::trials(4));
        assert_eq!(a.mean_error, b.mean_error);
        assert_eq!(a.pooled_errors.len(), b.pooled_errors.len());
        // Scheduling policy changes nothing either.
        let c = evaluate(
            &Centroid,
            &tiny_scenario(),
            &EvalConfig::trials(4).with_parallelism(Parallelism::Sequential),
        );
        assert_eq!(a.mean_error, c.mean_error);
    }

    #[test]
    fn normalized_summary_scales() {
        let outcome = evaluate(&Centroid, &tiny_scenario(), &EvalConfig::trials(2));
        let raw = outcome.summary().unwrap();
        let norm = outcome.normalized_summary(120.0).unwrap();
        assert!((norm.mean - raw.mean / 120.0).abs() < 1e-12);
    }

    #[test]
    fn run_trial_reports_comm() {
        let rec = run_trial(&Centroid, &tiny_scenario(), 0);
        assert!(rec.msgs_per_node > 0.0);
        assert!(rec.bytes_per_node > 0.0);
        assert_eq!(rec.iterations, 1);
        assert!(rec.converged);
    }

    #[test]
    fn collect_traces_aggregates_per_trial_runs() {
        let algo = BnlLocalizer::builder(Backend::particle(60).expect("valid backend"))
            .max_iterations(3)
            .tolerance(0.0)
            .try_build()
            .expect("valid config");
        let outcome = evaluate(
            &algo,
            &tiny_scenario(),
            &EvalConfig::trials(3).with_traces().with_metrics(),
        );
        let traces = outcome.traces.as_ref().expect("traces collected");
        assert_eq!(traces.len(), 3);
        // Per-trial observers keep trial traces separate even under the
        // parallel scheduler: every trace is a complete run.
        for t in traces {
            assert_eq!(t.iterations.len(), 3);
            assert!(t.summary.is_some());
        }
        let overall = &outcome.metrics.as_ref().expect("metrics collected").overall;
        assert_eq!(overall.per_iteration.len(), 3);
        assert!(overall
            .per_iteration
            .iter()
            .all(|it| it.residual_max.is_some_and(f64::is_finite)));
        assert!(overall
            .span_secs
            .iter()
            .any(|(label, _, calls)| label == "message_passing" && *calls == 3));
        // Baselines have no inference loop: tracing them records nothing.
        let base = evaluate(
            &Centroid,
            &tiny_scenario(),
            &EvalConfig::trials(2).with_traces(),
        );
        assert!(base.traces.expect("traces collected").is_empty());
    }

    #[test]
    fn collect_metrics_aggregates_per_trial_snapshots() {
        let algo = BnlLocalizer::builder(Backend::particle(60).expect("valid backend"))
            .max_iterations(3)
            .tolerance(0.0)
            .try_build()
            .expect("valid config");
        let outcome = evaluate(
            &algo,
            &tiny_scenario(),
            &EvalConfig::trials(3).with_metrics(),
        );
        let agg = outcome.metrics.as_ref().expect("metrics collected");
        assert_eq!(agg.per_trial.len(), 3);
        assert_eq!(agg.overall.runs, 3);
        assert_eq!(agg.overall.iterations, 9);
        assert!(!agg.overall.per_iteration.is_empty());
        assert!(agg.overall.per_iteration[0].residual_q50.is_some());
        // The merge equals the sum of the parts.
        let msgs: u64 = agg.per_trial.iter().map(|s| s.messages).sum();
        assert_eq!(agg.overall.messages, msgs);
        // Metrics and traces compose; without either flag both stay None.
        let both = evaluate(
            &algo,
            &tiny_scenario(),
            &EvalConfig::trials(1).with_metrics().with_traces(),
        );
        assert!(both.metrics.is_some() && both.traces.is_some());
        let bare = evaluate(&algo, &tiny_scenario(), &EvalConfig::trials(1));
        assert!(bare.metrics.is_none() && bare.traces.is_none());
    }
}
