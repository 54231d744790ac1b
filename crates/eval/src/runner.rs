//! Monte-Carlo trial runner.
//!
//! [`evaluate`] runs a [`Localizer`] over independent trials of a
//! [`Scenario`] — trial `t` realizes the scenario with seed offset `t` and
//! localizes with algorithm seed `t` — and aggregates errors,
//! coverage, communication, and runtime. How many trials, how they are
//! scheduled, and whether they are recorded is configured through
//! [`EvalConfig`]; `EvalConfig::trials(n)` reproduces the historical
//! positional call `evaluate(algo, scenario, n)`.
//!
//! Trials run in parallel through rayon by default; the per-trial seeds make
//! the aggregate independent of scheduling. Recorded runs come back in
//! trial order on [`EvalOutcome::traces`]; metrics over them are one
//! replay away ([`wsnloc_obs::analyze`]). A caller that wants another
//! observer on a trial brings it to [`run_trial_observed`].

use rayon::prelude::*;
use wsnloc::Localizer;
use wsnloc_geom::stats::{self, Welford};
use wsnloc_net::Scenario;
use wsnloc_obs::{InferenceObserver, RunTrace, TraceObserver};

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
}

/// Aggregated evaluation of one algorithm on one scenario.
#[derive(Debug, Clone)]
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
    pub traces: Option<Vec<RunTrace>>,
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
    // One private recorder per trial, so parallel trials cannot
    // interleave; without one the bare (zero-cost) path is taken.
    let run_one = |t: u64| -> (TrialRecord, Vec<RunTrace>) {
        if config.collect_traces {
            let tracer = TraceObserver::new();
            let record = run_trial_observed(algo, scenario, t, &tracer);
            (record, tracer.take_runs())
        } else {
            (run_trial(algo, scenario, t), Vec::new())
        }
    };

    let results: Vec<(TrialRecord, Vec<RunTrace>)> = match config.parallelism {
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
    for (r, trial_traces) in results {
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
    }

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
            &EvalConfig::trials(3).with_traces(),
        );
        let traces = outcome.traces.as_ref().expect("traces collected");
        assert_eq!(traces.len(), 3);
        // Per-trial observers keep trial traces separate even under the
        // parallel scheduler: every trace is a complete run, in trial order.
        for (t, trace) in traces.iter().enumerate() {
            assert_eq!(trace.info.seed, t as u64);
            assert_eq!(trace.iterations.len(), 3);
            assert!(trace.summary.is_some());
        }
        let overall = wsnloc_obs::analyze(traces).snapshot;
        assert_eq!(overall.runs, 3);
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
}
