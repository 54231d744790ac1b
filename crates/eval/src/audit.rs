//! Schedule-perturbation determinism audit (`cargo run --release -p
//! wsnloc-eval --bin repro -- audit-determinism [--quick]`).
//!
//! The clippy gate can reject *patterns* that tend to break
//! determinism (unseeded RNG, `HashMap` iteration, unfenced atomics);
//! this module is the dynamic complement: it *executes* grid, particle
//! and Gaussian BP — plus sharded runs (a sharded grid and a sharded
//! Gaussian on a perfect transport, and a sharded particle run whose
//! cross-shard links roll loss and staleness fates) and a multi-tenant
//! streaming-engine scenario with belief carry-over and overload
//! shedding — under every
//! combination of worker-pool thread count and seeded schedule
//! permutation (the `rayon` shim's `set_schedule_permutation` hook
//! shuffles the order chunk jobs reach the shared queue) and asserts
//! that beliefs, folded metrics (for the streaming engine, its store's
//! lifetime counts) and per-shard boundary exchanges are
//! **bit-identical** to a sequential reference run.
//!
//! Because the shim assigns each chunk a fixed output slot and drains
//! the batch latch before returning, a permuted schedule cannot change
//! results *through the pool*; any divergence this audit finds is an
//! order-dependence smuggled in by a caller — exactly the class of bug
//! thread-count sweeps alone can miss. It needs no nightly sanitizers
//! and runs offline, so it doubles as a poor-man's race detector in CI.

use wsnloc::prelude::*;
use wsnloc_obs::{Fact, FanoutObserver, MetricsObserver, MetricsSnapshot, ObsEvent, RunTrace};
use wsnloc_serve::{EngineConfig, MeasurementEpoch, SessionConfig, StreamingEngine};

/// The perturbation matrix one audit run sweeps.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Worker-pool sizes to install, in order; the first entry paired
    /// with an unpermuted schedule is the reference run.
    pub thread_counts: Vec<usize>,
    /// Seeds for the shim's schedule-permutation hook. Each thread count
    /// also runs once unpermuted.
    pub permutation_seeds: Vec<u64>,
}

impl AuditConfig {
    /// The CI gate matrix: thread counts {1,2,4,8} × 8 seeded schedule
    /// permutations (plus the unpermuted schedule at each count).
    #[must_use]
    pub fn full() -> AuditConfig {
        AuditConfig {
            thread_counts: vec![1, 2, 4, 8],
            permutation_seeds: (0..8).map(|i| 0xA0D1_7000 + i * 7919).collect(),
        }
    }

    /// Reduced matrix for `--quick` smoke runs: {1,2,4} × 3 seeds.
    #[must_use]
    pub fn quick() -> AuditConfig {
        AuditConfig {
            thread_counts: vec![1, 2, 4],
            permutation_seeds: vec![0xA0D1_7000, 0xA0D1_8EEF, 0xA0D1_BEEF],
        }
    }
}

/// What one audit sweep observed.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Localization runs executed (reference runs included).
    pub runs: usize,
    /// One line per diverging run: backend, thread count, permutation
    /// seed, and which fingerprint component differed.
    pub failures: Vec<String>,
}

impl AuditOutcome {
    /// `true` when every run matched the reference bit-for-bit.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything a run must reproduce exactly, with floats carried as raw
/// bits so `-0.0`/`NaN` cannot hide behind `PartialEq`.
#[derive(PartialEq)]
struct Fingerprint {
    estimates: Vec<Option<(u64, u64)>>,
    uncertainty: Vec<Option<u64>>,
    iterations: usize,
    converged: bool,
    /// The run fold's snapshot; empty for the streaming workload.
    metrics: MetricsSnapshot,
    /// The streaming engine store's lifetime [`STREAM_TOTALS`]; empty
    /// for single runs.
    totals: Vec<u64>,
    /// `(iteration, shard, messages)` of every boundary exchange.
    boundary: Vec<(usize, usize, u64)>,
}

/// The engine store's counts the streaming fingerprint compares. Its
/// float sums are left out: parallel tenants add into the one store in
/// schedule order. The residual values themselves are audited on the
/// single runs.
const STREAM_TOTALS: [Fact; 6] = [
    Fact::Runs,
    Fact::Iterations,
    Fact::Messages,
    Fact::EpochsSolved,
    Fact::EpochsShed,
    Fact::Residual,
];

fn fingerprint(
    result: &LocalizationResult,
    metrics: MetricsSnapshot,
    trace: Option<RunTrace>,
) -> Fingerprint {
    let boundary = trace.map_or_else(Vec::new, |t| {
        t.events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::BoundaryExchange {
                    round,
                    shard,
                    messages,
                } => Some((*round, *shard, *messages)),
                _ => None,
            })
            .collect()
    });
    Fingerprint {
        estimates: result
            .estimates
            .iter()
            .map(|e| e.map(|p| (p.x.to_bits(), p.y.to_bits())))
            .collect(),
        uncertainty: result
            .uncertainty
            .iter()
            .map(|u| u.map(f64::to_bits))
            .collect(),
        iterations: result.iterations,
        converged: result.converged,
        metrics: normalize(metrics),
        totals: Vec::new(),
        boundary,
    }
}

/// Zeroes the one wall-clock field of a snapshot (span durations) so the
/// comparison is purely structural; call counts stay significant.
fn normalize(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
    for (_, secs, _) in &mut snapshot.span_secs {
        *secs = 0.0;
    }
    snapshot
}

/// The audited workload: same drop-cluster scenario the determinism
/// tier-1 tests pin, exercised by the iterative backends flat and
/// through the sharded execution layer.
fn audit_scenario() -> Scenario {
    Scenario {
        name: "audit-determinism".into(),
        deployment: Deployment::planned_square_drop(500.0, 3, 50.0),
        node_count: 50,
        anchors: AnchorStrategy::Random { count: 7 },
        radio: RadioModel::UnitDisk { range: 150.0 },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
        seed: 0xA0D17,
    }
}

fn backends() -> Vec<(&'static str, BnlLocalizer)> {
    let prior = PriorModel::DropPoint { sigma: 50.0 };
    vec![
        (
            "grid",
            BnlLocalizer::builder(Backend::grid(25).expect("valid backend"))
                .prior(prior.clone())
                .max_iterations(4)
                .try_build()
                .expect("valid config"),
        ),
        (
            "particle",
            BnlLocalizer::builder(Backend::particle(100).expect("valid backend"))
                .prior(prior.clone())
                .max_iterations(5)
                .tolerance(0.0)
                .try_build()
                .expect("valid config"),
        ),
        // The city's backend: its prior init and node updates both run
        // on the pool.
        (
            "gaussian",
            BnlLocalizer::builder(Backend::Gaussian)
                .prior(prior.clone())
                .max_iterations(5)
                .tolerance(0.0)
                .try_build()
                .expect("valid config"),
        ),
        // The layout splits the 50-node audit field into a 2×2 tile
        // grid, so the per-shard boundary exchanges are audited under
        // permutation too.
        (
            "sharded-grid",
            BnlLocalizer::builder(Backend::grid(25).expect("valid backend"))
                .prior(prior.clone())
                .max_iterations(4)
                .shards(ShardPlan::target_nodes(16).expect("valid shard plan"))
                .try_build()
                .expect("valid config"),
        ),
        (
            "sharded-gaussian",
            BnlLocalizer::builder(Backend::Gaussian)
                .prior(prior.clone())
                .max_iterations(5)
                .tolerance(0.0)
                .shards(ShardPlan::target_nodes(16).expect("valid shard plan"))
                .try_build()
                .expect("valid config"),
        ),
        // The faulted boundary path: cross-shard links roll loss and
        // staleness fates while the updates run on the pool.
        (
            "sharded-particle-faulted",
            BnlLocalizer::builder(Backend::particle(60).expect("valid backend"))
                .prior(prior)
                .max_iterations(4)
                .tolerance(0.0)
                .shards(ShardPlan::target_nodes(16).expect("valid shard plan"))
                .fault_plan(FaultPlan::iid_loss(0xA0D17, 0.3).with_stale_prob(0.2))
                .try_build()
                .expect("valid config"),
        ),
    ]
}

/// The audited streaming workload: three tenant sessions on the audit
/// network (distinct per-tenant seeds), three epochs of belief
/// carry-over, and a per-tick capacity of two so the round-robin shed
/// path (decay-to-prior coasting) executes under perturbation too. The
/// fingerprint concatenates every update's estimates/uncertainty in
/// tenant order and reads the engine store's [`STREAM_TOTALS`].
fn stream_fingerprint(network: &Network) -> Fingerprint {
    let mut engine = StreamingEngine::new(EngineConfig {
        capacity_per_tick: 2,
        shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
    });
    let localizer = BnlLocalizer::builder(Backend::particle(80).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(3)
        .tolerance(0.0)
        .try_build()
        .expect("valid config");
    let session_cfg = SessionConfig::new(localizer).with_motion(MotionModel::random_walk(4.0));
    let ids: Vec<_> = (0..3u64)
        .map(|_| engine.open_session(session_cfg.clone()))
        .collect();
    let mut estimates = Vec::new();
    let mut uncertainty = Vec::new();
    let mut iterations = 0;
    let mut converged = true;
    for e in 0..3u64 {
        for (u, id) in ids.iter().enumerate() {
            engine.submit(
                *id,
                MeasurementEpoch::new(network.clone(), 0xF1DE ^ (u as u64) ^ (e << 8)),
            );
        }
        for up in engine.tick() {
            estimates.extend(
                up.result
                    .estimates
                    .iter()
                    .map(|p| p.map(|p| (p.x.to_bits(), p.y.to_bits()))),
            );
            uncertainty.extend(up.result.uncertainty.iter().map(|u| u.map(f64::to_bits)));
            iterations += up.result.iterations;
            converged &= up.result.converged || up.degraded;
        }
    }
    let store = engine.window();
    Fingerprint {
        estimates,
        uncertainty,
        iterations,
        converged,
        metrics: MetricsSnapshot::default(),
        totals: STREAM_TOTALS.map(|fact| store.total(fact)).to_vec(),
        boundary: Vec::new(),
    }
}

/// Runs the full perturbation sweep and reports every divergence.
///
/// The schedule-permutation hook is process-global; the sweep always
/// clears it before returning, including on the failure paths.
#[must_use]
pub fn audit_determinism(config: &AuditConfig) -> AuditOutcome {
    let mut outcome = AuditOutcome {
        runs: 0,
        failures: Vec::new(),
    };
    let scenario = audit_scenario();
    let (network, _truth) = scenario.build_trial(0);

    let run = |threads: usize, permutation: Option<u64>, algo: &BnlLocalizer| -> Fingerprint {
        rayon::set_schedule_permutation(permutation);
        let observer = MetricsObserver::new();
        let tracer = TraceObserver::new();
        let fanout = FanoutObserver::new(vec![&observer, &tracer]);
        let result = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build is infallible")
            .install(|| algo.localize_with_observer(&network, 0xF1DE, &fanout));
        rayon::set_schedule_permutation(None);
        fingerprint(&result, observer.snapshot(), tracer.last_run())
    };

    for (label, algo) in backends() {
        let reference = run(
            config.thread_counts.first().copied().unwrap_or(1),
            None,
            &algo,
        );
        outcome.runs += 1;
        for &threads in &config.thread_counts {
            let schedules =
                std::iter::once(None).chain(config.permutation_seeds.iter().map(|&s| Some(s)));
            for permutation in schedules {
                let got = run(threads, permutation, &algo);
                outcome.runs += 1;
                if got != reference {
                    let schedule = permutation
                        .map_or_else(|| "input-order".to_string(), |s| format!("seed {s:#x}"));
                    let what = diverged(&reference, &got);
                    outcome.failures.push(format!(
                        "{label}: threads={threads} schedule={schedule}: {what} diverged from the sequential reference"
                    ));
                }
            }
        }
    }

    // Streaming workload: the multi-tenant engine batches whole tenant
    // solves through the pool, so its determinism deserves its own sweep.
    let stream_run = |threads: usize, permutation: Option<u64>| -> Fingerprint {
        rayon::set_schedule_permutation(permutation);
        let fp = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build is infallible")
            .install(|| stream_fingerprint(&network));
        rayon::set_schedule_permutation(None);
        fp
    };
    let reference = stream_run(config.thread_counts.first().copied().unwrap_or(1), None);
    outcome.runs += 1;
    for &threads in &config.thread_counts {
        let schedules =
            std::iter::once(None).chain(config.permutation_seeds.iter().map(|&s| Some(s)));
        for permutation in schedules {
            let got = stream_run(threads, permutation);
            outcome.runs += 1;
            if got != reference {
                let schedule = permutation
                    .map_or_else(|| "input-order".to_string(), |s| format!("seed {s:#x}"));
                let what = diverged(&reference, &got);
                outcome.failures.push(format!(
                    "streaming: threads={threads} schedule={schedule}: {what} diverged from the sequential reference"
                ));
            }
        }
    }
    outcome
}

/// Names the first fingerprint component that differs, for actionable
/// failure lines.
fn diverged(reference: &Fingerprint, got: &Fingerprint) -> &'static str {
    if got.estimates != reference.estimates {
        "belief estimates"
    } else if got.uncertainty != reference.uncertainty {
        "belief uncertainty"
    } else if got.iterations != reference.iterations || got.converged != reference.converged {
        "convergence trajectory"
    } else if got.boundary != reference.boundary {
        "boundary exchanges"
    } else if got.totals != reference.totals {
        "engine store totals"
    } else {
        "metrics fold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_bit_identical() {
        let outcome = audit_determinism(&AuditConfig {
            thread_counts: vec![1, 2],
            permutation_seeds: vec![0xA0D1_7000],
        });
        // 7 workloads (grid, particle, Gaussian, sharded-grid,
        // sharded-Gaussian, faulted sharded-particle, streaming engine) ×
        // (1 reference + 2 thread counts × 2 schedules).
        assert_eq!(outcome.runs, 35);
        assert!(outcome.passed(), "divergences: {:?}", outcome.failures);
    }

    #[test]
    fn normalize_zeroes_only_span_durations() {
        let observer = MetricsObserver::new();
        let snapshot = normalize(observer.snapshot());
        assert!(snapshot.span_secs.iter().all(|(_, secs, _)| *secs == 0.0));
    }
}
