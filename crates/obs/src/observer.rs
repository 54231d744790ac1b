//! The observer contract: what BP engines report, and the no-op default.

use wsnloc_net::accounting::CommStats;

/// Metadata reported once at the start of every inference run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunInfo {
    /// Belief representation: `"particle"`, `"grid"`, or `"gaussian"`,
    /// prefixed `"sharded-"` when a sharded engine runs it.
    pub backend: &'static str,
    /// Total variables in the model (anchors included).
    pub nodes: usize,
    /// Free (non-anchor) variables actually updated each iteration.
    pub free: usize,
    /// Pairwise factors in the model.
    pub edges: usize,
    /// Iteration cap of this run.
    pub max_iterations: usize,
    /// Convergence tolerance (meters of belief-mean movement).
    pub tolerance: f64,
    /// Damping factor in `[0, 1)`.
    pub damping: f64,
    /// Update schedule: `"synchronous"` or `"sweep"`.
    pub schedule: &'static str,
    /// Bytes one belief broadcast costs on the wire (0 when the caller did
    /// not attach communication accounting).
    pub message_bytes: u64,
    /// Seed driving the run's stochastic parts.
    pub seed: u64,
}

/// One node's belief change across an iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeResidual {
    /// Variable id.
    pub node: usize,
    /// Backend-specific residual: L1 mass distance for grid beliefs,
    /// belief-mean displacement (meters) for particle/Gaussian beliefs.
    pub residual: f64,
    /// KL divergence of the new belief from the old, where the
    /// representation supports it (grid beliefs only).
    pub kl: Option<f64>,
}

/// Everything one BP iteration reports.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Largest belief-mean displacement this iteration (the quantity the
    /// convergence tolerance is tested against), meters.
    pub max_shift: f64,
    /// Belief broadcasts a distributed execution would have sent this
    /// iteration, and their wire bytes.
    pub comm: CommStats,
    /// Damping factor in effect.
    pub damping: f64,
    /// Schedule phase this iteration ran under.
    pub schedule: &'static str,
    /// Wall seconds spent in this iteration's update (timing only — never
    /// compared across runs).
    pub secs: f64,
    /// Per-free-node residuals. Empty unless the observer asked for them
    /// via [`InferenceObserver::wants_residuals`].
    pub residuals: Vec<NodeResidual>,
}

impl IterationRecord {
    /// Largest per-node residual, when residuals were recorded.
    pub fn max_residual(&self) -> Option<f64> {
        self.residuals
            .iter()
            .map(|r| r.residual)
            .max_by(f64::total_cmp)
    }

    /// Mean per-node residual, when residuals were recorded.
    pub fn mean_residual(&self) -> Option<f64> {
        if self.residuals.is_empty() {
            return None;
        }
        Some(self.residuals.iter().map(|r| r.residual).sum::<f64>() / self.residuals.len() as f64)
    }
}

/// The phases a localization run is timed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SpanKind {
    /// Network → factor-graph translation (priors, measurement factors,
    /// negative constraints).
    ModelBuild,
    /// Initial belief construction from the unary priors.
    PriorInit,
    /// The BP iteration loop itself.
    MessagePassing,
    /// Point-estimate and uncertainty extraction from the final beliefs.
    EstimateExtract,
}

impl SpanKind {
    /// Stable snake_case label used in trace output.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::ModelBuild => "model_build",
            SpanKind::PriorInit => "prior_init",
            SpanKind::MessagePassing => "message_passing",
            SpanKind::EstimateExtract => "estimate_extract",
        }
    }
}

/// Structured events outside the per-iteration cadence.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ObsEvent {
    /// A MAP point estimate was requested from a backend that cannot
    /// produce one; the run fell back to the MMSE (posterior-mean)
    /// estimator. Previously this switch was silent.
    MapFallbackToMmse {
        /// The backend that lacks a mode extractor.
        backend: &'static str,
    },
    /// A grid BP message collapsed to the uniform fallback: the scattered
    /// (or anchor-evaluated) likelihood summed to zero or a non-finite
    /// total, so the engine substituted a flat message to keep inference
    /// alive. Previously this degradation was silent.
    GridUniformFallback {
        /// Edge id (index into the MRF's edge list) whose message
        /// collapsed.
        edge: usize,
        /// `"kernel"` for a free-neighbor scatter, `"point"` for a
        /// fixed-(anchor-)source message.
        stage: &'static str,
    },
    /// One or more BP messages were lost to the fault transport this
    /// iteration (aggregated per iteration to keep trace volume sane).
    MessageDropped {
        /// BP iteration (0-based) in which the drops occurred.
        iteration: usize,
        /// Number of directed-link messages lost this iteration.
        count: u64,
    },
    /// A node died under the active fault plan: it stops transmitting
    /// from this iteration on, but its neighbors keep localizing.
    NodeDied {
        /// BP iteration (0-based) at which the node fell silent.
        iteration: usize,
        /// The node that died.
        node: usize,
    },
    /// One or more links delivered a stale (delayed, previously seen)
    /// message this iteration instead of fresh content.
    StaleMessageUsed {
        /// BP iteration (0-based) in which the stale deliveries occurred.
        iteration: usize,
        /// Number of directed links that delivered stale content.
        count: u64,
    },
    /// A streaming tenant's session advanced one measurement epoch
    /// (ran BP warm-started from the carried beliefs).
    EpochAdvanced {
        /// Tenant (session) id within the streaming engine.
        tenant: u64,
        /// 0-based epoch index within that tenant's stream.
        epoch: u64,
    },
    /// A streaming tenant was shed under overload this tick: its session
    /// coasted on the motion model (beliefs decay toward the prior)
    /// instead of running BP.
    TenantShed {
        /// Tenant (session) id within the streaming engine.
        tenant: u64,
        /// 0-based epoch index the tenant coasted through.
        epoch: u64,
    },
    /// Correlation context stamped into the event stream so one epoch
    /// can be followed across engines and shard boundaries. The
    /// streaming engine emits it immediately before (and the sharded
    /// engine during) the run the context applies to; consumers that
    /// key state by tenant — sampling policies, windowed metrics —
    /// treat it as "subsequent records belong to this tenant/epoch".
    Context {
        /// Streaming tenant (session) id, when run under an engine.
        tenant: Option<u64>,
        /// 0-based epoch index within the tenant's stream.
        epoch: Option<u64>,
        /// Shard id, when the run executes inside a sharded engine.
        shard: Option<u64>,
        /// Outer boundary-exchange round within a sharded run.
        round: Option<u64>,
    },
    /// One shard refreshed its halo mirrors at a sharded outer-round
    /// boundary exchange — the per-shard boundary-traffic signal the
    /// windowed metrics tier aggregates.
    BoundaryExchange {
        /// Outer round (0-based) the exchange followed.
        round: usize,
        /// Shard whose mirrors were refreshed.
        shard: usize,
        /// Cross-shard belief messages delivered to this shard.
        messages: u64,
    },
}

/// Final verdict of an inference run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunSummary {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Total belief broadcasts and wire bytes across the run.
    pub comm: CommStats,
}

/// The hook trait every BP engine reports into.
///
/// All methods default to no-ops, so an observer implements only what it
/// needs, and `&NullObserver` costs nothing: engines gate every
/// observer-only computation (residuals, belief clones) behind
/// [`InferenceObserver::wants_residuals`]. Implementations must be
/// [`Send`]`+`[`Sync`] because the synchronous schedule reports from rayon
/// workers.
pub trait InferenceObserver: Send + Sync {
    /// `true` if per-node residuals should be computed and attached to
    /// [`IterationRecord::residuals`]. Residuals require diffing each new
    /// belief against its predecessor (and, for grid beliefs, cloning the
    /// previous iteration's masses), so the default is `false`.
    fn wants_residuals(&self) -> bool {
        false
    }

    /// A run is starting.
    fn on_run_start(&self, _info: &RunInfo) {}

    /// One BP iteration finished.
    fn on_iteration(&self, _record: &IterationRecord) {}

    /// A timed phase finished.
    fn on_span(&self, _span: SpanKind, _secs: f64) {}

    /// Something noteworthy happened outside the iteration cadence.
    fn on_event(&self, _event: &ObsEvent) {}

    /// The run finished.
    fn on_run_end(&self, _summary: &RunSummary) {}
}

/// The do-nothing observer: the default for every inference entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl InferenceObserver for NullObserver {}

/// Forwards every callback to each of a set of observers — for attaching a
/// recording [`TraceObserver`](crate::TraceObserver) and a user-supplied
/// observer to the same run.
pub struct FanoutObserver<'a> {
    targets: Vec<&'a dyn InferenceObserver>,
}

impl<'a> FanoutObserver<'a> {
    /// A fan-out over `targets`, called in order.
    pub fn new(targets: Vec<&'a dyn InferenceObserver>) -> Self {
        FanoutObserver { targets }
    }
}

impl InferenceObserver for FanoutObserver<'_> {
    fn wants_residuals(&self) -> bool {
        self.targets.iter().any(|o| o.wants_residuals())
    }

    fn on_run_start(&self, info: &RunInfo) {
        for o in &self.targets {
            o.on_run_start(info);
        }
    }

    fn on_iteration(&self, record: &IterationRecord) {
        for o in &self.targets {
            o.on_iteration(record);
        }
    }

    fn on_span(&self, span: SpanKind, secs: f64) {
        for o in &self.targets {
            o.on_span(span, secs);
        }
    }

    fn on_event(&self, event: &ObsEvent) {
        for o in &self.targets {
            o.on_event(event);
        }
    }

    fn on_run_end(&self, summary: &RunSummary) {
        for o in &self.targets {
            o.on_run_end(summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(residuals: Vec<NodeResidual>) -> IterationRecord {
        IterationRecord {
            iteration: 0,
            max_shift: 1.0,
            comm: CommStats {
                messages: 4,
                bytes: 96,
            },
            damping: 0.0,
            schedule: "synchronous",
            secs: 0.0,
            residuals,
        }
    }

    #[test]
    fn residual_summaries() {
        let r = record(vec![
            NodeResidual {
                node: 1,
                residual: 0.5,
                kl: None,
            },
            NodeResidual {
                node: 2,
                residual: 1.5,
                kl: Some(0.1),
            },
        ]);
        assert_eq!(r.max_residual(), Some(1.5));
        assert_eq!(r.mean_residual(), Some(1.0));
    }

    #[test]
    fn empty_residuals_summarize_to_none() {
        let r = record(Vec::new());
        assert_eq!(r.max_residual(), None);
        assert_eq!(r.mean_residual(), None);
    }

    #[test]
    fn span_labels_are_stable() {
        assert_eq!(SpanKind::ModelBuild.label(), "model_build");
        assert_eq!(SpanKind::PriorInit.label(), "prior_init");
        assert_eq!(SpanKind::MessagePassing.label(), "message_passing");
        assert_eq!(SpanKind::EstimateExtract.label(), "estimate_extract");
    }

    #[test]
    fn null_observer_wants_nothing() {
        assert!(!NullObserver.wants_residuals());
    }

    #[test]
    fn fanout_forwards_to_every_target() {
        use crate::trace::TraceObserver;
        let a = TraceObserver::new();
        let b = TraceObserver::new();
        let fan = FanoutObserver::new(vec![&a, &b]);
        assert!(fan.wants_residuals());
        fan.on_run_start(&RunInfo {
            backend: "particle",
            nodes: 2,
            free: 1,
            edges: 1,
            max_iterations: 3,
            tolerance: 0.5,
            damping: 0.0,
            schedule: "synchronous",
            message_bytes: 8,
            seed: 1,
        });
        fan.on_iteration(&record(Vec::new()));
        assert_eq!(a.run_count(), 1);
        assert_eq!(b.last_run().map(|r| r.iterations.len()), Some(1));

        let quiet = FanoutObserver::new(vec![&NullObserver, &NullObserver]);
        assert!(!quiet.wants_residuals());
    }
}
