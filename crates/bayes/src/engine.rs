//! The BP-engine abstraction and the one loop every engine runs.
//!
//! [`BpEngine`] has two entry points: the required
//! [`BpEngine::run_carried`], taking a [`Transport`], optional beliefs
//! carried over from a previous epoch, an observer and a per-iteration
//! closure; and [`BpEngine::run`], a cold perfect-transport run without
//! telemetry.
//!
//! The grid, particle and Gaussian engines are one algorithm — loopy
//! sum-product over the position network — with three belief
//! representations, so they share one crate-private iteration loop,
//! `drive`. A backend supplies its initial beliefs and per-run update
//! state, and implements `NodeUpdate`: one node's update (damping
//! included), its residual rule and its [`DistributionAudit`] check.
//! The driver owns the rest once: the graph audit, run metadata, the
//! transport session and its per-iteration roll, the active set, the
//! synchronous and sweep schedules, message counts, `on_iter`, the
//! convergence test, [`IterationRecord`]s, spans and the run summary.
//! Every neighbor message reaches an update through the same `Inbox`
//! lookup. Sharded execution is a transport policy on this same loop
//! (see [`crate::sharded`]): the driver reports the per-shard boundary
//! exchanges the transport counts.
//!
//! [`Belief`] is the minimal read surface the core localizer needs to
//! turn a backend's belief into a point estimate without knowing which
//! backend produced it.

use crate::mrf::{BpOptions, BpOutcome, Schedule, SpatialMrf};
use crate::sharded;
use crate::transport::{Transport, TransportSession, Verdict};
use crate::validate::{self, DistributionAudit, GraphAudit, ValidationError};
use rayon::prelude::*;
use wsnloc_geom::Vec2;
use wsnloc_obs::{
    CommStats, InferenceObserver, IterationRecord, NodeResidual, NullObserver, RunInfo, RunSummary,
    SpanKind, Stopwatch,
};

/// Backend-agnostic read access to a posterior position belief.
pub trait Belief {
    /// Whether [`Belief::map_estimate`] can return `Some` for this
    /// representation (only the grid backend has a mode extractor).
    const SUPPORTS_MAP: bool;

    /// MMSE point estimate: the posterior mean.
    fn mean(&self) -> Vec2;

    /// Scalar positional uncertainty (RMS spread, meters).
    fn spread(&self) -> f64;

    /// MAP point estimate, for representations that support one.
    fn map_estimate(&self) -> Option<Vec2>;
}

/// Everything one BP run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome<B> {
    /// Final beliefs, indexed by MRF variable.
    pub beliefs: Vec<B>,
    /// Iteration/convergence/message counters.
    pub bp: BpOutcome,
}

/// A loopy-BP inference engine over a [`SpatialMrf`].
///
/// One required method; [`BpEngine::run`] is provided. All engines are
/// deterministic in (`mrf`, `opts`, transport plan, carried beliefs):
/// the same inputs give bit-identical beliefs.
pub trait BpEngine {
    /// The belief representation this engine produces.
    type Belief: Belief + Clone + Send + Sync;

    /// Stable backend name, as reported in run telemetry ("grid",
    /// "particle", "gaussian").
    fn backend_name(&self) -> &'static str;

    /// Runs BP with every inter-node message routed through
    /// `transport`, reporting structured telemetry into `obs` and
    /// invoking `on_iter(iteration, beliefs)` after every iteration.
    ///
    /// `warm` carries beliefs over from a previous epoch, one per MRF
    /// variable (entries for fixed variables are ignored): each free
    /// variable's carried belief replaces its prior-derived initial
    /// belief *and* acts as the epoch prior in every update, so a
    /// posterior carried over from a previous epoch (convolved with a
    /// motion model by the caller) is not double-counted against the
    /// pre-knowledge unary it already absorbed. `warm = None` is the
    /// cold start; per-node RNG streams are split, not advanced, so
    /// skipping a node's initial sampling cannot perturb any other node.
    fn run_carried<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: Option<&[Self::Belief]>,
        obs: &dyn InferenceObserver,
        on_iter: F,
    ) -> RunOutcome<Self::Belief>
    where
        F: FnMut(usize, &[Self::Belief]);

    /// Runs BP cold on the perfect transport, without telemetry, to
    /// convergence or `opts.max_iterations`.
    fn run(&self, mrf: &SpatialMrf, opts: &BpOptions) -> (Vec<Self::Belief>, BpOutcome) {
        let out = self.run_carried(
            mrf,
            opts,
            &Transport::perfect(),
            None,
            &NullObserver,
            |_, _| {},
        );
        (out.beliefs, out.bp)
    }
}

/// One neighbor message as the transport delivers it.
pub(crate) struct Delivery<'a, B> {
    /// The sending neighbor.
    pub(crate) v: usize,
    /// The belief to read: the link's last delivered snapshot under
    /// faults, the live belief on the perfect transport and for fixed
    /// senders (whose content is their position).
    pub(crate) belief: &'a B,
    /// Staleness discount in `(0, 1]`; exactly 1 for fresh content and
    /// on the perfect transport, where it multiplies exactly.
    pub(crate) alpha: f64,
}

/// The neighbor beliefs one node update reads this iteration.
pub(crate) struct Inbox<'a, B> {
    mrf: &'a SpatialMrf,
    beliefs: &'a [B],
    session: Option<&'a TransportSession<B>>,
}

impl<'a, B: Clone> Inbox<'a, B> {
    /// The belief vector the update reads (the node's own belief
    /// included): last iteration's under the synchronous schedule, the
    /// freshest under the sweep.
    pub(crate) fn beliefs(&self) -> &'a [B] {
        self.beliefs
    }

    /// What node `u` receives over edge `e`, or `None` when the link
    /// has never delivered (the edge contributes nothing). Links the
    /// session does not track read the live belief.
    pub(crate) fn receive(&self, e: usize, u: usize) -> Option<Delivery<'a, B>> {
        let v = self.mrf.other_end(e, u);
        let live = &self.beliefs[v];
        let tracked = self
            .session
            .and_then(|s| Some((s, s.link(e, self.mrf.edges()[e].v == u)?)));
        let Some((s, link)) = tracked else {
            return Some(Delivery {
                v,
                belief: live,
                alpha: 1.0,
            });
        };
        match s.verdict(link) {
            Verdict::Skip => None,
            Verdict::Deliver { alpha } => Some(Delivery {
                v,
                belief: s.snapshot(link).unwrap_or(live),
                alpha,
            }),
        }
    }
}

/// What a backend plugs into [`drive`].
pub(crate) trait NodeUpdate: Sync {
    /// The belief representation.
    type Belief: Belief + Clone + Send + Sync;

    /// Backend name as run telemetry reports it.
    const BACKEND: &'static str;

    /// Whether residuals compare whole beliefs, which needs a snapshot
    /// of the free beliefs before every update round (taken only when
    /// the observer wants residuals). Otherwise the residual is the
    /// belief-mean displacement and no belief is cloned.
    const SNAPSHOT_RESIDUALS: bool = false;

    /// Node `u`'s new belief at iteration `iter`, damping included,
    /// from the beliefs `inbox` delivers. Both schedules pass the node's
    /// own not-yet-updated belief in `inbox.beliefs()[u]`.
    fn update(&self, u: usize, iter: usize, inbox: &Inbox<'_, Self::Belief>) -> Self::Belief;

    /// The residual (and KL, where the representation has one) of a
    /// node whose belief moved to `new` from mean `prev_mean` — and from
    /// belief `old`, the snapshot, when [`NodeUpdate::SNAPSHOT_RESIDUALS`]
    /// is set. The default is the mean displacement.
    fn residual(
        _old: Option<&Self::Belief>,
        new: &Self::Belief,
        prev_mean: Vec2,
    ) -> (f64, Option<f64>) {
        (new.mean().dist(prev_mean), None)
    }

    /// The representation's [`DistributionAudit`] check.
    fn audit(
        audit: &DistributionAudit,
        context: &str,
        belief: &Self::Belief,
    ) -> Result<(), ValidationError>;
}

/// The BP iteration loop of every engine, flat or sharded.
///
/// `init` runs inside the prior-init span and returns the backend's
/// per-run update state with the initial beliefs. Each iteration rolls
/// the transport session, reports a sharded run's boundary exchanges,
/// updates the live free nodes in parallel (synchronous) or in index
/// order (sweep), audits the beliefs, calls `on_iter`, reports an
/// [`IterationRecord`] and stops once the largest free-node mean shift
/// falls below `opts.tolerance`.
pub(crate) fn drive<U, F>(
    mrf: &SpatialMrf,
    opts: &BpOptions,
    transport: &Transport,
    obs: &dyn InferenceObserver,
    init: impl FnOnce() -> (U, Vec<U::Belief>),
    mut on_iter: F,
) -> RunOutcome<U::Belief>
where
    U: NodeUpdate,
    F: FnMut(usize, &[U::Belief]),
{
    validate::enforce(U::BACKEND, || GraphAudit.check_mrf(mrf));
    let free = mrf.free_vars();
    let backend = transport
        .layout()
        .map_or(U::BACKEND, |_| sharded::run_label(U::BACKEND));
    obs.on_run_start(&RunInfo {
        backend,
        nodes: mrf.len(),
        free: free.len(),
        edges: mrf.edges().len(),
        max_iterations: opts.max_iterations,
        tolerance: opts.tolerance,
        damping: opts.damping,
        schedule: opts.schedule.name(),
        message_bytes: opts.message_bytes,
        seed: opts.seed,
    });
    let wants_residuals = obs.wants_residuals();
    // Fault state for this run; `None` on the perfect transport, where
    // every session touchpoint below is the fault-free path.
    let mut session = transport.session::<U::Belief>(mrf, opts.seed);
    let boundary = transport.boundary(mrf);
    let init_start = Stopwatch::start();
    let (update, mut beliefs) = init();
    obs.on_span(SpanKind::PriorInit, init_start.elapsed_secs());

    let mut outcome = BpOutcome {
        iterations: 0,
        converged: false,
        messages: 0,
    };
    let loop_start = Stopwatch::start();
    for iter in 0..opts.max_iterations {
        let iter_start = Stopwatch::start();
        // Roll this iteration's link fates and deaths (sequentially,
        // before the parallel updates); dead nodes stop updating.
        if let Some(s) = session.as_mut() {
            s.begin_iteration(iter, &beliefs, obs);
        }
        if let Some(b) = &boundary {
            b.report(iter, session.as_ref(), obs);
        }
        let active_owned: Option<Vec<usize>> = session
            .as_ref()
            .map(|s| free.iter().copied().filter(|&u| s.node_alive(u)).collect());
        let active: &[usize] = active_owned.as_deref().unwrap_or(&free);
        let prev_means: Vec<Vec2> = free.iter().map(|&u| beliefs[u].mean()).collect();
        let snapshot: Option<Vec<U::Belief>> = (U::SNAPSHOT_RESIDUALS && wants_residuals)
            .then(|| free.iter().map(|&u| beliefs[u].clone()).collect());

        let links = session.as_ref();
        match opts.schedule {
            Schedule::Synchronous => {
                let inbox = Inbox {
                    mrf,
                    beliefs: &beliefs,
                    session: links,
                };
                let new: Vec<(usize, U::Belief)> = active
                    .par_iter()
                    .map(|&u| (u, update.update(u, iter, &inbox)))
                    .collect();
                for (u, b) in new {
                    beliefs[u] = b;
                }
            }
            Schedule::Sweep => {
                for &u in active {
                    let inbox = Inbox {
                        mrf,
                        beliefs: &beliefs,
                        session: links,
                    };
                    beliefs[u] = update.update(u, iter, &inbox);
                }
            }
        }

        outcome.iterations = iter + 1;
        outcome.messages += active.len() as u64;
        validate::enforce(U::BACKEND, || {
            let audit = DistributionAudit::default();
            for (u, b) in beliefs.iter().enumerate() {
                U::audit(&audit, &format!("belief[{u}] at iteration {iter}"), b)?;
            }
            Ok(())
        });
        on_iter(iter, &beliefs);

        let max_shift = free
            .iter()
            .zip(&prev_means)
            .map(|(&u, &prev)| beliefs[u].mean().dist(prev))
            .fold(0.0, f64::max);
        // Residuals are computed only when the observer asks — the
        // zero-cost contract.
        let residuals: Vec<NodeResidual> = if wants_residuals {
            wsnloc_obs::accounting::note_residual_buffer();
            free.iter()
                .zip(&prev_means)
                .enumerate()
                .map(|(i, (&u, &prev))| {
                    let old = snapshot.as_ref().and_then(|s| s.get(i));
                    let (residual, kl) = U::residual(old, &beliefs[u], prev);
                    NodeResidual {
                        node: u,
                        residual,
                        kl,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        obs.on_iteration(&IterationRecord {
            iteration: iter,
            max_shift,
            comm: CommStats {
                messages: active.len() as u64,
                bytes: active.len() as u64 * opts.message_bytes,
            },
            damping: opts.damping,
            schedule: opts.schedule.name(),
            secs: iter_start.elapsed_secs(),
            residuals,
        });
        if max_shift < opts.tolerance {
            outcome.converged = true;
            break;
        }
    }
    obs.on_span(SpanKind::MessagePassing, loop_start.elapsed_secs());
    obs.on_run_end(&RunSummary {
        iterations: outcome.iterations,
        converged: outcome.converged,
        comm: CommStats {
            messages: outcome.messages,
            bytes: outcome.messages * opts.message_bytes,
        },
    });
    RunOutcome {
        beliefs,
        bp: outcome,
    }
}
