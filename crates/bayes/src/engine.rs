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
//! transport session and its per-iteration roll, which nodes are still
//! alive, the synchronous and sweep schedules, message counts, `on_iter`,
//! the convergence test, [`IterationRecord`]s, spans and the run summary.
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
    /// Point estimate: the posterior mean.
    fn mean(&self) -> Vec2;

    /// Scalar positional uncertainty (RMS spread, meters).
    fn spread(&self) -> f64;
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
    /// has never delivered (the edge contributes nothing): [`Inbox::deliver`]
    /// with the far end and side looked up in the MRF.
    pub(crate) fn receive(&self, e: usize, u: usize) -> Option<Delivery<'a, B>> {
        self.deliver(e, self.mrf.other_end(e, u), self.mrf.edges()[e].v == u)
    }

    /// What the receiving end of edge `e` gets from its far end `v`
    /// (`receiver_is_v` says which endpoint of the edge receives), or
    /// `None` when the link has never delivered. Links the session does
    /// not track read the live belief.
    pub(crate) fn deliver(
        &self,
        e: usize,
        v: usize,
        receiver_is_v: bool,
    ) -> Option<Delivery<'a, B>> {
        let live = &self.beliefs[v];
        let tracked = self
            .session
            .and_then(|s| Some((s, s.link(e, receiver_is_v)?)));
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

    /// Node `u`'s new belief at iteration `iter`, damping included,
    /// from the beliefs `inbox` delivers. Both schedules pass the node's
    /// own not-yet-updated belief in `inbox.beliefs()[u]`.
    fn update(&self, u: usize, iter: usize, inbox: &Inbox<'_, Self::Belief>) -> Self::Belief;

    /// The residual (and KL, where the representation has one) of a
    /// node whose belief moved from `old` to `new`, its mean by `shift`
    /// meters. The default is the mean shift.
    fn residual(_old: &Self::Belief, _new: &Self::Belief, shift: f64) -> (f64, Option<f64>) {
        (shift, None)
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
/// and steps every free node once. Every step folds into one
/// `StepFold`: the live count, the node's mean shift against the belief
/// it replaces and, when the observer wants residuals,
/// [`NodeUpdate::residual`] against that same belief. A dead node keeps
/// its belief and gets the same rule applied to it unchanged.
///
/// The synchronous schedule keeps a second node-indexed belief buffer,
/// cloned from the initial beliefs on its first iteration. One pool job
/// per chunk of node indices writes each live free node's new belief
/// into its slot, `clone_from`s a dead node's current belief into its
/// slot, skips fixed nodes and returns its chunk's fold; the driver
/// absorbs the folds in chunk order and swaps the two buffers, so no
/// per-node result vector is settled on the calling thread. The sweep
/// updates in place, in index order, each node reading the freshest
/// beliefs. Then the loop audits the beliefs, calls `on_iter`, reports
/// an [`IterationRecord`] and stops once the largest free-node mean
/// shift falls below `opts.tolerance`.
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
    // The synchronous schedule's write buffer, cloned from the initial
    // beliefs on its first iteration.
    let mut next: Option<Vec<U::Belief>> = None;
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
        let links = session.as_ref();
        let alive = |u: usize| links.is_none_or(|s| s.node_alive(u));
        let mut fold = StepFold::new(wants_residuals, free.len());
        if wants_residuals {
            wsnloc_obs::accounting::note_residual_buffer();
        }
        match opts.schedule {
            Schedule::Synchronous => {
                // Every update reads last iteration's `beliefs` and writes
                // its node's slot of `next`; then the buffers swap.
                let next = next.get_or_insert_with(|| beliefs.clone());
                let inbox = Inbox {
                    mrf,
                    beliefs: &beliefs,
                    session: links,
                };
                let chunks = next.par_map_chunks_mut(|start, slots| {
                    let mut chunk = StepFold::new(wants_residuals, slots.len());
                    for (u, slot) in (start..).zip(slots) {
                        if mrf.fixed(u).is_some() {
                            continue;
                        }
                        let old = &beliefs[u];
                        if alive(u) {
                            *slot = update.update(u, iter, &inbox);
                            chunk.note::<U>(u, old, slot, true);
                        } else {
                            slot.clone_from(old);
                            chunk.note::<U>(u, old, old, false);
                        }
                    }
                    chunk
                });
                for chunk in chunks {
                    fold.absorb(chunk);
                }
                std::mem::swap(&mut beliefs, next);
            }
            Schedule::Sweep => {
                for &u in &free {
                    let old = &beliefs[u];
                    if alive(u) {
                        let inbox = Inbox {
                            mrf,
                            beliefs: &beliefs,
                            session: links,
                        };
                        let new = update.update(u, iter, &inbox);
                        fold.note::<U>(u, old, &new, true);
                        beliefs[u] = new;
                    } else {
                        fold.note::<U>(u, old, old, false);
                    }
                }
            }
        }
        let StepFold {
            live,
            max_shift,
            residuals,
            ..
        } = fold;

        outcome.iterations = iter + 1;
        outcome.messages += live;
        validate::enforce(U::BACKEND, || {
            let audit = DistributionAudit::default();
            for (u, b) in beliefs.iter().enumerate() {
                U::audit(&audit, &format!("belief[{u}] at iteration {iter}"), b)?;
            }
            Ok(())
        });
        on_iter(iter, &beliefs);

        obs.on_iteration(&IterationRecord {
            iteration: iter,
            max_shift,
            comm: CommStats {
                messages: live,
                bytes: live * opts.message_bytes,
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

/// The bookkeeping of a run of node steps: live updates, the largest
/// mean shift and, only when the observer wants them (the zero-cost
/// contract), per-node residuals in step order. A synchronous chunk job
/// folds its own nodes and the driver absorbs the chunks in order; the
/// sweep folds straight into the iteration's total.
struct StepFold {
    wants_residuals: bool,
    live: u64,
    max_shift: f64,
    residuals: Vec<NodeResidual>,
}

impl StepFold {
    /// An empty fold, with room for `capacity` residuals when wanted.
    fn new(wants_residuals: bool, capacity: usize) -> Self {
        StepFold {
            wants_residuals,
            live: 0,
            max_shift: 0.0,
            residuals: if wants_residuals {
                Vec::with_capacity(capacity)
            } else {
                Vec::new()
            },
        }
    }

    /// Notes node `u`'s step from `old` to `now`: its mean shift and,
    /// when wanted, [`NodeUpdate::residual`] against the belief it
    /// replaces. A dead node (`live = false`) passes its own belief.
    fn note<U: NodeUpdate>(&mut self, u: usize, old: &U::Belief, now: &U::Belief, live: bool) {
        let shift = now.mean().dist(old.mean());
        self.live += u64::from(live);
        self.max_shift = self.max_shift.max(shift);
        if self.wants_residuals {
            let (residual, kl) = U::residual(old, now, shift);
            self.residuals.push(NodeResidual {
                node: u,
                residual,
                kl,
            });
        }
    }

    /// Adds a later fold's steps to this one. The live count and the
    /// maximum do not depend on the order; residuals stay in step order.
    fn absorb(&mut self, mut later: StepFold) {
        self.live += later.live;
        self.max_shift = self.max_shift.max(later.max_shift);
        self.residuals.append(&mut later.residuals);
    }
}
