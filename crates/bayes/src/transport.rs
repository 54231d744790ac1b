//! The message-transport seam between BP engines and the (possibly
//! faulty) communication fabric.
//!
//! Every inter-node BP message conceptually crosses a radio link. A
//! [`Transport`] decides what actually arrives: the perfect transport
//! is a zero-cost pass-through (engines detect it and run the exact
//! fault-free code path, bit-identical to not having a transport at
//! all), while a faulted transport rolls per-directed-link fates each
//! iteration from a [`FaultPlan`] — i.i.d. message loss, node death,
//! stale delivery, and structurally asymmetric links.
//!
//! The state machine per directed link is deliberately simple:
//!
//! * **Fresh delivery** — the receiver sees the sender's current belief
//!   (snapshotted at the iteration boundary, which is exactly what a
//!   real distributed implementation would broadcast) at full weight.
//! * **Stale delivery** — a message arrived, but it is a duplicate of
//!   previously seen content; the link's age resets without a content
//!   refresh.
//! * **Drop** — nothing arrived. The receiver substitutes per the
//!   plan's [`DropPolicy`]: hold the last received content at full
//!   weight, or apply it with weight `decay^age` so a long-silent
//!   neighbor fades back to the receiver's prior.
//! * **Never received** — the link has not delivered anything yet (or
//!   is structurally blocked); the edge contributes nothing, exactly
//!   as if it were absent from the graph this iteration.
//!
//! Dead nodes stop transmitting (their outgoing links stop refreshing)
//! and stop updating (the engine freezes their beliefs), but their
//! neighbors keep localizing from held state.
//!
//! Sharded execution is a policy on this seam, not a second loop: a
//! [`crate::ShardedEngine`] scopes the transport to its layout's shard
//! boundaries. The session then keeps fault state only for directed
//! links whose endpoints lie in different shards, keyed and rolled
//! exactly as a flat run keys and rolls them; every other link reads
//! the live belief on the perfect path. Every iteration reports one
//! `BoundaryExchange` per occupied shard.

use std::sync::Arc;

use crate::mrf::SpatialMrf;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::ShardLayout;
use wsnloc_net::faults::{DropPolicy, FaultPlan, LossModel};
use wsnloc_obs::{InferenceObserver, ObsEvent};

/// How an engine's messages reach their receivers.
///
/// [`Transport::perfect`] (also [`Default`]) delivers everything;
/// engines compile it down to the pre-existing fault-free path.
/// [`Transport::faulted`] injects the given [`FaultPlan`]; a
/// [`FaultPlan::none`] plan collapses back to the perfect transport so
/// "no faults" is always the identical code path.
#[derive(Debug, Clone, Default)]
pub struct Transport {
    plan: Option<Arc<FaultPlan>>,
    /// Under sharded execution, the layout whose boundaries the plan is
    /// scoped to.
    shards: Option<Arc<ShardLayout>>,
}

impl Transport {
    /// The lossless transport: every message arrives, every node lives.
    #[must_use]
    pub fn perfect() -> Self {
        Transport::default()
    }

    /// A transport that injects `plan`. An identity plan
    /// ([`FaultPlan::is_none`]) collapses to [`Transport::perfect`].
    #[must_use]
    pub fn faulted(plan: Arc<FaultPlan>) -> Self {
        let plan = if plan.is_none() { None } else { Some(plan) };
        Transport { plan, shards: None }
    }

    /// This transport scoped to `layout`'s shard boundaries.
    pub(crate) fn sharded(&self, layout: Arc<ShardLayout>) -> Self {
        Transport {
            plan: self.plan.clone(),
            shards: Some(layout),
        }
    }

    /// The shard layout of a sharded run.
    pub(crate) fn layout(&self) -> Option<&ShardLayout> {
        self.shards.as_deref()
    }

    /// Instantiates per-run fault state for one BP run, or `None` for
    /// the perfect transport. `run_seed` (the engine's `opts.seed`) is
    /// mixed with the plan seed so trials differ while each run stays
    /// replayable.
    pub(crate) fn session<B: Clone>(
        &self,
        mrf: &SpatialMrf,
        run_seed: u64,
    ) -> Option<TransportSession<B>> {
        self.plan
            .as_ref()
            .map(|p| TransportSession::new(Arc::clone(p), mrf, run_seed, self.layout()))
    }

    /// Per-shard boundary accounting for a sharded run; `None` when flat.
    pub(crate) fn boundary(&self, mrf: &SpatialMrf) -> Option<Boundary> {
        self.layout().map(|layout| Boundary::new(layout, mrf))
    }
}

/// The per-shard boundary traffic of a sharded run.
pub(crate) struct Boundary {
    /// Occupied shard ids, ascending.
    occupied: Vec<usize>,
    /// Per shard id: directed links from free senders in other shards
    /// into the shard's free nodes — what a fault-free iteration
    /// delivers across its boundary.
    links: Vec<u64>,
}

impl Boundary {
    fn new(layout: &ShardLayout, mrf: &SpatialMrf) -> Self {
        let mut links = vec![0; layout.shard_count()];
        for edge in mrf.edges() {
            let (su, sv) = (layout.shard_of(edge.u), layout.shard_of(edge.v));
            if su != sv && mrf.fixed(edge.u).is_none() && mrf.fixed(edge.v).is_none() {
                links[su] += 1;
                links[sv] += 1;
            }
        }
        let occupied = (0..layout.shard_count())
            .filter(|&s| !layout.shards()[s].is_empty())
            .collect();
        Boundary { occupied, links }
    }

    /// Emits iteration `iter`'s `BoundaryExchange` per occupied shard:
    /// the fresh cross-shard deliveries `session` rolled, or every
    /// boundary link on a fault-free plan.
    pub(crate) fn report<B>(
        &self,
        iter: usize,
        session: Option<&TransportSession<B>>,
        obs: &dyn InferenceObserver,
    ) {
        let counts = session.map_or(&self.links, |s| &s.fresh);
        for &shard in &self.occupied {
            obs.on_event(&ObsEvent::BoundaryExchange {
                round: iter,
                shard,
                messages: counts[shard],
            });
        }
    }
}

/// What the transport delivers for one directed link this iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    /// Nothing has ever arrived on this link — the edge contributes no
    /// message this iteration.
    Skip,
    /// Apply the link's current content with weight `alpha` in `(0, 1]`
    /// (`1.0` = full weight; smaller = staleness-discounted).
    Deliver {
        /// Staleness discount applied to the message's log-likelihood
        /// contribution.
        alpha: f64,
    },
}

/// Per-run fault state: link fates are rolled once per iteration
/// (sequentially, before the — possibly parallel — node updates), after
/// which the session is consulted read-only.
///
/// A directed link's global id is `2·e` (into `edge.u`, i.e. sent by
/// `edge.v`) or `2·e + 1` (into `edge.v`, sent by `edge.u`); it keys the
/// link's random streams. A flat run tracks every link at its global
/// id. A sharded run tracks only the links between shards, packed in
/// edge order.
pub(crate) struct TransportSession<B> {
    plan: Arc<FaultPlan>,
    root: Xoshiro256pp,
    /// Scheduled death iteration per node, `None` = immortal.
    death_at: Vec<Option<usize>>,
    alive: Vec<bool>,
    /// Under sharding, per edge the first of its two tracked links, or
    /// `usize::MAX` for an edge inside one shard. `None` when flat.
    slot: Option<Vec<usize>>,
    /// Global directed-link id per tracked link.
    ids: Vec<usize>,
    /// Sender node per directed link.
    senders: Vec<usize>,
    /// Receiver node per directed link.
    receivers: Vec<usize>,
    /// Whether the directed link matters (receiver is a free variable).
    active: Vec<bool>,
    /// Whether the sender is a fixed (anchor) node — its "content" is
    /// its position, so no belief snapshot is kept.
    sender_fixed: Vec<bool>,
    /// Structurally silent links (asymmetry model), fixed for the run.
    blocked: Vec<bool>,
    /// Iterations since the link's content was last refreshed.
    age: Vec<u64>,
    /// Whether the link has ever delivered anything.
    received: Vec<bool>,
    /// Last delivered belief snapshot for free-sender links.
    last: Vec<Option<B>>,
    /// Under sharding, the receiver's shard per tracked link.
    shard: Vec<usize>,
    /// Under sharding, this iteration's fresh deliveries from free
    /// senders, per receiving shard id.
    fresh: Vec<u64>,
}

impl<B: Clone> TransportSession<B> {
    fn new(
        plan: Arc<FaultPlan>,
        mrf: &SpatialMrf,
        run_seed: u64,
        layout: Option<&ShardLayout>,
    ) -> Self {
        let n = mrf.len();
        let root = Xoshiro256pp::seed_from(plan.seed).split(run_seed);
        let mut death_at = vec![None; n];
        for d in plan.death_schedule(&mrf.free_vars()) {
            if d.node < n {
                death_at[d.node] = Some(d.at_iteration);
            }
        }
        let mut slot = layout.map(|_| vec![usize::MAX; mrf.edges().len()]);
        let (mut ids, mut senders, mut receivers) = (Vec::new(), Vec::new(), Vec::new());
        let (mut active, mut sender_fixed, mut shard) = (Vec::new(), Vec::new(), Vec::new());
        for (e, edge) in mrf.edges().iter().enumerate() {
            if let (Some(layout), Some(slot)) = (layout, slot.as_mut()) {
                if layout.shard_of(edge.u) == layout.shard_of(edge.v) {
                    continue;
                }
                slot[e] = ids.len();
            }
            // dir 2e: into edge.u; dir 2e+1: into edge.v.
            for (d, (recv, send)) in [(edge.u, edge.v), (edge.v, edge.u)].into_iter().enumerate() {
                ids.push(2 * e + d);
                senders.push(send);
                receivers.push(recv);
                active.push(mrf.fixed(recv).is_none());
                sender_fixed.push(mrf.fixed(send).is_some());
                if let Some(layout) = layout {
                    shard.push(layout.shard_of(recv));
                }
            }
        }
        let links = ids.len();
        let mut blocked = vec![false; links];
        if plan.asymmetry > 0.0 {
            let p = plan.asymmetry.clamp(0.0, 1.0);
            for (b, &dir) in blocked.iter_mut().zip(&ids) {
                let mut rng = root.split(0xA5B1_0000_0000_0000 | dir as u64);
                *b = rng.f64() < p;
            }
        }
        TransportSession {
            plan,
            root,
            death_at,
            alive: vec![true; n],
            slot,
            ids,
            senders,
            receivers,
            active,
            sender_fixed,
            blocked,
            age: vec![0; links],
            received: vec![false; links],
            last: (0..links).map(|_| None).collect(),
            shard,
            fresh: vec![0; layout.map_or(0, ShardLayout::shard_count)],
        }
    }

    /// The tracked link carrying edge `e` into its receiver
    /// (`receiver_is_v` selects which endpoint is receiving), or `None`
    /// when the edge rides the perfect path.
    pub(crate) fn link(&self, e: usize, receiver_is_v: bool) -> Option<usize> {
        let base = match &self.slot {
            None => 2 * e,
            Some(slot) => Some(slot[e]).filter(|&b| b != usize::MAX)?,
        };
        Some(base + usize::from(receiver_is_v))
    }

    /// True iff `u` is still transmitting and updating.
    pub(crate) fn node_alive(&self, u: usize) -> bool {
        self.alive.get(u).copied().unwrap_or(true)
    }

    /// Rolls this iteration's fates: processes scheduled deaths, then
    /// decides per directed link whether a fresh, stale, or no message
    /// arrives, snapshotting sender beliefs for fresh deliveries.
    /// Must be called once at the top of every BP iteration, before the
    /// node updates; `beliefs` is the full belief vector indexed by
    /// node. Emits aggregate fault events into `obs`.
    pub(crate) fn begin_iteration(
        &mut self,
        iter: usize,
        beliefs: &[B],
        obs: &dyn InferenceObserver,
    ) {
        for u in 0..self.death_at.len() {
            if self.alive[u] && self.death_at[u].is_some_and(|t| t <= iter) {
                self.alive[u] = false;
                obs.on_event(&ObsEvent::NodeDied {
                    iteration: iter,
                    node: u,
                });
            }
        }
        let mut dropped = 0u64;
        let mut stale = 0u64;
        self.fresh.fill(0);
        let iter_tag = ((iter as u64) + 1) << 32;
        for dir in 0..self.senders.len() {
            if !self.active[dir] || !self.alive[self.receivers[dir]] || self.blocked[dir] {
                continue;
            }
            let mut rng = self.root.split(iter_tag | self.ids[dir] as u64);
            let lost = match self.plan.loss {
                LossModel::None => false,
                LossModel::Iid { rate } => rng.f64() < rate,
            };
            if !self.alive[self.senders[dir]] {
                // A dead sender transmits nothing; the link just ages.
                // Reported through NodeDied, not per-message drops.
                if self.received[dir] {
                    self.age[dir] = self.age[dir].saturating_add(1);
                }
                continue;
            }
            if lost {
                dropped += 1;
                if self.received[dir] {
                    self.age[dir] = self.age[dir].saturating_add(1);
                }
                continue;
            }
            // Delivered. Possibly stale: content is a duplicate of what
            // the receiver already has (only meaningful once something
            // has been received).
            if self.received[dir] && self.plan.stale_prob > 0.0 && rng.f64() < self.plan.stale_prob
            {
                stale += 1;
                self.age[dir] = 0;
                continue;
            }
            self.received[dir] = true;
            self.age[dir] = 0;
            if !self.sender_fixed[dir] {
                self.last[dir] = Some(beliefs[self.senders[dir]].clone());
                if let Some(&shard) = self.shard.get(dir) {
                    self.fresh[shard] += 1;
                }
            }
        }
        if dropped > 0 {
            obs.on_event(&ObsEvent::MessageDropped {
                iteration: iter,
                count: dropped,
            });
        }
        if stale > 0 {
            obs.on_event(&ObsEvent::StaleMessageUsed {
                iteration: iter,
                count: stale,
            });
        }
    }

    /// The delivery verdict for tracked link `dir` (see
    /// [`TransportSession::link`]).
    pub(crate) fn verdict(&self, dir: usize) -> Verdict {
        if !self.received[dir] {
            return Verdict::Skip;
        }
        let age = self.age[dir];
        let alpha = if age == 0 {
            1.0
        } else {
            match self.plan.drop_policy {
                DropPolicy::HoldLast => 1.0,
                DropPolicy::DecayToPrior { decay } => {
                    let d = decay.clamp(0.0, 1.0);
                    // Capped at 10_000, the exponent always fits an i32;
                    // try_from keeps the conversion audit-clean.
                    let exp = i32::try_from(age.min(10_000)).unwrap_or(10_000);
                    d.powi(exp).max(1e-12)
                }
            }
        };
        Verdict::Deliver { alpha }
    }

    /// The held belief snapshot for tracked link `dir`. `None` for fixed
    /// (anchor) senders, whose content is their position.
    pub(crate) fn snapshot(&self, dir: usize) -> Option<&B> {
        self.last[dir].as_ref()
    }
}
