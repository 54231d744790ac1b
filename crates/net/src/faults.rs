//! Deterministic communication-fault models for distributed inference.
//!
//! A real WSN deployment is not the perfect synchronous fabric the BP
//! engines' happy path assumes: packets are lost, nodes exhaust their
//! batteries mid-run, messages arrive one round late, and links are
//! frequently asymmetric (u hears v, v never hears u). A [`FaultPlan`]
//! describes all of these as a *seeded, deterministic* schedule, so a
//! faulted run is exactly as replayable as a fault-free one: the same
//! plan applied to the same network and the same run seed yields
//! bit-identical fault decisions.
//!
//! The plan is pure data. The BP engines consume it through the
//! `Transport` seam in `wsnloc-bayes`, which rolls per-link fates once
//! per iteration; non-iterative baselines (NLS, DV-Hop) consume it via
//! [`FaultPlan::degrade_network`], which applies the *long-run* loss
//! probability persistently so comparisons against BP stay fair.

use crate::measure::Measurement;
use crate::network::{Network, NodeKind};
use wsnloc_geom::rng::Xoshiro256pp;

/// Per-iteration message-loss model for a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Every transmitted message arrives.
    None,
    /// Each message is lost independently with probability `rate`.
    Iid {
        /// Per-message loss probability in `[0, 1]`.
        rate: f64,
    },
}

/// What a receiver substitutes for a message that did not arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DropPolicy {
    /// Keep using the last successfully received message at full weight.
    HoldLast,
    /// Geometrically discount the held message toward "no information":
    /// a message last refreshed `k` iterations ago is applied with
    /// weight `decay^k`, so a long-silent neighbor fades back to the
    /// receiver's prior instead of being trusted forever.
    DecayToPrior {
        /// Per-iteration discount factor in `(0, 1]`.
        decay: f64,
    },
}

/// One scheduled node death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDeath {
    /// Node index that dies.
    pub node: usize,
    /// BP iteration at which it stops transmitting (0 = before the
    /// first message exchange).
    pub at_iteration: usize,
}

/// Which nodes die, and when.
#[derive(Debug, Clone, PartialEq)]
pub enum DeathModel {
    /// Nobody dies.
    None,
    /// An explicit schedule of deaths (any node kind, anchors included).
    Explicit(Vec<NodeDeath>),
    /// A seeded random `fraction` of the *free* (unknown) nodes dies at
    /// `at_iteration`. Anchors are spared so the death sweep isolates
    /// the loss of cooperating neighbors from the loss of references.
    Random {
        /// Fraction of free nodes to kill, clamped to `[0, 1]`.
        fraction: f64,
        /// Iteration at which the selected nodes stop transmitting.
        at_iteration: usize,
    },
}

/// A complete, seeded description of the communication faults injected
/// into one inference run.
///
/// [`FaultPlan::none`] is the identity plan: engines detect it and take
/// the exact fault-free code path, so a `none()` plan is bit-identical
/// to not supplying a plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision. Mixed with the run seed by the
    /// transport layer so different trials see different fault draws
    /// while any single run stays replayable.
    pub seed: u64,
    /// Message-loss model applied per directed link per iteration.
    pub loss: LossModel,
    /// Substitution policy for messages that did not arrive.
    pub drop_policy: DropPolicy,
    /// Node-death schedule.
    pub deaths: DeathModel,
    /// Probability that a delivered message is a *stale* duplicate of
    /// the previous one (the new content is delayed past this
    /// iteration) in `[0, 1]`.
    pub stale_prob: f64,
    /// Probability that a directed link is structurally silent for the
    /// whole run while its reverse direction may work, in `[0, 1]`.
    /// Models asymmetric radio links.
    pub asymmetry: f64,
}

impl FaultPlan {
    /// The identity plan: no loss, no deaths, no staleness, no
    /// asymmetry. Engines compile this down to the fault-free path.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss: LossModel::None,
            drop_policy: DropPolicy::HoldLast,
            deaths: DeathModel::None,
            stale_prob: 0.0,
            asymmetry: 0.0,
        }
    }

    /// An i.i.d. loss plan with the hold-last drop policy — the most
    /// common sweep configuration.
    #[must_use]
    pub fn iid_loss(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            loss: LossModel::Iid { rate },
            ..FaultPlan::none()
        }
    }

    /// Replaces the drop policy.
    #[must_use]
    pub fn with_drop_policy(mut self, policy: DropPolicy) -> Self {
        self.drop_policy = policy;
        self
    }

    /// Replaces the death model.
    #[must_use]
    pub fn with_deaths(mut self, deaths: DeathModel) -> Self {
        self.deaths = deaths;
        self
    }

    /// Sets the stale-delivery probability.
    #[must_use]
    pub fn with_stale_prob(mut self, p: f64) -> Self {
        self.stale_prob = p;
        self
    }

    /// Sets the asymmetric-link probability.
    #[must_use]
    pub fn with_asymmetry(mut self, p: f64) -> Self {
        self.asymmetry = p;
        self
    }

    /// True iff the plan injects no faults at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self.loss, LossModel::None)
            && matches!(self.deaths, DeathModel::None)
            && self.stale_prob <= 0.0
            && self.asymmetry <= 0.0
    }

    /// Long-run per-message loss probability of the loss model.
    #[must_use]
    pub fn expected_loss_rate(&self) -> f64 {
        match self.loss {
            LossModel::None => 0.0,
            LossModel::Iid { rate } => rate.clamp(0.0, 1.0),
        }
    }

    /// Resolves the death model against a concrete set of free-node
    /// ids, returning the explicit schedule. Deterministic in the plan
    /// seed; both the BP transport layer and [`Self::degrade_network`]
    /// use this, so they agree on who dies.
    #[must_use]
    pub fn death_schedule(&self, free_nodes: &[usize]) -> Vec<NodeDeath> {
        match &self.deaths {
            DeathModel::None => Vec::new(),
            DeathModel::Explicit(deaths) => deaths.clone(),
            DeathModel::Random {
                fraction,
                at_iteration,
            } => {
                let mut ids = free_nodes.to_vec();
                let mut rng = Xoshiro256pp::seed_from(self.seed ^ 0xDEAD_BEEF_0BAD_F00D);
                rng.shuffle(&mut ids);
                let k = death_count(ids.len(), *fraction);
                ids.truncate(k);
                ids.sort_unstable();
                ids.into_iter()
                    .map(|node| NodeDeath {
                        node,
                        at_iteration: *at_iteration,
                    })
                    .collect()
            }
        }
    }

    /// The persistent-fault equivalent of this plan, for non-iterative
    /// baselines that consume a [`Network`] once instead of exchanging
    /// messages per iteration: each measurement is removed with the
    /// long-run loss probability, and every measurement touching a dead
    /// node is removed outright. `salt` (typically the trial seed) is
    /// mixed into the drop draws so repeated trials degrade differently
    /// while staying replayable.
    #[must_use]
    pub fn degrade_network(&self, net: &Network, salt: u64) -> Network {
        let rate = self.expected_loss_rate();
        let free: Vec<usize> = (0..net.len())
            .filter(|&u| net.kind(u) == NodeKind::Unknown)
            .collect();
        let dead: Vec<usize> = self
            .death_schedule(&free)
            .into_iter()
            .map(|d| d.node)
            .collect();
        let mut rng = Xoshiro256pp::seed_from(self.seed ^ splitmix(salt));
        let measurements: Vec<Measurement> = net
            .measurements()
            .iter()
            .filter(|m| !dead.contains(&m.a) && !dead.contains(&m.b))
            .filter(|_| !(rate > 0.0 && rng.f64() < rate))
            .copied()
            .collect();
        let n = net.len();
        Network::from_parts(
            net.field().clone(),
            net.radio(),
            net.ranging(),
            (0..n).map(|u| net.kind(u)).collect(),
            (0..n).map(|u| net.anchor_position(u)).collect(),
            (0..n).map(|u| net.planned_position(u)).collect(),
            measurements,
        )
    }
}

/// Rounds `fraction` of `n` to a whole death count without going
/// through a float→index cast on anything unvalidated: the fraction is
/// clamped to `[0, 1]` first, so the product is in `[0, n]`.
fn death_count(n: usize, fraction: f64) -> usize {
    let f = fraction.clamp(0.0, 1.0);
    let k = ((n as f64) * f).round() as usize;
    k.min(n)
}

/// Mixes a salt into a seed tag (splitmix64 finalizer) so per-trial
/// degradation draws are decorrelated from the plan seed.
fn splitmix(salt: u64) -> u64 {
    let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
