//! # wsnloc-bayes
//!
//! Factor-graph inference substrate for the `wsnloc` workspace, built
//! from scratch (the calibration notes for this reproduction flag Rust's
//! Bayesian-network ecosystem as thin — this crate is the replacement).
//!
//! The localization model is a spatial Markov random field ([`mrf`])
//! over 2-D positions with pluggable potentials ([`potential`]) and
//! three interchangeable belief representations:
//!
//! - [`grid`]: beliefs as histograms over a discretized field — the
//!   paper's finite Bayesian network, literally; messages are truncated
//!   kernel convolutions.
//! - [`particle`]: nonparametric (particle) beliefs with importance
//!   weighting, systematic resampling, and KDE products — the scalable
//!   formulation.
//! - [`gaussian`]: single-Gaussian beliefs updated by EKF-style
//!   linearization — the cheap parametric ablation that shows *why* the
//!   paper's formulation is nonparametric.
//!
//! All three run one loopy-BP iteration loop, the [`engine`] driver:
//! each backend supplies only its initial beliefs, its per-node update
//! and its residual and audit rules. [`sharded`] runs any of them over a
//! spatial shard layout, with faults confined to links between shards,
//! for very large networks. Loopy belief
//! propagation over any representation is what the core `wsnloc` crate
//! runs to localize sensor networks.

#![warn(missing_docs)]
// Library lint policy (README "Correctness tooling"); test code is exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::undocumented_unsafe_blocks,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        clippy::cast_possible_truncation
    )
)]

pub mod engine;
pub mod gaussian;
pub mod grid;
pub mod motion;
pub mod mrf;
pub mod particle;
pub mod potential;
pub mod sharded;
pub mod stencil;
pub mod transport;
pub mod validate;

pub use engine::{Belief, BpEngine, RunOutcome};
pub use gaussian::{GaussianBelief, GaussianBp};
pub use grid::{GridBelief, GridBp};
pub use motion::MotionModel;
pub use mrf::{BpOptions, BpOptionsBuilder, BpOutcome, Schedule, SpatialMrf};
pub use particle::{ParticleBelief, ParticleBp};
pub use potential::{
    GaussianRange, GaussianUnary, PairPotential, UnaryPotential, UniformBoxUnary, UniformShapeUnary,
};
pub use sharded::ShardedEngine;
pub use stencil::KernelStencil;
pub use transport::Transport;
pub use validate::{DistributionAudit, GraphAudit, ValidationError};
