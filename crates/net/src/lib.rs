//! # wsnloc-net
//!
//! Wireless-sensor-network simulation substrate for the `wsnloc` workspace.
//!
//! The ICPP 2007 paper this workspace reproduces evaluated on a simulated
//! WSN; this crate is that simulator, rebuilt from scratch. It covers the
//! full generative pipeline:
//!
//! 1. **Deployment** ([`deploy`]) — where nodes physically end up: uniform in
//!    a [`wsnloc_geom::Shape`], jittered grids, or Gaussian scatter around
//!    planned *drop points*. Drop-point deployments are what make
//!    "pre-knowledge" meaningful: the planned coordinates are known before
//!    measurement, the realized positions are not.
//! 2. **Radio** ([`radio`]) — which node pairs can communicate: unit disk,
//!    quasi-UDG with a transition band, or log-normal shadowing.
//! 3. **Measurement** ([`measure`]) — what connected pairs observe about
//!    their distance: additive/multiplicative Gaussian ranging noise or
//!    RSSI-derived log-normal estimates, plus the matching likelihood
//!    functions used by inference.
//! 4. **Topology** ([`topology`]) — adjacency, hop counts (BFS), components,
//!    degree statistics.
//! 5. **Network assembly** ([`network`]) — [`network::Network`] is the
//!    observable world handed to localization algorithms (anchors,
//!    measurements, adjacency); [`network::GroundTruth`] keeps the hidden
//!    true positions for evaluation only, so algorithms cannot cheat by
//!    construction.
//! 6. **Accounting** ([`accounting`]) — message and byte counters with a
//!    wire-format encoder, so experiments can report communication cost.
//! 7. **RSSI calibration** ([`rssi`]) — log-distance path-loss channel,
//!    RSSI→distance inversion, and anchor-pair channel calibration (channel
//!    parameters as learnable pre-knowledge).
//! 8. **Scenario** ([`scenario`]) — a serializable description of an entire
//!    simulation configuration (field, N, anchors, radio, noise, seed).
//! 9. **Faults** ([`faults`]) — seeded communication-fault schedules
//!    (message loss, node death, stale delivery, asymmetric links) consumed
//!    by the BP transport seam and, in persistent-equivalent form, by
//!    non-iterative baselines.

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
        clippy::allow_attributes_without_reason
    )
)]

pub mod accounting;
pub mod anchors;
pub mod deploy;
pub mod faults;
pub mod measure;
pub mod mobility;
pub mod network;
pub mod plot;
pub mod radio;
pub mod rssi;
pub mod scenario;
pub mod topology;

pub use anchors::AnchorStrategy;
pub use deploy::Deployment;
pub use faults::{DeathModel, DropPolicy, FaultPlan, LossModel, NodeDeath};
pub use measure::{Measurement, RangingModel};
pub use network::{GroundTruth, Network, NodeId, NodeKind};
pub use radio::RadioModel;
pub use scenario::Scenario;
