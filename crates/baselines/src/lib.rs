//! # wsnloc-baselines
//!
//! Baseline WSN localization algorithms the paper's BNL-PK is compared
//! against, all implementing [`wsnloc::Localizer`] so the evaluation harness
//! treats every algorithm uniformly:
//!
//! - [`centroid::Centroid`] — average of heard anchor positions (Bulusu).
//! - [`centroid::WeightedCentroid`] — inverse-distance-weighted variant.
//! - [`minmax::MinMax`] — bounding-box intersection of anchor constraints.
//! - [`multilateration::Multilateration`] — linear least squares + optional
//!   Gauss–Newton refinement against anchor neighbors, with optional
//!   iterative promotion of localized nodes to pseudo-anchors.
//! - [`dvhop::DvHop`] — the classic hop-count algorithm: anchor floods,
//!   meters-per-hop calibration, multilateration on hop-distance estimates.
//! - [`mdsmap::MdsMap`] — classical multidimensional scaling over the
//!   shortest-path distance matrix, aligned to anchors by Procrustes.
//!
//! Communication accounting is idealized per algorithm and documented on
//! each type (flood counts for DV-Hop, single broadcasts for centroid-type
//! methods, a centralized collection sweep for MDS-MAP).

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

pub mod centroid;
pub mod dvhop;
pub mod mdsmap;
pub mod minmax;
pub mod multilateration;
pub mod procrustes;

pub use centroid::{Centroid, WeightedCentroid};
pub use dvhop::DvHop;
pub use mdsmap::MdsMap;
pub use minmax::MinMax;
pub use multilateration::Multilateration;
