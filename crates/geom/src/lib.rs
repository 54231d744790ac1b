//! # wsnloc-geom
//!
//! Geometry, small dense linear algebra, statistics, and deterministic random
//! number generation for the `wsnloc` cooperative-localization workspace.
//!
//! Everything in this crate is self-contained (no external math dependencies)
//! and deterministic: all randomness flows through [`rng::Xoshiro256pp`]
//! streams derived from explicit `u64` seeds, so every simulated network and
//! every Monte-Carlo experiment in the workspace is exactly reproducible.
//!
//! Modules:
//! - [`vec2`] — 2-D vectors/points with the usual algebra.
//! - [`aabb`] — axis-aligned bounding boxes.
//! - [`shape`] — deployment-field shapes (rectangle, disk, annulus, C/L shapes,
//!   polygons) with containment tests and rejection sampling.
//! - [`matrix`] — row-major dense matrices with Cholesky/LU solvers and a
//!   Jacobi symmetric eigendecomposition (used by MDS-MAP and the CRLB).
//! - [`stats`] — summary statistics, percentiles, histograms, Welford online
//!   accumulation.
//! - [`rng`] — xoshiro256++ generator, SplitMix64 seeding, normal/exponential
//!   sampling, weighted choice, shuffling, and stream splitting.
//! - [`kde`] — Silverman's rule-of-thumb kernel bandwidth for weighted
//!   particle sets.
//! - [`exp`] — a batched `exp` from IEEE add/sub/mul/div only, the same
//!   bits on every host (the particle engine's likelihood kernels).
//! - [`grid`] — a uniform spatial hash grid for radius neighbor queries.
//! - [`partition`] — spatial tiling of node sets into shards (the
//!   geometry layer of sharded BP execution).
//! - [`check`] — a miniature seeded property-test harness (the workspace
//!   builds without registry access, so `proptest` is unavailable).

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

pub mod aabb;
pub mod check;
pub mod exp;
pub mod grid;
pub mod kde;
pub mod matrix;
pub mod partition;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod vec2;

pub use aabb::Aabb;
pub use matrix::Matrix;
pub use partition::{Shard, ShardLayout};
pub use rng::Xoshiro256pp;
pub use shape::Shape;
pub use vec2::Vec2;
