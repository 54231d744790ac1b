//! # wsnloc-eval
//!
//! Evaluation harness for the `wsnloc` reproduction: metrics, a Monte-Carlo
//! trial runner, table/CSV emitters, and one module per reconstructed table
//! or figure (see DESIGN.md §4).
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run -p wsnloc-eval --release --bin repro -- all
//! cargo run -p wsnloc-eval --release --bin repro -- f1 --trials 10
//! cargo run -p wsnloc-eval --release --bin repro -- t2 --quick
//! ```

#![warn(missing_docs)]
// The harness subset of the library lint policy (README "Correctness
// tooling"): binaries print, the library reports through return values.
#![cfg_attr(
    not(test),
    warn(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::undocumented_unsafe_blocks
    )
)]

pub mod audit;
pub mod bench;
pub mod experiments;
pub mod metrics;
pub mod runner;
pub mod table;
pub mod top;

pub use audit::{audit_determinism, AuditConfig, AuditOutcome};
pub use metrics::ErrorSummary;
pub use runner::{evaluate, run_trial, run_trial_observed, EvalConfig, EvalOutcome, Parallelism};
pub use table::Report;
pub use top::{http_get, parse_openmetrics, render_top, MetricSample};

/// Knobs shared by every experiment. `Default` gives the paper-scale
/// configuration; [`ExpConfig::quick`] is a smoke-test configuration used by
/// integration tests and `--quick` runs.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Monte-Carlo trials per configuration point.
    pub trials: u64,
    /// Particles per node for the particle backend.
    pub particles: usize,
    /// BP iteration cap.
    pub iterations: usize,
    /// Reduce sweep resolution for smoke tests.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            trials: 5,
            particles: 150,
            iterations: 8,
            quick: false,
        }
    }
}

impl ExpConfig {
    /// Tiny configuration for CI smoke tests: 2 trials, few particles.
    pub fn quick() -> Self {
        ExpConfig {
            trials: 2,
            particles: 60,
            iterations: 5,
            quick: true,
        }
    }
}
