//! # wsnloc-obs
//!
//! Convergence telemetry and structured observability for the loopy-BP
//! inference stack. Before this crate existed, the only visibility into a
//! BP run was a single wall-clock timestamp; the non-convergence regimes
//! that dominate multipath deployments were invisible until the final
//! posterior came out wrong. This crate makes the loop *observable while it
//! runs*:
//!
//! - [`InferenceObserver`] — the hook trait every BP engine reports into:
//!   run metadata, per-iteration records (per-node belief residuals,
//!   message/byte counts, damping, schedule phase), span-style timings
//!   around model build / prior init / message passing / estimate
//!   extraction, structured events, and a convergence verdict.
//! - [`NullObserver`] — the default. Engines check
//!   [`InferenceObserver::wants_residuals`] before computing anything
//!   observer-only, so a run with the null observer does no residual work
//!   and allocates no trace storage (asserted by the
//!   [`accounting`] counters in tests).
//! - [`TraceObserver`] — records everything into an in-memory [`RunTrace`]
//!   per run, behind a mutex so the synchronous-schedule rayon path can
//!   report from worker threads.
//! - [`TraceSink`] / [`JsonlSink`] — serialize recorded traces to JSON
//!   Lines (`trace.jsonl`), one self-describing record per line, with a
//!   hand-rolled encoder because the build environment has no serde. The
//!   schema is documented in the README ("Observability") and on
//!   [`write_jsonl`]. The sink flushes on drop so panicked runs still
//!   leave parseable lines behind.
//!
//! On top of the raw event stream sits the aggregation tier:
//!
//! - [`WindowedMetrics`] — the one metric store. Every [`Fact`] (runs,
//!   iterations, message volume, fault and stream events, tick latency,
//!   queue depth) keeps a lifetime total next to fixed-slot window
//!   rings over its labeled series (per-tenant epochs solved/shed,
//!   per-shard boundary-message volume). Its [`InferenceObserver`] impl
//!   is the only code that maps callbacks onto facts, and
//!   [`WindowedMetrics::render_openmetrics`] is the only OpenMetrics
//!   writer, driven by the fact table in [`metrics`]. Rotation is
//!   caller-driven, never wall-clock-driven.
//! - [`MetricsObserver`] — the one fold of a run: a private store plus
//!   the exact per-iteration residual pools and the span table (per
//!   phase, plus an `iteration` row summing the iteration records),
//!   frozen into a [`MetricsSnapshot`] that renders the convergence,
//!   fault and flame tables. The fold is *order-insensitive*, which is
//!   what makes trace replay equal the live run. [`Stopwatch`] is the
//!   one sanctioned timing primitive (`clippy.toml` bans
//!   `Instant::now` everywhere else).
//! - [`analyze()`] / [`analyze_str`] / [`replay()`] — fold recorded
//!   [`RunTrace`]s, in memory or parsed back from `trace.jsonl`, through
//!   the same fold a live run uses, so `repro trace` and `repro analyze`
//!   print their tables from one path.
//!
//! For *live* deployments (the streaming engine in `wsnloc-serve`) a
//! telemetry tier sits on top of all of the above:
//!
//! - [`TelemetryHub`] — one shared store plus liveness and the
//!   `/tenants` rollup; the engine folds every solve into the store and
//!   closes each tick with [`TelemetryHub::note_tick`].
//! - [`TelemetryServer`] — a hand-rolled, std-only HTTP/1.1 listener
//!   exposing `/metrics` (the store's lifetime and windowed families),
//!   `/healthz` (liveness, tick count, last-tick age), and `/tenants`
//!   (JSON rollup) from a hub.
//! - [`ObsEvent::Context`] correlation stamps (tenant / epoch) let
//!   downstream consumers attribute interleaved event streams.
//!
//! Residual conventions (what "belief residual" means per backend):
//! grid beliefs report the L1 distance between successive cell-mass
//! vectors (in `[0, 2]`) plus the KL divergence of the new belief from the
//! old; particle and Gaussian beliefs report the belief-mean displacement
//! in meters. All residuals are deterministic functions of the beliefs, so
//! for the synchronous schedule they are bit-identical across thread
//! counts.

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
pub mod fold;
pub mod metrics;
pub mod observer;
pub mod profiler;
pub mod replay;
pub mod sink;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use wsnloc_net::accounting::CommStats;

pub use fold::{EventCounts, IterationMetrics, MetricsObserver, MetricsSnapshot};
pub use metrics::Fact;
pub use observer::{
    FanoutObserver, InferenceObserver, IterationRecord, NodeResidual, NullObserver, ObsEvent,
    RunInfo, RunSummary, SpanKind,
};
pub use profiler::Stopwatch;
pub use replay::{
    analyze, analyze_str, parse_json, parse_jsonl, replay, JsonValue, ReplayError, TraceAnalysis,
};
pub use sink::{write_jsonl, JsonlSink, TraceSink, VecSink};
pub use telemetry::{TelemetryHub, TelemetryServer};
pub use trace::{RunTrace, TraceObserver};
pub use window::WindowedMetrics;
