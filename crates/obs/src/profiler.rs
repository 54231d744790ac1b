//! Wall-clock timing: [`Stopwatch`].
//!
//! `Stopwatch` is the single sanctioned timing primitive of the
//! workspace: `clippy.toml` bans `Instant::now()` everywhere else, so
//! every measured duration flows through this module. Engines report
//! what they time as observer spans, and the
//! [`MetricsObserver`](crate::MetricsObserver) fold attributes them
//! (see [`MetricsSnapshot::flame_table`](crate::MetricsSnapshot::flame_table)).

use std::time::Instant;

/// A started wall-clock timer. The only place the workspace is allowed
/// to read the monotonic clock (enforced by `clippy.toml`).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one sanctioned clock read"
    )]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let w = Stopwatch::start();
        assert!(w.elapsed_secs() >= 0.0);
    }
}
