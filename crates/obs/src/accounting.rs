//! Observability cost counters.
//!
//! Process-wide atomic counters that measure what the observer layer
//! itself costs. The zero-cost-when-disabled contract — a run with
//! [`crate::NullObserver`] computes no residuals and stores no trace
//! records — is asserted in tests by reading these counters around a run,
//! rather than by trusting the code to stay honest.

#![expect(
    clippy::disallowed_types,
    reason = "audited atomics: monotone leak-check tallies, Relaxed because callers read them \
              as totals after the workload quiesces and never synchronize through them"
)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Residual buffers allocated by BP engines (one per observed iteration
/// when the observer asked for residuals).
static RESIDUAL_BUFFERS: AtomicU64 = AtomicU64::new(0);

/// Iteration records stored by recording observers.
static ITERATION_RECORDS: AtomicU64 = AtomicU64::new(0);

/// Called by BP engines when they allocate per-node residual storage for
/// an observer. Engines must call this only on the
/// [`crate::InferenceObserver::wants_residuals`] path.
pub fn note_residual_buffer() {
    RESIDUAL_BUFFERS.fetch_add(1, Ordering::Relaxed);
}

/// Called by recording observers when they store an iteration record.
pub fn note_iteration_record() {
    ITERATION_RECORDS.fetch_add(1, Ordering::Relaxed);
}

/// Residual buffers allocated so far, process-wide.
pub fn residual_buffers() -> u64 {
    RESIDUAL_BUFFERS.load(Ordering::Relaxed)
}

/// Iteration records stored so far, process-wide.
pub fn iteration_records() -> u64 {
    ITERATION_RECORDS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r0 = residual_buffers();
        let i0 = iteration_records();
        note_residual_buffer();
        note_iteration_record();
        note_iteration_record();
        assert!(residual_buffers() > r0);
        assert!(iteration_records() >= i0 + 2);
    }
}
