//! A miniature deterministic property-test harness.
//!
//! The build environment pins this workspace to zero external crates, so
//! `proptest` is unavailable; this module supplies the slice of it the
//! workspace's property suites need: run a closure over many seeded random
//! cases and, on failure, report which case (and therefore which RNG
//! stream) reproduces it. There is no shrinking — cases are cheap and the
//! failing seed is printed, which has proven enough to debug numerics.
//!
//! ```
//! use wsnloc_geom::check;
//!
//! check::cases(32, |_case, rng| {
//!     let x = rng.range(-1e6, 1e6);
//!     assert!((x + 1.0) - 1.0 - x < 1e-6);
//! });
//! ```

use crate::rng::Xoshiro256pp;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Golden-ratio-derived master seed; chosen once so failures are stable
/// across runs and machines.
const MASTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the RNG for a given case index — exposed so a failing case can
/// be replayed in isolation from a debugger or a scratch test.
pub fn case_rng(case: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from(MASTER_SEED ^ case.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Runs `property` over `n` independently seeded random cases.
///
/// Panics (re-raising the property's own panic) as soon as one case fails,
/// after printing the failing case index to stderr.
#[expect(
    clippy::print_stderr,
    reason = "one-shot replay hint printed just before a failing property re-panics"
)]
pub fn cases<F>(n: u64, mut property: F)
where
    F: FnMut(u64, &mut Xoshiro256pp),
{
    for case in 0..n {
        let mut rng = case_rng(case);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(case, &mut rng)));
        if let Err(panic) = outcome {
            eprintln!("property failed on case {case} of {n}; replay with check::case_rng({case})");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_cases() {
        let mut seen = 0u64;
        cases(10, |case, _rng| {
            assert_eq!(case, seen);
            seen += 1;
        });
        assert_eq!(seen, 10);
    }

    #[test]
    fn case_rngs_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|c| case_rng(c).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|c| case_rng(c).next_u64()).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
    }

    #[test]
    fn failing_case_propagates_panic() {
        let result = catch_unwind(|| {
            cases(5, |case, _rng| assert!(case < 3, "boom at {case}"));
        });
        assert!(result.is_err());
    }
}
