//! Summary statistics for experiment reporting.
//!
//! The evaluation harness reports mean / median / percentile localization
//! errors, their CDFs, and confidence half-widths across Monte-Carlo trials.
//! Everything here is plain `f64` slice math with NaN-hostile behaviour:
//! inputs are asserted finite in debug builds and NaNs would poison sorts,
//! so generators upstream must never emit them.

/// Arithmetic mean; `None` on empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Unbiased sample variance (n−1 denominator); `None` with fewer than two
/// samples.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation; `None` with fewer than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Root mean square; `None` on empty input.
pub fn rms(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some((xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt())
    }
}

/// Sorts a copy of `xs` ascending under IEEE-754 total order
/// ([`f64::total_cmp`]): NaNs sort to the ends instead of poisoning the
/// comparator. The shared helper behind every order-statistic routine here.
pub fn sorted_total(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Quantile with linear interpolation between order statistics
/// (the "R-7" definition used by NumPy's default). `q` is clamped to [0, 1].
/// `None` on empty input.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(quantile_sorted(&sorted_total(xs), q))
}

/// Quantile of an already-sorted slice (ascending). Panics on empty input.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (0.5 quantile); `None` on empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Half-width of the normal-approximation 95% confidence interval of the
/// mean; `None` with fewer than two samples.
pub fn ci95_half_width(xs: &[f64]) -> Option<f64> {
    let sd = std_dev(xs)?;
    Some(1.96 * sd / (xs.len() as f64).sqrt())
}

/// One-pass (Welford) accumulator for mean and variance; usable online and
/// mergeable across parallel shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance; `None` with fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
    }
}

/// Fixed-bin histogram over `[lo, hi)` with out-of-range clamping; used for
/// belief visualization and distribution sanity checks.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram domain");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds an observation; values outside `[lo, hi)` clamp to the end bins.
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64) as isize).clamp(0, bins as isize - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Normalized bin frequencies (empty histogram yields all zeros).
    pub fn frequencies(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // Population variance is 4; sample variance = 32/7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(variance(&[1.0]).is_none());
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rms_known() {
        assert!((rms(&[3.0, 4.0]).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
        assert!(rms(&[]).is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        // Out-of-range q clamps.
        assert_eq!(quantile(&xs, 2.0), Some(4.0));
    }

    #[test]
    fn ci95_shrinks_with_n() {
        let small = [1.0, 2.0, 3.0, 4.0];
        let big: Vec<f64> = small.iter().cycle().take(400).copied().collect();
        assert!(ci95_half_width(&big).unwrap() < ci95_half_width(&small).unwrap());
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [1.5, -2.0, 3.0, 0.5, 10.0, -7.5];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((w.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_matches_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(2.0);
        let b = Welford::new();
        let mut a2 = a;
        a2.merge(&b);
        assert_eq!(a2.mean(), Some(2.0));
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.mean(), Some(2.0));
    }

    #[test]
    fn histogram_binning_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 9.9, -3.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 3); // 0.5, 1.5 and clamped -3.0
        assert_eq!(h.counts()[4], 2); // 9.9 and clamped 42.0
        let freq = h.frequencies();
        assert!((freq.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_frequencies() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.frequencies(), vec![0.0, 0.0, 0.0]);
    }
}
