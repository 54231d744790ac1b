//! Deterministic random number generation.
//!
//! The workspace never uses OS entropy: every stochastic component (node
//! deployment, measurement noise, particle sampling, Monte-Carlo trials) draws
//! from an explicit-seed [`Xoshiro256pp`] stream. Streams can be *split*
//! ([`Xoshiro256pp::split`]) to hand independent sub-streams to parallel
//! workers, which keeps rayon-parallel experiment runs bit-identical to their
//! sequential counterparts regardless of scheduling.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through SplitMix64
//! as its authors recommend; both are implemented here so the crate stays
//! dependency-free.

use crate::vec2::Vec2;

/// SplitMix64 step — used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ pseudo-random generator with convenience sampling methods.
///
/// Period 2²⁵⁶−1; passes BigCrush. Not cryptographic — fine for simulation.
///
/// ```
/// use wsnloc_geom::rng::Xoshiro256pp;
/// let mut rng = Xoshiro256pp::seed_from(42);
/// let x = rng.range(0.0, 10.0);
/// assert!((0.0..10.0).contains(&x));
/// // Same seed, same stream:
/// assert_eq!(Xoshiro256pp::seed_from(42).next_u64(),
///            Xoshiro256pp::seed_from(42).next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_cache: Option<f64>,
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256pp {
            s,
            gauss_cache: None,
        }
    }

    /// Derives an independent sub-stream labeled by `tag`.
    ///
    /// Does not advance `self`. Identical `(self state, tag)` pairs yield
    /// identical sub-streams, which is what makes parallel fan-out
    /// deterministic: worker `i` always receives `rng.split(i as u64)`.
    pub fn split(&self, tag: u64) -> Xoshiro256pp {
        // Mix the current state with the tag through SplitMix64.
        let mut sm =
            self.s[0] ^ self.s[1].rotate_left(17) ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256pp {
            s,
            gauss_cache: None,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "range requires lo <= hi");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased method. Panics on
    /// `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let n = n as u64;
        // Multiply-shift rejection sampling (Lemire 2019).
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal sample (Box–Muller, cached pair).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_cache.take() {
            return z;
        }
        // Avoid u == 0 so ln is finite.
        let u = loop {
            let u = self.f64();
            if u > 1e-300 {
                break u;
            }
        };
        let v = self.f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = std::f64::consts::TAU * v;
        let (s, c) = theta.sin_cos();
        self.gauss_cache = Some(r * s);
        r * c
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponential sample with the given rate `lambda` (> 0), via inversion.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.f64();
            if u > 1e-300 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Uniform point inside an axis-aligned box.
    #[inline]
    pub fn point_in(&mut self, min: Vec2, max: Vec2) -> Vec2 {
        Vec2::new(self.range(min.x, max.x), self.range(min.y, max.y))
    }

    /// Isotropic 2-D Gaussian sample centered at `mean` with per-axis
    /// standard deviation `sigma`.
    #[inline]
    pub fn gaussian_point(&mut self, mean: Vec2, sigma: f64) -> Vec2 {
        mean + Vec2::new(self.gaussian(), self.gaussian()) * sigma
    }

    /// Draws an index with probability proportional to `weights[i]`.
    ///
    /// Returns `None` when the weight sum is not strictly positive. Negative
    /// weights are treated as zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.f64() * total;
        let mut last_positive = None;
        for (i, &w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if w > 0.0 {
                last_positive = Some(i);
                if target < w {
                    return Some(i);
                }
                target -= w;
            }
        }
        // Floating-point slack: fall back to the last positive-weight entry.
        last_positive
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (reservoir-free partial
    /// Fisher–Yates). Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// Systematic resampling: draws `count` indices from the categorical
/// distribution given by `weights` using a single uniform offset, giving the
/// minimum-variance unbiased resample used by particle filters.
///
/// Returns `None` if the weights do not sum to a positive finite value.
pub fn systematic_resample(
    rng: &mut Xoshiro256pp,
    weights: &[f64],
    count: usize,
) -> Option<Vec<usize>> {
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if total <= 0.0 || !total.is_finite() || count == 0 {
        return if count == 0 { Some(Vec::new()) } else { None };
    }
    let step = total / count as f64;
    let mut position = rng.f64() * step;
    let mut out = Vec::with_capacity(count);
    let mut cumulative = 0.0;
    let mut i = 0usize;
    for _ in 0..count {
        while cumulative + weights[i].max(0.0) < position {
            cumulative += weights[i].max(0.0);
            i += 1;
            if i >= weights.len() {
                // Numerical slack at the tail.
                i = weights.len() - 1;
                break;
            }
        }
        out.push(i);
        position += step;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Xoshiro256pp::seed_from(42);
        let mut b = Xoshiro256pp::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::seed_from(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn split_streams_are_independent_and_reproducible() {
        let root = Xoshiro256pp::seed_from(7);
        let mut s1 = root.split(1);
        let mut s1b = root.split(1);
        let mut s2 = root.split(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from(1);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = Xoshiro256pp::seed_from(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn index_is_unbiased_over_small_range() {
        let mut rng = Xoshiro256pp::seed_from(3);
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.index(5)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.02, "bucket fraction {frac}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256pp::seed_from(4);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = Xoshiro256pp::seed_from(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256pp::seed_from(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Xoshiro256pp::seed_from(9);
        let weights = [1.0, 0.0, 3.0];
        let n = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac0 = counts[0] as f64 / n as f64;
        assert!((frac0 - 0.25).abs() < 0.02, "frac0 {frac0}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut rng = Xoshiro256pp::seed_from(10);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[-1.0, -2.0]), None);
        assert_eq!(rng.weighted_index(&[0.0, 5.0, 0.0]), Some(1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from(11);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256pp::seed_from(12);
        let picked = rng.sample_indices(20, 8);
        assert_eq!(picked.len(), 8);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(picked.iter().all(|&i| i < 20));
    }

    #[test]
    fn systematic_resample_matches_weights() {
        let mut rng = Xoshiro256pp::seed_from(13);
        let weights = [0.1, 0.7, 0.2];
        let idx = systematic_resample(&mut rng, &weights, 10_000).unwrap();
        let mut counts = [0usize; 3];
        for i in idx {
            counts[i] += 1;
        }
        assert!((counts[1] as f64 / 10_000.0 - 0.7).abs() < 0.01);
    }

    #[test]
    fn systematic_resample_degenerate() {
        let mut rng = Xoshiro256pp::seed_from(14);
        assert!(systematic_resample(&mut rng, &[0.0, 0.0], 5).is_none());
        assert_eq!(
            systematic_resample(&mut rng, &[1.0], 0).unwrap(),
            Vec::<usize>::new()
        );
        // Single positive weight: every draw is that index.
        let idx = systematic_resample(&mut rng, &[0.0, 2.0, 0.0], 7).unwrap();
        assert!(idx.iter().all(|&i| i == 1));
    }
}
