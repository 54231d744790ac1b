//! Kernel bandwidth selection for weighted 2-D point sets.
//!
//! The particle engine jitters its proposals and smooths a carried particle
//! set into a Gaussian-KDE prior; both take their kernel width from
//! [`silverman_bandwidth`].

use crate::vec2::Vec2;

/// Silverman's rule-of-thumb bandwidth for a weighted 2-D sample.
///
/// Uses the weighted standard deviation averaged over both axes and the
/// effective sample size `ESS = (Σw)² / Σw²` so that degenerate weight
/// distributions get wider kernels. Returns `min_bandwidth` when the sample
/// is empty or has collapsed to a point.
pub fn silverman_bandwidth(points: &[Vec2], weights: &[f64], min_bandwidth: f64) -> f64 {
    assert_eq!(
        points.len(),
        weights.len(),
        "points/weights length mismatch"
    );
    let total: f64 = weights.iter().sum();
    if points.is_empty() || total <= 0.0 {
        return min_bandwidth;
    }
    let mean = points
        .iter()
        .zip(weights)
        .fold(Vec2::ZERO, |acc, (&p, &w)| acc + p * w)
        / total;
    let mut var = 0.0;
    let mut sq_weight = 0.0;
    for (&p, &w) in points.iter().zip(weights) {
        var += w * p.dist_sq(mean);
        sq_weight += w * w;
    }
    // Per-axis variance: the 2-D squared deviation splits across two axes.
    let sigma = (var / total / 2.0).sqrt();
    let ess = if sq_weight > 0.0 {
        total * total / sq_weight
    } else {
        1.0
    };
    // d = 2 → exponent -1/(d+4) = -1/6; constant n^{-1/6}.
    let h = sigma * ess.powf(-1.0 / 6.0);
    h.max(min_bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silverman_scales_with_spread() {
        let tight: Vec<Vec2> = (0..50).map(|i| Vec2::new(i as f64 * 0.01, 0.0)).collect();
        let wide: Vec<Vec2> = (0..50).map(|i| Vec2::new(i as f64, 0.0)).collect();
        let w = vec![1.0; 50];
        let ht = silverman_bandwidth(&tight, &w, 1e-9);
        let hw = silverman_bandwidth(&wide, &w, 1e-9);
        assert!(hw > 10.0 * ht, "tight {ht} wide {hw}");
    }

    #[test]
    fn silverman_floors_degenerate_samples() {
        let pts = vec![Vec2::new(1.0, 1.0); 10];
        let w = vec![1.0; 10];
        assert_eq!(silverman_bandwidth(&pts, &w, 0.5), 0.5);
        assert_eq!(silverman_bandwidth(&[], &[], 0.25), 0.25);
    }
}
