//! Error metrics over localization results.

use wsnloc_geom::stats;

/// Summary statistics of a set of per-node localization errors (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Number of localized nodes contributing errors.
    pub n: usize,
    /// Mean error.
    pub mean: f64,
    /// Median error.
    pub median: f64,
    /// 90th percentile error.
    pub p90: f64,
    /// Root mean square error.
    pub rmse: f64,
}

impl ErrorSummary {
    /// Summarizes raw errors; `None` when empty.
    pub fn from_errors(errors: &[f64]) -> Option<ErrorSummary> {
        if errors.is_empty() {
            return None;
        }
        Some(ErrorSummary {
            n: errors.len(),
            mean: stats::mean(errors)?,
            median: stats::median(errors)?,
            p90: stats::quantile(errors, 0.9)?,
            rmse: stats::rms(errors)?,
        })
    }

    /// The same summary with every statistic divided by `scale` (use the
    /// radio range to get the paper's normalized errors).
    pub fn normalized(&self, scale: f64) -> ErrorSummary {
        ErrorSummary {
            n: self.n,
            mean: self.mean / scale,
            median: self.median / scale,
            p90: self.p90 / scale,
            rmse: self.rmse / scale,
        }
    }
}

/// Flattens per-node `Option<f64>` errors into the localized subset.
pub fn localized_errors(per_node: &[Option<f64>]) -> Vec<f64> {
    per_node.iter().copied().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let errors = [1.0, 2.0, 3.0, 4.0, 10.0];
        let s = ErrorSummary::from_errors(&errors).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!(s.p90 > 4.0 && s.p90 <= 10.0);
        assert!((s.rmse - (130.0f64 / 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_errors_give_none() {
        assert!(ErrorSummary::from_errors(&[]).is_none());
    }

    #[test]
    fn normalization_divides_everything() {
        let s = ErrorSummary::from_errors(&[10.0, 20.0])
            .unwrap()
            .normalized(10.0);
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert!((s.median - 1.5).abs() < 1e-12);
        assert_eq!(s.n, 2);
    }

    #[test]
    fn localized_errors_drops_none() {
        let per_node = [Some(1.0), None, Some(3.0), None];
        assert_eq!(localized_errors(&per_node), vec![1.0, 3.0]);
    }
}
