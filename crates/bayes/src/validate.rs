//! Numerical-invariant audits for beliefs and factor graphs.
//!
//! Inference bugs in this stack rarely crash — they silently produce
//! denormalized beliefs, NaN-poisoned weights, or factors pointing at
//! variables that do not exist, and the experiment tables downstream just
//! get quietly wrong. This module centralizes the invariants every belief
//! representation and graph must satisfy:
//!
//! - **Distributions** ([`DistributionAudit`]): masses/weights are finite,
//!   non-negative, and normalized within an epsilon; positions and moments
//!   are finite and bounded (a divergence check on the message norms across
//!   BP iterations).
//! - **Graphs** ([`GraphAudit`]): factors reference existing variables, no
//!   self-factors, Gaussian range parameters are finite with positive
//!   sigma, fixed (anchor) positions are finite, and — where an anchor set
//!   is required — it is non-empty.
//!
//! The BP engines run these audits after every iteration when compiled with
//! debug assertions or with the `strict-validate` feature (which extends
//! the checks to release builds, e.g. for long repro runs). In ordinary
//! release builds the audits compile out entirely.

use crate::gaussian::GaussianBelief;
use crate::grid::GridBelief;
use crate::mrf::SpatialMrf;
use crate::particle::ParticleBelief;
use std::fmt;

/// Whether invariant audits are compiled into this build.
pub const AUDITS_ENABLED: bool = cfg!(any(debug_assertions, feature = "strict-validate"));

/// A violated inference invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A mass, weight, coordinate, or moment is NaN or ±infinite.
    NonFinite {
        /// What was being audited (e.g. `"belief[3] weights"`).
        context: String,
        /// Offending flat index within the audited slice.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A probability mass or weight is negative.
    NegativeMass {
        /// What was being audited.
        context: String,
        /// Offending flat index.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A grid belief holds something other than `+0.0` in a cell outside
    /// its support box, which every windowed pass over the belief skips.
    MassOutsideSupport {
        /// What was being audited.
        context: String,
        /// Offending flat cell index.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A distribution's total mass is not 1 within the audit's epsilon.
    NotNormalized {
        /// What was being audited.
        context: String,
        /// The actual total mass.
        total: f64,
        /// The tolerance that was applied.
        epsilon: f64,
    },
    /// A distribution has no support at all.
    EmptyDistribution {
        /// What was being audited.
        context: String,
    },
    /// A coordinate or mean exceeds the divergence bound — the usual
    /// signature of a message-norm blow-up across BP iterations.
    Diverged {
        /// What was being audited.
        context: String,
        /// The offending magnitude.
        magnitude: f64,
        /// The bound it exceeded.
        bound: f64,
    },
    /// A covariance matrix is asymmetric, non-finite, or indefinite.
    InvalidCovariance {
        /// What was being audited.
        context: String,
        /// The covariance entries, row-major.
        cov: [f64; 4],
    },
    /// A factor references a variable outside the graph.
    DanglingFactor {
        /// Index of the offending factor.
        factor: usize,
        /// The out-of-range variable id it references.
        endpoint: usize,
        /// Number of variables actually in the graph.
        len: usize,
    },
    /// A pairwise factor connects a variable to itself.
    SelfFactor {
        /// Index of the offending factor.
        factor: usize,
        /// The repeated variable id.
        node: usize,
    },
    /// A range factor carries a NaN or infinite observed distance.
    NonFiniteRange {
        /// Index of the offending factor.
        factor: usize,
        /// The observed distance.
        observed: f64,
    },
    /// A range factor carries a zero, negative, or non-finite sigma.
    NonPositiveSigma {
        /// Index of the offending factor.
        factor: usize,
        /// The sigma (variance would be its square).
        sigma: f64,
    },
    /// A fixed (anchor) position is NaN or infinite.
    NonFiniteAnchor {
        /// The anchored variable id.
        node: usize,
    },
    /// The graph has no anchors but the caller requires at least one.
    NoAnchors,
    /// A builder was handed a configuration value outside its valid range.
    InvalidOption {
        /// The option's field name (e.g. `"damping"`).
        option: &'static str,
        /// The rejected value, widened to `f64` for uniform reporting.
        value: f64,
        /// Human-readable statement of the valid range.
        requirement: &'static str,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NonFinite {
                context,
                index,
                value,
            } => write!(f, "{context}: non-finite value {value} at index {index}"),
            ValidationError::NegativeMass {
                context,
                index,
                value,
            } => write!(f, "{context}: negative mass {value} at index {index}"),
            ValidationError::MassOutsideSupport {
                context,
                index,
                value,
            } => write!(
                f,
                "{context}: mass {value} at cell {index} lies outside the support box"
            ),
            ValidationError::NotNormalized {
                context,
                total,
                epsilon,
            } => write!(
                f,
                "{context}: total mass {total} differs from 1 by more than {epsilon}"
            ),
            ValidationError::EmptyDistribution { context } => {
                write!(f, "{context}: distribution has no support")
            }
            ValidationError::Diverged {
                context,
                magnitude,
                bound,
            } => write!(
                f,
                "{context}: magnitude {magnitude} exceeds divergence bound {bound}"
            ),
            ValidationError::InvalidCovariance { context, cov } => {
                write!(f, "{context}: invalid covariance {cov:?}")
            }
            ValidationError::DanglingFactor {
                factor,
                endpoint,
                len,
            } => write!(
                f,
                "factor {factor} references variable {endpoint}, but the graph has {len}"
            ),
            ValidationError::SelfFactor { factor, node } => {
                write!(f, "factor {factor} connects variable {node} to itself")
            }
            ValidationError::NonFiniteRange { factor, observed } => {
                write!(f, "factor {factor}: non-finite observed range {observed}")
            }
            ValidationError::NonPositiveSigma { factor, sigma } => {
                write!(
                    f,
                    "factor {factor}: sigma {sigma} is not a positive finite value"
                )
            }
            ValidationError::NonFiniteAnchor { node } => {
                write!(f, "anchor {node} has a non-finite position")
            }
            ValidationError::NoAnchors => write!(f, "graph has no anchors"),
            ValidationError::InvalidOption {
                option,
                value,
                requirement,
            } => {
                write!(f, "option `{option}` = {value} is invalid: {requirement}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Invariant checks on probability distributions and beliefs.
#[derive(Debug, Clone, Copy)]
pub struct DistributionAudit {
    /// Tolerance on `|Σ mass − 1|`.
    pub epsilon: f64,
    /// Divergence bound on coordinate/mean magnitudes. Positions beyond
    /// this are treated as a blown-up message product, not a real estimate.
    pub max_magnitude: f64,
}

impl Default for DistributionAudit {
    fn default() -> Self {
        DistributionAudit {
            epsilon: 1e-6,
            max_magnitude: 1e12,
        }
    }
}

impl DistributionAudit {
    /// Checks a raw mass/weight vector: non-empty, finite, non-negative,
    /// normalized within [`Self::epsilon`].
    pub fn check_masses(&self, context: &str, masses: &[f64]) -> Result<(), ValidationError> {
        if masses.is_empty() {
            return Err(ValidationError::EmptyDistribution {
                context: context.to_string(),
            });
        }
        let mut total = 0.0;
        for (index, &value) in masses.iter().enumerate() {
            if !value.is_finite() {
                return Err(ValidationError::NonFinite {
                    context: context.to_string(),
                    index,
                    value,
                });
            }
            if value < 0.0 {
                return Err(ValidationError::NegativeMass {
                    context: context.to_string(),
                    index,
                    value,
                });
            }
            total += value;
        }
        if (total - 1.0).abs() > self.epsilon {
            return Err(ValidationError::NotNormalized {
                context: context.to_string(),
                total,
                epsilon: self.epsilon,
            });
        }
        Ok(())
    }

    /// Checks a set of 2-D points for finiteness and the divergence bound.
    pub fn check_points(
        &self,
        context: &str,
        points: &[wsnloc_geom::Vec2],
    ) -> Result<(), ValidationError> {
        for (index, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(ValidationError::NonFinite {
                    context: context.to_string(),
                    index,
                    value: if p.x.is_finite() { p.y } else { p.x },
                });
            }
            let magnitude = p.norm();
            if magnitude > self.max_magnitude {
                return Err(ValidationError::Diverged {
                    context: context.to_string(),
                    magnitude,
                    bound: self.max_magnitude,
                });
            }
        }
        Ok(())
    }

    /// Audits a grid belief: normalized non-negative cell masses, and
    /// exactly `+0.0` in every cell outside the belief's support box.
    pub fn check_grid(&self, context: &str, belief: &GridBelief) -> Result<(), ValidationError> {
        self.check_masses(context, belief.mass())?;
        let (nx, support) = (belief.nx(), belief.support());
        let outside = belief
            .mass()
            .iter()
            .enumerate()
            .find(|&(i, m)| m.to_bits() != 0 && !support.contains(i % nx, i / nx));
        match outside {
            Some((index, &value)) => Err(ValidationError::MassOutsideSupport {
                context: context.to_string(),
                index,
                value,
            }),
            None => Ok(()),
        }
    }

    /// Audits a particle belief: normalized weights and finite, bounded
    /// particle positions.
    pub fn check_particles(
        &self,
        context: &str,
        belief: &ParticleBelief,
    ) -> Result<(), ValidationError> {
        self.check_masses(context, belief.weights())?;
        self.check_points(context, belief.particles())
    }

    /// Audits a Gaussian belief: finite bounded mean; finite, symmetric,
    /// positive-semidefinite covariance.
    pub fn check_gaussian(
        &self,
        context: &str,
        belief: &GaussianBelief,
    ) -> Result<(), ValidationError> {
        self.check_points(context, std::slice::from_ref(&belief.mean))?;
        let c = belief.cov;
        let finite = c.iter().all(|v| v.is_finite());
        let symmetric = finite && (c[1] - c[2]).abs() <= self.epsilon * (1.0 + c[1].abs());
        let det = c[0] * c[3] - c[1] * c[2];
        let psd =
            symmetric && c[0] >= 0.0 && c[3] >= 0.0 && det >= -self.epsilon * (1.0 + det.abs());
        if !psd {
            return Err(ValidationError::InvalidCovariance {
                context: context.to_string(),
                cov: c,
            });
        }
        Ok(())
    }
}

/// Invariant checks on factor-graph structure.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphAudit;

impl GraphAudit {
    /// Checks raw factor endpoints against a variable count: every factor
    /// must reference existing, distinct variables.
    pub fn check_factor_refs<I>(&self, len: usize, factors: I) -> Result<(), ValidationError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        for (factor, (u, v)) in factors.into_iter().enumerate() {
            for endpoint in [u, v] {
                if endpoint >= len {
                    return Err(ValidationError::DanglingFactor {
                        factor,
                        endpoint,
                        len,
                    });
                }
            }
            if u == v {
                return Err(ValidationError::SelfFactor { factor, node: u });
            }
        }
        Ok(())
    }

    /// Audits an MRF's structure: factor endpoints, range-factor
    /// parameters, and anchor positions.
    pub fn check_mrf(&self, mrf: &SpatialMrf) -> Result<(), ValidationError> {
        self.check_factor_refs(mrf.len(), mrf.edges().iter().map(|e| (e.u, e.v)))?;
        for (factor, edge) in mrf.edges().iter().enumerate() {
            if let Some((observed, sigma)) = edge.potential.gaussian_range() {
                if !observed.is_finite() {
                    return Err(ValidationError::NonFiniteRange { factor, observed });
                }
                if !(sigma.is_finite() && sigma > 0.0) {
                    return Err(ValidationError::NonPositiveSigma { factor, sigma });
                }
            }
        }
        for node in 0..mrf.len() {
            if let Some(p) = mrf.fixed(node) {
                if !p.is_finite() {
                    return Err(ValidationError::NonFiniteAnchor { node });
                }
            }
        }
        Ok(())
    }

    /// Audits an MRF that is required to contain at least one anchor, on
    /// top of [`Self::check_mrf`]. Cooperative localization without any
    /// fixed reference has an unresolvable global translation/rotation —
    /// callers that need absolute coordinates should demand anchors.
    pub fn check_anchored_mrf(&self, mrf: &SpatialMrf) -> Result<(), ValidationError> {
        self.check_mrf(mrf)?;
        if (0..mrf.len()).all(|u| mrf.fixed(u).is_none()) {
            return Err(ValidationError::NoAnchors);
        }
        Ok(())
    }
}

/// Aborts with a validation error — what [`enforce`] does with a failed
/// audit. Compiled only where audits are; every other caller should
/// propagate the [`ValidationError`] instead.
#[cfg(any(debug_assertions, feature = "strict-validate"))]
#[expect(
    clippy::panic,
    reason = "the single abort point for a failed numerical-invariant audit, compiled in only \
              under debug_assertions or strict-validate"
)]
fn fail(context: &str, e: &ValidationError) -> ! {
    panic!("wsnloc-bayes: {context}: {e}")
}

/// Runs `check` and aborts with its error when audits are compiled in
/// (debug builds or the `strict-validate` feature); free in ordinary
/// release builds. Invariant violations are programming errors, never
/// recoverable runtime conditions, so failing fast is the point.
#[inline]
pub(crate) fn enforce<F>(context: &str, check: F)
where
    F: FnOnce() -> Result<(), ValidationError>,
{
    #[cfg(any(debug_assertions, feature = "strict-validate"))]
    {
        if let Err(e) = check() {
            fail(context, &e);
        }
    }
    #[cfg(not(any(debug_assertions, feature = "strict-validate")))]
    {
        let _ = (context, check);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{GaussianRange, UniformBoxUnary};
    use std::sync::Arc;
    use wsnloc_geom::{Aabb, Vec2};

    fn audit() -> DistributionAudit {
        DistributionAudit::default()
    }

    #[test]
    fn masses_accept_normalized() {
        assert_eq!(audit().check_masses("t", &[0.25; 4]), Ok(()));
    }

    #[test]
    fn masses_reject_nan() {
        match audit().check_masses("t", &[0.5, f64::NAN, 0.5]) {
            Err(ValidationError::NonFinite { index: 1, .. }) => {}
            other => unreachable!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn masses_reject_negative() {
        match audit().check_masses("t", &[1.2, -0.2]) {
            Err(ValidationError::NegativeMass { index: 1, .. }) => {}
            other => unreachable!("expected NegativeMass, got {other:?}"),
        }
    }

    #[test]
    fn masses_reject_denormalized() {
        match audit().check_masses("t", &[0.3, 0.3]) {
            Err(ValidationError::NotNormalized { total, .. }) => {
                assert!((total - 0.6).abs() < 1e-12);
            }
            other => unreachable!("expected NotNormalized, got {other:?}"),
        }
    }

    #[test]
    fn masses_reject_empty() {
        assert!(matches!(
            audit().check_masses("t", &[]),
            Err(ValidationError::EmptyDistribution { .. })
        ));
    }

    #[test]
    fn points_reject_divergence() {
        let pts = [Vec2::new(1e13, 0.0)];
        assert!(matches!(
            audit().check_points("t", &pts),
            Err(ValidationError::Diverged { .. })
        ));
    }

    #[test]
    fn gaussian_rejects_negative_variance() {
        let b = GaussianBelief {
            mean: Vec2::ZERO,
            cov: [-1.0, 0.0, 0.0, 1.0],
        };
        assert!(matches!(
            audit().check_gaussian("t", &b),
            Err(ValidationError::InvalidCovariance { .. })
        ));
    }

    #[test]
    fn gaussian_rejects_asymmetric_covariance() {
        let b = GaussianBelief {
            mean: Vec2::ZERO,
            cov: [1.0, 0.5, -0.5, 1.0],
        };
        assert!(matches!(
            audit().check_gaussian("t", &b),
            Err(ValidationError::InvalidCovariance { .. })
        ));
    }

    #[test]
    fn factor_refs_reject_dangling() {
        let g = GraphAudit;
        match g.check_factor_refs(3, [(0, 1), (2, 7)]) {
            Err(ValidationError::DanglingFactor {
                factor: 1,
                endpoint: 7,
                len: 3,
            }) => {}
            other => unreachable!("expected DanglingFactor, got {other:?}"),
        }
    }

    #[test]
    fn factor_refs_reject_self_edge() {
        let g = GraphAudit;
        assert!(matches!(
            g.check_factor_refs(3, [(2, 2)]),
            Err(ValidationError::SelfFactor { factor: 0, node: 2 })
        ));
    }

    #[test]
    fn mrf_audit_rejects_nan_range() {
        let domain = Aabb::from_size(10.0, 10.0);
        let mut mrf = SpatialMrf::new(2, domain, Arc::new(UniformBoxUnary(domain)));
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: f64::NAN,
                sigma: 1.0,
            }),
        );
        assert!(matches!(
            GraphAudit.check_mrf(&mrf),
            Err(ValidationError::NonFiniteRange { factor: 0, .. })
        ));
    }

    #[test]
    fn mrf_audit_rejects_nonpositive_sigma() {
        let domain = Aabb::from_size(10.0, 10.0);
        let mut mrf = SpatialMrf::new(2, domain, Arc::new(UniformBoxUnary(domain)));
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: 5.0,
                sigma: -2.0,
            }),
        );
        assert!(matches!(
            GraphAudit.check_mrf(&mrf),
            Err(ValidationError::NonPositiveSigma { factor: 0, .. })
        ));
    }

    #[test]
    fn anchored_audit_requires_anchors() {
        let domain = Aabb::from_size(10.0, 10.0);
        let mut mrf = SpatialMrf::new(2, domain, Arc::new(UniformBoxUnary(domain)));
        assert_eq!(
            GraphAudit.check_anchored_mrf(&mrf),
            Err(ValidationError::NoAnchors)
        );
        mrf.fix(0, Vec2::new(1.0, 1.0));
        assert_eq!(GraphAudit.check_anchored_mrf(&mrf), Ok(()));
    }

    #[test]
    fn errors_display_their_context() {
        let e = ValidationError::NotNormalized {
            context: "belief[4]".into(),
            total: 0.5,
            epsilon: 1e-6,
        };
        assert!(e.to_string().contains("belief[4]"));
        let e = ValidationError::DanglingFactor {
            factor: 2,
            endpoint: 9,
            len: 4,
        };
        assert!(e.to_string().contains("factor 2"));
    }
}
