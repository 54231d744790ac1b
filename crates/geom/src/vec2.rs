//! 2-D vectors and points.
//!
//! [`Vec2`] doubles as a point type throughout the workspace: node positions,
//! particle locations, grid-cell centers, and gradient directions are all
//! `Vec2`. It is `Copy`, 16 bytes, and all operations are `#[inline]` so the
//! hot message-passing loops stay allocation-free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-D vector (or point) with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component (meters in simulation space).
    pub x: f64,
    /// Vertical component (meters in simulation space).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Constructs a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at angle `theta` radians from the positive x axis.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Vec2::new(theta.cos(), theta.sin())
    }

    /// Both components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec2::new(v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec2) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// 2-D cross product (z component of the 3-D cross product).
    #[inline]
    pub fn cross(self, rhs: Vec2) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (cheaper than [`Vec2::norm`], no sqrt).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn dist_sq(self, other: Vec2) -> f64 {
        (self - other).norm_sq()
    }

    /// Returns the unit vector in the same direction, or `None` for (near-)zero
    /// vectors where the direction is undefined.
    #[inline]
    pub fn try_normalize(self) -> Option<Vec2> {
        let n = self.norm();
        if n > 1e-12 {
            Some(self / n)
        } else {
            None
        }
    }

    /// Unit vector in the same direction; falls back to the +x axis for the
    /// zero vector. Useful in gradient steps where any direction is acceptable
    /// at a singular point.
    #[inline]
    pub fn normalize_or_x(self) -> Vec2 {
        self.try_normalize().unwrap_or(Vec2::new(1.0, 0.0))
    }

    /// Angle in radians from the positive x axis, in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Counter-clockwise rotation by `theta` radians.
    #[inline]
    pub fn rotated(self, theta: f64) -> Vec2 {
        let (s, c) = theta.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Perpendicular vector (90° counter-clockwise rotation).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Component-wise clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Vec2, hi: Vec2) -> Vec2 {
        self.max(lo).min(hi)
    }

    /// `true` iff both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Arithmetic mean of a point set; `None` for an empty slice.
    pub fn centroid(points: &[Vec2]) -> Option<Vec2> {
        if points.is_empty() {
            return None;
        }
        let sum: Vec2 = points.iter().copied().sum();
        Some(sum / points.len() as f64)
    }

    /// Weighted mean of a point set. Returns `None` when the total weight is
    /// not strictly positive (all-zero weights, empty input, or negative sum).
    pub fn weighted_centroid(points: &[Vec2], weights: &[f64]) -> Option<Vec2> {
        assert_eq!(
            points.len(),
            weights.len(),
            "points/weights length mismatch"
        );
        let mut acc = Vec2::ZERO;
        let mut total = 0.0;
        for (&p, &w) in points.iter().zip(weights) {
            acc += p * w;
            total += w;
        }
        if total > 0.0 {
            Some(acc / total)
        } else {
            None
        }
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec2 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl DivAssign<f64> for Vec2 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, Add::add)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    #[inline]
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_basics() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -4.0);
        assert_eq!(a + b, Vec2::new(4.0, -2.0));
        assert_eq!(a - b, Vec2::new(-2.0, 6.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(b / 2.0, Vec2::new(1.5, -2.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn compound_assignment() {
        let mut v = Vec2::new(1.0, 1.0);
        v += Vec2::new(2.0, 3.0);
        v -= Vec2::new(1.0, 1.0);
        v *= 2.0;
        v /= 4.0;
        assert_eq!(v, Vec2::new(1.0, 1.5));
    }

    #[test]
    fn dot_cross_norm() {
        let a = Vec2::new(3.0, 4.0);
        assert!(approx(a.norm(), 5.0));
        assert!(approx(a.norm_sq(), 25.0));
        assert!(approx(a.dot(Vec2::new(1.0, 0.0)), 3.0));
        assert!(approx(Vec2::new(1.0, 0.0).cross(Vec2::new(0.0, 1.0)), 1.0));
    }

    #[test]
    fn distances() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(3.0, 4.0);
        assert!(approx(a.dist(b), 5.0));
        assert!(approx(a.dist_sq(b), 25.0));
    }

    #[test]
    fn normalization() {
        let v = Vec2::new(0.0, 2.0).try_normalize().unwrap();
        assert!(approx(v.norm(), 1.0));
        assert!(Vec2::ZERO.try_normalize().is_none());
        assert_eq!(Vec2::ZERO.normalize_or_x(), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn rotation_and_angle() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!(v.dist(Vec2::new(0.0, 1.0)) < 1e-12);
        assert!(approx(
            Vec2::new(0.0, 1.0).angle(),
            std::f64::consts::FRAC_PI_2
        ));
        assert!(Vec2::from_angle(0.7).dist(Vec2::new(0.7f64.cos(), 0.7f64.sin())) < 1e-15);
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, -2.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, -1.0));
    }

    #[test]
    fn min_max_clamp() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(2.0, 3.0);
        assert_eq!(a.min(b), Vec2::new(1.0, 3.0));
        assert_eq!(a.max(b), Vec2::new(2.0, 5.0));
        assert_eq!(
            Vec2::new(-1.0, 10.0).clamp(Vec2::ZERO, Vec2::splat(4.0)),
            Vec2::new(0.0, 4.0)
        );
    }

    #[test]
    fn centroid_of_points() {
        let pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(1.0, 3.0),
        ];
        assert_eq!(Vec2::centroid(&pts), Some(Vec2::new(1.0, 1.0)));
        assert_eq!(Vec2::centroid(&[]), None);
    }

    #[test]
    fn weighted_centroid_behaviour() {
        let pts = [Vec2::new(0.0, 0.0), Vec2::new(4.0, 0.0)];
        let c = Vec2::weighted_centroid(&pts, &[1.0, 3.0]).unwrap();
        assert!(approx(c.x, 3.0));
        assert!(Vec2::weighted_centroid(&pts, &[0.0, 0.0]).is_none());
    }

    #[test]
    fn sum_iterator() {
        let total: Vec2 = (0..4).map(|i| Vec2::new(i as f64, 1.0)).sum();
        assert_eq!(total, Vec2::new(6.0, 4.0));
    }

    #[test]
    fn conversions_and_display() {
        let v: Vec2 = (1.5, -2.5).into();
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.5, -2.5));
        assert_eq!(format!("{v}"), "(1.500, -2.500)");
    }

    #[test]
    fn finiteness() {
        assert!(Vec2::new(1.0, 2.0).is_finite());
        assert!(!Vec2::new(f64::NAN, 0.0).is_finite());
        assert!(!Vec2::new(0.0, f64::INFINITY).is_finite());
    }
}
