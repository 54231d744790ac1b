//! Axis-aligned bounding boxes.
//!
//! Used for deployment-field extents, grid-belief domains, and spatial-hash
//! bounds. An [`Aabb`] is closed: both edges are inside.

use crate::vec2::Vec2;

/// A closed axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Vec2,
    /// Upper-right corner.
    pub max: Vec2,
}

impl Aabb {
    /// Creates a box from two corners. Panics if `min` exceeds `max` in any
    /// coordinate — construct with [`Aabb::from_points`] for unordered input.
    pub fn new(min: Vec2, max: Vec2) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y,
            "Aabb::new requires min <= max, got {min} / {max}"
        );
        Aabb { min, max }
    }

    /// The box `[0, w] × [0, h]`.
    pub fn from_size(w: f64, h: f64) -> Self {
        Aabb::new(Vec2::ZERO, Vec2::new(w, h))
    }

    /// Smallest box containing every point; `None` for an empty slice.
    pub fn from_points(points: &[Vec2]) -> Option<Self> {
        let first = *points.first()?;
        let (min, max) = points
            .iter()
            .fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        Some(Aabb { min, max })
    }

    /// Width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric center.
    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    /// Length of the diagonal — a natural scale for "anywhere in the field"
    /// error magnitudes.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.min.dist(self.max)
    }

    /// `true` iff `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Closest point of the box to `p` (equals `p` when inside).
    #[inline]
    pub fn clamp_point(&self, p: Vec2) -> Vec2 {
        p.clamp(self.min, self.max)
    }

    /// The smallest box containing both.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Grows the box by `margin` on every side (shrinks for negative margins;
    /// panics if the result would be inverted).
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb::new(
            self.min - Vec2::splat(margin),
            self.max + Vec2::splat(margin),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_extent() {
        let b = Aabb::from_size(10.0, 5.0);
        assert_eq!(b.width(), 10.0);
        assert_eq!(b.height(), 5.0);
        assert_eq!(b.area(), 50.0);
        assert_eq!(b.center(), Vec2::new(5.0, 2.5));
        assert!((b.diagonal() - (125.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn inverted_box_panics() {
        let _ = Aabb::new(Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn from_points_bounds_everything() {
        let pts = [
            Vec2::new(1.0, 4.0),
            Vec2::new(-2.0, 0.5),
            Vec2::new(3.0, 2.0),
        ];
        let b = Aabb::from_points(&pts).unwrap();
        assert_eq!(b.min, Vec2::new(-2.0, 0.5));
        assert_eq!(b.max, Vec2::new(3.0, 4.0));
        for p in pts {
            assert!(b.contains(p));
        }
        assert!(Aabb::from_points(&[]).is_none());
    }

    #[test]
    fn containment_is_closed() {
        let b = Aabb::from_size(1.0, 1.0);
        assert!(b.contains(Vec2::ZERO));
        assert!(b.contains(Vec2::new(1.0, 1.0)));
        assert!(!b.contains(Vec2::new(1.0 + 1e-9, 0.5)));
    }

    #[test]
    fn clamping() {
        let b = Aabb::from_size(2.0, 2.0);
        assert_eq!(b.clamp_point(Vec2::new(5.0, -1.0)), Vec2::new(2.0, 0.0));
        assert_eq!(b.clamp_point(Vec2::new(1.0, 1.0)), Vec2::new(1.0, 1.0));
    }

    #[test]
    fn union_spans_both_boxes() {
        let a = Aabb::from_size(2.0, 2.0);
        let c = Aabb::new(Vec2::new(5.0, 5.0), Vec2::new(6.0, 6.0));
        let u = a.union(&c);
        assert_eq!(u.min, Vec2::ZERO);
        assert_eq!(u.max, Vec2::new(6.0, 6.0));
    }

    #[test]
    fn inflation() {
        let b = Aabb::from_size(2.0, 2.0).inflated(1.0);
        assert_eq!(b.min, Vec2::new(-1.0, -1.0));
        assert_eq!(b.max, Vec2::new(3.0, 3.0));
    }
}
