//! Deployment-field shapes.
//!
//! Cooperative-localization papers evaluate on irregular fields (C-shaped,
//! O-shaped/annular, L-shaped regions) because hop-count baselines such as
//! DV-Hop break when shortest network paths detour around holes. [`Shape`]
//! models those fields with containment tests and uniform rejection sampling.

use crate::aabb::Aabb;
use crate::rng::Xoshiro256pp;
use crate::vec2::Vec2;

/// A deployment region in the plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Solid axis-aligned rectangle.
    Rect(Aabb),
    /// Solid disk.
    Disk {
        /// Center of the disk.
        center: Vec2,
        /// Radius (> 0).
        radius: f64,
    },
    /// Annulus (O shape): points whose distance to `center` lies within
    /// `[inner, outer]`.
    Annulus {
        /// Center of both circles.
        center: Vec2,
        /// Inner (hole) radius.
        inner: f64,
        /// Outer radius (> inner).
        outer: f64,
    },
    /// C shape: the annulus minus an angular wedge of `gap_angle` radians
    /// centered on `gap_direction` (angle from +x axis). This is the classic
    /// "C-shaped network" of the localization literature.
    CShape {
        /// Center of the C.
        center: Vec2,
        /// Inner radius of the band.
        inner: f64,
        /// Outer radius of the band.
        outer: f64,
        /// Direction of the opening, radians from +x.
        gap_direction: f64,
        /// Angular width of the opening, radians in `(0, 2π)`.
        gap_angle: f64,
    },
    /// L shape: the union of two overlapping rectangles.
    LShape {
        /// Vertical arm.
        vertical: Aabb,
        /// Horizontal arm.
        horizontal: Aabb,
    },
    /// Simple polygon given by its vertices in order (closed implicitly).
    /// Containment uses the even-odd rule, so self-intersections behave like
    /// even-odd fill.
    Polygon(Vec<Vec2>),
}

impl Shape {
    /// Standard unit-field C shape used by the experiments: a band covering
    /// the middle of a `side × side` field with a 90° opening facing +x.
    pub fn standard_c(side: f64) -> Shape {
        let c = Vec2::splat(side / 2.0);
        Shape::CShape {
            center: c,
            inner: side * 0.18,
            outer: side * 0.48,
            gap_direction: 0.0,
            gap_angle: std::f64::consts::FRAC_PI_2,
        }
    }

    /// Standard O shape (annulus) filling a `side × side` field.
    pub fn standard_o(side: f64) -> Shape {
        Shape::Annulus {
            center: Vec2::splat(side / 2.0),
            inner: side * 0.18,
            outer: side * 0.48,
        }
    }

    /// Tight axis-aligned bounding box of the shape.
    pub fn bounding_box(&self) -> Aabb {
        match self {
            Shape::Rect(b) => *b,
            Shape::Disk { center, radius } => Aabb::new(
                *center - Vec2::splat(*radius),
                *center + Vec2::splat(*radius),
            ),
            Shape::Annulus { center, outer, .. } | Shape::CShape { center, outer, .. } => {
                Aabb::new(*center - Vec2::splat(*outer), *center + Vec2::splat(*outer))
            }
            Shape::LShape {
                vertical,
                horizontal,
            } => vertical.union(horizontal),
            // An empty polygon has no extent; collapse to the origin rather
            // than panicking deep inside a deployment pipeline.
            Shape::Polygon(vs) => {
                Aabb::from_points(vs).unwrap_or_else(|| Aabb::new(Vec2::ZERO, Vec2::ZERO))
            }
        }
    }

    /// `true` iff `p` is inside the region (closed boundaries).
    pub fn contains(&self, p: Vec2) -> bool {
        match self {
            Shape::Rect(b) => b.contains(p),
            Shape::Disk { center, radius } => p.dist_sq(*center) <= radius * radius,
            Shape::Annulus {
                center,
                inner,
                outer,
            } => {
                let d2 = p.dist_sq(*center);
                d2 >= inner * inner && d2 <= outer * outer
            }
            Shape::CShape {
                center,
                inner,
                outer,
                gap_direction,
                gap_angle,
            } => {
                let d2 = p.dist_sq(*center);
                if d2 < inner * inner || d2 > outer * outer {
                    return false;
                }
                // Outside the gap wedge?
                let theta = (p - *center).angle();
                let mut delta = (theta - gap_direction).rem_euclid(std::f64::consts::TAU);
                if delta > std::f64::consts::PI {
                    delta -= std::f64::consts::TAU;
                }
                delta.abs() > gap_angle / 2.0
            }
            Shape::LShape {
                vertical,
                horizontal,
            } => vertical.contains(p) || horizontal.contains(p),
            Shape::Polygon(vs) => polygon_contains(vs, p),
        }
    }

    /// Exact area where closed-form, otherwise a deterministic Monte-Carlo
    /// estimate (polygons use the shoelace formula).
    pub fn area(&self) -> f64 {
        match self {
            Shape::Rect(b) => b.area(),
            Shape::Disk { radius, .. } => std::f64::consts::PI * radius * radius,
            Shape::Annulus { inner, outer, .. } => {
                std::f64::consts::PI * (outer * outer - inner * inner)
            }
            Shape::CShape {
                inner,
                outer,
                gap_angle,
                ..
            } => {
                let band = std::f64::consts::PI * (outer * outer - inner * inner);
                band * (1.0 - gap_angle / std::f64::consts::TAU)
            }
            Shape::LShape {
                vertical,
                horizontal,
            } => {
                let overlap = rect_overlap_area(vertical, horizontal);
                vertical.area() + horizontal.area() - overlap
            }
            Shape::Polygon(vs) => shoelace_area(vs),
        }
    }

    /// Uniform sample inside the region by rejection from the bounding box.
    ///
    /// If 10 000 consecutive rejections occur (a degenerate shape whose area
    /// is ≲ 0.01% of its bounding box) the draw falls back to an
    /// unconstrained bounding-box sample instead of aborting the caller.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> Vec2 {
        let bb = self.bounding_box();
        for _ in 0..10_000 {
            let p = rng.point_in(bb.min, bb.max);
            if self.contains(p) {
                return p;
            }
        }
        rng.point_in(bb.min, bb.max)
    }

    /// Draws `n` uniform samples.
    pub fn sample_n(&self, rng: &mut Xoshiro256pp, n: usize) -> Vec<Vec2> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

fn rect_overlap_area(a: &Aabb, b: &Aabb) -> f64 {
    let w = (a.max.x.min(b.max.x) - a.min.x.max(b.min.x)).max(0.0);
    let h = (a.max.y.min(b.max.y) - a.min.y.max(b.min.y)).max(0.0);
    w * h
}

/// Even-odd rule point-in-polygon test.
fn polygon_contains(vs: &[Vec2], p: Vec2) -> bool {
    if vs.len() < 3 {
        return false;
    }
    let mut inside = false;
    let mut j = vs.len() - 1;
    for i in 0..vs.len() {
        let (a, b) = (vs[i], vs[j]);
        if (a.y > p.y) != (b.y > p.y) {
            let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if p.x < x_cross {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

/// Shoelace (signed-area magnitude) of a simple polygon.
fn shoelace_area(vs: &[Vec2]) -> f64 {
    if vs.len() < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..vs.len() {
        let a = vs[i];
        let b = vs[(i + 1) % vs.len()];
        acc += a.cross(b);
    }
    acc.abs() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_contains_and_area() {
        let s = Shape::Rect(Aabb::from_size(10.0, 5.0));
        assert!(s.contains(Vec2::new(3.0, 2.0)));
        assert!(!s.contains(Vec2::new(11.0, 2.0)));
        assert_eq!(s.area(), 50.0);
    }

    #[test]
    fn disk_contains_and_area() {
        let s = Shape::Disk {
            center: Vec2::new(1.0, 1.0),
            radius: 2.0,
        };
        assert!(s.contains(Vec2::new(2.0, 1.0)));
        assert!(s.contains(Vec2::new(3.0, 1.0))); // boundary
        assert!(!s.contains(Vec2::new(3.1, 1.0)));
        assert!((s.area() - std::f64::consts::PI * 4.0).abs() < 1e-12);
    }

    #[test]
    fn annulus_excludes_hole() {
        let s = Shape::Annulus {
            center: Vec2::ZERO,
            inner: 1.0,
            outer: 2.0,
        };
        assert!(!s.contains(Vec2::ZERO));
        assert!(!s.contains(Vec2::new(0.5, 0.0)));
        assert!(s.contains(Vec2::new(1.5, 0.0)));
        assert!(!s.contains(Vec2::new(2.5, 0.0)));
        assert!((s.area() - std::f64::consts::PI * 3.0).abs() < 1e-12);
    }

    #[test]
    fn cshape_has_a_gap() {
        let s = Shape::CShape {
            center: Vec2::ZERO,
            inner: 1.0,
            outer: 2.0,
            gap_direction: 0.0,
            gap_angle: std::f64::consts::FRAC_PI_2,
        };
        // In the band but inside the gap wedge (facing +x): excluded.
        assert!(!s.contains(Vec2::new(1.5, 0.0)));
        // In the band, opposite the gap: included.
        assert!(s.contains(Vec2::new(-1.5, 0.0)));
        // Band on +y: included (gap is only ±45° around +x).
        assert!(s.contains(Vec2::new(0.0, 1.5)));
    }

    #[test]
    fn cshape_gap_wraps_across_pi() {
        let s = Shape::CShape {
            center: Vec2::ZERO,
            inner: 1.0,
            outer: 2.0,
            gap_direction: std::f64::consts::PI, // opening faces -x
            gap_angle: std::f64::consts::FRAC_PI_2,
        };
        assert!(!s.contains(Vec2::new(-1.5, 0.0)));
        assert!(s.contains(Vec2::new(1.5, 0.0)));
    }

    #[test]
    fn lshape_union_semantics() {
        let s = Shape::LShape {
            vertical: Aabb::from_size(1.0, 3.0),
            horizontal: Aabb::from_size(3.0, 1.0),
        };
        assert!(s.contains(Vec2::new(0.5, 2.5)));
        assert!(s.contains(Vec2::new(2.5, 0.5)));
        assert!(!s.contains(Vec2::new(2.5, 2.5)));
        // Overlap (1×1) counted once: 3 + 3 - 1.
        assert!((s.area() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn polygon_containment_square() {
        let square = Shape::Polygon(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 2.0),
            Vec2::new(0.0, 2.0),
        ]);
        assert!(square.contains(Vec2::new(1.0, 1.0)));
        assert!(!square.contains(Vec2::new(3.0, 1.0)));
        assert!((square.area() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn polygon_concave() {
        // A chevron: concave notch at the top.
        let chevron = Shape::Polygon(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(4.0, 0.0),
            Vec2::new(4.0, 3.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(0.0, 3.0),
        ]);
        assert!(chevron.contains(Vec2::new(2.0, 0.5)));
        assert!(!chevron.contains(Vec2::new(2.0, 2.5))); // inside the notch
    }

    #[test]
    fn degenerate_polygon_is_empty() {
        let line = Shape::Polygon(vec![Vec2::ZERO, Vec2::new(1.0, 1.0)]);
        assert!(!line.contains(Vec2::new(0.5, 0.5)));
        assert_eq!(line.area(), 0.0);
    }

    #[test]
    fn samples_are_inside_every_shape() {
        let shapes = vec![
            Shape::Rect(Aabb::from_size(10.0, 4.0)),
            Shape::Disk {
                center: Vec2::new(5.0, 5.0),
                radius: 3.0,
            },
            Shape::standard_o(100.0),
            Shape::standard_c(100.0),
            Shape::LShape {
                vertical: Aabb::from_size(2.0, 8.0),
                horizontal: Aabb::from_size(8.0, 2.0),
            },
        ];
        let mut rng = Xoshiro256pp::seed_from(99);
        for s in &shapes {
            for p in s.sample_n(&mut rng, 500) {
                assert!(s.contains(p), "sample {p} escaped {s:?}");
            }
        }
    }

    #[test]
    fn sampling_density_is_uniform_for_disk() {
        // Left and right halves of a disk should receive equal mass.
        let s = Shape::Disk {
            center: Vec2::ZERO,
            radius: 1.0,
        };
        let mut rng = Xoshiro256pp::seed_from(5);
        let n = 40_000;
        let left = s
            .sample_n(&mut rng, n)
            .into_iter()
            .filter(|p| p.x < 0.0)
            .count();
        let frac = left as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "left fraction {frac}");
    }

    #[test]
    fn bounding_boxes_contain_all_samples() {
        let s = Shape::standard_c(50.0);
        let bb = s.bounding_box();
        let mut rng = Xoshiro256pp::seed_from(123);
        for p in s.sample_n(&mut rng, 1_000) {
            assert!(bb.contains(p));
        }
    }

    #[test]
    fn cshape_area_accounts_for_gap() {
        let full = Shape::standard_o(100.0).area();
        let c = Shape::standard_c(100.0).area();
        // Standard C removes a quarter-turn wedge: area = 3/4 of the O.
        assert!((c - full * 0.75).abs() < 1e-9);
    }
}
