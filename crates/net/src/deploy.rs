//! Node deployment models.
//!
//! A [`Deployment`] produces both the *realized* node positions (hidden
//! ground truth) and, when the model supports it, the *planned* positions —
//! the coordinates the deployment was aimed at. Planned positions are the
//! source of pre-knowledge priors: an aerial drop knows each sensor's target
//! coordinate but not where the wind actually put it.

use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Shape, Vec2};

/// How nodes are placed in the field.
#[derive(Debug, Clone, PartialEq)]
pub enum Deployment {
    /// Independent uniform placement inside a shape. No planned positions
    /// exist (pre-knowledge reduces to "somewhere in the field").
    Uniform(Shape),
    /// Nodes aimed at the cells of a `rows × cols` grid covering `bounds`,
    /// each displaced by isotropic Gaussian jitter. Planned positions are
    /// the grid cell centers. If `rows * cols` is smaller than the requested
    /// node count, targets repeat cyclically.
    GridJitter {
        /// Field covered by the grid.
        bounds: Aabb,
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Standard deviation of placement scatter (meters).
        sigma: f64,
    },
    /// Exact, caller-supplied positions (mobility snapshots, replayed
    /// traces, hand-built test geometries). `realize` panics if asked for
    /// more nodes than positions; extra positions are ignored.
    Fixed(Vec<Vec2>),
    /// Each node is aimed at an explicit drop point and lands with isotropic
    /// Gaussian scatter; nodes cycle through the drop-point list. This is
    /// the canonical "pre-knowledge" deployment (aerial/vehicle drops).
    DropPoints {
        /// Planned drop coordinates.
        targets: Vec<Vec2>,
        /// Standard deviation of scatter around each target (meters).
        sigma: f64,
        /// Optional containment region; scattered positions are re-drawn
        /// until inside (nodes cannot land outside the field).
        field: Option<Shape>,
    },
}

/// The result of realizing a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Realized (true) node positions — hidden from algorithms.
    pub positions: Vec<Vec2>,
    /// Planned position per node, when the model defines one. This is the
    /// public pre-knowledge.
    pub planned: Option<Vec<Vec2>>,
}

impl Deployment {
    /// Uniform deployment over a `side × side` square — the standard field.
    pub fn uniform_square(side: f64) -> Deployment {
        Deployment::Uniform(Shape::Rect(Aabb::from_size(side, side)))
    }

    /// Grid-of-drop-points deployment covering a square field: `k × k`
    /// targets with scatter `sigma`, clipped to the field. This is the
    /// standard pre-knowledge scenario used throughout the experiments.
    pub fn planned_square_drop(side: f64, k: usize, sigma: f64) -> Deployment {
        assert!(k > 0, "need at least one drop row");
        let mut targets = Vec::with_capacity(k * k);
        for r in 0..k {
            for c in 0..k {
                targets.push(Vec2::new(
                    side * (c as f64 + 0.5) / k as f64,
                    side * (r as f64 + 0.5) / k as f64,
                ));
            }
        }
        Deployment::DropPoints {
            targets,
            sigma,
            field: Some(Shape::Rect(Aabb::from_size(side, side))),
        }
    }

    /// The region nodes can occupy.
    pub fn field_shape(&self) -> Shape {
        match self {
            Deployment::Uniform(s) => s.clone(),
            Deployment::Fixed(positions) => {
                // An empty fixed deployment degenerates to a unit box.
                let bb = Aabb::from_points(positions)
                    .unwrap_or_else(|| Aabb::from_size(1.0, 1.0))
                    .inflated(1.0);
                Shape::Rect(bb)
            }
            Deployment::GridJitter { bounds, .. } => Shape::Rect(*bounds),
            Deployment::DropPoints { field, targets, .. } => field.clone().unwrap_or_else(|| {
                // Unbounded scatter: use a generous box around the targets
                // (or a unit box when there are none).
                let bb = Aabb::from_points(targets)
                    .unwrap_or_else(|| Aabb::from_size(1.0, 1.0))
                    .inflated(1.0);
                Shape::Rect(bb)
            }),
        }
    }

    /// Realizes positions for `n` nodes.
    pub fn realize(&self, n: usize, rng: &mut Xoshiro256pp) -> Placement {
        match self {
            Deployment::Uniform(shape) => Placement {
                positions: shape.sample_n(rng, n),
                planned: None,
            },
            Deployment::Fixed(positions) => {
                assert!(
                    positions.len() >= n,
                    "Fixed deployment has {} positions but {n} were requested",
                    positions.len()
                );
                Placement {
                    positions: positions[..n].to_vec(),
                    planned: None,
                }
            }
            Deployment::GridJitter {
                bounds,
                rows,
                cols,
                sigma,
            } => {
                assert!(*rows > 0 && *cols > 0, "grid must be non-empty");
                let mut planned = Vec::with_capacity(n);
                for i in 0..n {
                    let cell = i % (rows * cols);
                    let (r, c) = (cell / cols, cell % cols);
                    planned.push(Vec2::new(
                        bounds.min.x + bounds.width() * (c as f64 + 0.5) / *cols as f64,
                        bounds.min.y + bounds.height() * (r as f64 + 0.5) / *rows as f64,
                    ));
                }
                let positions = planned
                    .iter()
                    .map(|&t| scatter_into(t, *sigma, &Shape::Rect(*bounds), rng))
                    .collect();
                Placement {
                    positions,
                    planned: Some(planned),
                }
            }
            Deployment::DropPoints {
                targets,
                sigma,
                field,
            } => {
                assert!(!targets.is_empty(), "DropPoints needs at least one target");
                let planned: Vec<Vec2> = (0..n).map(|i| targets[i % targets.len()]).collect();
                let shape = self.field_shape();
                let positions = planned
                    .iter()
                    .map(|&t| {
                        if field.is_some() {
                            scatter_into(t, *sigma, &shape, rng)
                        } else {
                            rng.gaussian_point(t, *sigma)
                        }
                    })
                    .collect();
                Placement {
                    positions,
                    planned: Some(planned),
                }
            }
        }
    }
}

/// Gaussian scatter around `target`, redrawn until inside `shape` (falls back
/// to clamping into the bounding box after 1000 rejections, which only
/// happens for targets far outside the field).
fn scatter_into(target: Vec2, sigma: f64, shape: &Shape, rng: &mut Xoshiro256pp) -> Vec2 {
    for _ in 0..1000 {
        let p = rng.gaussian_point(target, sigma);
        if shape.contains(p) {
            return p;
        }
    }
    shape.bounding_box().clamp_point(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_positions_inside_field() {
        let d = Deployment::uniform_square(100.0);
        let mut rng = Xoshiro256pp::seed_from(1);
        let p = d.realize(200, &mut rng);
        assert_eq!(p.positions.len(), 200);
        assert!(p.planned.is_none());
        let shape = d.field_shape();
        assert!(p.positions.iter().all(|&x| shape.contains(x)));
    }

    #[test]
    fn grid_jitter_planned_are_cell_centers() {
        let d = Deployment::GridJitter {
            bounds: Aabb::from_size(100.0, 100.0),
            rows: 2,
            cols: 2,
            sigma: 1.0,
        };
        let mut rng = Xoshiro256pp::seed_from(2);
        let p = d.realize(4, &mut rng);
        let planned = p.planned.unwrap();
        assert_eq!(planned[0], Vec2::new(25.0, 25.0));
        assert_eq!(planned[3], Vec2::new(75.0, 75.0));
        // Realized positions near plans (σ = 1, so 5σ covers it).
        for (pos, plan) in p.positions.iter().zip(&planned) {
            assert!(pos.dist(*plan) < 6.0);
        }
    }

    #[test]
    fn grid_jitter_cycles_when_more_nodes_than_cells() {
        let d = Deployment::GridJitter {
            bounds: Aabb::from_size(10.0, 10.0),
            rows: 1,
            cols: 2,
            sigma: 0.1,
        };
        let mut rng = Xoshiro256pp::seed_from(3);
        let p = d.realize(5, &mut rng);
        let planned = p.planned.unwrap();
        assert_eq!(planned[0], planned[2]);
        assert_eq!(planned[1], planned[3]);
    }

    #[test]
    fn drop_points_scatter_scales_with_sigma() {
        let target = Vec2::new(50.0, 50.0);
        let mk = |sigma| Deployment::DropPoints {
            targets: vec![target],
            sigma,
            field: None,
        };
        let mut rng = Xoshiro256pp::seed_from(4);
        let tight = mk(1.0).realize(500, &mut rng);
        let loose = mk(20.0).realize(500, &mut rng);
        let spread = |p: &Placement| {
            p.positions.iter().map(|x| x.dist(target)).sum::<f64>() / p.positions.len() as f64
        };
        assert!(spread(&loose) > 5.0 * spread(&tight));
    }

    #[test]
    fn drop_points_respect_field_clipping() {
        let d = Deployment::DropPoints {
            targets: vec![Vec2::new(1.0, 1.0)], // near the corner
            sigma: 10.0,
            field: Some(Shape::Rect(Aabb::from_size(100.0, 100.0))),
        };
        let mut rng = Xoshiro256pp::seed_from(5);
        let p = d.realize(300, &mut rng);
        assert!(p
            .positions
            .iter()
            .all(|x| x.x >= 0.0 && x.y >= 0.0 && x.x <= 100.0 && x.y <= 100.0));
    }

    #[test]
    fn planned_square_drop_covers_field() {
        let d = Deployment::planned_square_drop(1000.0, 5, 50.0);
        let mut rng = Xoshiro256pp::seed_from(6);
        let p = d.realize(225, &mut rng);
        let planned = p.planned.unwrap();
        assert_eq!(planned.len(), 225);
        // 25 distinct targets cycled 9 times.
        let bb = Aabb::from_points(&planned).unwrap();
        assert!(bb.width() > 700.0 && bb.height() > 700.0);
    }

    #[test]
    fn fixed_deployment_passes_positions_through() {
        let pts = vec![
            Vec2::new(1.0, 2.0),
            Vec2::new(3.0, 4.0),
            Vec2::new(5.0, 6.0),
        ];
        let d = Deployment::Fixed(pts.clone());
        let mut rng = Xoshiro256pp::seed_from(1);
        let p = d.realize(2, &mut rng);
        assert_eq!(p.positions, &pts[..2]);
        assert!(p.planned.is_none());
        assert!(d.field_shape().contains(pts[2]));
    }

    #[test]
    #[should_panic(expected = "requested")]
    fn fixed_deployment_rejects_overdraw() {
        let d = Deployment::Fixed(vec![Vec2::ZERO]);
        let mut rng = Xoshiro256pp::seed_from(1);
        let _ = d.realize(2, &mut rng);
    }

    #[test]
    fn realization_is_deterministic_per_seed() {
        let d = Deployment::uniform_square(100.0);
        let a = d.realize(50, &mut Xoshiro256pp::seed_from(7));
        let b = d.realize(50, &mut Xoshiro256pp::seed_from(7));
        let c = d.realize(50, &mut Xoshiro256pp::seed_from(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
