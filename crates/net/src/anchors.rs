//! Anchor (beacon) selection strategies.
//!
//! Anchors are the nodes that know their own position. How they are chosen
//! changes localization difficulty substantially: random placement can leave
//! coverage holes, perimeter placement maximizes geometric dilution for
//! interior nodes, grid placement is the engineered best case.

use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Vec2};

/// How anchors are selected from the deployed node population.
#[derive(Debug, Clone, PartialEq)]
pub enum AnchorStrategy {
    /// Select `count` anchors uniformly at random.
    Random {
        /// Number of anchors.
        count: usize,
    },
    /// Select the `count` nodes nearest to the field perimeter.
    Perimeter {
        /// Number of anchors.
        count: usize,
    },
    /// Select `count` nodes nearest to an evenly spaced virtual grid over
    /// the field (greedy, without replacement) — approximates engineered
    /// anchor placement.
    Grid {
        /// Number of anchors.
        count: usize,
    },
    /// Exactly these node ids (mobility snapshots, engineered deployments).
    /// Out-of-range ids are dropped.
    Explicit(Vec<usize>),
}

impl AnchorStrategy {
    /// Requested anchor count.
    pub fn count(&self) -> usize {
        match self {
            AnchorStrategy::Random { count }
            | AnchorStrategy::Perimeter { count }
            | AnchorStrategy::Grid { count } => *count,
            AnchorStrategy::Explicit(ids) => ids.len(),
        }
    }

    /// Picks anchor node indices given realized positions and the field
    /// bounds. Returns a sorted, duplicate-free list of at most
    /// `positions.len()` indices.
    pub fn select(&self, positions: &[Vec2], bounds: Aabb, rng: &mut Xoshiro256pp) -> Vec<usize> {
        let n = positions.len();
        let count = self.count().min(n);
        let mut chosen = match self {
            AnchorStrategy::Explicit(ids) => ids.iter().copied().filter(|&i| i < n).collect(),
            AnchorStrategy::Random { .. } => rng.sample_indices(n, count),
            AnchorStrategy::Perimeter { .. } => {
                let mut by_edge_dist: Vec<usize> = (0..n).collect();
                by_edge_dist.sort_by(|&a, &b| {
                    edge_distance(positions[a], bounds)
                        .total_cmp(&edge_distance(positions[b], bounds))
                });
                by_edge_dist.truncate(count);
                by_edge_dist
            }
            AnchorStrategy::Grid { .. } => {
                let k = (count as f64).sqrt().ceil() as usize;
                let mut taken = vec![false; n];
                let mut picked = Vec::with_capacity(count);
                'outer: for r in 0..k {
                    for c in 0..k {
                        if picked.len() >= count {
                            break 'outer;
                        }
                        let target = Vec2::new(
                            bounds.min.x + bounds.width() * (c as f64 + 0.5) / k as f64,
                            bounds.min.y + bounds.height() * (r as f64 + 0.5) / k as f64,
                        );
                        if let Some(best) = (0..n).filter(|&i| !taken[i]).min_by(|&a, &b| {
                            positions[a]
                                .dist_sq(target)
                                .total_cmp(&positions[b].dist_sq(target))
                        }) {
                            taken[best] = true;
                            picked.push(best);
                        }
                    }
                }
                picked
            }
        };
        chosen.sort_unstable();
        chosen.dedup();
        chosen
    }
}

/// Distance from a point to the nearest field edge (0 on the boundary).
fn edge_distance(p: Vec2, bounds: Aabb) -> f64 {
    let dx = (p.x - bounds.min.x).min(bounds.max.x - p.x);
    let dy = (p.y - bounds.min.y).min(bounds.max.y - p.y);
    dx.min(dy).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_positions(side: f64, k: usize) -> Vec<Vec2> {
        let mut out = Vec::new();
        for r in 0..k {
            for c in 0..k {
                out.push(Vec2::new(
                    side * (c as f64 + 0.5) / k as f64,
                    side * (r as f64 + 0.5) / k as f64,
                ));
            }
        }
        out
    }

    #[test]
    fn random_selection_size_and_range() {
        let pos = grid_positions(100.0, 10);
        let mut rng = Xoshiro256pp::seed_from(1);
        let sel = AnchorStrategy::Random { count: 12 }.select(
            &pos,
            Aabb::from_size(100.0, 100.0),
            &mut rng,
        );
        assert_eq!(sel.len(), 12);
        assert!(sel.iter().all(|&i| i < pos.len()));
        assert!(sel.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
    }

    #[test]
    fn random_selection_caps_at_population() {
        let pos = grid_positions(10.0, 2);
        let mut rng = Xoshiro256pp::seed_from(2);
        let sel = AnchorStrategy::Random { count: 99 }.select(
            &pos,
            Aabb::from_size(10.0, 10.0),
            &mut rng,
        );
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn perimeter_prefers_border_nodes() {
        let bounds = Aabb::from_size(100.0, 100.0);
        let mut pos = grid_positions(100.0, 5); // interior-ish grid
        pos.push(Vec2::new(1.0, 50.0)); // clearly on the edge
        pos.push(Vec2::new(99.0, 50.0));
        let mut rng = Xoshiro256pp::seed_from(3);
        let sel = AnchorStrategy::Perimeter { count: 2 }.select(&pos, bounds, &mut rng);
        assert_eq!(sel, vec![25, 26]);
    }

    #[test]
    fn grid_selection_spreads_out() {
        let bounds = Aabb::from_size(100.0, 100.0);
        let pos = grid_positions(100.0, 10);
        let mut rng = Xoshiro256pp::seed_from(4);
        let sel = AnchorStrategy::Grid { count: 4 }.select(&pos, bounds, &mut rng);
        assert_eq!(sel.len(), 4);
        // Selected anchors should span a large part of the field.
        let pts: Vec<Vec2> = sel.iter().map(|&i| pos[i]).collect();
        let bb = Aabb::from_points(&pts).unwrap();
        assert!(bb.width() > 30.0 && bb.height() > 30.0);
    }

    #[test]
    fn grid_selection_has_no_duplicates() {
        let bounds = Aabb::from_size(50.0, 50.0);
        let pos = grid_positions(50.0, 4);
        let mut rng = Xoshiro256pp::seed_from(5);
        let sel = AnchorStrategy::Grid { count: 9 }.select(&pos, bounds, &mut rng);
        let mut dedup = sel.clone();
        dedup.dedup();
        assert_eq!(sel.len(), dedup.len());
        assert_eq!(sel.len(), 9);
    }

    #[test]
    fn explicit_selection_passes_ids_through() {
        let pos = grid_positions(10.0, 3);
        let mut rng = Xoshiro256pp::seed_from(6);
        let sel = AnchorStrategy::Explicit(vec![7, 2, 2, 99]).select(
            &pos,
            Aabb::from_size(10.0, 10.0),
            &mut rng,
        );
        assert_eq!(sel, vec![2, 7]); // sorted, deduped, out-of-range dropped
    }

    #[test]
    fn edge_distance_zero_on_boundary() {
        let b = Aabb::from_size(10.0, 10.0);
        assert_eq!(edge_distance(Vec2::new(0.0, 5.0), b), 0.0);
        assert_eq!(edge_distance(Vec2::new(5.0, 5.0), b), 5.0);
        assert_eq!(edge_distance(Vec2::new(9.0, 5.0), b), 1.0);
    }
}
