//! Spatial partitioning of node sets into contiguous tiles.
//!
//! Sharded BP execution needs the network cut into spatially contiguous
//! pieces: belief-propagation messages only travel one hop per
//! iteration, so the links between tiles form a thin boundary layer.
//! The bounding box is cut into a `tiles_x × tiles_y` grid and every
//! node is assigned to exactly one tile by its position (positions
//! outside the box clamp into the border tiles, the same convention as
//! [`SpatialGrid`](crate::grid::SpatialGrid)). The result is a true partition:
//! each node appears in exactly one shard's member list.
//!
//! The consumer (`wsnloc-bayes`'s sharded engine) reads only this
//! membership: it scopes faults to the links between shards.

use crate::aabb::Aabb;
use crate::vec2::Vec2;

/// One tile of a [`ShardLayout`]: the nodes it owns.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Nodes assigned to this tile, ascending. Every node of the layout
    /// appears in exactly one shard's `members`.
    pub members: Vec<usize>,
}

impl Shard {
    /// `true` iff the tile owns no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A spatial partition of a node set into rectangular tiles. See the
/// module docs for the guarantees.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    bounds: Aabb,
    tiles_x: usize,
    tiles_y: usize,
    shard_of: Vec<usize>,
    shards: Vec<Shard>,
}

impl ShardLayout {
    /// Partitions `positions` into a `tiles_x × tiles_y` tile grid over
    /// `bounds`.
    ///
    /// Tile counts must be at least 1. Empty tiles are kept (with empty
    /// member lists) so shard indices stay a pure function of geometry.
    /// `_halo_radius` is unused.
    pub fn build(
        bounds: Aabb,
        tiles_x: usize,
        tiles_y: usize,
        positions: &[Vec2],
        _halo_radius: f64,
    ) -> ShardLayout {
        assert!(tiles_x >= 1 && tiles_y >= 1, "need at least one tile");
        let n = positions.len();
        let tile_w = bounds.width() / tiles_x as f64;
        let tile_h = bounds.height() / tiles_y as f64;
        let tile_of = |p: Vec2| -> usize {
            // Degenerate bounds (zero width/height) collapse onto tile 0
            // along that axis via the clamp.
            let tx = if tile_w > 0.0 {
                (((p.x - bounds.min.x) / tile_w) as isize).clamp(0, tiles_x as isize - 1) as usize
            } else {
                0
            };
            let ty = if tile_h > 0.0 {
                (((p.y - bounds.min.y) / tile_h) as isize).clamp(0, tiles_y as isize - 1) as usize
            } else {
                0
            };
            ty * tiles_x + tx
        };
        let mut shards = vec![Shard::default(); tiles_x * tiles_y];
        let mut shard_of = Vec::with_capacity(n);
        for (u, &p) in positions.iter().enumerate() {
            let s = tile_of(p);
            shard_of.push(s);
            shards[s].members.push(u);
        }
        ShardLayout {
            bounds,
            tiles_x,
            tiles_y,
            shard_of,
            shards,
        }
    }

    /// Square tile counts sized so shards hold roughly
    /// `target_shard_nodes` nodes each under a uniform deployment:
    /// `ceil(sqrt(ceil(n / target)))` tiles per axis, at least 1.
    #[must_use]
    pub fn tiles_for_target(node_count: usize, target_shard_nodes: usize) -> (usize, usize) {
        let target = target_shard_nodes.max(1);
        let shards = node_count.div_ceil(target).max(1);
        let per_axis = (shards as f64).sqrt().ceil().max(1.0) as usize;
        (per_axis, per_axis)
    }

    /// The partitioned bounding box.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Tile counts along x and y.
    #[must_use]
    pub fn tiles(&self) -> (usize, usize) {
        (self.tiles_x, self.tiles_y)
    }

    /// Number of tiles (including empty ones).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of partitioned nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shard_of.len()
    }

    /// `true` iff no nodes were partitioned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shard_of.is_empty()
    }

    /// All tiles, indexed by `tile_y * tiles_x + tile_x`.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The tile owning node `u`.
    #[must_use]
    pub fn shard_of(&self, u: usize) -> usize {
        self.shard_of[u]
    }

    /// Number of tiles that own at least one node.
    #[must_use]
    pub fn occupied_shards(&self) -> usize {
        self.shards.iter().filter(|s| !s.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    fn random_layout(rng: &mut crate::rng::Xoshiro256pp) -> (Vec<Vec2>, usize, usize, ShardLayout) {
        let side = rng.range(50.0, 400.0);
        let bounds = Aabb::from_size(side, side);
        let n = 20 + rng.index(300);
        let positions: Vec<Vec2> = (0..n)
            .map(|_| rng.point_in(bounds.min, bounds.max))
            .collect();
        let tiles_x = 1 + rng.index(5);
        let tiles_y = 1 + rng.index(5);
        let radius = rng.range(side / 20.0, side / 3.0);
        let layout = ShardLayout::build(bounds, tiles_x, tiles_y, &positions, radius);
        (positions, tiles_x, tiles_y, layout)
    }

    #[test]
    fn partition_is_true_partition() {
        // Every node lands in exactly one shard's member list, and that
        // shard is the one `shard_of` reports.
        check::cases(40, |_case, rng| {
            let (positions, tiles_x, tiles_y, layout) = random_layout(rng);
            assert_eq!(layout.shard_count(), tiles_x * tiles_y);
            assert_eq!(layout.len(), positions.len());
            let mut seen = vec![0usize; positions.len()];
            for (s, shard) in layout.shards().iter().enumerate() {
                for &u in &shard.members {
                    seen[u] += 1;
                    assert_eq!(layout.shard_of(u), s);
                }
                // Members ascending.
                assert!(shard.members.windows(2).all(|w| w[0] < w[1]));
            }
            assert!(seen.iter().all(|&c| c == 1), "node in != 1 shard");
        });
    }

    #[test]
    fn single_tile_owns_everything_with_empty_halo() {
        let bounds = Aabb::from_size(100.0, 100.0);
        let positions: Vec<Vec2> = (0..25)
            .map(|i| Vec2::new(4.0 * i as f64, 96.0 - 3.0 * i as f64))
            .collect();
        let layout = ShardLayout::build(bounds, 1, 1, &positions, 30.0);
        assert_eq!(layout.shard_count(), 1);
        assert_eq!(layout.occupied_shards(), 1);
        assert_eq!(layout.shards()[0].members, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_bounds_positions_clamp_into_border_tiles() {
        let bounds = Aabb::from_size(10.0, 10.0);
        let positions = vec![Vec2::new(-5.0, -5.0), Vec2::new(15.0, 15.0)];
        let layout = ShardLayout::build(bounds, 2, 2, &positions, 1.0);
        assert_eq!(layout.shard_of(0), 0);
        assert_eq!(layout.shard_of(1), 3);
    }

    #[test]
    fn tiles_for_target_scales_with_node_count() {
        assert_eq!(ShardLayout::tiles_for_target(100, 1000), (1, 1));
        assert_eq!(ShardLayout::tiles_for_target(1000, 1000), (1, 1));
        assert_eq!(ShardLayout::tiles_for_target(4000, 1000), (2, 2));
        assert_eq!(ShardLayout::tiles_for_target(1_000_000, 40_000), (5, 5));
        // Degenerate inputs stay usable.
        assert_eq!(ShardLayout::tiles_for_target(0, 1000), (1, 1));
        assert_eq!(ShardLayout::tiles_for_target(10, 0), (4, 4));
    }

    #[test]
    fn empty_position_set_builds() {
        let layout = ShardLayout::build(Aabb::from_size(1.0, 1.0), 3, 3, &[], 0.5);
        assert!(layout.is_empty());
        assert_eq!(layout.shard_count(), 9);
        assert_eq!(layout.occupied_shards(), 0);
    }
}
