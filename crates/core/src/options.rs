//! Typed, construction-validated option bundles for the localizer.
//!
//! Every knob that used to ride on `BnlLocalizer` as a loose setter now
//! lives in a typed bundle that is *impossible to construct invalid*:
//! [`ParticleOptions`]/[`GridOptions`] parameterize their
//! [`Backend`](crate::localizer::Backend) variants, and [`ShardPlan`]
//! opts a localizer into sharded BP execution. Constructors return
//! [`ValidationError`] at the point of construction — a bad particle
//! count or shard size fails where it is written, not iterations later
//! inside `try_build` (or worse, inside a run).

use wsnloc_bayes::ValidationError;

/// Options for the nonparametric (particle) backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParticleOptions {
    pub(crate) particles: usize,
}

impl ParticleOptions {
    /// `particles` per unknown node; must be at least 1.
    pub fn new(particles: usize) -> Result<Self, ValidationError> {
        if particles == 0 {
            return Err(ValidationError::InvalidOption {
                option: "particles",
                value: 0.0,
                requirement: "must be at least 1 particle per node",
            });
        }
        Ok(ParticleOptions { particles })
    }

    /// Particles per unknown node.
    #[must_use]
    pub fn particles(&self) -> usize {
        self.particles
    }
}

/// Options for the grid (discrete Bayesian-network) backend: its
/// resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridOptions {
    pub(crate) resolution: usize,
}

impl GridOptions {
    /// `resolution` cells along each axis of the field bounding box;
    /// must be at least 2.
    pub fn new(resolution: usize) -> Result<Self, ValidationError> {
        if resolution < 2 {
            return Err(ValidationError::InvalidOption {
                option: "resolution",
                value: resolution as f64,
                requirement: "must be at least 2 cells per side",
            });
        }
        Ok(GridOptions { resolution })
    }

    /// Cells along each axis.
    #[must_use]
    pub fn resolution(&self) -> usize {
        self.resolution
    }
}

/// Opt-in sharded BP execution: the deployment is cut into spatial
/// tiles (`wsnloc-geom`'s [`ShardLayout`](wsnloc_geom::ShardLayout)),
/// and BP runs over the whole model with the fault plan confined to
/// links between tiles; every iteration reports each tile's boundary
/// traffic. On a fault-free plan the estimates equal flat execution's
/// bit for bit. Meant for deployments from the tens of thousands of
/// nodes up; on a layout that resolves to a single tile the localizer
/// runs the flat engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPlan {
    pub(crate) target_shard_nodes: usize,
}

impl ShardPlan {
    /// Shards sized to roughly `target_shard_nodes` nodes each (at
    /// least 1); the tile grid is derived per network via
    /// [`ShardLayout::tiles_for_target`](wsnloc_geom::ShardLayout::tiles_for_target).
    pub fn target_nodes(target_shard_nodes: usize) -> Result<Self, ValidationError> {
        if target_shard_nodes == 0 {
            return Err(ValidationError::InvalidOption {
                option: "target_shard_nodes",
                value: 0.0,
                requirement: "must be at least 1 node per shard",
            });
        }
        Ok(ShardPlan { target_shard_nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_options_validate_at_construction() {
        assert!(ParticleOptions::new(0).is_err());
        assert_eq!(ParticleOptions::new(300).expect("valid").particles(), 300);
    }

    #[test]
    fn grid_options_validate_at_construction() {
        assert!(GridOptions::new(0).is_err());
        assert!(GridOptions::new(1).is_err());
        let g = GridOptions::new(25).expect("valid");
        assert_eq!(g.resolution(), 25);
    }

    #[test]
    fn shard_plan_validates_at_construction() {
        assert!(ShardPlan::target_nodes(0).is_err());
        let plan = ShardPlan::target_nodes(5000).expect("valid");
        assert_eq!(plan.target_shard_nodes, 5000);
    }
}
