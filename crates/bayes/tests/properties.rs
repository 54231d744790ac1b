//! Property-based tests for the inference substrate, on the
//! in-tree `wsnloc_geom::check` harness (the workspace builds offline,
//! without `proptest`).

use std::sync::Arc;
use wsnloc_bayes::{
    BpEngine, BpOptions, GaussianRange, GaussianUnary, GridBelief, ParticleBelief, SpatialMrf,
    UniformBoxUnary,
};
use wsnloc_geom::check;
use wsnloc_geom::{Aabb, Vec2};

const CASES: u64 = 24;

#[test]
fn grid_belief_mass_is_normalized() {
    check::cases(CASES, |_, rng| {
        let nx = 2 + rng.index(18);
        let ny = 2 + rng.index(18);
        let mean = Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0));
        let sigma = rng.range(1.0, 50.0);
        let domain = Aabb::from_size(100.0, 100.0);
        let b = GridBelief::from_unary(&GaussianUnary { mean, sigma }, domain, nx, ny);
        assert!((b.mass().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(b.mass().iter().all(|&m| m >= 0.0));
        // Mean inside the domain.
        assert!(domain.contains(b.mean()));
    });
}

#[test]
fn grid_cell_roundtrip() {
    check::cases(CASES, |_, rng| {
        let nx = 1 + rng.index(29);
        let ny = 1 + rng.index(29);
        let b = GridBelief::uniform(Aabb::from_size(57.0, 31.0), nx, ny);
        let i = rng.index(nx * ny);
        assert_eq!(b.cell_of(b.cell_center(i)), i);
    });
}

#[test]
fn particle_belief_resample_preserves_support() {
    check::cases(CASES, |_, rng| {
        let n = 1 + rng.index(199);
        let pts: Vec<Vec2> = (0..n)
            .map(|_| rng.point_in(Vec2::ZERO, Vec2::splat(10.0)))
            .collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.f64() + 1e-9).collect();
        let b = ParticleBelief::new(pts.clone(), weights);
        let r = b.resampled(n, rng);
        // Every resampled particle is one of the originals.
        for p in r.particles() {
            assert!(pts.iter().any(|q| q == p));
        }
        assert!((r.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    });
}

#[test]
fn particle_ess_bounded() {
    check::cases(CASES, |_, rng| {
        let n = 2 + rng.index(98);
        let pts = vec![Vec2::ZERO; n];
        let weights: Vec<f64> = (0..n).map(|_| rng.f64() + 1e-12).collect();
        let b = ParticleBelief::new(pts, weights);
        let ess = b.effective_sample_size();
        assert!(ess >= 1.0 - 1e-9 && ess <= n as f64 + 1e-9, "ess {ess}");
    });
}

#[test]
fn bp_single_anchor_ring_distance_recovered() {
    check::cases(CASES, |_, rng| {
        // One anchor + ring measurement: the belief should concentrate at
        // the right *distance* from the anchor, whatever the bearing.
        let d = rng.range(10.0, 40.0);
        let domain = Aabb::from_size(100.0, 100.0);
        let mut mrf = SpatialMrf::new(2, domain, Arc::new(UniformBoxUnary(domain)));
        let anchor = Vec2::new(50.0, 50.0);
        mrf.fix(0, anchor);
        mrf.add_edge(
            0,
            1,
            Arc::new(GaussianRange {
                observed: d,
                sigma: 1.5,
            }),
        );
        let engine = wsnloc_bayes::ParticleBp::with_particles(200);
        let (beliefs, _) = engine.run(
            &mrf,
            &BpOptions::builder()
                .max_iterations(8)
                .tolerance(0.0)
                .seed(rng.next_u64())
                .try_build()
                .expect("valid options"),
        );
        // Weighted mean distance of particles to the anchor ≈ d.
        let mean_dist: f64 = beliefs[1]
            .particles()
            .iter()
            .zip(beliefs[1].weights())
            .map(|(p, w)| w * p.dist(anchor))
            .sum();
        assert!(
            (mean_dist - d).abs() < 6.0,
            "mean ring distance {mean_dist} vs {d}"
        );
    });
}
