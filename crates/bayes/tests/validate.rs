//! Validator coverage: every backend's posterior must pass
//! [`DistributionAudit`], and corrupted inputs must be rejected with the
//! right [`ValidationError`] variant.

use std::sync::Arc;
use wsnloc_bayes::{
    BpEngine, BpOptions, DistributionAudit, GaussianBp, GaussianRange, GraphAudit, GridBp,
    ParticleBp, SpatialMrf, UniformBoxUnary, ValidationError,
};
use wsnloc_geom::check;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, Vec2};

const CASES: u64 = 16;

/// A random anchored MRF: 2 fixed anchors plus free nodes with noisy
/// ring measurements to each anchor.
fn random_mrf(rng: &mut Xoshiro256pp) -> SpatialMrf {
    let domain = Aabb::from_size(100.0, 100.0);
    let n = 3 + rng.index(4);
    let mut mrf = SpatialMrf::new(n, domain, Arc::new(UniformBoxUnary(domain)));
    let anchors = [
        Vec2::new(rng.range(5.0, 45.0), rng.range(5.0, 95.0)),
        Vec2::new(rng.range(55.0, 95.0), rng.range(5.0, 95.0)),
    ];
    mrf.fix(0, anchors[0]);
    mrf.fix(1, anchors[1]);
    for u in 2..n {
        let truth = Vec2::new(rng.range(10.0, 90.0), rng.range(10.0, 90.0));
        for (a, &p) in anchors.iter().enumerate() {
            mrf.add_edge(
                a,
                u,
                Arc::new(GaussianRange {
                    observed: (truth.dist(p) + rng.gaussian()).max(0.5),
                    sigma: 2.0,
                }),
            );
        }
    }
    mrf
}

fn options(rng: &mut Xoshiro256pp) -> BpOptions {
    BpOptions::builder()
        .max_iterations(4)
        .tolerance(0.0)
        .seed(rng.next_u64())
        .try_build()
        .expect("valid options")
}

#[test]
fn grid_posteriors_pass_distribution_audit() {
    check::cases(CASES, |_, rng| {
        let mrf = random_mrf(rng);
        let (beliefs, _) = GridBp::with_resolution(20).run(&mrf, &options(rng));
        let audit = DistributionAudit::default();
        for (u, b) in beliefs.iter().enumerate() {
            audit
                .check_grid(&format!("grid belief[{u}]"), b)
                .expect("grid posterior must be a valid distribution");
        }
    });
}

#[test]
fn particle_posteriors_pass_distribution_audit() {
    check::cases(CASES, |_, rng| {
        let mrf = random_mrf(rng);
        let (beliefs, _) = ParticleBp::with_particles(80).run(&mrf, &options(rng));
        let audit = DistributionAudit::default();
        for (u, b) in beliefs.iter().enumerate() {
            audit
                .check_particles(&format!("particle belief[{u}]"), b)
                .expect("particle posterior must be a valid distribution");
        }
    });
}

#[test]
fn gaussian_posteriors_pass_distribution_audit() {
    check::cases(CASES, |_, rng| {
        let mrf = random_mrf(rng);
        let (beliefs, _) = GaussianBp.run(&mrf, &options(rng));
        let audit = DistributionAudit::default();
        for (u, b) in beliefs.iter().enumerate() {
            audit
                .check_gaussian(&format!("gaussian belief[{u}]"), b)
                .expect("gaussian posterior must have valid moments");
        }
    });
}

#[test]
fn nan_range_rejected() {
    let domain = Aabb::from_size(10.0, 10.0);
    let mut mrf = SpatialMrf::new(2, domain, Arc::new(UniformBoxUnary(domain)));
    mrf.fix(0, Vec2::new(1.0, 1.0));
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
fn negative_variance_rejected() {
    let domain = Aabb::from_size(10.0, 10.0);
    let mut mrf = SpatialMrf::new(2, domain, Arc::new(UniformBoxUnary(domain)));
    mrf.add_edge(
        0,
        1,
        Arc::new(GaussianRange {
            observed: 3.0,
            sigma: 0.0,
        }),
    );
    assert!(matches!(
        GraphAudit.check_mrf(&mrf),
        Err(ValidationError::NonPositiveSigma { factor: 0, .. })
    ));
}

#[test]
fn anchorless_graph_rejected_when_anchors_required() {
    let domain = Aabb::from_size(10.0, 10.0);
    let mrf = SpatialMrf::new(3, domain, Arc::new(UniformBoxUnary(domain)));
    assert_eq!(
        GraphAudit.check_anchored_mrf(&mrf),
        Err(ValidationError::NoAnchors)
    );
}

#[test]
fn nan_weight_rejected_by_distribution_audit() {
    let audit = DistributionAudit::default();
    let masses = [0.5, f64::NAN, 0.5];
    match audit.check_masses("weights", &masses) {
        Err(ValidationError::NonFinite { index, .. }) => assert_eq!(index, 1),
        other => unreachable!("expected NonFinite, got {other:?}"),
    }
}
