//! Determinism guarantees across the whole stack: identical seeds must
//! yield bit-identical results regardless of rayon scheduling or pool size.

use wsnloc::prelude::*;
use wsnloc_eval::{evaluate, EvalConfig};

fn scenario() -> Scenario {
    Scenario {
        name: "determinism".into(),
        deployment: Deployment::planned_square_drop(500.0, 3, 50.0),
        node_count: 50,
        anchors: AnchorStrategy::Random { count: 7 },
        radio: RadioModel::UnitDisk { range: 150.0 },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
        seed: 0xDE7,
    }
}

fn algo() -> BnlLocalizer {
    BnlLocalizer::builder(Backend::particle(100).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(5)
        .tolerance(0.0)
        .try_build()
        .expect("valid config")
}

#[test]
fn network_generation_is_deterministic() {
    let s = scenario();
    let (n1, t1) = s.build_trial(3);
    let (n2, t2) = s.build_trial(3);
    assert_eq!(t1, t2);
    assert_eq!(n1.measurements(), n2.measurements());
    assert_eq!(
        n1.anchors().collect::<Vec<_>>(),
        n2.anchors().collect::<Vec<_>>()
    );
}

#[test]
fn localization_is_deterministic_across_runs() {
    let s = scenario();
    let (net, _) = s.build_trial(0);
    let a = algo().localize(&net, 42);
    let b = algo().localize(&net, 42);
    assert_eq!(a.estimates, b.estimates);
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn localization_is_deterministic_across_pool_sizes() {
    // The rayon-parallel synchronous schedule must not let thread count
    // leak into results: per-node RNG streams are split deterministically.
    let s = scenario();
    let (net, _) = s.build_trial(0);
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| algo().localize(&net, 7));
    let quad = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(|| algo().localize(&net, 7));
    assert_eq!(single.estimates, quad.estimates);
}

#[test]
fn evaluation_is_deterministic_across_pool_sizes() {
    let s = scenario();
    let run = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| evaluate(&algo(), &s, &EvalConfig::trials(3)).mean_error)
    };
    assert_eq!(run(1), run(3));
}

#[test]
fn grid_bp_is_bit_identical_across_pool_sizes() {
    // The persistent-worker rayon shim chunks by the *installed* thread
    // count, never by how many workers execute the chunks — so the
    // synchronous grid schedule (stencil cache included) must be
    // bit-identical from 1 thread to many.
    let s = scenario();
    let (net, _) = s.build_trial(1);
    let g = BnlLocalizer::builder(Backend::grid(25).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(4)
        .try_build()
        .expect("valid config");
    let run = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| g.localize(&net, 5))
    };
    let single = run(1);
    let duo = run(2);
    let quad = run(4);
    assert_eq!(single.estimates, duo.estimates);
    assert_eq!(single.estimates, quad.estimates);
    assert_eq!(single.iterations, quad.iterations);
}

#[test]
fn particle_bp_is_bit_identical_across_pool_sizes() {
    let s = scenario();
    let (net, _) = s.build_trial(2);
    let run = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| algo().localize(&net, 11))
    };
    let single = run(1);
    let duo = run(2);
    let quad = run(4);
    assert_eq!(single.estimates, duo.estimates);
    assert_eq!(single.estimates, quad.estimates);
}

#[test]
fn gaussian_bp_is_bit_identical_across_pool_sizes() {
    // The Gaussian prior init and node updates both fork at this size
    // (50 nodes, 43 free); flat and sharded runs must not let the chunking
    // reach a single bit.
    let s = scenario();
    let (net, _) = s.build_trial(3);
    let flat = BnlLocalizer::builder(Backend::Gaussian)
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(6)
        .tolerance(0.0)
        .try_build()
        .expect("valid config");
    let sharded = BnlLocalizer::builder(Backend::Gaussian)
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(6)
        .tolerance(0.0)
        .shards(ShardPlan::target_nodes(16).expect("valid shard plan"))
        .try_build()
        .expect("valid config");
    let bits = |r: &LocalizationResult| {
        let estimates: Vec<_> = r
            .estimates
            .iter()
            .map(|e| e.map(|p| (p.x.to_bits(), p.y.to_bits())))
            .collect();
        let uncertainty: Vec<_> = r.uncertainty.iter().map(|u| u.map(f64::to_bits)).collect();
        (estimates, uncertainty)
    };
    for algo in [&flat, &sharded] {
        let run = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| algo.localize(&net, 13))
        };
        assert_eq!(bits(&run(1)), bits(&run(4)), "{}", algo.name());
    }
}

#[test]
fn schedule_permutation_audit_passes_on_a_small_matrix() {
    // CI runs `repro audit-determinism --quick` ({1,2,4} threads × 3
    // seeds), and the full {1,2,4,8} × 8 sweep is the same command
    // without `--quick`; this pins a reduced matrix into tier-1 so a
    // regression in the permutation hook or an order-dependence in the
    // BP stack fails the plain test suite too.
    let outcome = wsnloc_eval::audit_determinism(&wsnloc_eval::AuditConfig {
        thread_counts: vec![1, 2],
        permutation_seeds: vec![0xA0D1_7000, 0xA0D1_8EEF],
    });
    assert!(outcome.passed(), "divergences: {:?}", outcome.failures);
}

#[test]
fn different_seeds_give_different_results() {
    let s = scenario();
    let (net, _) = s.build_trial(0);
    let a = algo().localize(&net, 1);
    let b = algo().localize(&net, 2);
    assert_ne!(a.estimates, b.estimates);
}

#[test]
fn grid_backend_is_deterministic() {
    let s = scenario();
    let (net, _) = s.build_trial(0);
    let g = BnlLocalizer::builder(Backend::grid(25).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 50.0 })
        .max_iterations(4)
        .try_build()
        .expect("valid config");
    // Grid BP has no internal randomness at all: even different seeds agree.
    let a = g.localize(&net, 1);
    let b = g.localize(&net, 2);
    assert_eq!(a.estimates, b.estimates);
}
