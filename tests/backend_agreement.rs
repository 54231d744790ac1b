//! The grid (discrete Bayesian network) and particle (nonparametric)
//! backends approximate the same posterior — on easy, well-anchored
//! networks their estimates must agree to within discretization error.

use wsnloc::prelude::*;

fn easy_scenario() -> Scenario {
    Scenario {
        name: "backend-agreement".into(),
        deployment: Deployment::planned_square_drop(400.0, 3, 35.0),
        node_count: 45,
        anchors: AnchorStrategy::Grid { count: 9 },
        radio: RadioModel::UnitDisk { range: 140.0 },
        ranging: RangingModel::Multiplicative { factor: 0.05 },
        seed: 0xA96,
    }
}

#[test]
fn backends_agree_on_easy_network() {
    let s = easy_scenario();
    let (net, truth) = s.build_trial(0);
    let particle = BnlLocalizer::builder(Backend::particle(250).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 35.0 })
        .max_iterations(8)
        .tolerance(1.0)
        .try_build()
        .expect("valid config")
        .localize(&net, 0);
    let grid = BnlLocalizer::builder(Backend::grid(40).expect("valid backend"))
        .prior(PriorModel::DropPoint { sigma: 35.0 })
        .max_iterations(8)
        .tolerance(1.0)
        .try_build()
        .expect("valid config")
        .localize(&net, 0);

    let cell = 400.0 / 40.0; // 10 m cells
    let mut disagreements = 0;
    let mut count = 0;
    for u in net.unknowns() {
        let p = particle.estimates[u].expect("particle always estimates");
        let g = grid.estimates[u].expect("grid always estimates");
        count += 1;
        // Agreement within a few cells; count outliers rather than failing
        // on a single multi-modal node.
        if p.dist(g) > 4.0 * cell {
            disagreements += 1;
        }
        // Both should also be near the truth on this easy network.
        assert!(
            p.dist(truth.position(u)) < 120.0,
            "particle estimate wild at node {u}"
        );
        assert!(
            g.dist(truth.position(u)) < 120.0,
            "grid estimate wild at node {u}"
        );
    }
    assert!(
        disagreements * 5 <= count,
        "{disagreements}/{count} nodes disagree beyond 4 cells"
    );
}

#[test]
fn both_backends_beat_the_prior_alone() {
    let s = easy_scenario();
    let (net, truth) = s.build_trial(1);
    let prior_alone: f64 = net
        .unknowns()
        .map(|u| net.planned_position(u).unwrap().dist(truth.position(u)))
        .sum::<f64>()
        / net.unknowns().count() as f64;
    for result in [
        BnlLocalizer::builder(Backend::particle(200).expect("valid backend"))
            .prior(PriorModel::DropPoint { sigma: 35.0 })
            .max_iterations(6)
            .try_build()
            .expect("valid config")
            .localize(&net, 0),
        BnlLocalizer::builder(Backend::grid(40).expect("valid backend"))
            .prior(PriorModel::DropPoint { sigma: 35.0 })
            .max_iterations(6)
            .try_build()
            .expect("valid config")
            .localize(&net, 0),
    ] {
        let errs: Vec<f64> = result
            .errors_for(&truth, Some(&net))
            .into_iter()
            .flatten()
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            mean < prior_alone,
            "posterior mean error {mean:.1} should beat prior-alone {prior_alone:.1}"
        );
    }
}
