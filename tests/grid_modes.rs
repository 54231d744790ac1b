//! Accuracy contracts of the grid backend's opt-in coarse-to-fine
//! resolution schedule: it must track the default dense run on a
//! realistic localization scenario (the F4 convergence-experiment
//! shape), and its switch must exist only on the grid backend, behind a
//! validated resolution.

use wsnloc::prelude::*;

fn f4_style_scenario() -> Scenario {
    Scenario {
        name: "grid-modes".into(),
        deployment: Deployment::planned_square_drop(400.0, 3, 35.0),
        node_count: 45,
        anchors: AnchorStrategy::Grid { count: 9 },
        radio: RadioModel::UnitDisk { range: 140.0 },
        ranging: RangingModel::Multiplicative { factor: 0.05 },
        seed: 0xF4,
    }
}

fn grid_opts(resolution: usize) -> GridOptions {
    GridOptions::new(resolution).expect("valid grid resolution")
}

fn grid_builder_with(opts: GridOptions) -> BnlLocalizerBuilder {
    BnlLocalizer::builder(Backend::Grid(opts))
        .prior(PriorModel::DropPoint { sigma: 35.0 })
        .max_iterations(8)
        .tolerance(1.0)
}

fn grid_builder(resolution: usize) -> BnlLocalizerBuilder {
    grid_builder_with(grid_opts(resolution))
}

fn rmse(result: &LocalizationResult, truth: &GroundTruth, net: &Network) -> f64 {
    let errs: Vec<f64> = result
        .errors_for(truth, Some(net))
        .into_iter()
        .flatten()
        .collect();
    (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt()
}

/// The coarse-to-fine schedule trades a cheap low-resolution pre-solve
/// for full-resolution iterations; its final accuracy must stay within
/// a cell of the flat dense run.
#[test]
fn coarse_to_fine_rmse_stays_within_a_cell_of_dense() {
    let (net, truth) = f4_style_scenario().build_trial(1);
    let dense = grid_builder(40)
        .try_build()
        .expect("valid dense configuration")
        .localize(&net, 0);
    let refined = grid_builder_with(grid_opts(40).refine())
        .try_build()
        .expect("valid refined configuration")
        .localize(&net, 0);
    let (rd, rr) = (rmse(&dense, &truth, &net), rmse(&refined, &truth, &net));
    let cell = 400.0 / 40.0;
    assert!(
        (rd - rr).abs() < cell,
        "refined RMSE {rr:.3} vs dense RMSE {rd:.3} (cell {cell})"
    );
}

/// The switch is grid-only *by type* — it lives on [`GridOptions`], so
/// attaching it to another backend does not even compile — and the
/// resolution it refines is validated where the options are constructed.
#[test]
fn mode_knobs_are_validated_at_construction_time() {
    // Degenerate resolutions are rejected before a backend exists.
    assert!(Backend::grid(0).is_err());
    assert!(Backend::grid(1).is_err());
    // The default dense configuration stays valid.
    assert!(grid_builder(40).try_build().is_ok());
}
