//! Pinned perf benchmarks behind `repro bench`.
//!
//! These run fixed scenarios and emit compact JSON (`BENCH_grid.json`,
//! `BENCH_particle.json`, `BENCH_stream.json`) meant to be committed
//! alongside the code, so
//! the perf trajectory of the message-passing hot path is visible in
//! review diffs.

use std::sync::Arc;
use wsnloc_bayes::{
    BpEngine, BpOptions, GaussianBp, GaussianRange, GridBp, ParticleBp, ShardedEngine, SpatialMrf,
    UniformBoxUnary,
};
use wsnloc_geom::grid::SpatialGrid;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_geom::{Aabb, ShardLayout, Vec2};
use wsnloc_obs::{parse_json, JsonValue, Stopwatch};

/// Grid resolution of the pinned grid scenario (the workspace default).
pub const GRID_RESOLUTION: usize = 30;
/// Iteration cap of the pinned grid scenario.
pub const GRID_ITERATIONS: usize = 3;

/// Median wall seconds over `samples` executions of `f`.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples.max(1)).map(|_| secs(&mut f)).collect();
    median(times)
}

/// Medians of `samples` timed runs each of `a` and `b`, interleaved
/// (`a b`, `b a`, `a b`, …) so drift in machine load lands on both.
fn median_pair_secs(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for i in 0..samples.max(1) {
        if i % 2 == 0 {
            ta.push(secs(&mut a));
            tb.push(secs(&mut b));
        } else {
            tb.push(secs(&mut b));
            ta.push(secs(&mut a));
        }
    }
    (median(ta), median(tb))
}

fn secs(f: &mut impl FnMut()) -> f64 {
    let start = Stopwatch::start();
    f();
    start.elapsed_secs()
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The pinned grid scenario: a 3×3 lattice (two opposite corners
/// anchored) on a 300×300 m field, ranging edges between lattice
/// neighbors, with a multi-iteration cap.
fn grid_fixture() -> (SpatialMrf, BpOptions) {
    let domain = Aabb::from_size(300.0, 300.0);
    let mut mrf = SpatialMrf::new(9, domain, Arc::new(UniformBoxUnary(domain)));
    let pts: Vec<Vec2> = (0..9)
        .map(|i| Vec2::new(50.0 + 100.0 * (i % 3) as f64, 50.0 + 100.0 * (i / 3) as f64))
        .collect();
    mrf.fix(0, pts[0]);
    mrf.fix(8, pts[8]);
    for i in 0..9 {
        for j in (i + 1)..9 {
            if pts[i].dist(pts[j]) < 150.0 {
                mrf.add_edge(
                    i,
                    j,
                    Arc::new(GaussianRange {
                        observed: pts[i].dist(pts[j]),
                        sigma: 5.0,
                    }),
                );
            }
        }
    }
    let opts = BpOptions::builder()
        .max_iterations(GRID_ITERATIONS)
        .tolerance(0.0)
        .try_build()
        .expect("pinned grid options are valid");
    (mrf, opts)
}

/// The pinned particle/Gaussian scenario: 25 random nodes (3 anchored)
/// on a 300×300 m field with 120 m ranging radius.
fn cooperative_fixture() -> (SpatialMrf, BpOptions) {
    let domain = Aabb::from_size(300.0, 300.0);
    let mut mrf = SpatialMrf::new(25, domain, Arc::new(UniformBoxUnary(domain)));
    let mut rng = Xoshiro256pp::seed_from(9);
    let pts: Vec<Vec2> = (0..25)
        .map(|_| rng.point_in(domain.min, domain.max))
        .collect();
    for (i, &p) in pts.iter().enumerate().take(3) {
        mrf.fix(i, p);
    }
    for i in 0..25 {
        for j in (i + 1)..25 {
            if pts[i].dist(pts[j]) < 120.0 {
                mrf.add_edge(
                    i,
                    j,
                    Arc::new(GaussianRange {
                        observed: pts[i].dist(pts[j]),
                        sigma: 5.0,
                    }),
                );
            }
        }
    }
    let opts = BpOptions::builder()
        .max_iterations(1)
        .tolerance(0.0)
        .try_build()
        .expect("pinned cooperative options are valid");
    (mrf, opts)
}

/// Runs the grid message-passing bench and returns the
/// `BENCH_grid.json` contents.
pub fn grid_bench_json(samples: usize) -> String {
    let (mrf, opts) = grid_fixture();
    let engine = GridBp::with_resolution(GRID_RESOLUTION);
    let (_, outcome) = engine.run(&mrf, &opts);
    let secs = median_secs(samples, || {
        engine.run(&mrf, &opts);
    });
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"grid_message_passing\",\n",
            "  \"scenario\": \"lattice_9nodes_300x300\",\n",
            "  \"resolution\": {resolution},\n",
            "  \"samples\": {samples},\n",
            "  \"iterations\": {iterations},\n",
            "  \"messages\": {messages},\n",
            "  \"secs\": {secs:.6}\n",
            "}}\n"
        ),
        resolution = GRID_RESOLUTION,
        samples = samples.max(1),
        iterations = outcome.iterations,
        messages = outcome.messages,
        secs = secs,
    )
}

/// Gaussian solves timed per sample of the particle lane. One solve of
/// the pinned scenario takes tens of microseconds, too short to time
/// alone against timer resolution and one-off interruptions.
const GAUSSIAN_BATCH: usize = 500;

/// Runs the particle and Gaussian benches on the pinned cooperative
/// scenario and returns the `BENCH_particle.json` contents. The
/// Gaussian `secs` is the median over samples of a batch of
/// `solves_per_sample` solves, divided by the batch size.
pub fn particle_bench_json(samples: usize) -> String {
    let (mrf, opts) = cooperative_fixture();
    let particle_engine = ParticleBp::with_particles(100);
    let (_, particle_outcome) = particle_engine.run(&mrf, &opts);
    let particle_secs = median_secs(samples, || {
        particle_engine.run(&mrf, &opts);
    });
    let gaussian_engine = GaussianBp;
    let (_, gaussian_outcome) = gaussian_engine.run(&mrf, &opts);
    let gaussian_secs = median_secs(samples, || {
        for _ in 0..GAUSSIAN_BATCH {
            gaussian_engine.run(&mrf, &opts);
        }
    }) / GAUSSIAN_BATCH as f64;
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"particle_and_gaussian_bp\",\n",
            "  \"scenario\": \"cooperative_25nodes_300x300\",\n",
            "  \"samples\": {samples},\n",
            "  \"particle\": {{\n",
            "    \"particles\": 100,\n",
            "    \"iterations\": {p_iters},\n",
            "    \"messages\": {p_msgs},\n",
            "    \"secs\": {p_secs:.6}\n",
            "  }},\n",
            "  \"gaussian\": {{\n",
            "    \"iterations\": {g_iters},\n",
            "    \"messages\": {g_msgs},\n",
            "    \"solves_per_sample\": {batch},\n",
            "    \"secs\": {g_secs:.6}\n",
            "  }}\n",
            "}}\n"
        ),
        samples = samples.max(1),
        p_iters = particle_outcome.iterations,
        p_msgs = particle_outcome.messages,
        p_secs = particle_secs,
        g_iters = gaussian_outcome.iterations,
        g_msgs = gaussian_outcome.messages,
        batch = GAUSSIAN_BATCH,
        g_secs = gaussian_secs,
    )
}

/// Resolutions of the pinned scale sweep (`repro bench --scale`).
pub const SCALE_RESOLUTIONS: [usize; 4] = [15, 30, 60, 120];

/// Node counts of the sharded deployment sweep. The full sweep
/// (`BENCH_scale.json`) runs every entry; `--quick`
/// (`BENCH_scale_quick.json`, the CI lane) drops the million-node row.
pub const SHARD_SCALE_NODES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
/// Ranging radius of the sharded sweep deployments (meters).
pub const SHARD_SCALE_RADIUS: f64 = 30.0;
/// Expected neighbors per node: the field side is sized so density stays
/// constant across node counts and the sweep isolates pure scale.
pub const SHARD_SCALE_DEGREE: f64 = 5.0;
/// Target nodes per shard handed to [`ShardLayout::tiles_for_target`].
pub const SHARD_SCALE_TARGET: usize = 500;
/// BP iteration budget of the sharded sweep, flat and sharded alike.
pub const SHARD_SCALE_ITERATIONS: usize = 2;

/// A uniform random deployment at constant density with 2.5% anchors and
/// radius-limited range edges built through the spatial hash, plus the
/// shard layout the sharded engine executes over.
fn sharded_fixture(nodes: usize) -> (SpatialMrf, Arc<ShardLayout>) {
    let density = SHARD_SCALE_DEGREE / (std::f64::consts::PI * SHARD_SCALE_RADIUS.powi(2));
    let side = (nodes as f64 / density).sqrt();
    let domain = Aabb::from_size(side, side);
    let mut rng = Xoshiro256pp::seed_from(0x5CA1E ^ nodes as u64);
    let pts: Vec<Vec2> = (0..nodes)
        .map(|_| rng.point_in(domain.min, domain.max))
        .collect();
    let mut mrf = SpatialMrf::new(nodes, domain, Arc::new(UniformBoxUnary(domain)));
    for u in (0..nodes).step_by(40) {
        mrf.fix(u, pts[u]);
    }
    let grid = SpatialGrid::build(domain, SHARD_SCALE_RADIUS, &pts);
    for u in 0..nodes {
        for v in grid.within(pts[u], SHARD_SCALE_RADIUS) {
            if v > u {
                mrf.add_edge(
                    u,
                    v,
                    Arc::new(GaussianRange {
                        observed: pts[u].dist(pts[v]),
                        sigma: 5.0,
                    }),
                );
            }
        }
    }
    let (tiles_x, tiles_y) = ShardLayout::tiles_for_target(nodes, SHARD_SCALE_TARGET);
    let layout = Arc::new(ShardLayout::build(
        domain,
        tiles_x,
        tiles_y,
        &pts,
        SHARD_SCALE_RADIUS,
    ));
    (mrf, layout)
}

/// Runs the scale sweeps and returns the `BENCH_scale.json` (or, with
/// `quick`, `BENCH_scale_quick.json`) contents.
///
/// Two sections share the file. `grid` times one iteration at each
/// pinned resolution, so the sweep exposes how the scatter cost grows
/// with cell count. `sharded` runs constant-density uniform deployments
/// from 1k nodes up (to 1M in full mode) through the Gaussian backend
/// twice — the flat engine and [`ShardedEngine`] over a [`ShardLayout`],
/// their samples interleaved — so the pinned rows track both the flat
/// baseline and the cost of sharded execution's boundary accounting on
/// networks far beyond the experiment suite. Graph
/// shape fields (`edges`, `anchors`, `shards`) are exact-match pinned:
/// they regress only if deployment construction loses determinism.
pub fn scale_bench_json(samples: usize, quick: bool) -> String {
    let node_counts: &[usize] = if quick {
        &SHARD_SCALE_NODES[..SHARD_SCALE_NODES.len() - 1]
    } else {
        &SHARD_SCALE_NODES
    };
    scale_bench_json_for(samples, node_counts, if quick { "quick" } else { "full" })
}

/// [`scale_bench_json`] with the deployment list held open so the unit
/// suite can exercise the JSON shape without building 100k+ networks.
fn scale_bench_json_for(samples: usize, node_counts: &[usize], mode: &str) -> String {
    let (mrf, _) = grid_fixture();
    let opts = BpOptions::builder()
        .max_iterations(1)
        .tolerance(0.0)
        .try_build()
        .expect("pinned scale options are valid");
    let mut grid_rows = String::new();
    for (i, &resolution) in SCALE_RESOLUTIONS.iter().enumerate() {
        let engine = GridBp::with_resolution(resolution);
        let dense_secs = median_secs(samples, || {
            engine.run(&mrf, &opts);
        });
        let comma = if i + 1 < SCALE_RESOLUTIONS.len() {
            ","
        } else {
            ""
        };
        grid_rows.push_str(&format!(
            "      {{ \"resolution\": {resolution}, \"dense_secs\": {dense_secs:.6} }}{comma}\n",
        ));
    }

    let shard_opts = BpOptions::builder()
        .max_iterations(SHARD_SCALE_ITERATIONS)
        .tolerance(0.0)
        .try_build()
        .expect("pinned sharded options are valid");
    let mut shard_rows = String::new();
    for (i, &nodes) in node_counts.iter().enumerate() {
        let (mrf, layout) = sharded_fixture(nodes);
        let flat = GaussianBp;
        let sharded = ShardedEngine::new(GaussianBp, Arc::clone(&layout));
        let (flat_secs, sharded_secs) = median_pair_secs(
            samples,
            || {
                flat.run(&mrf, &shard_opts);
            },
            || {
                sharded.run(&mrf, &shard_opts);
            },
        );
        let comma = if i + 1 < node_counts.len() { "," } else { "" };
        shard_rows.push_str(&format!(
            "      {{ \"nodes\": {nodes}, \"edges\": {edges}, \"anchors\": {anchors}, \"shards\": {shards}, \"flat_secs\": {flat_secs:.6}, \"sharded_secs\": {sharded_secs:.6} }}{comma}\n",
            edges = mrf.edges().len(),
            anchors = nodes.div_ceil(40),
            shards = layout.occupied_shards(),
        ));
    }

    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scale_sweep\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"samples\": {samples},\n",
            "  \"grid\": {{\n",
            "    \"scenario\": \"lattice_9nodes_300x300\",\n",
            "    \"iterations\": 1,\n",
            "    \"resolutions\": [\n",
            "{grid_rows}",
            "    ]\n",
            "  }},\n",
            "  \"sharded\": {{\n",
            "    \"scenario\": \"uniform_drop_degree5_radius30\",\n",
            "    \"backend\": \"sharded-gaussian\",\n",
            "    \"iterations\": {shard_iters},\n",
            "    \"target_shard_nodes\": {target},\n",
            "    \"deployments\": [\n",
            "{shard_rows}",
            "    ]\n",
            "  }}\n",
            "}}\n"
        ),
        mode = mode,
        samples = samples.max(1),
        grid_rows = grid_rows,
        shard_iters = SHARD_SCALE_ITERATIONS,
        target = SHARD_SCALE_TARGET,
        shard_rows = shard_rows,
    )
}

/// Tenant count of the pinned streaming scenario.
pub const STREAM_TENANTS: usize = 64;
/// Per-epoch BP iteration budget of the pinned streaming scenario.
pub const STREAM_ITERATIONS: usize = 2;
/// Ticks of the deterministic overload phase (capacity = half the
/// tenants), whose admitted/shed epoch counts are pinned exactly.
pub const OVERLOAD_TICKS: usize = 4;

/// Runs the streaming-engine bench and returns the `BENCH_stream.json`
/// contents: one engine hosting 64 tenant sessions (30-node networks,
/// particle backend, 2-iteration budget with belief carry-over), timed
/// over whole warm ticks — every tenant advancing one epoch — so the
/// pinned `epoch_secs` is the end-to-end cost of one tenant-epoch
/// including scheduling, belief predict, and the parallel BP batch.
pub fn stream_bench_json(samples: usize) -> String {
    use wsnloc_net::network::NetworkBuilder;
    use wsnloc_net::{AnchorStrategy, Deployment, Network, RadioModel, RangingModel};
    use wsnloc_serve::{EngineConfig, MeasurementEpoch, SessionConfig, StreamingEngine};

    const NODES: usize = 30;
    const PARTICLES: usize = 50;
    let networks: Vec<Network> = (0..STREAM_TENANTS as u64)
        .map(|t| {
            NetworkBuilder {
                deployment: Deployment::planned_square_drop(400.0, 3, 40.0),
                node_count: NODES,
                anchors: AnchorStrategy::Random { count: 5 },
                radio: RadioModel::UnitDisk { range: 150.0 },
                ranging: RangingModel::Multiplicative { factor: 0.1 },
            }
            .build(0xBE9C ^ t)
            .0
        })
        .collect();
    let localizer =
        wsnloc::BnlLocalizer::builder(wsnloc::Backend::particle(PARTICLES).expect("valid backend"))
            .max_iterations(STREAM_ITERATIONS)
            .tolerance(0.0)
            .try_build()
            .expect("valid config");
    let session_cfg =
        SessionConfig::new(localizer).with_motion(wsnloc_bayes::MotionModel::random_walk(2.0));
    let mut engine = StreamingEngine::new(EngineConfig::default());
    let ids: Vec<_> = (0..STREAM_TENANTS)
        .map(|_| engine.open_session(session_cfg.clone()))
        .collect();
    // Warm every session first so the timed ticks measure the
    // carried-belief steady state, not the cold start.
    for (u, id) in ids.iter().enumerate() {
        engine.submit(*id, MeasurementEpoch::new(networks[u].clone(), 0));
    }
    let warmed = engine.tick().len();
    // Per-sample tick latencies (not just the median) so the pinned
    // file also carries the slowest tick: with so few samples a p99
    // would just be their maximum.
    let mut epoch_seed = 1u64;
    let mut tick_samples: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            for (u, id) in ids.iter().enumerate() {
                engine.submit(*id, MeasurementEpoch::new(networks[u].clone(), epoch_seed));
            }
            epoch_seed += 1;
            let start = Stopwatch::start();
            engine.tick();
            start.elapsed_secs()
        })
        .collect();
    tick_samples.sort_by(f64::total_cmp);
    let tick_secs = tick_samples[tick_samples.len() / 2];
    let max_tick_secs = tick_samples[tick_samples.len() - 1];
    let epoch_secs = tick_secs / STREAM_TENANTS as f64;

    // Overload phase: a second engine admits only half the tenants per
    // tick. Admission is deterministic round-robin, so the pinned
    // admitted/shed counts are exact-match fields for `bench --check` —
    // a scheduler change that alters shedding shape fails the gate.
    let mut overloaded = StreamingEngine::new(EngineConfig {
        capacity_per_tick: STREAM_TENANTS / 2,
        shed_policy: wsnloc_net::DropPolicy::DecayToPrior { decay: 0.5 },
    });
    let over_ids: Vec<_> = (0..STREAM_TENANTS)
        .map(|_| overloaded.open_session(session_cfg.clone()))
        .collect();
    let mut admitted_epochs = 0u64;
    let mut shed_epochs = 0u64;
    for epoch in 0..OVERLOAD_TICKS as u64 {
        for (u, id) in over_ids.iter().enumerate() {
            overloaded.submit(*id, MeasurementEpoch::new(networks[u].clone(), epoch));
        }
        for update in overloaded.tick() {
            if update.degraded {
                shed_epochs += 1;
            } else {
                admitted_epochs += 1;
            }
        }
    }

    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"streaming_engine\",\n",
            "  \"scenario\": \"stream_64tenants_30nodes\",\n",
            "  \"tenants\": {tenants},\n",
            "  \"nodes\": {nodes},\n",
            "  \"particles\": {particles},\n",
            "  \"iterations\": {iterations},\n",
            "  \"samples\": {samples},\n",
            "  \"warmed\": {warmed},\n",
            "  \"tick_secs\": {tick:.6},\n",
            "  \"max_tick_secs\": {max_tick:.6},\n",
            "  \"epoch_secs\": {epoch:.6},\n",
            "  \"overload_ticks\": {overload_ticks},\n",
            "  \"overload_capacity\": {capacity},\n",
            "  \"admitted_epochs\": {admitted},\n",
            "  \"shed_epochs\": {shed}\n",
            "}}\n"
        ),
        tenants = STREAM_TENANTS,
        nodes = NODES,
        particles = PARTICLES,
        iterations = STREAM_ITERATIONS,
        samples = samples.max(1),
        warmed = warmed,
        tick = tick_secs,
        max_tick = max_tick_secs,
        epoch = epoch_secs,
        overload_ticks = OVERLOAD_TICKS,
        capacity = STREAM_TENANTS / 2,
        admitted = admitted_epochs,
        shed = shed_epochs,
    )
}

/// Compares a freshly-measured bench JSON against the pinned one.
///
/// Timing fields (keys ending in `secs`) regress only when the fresh
/// number exceeds `pinned * tolerance` — getting faster is never a
/// failure. Every other field (scenario shape, iteration and message
/// counts) must match exactly: a changed message count means the bench
/// is no longer measuring the same work, which would make the timing
/// comparison meaningless. Shape is checked both ways: a pinned field
/// the fresh output lacks is missing, and a fresh field the pin lacks is
/// not pinned.
///
/// Returns the list of regressions, empty on success.
pub fn check_bench_json(pinned: &str, fresh: &str, tolerance: f64) -> Result<Vec<String>, String> {
    let pinned = parse_json(pinned).map_err(|e| format!("pinned JSON: {e}"))?;
    let fresh = parse_json(fresh).map_err(|e| format!("fresh JSON: {e}"))?;
    let mut failures = Vec::new();
    check_value("", &pinned, &fresh, tolerance, &mut failures);
    Ok(failures)
}

fn check_value(
    path: &str,
    pinned: &JsonValue,
    fresh: &JsonValue,
    tolerance: f64,
    failures: &mut Vec<String>,
) {
    if path.ends_with("secs") {
        match (pinned.as_f64(), fresh.as_f64()) {
            (Some(want), Some(got)) if got.is_finite() && want.is_finite() => {
                let budget = want * tolerance;
                if got > budget {
                    failures.push(format!(
                        "{path}: {got:.6}s exceeds pinned {want:.6}s x tolerance {tolerance} = {budget:.6}s"
                    ));
                }
            }
            _ => failures.push(format!("{path}: expected a finite timing in both files")),
        }
        return;
    }
    match pinned {
        JsonValue::Obj(fields) => {
            let child = |key: &str| {
                if path.is_empty() {
                    key.to_owned()
                } else {
                    format!("{path}.{key}")
                }
            };
            for (key, want) in fields {
                match fresh.get(key) {
                    Some(got) => check_value(&child(key), want, got, tolerance, failures),
                    None => failures.push(format!("{}: missing from fresh output", child(key))),
                }
            }
            if let JsonValue::Obj(fresh_fields) = fresh {
                for (key, _) in fresh_fields {
                    if pinned.get(key).is_none() {
                        failures.push(format!("{}: not pinned", child(key)));
                    }
                }
            }
        }
        JsonValue::Arr(items) => match fresh {
            JsonValue::Arr(fresh_items) if fresh_items.len() == items.len() => {
                for (i, (want, got)) in items.iter().zip(fresh_items).enumerate() {
                    check_value(&format!("{path}[{i}]"), want, got, tolerance, failures);
                }
            }
            _ => failures.push(format!(
                "{path}: expected an array of {} elements in both files",
                items.len()
            )),
        },
        want => {
            if want != fresh {
                failures.push(format!("{path}: pinned {want:?} != fresh {fresh:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_bench_reports_plausible_json() {
        let json = grid_bench_json(1);
        assert!(json.contains("\"bench\": \"grid_message_passing\""));
        assert!(json.contains("\"secs\""));
        assert!(json.contains("\"iterations\": 3"));
    }

    #[test]
    fn particle_bench_reports_both_backends() {
        let json = particle_bench_json(1);
        assert!(json.contains("\"particle\""));
        assert!(json.contains("\"gaussian\""));
    }

    #[test]
    fn stream_bench_reports_epoch_timing() {
        let json = stream_bench_json(1);
        assert!(json.contains("\"bench\": \"streaming_engine\""));
        assert!(json.contains(&format!("\"tenants\": {STREAM_TENANTS}")));
        assert!(json.contains(&format!("\"warmed\": {STREAM_TENANTS}")));
        assert!(json.contains("\"epoch_secs\""));
        assert!(json.contains("\"max_tick_secs\""));
        assert!(
            !json.contains("p99"),
            "a 5-sample lane reports no p99: {json}"
        );
    }

    #[test]
    fn scale_bench_reports_grid_and_sharded_sections() {
        // Exercise the quick shape at tiny sample count; the unit test
        // must not build the 100k+ deployments, so assert shape through
        // a single small fixture plus the quick JSON's static fields.
        let json = scale_bench_json_for(1, &SHARD_SCALE_NODES[..1], "quick");
        assert!(json.contains("\"bench\": \"scale_sweep\""), "{json}");
        assert!(json.contains("\"mode\": \"quick\""));
        for r in SCALE_RESOLUTIONS {
            assert!(json.contains(&format!("\"resolution\": {r}")), "{json}");
        }
        assert!(json.contains("\"nodes\": 1000"), "{json}");
        assert!(json.contains("\"flat_secs\""));
        assert!(json.contains("\"sharded_secs\""));
        // The sweep output round-trips the checker against itself.
        let failures = check_bench_json(&json, &json, 1.0).expect("parses");
        assert!(failures.is_empty(), "self-check failed: {failures:?}");
    }

    #[test]
    fn sharded_fixture_is_deterministic_and_multi_shard() {
        let (mrf, layout) = sharded_fixture(1_000);
        let (mrf2, layout2) = sharded_fixture(1_000);
        assert_eq!(mrf.edges().len(), mrf2.edges().len());
        assert_eq!(layout.occupied_shards(), layout2.occupied_shards());
        assert!(
            layout.occupied_shards() > 1,
            "1k-node sweep row must exercise the multi-shard path"
        );
        // Constant-density sizing: mean degree near the target.
        let degree = 2.0 * mrf.edges().len() as f64 / mrf.len() as f64;
        assert!(
            (degree - SHARD_SCALE_DEGREE).abs() < 1.5,
            "mean degree {degree} drifted from target {SHARD_SCALE_DEGREE}"
        );
    }

    #[test]
    fn check_recurses_into_arrays_with_timing_tolerance() {
        let pinned =
            "{\"rows\":[{\"resolution\":15,\"secs\":0.010},{\"resolution\":30,\"secs\":0.020}]}";
        let faster =
            "{\"rows\":[{\"resolution\":15,\"secs\":0.001},{\"resolution\":30,\"secs\":0.002}]}";
        assert!(check_bench_json(pinned, faster, 1.5)
            .expect("parses")
            .is_empty());
        let slower =
            "{\"rows\":[{\"resolution\":15,\"secs\":0.040},{\"resolution\":30,\"secs\":0.020}]}";
        let failures = check_bench_json(pinned, slower, 1.5).expect("parses");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("rows[0].secs"), "{failures:?}");
        // Shape drift inside an element and a length mismatch both flag.
        let reshaped =
            "{\"rows\":[{\"resolution\":16,\"secs\":0.010},{\"resolution\":30,\"secs\":0.020}]}";
        let failures = check_bench_json(pinned, reshaped, 10.0).expect("parses");
        assert!(failures.iter().any(|f| f.starts_with("rows[0].resolution")));
        let truncated = "{\"rows\":[{\"resolution\":15,\"secs\":0.010}]}";
        let failures = check_bench_json(pinned, truncated, 10.0).expect("parses");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("array of 2 elements"));
    }

    #[test]
    fn check_passes_identical_json_and_faster_timings() {
        let pinned = "{\"bench\":\"b\",\"messages\":10,\"cached_secs\":0.010}";
        assert_eq!(
            check_bench_json(pinned, pinned, 1.0).expect("parses"),
            Vec::<String>::new()
        );
        // Faster than pinned is fine even at tolerance 1.0.
        let fresh = "{\"bench\":\"b\",\"messages\":10,\"cached_secs\":0.002}";
        assert!(check_bench_json(pinned, fresh, 1.0)
            .expect("parses")
            .is_empty());
    }

    #[test]
    fn check_flags_slow_timings_within_tolerance_only() {
        let pinned = "{\"secs\":0.010}";
        let slower = "{\"secs\":0.018}";
        assert!(check_bench_json(pinned, slower, 2.0)
            .expect("parses")
            .is_empty());
        let failures = check_bench_json(pinned, slower, 1.5).expect("parses");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("exceeds pinned"));
    }

    #[test]
    fn check_flags_shape_drift_and_missing_fields() {
        let pinned = "{\"messages\":10,\"nested\":{\"secs\":0.01,\"iterations\":3}}";
        let drifted = "{\"messages\":12,\"nested\":{\"iterations\":3}}";
        let failures = check_bench_json(pinned, drifted, 10.0).expect("parses");
        // messages mismatch + nested.secs missing.
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().any(|f| f.starts_with("messages:")));
        assert!(failures
            .iter()
            .any(|f| f == "nested.secs: missing from fresh output"));
        assert!(check_bench_json("{", "{}", 1.0).is_err());
    }

    #[test]
    fn check_flags_fresh_fields_the_pin_lacks() {
        let pinned = "{\"messages\":10,\"rows\":[{\"secs\":0.01}]}";
        let grown =
            "{\"messages\":10,\"speedup\":3.5,\"rows\":[{\"secs\":0.01,\"p99_secs\":0.02}]}";
        let failures = check_bench_json(pinned, grown, 10.0).expect("parses");
        assert_eq!(
            failures,
            vec![
                "rows[0].p99_secs: not pinned".to_owned(),
                "speedup: not pinned".to_owned(),
            ],
        );
        // The reverse direction reports the same fields as missing.
        let failures = check_bench_json(grown, pinned, 10.0).expect("parses");
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures
            .iter()
            .all(|f| f.ends_with("missing from fresh output")));
    }

    #[test]
    fn fresh_bench_passes_against_its_own_output() {
        let json = grid_bench_json(1);
        // Same measurement vs itself with slack for noise: no failures.
        let failures = check_bench_json(&json, &json, 1.0).expect("parses");
        assert!(failures.is_empty(), "self-check failed: {failures:?}");
    }
}
