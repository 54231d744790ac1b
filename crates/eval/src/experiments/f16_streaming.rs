//! F16 — streaming service: multi-tenant epoch sessions with belief
//! carry-over under a tight per-epoch budget.
//!
//! Several independent mobile networks (tenants) stream measurement
//! epochs into one [`StreamingEngine`]. Each tenant's session carries its
//! posterior beliefs across epochs through a random-walk motion model, so
//! 3 BP iterations per epoch suffice once the stream warms up:
//!
//! - **Session (3 it)** — streaming engine, belief carry-over;
//! - **Memoryless (3 it)** — per-epoch re-localization, same budget;
//! - **Memoryless (full)** — per-epoch re-localization with the standard
//!   budget, as the accuracy reference.
//!
//! Reproduction criterion: post-warmup, the session RMSE stays within 5%
//! of the memoryless full-budget reference while the equal-budget
//! memoryless run is far worse. The second report overloads the engine
//! (capacity below the tenant count) and shows graceful degradation:
//! shed tenants coast on their motion model (decay-to-prior) and the
//! aggregate RMSE grows smoothly with the shed fraction rather than
//! collapsing.

use super::{built, particles, RANGE};
use crate::{ExpConfig, Report};
use wsnloc::prelude::*;
use wsnloc_geom::stats;
use wsnloc_geom::{Aabb, Shape};
use wsnloc_net::mobility::{MobileWorld, RandomWaypoint};
use wsnloc_obs::TelemetryHub;
use wsnloc_serve::{
    EngineConfig, MeasurementEpoch, PositionUpdate, SessionConfig, SessionId, StreamingEngine,
};

/// Node speed (m/s) for every tenant's mobility model.
const SPEED: f64 = 5.0;
/// Epochs excluded from scoring while the carried beliefs warm up.
const WARMUP: usize = 2;

fn mobile_world(tenant: u64) -> MobileWorld {
    MobileWorld::new(
        Shape::Rect(Aabb::from_size(600.0, 600.0)),
        80,
        10,
        RadioModel::UnitDisk { range: RANGE },
        RangingModel::Multiplicative { factor: 0.1 },
        RandomWaypoint {
            min_speed: SPEED,
            max_speed: SPEED,
            pause: 0.0,
        },
        1.0,
        0xF16 ^ (tenant.wrapping_mul(7919)),
    )
}

/// The tight per-epoch budget every streaming session runs under.
fn session_localizer(cfg: &ExpConfig) -> BnlLocalizer {
    built(
        BnlLocalizer::builder(particles(cfg.particles))
            .max_iterations(3)
            .tolerance(0.0),
    )
}

fn session_config(cfg: &ExpConfig) -> SessionConfig {
    SessionConfig::new(session_localizer(cfg)).with_motion(MotionModel::random_walk(SPEED * 1.5))
}

/// Per-tenant session config for telemetry runs: tenant 0 solves with
/// sharded BP (same budget) so the live `/metrics` endpoint carries
/// per-shard boundary-exchange series alongside the per-tenant ones.
fn telemetry_session_config(cfg: &ExpConfig, tenant: usize) -> SessionConfig {
    if tenant == 0 {
        let sharded = built(
            BnlLocalizer::builder(particles(cfg.particles))
                .max_iterations(3)
                .tolerance(0.0)
                .shards(ShardPlan::target_nodes(20).expect("valid shard plan")),
        );
        SessionConfig::new(sharded).with_motion(MotionModel::random_walk(SPEED * 1.5))
    } else {
        session_config(cfg)
    }
}

/// Builds a report engine, publishing into `hub` when telemetry is on.
fn engine_for(config: EngineConfig, hub: Option<&TelemetryHub>) -> StreamingEngine {
    match hub {
        Some(h) => StreamingEngine::builder(config).hub(h.clone()).build(),
        None => StreamingEngine::new(config),
    }
}

/// Session config chooser shared by both reports.
fn config_for(cfg: &ExpConfig, tenant: usize, telemetry: bool) -> SessionConfig {
    if telemetry {
        telemetry_session_config(cfg, tenant)
    } else {
        session_config(cfg)
    }
}

/// World chooser: telemetry runs mark the initial placement as the
/// deployment plan so the shard layout can spread tenant 0's mobile
/// free nodes across tiles (otherwise they all collapse to the field
/// center and no boundary traffic flows).
fn world_for(tenant: u64, telemetry: bool) -> MobileWorld {
    let world = mobile_world(tenant);
    if telemetry {
        world.with_deployment_plan()
    } else {
        world
    }
}

/// The position in `ids` of the tenant an update belongs to. A shared
/// hub numbers tenants across engines, so an engine's ids need not start
/// at 0.
fn tenant_index(ids: &[SessionId], update: &PositionUpdate) -> usize {
    ids.iter()
        .position(|&id| id == update.tenant)
        .expect("updates come from the engine's own tenants")
}

fn node_errors(r: &LocalizationResult, truth: &GroundTruth, net: &Network) -> Vec<f64> {
    r.errors_for(truth, Some(net))
        .into_iter()
        .flatten()
        .collect()
}

fn rmse(errs: &[f64]) -> f64 {
    let sq: Vec<f64> = errs.iter().map(|e| e * e).collect();
    stats::mean(&sq).map_or(f64::NAN, f64::sqrt)
}

fn sizes(cfg: &ExpConfig) -> (usize, usize) {
    if cfg.quick {
        (2, 5)
    } else {
        (4, 8)
    }
}

/// Per-tenant steady-state RMSE/R: streaming session vs equal-budget and
/// full-budget memoryless re-localization.
fn budget_report(cfg: &ExpConfig, hub: Option<&TelemetryHub>) -> Report {
    let (tenants, epochs) = sizes(cfg);
    let tight = session_localizer(cfg);
    let full = built(
        BnlLocalizer::builder(particles(cfg.particles))
            .max_iterations(cfg.iterations)
            .tolerance(RANGE * 0.02),
    );

    let mut engine = engine_for(EngineConfig::default(), hub);
    let ids: Vec<_> = (0..tenants)
        .map(|u| engine.open_session(config_for(cfg, u, hub.is_some())))
        .collect();
    let mut worlds: Vec<MobileWorld> = (0..tenants as u64)
        .map(|t| world_for(t, hub.is_some()))
        .collect();

    let mut session_err = vec![Vec::new(); tenants];
    let mut tight_err = vec![Vec::new(); tenants];
    let mut full_err = vec![Vec::new(); tenants];
    for e in 0..epochs as u64 {
        let mut snapshots = Vec::with_capacity(tenants);
        for (u, w) in worlds.iter_mut().enumerate() {
            let net = w.step();
            let truth = GroundTruth::from_positions(w.positions().to_vec());
            engine.submit(ids[u], MeasurementEpoch::new(net.clone(), e));
            snapshots.push((net, truth));
        }
        for up in engine.tick() {
            let u = tenant_index(&ids, &up);
            if (e as usize) < WARMUP {
                continue;
            }
            let (net, truth) = &snapshots[u];
            session_err[u].extend(node_errors(&up.result, truth, net));
            tight_err[u].extend(node_errors(&tight.localize(net, e), truth, net));
            full_err[u].extend(node_errors(&full.localize(net, e), truth, net));
        }
    }

    let mut labels: Vec<String> = (0..tenants).map(|u| format!("tenant-{u}")).collect();
    labels.push("all tenants".to_string());
    let mut data: Vec<Vec<f64>> = (0..tenants)
        .map(|u| {
            vec![
                rmse(&session_err[u]) / RANGE,
                rmse(&tight_err[u]) / RANGE,
                rmse(&full_err[u]) / RANGE,
            ]
        })
        .collect();
    let flat = |per: &[Vec<f64>]| per.iter().flatten().copied().collect::<Vec<f64>>();
    data.push(vec![
        rmse(&flat(&session_err)) / RANGE,
        rmse(&flat(&tight_err)) / RANGE,
        rmse(&flat(&full_err)) / RANGE,
    ]);
    Report::new(
        "f16",
        format!(
            "streaming sessions: steady-state RMSE/R, {tenants} tenants × {epochs} epochs, 3-iteration budget"
        ),
        "tenant",
        vec![
            "Session(3 it)".into(),
            "Memoryless(3 it)".into(),
            "Memoryless(full)".into(),
        ],
        labels,
        data,
    )
}

/// Aggregate RMSE/R and shed counts as the per-tick solve capacity drops
/// below the tenant count (decay-to-prior shed policy).
fn overload_report(cfg: &ExpConfig, hub: Option<&TelemetryHub>) -> Report {
    let (tenants, epochs) = sizes(cfg);
    let mut caps: Vec<usize> = vec![0, tenants.saturating_sub(1).max(1), 1];
    caps.dedup();
    let mut labels = Vec::new();
    let mut data = Vec::new();
    for &cap in &caps {
        let mut engine = engine_for(
            EngineConfig {
                capacity_per_tick: cap,
                shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
            },
            hub,
        );
        let ids: Vec<_> = (0..tenants)
            .map(|u| engine.open_session(config_for(cfg, u, hub.is_some())))
            .collect();
        let mut worlds: Vec<MobileWorld> = (0..tenants as u64)
            .map(|t| world_for(t, hub.is_some()))
            .collect();
        let mut errs = Vec::new();
        let mut solved = 0u64;
        let mut shed = 0u64;
        for e in 0..epochs as u64 {
            let mut snapshots = Vec::with_capacity(tenants);
            for (u, w) in worlds.iter_mut().enumerate() {
                let net = w.step();
                let truth = GroundTruth::from_positions(w.positions().to_vec());
                engine.submit(ids[u], MeasurementEpoch::new(net.clone(), e));
                snapshots.push((net, truth));
            }
            for up in engine.tick() {
                if up.degraded {
                    shed += 1;
                } else {
                    solved += 1;
                }
                if (e as usize) < WARMUP {
                    continue;
                }
                let (net, truth) = &snapshots[tenant_index(&ids, &up)];
                errs.extend(node_errors(&up.result, truth, net));
            }
        }
        labels.push(if cap == 0 {
            "unlimited".to_string()
        } else {
            format!("{cap}/tick")
        });
        data.push(vec![solved as f64, shed as f64, rmse(&errs) / RANGE]);
    }
    Report::new(
        "f16",
        format!("overload shedding: {tenants} tenants, decay-to-prior policy"),
        "capacity",
        vec![
            "epochs solved".into(),
            "epochs shed".into(),
            "RMSE/R".into(),
        ],
        labels,
        data,
    )
}

/// Runs the streaming-service reports.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    vec![budget_report(cfg, None), overload_report(cfg, None)]
}

/// [`run`] with every engine publishing live telemetry into `hub` (the
/// caller owns the [`TelemetryServer`](wsnloc_obs::TelemetryServer)
/// scraping it). Tenant 0 solves with sharded BP so per-shard
/// boundary-exchange series appear on `/metrics` alongside the
/// per-tenant windowed series.
pub fn run_with_telemetry(cfg: &ExpConfig, hub: &TelemetryHub) -> Vec<Report> {
    vec![
        budget_report(cfg, Some(hub)),
        overload_report(cfg, Some(hub)),
    ]
}
