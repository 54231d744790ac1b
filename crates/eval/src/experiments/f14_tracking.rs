//! F14 — temporal tracking of mobile networks (future-work extension).
//!
//! Nodes move by random waypoint; each time step yields a fresh network
//! snapshot. Three per-step strategies under the same *tight* inference
//! budget (2 BP iterations per step):
//!
//! - **Track** — a [`LocalizationSession`] with a random-walk
//!   [`MotionModel`]: previous posterior (+motion inflation) as the next
//!   prior;
//! - **Memoryless** — full re-localization from an uninformative prior;
//! - **Memoryless (full budget)** — re-localization with the standard
//!   iteration budget, as the accuracy reference.
//!
//! Reproduction criterion: under the tight budget, tracking approaches the
//! full-budget reference while memoryless-tight collapses; the gap grows
//! with node speed until motion outruns the temporal prior.

use super::{built, particles, RANGE};
use crate::{ExpConfig, Report};
use wsnloc::prelude::*;
use wsnloc_geom::stats;
use wsnloc_geom::{Aabb, Shape};
use wsnloc_net::mobility::{MobileWorld, RandomWaypoint};

const STEPS: usize = 8;
const WARMUP: usize = 2;

fn run_world(speed: f64, trial: u64, cfg: &ExpConfig) -> (f64, f64, f64) {
    let mut world = MobileWorld::new(
        Shape::Rect(Aabb::from_size(600.0, 600.0)),
        80,
        10,
        RadioModel::UnitDisk { range: RANGE },
        RangingModel::Multiplicative { factor: 0.1 },
        RandomWaypoint {
            min_speed: speed.max(0.1),
            max_speed: speed.max(0.1),
            pause: 0.0,
        },
        1.0,
        0xF14 ^ trial,
    );
    let tight = built(
        BnlLocalizer::builder(particles(cfg.particles))
            .max_iterations(2)
            .tolerance(0.0),
    );
    let full = built(
        BnlLocalizer::builder(particles(cfg.particles))
            .max_iterations(cfg.iterations)
            .tolerance(RANGE * 0.02),
    );
    let mut tracker = LocalizationSession::new(tight.clone())
        .with_motion(MotionModel::random_walk(speed.max(0.1) * 1.5));

    let mut track_err = Vec::new();
    let mut tight_err = Vec::new();
    let mut full_err = Vec::new();
    for t in 0..STEPS as u64 {
        let net = world.step();
        let truth = GroundTruth::from_positions(world.positions().to_vec());
        let score = |r: &wsnloc::LocalizationResult| {
            let errs: Vec<f64> = r
                .errors_for(&truth, Some(&net))
                .into_iter()
                .flatten()
                .collect();
            stats::mean(&errs).unwrap_or(f64::NAN)
        };
        let a = score(&tracker.advance(&net, t));
        let b = score(&tight.localize(&net, t));
        let c = score(&full.localize(&net, t));
        if t as usize >= WARMUP {
            track_err.push(a);
            tight_err.push(b);
            full_err.push(c);
        }
    }
    (
        stats::mean(&track_err).unwrap_or(f64::NAN),
        stats::mean(&tight_err).unwrap_or(f64::NAN),
        stats::mean(&full_err).unwrap_or(f64::NAN),
    )
}

/// Runs the mobility/tracking sweep over node speed.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let speeds: Vec<f64> = if cfg.quick {
        vec![5.0, 20.0]
    } else {
        vec![2.0, 5.0, 10.0, 20.0, 40.0]
    };
    let mut labels = Vec::new();
    let mut data = Vec::new();
    for speed in speeds {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        for trial in 0..cfg.trials.min(3) {
            let (x, y, z) = run_world(speed, trial, cfg);
            a.push(x);
            b.push(y);
            c.push(z);
        }
        labels.push(format!("{speed:.0} m/s"));
        data.push(vec![
            stats::mean(&a).unwrap_or(f64::NAN) / RANGE,
            stats::mean(&b).unwrap_or(f64::NAN) / RANGE,
            stats::mean(&c).unwrap_or(f64::NAN) / RANGE,
        ]);
    }
    vec![Report::new(
        "f14",
        format!(
            "mobile tracking: steady-state error/R vs node speed ({} steps, 2-iter budget, {} trials)",
            STEPS,
            cfg.trials.min(3)
        ),
        "speed",
        vec![
            "Track(2 it)".into(),
            "Memoryless(2 it)".into(),
            "Memoryless(full)".into(),
        ],
        labels,
        data,
    )]
}
