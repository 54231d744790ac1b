//! Tracking a mobile network: nodes drift by random waypoint while a
//! localization session carries each step's posterior, blurred by a
//! random-walk motion model, into the next step as pre-knowledge. Run side by side with a memoryless localizer under the
//! same tight 2-iteration-per-step budget.
//!
//! ```text
//! cargo run -p wsnloc --release --example mobile_tracking [speed_mps]
//! ```

use wsnloc::prelude::*;
use wsnloc_net::mobility::{MobileWorld, RandomWaypoint};

fn main() {
    let speed: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let mut world = MobileWorld::new(
        Shape::Rect(Aabb::from_size(600.0, 600.0)),
        80,
        10,
        RadioModel::UnitDisk { range: 150.0 },
        RangingModel::Multiplicative { factor: 0.1 },
        RandomWaypoint {
            min_speed: speed,
            max_speed: speed,
            pause: 0.0,
        },
        1.0, // 1 s per step
        0x30B11E,
    );

    let tight = BnlLocalizer::builder(Backend::particle(200).expect("valid backend"))
        .max_iterations(2)
        .tolerance(0.0)
        .try_build()
        .expect("valid config");
    let motion = MotionModel::new(speed * 1.5).expect("speed must be finite and non-negative");
    let mut tracker = LocalizationSession::new(tight.clone()).with_motion(motion);

    println!("80 nodes, 10 anchors, nodes move at {speed} m/s, 2 BP iterations per step\n");
    println!(
        "{:>4} {:>16} {:>20}",
        "t", "tracking err (m)", "memoryless err (m)"
    );
    for t in 0..12u64 {
        let net = world.step();
        let truth = GroundTruth::from_positions(world.positions().to_vec());
        let score = |r: &LocalizationResult| {
            let errs: Vec<f64> = r
                .errors_for(&truth, Some(&net))
                .into_iter()
                .flatten()
                .collect();
            errs.iter().sum::<f64>() / errs.len().max(1) as f64
        };
        let tracked = score(&tracker.advance(&net, t));
        let fresh = score(&tight.localize(&net, t));
        println!("{t:>4} {tracked:>16.1} {fresh:>20.1}");
    }
    println!("\n(the tracker amortizes inference across steps; the memoryless run");
    println!(" restarts from a flat prior every second and never catches up)");
}
