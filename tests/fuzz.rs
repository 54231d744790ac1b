//! Seeded fuzz loops over the parsers of outside input.
//!
//! No `cargo-fuzz`: each loop mutates a recorded input with the in-repo
//! xoshiro RNG for a fixed number of cases through
//! `wsnloc_geom::check::cases`, so every case is independently seeded
//! and a failure prints the case to replay.

use wsnloc::prelude::*;
use wsnloc_geom::check;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_obs::{analyze_str, write_jsonl, VecSink};

/// Mutated traces fed to `analyze_str`.
const CASES: u64 = 1000;

/// Opening brackets in a bracket-run mutation: far past any stack a
/// parser that recursed once per level without a cap could survive.
const BRACKET_RUN: usize = 1_000_000;

/// Bytes byte-flip mutations favour, so flips land on the parser's
/// branch points (structure, literals, numbers, escapes) and not only
/// on garbage it rejects at once.
const JSON_BYTES: &[u8] = b"{}[]\",:-+.eE0123456789tfnrul\\ ";

/// A recorded trace, one record per line: a flat particle run, plus a
/// sharded Gaussian run under 40% loss, whose boundary-exchange, drop
/// and context records the flat run lacks.
fn recorded_trace() -> String {
    let (net, _) = Scenario {
        name: "fuzz".into(),
        deployment: Deployment::planned_square_drop(400.0, 3, 50.0),
        node_count: 24,
        anchors: AnchorStrategy::Random { count: 5 },
        radio: RadioModel::UnitDisk { range: 160.0 },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
        seed: 0xF022,
    }
    .build_trial(0);
    let builder = |backend| {
        BnlLocalizer::builder(backend)
            .prior(PriorModel::DropPoint { sigma: 50.0 })
            .max_iterations(3)
            .tolerance(0.0)
    };
    let flat = builder(Backend::particle(40).expect("valid backend"));
    let sharded = builder(Backend::gaussian())
        .shards(ShardPlan::target_nodes(8).expect("valid plan"))
        .fault_plan(FaultPlan::iid_loss(0xF1, 0.4));
    let tracer = TraceObserver::new();
    for algo in [flat, sharded] {
        let algo = algo.try_build().expect("valid configuration");
        let _ = algo.localize_with_observer(&net, 1, &tracer);
    }
    // Zero the wall-clock fields, so the trace and every case built from
    // it are the same on every run.
    let mut runs = tracer.take_runs();
    for run in &mut runs {
        run.iterations.iter_mut().for_each(|rec| rec.secs = 0.0);
        run.spans.iter_mut().for_each(|span| span.1 = 0.0);
    }
    let mut sink = VecSink::new();
    write_jsonl(&runs, &mut sink).expect("in-memory sink");
    sink.lines.join("\n")
}

/// One mutation of `trace`: byte flips, a truncation, a spliced line or
/// a long bracket run at the start of a line. The result is made valid
/// UTF-8 lossily, as a reader of a corrupted file would.
fn mutate(trace: &str, rng: &mut Xoshiro256pp) -> String {
    let mut bytes = trace.as_bytes().to_vec();
    match rng.index(4) {
        0 => {
            for _ in 0..=rng.index(8) {
                let at = rng.index(bytes.len());
                bytes[at] = if rng.bernoulli(0.5) {
                    JSON_BYTES[rng.index(JSON_BYTES.len())]
                } else {
                    rng.next_u64() as u8
                };
            }
        }
        1 => bytes.truncate(rng.index(bytes.len())),
        2 => {
            // The head of one line joined to the tail of another, in
            // place of a third.
            let mut lines: Vec<&[u8]> = trace.as_bytes().split(|&b| b == b'\n').collect();
            let head = lines[rng.index(lines.len())];
            let tail = lines[rng.index(lines.len())];
            let spliced = [
                &head[..rng.index(head.len() + 1)],
                &tail[rng.index(tail.len() + 1)..],
            ]
            .concat();
            let at = rng.index(lines.len());
            lines[at] = &spliced;
            bytes = lines.join(&b'\n');
        }
        _ => {
            let run = if rng.bernoulli(0.5) {
                "[".repeat(BRACKET_RUN)
            } else {
                "{\"k\":".repeat(BRACKET_RUN)
            };
            let line_starts: Vec<usize> = std::iter::once(0)
                .chain(trace.match_indices('\n').map(|(i, _)| i + 1))
                .collect();
            let at = line_starts[rng.index(line_starts.len())];
            // Not `[..].concat()`: unoptimized, it copies these
            // megabytes element by element (~1 s over the whole loop).
            let mut out = bytes[..at].to_vec();
            out.extend_from_slice(run.as_bytes());
            out.extend_from_slice(&bytes[at..]);
            bytes = out;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every mutated trace analyzes to `Ok` or `Err`; none panics, and none
/// overflows the stack (which would abort the whole test binary).
#[test]
fn analyze_returns_ok_or_err_on_mutated_traces() {
    let trace = recorded_trace();
    analyze_str(&trace).expect("the recorded trace analyzes");
    let (mut ok, mut err) = (0, 0);
    check::cases(CASES, |_, rng| match analyze_str(&mutate(&trace, rng)) {
        Ok(_) => ok += 1,
        Err(_) => err += 1,
    });
    // Both outcomes occur: the mutations neither all miss the parser's
    // checks nor all fail on the first byte.
    assert!(ok > 0 && err > 0, "{ok} cases parsed, {err} were rejected");
}
