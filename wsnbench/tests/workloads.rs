//! The benchmark's own tests: every workload runs at toy size and emits
//! every named metric, names are well formed and match `BENCHMARK.json`,
//! and the correctness gate trips on a bad estimate.

use wsnbench::{run, Report, RunConfig, Size, Workload, JSON_END_TO_END, JSON_PER_LAYER};

fn toy(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Toy,
        inject_nonfinite: false,
    }
}

/// End-to-end metrics each workload prints, by the names the benchmark
/// documents.
fn printed_end_to_end(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::FieldGrid => &[
            "setup_s",
            "solve_p50_s",
            "epochs_per_s",
            "rmse_m",
            "crlb_ratio",
            "fail_frac",
        ],
        Workload::StreamParticle => &[
            "setup_s",
            "tick_p50_s",
            "epochs_per_s",
            "rmse_m",
            "fail_frac",
        ],
        Workload::CitySharded => &[
            "setup_s",
            "solve_p50_s",
            "warm_epoch_p50_s",
            "epochs_per_s",
            "rmse_m",
            "rmse_vs_flat",
            "fail_frac",
        ],
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_emits(report: &Report, keys: &[&str]) {
    let out = report.render();
    assert!(report.correct(), "{out}");
    let line = out.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    for key in keys {
        assert!(
            line.contains(&format!("\"{key}\": {{\"value\": ")),
            "{key} missing: {line}"
        );
    }
    let table = if report.config.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    for m in table {
        assert!(well_formed(&m.name), "bad metric name {:?}", m.name);
        assert!(m.samples >= 1, "{} has no samples", m.name);
        assert!(out.contains(&m.name), "{} not printed", m.name);
    }
    for (k, _) in &report.input {
        assert!(well_formed(k), "bad input-shape name {k:?}");
    }
}

#[test]
fn every_workload_emits_its_end_to_end_metrics() {
    for w in Workload::ALL {
        let report = run(&toy(w, false));
        assert_emits(&report, &JSON_END_TO_END);
        for name in printed_end_to_end(w) {
            assert!(
                report.metric(name).is_some(),
                "{}: {name} missing",
                w.name()
            );
        }
        for shape in ["nodes", "edges", "anchors", "shards", "iterations"] {
            assert!(
                report.input.iter().any(|(k, _)| *k == shape),
                "{}: input shape lacks {shape}",
                w.name()
            );
        }
    }
}

#[test]
fn every_workload_emits_its_per_layer_metrics() {
    for w in Workload::ALL {
        assert_emits(&run(&toy(w, true)), &JSON_PER_LAYER);
    }
}

#[test]
fn gate_trips_on_an_injected_nonfinite_estimate() {
    for w in Workload::ALL {
        let mut cfg = toy(w, false);
        cfg.inject_nonfinite = true;
        let report = run(&cfg);
        assert!(!report.correct(), "{}: gate did not trip", w.name());
        assert!(report.failed >= 1);
        let out = report.render();
        assert!(out.contains("gate: FAILED"), "{out}");
        assert!(
            out.lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": false")),
            "{out}"
        );
    }
}

#[test]
fn result_line_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for name in JSON_END_TO_END.iter().chain(&JSON_PER_LAYER) {
        assert!(well_formed(name), "bad result-line name {name:?}");
        assert!(
            spec.contains(&format!("\"name\": \"{name}\"")),
            "{name} not declared in BENCHMARK.json"
        );
    }
    assert_eq!(
        spec.matches("\"name\": ").count(),
        Workload::ALL.len() + JSON_END_TO_END.len() + JSON_PER_LAYER.len(),
        "BENCHMARK.json declares names the benchmark does not emit"
    );
}
