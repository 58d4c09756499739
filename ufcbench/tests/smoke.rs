//! Tiny-size smoke runs of every workload: every named metric is emitted,
//! failures are counted, and the traced run's phase spans plus the time
//! outside the driver add up to the solve spans.

use std::path::PathBuf;

use ufcbench::json::{parse, Value};
use ufcbench::workloads::{run, Config, Report, Scale, Workload};
use ufcbench::{END_TO_END, PER_LAYER};

fn config(workload: Workload, trace: bool, scale: Scale) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        scale,
        worker: PathBuf::from(env!("CARGO_BIN_EXE_ufcbench")),
    }
}

fn assert_metrics(report: &Report, expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(got, expected);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let report = run(&config(w, false, Scale::tiny())).unwrap();
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0);
        assert_metrics(&report, END_TO_END);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn unconverged_solves_are_counted_as_failures() {
    for w in Workload::ALL {
        let scale = Scale {
            max_iterations: Some(1),
            ..Scale::tiny()
        };
        let report = run(&config(w, false, scale)).unwrap();
        assert!(!report.correct, "{}", w.name());
        assert!(report.attempted > 0);
        assert_eq!(report.failed, report.attempted, "{}", w.name());
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_consistent_spans() {
    for w in Workload::ALL {
        let report = run(&config(w, true, Scale::tiny())).unwrap();
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        assert_metrics(&report, PER_LAYER);

        // The solve trees: phase children plus self time cover each root
        // exactly, and the reported metrics rebuild the same total.
        let b = report.breakdown.expect("traced run has a breakdown");
        assert!(b.roots > 0 && report.traced_iterations > 0);
        assert_eq!(b.root_ns, b.phases_ns() + b.root_self_ns, "{}", w.name());
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap()
        };
        let phases_ms: f64 = [
            "begin",
            "predict_lambda",
            "step_datacenters",
            "correct",
            "finish_iteration",
        ]
        .iter()
        .map(|p| value(&format!("core.engine.{p}.ms_per_iter")) * report.traced_iterations as f64)
        .sum();
        let rebuilt = value("core.solver.outside_drive_ms") * b.roots as f64 + phases_ms;
        let total_ms = b.root_ns as f64 / 1e6;
        assert!(
            (rebuilt - total_ms).abs() <= 1e-9 * total_ms.max(1.0),
            "{}: {rebuilt} vs {total_ms}",
            w.name()
        );

        let spans = report.spans_jsonl.expect("traced run keeps its spans");
        let roots = spans
            .lines()
            .map(|l| parse(l).unwrap())
            .filter(|s| s.get("parent") == Some(&Value::Null))
            .count();
        assert!(roots as u64 >= b.roots);
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc = parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry lacks a name or unit"),
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let Some(Value::Array(workloads)) = doc.get("workloads") else {
        panic!("workloads is not a list");
    };
    for w in workloads {
        let Some(Value::Str(name)) = w.get("name") else {
            panic!("workload entry lacks a name");
        };
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
