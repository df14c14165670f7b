//! The benchmark keeps its contract: the metric names `BENCHMARK.json`
//! declares are exactly the ones the binary prints, and a `--quick` run
//! of every workload, untraced and traced, passes every check.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<String> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// Runs every workload with `--quick` and returns each run's result.
fn quick_run(trace: bool) -> Vec<Json> {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_reghd-benchmark"))
        .args([
            "--quick",
            "--workload",
            "all",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "a quick run must stay under 20 s, took {:?}",
        start.elapsed()
    );
    let last = stdout.lines().last().expect("a result line");
    let combined = json::parse(last).expect("result line is JSON");
    assert_eq!(combined.get("correct").and_then(Json::as_bool), Some(true));
    combined
        .get("runs")
        .and_then(Json::as_arr)
        .expect("one result per workload")
        .iter()
        .map(|r| r.get("result").cloned().expect("run has a result"))
        .collect()
}

fn assert_names(runs: &[Json], expected: &[String]) {
    let declared_workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    assert_eq!(runs.len(), declared_workloads.len());
    for run in runs {
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(run.get(key).is_some(), "result line lacks {key}");
        }
        assert!(run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
        let emitted: Vec<String> = run
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(&emitted, expected);
    }
}

// One test, so the two quick runs never compete for the CPU.
#[test]
fn quick_runs_pass_and_print_exactly_the_declared_metrics() {
    let runs = quick_run(false);
    assert_names(&runs, &declared("end_to_end"));
    for run in &runs {
        for (name, m) in run.get("metrics").and_then(Json::as_obj).expect("metrics") {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(v > 0.0, "end-to-end metric {name} must never be 0, got {v}");
        }
    }
    let traced = quick_run(true);
    assert_names(&traced, &declared("per_layer"));
}
