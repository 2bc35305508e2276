//! Self-test of the benchmark at tiny budgets: every metric named in
//! `BENCHMARK.json` is emitted with its unit, and the correctness check
//! fails a run whose stored cell digest has been tampered with.

use std::path::{Path, PathBuf};
use std::process::Command;

use rvp_json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// A fresh directory to run in, with tiny-size digests and references.
fn prepared(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for cmd in ["regen-digests", "regen-reference"] {
        let status = Command::new(BIN)
            .args([cmd, "--size", "tiny", "--data", "data"])
            .current_dir(&dir)
            .status()
            .unwrap();
        assert!(status.success(), "{cmd} failed");
    }
    dir
}

/// Runs one tiny workload; returns the exit status and the last line.
fn run(dir: &Path, workload: &str, trace: &str) -> (bool, Json) {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .args(["--size", "tiny", "--data", "data"])
        .current_dir(dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json =
        Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"));
    (out.status.success(), json)
}

/// Checks that `json.metrics` holds exactly the `declared` metrics, each
/// with its declared unit and a finite value.
fn assert_metrics(json: &Json, declared: &[Json]) {
    let metrics = json.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> =
        declared.iter().map(|m| m.get("name").unwrap().as_str().unwrap()).collect();
    assert_eq!(names.len(), want.len(), "emitted {names:?}, declared {want:?}");
    for m in declared {
        let name = m.get("name").unwrap().as_str().unwrap();
        let got =
            json.get("metrics").unwrap().get(name).unwrap_or_else(|| panic!("{name} not emitted"));
        assert_eq!(got.get("unit"), m.get("unit"), "unit of {name}");
        let value = got
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} has no value"));
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let bench = benchmark_json();
    let dir = prepared("selftest-metrics");
    let end_to_end = bench.get("end_to_end").unwrap().as_arr().unwrap();
    for w in bench.get("workloads").unwrap().as_arr().unwrap() {
        let name = w.get("name").unwrap().as_str().unwrap();
        let (ok, json) = run(&dir, name, "0");
        assert!(ok, "{name} failed: {json}");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true), "{name}: {json}");
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0), "{name}: {json}");
        assert_metrics(&json, end_to_end);
    }
    let (ok, json) = run(&dir, "grid_detailed", "1");
    assert!(ok, "traced run failed: {json}");
    assert_metrics(&json, bench.get("per_layer").unwrap().as_arr().unwrap());
}

#[test]
fn a_tampered_digest_fails_the_run() {
    let dir = prepared("selftest-tamper");
    let path = dir.join("data/digests-tiny.json");
    let text = std::fs::read_to_string(&path).unwrap();
    // Flip the last hex digit of the first grid_detailed digest.
    let at = text.find("\"grid_detailed\":{\"").unwrap();
    let end = at + text[at..].find("\",").unwrap();
    let digit = &text[end - 1..end];
    let flipped = if digit == "0" { "1" } else { "0" };
    std::fs::write(&path, format!("{}{flipped}{}", &text[..end - 1], &text[end..])).unwrap();

    let (ok, json) = run(&dir, "grid_detailed", "0");
    assert!(!ok, "a run with a wrong digest must fail");
    assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false), "{json}");
}
