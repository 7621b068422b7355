//! Self-tests of the benchmark: every workload at minimal length prints
//! exactly the metrics `BENCHMARK.json` names, with their units, in both
//! modes; and the correctness gate fails a run whose reported margin was
//! perturbed.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 4] = ["resnet_single", "mlp_batch", "mlp_hybrid2", "serve_mixed"];
const SECONDS: &str = "0.5";

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// The arguments `BENCHMARK.json`'s command passes after `--`.
fn fixed_args(spec: &Value) -> Vec<String> {
    let command: Vec<String> = spec
        .field("command")
        .and_then(Value::as_arr)
        .expect("command list")
        .iter()
        .map(|v| v.as_str().expect("command strings").to_string())
        .collect();
    let at = command
        .iter()
        .position(|a| a == "--")
        .expect("command passes `--`");
    command[at + 1..].to_vec()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.field(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.field(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs one workload; returns exit success, stdout and stderr.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (bool, String, String) {
    let spec = benchmark_json();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args(fixed_args(&spec))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            SECONDS,
            "--trace",
            trace,
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn check_metrics(workload: &str, trace: &str, list: &str) -> Vec<(String, f64)> {
    let spec = benchmark_json();
    let (ok, stdout, stderr) = run(workload, trace, &[]);
    assert!(ok, "{workload} --trace {trace} failed: {stderr}");
    let last = stdout.lines().last().expect("a result line");
    if trace == "0" {
        // End-to-end figures without a bound are printed all the same.
        let line = stdout
            .lines()
            .find(|l| l.starts_with("unbounded {"))
            .expect("an unbounded line");
        for name in ["latency_p90_ms", "latency_p99_ms", "complete_p50_ms"] {
            assert!(
                line.contains(&format!("\"{name}\":{{\"value\":")),
                "{workload}: {name} on the unbounded line: {line}"
            );
        }
    }
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let Value::Obj(fields) = &result else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.field("correct").expect("correct"),
        &Value::Bool(true)
    );
    assert!(
        result
            .field("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let Ok(Value::Obj(metrics)) = result.field("metrics") else {
        panic!("metrics is an object")
    };
    let mut values = Vec::new();
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.field("value").and_then(Value::as_f64);
            assert!(value.is_ok(), "{name} has a value");
            values.push((name.clone(), value.expect("checked")));
            let unit = m.field("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    let mut want = listed(&spec, list);
    let mut got = printed;
    want.sort();
    got.sort();
    assert_eq!(
        got, want,
        "{workload} --trace {trace} prints exactly the {list} metrics"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("host {")),
        "host block printed"
    );
    values
}

/// Per-layer metrics each workload must measure as non-zero: the layers
/// it exists to run. (Every traced run prints every per-layer metric; a
/// layer a workload does not run reads 0.)
const MEASURED: [(&str, &[&str]); 4] = [
    (
        "resnet_single",
        &[
            "analysis.ms_per_query",
            "walk.spec_ms_per_query",
            "device.gbc.flops_per_query",
            "device.residual_merge.launches_per_query",
            "device.gbc.gflops",
            "bnb.splits_per_complete",
            "self_ms.analysis",
            "self_ms.walk",
        ],
    ),
    (
        "mlp_batch",
        &[
            "device.gemm_itv_f.flops_per_query",
            "device.gemm_itv_f.gflops",
            "analysis.ms_per_query",
            "self_ms.engine",
        ],
    ),
    (
        "mlp_hybrid2",
        &[
            "sharded.gather_misses_per_batch",
            "sharded.gather_evictions_per_batch",
            "sharded.comms_bytes_per_query",
            "device.comms.launches_per_query",
            "self_ms.sharded",
        ],
    ),
    (
        "serve_mixed",
        &[
            "loadgen.sent",
            "loadgen.completed",
            "registry.submit_ms_p50",
            "bnb.splits_per_complete",
            "self_ms.wire",
            "self_ms.registry",
        ],
    ),
];

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_metrics(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for (w, measured) in WORKLOADS.iter().zip(MEASURED) {
        assert_eq!(*w, measured.0);
        let values = check_metrics(w, "1", "per_layer");
        for name in measured.1 {
            let v = values.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            assert!(v.is_some_and(|v| v > 0.0), "{w}: {name} is measured: {v:?}");
        }
        if *w == "serve_mixed" {
            let batch = values.iter().find(|(n, _)| n == "registry.mean_batch");
            assert!(
                batch.is_some_and(|(_, b)| *b > 1.0),
                "serve_mixed: bursts coalesce: {batch:?}"
            );
        }
        // One unsharded device does all the flops; the hybrid pair splits them.
        let share = values
            .iter()
            .find(|(n, _)| n == "sharded.busiest_device_flops_share")
            .map(|(_, v)| *v);
        let want_split = *w == "mlp_hybrid2";
        assert!(
            share.is_some_and(|s| (s < 0.9) == want_split && s > 0.0),
            "{w}: busiest device flops share {share:?}"
        );
    }
}

#[test]
fn the_gate_trips_on_a_perturbed_margin() {
    for w in WORKLOADS {
        let (ok, stdout, stderr) = run(w, "0", &["--perturb-margin"]);
        assert!(!ok, "{w}: a perturbed margin must fail the run");
        assert!(
            stderr.contains("correctness gate failed") && stderr.contains("differ from oracle"),
            "{w}: the gate names the mismatch: {stderr}"
        );
        assert!(
            !stdout.contains("\"correct\""),
            "{w}: a failed run reports no numbers"
        );
    }
}
