//! Runs every workload at smoke size through the real binary, in both
//! driver modes, and holds the output to `BENCHMARK.json`: every listed
//! metric emitted exactly once, with its unit and a finite value, and
//! nothing else.

use std::process::Command;

use tesseract_tensor::trace::json::{parse, Value};

const BIN: &str = env!("CARGO_BIN_EXE_tesseract-benchmark");

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of the contract.
fn listed(contract: &Value, section: &str) -> Vec<(String, String)> {
    contract
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{section} missing"))
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one driver-mode invocation and returns its parsed result line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.6", "--trace", trace])
        .args(["--smoke", "--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result line does not parse ({e}): {last}"))
}

fn check(workload: &str) {
    let contract = contract();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        let Value::Obj(fields) = &result else { panic!("result is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}: outputs wrong");
        assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));

        let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("metrics missing") };
        let want = listed(&contract, section);
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(got, names, "{workload} --trace {trace}: metric names differ from {section}");
        for ((name, unit), (_, m)) in want.iter().zip(metrics) {
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} is not finite");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
            if section == "end_to_end" {
                assert!(value > 0.0, "{workload}: end-to-end metric {name} must never be 0");
            }
        }
    }
    {
        let trace = format!("{}/trace.{workload}.json", env!("CARGO_TARGET_TMPDIR"));
        let text = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
        let doc = parse(&text).expect("span trace parses");
        assert!(doc.get("traceEvents").and_then(Value::as_array).is_some_and(|e| !e.is_empty()));
    }
}

#[test]
fn train_gemm_smoke() {
    check("train_gemm");
}

#[test]
fn train_comm_smoke() {
    check("train_comm");
}

#[test]
fn serve_open_smoke() {
    check("serve_open");
}

#[test]
fn plan_paper64_smoke() {
    check("plan_paper64");
}

#[test]
fn a_child_that_cannot_run_prints_no_record() {
    // Bad input makes the child exit non-zero before measuring; the parent
    // counts such a child as one failed operation (see `rep::run_child`).
    let out = Command::new(BIN)
        .args(["--child", "timed", "--workload", "train_comm", "--seconds", "-1"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a failed child prints no record");
}

#[test]
fn crate_is_formatted() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let out = Command::new("cargo")
        .args(["fmt", "--check", "--manifest-path", manifest])
        .output()
        .expect("cargo fmt runs");
    assert!(out.status.success(), "cargo fmt --check: {}", String::from_utf8_lossy(&out.stdout));
}
