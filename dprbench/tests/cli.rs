//! Short runs of the benchmark binary: each workload prints every
//! metric `BENCHMARK.json` names, with its unit, and checks its ops.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["dma_reconfig", "accel_stream", "mmio_reconfig", "sd_stage"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|obj| (string_field(obj, "name"), string_field(obj, "unit")))
        .collect()
}

fn string_field(obj: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat).unwrap_or_else(|| panic!("{key} in {obj}")) + pat.len();
    let len = obj[start..].find('"').expect("closing quote");
    obj[start..start + len].to_string()
}

/// The result line's `correct`, `attempted`, `failed` and
/// `(name, value, unit)` metrics.
struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn parse_result(line: &str) -> Result {
    let num = |key: &str| -> u64 {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat).expect(key) + pat.len();
        let end = start + line[start..].find(',').expect("comma");
        line[start..end].parse().expect("integer")
    };
    let body_start = line.find("\"metrics\":{").expect("metrics") + "\"metrics\":{".len();
    let body = &line[body_start..line.len() - 2];
    let metrics = body
        .split("\"},")
        .map(|entry| {
            let name = entry
                .trim_start_matches('"')
                .split('"')
                .next()
                .expect("name");
            let v_start = entry.find("\"value\":").expect("value") + "\"value\":".len();
            let v_end = entry.find(",\"unit\"").expect("unit");
            let unit = entry.rsplit("\"unit\":\"").next().expect("unit");
            (
                name.to_string(),
                entry[v_start..v_end].parse().expect("number"),
                unit.trim_end_matches("\"}").to_string(),
            )
        })
        .collect();
    Result {
        correct: line.contains("\"correct\":true"),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    }
}

fn run(workload: &str, trace: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dprbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            trace,
        ])
        .env_remove("RVCAP_STRICT")
        .output()
        .expect("run dprbench")
}

#[test]
fn short_runs_print_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty(), "{section} declares metrics");
        for workload in WORKLOADS {
            let out = run(workload, trace);
            assert!(out.status.success(), "{workload} --trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let last = stdout.lines().last().expect("a result line");
            let r = parse_result(last);
            assert!(
                r.correct && r.failed == 0 && r.attempted >= 1,
                "{workload}: {last}"
            );
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace} metrics");
            assert!(r.metrics.iter().all(|(_, v, _)| v.is_finite()), "{last}");
            if trace == "1" {
                // The host-time account closes: per-layer self times
                // plus the residual equal the traced op wall time.
                let value = |name: &str| {
                    r.metrics
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map(|m| m.1)
                        .expect(name)
                };
                let self_ms: f64 = r
                    .metrics
                    .iter()
                    .filter(|(n, _, _)| n.ends_with(".self_ms"))
                    .map(|m| m.1)
                    .sum();
                let wall = value("sim.traced_op_ms");
                let rows = self_ms + value("sim.outside_tick_ms");
                assert!(
                    (rows - wall).abs() <= 1e-9 * wall.max(1.0),
                    "{rows} != {wall}"
                );
                assert!(
                    stdout.contains("trace written to"),
                    "{workload}: no trace file"
                );
            }
        }
    }
}

#[test]
fn refuses_to_measure_under_the_strict_sanitizer() {
    let out = Command::new(env!("CARGO_BIN_EXE_dprbench"))
        .args([
            "--workload",
            "dma_reconfig",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("RVCAP_STRICT", "1")
        .output()
        .expect("run dprbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line under RVCAP_STRICT");
}

#[test]
fn rejects_unknown_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_dprbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run dprbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
