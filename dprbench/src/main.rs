//! `dprbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context lines, then one JSON result object as the last line
//! of standard output. A traced run also writes its spans as Chrome
//! trace-event JSON under `$CARGO_TARGET_DIR/dprbench/` (default
//! `target/dprbench/`).

use std::process::ExitCode;

use dprbench::measure::{run, Config};
use dprbench::workload::Kind;

fn usage(msg: &str) -> ExitCode {
    eprintln!("dprbench: {msg}");
    eprintln!(
        "usage: dprbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(kind) = arg("--workload").and_then(Kind::parse) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = arg("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or malformed --seed");
    };
    let Some(seconds) = arg("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("missing or non-positive --seconds");
    };
    let trace = match arg("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace takes 0 or 1"),
    };
    // The bus sanitizer that RVCAP_STRICT attaches changes host time
    // but not simulated cycles; numbers taken under it are not
    // comparable with the baseline.
    if std::env::var("RVCAP_STRICT").is_ok_and(|v| !v.is_empty() && v != "0") {
        return usage("refusing to measure with RVCAP_STRICT set (the sanitizer skews host time)");
    }

    let cfg = Config {
        kind,
        seed,
        seconds,
        trace,
    };
    let report = run(&cfg);
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if trace {
        let dir = std::path::PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
        )
        .join("dprbench");
        let path = dir.join(format!("trace-{}-seed{seed}.json", kind.name()));
        let meta: Vec<(String, String)> = [
            ("workload", kind.name().to_string()),
            ("seed", seed.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(
            report
                .notes
                .iter()
                .enumerate()
                .map(|(i, n)| (format!("note{i}"), n.clone())),
        )
        .collect();
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report.tracer.to_chrome_json(&meta)))
        {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
