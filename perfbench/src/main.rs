//! Command-line entry of the repository benchmark; the workloads, metrics
//! and layer map are documented in the library (`src/lib.rs`).
//!
//! ```text
//! perfbench --workload <hybrid-paper|xorator-paper|wire-rw> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, then the result as one JSON line on standard output.
//! Exits non-zero, printing no result, when the arguments are wrong or a
//! set-up step fails.

use std::process::ExitCode;

use perfbench::{Config, Scale, Workload};

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::HybridPaper,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Paper,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&cfg) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for e in &report.tally.errors {
                println!("# failed: {e}");
            }
            for (name, value, unit) in &report.metrics {
                println!("# {name} = {value} {unit}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
