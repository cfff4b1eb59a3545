//! The ECLAIR benchmark. See README.md for the workloads, metrics and
//! bounds.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Prints every metric as `name value unit`, then, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when a correctness check fails or the timed legs take longer than
//! `--seconds`, 2 on bad arguments. `all` runs each workload in its own
//! process, so `peak_rss_mb` stays per workload.

mod agent_load;
mod fleet_load;
mod layers;
mod legs;
mod metrics;
mod stats;

use std::process::ExitCode;

use legs::{Plan, Workload};

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// Distinct passes the timed legs cycle through: 3 × 384 runs keeps 11
/// latency samples beyond p99.
const PASSES: usize = 3;
/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 2024,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Run each workload in a child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        println!("## {}", workload.name());
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: {s}", workload.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!(
            "unknown workload {}; one of: all, {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setups: SETUPS,
        passes: PASSES,
        rounds: workload.rounds(),
        max_tasks: None,
    };
    let mut out = match legs::run(workload, &plan) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !plan.trace && stats::beyond(99.0, out.latency_samples) < stats::MIN_BEYOND {
        out.errors.push(format!(
            "{} latency samples are too few for p99 with {} beyond it",
            out.latency_samples,
            stats::MIN_BEYOND
        ));
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let mut json = Vec::new();
    for &(name, value, unit) in &out.metrics {
        println!("{name} {value} {unit}");
        if !value.is_finite() {
            out.errors.push(format!("{name} is not a finite number"));
        }
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &out.errors {
        eprintln!("FAIL: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
