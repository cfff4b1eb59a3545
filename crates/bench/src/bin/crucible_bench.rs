//! Crucible sweep: run a fixed grid of generated scenarios through the
//! fleet, evaluate the full oracle registry on each, and emit a
//! byte-reproducible `BENCH_crucible.json`.
//!
//! Usage:
//!   crucible_bench [--out BENCH_crucible.json]
//!
//! The artifact carries no wall-clock — scenario counts, oracle-check
//! counts, violations, and an FNV-1a digest over every scenario's
//! serialized outcome — so two back-to-back invocations must produce
//! byte-identical files (CI diffs a fresh one against the committed
//! bytes). Any oracle violation exits 1 after printing the shrunk
//! reproduction.

use std::process::ExitCode;

use eclair_bench::{finish, Args};
use eclair_corpus::rng::fnv1a64;
use eclair_crucible::{evaluate, repro_snippet, run_scenario, shrink, Scenario};
use eclair_obs::MetricsRegistry;
use serde::Serialize;

/// The sweep's master seed: every scenario derives from it, so this one
/// number pins the whole artifact.
const MASTER_SEED: u64 = 0xEC1A_12C7_0C1B_1E00;

/// Scenarios in the sweep.
const SWEEP: u64 = 64;

/// One scenario's row in the artifact.
#[derive(Debug, Serialize)]
struct ScenarioRow {
    id: u64,
    seed: u64,
    tasks: usize,
    profile: String,
    chaos_rate: f64,
    workers: usize,
    succeeded: u64,
    failed: u64,
    faults_injected: u64,
    oracle_checks: usize,
    violations: usize,
}

/// The whole artifact. Deliberately wall-clock-free: byte-reproducible.
#[derive(Debug, Serialize)]
struct CrucibleBenchJson {
    master_seed: u64,
    scenarios_explored: usize,
    oracle_checks_evaluated: usize,
    violations: usize,
    violation_details: Vec<String>,
    /// FNV-1a over every scenario's serialized fleet outcome, in id
    /// order — two invocations of the same sweep must agree on every
    /// byte of every outcome, not just on the counters.
    outcome_digest: String,
    rows: Vec<ScenarioRow>,
}

fn main() -> ExitCode {
    let args = Args::parse(&["--out", "--metrics-out"]);
    println!("crucible_bench: {SWEEP}-scenario sweep, master seed 0x{MASTER_SEED:016x}");

    let mut rows = Vec::with_capacity(SWEEP as usize);
    let mut total_checks = 0usize;
    let mut violation_details = Vec::new();
    // Every scenario's serialized outcome, in id order, for the digest.
    let mut outcomes = String::new();
    let mut metrics = MetricsRegistry::new();

    for id in 0..SWEEP {
        let scenario = Scenario::generate(MASTER_SEED, id);
        let run = match run_scenario(&scenario) {
            Ok(run) => run,
            Err(e) => {
                // A malformed trace is itself a harness-level violation.
                violation_details.push(format!("scenario {id}: merge failed: {e}"));
                continue;
            }
        };
        let eval = evaluate(&run);
        total_checks += eval.checks;
        outcomes.push_str(&run.report.outcome.to_json());
        let o = &run.report.outcome;
        metrics.inc("crucible.scenarios", 1);
        metrics.inc("crucible.oracle_checks", eval.checks as u64);
        metrics.inc("crucible.violations", eval.violations.len() as u64);
        metrics.inc("fleet.succeeded", o.succeeded);
        metrics.inc("fleet.failed", o.failed);
        metrics.inc("chaos.faults_injected", o.faults_injected_total());
        rows.push(ScenarioRow {
            id,
            seed: scenario.seed,
            tasks: scenario.task_indices.len(),
            profile: scenario.profile.name().to_string(),
            chaos_rate: scenario.chaos_rate,
            workers: scenario.workers,
            succeeded: o.succeeded,
            failed: o.failed,
            faults_injected: o.faults_injected_total(),
            oracle_checks: eval.checks,
            violations: eval.violations.len(),
        });
        for v in &eval.violations {
            println!("VIOLATION scenario {id}: [{}] {}", v.oracle, v.detail);
            violation_details.push(format!("scenario {id}: [{}] {}", v.oracle, v.detail));
            // Shrink against the specific oracle that fired, then print
            // the paste-ready regression test.
            let oracle = v.oracle;
            let mut still_fires = |s: &Scenario| {
                run_scenario(s)
                    .map(|r| evaluate(&r).violations.iter().any(|w| w.oracle == oracle))
                    .unwrap_or(false)
            };
            let minimal = shrink(&scenario, &mut still_fires, 100).minimal;
            println!("shrunk reproduction:");
            println!("{}", repro_snippet(&minimal, oracle, Some(MASTER_SEED)));
        }
    }

    let violations = violation_details.len();
    let digest = fnv1a64(outcomes.as_bytes());
    println!(
        "{} scenarios, {} oracle checks, {} violations, outcome digest {digest:016x}",
        rows.len(),
        total_checks,
        violations
    );

    let artifact = CrucibleBenchJson {
        master_seed: MASTER_SEED,
        scenarios_explored: rows.len(),
        oracle_checks_evaluated: total_checks,
        violations,
        violation_details,
        outcome_digest: format!("{digest:016x}"),
        rows,
    };
    args.write_artifact("BENCH_crucible.json", &artifact);
    args.write_metrics(&metrics);
    finish((violations > 0).then(|| format!("{violations} oracle violations across the sweep")))
}
