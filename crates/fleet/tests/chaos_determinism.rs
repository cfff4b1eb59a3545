//! End-to-end determinism of chaos fleets.
//!
//! The fleet's contract — concurrency changes wall-clock, never outcomes —
//! must survive fault injection: the fault schedule is a pure function of
//! `(chaos_seed, run_id, step)`, so a chaos fleet's serialized outcome and
//! merged trace must be byte-identical across repeated runs *and* across
//! worker counts. This is the same property the CI `bench` job checks
//! from the outside by comparing two `chaos_bench` determinism dumps.

use eclair_chaos::ChaosProfile;
use eclair_fleet::{Fleet, FleetConfig, FleetReport, RetryPolicy, RunSpec};
use eclair_fm::FmProfile;
use eclair_sites::all_tasks;
use eclair_trace::EventKind;

const FLEET_SEED: u64 = 4242;
const CHAOS_SEED: u64 = 99;

fn chaos_specs(profile: FmProfile) -> Vec<RunSpec> {
    all_tasks()
        .into_iter()
        .take(6)
        .enumerate()
        .map(|(i, t)| {
            RunSpec::for_task(FLEET_SEED, i as u64, t, profile)
                .with_chaos(ChaosProfile::full(CHAOS_SEED, 0.35))
        })
        .collect()
}

fn run_with_workers(workers: usize) -> FleetReport {
    let fleet = Fleet::new(FleetConfig {
        workers,
        queue_capacity: 2,
        retry: RetryPolicy::default(),
        fleet_seed: FLEET_SEED,
    });
    fleet.run(chaos_specs(FmProfile::Gpt4V)).expect("run")
}

#[test]
fn chaos_fleet_is_byte_identical_across_runs_and_worker_counts() {
    let sequential = Fleet::new(FleetConfig {
        workers: 1,
        fleet_seed: FLEET_SEED,
        ..FleetConfig::default()
    })
    .run_sequential(chaos_specs(FmProfile::Gpt4V))
    .expect("sequential run");
    let json = sequential.outcome.to_json();
    let trace = sequential.merged_trace_jsonl().unwrap();

    for workers in [1, 4] {
        let report = run_with_workers(workers);
        assert_eq!(
            report.outcome.to_json(),
            json,
            "chaos outcome must not depend on {workers}-worker scheduling"
        );
        assert_eq!(
            report.merged_trace_jsonl().unwrap(),
            trace,
            "chaos merged trace must not depend on {workers}-worker scheduling"
        );
    }

    // Same config run again: byte-identical, not merely equivalent.
    let again = run_with_workers(4);
    assert_eq!(again.outcome.to_json(), json);
    assert_eq!(again.merged_trace_jsonl().unwrap(), trace);
}

#[test]
fn chaos_fleet_records_injections_in_records_and_trace() {
    let report = run_with_workers(4);
    let total_faults = report.outcome.faults_injected_total();
    assert!(
        total_faults > 0,
        "a 0.35 fault rate over 6 runs must inject something"
    );
    let traced = report
        .merged_trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .count() as u64;
    assert_eq!(
        traced, total_faults,
        "every counted injection must appear as a FaultInjected trace event"
    );
}

#[test]
fn oracle_under_chaos_still_completes_most_tasks() {
    // The upgraded recovery path (modal escape, re-grounding, re-login)
    // should let a perfect grounder absorb a moderate fault rate.
    let fleet = Fleet::new(FleetConfig {
        workers: 2,
        fleet_seed: FLEET_SEED,
        ..FleetConfig::default()
    });
    let report = fleet.run(chaos_specs(FmProfile::Oracle)).expect("run");
    assert!(
        report.outcome.succeeded >= 4,
        "oracle under 0.35 chaos: {}/6 succeeded",
        report.outcome.succeeded
    );
}
