//! The fleet's headline guarantee, pinned as tests: an 8-worker fleet
//! produces byte-identical per-run records and merged trace to a
//! sequential execution of the same specs — plus compile-time `Send +
//! Sync` assertions for every type that crosses a worker boundary, and
//! property tests over the retry/backoff schedule.

use eclair_fleet::{
    derive_seed, specs_for_tasks, Fleet, FleetConfig, RetryPolicy, RunOutcome, RunSpec,
};
use eclair_fm::FmProfile;
use eclair_sites::all_tasks;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Compile-time assertions: if any of these types loses `Send + Sync`,
/// fleet parallelism silently dies — so make it a build failure instead.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<eclair_sites::TaskSpec>();
    assert_send_sync::<eclair_core::execute::executor::ExecConfig>();
    assert_send_sync::<eclair_fm::FmProfile>();
    assert_send_sync::<eclair_fm::ModelProfile>();
    assert_send_sync::<eclair_workflow::Sop>();
    assert_send_sync::<RunSpec>();
    assert_send_sync::<eclair_fleet::RunRecord>();
    assert_send_sync::<eclair_fleet::CancelToken>();
};

fn suite_specs(fleet_seed: u64) -> Vec<RunSpec> {
    specs_for_tasks(fleet_seed, all_tasks(), FmProfile::Gpt4V)
}

#[test]
fn eight_workers_match_sequential_byte_for_byte() {
    let fleet = Fleet::new(FleetConfig {
        workers: 8,
        queue_capacity: 4,
        retry: RetryPolicy::default(),
        fleet_seed: 2024,
    });
    let par = fleet.run(suite_specs(2024)).expect("parallel run");
    let seq = fleet
        .run_sequential(suite_specs(2024))
        .expect("sequential run");

    assert_eq!(par.outcome.records.len(), all_tasks().len());
    // Per-run records, including RunResult/summary/tokens, byte-identical.
    assert_eq!(par.outcome.to_json(), seq.outcome.to_json());
    // Merged trace JSONL byte-identical.
    assert_eq!(
        par.merged_trace_jsonl().unwrap(),
        seq.merged_trace_jsonl().unwrap()
    );
    // And the fleet actually exercised concurrency metadata.
    assert_eq!(par.timing.workers, 8);
    // A GPT-4 fleet over the full suite both succeeds and retries.
    assert!(par.outcome.succeeded > 0, "{:?}", par.outcome.latency_steps);
    assert!(par.outcome.retries_total > 0);
    assert!(par.outcome.tokens.total_tokens() > 0);
    assert!(par.outcome.cost_usd > 0.0);
}

#[test]
fn repeated_concurrent_runs_are_identical() {
    let fleet = Fleet::new(FleetConfig {
        workers: 8,
        queue_capacity: 2,
        fleet_seed: 31,
        ..FleetConfig::default()
    });
    let specs: Vec<RunSpec> = specs_for_tasks(
        31,
        all_tasks().into_iter().take(10).collect(),
        FmProfile::Gpt4V,
    );
    let a = fleet.run(specs.clone()).expect("first run");
    let b = fleet.run(specs).expect("second run");
    assert_eq!(a.outcome.to_json(), b.outcome.to_json());
    assert_eq!(
        a.merged_trace_jsonl().unwrap(),
        b.merged_trace_jsonl().unwrap()
    );
}

#[test]
fn different_fleet_seeds_change_outputs() {
    let mk = |seed| {
        let fleet = Fleet::new(FleetConfig {
            workers: 2,
            fleet_seed: seed,
            ..FleetConfig::default()
        });
        fleet
            .run(specs_for_tasks(
                seed,
                all_tasks().into_iter().take(6).collect(),
                FmProfile::Gpt4V,
            ))
            .expect("run")
            .outcome
            .to_json()
    };
    assert_ne!(mk(1), mk(2), "the seed must matter");
}

#[test]
fn budget_and_deadline_outcomes_survive_concurrency() {
    let tasks: Vec<_> = all_tasks().into_iter().take(4).collect();
    let specs: Vec<RunSpec> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            // Unsatisfiable predicate: every run must end via its budget.
            t.success = eclair_sites::SuccessCheck::probes(&[("never", "true")]);
            let spec = RunSpec::for_task(77, i as u64, t, FmProfile::Gpt4V);
            if i % 2 == 0 {
                spec.with_token_budget(1)
            } else {
                spec.with_deadline_steps(1)
            }
        })
        .collect();
    let fleet = Fleet::new(FleetConfig {
        workers: 4,
        retry: RetryPolicy::none(),
        fleet_seed: 77,
        ..FleetConfig::default()
    });
    let par = fleet.run(specs.clone()).expect("parallel run");
    let seq = fleet.run_sequential(specs).expect("sequential run");
    assert_eq!(par.outcome.to_json(), seq.outcome.to_json());
    for (i, r) in par.outcome.records.iter().enumerate() {
        let expect = if i % 2 == 0 {
            RunOutcome::BudgetExceeded
        } else {
            RunOutcome::DeadlineExceeded
        };
        assert_eq!(r.outcome, expect, "run {i}");
    }
}

proptest! {
    /// The nominal backoff schedule is monotone non-decreasing and never
    /// exceeds the cap.
    #[test]
    fn backoff_schedule_is_monotone_and_bounded(
        max_attempts in 1u32..12,
        base in 1u64..100,
        cap in 1u64..10_000,
        mult_milli in 1000u64..4000,
    ) {
        let p = RetryPolicy {
            max_attempts,
            base_delay_steps: base,
            max_delay_steps: cap,
            multiplier: mult_milli as f64 / 1000.0,
            jitter: 0.0,
        };
        let sched = p.nominal_schedule();
        prop_assert_eq!(sched.len() as u32, max_attempts - 1);
        for w in sched.windows(2) {
            prop_assert!(w[1] >= w[0], "schedule must be monotone: {:?}", sched);
        }
        for d in &sched {
            prop_assert!(*d <= cap, "delay {} exceeds cap {}", d, cap);
        }
    }

    /// Jittered delays stay within `[nominal*(1-jitter), nominal]` for
    /// arbitrary seeds and retry indices.
    #[test]
    fn jittered_delays_stay_in_band(
        seed in 0u64..1_000_000_000,
        retry in 1u32..10,
        jitter_milli in 0u64..1000,
    ) {
        let p = RetryPolicy {
            jitter: jitter_milli as f64 / 1000.0,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let nominal = p.nominal_delay(retry);
        let d = p.jittered_delay(retry, &mut rng);
        prop_assert!(d <= nominal);
        let floor = (nominal as f64 * (1.0 - p.jitter)).floor() as u64;
        prop_assert!(d >= floor.saturating_sub(1), "d={} floor={}", d, floor);
    }

    /// Seed derivation is injective-enough in practice: distinct run ids
    /// under one fleet seed never collide in a small window.
    #[test]
    fn derived_seeds_do_not_collide_locally(fleet_seed in 0u64..1_000_000_000) {
        let mut seen = std::collections::HashSet::new();
        for run_id in 0..64u64 {
            prop_assert!(seen.insert(derive_seed(fleet_seed, run_id)));
        }
    }
}
