//! Fleet-wide shared perception cache bench: execute the 30-task suite
//! twice on one [`Fleet`] — the second pass is the "re-run" a real fleet
//! performs constantly (replays, retries, sibling runs on the same
//! sites), served entirely from the shards filled by the first — and
//! twice on a fresh fleet per pass (the per-instance baseline: run seeds
//! differ, so pass 2 recomputes every percept).
//! A third leg runs seed-identical replica specs on 8 workers to
//! exercise single-flight dedup under real contention. Proves all legs
//! are byte-identical in outcomes and traces (shared-cache transparency)
//! and emits `BENCH_shared.json`.
//!
//! Usage:
//!   shared_bench [--out BENCH_shared.json] [--metrics-out PATH]
//!
//! The artifact contains ONLY deterministic quantities. Sequential legs
//! report exact shard counters; the parallel leg reports only
//! scheduling-independent aggregates (`hits + coalesced` is fixed by the
//! workload even though the split between them is not — see
//! `eclair_shared::StatsSnapshot`). Two back-to-back invocations produce
//! byte-identical files (CI diffs a fresh one against the committed
//! bytes). Wall-clock goes to stdout and is deliberately never serialized.

use std::process::ExitCode;

use eclair_bench::{finish, fleet_metrics, suite_specs, Args, RunBytes};
use eclair_core::execute::GroundingStrategy;
use eclair_fleet::{Fleet, FleetConfig, FleetReport, RunSpec};
use eclair_fm::FmProfile;
use eclair_trace::perf;
use serde::Serialize;

/// The two sequential passes of one leg, plus everything the
/// transparency comparison needs.
struct Leg {
    first: FleetReport,
    second: FleetReport,
    wall_ms: f64,
}

/// Shard-level books for the sequential shared leg (fully deterministic:
/// one thread, so the hit/coalesce split cannot vary).
#[derive(Debug, Serialize)]
struct SharedLegJson {
    /// Percepts computed across both passes (== unique percepts: the
    /// second pass recomputes nothing).
    percepts_computed: u64,
    /// Second-pass lookups served straight from the shards.
    cross_run_hits: u64,
    /// `cross_run_hits / second-pass lookups`.
    cross_run_hit_rate: f64,
    /// FIFO evictions across both passes.
    evictions: u64,
    /// Tokens the shared layer re-accounted instead of recomputing
    /// (quarantined counter; identical meters either way).
    cross_run_cached_tokens: u64,
}

/// The per-instance baseline: same suite, same two passes, each on a
/// fresh fleet. Every percept the second pass needs is recomputed from
/// scratch.
#[derive(Debug, Serialize)]
struct BaselineLegJson {
    /// Percepts computed across both passes (the percept-cache misses of
    /// both passes — double the shared leg's unique count).
    percepts_computed: u64,
    /// By construction: no state outlives a run's own model instance.
    cross_run_hits: u64,
    cross_run_hit_rate: f64,
}

/// The 8-worker replica leg: every task submitted twice at the same run
/// seed. Only scheduling-independent aggregates serialize.
#[derive(Debug, Serialize)]
struct ReplicaLegJson {
    workers: usize,
    /// Lookups served without recomputing (`hits + coalesced`; the split
    /// is scheduling-dependent, the sum is not).
    served_without_compute: u64,
    /// Unique percepts computed (single-flight leaders).
    percepts_computed: u64,
    /// The replica fleet's records and trace match a sequential
    /// execution of the same specs byte-for-byte.
    matches_sequential: bool,
}

/// The whole artifact. Deterministic by construction: no wall-clock, no
/// host facts, no racy counter splits.
#[derive(Debug, Serialize)]
struct SharedBenchJson {
    suite_tasks: usize,
    seed: u64,
    /// All four sequential reports (one fleet / a fresh fleet per pass x
    /// pass 1/2) serialize identical records JSON.
    outcomes_identical: bool,
    /// ... and identical merged trace JSONL.
    traces_identical: bool,
    shared: SharedLegJson,
    per_instance: BaselineLegJson,
    replicas: ReplicaLegJson,
}

fn suite(seed: u64, tasks: usize) -> Vec<RunSpec> {
    suite_specs(seed, tasks, 1, FmProfile::Gpt4V)
        .into_iter()
        .map(|mut s| {
            // Native grounding perceives every frame it clicks through (the
            // SoM-HTML default reads ground-truth boxes and never calls the
            // perception model), so this leg exercises the shared layer the
            // way a perception-bound fleet would.
            s.config.strategy = GroundingStrategy::Native;
            s
        })
        .collect()
}

/// Each task twice at an *identical* run seed (the duplicate re-uses the
/// original's seed under a fresh run id): maximal shared redundancy, the
/// single-flight layer's natural prey.
fn replica_suite(seed: u64, tasks: usize) -> Vec<RunSpec> {
    let firsts = suite(seed, tasks);
    let n = firsts.len() as u64;
    let mut specs = Vec::with_capacity(2 * firsts.len());
    for s in &firsts {
        let mut twin = s.clone();
        twin.run_id = s.run_id + n;
        specs.push(s.clone());
        specs.push(twin);
    }
    specs.sort_by_key(|s| s.run_id);
    specs
}

fn fleet(seed: u64, workers: usize) -> Fleet {
    Fleet::new(FleetConfig::default().with_workers(workers).with_seed(seed))
}

/// Two sequential passes of the suite, each on a fresh fleet (so the
/// second pass finds nothing the first left behind).
fn fresh_leg(seed: u64, tasks: usize) -> Leg {
    let started = std::time::Instant::now();
    let pass = || {
        fleet(seed, 1)
            .run_sequential(suite(seed, tasks))
            .expect("pass")
    };
    let first = pass();
    let second = pass();
    Leg {
        first,
        second,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

fn main() -> ExitCode {
    let args = Args::parse(&["--out", "--metrics-out"]);
    let seed = 2024u64;
    let tasks = 30;
    println!(
        "shared_bench: {tasks} tasks x 2 passes, one fleet vs a fresh fleet per pass, seed {seed}"
    );

    // Shared leg: pass 1 fills the shards, pass 2 harvests them.
    perf::reset();
    let on_fleet = fleet(seed, 1);
    let after_none = on_fleet.shared_cache().stats();
    assert_eq!(after_none, Default::default(), "fresh fleet, empty books");
    let on = {
        let started = std::time::Instant::now();
        let first = on_fleet.run_sequential(suite(seed, tasks)).expect("pass 1");
        let mid = on_fleet.shared_cache().stats();
        let second = on_fleet.run_sequential(suite(seed, tasks)).expect("pass 2");
        (
            Leg {
                first,
                second,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
            },
            mid,
        )
    };
    let (on_leg, mid) = on;
    let end = on_fleet.shared_cache().stats();
    let on_counters = perf::snapshot();
    let pass2_lookups = (end.hits + end.misses) - (mid.hits + mid.misses);
    let cross_run_hits = end.hits - mid.hits;
    let shared_json = SharedLegJson {
        percepts_computed: end.misses,
        cross_run_hits,
        cross_run_hit_rate: if pass2_lookups == 0 {
            0.0
        } else {
            cross_run_hits as f64 / pass2_lookups as f64
        },
        evictions: end.evictions,
        cross_run_cached_tokens: on_counters.shared_cached_tokens,
    };

    // Per-instance baseline: same fleet shape, a fresh fleet per pass.
    // Run seeds differ, so no percept outlives its own run.
    perf::reset();
    let off_leg = fresh_leg(seed, tasks);
    let off_counters = perf::snapshot();
    let baseline_json = BaselineLegJson {
        percepts_computed: off_counters.perceive_memo_misses,
        cross_run_hits: 0,
        cross_run_hit_rate: 0.0,
    };

    // Replica leg: 8 workers over seed-identical twins. Single-flight
    // and shard hits split by scheduling; their sum does not.
    let rep_fleet = fleet(seed, 8);
    let rep = rep_fleet
        .run(replica_suite(seed, tasks))
        .expect("replica run");
    let rep_stats = rep_fleet.shared_cache().stats();
    let rep_seq = fleet(seed, 1)
        .run_sequential(replica_suite(seed, tasks))
        .expect("replica sequential");
    let matches_sequential = RunBytes::of(&rep) == RunBytes::of(&rep_seq);
    let replicas_json = ReplicaLegJson {
        workers: 8,
        served_without_compute: rep_stats.hits + rep_stats.coalesced,
        percepts_computed: rep_stats.misses,
        matches_sequential,
    };

    // Transparency across every sequential leg: cross-run hits must be
    // unobservable in records and traces alike.
    let base_json = on_leg.first.outcome.to_json();
    let base_trace = on_leg.first.merged_trace_jsonl().expect("trace");
    let outcomes_identical = [&on_leg.second, &off_leg.first, &off_leg.second]
        .iter()
        .all(|r| r.outcome.to_json() == base_json);
    let traces_identical = [&on_leg.second, &off_leg.first, &off_leg.second]
        .iter()
        .all(|r| r.merged_trace_jsonl().expect("trace") == base_trace);

    println!(
        "shared on : {:.1} ms, {} unique percepts, pass-2 hits {}/{} ({:.0}%), {} cached tokens",
        on_leg.wall_ms,
        shared_json.percepts_computed,
        shared_json.cross_run_hits,
        pass2_lookups,
        100.0 * shared_json.cross_run_hit_rate,
        shared_json.cross_run_cached_tokens,
    );
    println!(
        "per-run   : {:.1} ms, {} percepts recomputed (cross-run hit rate 0 by construction)",
        off_leg.wall_ms, baseline_json.percepts_computed,
    );
    println!(
        "replicas  : 8 workers, {} served without compute ({} hits + {} coalesced, split is stdout-only), {} computed",
        replicas_json.served_without_compute,
        rep_stats.hits,
        rep_stats.coalesced,
        replicas_json.percepts_computed,
    );
    println!(
        "speedup   : {:.2}x on the two-pass suite (stdout only, not serialized)",
        off_leg.wall_ms / on_leg.wall_ms.max(1e-9)
    );
    println!(
        "transparency: outcomes {}, traces {}",
        if outcomes_identical {
            "identical"
        } else {
            "DIVERGED"
        },
        if traces_identical {
            "identical"
        } else {
            "DIVERGED"
        },
    );

    let artifact = SharedBenchJson {
        suite_tasks: tasks,
        seed,
        outcomes_identical,
        traces_identical,
        shared: shared_json,
        per_instance: baseline_json,
        replicas: replicas_json,
    };
    args.write_artifact("BENCH_shared.json", &artifact);
    // Snapshot the shared leg: fleet totals plus its quarantined perf
    // counters (pure in the seed).
    let mut metrics = fleet_metrics(&on_leg.first.outcome, &on_leg.first.merged_trace);
    metrics.absorb_perf(&on_counters);
    args.write_metrics(&metrics);

    let (shared, replicas) = (&artifact.shared, &artifact.replicas);
    let mut failed = Vec::new();
    if !outcomes_identical || !traces_identical {
        failed.push("the shared cache changed observable behavior".to_string());
    }
    if !replicas.matches_sequential {
        failed.push("8-worker replica run diverged from sequential".to_string());
    }
    if shared.cross_run_hit_rate <= artifact.per_instance.cross_run_hit_rate {
        failed.push(format!(
            "shared cross-run hit rate {:.2} not above the per-instance baseline {:.2}",
            shared.cross_run_hit_rate, artifact.per_instance.cross_run_hit_rate
        ));
    }
    if shared.cross_run_hit_rate < 0.95 {
        failed.push(format!(
            "cross-run hit rate {:.2} below the 0.95 floor (a re-executed suite should be fully resident)",
            shared.cross_run_hit_rate
        ));
    }
    if replicas.served_without_compute == 0 {
        failed.push("the replica fleet never hit the shared layer".to_string());
    }
    finish(failed)
}
