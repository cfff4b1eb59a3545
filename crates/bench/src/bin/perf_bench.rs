//! GUI→FM hot-path cache bench: run the 30-task suite twice per leg —
//! once through the fleet executor (the Execute hot path, frame-cache
//! heavy) and once through the full agent pipeline at the WD+KF evidence
//! level (Demonstrate → Execute → Validate, perception-memo heavy) — with
//! the caches on, then again under `ECLAIR_NO_CACHE=1`. Proves the two
//! legs are byte-identical (cache transparency) and emits
//! `BENCH_perf.json`.
//!
//! Usage:
//!   perf_bench [--out BENCH_perf.json]
//!
//! The artifact contains ONLY deterministic quantities — the quarantined
//! `eclair_trace::perf` counters, the transparency verdicts, and the
//! allocation micro-counts — so two back-to-back invocations produce
//! byte-identical files (the CI perf-smoke job diffs them). Wall-clock
//! speedup is printed to stdout and deliberately never serialized.
//! `ECLAIR_FAST=1` shrinks the suite for CI.

use eclair_bench::{emit_metrics, fast_mode, fleet_metrics, summary_metrics, SweepResult};
use eclair_core::demonstrate::EvidenceLevel;
use eclair_core::{Eclair, EclairConfig};
use eclair_fleet::{Fleet, FleetConfig, FleetReport, RetryPolicy, RunSpec};
use eclair_fm::FmProfile;
use eclair_sites::all_tasks;
use eclair_trace::perf::{self, PerfCounters};
use serde::Serialize;

/// The counters one leg of the sweep produced.
#[derive(Debug, Serialize)]
struct LegJson {
    cache_enabled: bool,
    frame_cache_hits: u64,
    frame_cache_misses: u64,
    frame_cache_invalidations: u64,
    frame_cache_hit_rate: f64,
    relayouts_avoided: u64,
    relayouts_full: u64,
    layout_cache_hits: u64,
    intern_hits: u64,
    intern_misses: u64,
    /// High-water table size (gauge): distinct strings alive at leg end.
    intern_table_size: u64,
    perceive_memo_hits: u64,
    perceive_memo_misses: u64,
    perceive_memo_rate: f64,
    /// Tokens the memo served from cache — re-accounted identically into
    /// the meters (transparency), reported here for effectiveness only.
    cached_tokens: u64,
    fleet_succeeded: u64,
    fleet_failed: u64,
    pipeline_wins: usize,
    pipeline_total: usize,
}

/// Allocation micro-note for the trace export paths (satellite of the
/// same PR: `render_log` / `events_to_jsonl` now pre-size one buffer).
#[derive(Debug, Serialize)]
struct AllocJson {
    log_events_rendered: u64,
    log_allocations: u64,
    jsonl_events_rendered: u64,
    jsonl_allocations: u64,
    jsonl_events_per_allocation: f64,
}

/// The whole artifact. Deterministic by construction: no wall-clock, no
/// host facts — the same seed must serialize the same bytes anywhere.
#[derive(Debug, Serialize)]
struct PerfBenchJson {
    suite_tasks: usize,
    seed: u64,
    /// Cache-on and cache-off outcomes (fleet records + pipeline rollup)
    /// serialize identically.
    outcomes_identical: bool,
    /// Cache-on and cache-off traces are byte-identical.
    traces_identical: bool,
    cache_on: LegJson,
    cache_off: LegJson,
    trace_export: AllocJson,
}

/// Everything one leg produced, for the byte-comparison between legs.
struct Leg {
    fleet: FleetReport,
    fleet_trace: String,
    pipeline: SweepResult,
    counters: PerfCounters,
    wall_ms: f64,
}

fn fleet_specs(fleet_seed: u64, tasks: usize) -> Vec<RunSpec> {
    all_tasks()
        .iter()
        .take(tasks)
        .enumerate()
        .map(|(i, task)| RunSpec::for_task(fleet_seed, i as u64, task.clone(), FmProfile::Gpt4V))
        .collect()
}

/// `Eclair::automate` over the suite with ONE shared agent at the WD+KF
/// evidence level — the configuration whose Demonstrate phase actually
/// runs FM perception over key-frame pairs (WD+KF+ACT reads the action
/// log and never perceives), so the perception memo sees real traffic.
fn wdkf_sweep(n_tasks: usize, seed: u64) -> SweepResult {
    let tasks: Vec<_> = all_tasks().into_iter().take(n_tasks.max(1)).collect();
    let mut agent = Eclair::new(EclairConfig {
        seed,
        evidence: EvidenceLevel::WdKf,
        ..Default::default()
    });
    let mut wins = 0usize;
    for task in &tasks {
        if agent.automate(task).success {
            wins += 1;
        }
    }
    SweepResult {
        wins,
        total: tasks.len(),
        summary: agent.model().trace().summary(),
        jsonl: agent.model().trace().to_jsonl(),
    }
}

fn leg(tasks: usize, seed: u64, use_cache: bool) -> Leg {
    // The kill switch is the one knob that reaches every layer — session
    // construction, model construction, and the per-run executor config
    // all consult it — so the off leg runs exactly what a user setting
    // ECLAIR_NO_CACHE=1 would run.
    if use_cache {
        std::env::remove_var("ECLAIR_NO_CACHE");
    } else {
        std::env::set_var("ECLAIR_NO_CACHE", "1");
    }
    perf::reset();
    let started = std::time::Instant::now();
    let fleet = Fleet::new(FleetConfig {
        workers: 1,
        retry: RetryPolicy::default(),
        fleet_seed: seed,
        ..FleetConfig::default()
    })
    .run_sequential(fleet_specs(seed, tasks))
    .expect("sequential fleet sweep");
    let pipeline = wdkf_sweep(tasks, seed);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let counters = perf::snapshot();
    let fleet_trace = fleet.merged_trace_jsonl().expect("fleet trace");
    Leg {
        fleet,
        fleet_trace,
        pipeline,
        counters,
        wall_ms,
    }
}

fn leg_json(l: &Leg, cache_enabled: bool) -> LegJson {
    let c = &l.counters;
    LegJson {
        cache_enabled,
        frame_cache_hits: c.frame_cache_hits,
        frame_cache_misses: c.frame_cache_misses,
        frame_cache_invalidations: c.frame_cache_invalidations,
        frame_cache_hit_rate: c.frame_cache_hit_rate(),
        relayouts_avoided: c.relayouts_avoided,
        relayouts_full: c.relayouts_full,
        layout_cache_hits: c.layout_cache_hits,
        intern_hits: c.intern_hits,
        intern_misses: c.intern_misses,
        intern_table_size: c.intern_table_size,
        perceive_memo_hits: c.perceive_memo_hits,
        perceive_memo_misses: c.perceive_memo_misses,
        perceive_memo_rate: c.perceive_memo_rate(),
        cached_tokens: c.cached_tokens,
        fleet_succeeded: l.fleet.outcome.succeeded,
        fleet_failed: l.fleet.outcome.failed,
        pipeline_wins: l.pipeline.wins,
        pipeline_total: l.pipeline.total,
    }
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let seed = 2024u64;
    let tasks = if fast_mode() { 8 } else { 30 };
    println!("perf_bench: {tasks} tasks x (fleet execute + WD+KF pipeline), seed {seed}");

    let on = leg(tasks, seed, true);
    let off = leg(tasks, seed, false);
    std::env::remove_var("ECLAIR_NO_CACHE");

    // Transparency: the whole point of the cache design. Outcomes, flight
    // records, and rollups must not know whether the cache existed.
    let outcomes_identical = on.fleet.outcome.to_json() == off.fleet.outcome.to_json()
        && on.pipeline.wins == off.pipeline.wins
        && on.pipeline.summary == off.pipeline.summary;
    let traces_identical =
        on.fleet_trace == off.fleet_trace && on.pipeline.jsonl == off.pipeline.jsonl;

    // The off leg's jsonl exports ran with the counters live on this
    // thread; the alloc note reads that snapshot (identical by
    // construction to the on leg's — same events, same buffers).
    let export = perf::snapshot();
    let trace_export = AllocJson {
        log_events_rendered: export.log_events_rendered,
        log_allocations: export.log_allocations,
        jsonl_events_rendered: export.jsonl_events_rendered,
        jsonl_allocations: export.jsonl_allocations,
        jsonl_events_per_allocation: if export.jsonl_allocations == 0 {
            0.0
        } else {
            export.jsonl_events_rendered as f64 / export.jsonl_allocations as f64
        },
    };

    let c = &on.counters;
    println!(
        "cache on : {:.1} ms, frame hits {}/{} ({:.0}%), relayouts avoided {}/{}, memo hits {}/{} ({:.0}%), {} cached tokens",
        on.wall_ms,
        c.frame_cache_hits,
        c.frame_cache_hits + c.frame_cache_misses,
        100.0 * c.frame_cache_hit_rate(),
        c.relayouts_avoided,
        c.relayouts_avoided + c.relayouts_full,
        c.perceive_memo_hits,
        c.perceive_memo_hits + c.perceive_memo_misses,
        100.0 * c.perceive_memo_rate(),
        c.cached_tokens,
    );
    println!(
        "layout   : {} full walks, {} cache replays, {} interned strings",
        c.relayouts_full, c.layout_cache_hits, c.intern_table_size,
    );
    println!(
        "cache off: {:.1} ms (every frame rendered, every percept recomputed)",
        off.wall_ms
    );
    // Wall-clock is host-dependent, so it goes to stdout only — the JSON
    // artifact must stay byte-reproducible.
    println!(
        "speedup  : {:.2}x (stdout only, not serialized)",
        off.wall_ms / on.wall_ms.max(1e-9)
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

    let artifact = PerfBenchJson {
        suite_tasks: tasks,
        seed,
        outcomes_identical,
        traces_identical,
        cache_on: leg_json(&on, true),
        cache_off: leg_json(&off, false),
        trace_export,
    };
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_perf.json".to_string());
    std::fs::write(
        &out_path,
        serde_json::to_string(&artifact).expect("bench artifact serializes"),
    )
    .expect("write bench artifact");
    println!("wrote {out_path}");
    // Snapshot the cache-on leg: fleet + pipeline totals plus the leg's
    // own perf counters (pure in the seed either way).
    let mut metrics = fleet_metrics(&on.fleet.outcome, &on.fleet.merged_trace);
    summary_metrics(&mut metrics, &on.pipeline.summary);
    metrics.absorb_perf(&on.counters);
    emit_metrics(&metrics);

    if !outcomes_identical || !traces_identical {
        eprintln!("FAIL: caching changed observable behavior");
        std::process::exit(1);
    }
    if artifact.cache_on.frame_cache_hit_rate < 0.30 {
        eprintln!(
            "FAIL: frame-cache hit rate {:.2} below the 0.30 floor",
            artifact.cache_on.frame_cache_hit_rate
        );
        std::process::exit(1);
    }
    if artifact.cache_on.perceive_memo_rate < 0.20 {
        eprintln!(
            "FAIL: perceive memo rate {:.2} below the 0.20 floor",
            artifact.cache_on.perceive_memo_rate
        );
        std::process::exit(1);
    }
    // Layout gate: with the global layout cache in place, full walks must
    // stay at ≤1/5 of the counts before it (fast suite walked 138 times,
    // full suite 457).
    let full_ceiling = if fast_mode() { 27 } else { 91 };
    if artifact.cache_on.relayouts_full > full_ceiling {
        eprintln!(
            "FAIL: {} full relayouts exceeds the {} ceiling",
            artifact.cache_on.relayouts_full, full_ceiling
        );
        std::process::exit(1);
    }
}
