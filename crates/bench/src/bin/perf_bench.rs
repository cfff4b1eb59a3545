//! GUI→FM hot-path cache bench: run the 30-task suite twice per leg —
//! once through the fleet executor (the Execute hot path, frame-cache
//! heavy) and once through the full agent pipeline at the WD+KF evidence
//! level (Demonstrate → Execute → Validate, percept-cache heavy) — with
//! the caches on, then again under `ECLAIR_NO_CACHE=1`. Proves the two
//! legs are byte-identical (cache transparency) and emits
//! `BENCH_perf.json`.
//!
//! Usage:
//!   perf_bench [--out BENCH_perf.json] [--metrics-out PATH]
//!
//! The artifact contains ONLY deterministic quantities — the quarantined
//! `eclair_trace::perf` counters, the transparency verdicts, and the
//! allocation micro-counts — so two back-to-back invocations produce
//! byte-identical files (CI diffs a fresh one against the committed
//! bytes). Wall-clock speedup is printed to stdout and deliberately never
//! serialized.

use std::process::ExitCode;

use eclair_bench::{
    finish, fleet_metrics, suite_specs, summary_metrics, sweep_with, Args, SweepResult,
};
use eclair_core::demonstrate::EvidenceLevel;
use eclair_core::EclairConfig;
use eclair_fleet::{Fleet, FleetConfig, FleetReport, RetryPolicy};
use eclair_fm::FmProfile;
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
    /// Tokens the percept cache served — re-accounted identically into
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
    .run_sequential(suite_specs(seed, tasks, 1, FmProfile::Gpt4V))
    .expect("sequential fleet sweep");
    // The pipeline runs at the WD+KF evidence level, whose Demonstrate
    // phase perceives key-frame pairs (WD+KF+ACT reads the action log and
    // never perceives), so the percept cache sees real traffic.
    let pipeline = sweep_with(
        tasks,
        EclairConfig {
            seed,
            evidence: EvidenceLevel::WdKf,
            ..Default::default()
        },
    );
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

fn main() -> ExitCode {
    let args = Args::parse(&["--out", "--metrics-out"]);
    let seed = 2024u64;
    let tasks = 30;
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
    args.write_artifact("BENCH_perf.json", &artifact);
    // Snapshot the cache-on leg: fleet + pipeline totals plus the leg's
    // own perf counters (pure in the seed either way).
    let mut metrics = fleet_metrics(&on.fleet.outcome, &on.fleet.merged_trace);
    summary_metrics(&mut metrics, &on.pipeline.summary);
    metrics.absorb_perf(&on.counters);
    args.write_metrics(&metrics);

    let on = &artifact.cache_on;
    let mut failed = Vec::new();
    if !outcomes_identical || !traces_identical {
        failed.push("caching changed observable behavior".to_string());
    }
    if on.frame_cache_hit_rate < 0.30 {
        failed.push(format!(
            "frame-cache hit rate {:.2} below the 0.30 floor",
            on.frame_cache_hit_rate
        ));
    }
    if on.perceive_memo_rate < 0.20 {
        failed.push(format!(
            "perceive memo rate {:.2} below the 0.20 floor",
            on.perceive_memo_rate
        ));
    }
    // Layout gate: with the global layout cache in place, full walks must
    // stay at ≤1/5 of the 457 the suite walked before it.
    if on.relayouts_full > 91 {
        failed.push(format!(
            "{} full relayouts exceeds the 91 ceiling",
            on.relayouts_full
        ));
    }
    finish(failed)
}
