//! Fleet observability bench: run the 30-task suite (2 reps, GPT-4V,
//! seed 2024) once, sequentially, then compute what the fleet's virtual
//! clock says the same work costs on 1/2/4/8 workers — a scheduling
//! computation, so the speedup curve is pure in the seed and identical
//! on every host. Then re-run the suite on real worker pools of the same
//! widths to prove determinism under concurrency.
//!
//! Usage:
//!   obs_bench [--out BENCH_obs.json] [--determinism-out PATH]
//!             [--trace-out PATH] [--metrics-out PATH]
//!
//! The artifact carries per-worker virtual makespans and speedups plus
//! per-span-kind latency percentiles (p50/p95/p99 over inclusive virtual
//! time). It is byte-reproducible: two back-to-back invocations must
//! produce identical files. `--trace-out` exports the sequential run's
//! merged flight record as JSONL (the input `eclair-analyze` consumes);
//! `--determinism-out` writes its outcome JSON and trace digest, which
//! CI compares across invocations; `--metrics-out` writes the
//! `eclair-obs/v1` snapshot CI gates against a committed baseline.
//! Three gates exit 1 when violated:
//!
//! * `additive`: the span profiler's exclusive times telescope back to
//!   the root total (same invariant the crucible's `vt-additive` oracle
//!   pins);
//! * `speedup_shape`: virtual speedup strictly increases with the worker
//!   count;
//! * determinism: pools of 1, 2, 4 and 8 workers each reproduce the
//!   sequential outcome JSON and merged trace byte-for-byte. The verdict
//!   goes to stdout, not into the artifact.

use std::collections::BTreeMap;
use std::process::ExitCode;

use eclair_bench::{finish, fleet_metrics, suite_specs, Args, RunBytes};
use eclair_fleet::{virtual_makespan, Fleet, FleetConfig, LatencyStats, RetryPolicy};
use eclair_fm::FmProfile;
use eclair_obs::{profile_spans, span_inclusive_durations};
use serde::Serialize;

const FLEET_SEED: u64 = 2024;
const TASKS: usize = 30;
const REPS: usize = 2;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One worker count's virtual-time point.
#[derive(Debug, Serialize)]
struct ObsPoint {
    workers: usize,
    /// Makespan under greedy list scheduling of the per-run virtual
    /// durations onto `workers` lanes.
    vt_makespan_us: u64,
    /// `Σ vt_total_us / vt_makespan_us`.
    vt_speedup: f64,
}

/// The whole artifact. No wall-clock anywhere: byte-reproducible.
#[derive(Debug, Serialize)]
struct ObsBenchJson {
    suite_tasks: usize,
    reps: usize,
    runs: usize,
    fleet_seed: u64,
    profile: String,
    /// Σ per-run `vt_total_us` — the 1-worker makespan.
    vt_total_us: u64,
    /// Per-run virtual latency distribution.
    run_latency_vt_us: LatencyStats,
    /// Inclusive virtual-time percentiles per span kind.
    phase_latency_vt_us: BTreeMap<String, LatencyStats>,
    additive: String,
    speedup_shape: String,
    points: Vec<ObsPoint>,
}

fn main() -> ExitCode {
    let args = Args::parse(&["--out", "--determinism-out", "--trace-out", "--metrics-out"]);
    eclair_trace::perf::reset();
    println!(
        "obs_bench: {} tasks x {} reps = {} runs, GPT-4 profile, seed {}",
        TASKS,
        REPS,
        TASKS * REPS,
        FLEET_SEED
    );
    let specs = || suite_specs(FLEET_SEED, TASKS, REPS, FmProfile::Gpt4V);

    // One sequential execution yields everything: per-run virtual
    // durations are worker-independent, so every worker count's makespan
    // is a scheduling computation over the same numbers.
    let report = Fleet::new(FleetConfig {
        workers: 1,
        retry: RetryPolicy::default(),
        fleet_seed: FLEET_SEED,
        ..FleetConfig::default()
    })
    .run_sequential(specs())
    .expect("sequential fleet run");

    let durations: Vec<u64> = report
        .outcome
        .records
        .iter()
        .map(|r| r.vt_total_us)
        .collect();
    let vt_total_us: u64 = durations.iter().sum();

    let mut points = Vec::new();
    let mut speedup_shape_ok = true;
    let mut prev_speedup = 0.0f64;
    for workers in WORKERS {
        let vt_makespan_us = virtual_makespan(&durations, workers);
        let vt_speedup = vt_total_us as f64 / vt_makespan_us.max(1) as f64;
        let ok = vt_speedup > prev_speedup;
        speedup_shape_ok &= ok;
        println!(
            "workers={workers}: virtual makespan {:.1} s, virtual speedup {vt_speedup:.2}x{}",
            vt_makespan_us as f64 / 1e6,
            if ok { "" } else { "  <- NOT INCREASING" },
        );
        points.push(ObsPoint {
            workers,
            vt_makespan_us,
            vt_speedup,
        });
        prev_speedup = vt_speedup;
    }

    let profile = profile_spans(&report.merged_trace);
    let additive_ok = profile.is_additive();
    println!(
        "span additivity: {} ({} us exclusive over {} root-us, {} paths)",
        if additive_ok { "ok" } else { "VIOLATED" },
        profile.exclusive_sum_us,
        profile.total_root_us,
        profile.paths.len(),
    );

    let mut phase_latency_vt_us = BTreeMap::new();
    for (kind, samples) in span_inclusive_durations(&report.merged_trace) {
        let stats = LatencyStats::from_samples(&samples);
        println!(
            "{kind:<10} n={:<5} p50 {:>9} us  p95 {:>9} us  p99 {:>9} us",
            samples.len(),
            stats.p50,
            stats.p95,
            stats.p99,
        );
        phase_latency_vt_us.insert(kind, stats);
    }

    let artifact = ObsBenchJson {
        suite_tasks: TASKS,
        reps: REPS,
        runs: TASKS * REPS,
        fleet_seed: FLEET_SEED,
        profile: FmProfile::Gpt4V.name().to_string(),
        vt_total_us,
        run_latency_vt_us: report.outcome.latency_vt_us,
        phase_latency_vt_us,
        additive: if additive_ok { "ok" } else { "VIOLATED" }.to_string(),
        speedup_shape: if speedup_shape_ok { "ok" } else { "VIOLATED" }.to_string(),
        points,
    };
    args.write_artifact("BENCH_obs.json", &artifact);

    // Snapshot perf before anything below renders JSONL: the export
    // counters must not depend on which flags were passed. The pools run
    // on worker threads, whose counters never reach this snapshot.
    let mut metrics = fleet_metrics(&report.outcome, &report.merged_trace);
    metrics.absorb_perf(&eclair_trace::perf::snapshot());

    let sequential = RunBytes::of(&report);
    args.write_with("--trace-out", || &sequential.trace);
    let mut diverged = Vec::new();
    for workers in WORKERS {
        let pool = Fleet::new(FleetConfig {
            workers,
            queue_capacity: 2 * workers,
            retry: RetryPolicy::default(),
            fleet_seed: FLEET_SEED,
        })
        .run(specs())
        .expect("pool run");
        let ok = RunBytes::of(&pool) == sequential;
        println!(
            "workers={workers}: pool reproduces the sequential run: {}",
            if ok { "yes" } else { "NO" }
        );
        if !ok {
            diverged.push(workers);
        }
    }
    args.write_with("--determinism-out", || sequential.dump());
    args.write_metrics(&metrics);

    let mut failed = Vec::new();
    if !additive_ok {
        failed.push("virtual-time accounting is not additive over the span tree".to_string());
    }
    if !speedup_shape_ok {
        failed.push("virtual speedup does not increase with worker count".to_string());
    }
    if !diverged.is_empty() {
        failed.push(format!(
            "worker pools {diverged:?} diverged from the sequential run"
        ));
    }
    finish(failed)
}
