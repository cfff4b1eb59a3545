//! Fleet throughput bench: sweep worker counts over the 30-task suite,
//! verify the determinism-under-concurrency contract, and emit a
//! machine-readable `BENCH_fleet.json` so the repo has a perf trajectory.
//!
//! Usage:
//!   fleet_bench [--out BENCH_fleet.json] [--determinism-out PATH]
//!               [--trace-out PATH] [--metrics-out PATH]
//!
//! `--determinism-out` writes the deterministic fleet outcome (records +
//! merged-trace digest) to a file; two back-to-back invocations must
//! produce byte-identical files (the CI smoke job diffs them).
//! `--trace-out` exports the merged flight record as JSONL (the input
//! `eclair-analyze` consumes); `--metrics-out` writes the byte-stable
//! `eclair-obs/v1` metrics snapshot CI gates against a committed
//! baseline. `ECLAIR_FAST=1` shrinks the sweep for CI.

use eclair_bench::{emit_metrics, fast_mode, fleet_metrics, trace_out_arg};
use eclair_fleet::{Fleet, FleetConfig, FleetReport, RetryPolicy, RunSpec};
use eclair_fm::FmProfile;
use eclair_sites::all_tasks;
use serde::Serialize;

/// One row of the worker sweep.
#[derive(Debug, Serialize)]
struct WorkerPoint {
    workers: usize,
    wall_ms: f64,
    runs_per_sec: f64,
    speedup_vs_sequential: f64,
    p50_latency_steps: u64,
    p95_latency_steps: u64,
    mean_latency_steps: f64,
    /// Virtual-time makespan under greedy list scheduling — pure in the
    /// specs and worker count, byte-stable across hosts.
    vt_makespan_us: u64,
    /// Virtual-time speedup vs the summed per-run virtual latency.
    vt_speedup: f64,
    retries: u64,
    succeeded: u64,
    failed: u64,
    queue_max_depth: usize,
    submit_waits: u64,
}

/// The whole artifact.
#[derive(Debug, Serialize)]
struct FleetBenchJson {
    suite_tasks: usize,
    reps: usize,
    runs: usize,
    fleet_seed: u64,
    profile: String,
    /// Host parallelism: threaded speedup is bounded by this, so a
    /// 1-core CI box legitimately reports ~1x while an 8-core host
    /// reports the >= 4x the fleet is built for.
    host_cores: usize,
    determinism: String,
    sequential_wall_ms: f64,
    points: Vec<WorkerPoint>,
}

fn specs(fleet_seed: u64, tasks: usize, reps: usize) -> Vec<RunSpec> {
    let suite = all_tasks();
    let mut out = Vec::with_capacity(tasks * reps);
    for rep in 0..reps {
        for (i, task) in suite.iter().take(tasks).enumerate() {
            let run_id = (rep * tasks + i) as u64;
            out.push(RunSpec::for_task(
                fleet_seed,
                run_id,
                task.clone(),
                FmProfile::Gpt4V,
            ));
        }
    }
    out
}

fn wall_ms(r: &FleetReport) -> f64 {
    r.timing.wall_nanos as f64 / 1e6
}

/// FNV-1a digest of the merged trace, so the determinism artifact stays
/// small while still covering every trace byte.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    eclair_trace::perf::reset();
    let fleet_seed = 2024u64;
    let (tasks, reps, worker_counts): (usize, usize, Vec<usize>) = if fast_mode() {
        (8, 1, vec![1, 4])
    } else {
        (30, 2, vec![1, 2, 4, 8])
    };
    let retry = RetryPolicy::default();
    println!(
        "fleet_bench: {} tasks x {} reps = {} runs, GPT-4 profile, seed {}",
        tasks,
        reps,
        tasks * reps,
        fleet_seed
    );

    // Sequential baseline: same specs, one thread, no queue.
    let baseline_fleet = Fleet::new(FleetConfig {
        workers: 1,
        retry,
        fleet_seed,
        ..FleetConfig::default()
    });
    let baseline = baseline_fleet
        .run_sequential(specs(fleet_seed, tasks, reps))
        .expect("sequential baseline");
    let baseline_ms = wall_ms(&baseline);
    let baseline_json = baseline.outcome.to_json();
    let baseline_trace = baseline.merged_trace_jsonl().expect("baseline trace");
    println!(
        "sequential baseline: {:.1} ms, {:.1} runs/s, {} succeeded, {} retries",
        baseline_ms,
        baseline.timing.runs_per_sec,
        baseline.outcome.succeeded,
        baseline.outcome.retries_total
    );
    // The sequential baseline ran on this thread, so its perf counters
    // are in scope here; the worker sweep below runs on other threads
    // and cannot pollute the snapshot.
    let mut metrics = fleet_metrics(&baseline.outcome, &baseline.merged_trace);
    metrics.absorb_perf(&eclair_trace::perf::snapshot());
    if let Some(path) = trace_out_arg() {
        std::fs::write(&path, &baseline_trace).expect("write flight record");
        println!("flight record -> {}", path.display());
    }

    let mut determinism_ok = true;
    let mut points = Vec::new();
    for &workers in &worker_counts {
        let fleet = Fleet::new(FleetConfig {
            workers,
            queue_capacity: 2 * workers,
            retry,
            fleet_seed,
        });
        let report = fleet
            .run(specs(fleet_seed, tasks, reps))
            .expect("fleet run");
        let ok = report.outcome.to_json() == baseline_json
            && report.merged_trace_jsonl().expect("merged trace") == baseline_trace;
        determinism_ok &= ok;
        let ms = wall_ms(&report);
        println!(
            "workers={workers}: {:.1} ms, {:.1} runs/s, speedup {:.2}x (virtual {:.2}x), p50 {} steps, p95 {} steps, backpressure waits {}, deterministic: {}",
            ms,
            report.timing.runs_per_sec,
            baseline_ms / ms.max(1e-9),
            report.timing.vt_speedup,
            report.outcome.latency_steps.p50,
            report.outcome.latency_steps.p95,
            report.timing.submit_waits,
            if ok { "yes" } else { "NO" },
        );
        points.push(WorkerPoint {
            workers,
            wall_ms: ms,
            runs_per_sec: report.timing.runs_per_sec,
            speedup_vs_sequential: baseline_ms / ms.max(1e-9),
            p50_latency_steps: report.outcome.latency_steps.p50,
            p95_latency_steps: report.outcome.latency_steps.p95,
            mean_latency_steps: report.outcome.latency_steps.mean,
            vt_makespan_us: report.timing.vt_makespan_us,
            vt_speedup: report.timing.vt_speedup,
            retries: report.outcome.retries_total,
            succeeded: report.outcome.succeeded,
            failed: report.outcome.failed,
            queue_max_depth: report.timing.queue_max_depth,
            submit_waits: report.timing.submit_waits,
        });
    }

    let artifact = FleetBenchJson {
        suite_tasks: tasks,
        reps,
        runs: tasks * reps,
        fleet_seed,
        profile: FmProfile::Gpt4V.name().to_string(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        determinism: if determinism_ok { "ok" } else { "MISMATCH" }.to_string(),
        sequential_wall_ms: baseline_ms,
        points,
    };
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_fleet.json".to_string());
    std::fs::write(
        &out_path,
        serde_json::to_string(&artifact).expect("bench artifact serializes"),
    )
    .expect("write bench artifact");
    println!("wrote {out_path}");

    if let Some(path) = arg_value("--determinism-out") {
        let det = format!(
            "{}\ntrace_fnv1a={:016x}\n",
            baseline_json,
            fnv1a(&baseline_trace)
        );
        std::fs::write(&path, det).expect("write determinism artifact");
        println!("wrote {path}");
    }
    emit_metrics(&metrics);

    if !determinism_ok {
        eprintln!("FAIL: concurrent fleet diverged from the sequential baseline");
        std::process::exit(1);
    }
}
