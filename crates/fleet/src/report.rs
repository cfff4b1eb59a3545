//! Per-run records and the fleet-level rollup.
//!
//! Everything in [`RunRecord`] and [`FleetOutcome`] is deterministic from
//! the specs — these types serialize and are what the determinism CI job
//! byte-compares. Wall-clock measurements live exclusively in
//! [`FleetTiming`], which never serializes.

use eclair_core::execute::executor::RunResult;
use eclair_fm::{FmProfile, TokenMeter};
use eclair_trace::{merge_owned_event_streams, merged_jsonl, MergeError, RunSummary, TraceEvent};
use serde::{Deserialize, Serialize};

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The task's success predicate held after some attempt.
    Success,
    /// All attempts exhausted without success.
    Failed,
    /// The cumulative token budget was exceeded; retrying stopped.
    BudgetExceeded,
    /// The final attempt hit the per-attempt step deadline.
    DeadlineExceeded,
    /// The fleet was cancelled before this run finished.
    Cancelled,
}

/// The deterministic record of one run (all attempts included).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Merge key; equals the spec's `run_id`.
    pub run_id: u64,
    /// The task the run executed.
    pub task_id: String,
    /// Model preset the run used.
    pub profile: FmProfile,
    /// The run seed (attempt seeds derive from it).
    pub seed: u64,
    /// Attempts actually made (1 = first try succeeded or no retries).
    pub attempts: u32,
    /// Scheduler-level retries (`attempts - 1`).
    pub retries: u32,
    /// Final disposition.
    pub outcome: RunOutcome,
    /// The final attempt's executor result (`failures`/`recoveries` are
    /// the in-run counters; `retries` above is the fleet's own count).
    pub result: RunResult,
    /// Trace rollup merged across all attempts.
    pub summary: RunSummary,
    /// Token usage across all attempts.
    pub tokens: TokenMeter,
    /// Dollar cost of `tokens` under the profile's pricing.
    pub cost_usd: f64,
    /// Faults the chaos layer injected across all attempts (0 when the
    /// spec carries no chaos profile).
    pub faults_injected: u64,
    /// Simulated steps spent executing (all attempts).
    pub exec_steps: u64,
    /// Simulated steps spent waiting in backoff between attempts.
    pub backoff_steps: u64,
    /// Total simulated latency: `exec_steps + backoff_steps`.
    pub latency_steps: u64,
    /// Virtual-clock microseconds spent executing (all attempts; see
    /// `eclair_trace::VirtualClock`). Pure in the spec, identical across
    /// worker counts — safe to serialize.
    pub vt_exec_us: u64,
    /// Virtual-clock microseconds spent in backoff waits between
    /// attempts (`backoff_steps · BACKOFF_STEP_US`).
    pub vt_backoff_us: u64,
    /// Total virtual latency: `vt_exec_us + vt_backoff_us`.
    pub vt_total_us: u64,
}

/// Latency distribution over simulated steps (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencyStats {
    /// Compute from unordered samples.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p: u64| sorted[((p * sorted.len() as u64).div_ceil(100) as usize).max(1) - 1];
        Self {
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
            max: *sorted.last().unwrap(),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        }
    }
}

/// Virtual makespan of scheduling `durations` (in run-id order) onto
/// `workers` identical workers: greedy list scheduling, each run placed
/// on the earliest-free worker (ties broken by lowest worker index).
/// This mirrors the fleet's actual work-stealing order closely enough to
/// make speedup curves meaningful, while being a pure function of the
/// per-run virtual durations — so the curve is identical on every host.
pub fn virtual_makespan(durations: &[u64], workers: usize) -> u64 {
    let workers = workers.max(1);
    let mut free_at = vec![0u64; workers.min(durations.len().max(1))];
    for &d in durations {
        let (idx, _) = free_at
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("at least one worker");
        free_at[idx] += d;
    }
    free_at.into_iter().max().unwrap_or(0)
}

/// The deterministic fleet-level rollup: per-run records in run-id order
/// plus aggregates derived from them. Byte-identical across worker
/// counts for the same specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// The seed every run id was derived from.
    pub fleet_seed: u64,
    /// Runs that ended `Success`.
    pub succeeded: u64,
    /// Runs that ended `Failed`, `BudgetExceeded`, or `DeadlineExceeded`.
    pub failed: u64,
    /// Runs cancelled before finishing.
    pub cancelled: u64,
    /// Scheduler-level retries summed over runs.
    pub retries_total: u64,
    /// Latency distribution over `latency_steps`.
    pub latency_steps: LatencyStats,
    /// Latency distribution over per-run `vt_total_us` (virtual-clock
    /// microseconds; meaningful across hosts and worker counts).
    pub latency_vt_us: LatencyStats,
    /// Trace rollup over every run and attempt.
    pub totals: RunSummary,
    /// Tokens over every run and attempt.
    pub tokens: TokenMeter,
    /// Dollar cost over every run.
    pub cost_usd: f64,
    /// One record per run, sorted by `run_id`.
    pub records: Vec<RunRecord>,
}

impl FleetOutcome {
    /// Aggregate records (must already be sorted by `run_id`).
    pub fn from_records(fleet_seed: u64, records: Vec<RunRecord>) -> Self {
        let mut totals = RunSummary::default();
        let mut tokens = TokenMeter::default();
        let (mut succeeded, mut failed, mut cancelled) = (0u64, 0u64, 0u64);
        let mut retries_total = 0u64;
        let mut cost_usd = 0.0;
        let mut latencies = Vec::with_capacity(records.len());
        let mut vt_latencies = Vec::with_capacity(records.len());
        for r in &records {
            totals.merge(&r.summary);
            tokens.merge(&r.tokens);
            retries_total += r.retries as u64;
            cost_usd += r.cost_usd;
            latencies.push(r.latency_steps);
            vt_latencies.push(r.vt_total_us);
            match r.outcome {
                RunOutcome::Success => succeeded += 1,
                RunOutcome::Cancelled => cancelled += 1,
                _ => failed += 1,
            }
        }
        Self {
            fleet_seed,
            succeeded,
            failed,
            cancelled,
            retries_total,
            latency_steps: LatencyStats::from_samples(&latencies),
            latency_vt_us: LatencyStats::from_samples(&vt_latencies),
            totals,
            tokens,
            cost_usd,
            records,
        }
    }

    /// Serialize the deterministic section as JSON (the byte-comparable
    /// artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fleet outcome serializes")
    }

    /// The record for `run_id`, if present (records are run-id sorted, so
    /// this is a binary search).
    pub fn record(&self, run_id: u64) -> Option<&RunRecord> {
        self.records
            .binary_search_by_key(&run_id, |r| r.run_id)
            .ok()
            .map(|i| &self.records[i])
    }

    /// Fraction of runs that succeeded.
    pub fn completion_rate(&self) -> f64 {
        self.succeeded as f64 / self.records.len().max(1) as f64
    }

    /// In-run action failures summed over runs (final attempts).
    pub fn failures_total(&self) -> u64 {
        self.records.iter().map(|r| r.result.failures as u64).sum()
    }

    /// In-run recoveries summed over runs (final attempts).
    pub fn recoveries_total(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.result.recoveries as u64)
            .sum()
    }

    /// Chaos faults injected summed over runs (all attempts).
    pub fn faults_injected_total(&self) -> u64 {
        self.records.iter().map(|r| r.faults_injected).sum()
    }
}

/// Wall-clock measurements. Deliberately not serializable so they can
/// never leak into a determinism comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetTiming {
    /// Worker threads the fleet ran on.
    pub workers: usize,
    /// End-to-end wall time, nanoseconds.
    pub wall_nanos: u128,
    /// Completed runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Queue high-water mark.
    pub queue_max_depth: usize,
    /// Submissions that blocked on a full queue (backpressure count).
    pub submit_waits: u64,
    /// Virtual makespan of the fleet's runs on `workers` virtual workers
    /// (microseconds; see [`virtual_makespan`]). Lives here rather than
    /// in [`FleetOutcome`] because it depends on the worker count, which
    /// the byte-compared artifact must not.
    pub vt_makespan_us: u64,
    /// Sum of per-run virtual latencies (= 1-worker makespan).
    pub vt_total_us: u64,
    /// `vt_total_us / vt_makespan_us` — the simulated-time speedup the
    /// worker overlap buys.
    pub vt_speedup: f64,
}

/// What a fleet execution returns: the deterministic outcome, the merged
/// trace (per-run streams spliced in run-id order), and the wall-clock
/// timing.
#[derive(Debug)]
pub struct FleetReport {
    /// Deterministic rollup (serializable, byte-comparable).
    pub outcome: FleetOutcome,
    /// Per-run event streams merged in run-id order with renumbered
    /// sequence numbers and span ids.
    pub merged_trace: Vec<TraceEvent>,
    /// Wall-clock section (never serialized).
    pub timing: FleetTiming,
}

impl FleetReport {
    /// Assemble from executed runs; `runs` need not be sorted. Fails if
    /// any run's event stream is structurally malformed (a recorder bug —
    /// worker streams are well-formed by construction).
    pub fn assemble(
        fleet_seed: u64,
        mut runs: Vec<(RunRecord, Vec<TraceEvent>)>,
        timing: FleetTiming,
    ) -> Result<Self, MergeError> {
        runs.sort_by_key(|(r, _)| r.run_id);
        let merged_trace =
            merge_owned_event_streams(runs.iter_mut().map(|(_, ev)| std::mem::take(ev)))?;
        // Reuses the runs' buffer: no second array of records.
        let records = runs.into_iter().map(|(r, _)| r).collect();
        Ok(Self {
            outcome: FleetOutcome::from_records(fleet_seed, records),
            merged_trace,
            timing,
        })
    }

    /// The merged trace as JSON Lines.
    pub fn merged_trace_jsonl(&self) -> Result<String, MergeError> {
        merged_jsonl(&self.merged_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_nearest_rank() {
        let s = LatencyStats::from_samples(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 100);
        assert_eq!(s.p99, 100);
        assert_eq!(s.max, 100);
        assert!((s.mean - 55.0).abs() < 1e-9);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
        let one = LatencyStats::from_samples(&[7]);
        assert_eq!((one.p50, one.p95, one.p99, one.max), (7, 7, 7, 7));
        // p99 separates from p95 once there are >20 samples.
        let many: Vec<u64> = (1..=100).collect();
        let m = LatencyStats::from_samples(&many);
        assert_eq!((m.p50, m.p95, m.p99, m.max), (50, 95, 99, 100));
    }

    #[test]
    fn virtual_makespan_schedules_greedily() {
        // One worker: the sum. Enough workers: the max.
        assert_eq!(virtual_makespan(&[5, 3, 8], 1), 16);
        assert_eq!(virtual_makespan(&[5, 3, 8], 3), 8);
        assert_eq!(virtual_makespan(&[5, 3, 8], 99), 8);
        // Two workers, run-id order: w0 takes 5, w1 takes 3, then 8 goes
        // to the earlier-free w1 → w0=5, w1=11.
        assert_eq!(virtual_makespan(&[5, 3, 8], 2), 11);
        assert_eq!(virtual_makespan(&[], 4), 0);
        // workers=0 is clamped to 1 rather than panicking.
        assert_eq!(virtual_makespan(&[2, 2], 0), 4);
    }

    #[test]
    fn outcome_counts_partition_runs() {
        let rec = |id: u64, outcome| RunRecord {
            run_id: id,
            task_id: format!("t-{id}"),
            profile: FmProfile::Oracle,
            seed: id,
            attempts: 2,
            retries: 1,
            outcome,
            result: RunResult {
                success: outcome == RunOutcome::Success,
                actions_attempted: 3,
                failures: 1,
                recoveries: 1,
                log: vec![],
            },
            summary: RunSummary::default(),
            tokens: TokenMeter::default(),
            cost_usd: 0.0,
            faults_injected: 0,
            exec_steps: 3,
            backoff_steps: 4,
            latency_steps: 7,
            vt_exec_us: 3_000_000,
            vt_backoff_us: 1_000_000,
            vt_total_us: 4_000_000,
        };
        let o = FleetOutcome::from_records(
            1,
            vec![
                rec(0, RunOutcome::Success),
                rec(1, RunOutcome::Failed),
                rec(2, RunOutcome::BudgetExceeded),
                rec(3, RunOutcome::Cancelled),
            ],
        );
        assert_eq!((o.succeeded, o.failed, o.cancelled), (1, 2, 1));
        assert_eq!(o.retries_total, 4);
        assert_eq!(o.latency_steps.p50, 7);
        assert_eq!(o.latency_vt_us.p50, 4_000_000);
        let json = o.to_json();
        let back: FleetOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, o);
    }
}
