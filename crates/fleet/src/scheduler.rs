//! The fleet scheduler: a bounded submission queue feeding a pool of
//! worker threads, with cooperative cancellation and a deterministic
//! report.
//!
//! Threading model: `Fleet::run` spawns `workers` scoped threads that pop
//! [`RunSpec`]s off a [`BoundedQueue`]; the calling thread submits specs
//! in run-id order, blocking when the queue is full (backpressure). Each
//! run executes entirely inside one worker with no shared mutable state
//! (see [`crate::worker::execute_spec`]), so records are collected in
//! completion order and then sorted by run id — making the report
//! byte-identical to [`Fleet::run_sequential`] on the same specs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eclair_fm::{shared_percept_cache, SharedPerceptCache};
use eclair_trace::{MergeError, TraceEvent};

use crate::backoff::RetryPolicy;
use crate::queue::BoundedQueue;
use crate::report::{FleetReport, FleetTiming, RunRecord};
use crate::spec::RunSpec;
use crate::worker::{cancelled_record, execute_spec_shared};

/// Cooperative cancellation flag, cloneable across threads. Cancelling
/// stops new submissions and new attempts; runs mid-attempt finish their
/// current attempt first (attempts are the atomic unit of determinism).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Submission queue capacity; submissions beyond it block the
    /// producer (backpressure).
    pub queue_capacity: usize,
    /// Retry policy applied to every run.
    pub retry: RetryPolicy,
    /// Seed all run seeds derive from (via [`crate::spec::derive_seed`]).
    pub fleet_seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 16,
            retry: RetryPolicy::default(),
            fleet_seed: eclair_core::calibration::SEED,
        }
    }
}

impl FleetConfig {
    /// Set the worker count (scenario harnesses sweep this knob).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the submission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the fleet seed.
    pub fn with_seed(mut self, fleet_seed: u64) -> Self {
        self.fleet_seed = fleet_seed;
        self
    }
}

/// The scheduler handle. Owns the fleet's percept cache, which every
/// model of every run perceives through, and which therefore persists
/// across `run`/`run_sequential` invocations on the same `Fleet` — that
/// persistence is where cross-run hits come from (re-executed suites,
/// retry rescues, metamorphic re-runs).
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    cancel: CancelToken,
    shared: Arc<SharedPerceptCache>,
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new(FleetConfig::default())
    }
}

impl Fleet {
    /// Build a fleet.
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            cancel: CancelToken::new(),
            shared: shared_percept_cache(),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The fleet's percept cache (benches read its quarantined stats;
    /// harnesses may hand the same `Fleet` a second suite to harvest
    /// cross-invocation hits).
    pub fn shared_cache(&self) -> &Arc<SharedPerceptCache> {
        &self.shared
    }

    /// A token that cancels this fleet when triggered (from any thread).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Execute every spec on the worker pool and aggregate the report.
    /// Fails only if a worker produced a structurally malformed trace
    /// stream (a recorder bug, surfaced instead of panicking).
    pub fn run(&self, specs: Vec<RunSpec>) -> Result<FleetReport, MergeError> {
        let started = Instant::now();
        let total = specs.len();
        let workers = self.config.workers.max(1);
        let queue: BoundedQueue<RunSpec> = BoundedQueue::new(self.config.queue_capacity);
        let results: Mutex<Vec<(RunRecord, Vec<TraceEvent>)>> =
            Mutex::new(Vec::with_capacity(total));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(spec) = queue.pop() {
                        let run = if self.cancel.is_cancelled() {
                            cancelled_record(&spec)
                        } else {
                            execute_spec_shared(
                                &spec,
                                &self.config.retry,
                                &self.cancel,
                                Some(&self.shared),
                            )
                        };
                        results.lock().unwrap().push(run);
                    }
                });
            }
            for spec in specs {
                if self.cancel.is_cancelled() {
                    results.lock().unwrap().push(cancelled_record(&spec));
                    continue;
                }
                if let Err(spec) = queue.push(spec) {
                    results.lock().unwrap().push(cancelled_record(&spec));
                }
            }
            queue.close();
        });
        let queue_stats = queue.stats();
        let runs = results.into_inner().unwrap();
        self.assemble(
            runs,
            workers,
            started,
            queue_stats.max_depth,
            queue_stats.push_waits,
        )
    }

    /// Execute every spec in submission order on the calling thread — the
    /// baseline the concurrent path must match byte-for-byte.
    pub fn run_sequential(&self, specs: Vec<RunSpec>) -> Result<FleetReport, MergeError> {
        let started = Instant::now();
        let runs: Vec<_> = specs
            .iter()
            .map(|spec| {
                if self.cancel.is_cancelled() {
                    cancelled_record(spec)
                } else {
                    execute_spec_shared(spec, &self.config.retry, &self.cancel, Some(&self.shared))
                }
            })
            .collect();
        self.assemble(runs, 1, started, 0, 0)
    }

    fn assemble(
        &self,
        runs: Vec<(RunRecord, Vec<TraceEvent>)>,
        workers: usize,
        started: Instant,
        queue_max_depth: usize,
        submit_waits: u64,
    ) -> Result<FleetReport, MergeError> {
        let completed = runs.len();
        let wall = started.elapsed();
        // Virtual-time view of the same schedule: per-run durations in
        // run-id order onto `workers` virtual workers. Unlike the wall
        // fields this is deterministic, but it still depends on the
        // worker count, so it belongs in the timing section.
        let mut durations: Vec<(u64, u64)> = runs
            .iter()
            .map(|(r, _)| (r.run_id, r.vt_total_us))
            .collect();
        durations.sort_unstable();
        let vt_durations: Vec<u64> = durations.into_iter().map(|(_, d)| d).collect();
        let vt_makespan_us = crate::report::virtual_makespan(&vt_durations, workers);
        let vt_total_us: u64 = vt_durations.iter().sum();
        let timing = FleetTiming {
            workers,
            wall_nanos: wall.as_nanos(),
            runs_per_sec: if wall.as_secs_f64() > 0.0 {
                completed as f64 / wall.as_secs_f64()
            } else {
                0.0
            },
            queue_max_depth,
            submit_waits,
            vt_makespan_us,
            vt_total_us,
            vt_speedup: if vt_makespan_us > 0 {
                vt_total_us as f64 / vt_makespan_us as f64
            } else {
                0.0
            },
        };
        FleetReport::assemble(self.config.fleet_seed, runs, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunOutcome;
    use crate::spec::specs_for_tasks;
    use eclair_fm::FmProfile;
    use eclair_sites::all_tasks;

    fn small_specs(n: usize, seed: u64) -> Vec<RunSpec> {
        specs_for_tasks(
            seed,
            all_tasks().into_iter().take(n).collect(),
            FmProfile::Oracle,
        )
    }

    #[test]
    fn concurrent_report_matches_sequential_bytes() {
        let fleet = Fleet::new(FleetConfig {
            workers: 4,
            queue_capacity: 2,
            fleet_seed: 21,
            ..FleetConfig::default()
        });
        let par = fleet.run(small_specs(6, 21)).expect("parallel run");
        let seq = fleet
            .run_sequential(small_specs(6, 21))
            .expect("sequential run");
        assert_eq!(par.outcome.to_json(), seq.outcome.to_json());
        assert_eq!(
            par.merged_trace_jsonl().unwrap(),
            seq.merged_trace_jsonl().unwrap()
        );
        assert_eq!(par.timing.workers, 4);
        assert_eq!(seq.timing.workers, 1);
    }

    #[test]
    fn records_come_back_in_run_id_order() {
        let fleet = Fleet::new(FleetConfig {
            workers: 3,
            fleet_seed: 9,
            ..FleetConfig::default()
        });
        let report = fleet.run(small_specs(5, 9)).expect("run");
        let ids: Vec<u64> = report.outcome.records.iter().map(|r| r.run_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.outcome.succeeded, 5, "oracle completes these");
    }

    #[test]
    fn cancellation_drains_as_cancelled_records() {
        let fleet = Fleet::new(FleetConfig {
            workers: 2,
            fleet_seed: 3,
            ..FleetConfig::default()
        });
        fleet.cancel_token().cancel();
        let report = fleet.run(small_specs(4, 3)).expect("run");
        assert_eq!(report.outcome.cancelled, 4);
        assert_eq!(report.outcome.succeeded, 0);
        assert!(report
            .outcome
            .records
            .iter()
            .all(|r| r.outcome == RunOutcome::Cancelled));
        assert!(report.merged_trace.is_empty());
    }

    #[test]
    fn cancellation_mid_flight_keeps_the_record_partition_intact() {
        // Cancel from another thread while the fleet is mid-run: retries
        // are armed (impossible success predicate, several attempts with
        // backoff), so cancellation lands between attempts or between
        // runs non-deterministically. Whatever the interleaving, the
        // report invariants must hold: one record per spec, run-id
        // sorted, outcome counts partitioning the total, and cancelled
        // records never having exhausted their retries.
        let mut specs = small_specs(8, 13);
        for s in &mut specs {
            s.task.success = eclair_sites::SuccessCheck::probes(&[("never", "true")]);
        }
        let fleet = Fleet::new(FleetConfig {
            workers: 2,
            queue_capacity: 1,
            retry: RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            },
            fleet_seed: 13,
        });
        let token = fleet.cancel_token();
        let report = std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                token.cancel();
            });
            fleet.run(specs)
        })
        .expect("run");
        let o = &report.outcome;
        assert_eq!(o.records.len(), 8, "every spec must produce a record");
        let ids: Vec<u64> = o.records.iter().map(|r| r.run_id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
        assert_eq!(o.succeeded, 0, "the success predicate is impossible");
        assert_eq!(o.failed + o.cancelled, 8);
        for r in &o.records {
            match r.outcome {
                RunOutcome::Cancelled => {
                    // Cut short before exhausting retries: either never
                    // started (drained from the queue) or interrupted
                    // between attempts, mid-backoff.
                    assert!(r.attempts < 4, "cancelled runs never exhaust retries");
                    assert!(r.attempts > 0 || r.result.log.is_empty());
                }
                _ => assert_eq!(r.attempts, 4, "uncancelled runs retry to exhaustion"),
            }
        }
    }

    #[test]
    fn tiny_queue_applies_backpressure_but_not_to_results() {
        let fleet = Fleet::new(FleetConfig {
            workers: 2,
            queue_capacity: 1,
            fleet_seed: 5,
            ..FleetConfig::default()
        });
        let report = fleet.run(small_specs(6, 5)).expect("run");
        assert_eq!(report.outcome.records.len(), 6);
        assert!(report.timing.queue_max_depth <= 1);
    }
}
