//! # eclair-fleet
//!
//! A concurrent multi-workflow scheduler for the ECLAIR reproduction —
//! the "enterprise scale" half of the paper's title. Where `eclair-core`
//! executes one workflow at a time, this crate schedules *many* runs
//! across a worker-thread pool with the orchestration a production RPA
//! replacement needs: a bounded submission queue with backpressure,
//! per-run budgets and deadlines, seeded retry with exponential backoff
//! and jitter, cooperative cancellation, and a fleet-level report rolling
//! up results, traces, tokens, and throughput.
//!
//! ## The determinism-under-concurrency contract
//!
//! The headline guarantee: **concurrency changes wall-clock, never
//! outcomes.** An 8-worker fleet produces byte-identical per-run records
//! and a byte-identical merged trace to a sequential execution of the
//! same specs. This holds because:
//!
//! 1. every stochastic input of a run is derived from
//!    `(fleet_seed, run_id)` before scheduling ([`derive_seed`]) —
//!    attempt RNGs, backoff jitter, all of it;
//! 2. a run executes entirely inside one worker on freshly constructed
//!    state (its own `FmModel`, session, and trace recorder);
//! 3. reports and traces merge in run-id order, not completion order;
//! 4. wall-clock lives only in [`FleetTiming`], which cannot serialize.
//!
//! ## Quickstart
//!
//! ```
//! use eclair_fleet::{specs_for_tasks, Fleet, FleetConfig};
//! use eclair_fm::FmProfile;
//!
//! let tasks: Vec<_> = eclair_sites::all_tasks().into_iter().take(4).collect();
//! let fleet = Fleet::new(FleetConfig { workers: 2, fleet_seed: 7, ..Default::default() });
//! let report = fleet.run(specs_for_tasks(7, tasks, FmProfile::Oracle)).unwrap();
//! assert_eq!(report.outcome.records.len(), 4);
//! assert!(report.outcome.succeeded >= 3);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod backoff;
mod queue;
mod report;
mod scheduler;
mod spec;
mod worker;

pub use backoff::RetryPolicy;
pub use queue::{BoundedQueue, QueueStats};
pub use report::{
    virtual_makespan, FleetOutcome, FleetReport, FleetTiming, LatencyStats, RunOutcome, RunRecord,
};
pub use scheduler::{CancelToken, Fleet, FleetConfig};
pub use spec::{derive_seed, specs_for_tasks, RunSpec};
pub use worker::{execute_spec, execute_spec_shared, pricing_for};

pub use eclair_trace::MergeError;
