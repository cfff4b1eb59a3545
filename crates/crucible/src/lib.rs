//! # eclair-crucible
//!
//! A deterministic simulation-testing harness for the ECLAIR fleet: the
//! machinery that verifies the verifier. Where the unit suites pin
//! individual components, the crucible *fuzzes whole executions* — and
//! because every layer below it is seeded (model noise, chaos schedules,
//! retry jitter, trace sequence numbers), a failing trial is not a flake
//! but a one-line reproducible bug.
//!
//! Three pieces compose:
//!
//! 1. **Scenario fuzzing** ([`Scenario::generate`]) — from one master
//!    seed, derive randomized trials over the full configuration grammar:
//!    task subset × model profile × chaos rate × token/step budgets ×
//!    retry policy × worker count.
//! 2. **Oracle registry** ([`registry`] / [`evaluate`]) — 14 metamorphic
//!    and invariant checks over the fleet report and merged trace:
//!    recoveries bounded by failures, trace token accounting closed
//!    against the meters, span trees well-formed and gapless after merge,
//!    N-worker runs byte-identical to sequential, oracle-pinned
//!    completion monotone in the chaos rate, faults only under chaos,
//!    budgets enforced, the compiled-bot hybrid twin completing every
//!    task the pure-FM fleet completes.
//! 3. **Shrinking** ([`shrink`]) — on violation, delta-debug the scenario
//!    down (fewer tasks → lower chaos → no budgets → one attempt → one
//!    worker) and print a paste-ready `#[test]` ([`repro_snippet`]) plus
//!    the replay seed line.
//!
//! The `crucible_bench` binary (in `eclair-bench`) sweeps a fixed
//! scenario grid and commits the byte-reproducible result as
//! `BENCH_crucible.json`; the repo-level golden corpus (`tests/golden/`)
//! snapshots canonical scenarios end to end.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod oracles;
mod rng;
mod runner;
mod scenario;
mod shrink;

pub use oracles::{evaluate, registry, Evaluation, Oracle, Verdict, Violation};
pub use rng::SplitMix64;
pub use runner::{run_scenario, LadderPoint, ScenarioRun};
pub use scenario::{Scenario, CHAOS_RATES, PROFILES};
pub use shrink::{repro_snippet, shrink, ShrinkResult};
