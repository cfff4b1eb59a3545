//! Executing one scenario through the real fleet scheduler.
//!
//! A scenario run collects everything the oracle registry inspects: the
//! sequential fleet report (ground truth), the concurrent report when the
//! scenario asks for more than one worker (for the
//! parallel-matches-sequential oracle), and — when chaos is armed — the
//! metamorphic ladder: the same scenario re-run at rates
//! `[0, rate/2, rate]`. The ladder feeds the chaos-isolation oracle,
//! which compares *fault-free runs* across rungs. (A naive "completion
//! is monotone in the fault rate" relation is unsound here: a fault can
//! legitimately *rescue* a run — e.g. a session-expiry injection forces a
//! re-login that fixes a task the fault-free trajectory fails — so runs
//! that did take faults are unconstrained across rungs.)
//!
//! Every run also gathers a sequential re-execution with every cache —
//! frame, layout and percept, the fleet's included — toggled the other
//! way, feeding the cache-transparent oracle: caching is an
//! optimization, never an observable, so the flipped evidence must be
//! byte-identical.
//!
//! Finally, every run gathers the scenario's *hybrid twin*: the same
//! specs with the compiled-bot + FM-fallback policy attached. The
//! hybrid-transparent oracle demands the twin complete every task the
//! pure fleet completes — the compiled bot is a cost optimization, not a
//! capability change — excusing only budget trips (fallback plus rescue
//! tokens can exhaust a cumulative budget the pure run squeaked under).

use eclair_fleet::{Fleet, FleetConfig, FleetReport, MergeError};

use crate::scenario::Scenario;

/// One rung of the chaos ladder: the rate and the full report it
/// produced (oracles compare per-run records across rungs).
#[derive(Debug)]
pub struct LadderPoint {
    /// Fault rate this rung ran at.
    pub rate: f64,
    /// The rung's sequential fleet report.
    pub report: FleetReport,
}

/// Everything one scenario execution produced, ready for oracle checks.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Sequential execution — the deterministic ground truth.
    pub report: FleetReport,
    /// Concurrent execution on `scenario.workers` threads, present when
    /// the scenario uses more than one worker.
    pub parallel: Option<FleetReport>,
    /// The same scenario at rates `[0, rate/2, rate]`, present when
    /// chaos is armed.
    pub ladder: Option<Vec<LadderPoint>>,
    /// Sequential execution with every cache toggled the other way.
    /// Always gathered: the cache-transparent oracle demands it be
    /// byte-identical to `report`.
    pub cache_flip: FleetReport,
    /// Sequential execution of the scenario's hybrid twin — the same
    /// specs with the compiled-bot + FM-fallback policy attached. Always
    /// gathered: the hybrid-transparent oracle demands every pure-FM
    /// success also succeed here (a budget tripped earlier by fallback
    /// tokens is the one excused divergence).
    pub hybrid: FleetReport,
}

fn fleet_for(scenario: &Scenario, workers: usize) -> Fleet {
    Fleet::new(
        FleetConfig::default()
            .with_workers(workers)
            .with_queue_capacity(2 * workers)
            .with_retry(scenario.retry_policy())
            .with_seed(scenario.seed),
    )
}

/// Execute `scenario` and gather the evidence the oracles need.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioRun, MergeError> {
    let report = fleet_for(scenario, 1).run_sequential(scenario.specs())?;
    let parallel = if scenario.workers > 1 {
        Some(fleet_for(scenario, scenario.workers).run(scenario.specs())?)
    } else {
        None
    };
    let ladder = if scenario.chaos_enabled() {
        let mut points = Vec::with_capacity(3);
        for rate in [0.0, scenario.chaos_rate / 2.0, scenario.chaos_rate] {
            let rung = scenario.at_chaos_rate(rate);
            points.push(LadderPoint {
                rate,
                report: fleet_for(&rung, 1).run_sequential(rung.specs())?,
            });
        }
        Some(points)
    } else {
        None
    };
    let flipped = scenario.with_cache(!scenario.use_cache);
    let cache_flip = fleet_for(&flipped, 1).run_sequential(flipped.specs())?;
    let hybrid = fleet_for(scenario, 1).run_sequential(scenario.hybrid_specs())?;
    Ok(ScenarioRun {
        scenario: scenario.clone(),
        report,
        parallel,
        ladder,
        cache_flip,
        hybrid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_free_single_worker_scenario_runs_lean() {
        let mut s = Scenario::generate(31, 0);
        s.workers = 1;
        s.chaos_rate = 0.0;
        let run = run_scenario(&s).expect("runs");
        assert!(run.parallel.is_none());
        assert!(run.ladder.is_none());
        assert_eq!(
            run.report.outcome.records.len(),
            s.task_indices.len(),
            "one record per drawn task"
        );
        assert_eq!(
            run.cache_flip.outcome.to_json(),
            run.report.outcome.to_json(),
            "the opposite-cache re-run is always gathered and transparent"
        );
    }

    #[test]
    fn chaos_multi_worker_scenario_gathers_all_evidence() {
        let mut s = Scenario::generate(31, 1);
        s.workers = 4;
        s.chaos_rate = 0.4;
        s.chaos_seed = 9;
        let run = run_scenario(&s).expect("runs");
        assert!(run.parallel.is_some());
        let ladder = run.ladder.expect("chaos arms the ladder");
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[0].rate, 0.0);
        assert_eq!(ladder[1].rate, 0.2);
        assert_eq!(ladder[2].rate, 0.4);
        assert_eq!(
            ladder[0].report.outcome.faults_injected_total(),
            0,
            "the bottom rung is fault-free by construction"
        );
    }

    #[test]
    fn scenario_runs_are_reproducible() {
        let s = Scenario::generate(8, 2);
        let a = run_scenario(&s).expect("first");
        let b = run_scenario(&s).expect("second");
        assert_eq!(a.report.outcome.to_json(), b.report.outcome.to_json());
        assert_eq!(
            a.report.merged_trace_jsonl().unwrap(),
            b.report.merged_trace_jsonl().unwrap()
        );
    }
}
