//! The three fleet workloads: the corpus as `RunSpec`s on
//! `FmProfile::Gpt4V`, optionally under chaos or as hybrid bots.
//!
//! The parallel pass is the production path (`Fleet::run` plus the
//! flight-record export); the timed pass calls `execute_spec_shared` once
//! per run; the traced pass re-assembles `execute_spec_shared`'s attempt
//! loop from the library's public calls with a layer scope around each.

use std::sync::Arc;
use std::time::Instant;

use eclair_chaos::{ChaosProfile, ChaosSchedule, ChaosSession};
use eclair_core::execute::executor::{run_on_session, RunResult};
use eclair_fleet::{
    derive_seed, execute_spec_shared, specs_for_tasks, CancelToken, Fleet, FleetConfig,
    RetryPolicy, RunOutcome, RunRecord, RunSpec,
};
use eclair_fm::{shared_percept_cache, FmModel, FmProfile, SharedPerceptCache, TokenMeter};
use eclair_hybrid::{compile_task, run_hybrid_on_session, HybridPolicy};
use eclair_sites::TaskSpec;
use eclair_trace::{merge_event_streams, merged_jsonl, RunSummary, TraceEvent, VirtualClock};

use crate::layers::{scope, Layer, TimedSurface};
use crate::legs::{shuffle, Load, Pass, RunKey};

/// Fleet worker threads: one per client of the closed loop.
const WORKERS: usize = 2;

/// A fleet workload over a fixed task list.
pub struct FleetLoad {
    tasks: Vec<TaskSpec>,
    chaos: Option<ChaosProfile>,
    hybrid: Option<HybridPolicy>,
    retry: RetryPolicy,
}

impl FleetLoad {
    /// Every pass runs each task once under `chaos` and `hybrid`.
    pub fn new(
        tasks: Vec<TaskSpec>,
        chaos: Option<ChaosProfile>,
        hybrid: Option<HybridPolicy>,
    ) -> Self {
        Self {
            tasks,
            chaos,
            hybrid,
            retry: RetryPolicy::default(),
        }
    }

    fn specs(&self, seed: u64) -> Vec<RunSpec> {
        specs_for_tasks(seed, self.tasks.clone(), FmProfile::Gpt4V)
            .into_iter()
            .map(|mut s| {
                s.chaos = self.chaos.clone();
                s.hybrid = self.hybrid;
                s
            })
            .collect()
    }
}

fn key(r: &RunRecord) -> RunKey {
    RunKey {
        outcome: r.outcome as u64,
        success: r.outcome == RunOutcome::Success,
        attempts: r.attempts as u64,
        fm_calls: r.summary.fm_calls(),
        tokens: r.tokens.total_tokens(),
        steps: r.exec_steps,
        faults: r.faults_injected,
        detail: r.vt_exec_us,
    }
}

/// Merge per-run streams in run-id order and export them as JSON Lines.
fn export(streams: &[Vec<TraceEvent>]) -> (String, u64) {
    let merged = merge_event_streams(streams.iter().map(Vec::as_slice))
        .expect("per-run streams are well-formed");
    let events = merged.len() as u64;
    (
        merged_jsonl(&merged).expect("merged trace serializes"),
        events,
    )
}

impl Load for FleetLoad {
    fn pass_parallel(&self, seed: u64, order: u64) -> Pass {
        let fleet = Fleet::new(FleetConfig {
            workers: WORKERS,
            fleet_seed: seed,
            retry: self.retry,
            ..FleetConfig::default()
        });
        // A run's result depends on its spec alone, and the report is in
        // run-id order, so the submission order changes only the schedule.
        let mut specs = self.specs(seed);
        shuffle(&mut specs, order);
        let report = fleet.run(specs).expect("fleet run");
        let jsonl = report
            .merged_trace_jsonl()
            .expect("merged trace serializes");
        Pass::new(
            report.outcome.records.iter().map(key).collect(),
            &jsonl,
            report.merged_trace.len() as u64,
        )
    }

    fn pass_timed(&self, seed: u64, run_ms: &mut Vec<f64>) -> Pass {
        let shared = shared_percept_cache();
        let cancel = CancelToken::new();
        let mut keys = Vec::with_capacity(self.tasks.len());
        let mut streams = Vec::with_capacity(self.tasks.len());
        for spec in self.specs(seed) {
            let t = Instant::now();
            let (record, events) = execute_spec_shared(&spec, &self.retry, &cancel, Some(&shared));
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            keys.push(key(&record));
            streams.push(events);
        }
        let (jsonl, events) = export(&streams);
        Pass::new(keys, &jsonl, events)
    }

    fn pass_traced(&self, seed: u64, run_ns: &mut Vec<f64>) -> Pass {
        let shared = shared_percept_cache();
        let mut keys = Vec::with_capacity(self.tasks.len());
        let mut streams = Vec::with_capacity(self.tasks.len());
        for spec in self.specs(seed) {
            let t = Instant::now();
            let (key, events) = traced_run(&spec, &self.retry, &shared);
            run_ns.push(t.elapsed().as_nanos() as f64);
            keys.push(key);
            streams.push(events);
        }
        let _export = scope(Layer::TraceExport);
        let (jsonl, events) = export(&streams);
        Pass::new(keys, &jsonl, events)
    }
}

/// Books of one run, accumulated over its attempts.
#[derive(Default)]
struct Books {
    summary: RunSummary,
    tokens: TokenMeter,
    events: Vec<TraceEvent>,
    steps: u64,
    vt_us: u64,
    faults: u64,
}

impl Books {
    fn bank(&mut self, model: &mut FmModel, result: &RunResult) {
        self.steps += result.actions_attempted as u64;
        self.vt_us += model.trace().clock().now_us();
        self.summary.merge(&model.trace().summary());
        self.tokens.merge(model.meter());
        self.events.extend(model.trace_mut().take_events());
    }
}

/// A model for attempt `attempt` of `spec`, set up as the fleet worker
/// sets it up: attempt seed, shared cache, clock on the run identity.
fn attempt_model(spec: &RunSpec, attempt: u32, shared: &Arc<SharedPerceptCache>) -> FmModel {
    let mut model = spec
        .profile
        .instantiate(derive_seed(spec.seed, attempt as u64));
    model.attach_shared(Arc::clone(shared));
    model
        .trace_mut()
        .set_clock(VirtualClock::new(spec.seed, spec.run_id));
    model
}

/// One run of `spec`, as `execute_spec_shared` performs it, with the
/// layers scoped: everything outside the launch, evaluate, compile and
/// GUI scopes (the executors, the FM, the attempt bookkeeping) is booked
/// to `core.execute`. The benchmark's specs carry no token budget,
/// deadline or cancellation, so those branches of the real loop never
/// fire here.
fn traced_run(
    spec: &RunSpec,
    retry: &RetryPolicy,
    shared: &Arc<SharedPerceptCache>,
) -> (RunKey, Vec<TraceEvent>) {
    let _execute = scope(Layer::CoreExecute);
    let mut books = Books::default();
    let mut attempts = 0;
    let mut success = false;
    for attempt in 1..=retry.max_attempts.max(1) {
        attempts = attempt;
        let mut model = attempt_model(spec, attempt, shared);
        let (mut result, ran_pure) = match spec.hybrid {
            Some(_) => hybrid_attempt(spec, &mut model, &mut books.faults),
            None => (pure_attempt(spec, &mut model, &mut books.faults), true),
        };
        if !result.success && !ran_pure && spec.hybrid.is_some_and(|p| p.full_fm_fallback) {
            books.bank(&mut model, &result);
            model = attempt_model(spec, attempt, shared);
            model
                .trace_mut()
                .note("hybrid: bot attempt failed; rescuing with a full FM run");
            result = pure_attempt(spec, &mut model, &mut books.faults);
        }
        books.bank(&mut model, &result);
        if result.success {
            success = true;
            break;
        }
    }
    let outcome = if success {
        RunOutcome::Success
    } else {
        RunOutcome::Failed
    };
    let key = RunKey {
        outcome: outcome as u64,
        success,
        attempts: attempts as u64,
        fm_calls: books.summary.fm_calls(),
        tokens: books.tokens.total_tokens(),
        steps: books.steps,
        faults: books.faults,
        detail: books.vt_us,
    };
    (key, books.events)
}

/// The surface an attempt drives: the task's site, wrapped in the chaos
/// injector when the spec carries a fault profile.
enum Surface {
    Plain(TimedSurface<eclair_gui::Session>),
    Chaos(TimedSurface<ChaosSession>),
}

fn launch(spec: &RunSpec) -> Surface {
    let _sites = scope(Layer::SitesLaunch);
    match &spec.chaos {
        Some(profile) => {
            let schedule = ChaosSchedule::new(profile.clone(), spec.run_id);
            Surface::Chaos(TimedSurface::new(ChaosSession::new(
                spec.task.site.app(),
                schedule,
            )))
        }
        None => Surface::Plain(TimedSurface::new(spec.task.launch())),
    }
}

fn pure_attempt(spec: &RunSpec, model: &mut FmModel, faults: &mut u64) -> RunResult {
    let cfg = &spec.config;
    match launch(spec) {
        Surface::Plain(mut s) => {
            let r = run_on_session(model, &mut s, &spec.task.intent, cfg);
            finish(spec, r, s.inner())
        }
        Surface::Chaos(mut s) => {
            let r = run_on_session(model, &mut s, &spec.task.intent, cfg);
            *faults += s.inner().faults_injected();
            finish(spec, r, s.inner().inner())
        }
    }
}

/// Returns `(result, ran_pure)`: `ran_pure` when compilation failed and
/// the attempt already fell through to a pure FM run.
fn hybrid_attempt(spec: &RunSpec, model: &mut FmModel, faults: &mut u64) -> (RunResult, bool) {
    let compiled = {
        let _hybrid = scope(Layer::HybridCompile);
        compile_task(&spec.task, model.trace_mut())
    };
    let mut script = match compiled {
        Ok(s) => s,
        Err(e) => {
            model
                .trace_mut()
                .note(format!("hybrid: compile failed ({e}); running pure FM"));
            return (pure_attempt(spec, model, faults), true);
        }
    };
    let cfg = &spec.config;
    let r = match launch(spec) {
        Surface::Plain(mut s) => {
            let r = run_hybrid_on_session(model, &mut s, &mut script, cfg).result;
            finish(spec, r, s.inner())
        }
        Surface::Chaos(mut s) => {
            let r = run_hybrid_on_session(model, &mut s, &mut script, cfg).result;
            *faults += s.inner().faults_injected();
            finish(spec, r, s.inner().inner())
        }
    };
    (r, false)
}

fn finish(spec: &RunSpec, mut result: RunResult, session: &eclair_gui::Session) -> RunResult {
    let _sites = scope(Layer::SitesEvaluate);
    result.success = spec.task.success.evaluate(session);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_trace::EventKind;

    #[test]
    fn traced_run_mirrors_execute_spec_on_every_branch() {
        // Faults at every step make bots drift and fail (full-FM rescues);
        // an impossible success check fails compilation (fall-through to
        // pure FM) and exhausts every retry.
        let mut tasks: Vec<TaskSpec> = eclair_sites::all_tasks().into_iter().take(6).collect();
        tasks[5].success = eclair_sites::SuccessCheck::probes(&[("never", "true")]);
        let chaos = ChaosProfile::full(3, 1.0);
        let load = FleetLoad::new(tasks, Some(chaos), Some(HybridPolicy::default()));
        let mut rescues = 0;
        for spec in load.specs(11) {
            let shared = shared_percept_cache();
            let (record, events) =
                execute_spec_shared(&spec, &load.retry, &CancelToken::new(), Some(&shared));
            let (traced, traced_events) = traced_run(&spec, &load.retry, &shared_percept_cache());
            assert_eq!(traced, key(&record), "{}", spec.task.id);
            assert_eq!(traced_events, events, "{}", spec.task.id);
            rescues += events
                .iter()
                .filter(
                    |e| matches!(&e.kind, EventKind::Note { text } if text.contains("rescuing")),
                )
                .count();
        }
        assert!(rescues > 0, "the fixture must exercise the full-FM rescue");
    }
}
