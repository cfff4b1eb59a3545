//! Executing one [`RunSpec`] to completion: attempt loop, backoff,
//! budget/deadline enforcement, cancellation.
//!
//! This function is the unit of work a fleet worker thread runs. It is
//! deliberately free of shared state: a fresh `FmModel` per attempt
//! (seeded from `(run_seed, attempt)`), a private backoff RNG (its own
//! stream of the run seed), and a private trace recorder per attempt —
//! so its outputs depend only on the spec, never on scheduling.

use std::sync::Arc;

use eclair_chaos::{ChaosSchedule, ChaosSession};
use eclair_core::execute::executor::{run_on_session, run_task, ExecConfig, RunResult};
use eclair_fm::tokens::Pricing;
use eclair_fm::{FmModel, FmProfile, SharedPerceptCache, TokenMeter};
use eclair_hybrid::{compile_task, run_hybrid_on_session};
use eclair_trace::{RunSummary, TraceEvent, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backoff::RetryPolicy;
use crate::report::{RunOutcome, RunRecord};
use crate::scheduler::CancelToken;
use crate::spec::{derive_seed, RunSpec};

/// Stream index reserved for the backoff-jitter RNG (attempt seeds use
/// streams `1..=max_attempts`).
const BACKOFF_STREAM: u64 = u64::MAX;

/// Virtual microseconds one simulated backoff step costs. Backoff waits
/// are accounted in abstract steps by [`RetryPolicy::jittered_delay`];
/// this converts them onto the same virtual-time axis the executor's
/// cost model uses (a step ≈ a 250 ms polling interval).
pub const BACKOFF_STEP_US: u64 = 250_000;

/// Pricing schedule for a preset (self-hosted rate for the GUI-tuned
/// model, GPT-4 Turbo list price otherwise).
pub fn pricing_for(profile: FmProfile) -> Pricing {
    match profile {
        FmProfile::CogAgent18b => Pricing::self_hosted_18b(),
        _ => Pricing::gpt4_turbo(),
    }
}

/// Execute one spec: up to `policy.max_attempts` attempts with jittered
/// exponential backoff between them, a cumulative token budget, a
/// per-attempt step deadline, and a cancellation check before each
/// attempt. Returns the deterministic record plus the run's trace events
/// (all attempts, in order).
pub fn execute_spec(
    spec: &RunSpec,
    policy: &RetryPolicy,
    cancel: &CancelToken,
) -> (RunRecord, Vec<TraceEvent>) {
    execute_spec_shared(spec, policy, cancel, None)
}

/// As [`execute_spec`], with a fleet's percept cache attached to every
/// model the run instantiates (initial attempts *and* hybrid rescues —
/// both must see the same cache, or a rescue would recompute percepts
/// its bot attempt already published). Caching stays transparent, so
/// the record and events are byte-identical with and without the handle.
pub fn execute_spec_shared(
    spec: &RunSpec,
    policy: &RetryPolicy,
    cancel: &CancelToken,
    shared: Option<&Arc<SharedPerceptCache>>,
) -> (RunRecord, Vec<TraceEvent>) {
    let mut books = Books::default();
    let mut jitter_rng = StdRng::seed_from_u64(derive_seed(spec.seed, BACKOFF_STREAM));
    let max_attempts = policy.max_attempts.max(1);

    let mut cfg = spec.config.clone();
    if let Some(d) = spec.deadline_steps {
        cfg.max_steps = cfg.max_steps.min(d);
    }

    let mut attempts = 0u32;
    let mut faults_injected = 0u64;
    let mut backoff_steps = 0u64;
    let mut outcome = RunOutcome::Cancelled;
    let mut last: Option<RunResult> = None;

    for attempt in 1..=max_attempts {
        if cancel.is_cancelled() {
            break;
        }
        attempts = attempt;
        let mut model = attempt_model(spec, attempt, shared);
        let (mut result, ran_pure) = match &spec.hybrid {
            Some(_) => hybrid_attempt(spec, &cfg, &mut model, &mut faults_injected),
            None => (
                pure_attempt(spec, &cfg, &mut model, &mut faults_injected),
                true,
            ),
        };
        if !result.success && !ran_pure && spec.hybrid.as_ref().is_some_and(|p| p.full_fm_fallback)
        {
            // Transparency rescue: bank the hybrid attempt's books, then
            // run a pure-FM attempt on a *fresh* model at the same
            // attempt seed and a re-seated clock — byte-identical to the
            // attempt a hybrid-free spec would have executed, so hybrid
            // mode can only add successes, never remove them.
            books.bank(&mut model, &result);
            model = attempt_model(spec, attempt, shared);
            model
                .trace_mut()
                .note("hybrid: bot attempt failed; rescuing with a full FM run");
            result = pure_attempt(spec, &cfg, &mut model, &mut faults_injected);
        }
        books.bank(&mut model, &result);

        let over_budget = spec
            .token_budget
            .is_some_and(|b| books.tokens.total_tokens() > b);
        let deadline_hit = spec
            .deadline_steps
            .is_some_and(|d| result.actions_attempted >= d);
        let success = result.success;
        last = Some(result);

        if success {
            outcome = RunOutcome::Success;
            break;
        }
        if over_budget {
            outcome = RunOutcome::BudgetExceeded;
            break;
        }
        if attempt == max_attempts {
            outcome = if deadline_hit {
                RunOutcome::DeadlineExceeded
            } else {
                RunOutcome::Failed
            };
        } else {
            backoff_steps += policy.jittered_delay(attempt, &mut jitter_rng);
        }
    }

    let result = last.unwrap_or(RunResult {
        success: false,
        actions_attempted: 0,
        failures: 0,
        recoveries: 0,
        log: vec![],
    });
    let cost_usd = books.tokens.cost_usd(pricing_for(spec.profile));
    let record = RunRecord {
        run_id: spec.run_id,
        task_id: spec.task.id.clone(),
        profile: spec.profile,
        seed: spec.seed,
        attempts,
        retries: attempts.saturating_sub(1),
        outcome,
        result,
        summary: books.summary,
        tokens: books.tokens,
        cost_usd,
        faults_injected,
        exec_steps: books.exec_steps,
        backoff_steps,
        latency_steps: books.exec_steps + backoff_steps,
        vt_exec_us: books.vt_exec_us,
        vt_backoff_us: backoff_steps * BACKOFF_STEP_US,
        vt_total_us: books.vt_exec_us + backoff_steps * BACKOFF_STEP_US,
    };
    (record, books.events)
}

/// What a run's attempts add up to.
#[derive(Default)]
struct Books {
    exec_steps: u64,
    vt_exec_us: u64,
    summary: RunSummary,
    tokens: TokenMeter,
    events: Vec<TraceEvent>,
}

impl Books {
    /// Bank a finished attempt: its steps, virtual time, trace rollup,
    /// tokens and events.
    fn bank(&mut self, model: &mut FmModel, result: &RunResult) {
        self.exec_steps += result.actions_attempted as u64;
        self.vt_exec_us += model.trace().clock().now_us();
        self.summary.merge(&model.trace().summary());
        self.tokens.merge(model.meter());
        self.events.extend(model.trace_mut().take_events());
    }
}

/// A fresh model for `attempt`, perceiving through `shared` when given.
/// Its clock is re-seated on the *run* identity: latency draws are pure
/// in `(run seed, run_id, step)`, shared by all attempts, so a retried
/// step replays its attempt's latency exactly.
fn attempt_model(
    spec: &RunSpec,
    attempt: u32,
    shared: Option<&Arc<SharedPerceptCache>>,
) -> FmModel {
    let mut model = spec
        .profile
        .instantiate(derive_seed(spec.seed, attempt as u64));
    if let Some(cache) = shared {
        model.attach_shared(Arc::clone(cache));
    }
    model
        .trace_mut()
        .set_clock(VirtualClock::new(spec.seed, spec.run_id));
    model
}

/// One pure-FM attempt: the executor against the task's fixture, wrapped
/// in a chaos injector when the spec carries a fault profile. Retrying an
/// attempt replays the identical fault sequence — the schedule is pure in
/// `(chaos_seed, run_id, step)`.
fn pure_attempt(
    spec: &RunSpec,
    cfg: &ExecConfig,
    model: &mut FmModel,
    faults_injected: &mut u64,
) -> RunResult {
    match &spec.chaos {
        Some(profile) => {
            let schedule = ChaosSchedule::new(profile.clone(), spec.run_id);
            let mut surface = ChaosSession::new(spec.task.site.app(), schedule);
            let mut r = run_on_session(model, &mut surface, &spec.task.intent, cfg);
            r.success = spec.task.success.evaluate(surface.inner());
            *faults_injected += surface.faults_injected();
            r
        }
        None => run_task(model, &spec.task, cfg),
    }
}

/// One hybrid attempt: compile the task's validated trace into a bot and
/// run it with step-scoped FM fallback, under the same chaos wrapping a
/// pure attempt would get. Returns `(result, ran_pure)` — `ran_pure` is
/// true when compilation failed and the attempt already fell through to
/// a full FM run, so the caller must not rescue it a second time.
fn hybrid_attempt(
    spec: &RunSpec,
    cfg: &ExecConfig,
    model: &mut FmModel,
    faults_injected: &mut u64,
) -> (RunResult, bool) {
    let mut script = match compile_task(&spec.task, model.trace_mut()) {
        Ok(s) => s,
        Err(e) => {
            model
                .trace_mut()
                .note(format!("hybrid: compile failed ({e}); running pure FM"));
            return (pure_attempt(spec, cfg, model, faults_injected), true);
        }
    };
    let r = match &spec.chaos {
        Some(profile) => {
            let schedule = ChaosSchedule::new(profile.clone(), spec.run_id);
            let mut surface = ChaosSession::new(spec.task.site.app(), schedule);
            let report = run_hybrid_on_session(model, &mut surface, &mut script, cfg);
            let mut r = report.result;
            r.success = spec.task.success.evaluate(surface.inner());
            *faults_injected += surface.faults_injected();
            r
        }
        None => {
            let mut session = spec.task.launch();
            let report = run_hybrid_on_session(model, &mut session, &mut script, cfg);
            let mut r = report.result;
            r.success = spec.task.success.evaluate(&session);
            r
        }
    };
    (r, false)
}

/// The record a spec gets when the fleet is cancelled before any attempt.
pub fn cancelled_record(spec: &RunSpec) -> (RunRecord, Vec<TraceEvent>) {
    let record = RunRecord {
        run_id: spec.run_id,
        task_id: spec.task.id.clone(),
        profile: spec.profile,
        seed: spec.seed,
        attempts: 0,
        retries: 0,
        outcome: RunOutcome::Cancelled,
        result: RunResult {
            success: false,
            actions_attempted: 0,
            failures: 0,
            recoveries: 0,
            log: vec![],
        },
        summary: RunSummary::default(),
        tokens: TokenMeter::default(),
        cost_usd: 0.0,
        faults_injected: 0,
        exec_steps: 0,
        backoff_steps: 0,
        latency_steps: 0,
        vt_exec_us: 0,
        vt_backoff_us: 0,
        vt_total_us: 0,
    };
    (record, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_sites::all_tasks;

    fn spec(run_id: u64) -> RunSpec {
        let task = all_tasks().remove(2); // close-issue: short and robust
        RunSpec::for_task(11, run_id, task, FmProfile::Oracle)
    }

    #[test]
    fn oracle_succeeds_first_attempt() {
        let (rec, events) = execute_spec(&spec(0), &RetryPolicy::default(), &CancelToken::new());
        assert_eq!(rec.outcome, RunOutcome::Success);
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.retries, 0);
        assert_eq!(rec.backoff_steps, 0);
        assert!(rec.result.success);
        assert!(!events.is_empty());
        assert_eq!(rec.summary.fm_calls(), rec.tokens.calls);
        assert!(rec.cost_usd > 0.0);
        assert!(rec.vt_exec_us > 0, "execution must consume virtual time");
        assert_eq!(rec.vt_backoff_us, 0);
        assert_eq!(rec.vt_total_us, rec.vt_exec_us);
        // The final event's stamp is the clock's final reading.
        assert_eq!(events.last().unwrap().vt, rec.vt_exec_us);
    }

    #[test]
    fn token_budget_stops_retrying() {
        let s = spec(1).with_token_budget(1); // everything blows this budget
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let mut s2 = s.clone();
        // Make the run unable to succeed so the budget is what stops it:
        // an impossible success predicate.
        s2.task.success = eclair_sites::SuccessCheck::probes(&[("never", "true")]);
        let (rec, _) = execute_spec(&s2, &policy, &CancelToken::new());
        assert_eq!(rec.outcome, RunOutcome::BudgetExceeded);
        assert_eq!(rec.attempts, 1, "budget exhaustion must stop retries");
    }

    #[test]
    fn failed_runs_retry_and_accumulate_backoff() {
        let mut s = spec(2);
        s.task.success = eclair_sites::SuccessCheck::probes(&[("never", "true")]);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_steps: 4,
            max_delay_steps: 64,
            multiplier: 2.0,
            jitter: 0.0,
        };
        let (rec, _) = execute_spec(&s, &policy, &CancelToken::new());
        assert_eq!(rec.outcome, RunOutcome::Failed);
        assert_eq!(rec.attempts, 3);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.backoff_steps, 4 + 8);
        assert_eq!(rec.latency_steps, rec.exec_steps + 12);
        assert_eq!(rec.vt_backoff_us, 12 * BACKOFF_STEP_US);
        assert_eq!(rec.vt_total_us, rec.vt_exec_us + 12 * BACKOFF_STEP_US);
    }

    #[test]
    fn deadline_is_enforced_and_reported() {
        let mut s = spec(3).with_deadline_steps(1);
        s.task.success = eclair_sites::SuccessCheck::probes(&[("never", "true")]);
        let (rec, _) = execute_spec(&s, &RetryPolicy::none(), &CancelToken::new());
        assert_eq!(rec.outcome, RunOutcome::DeadlineExceeded);
        assert!(rec.result.actions_attempted <= 1);
    }

    #[test]
    fn cancelled_before_start_yields_cancelled_record() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let (rec, events) = execute_spec(&spec(4), &RetryPolicy::default(), &cancel);
        assert_eq!(rec.outcome, RunOutcome::Cancelled);
        assert_eq!(rec.attempts, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn chaos_attempts_inject_faults_and_stay_deterministic() {
        use eclair_chaos::ChaosProfile;
        let s = spec(6).with_chaos(ChaosProfile::full(17, 1.0));
        let p = RetryPolicy::default();
        let (rec_a, ev_a) = execute_spec(&s, &p, &CancelToken::new());
        let (rec_b, ev_b) = execute_spec(&s, &p, &CancelToken::new());
        assert_eq!(rec_a, rec_b, "chaos runs are pure functions of the spec");
        assert_eq!(ev_a, ev_b);
        assert!(
            rec_a.faults_injected > 0,
            "a fault rate of 1.0 must inject at every step"
        );
        assert!(
            ev_a.iter()
                .any(|e| matches!(e.kind, eclair_trace::EventKind::FaultInjected { .. })),
            "injections must surface in the trace"
        );
    }

    #[test]
    fn chaos_free_runs_report_zero_faults() {
        let (rec, _) = execute_spec(&spec(7), &RetryPolicy::default(), &CancelToken::new());
        assert_eq!(rec.faults_injected, 0);
    }

    #[test]
    fn hybrid_runs_succeed_at_a_fraction_of_pure_fm_tokens() {
        use eclair_hybrid::HybridPolicy;
        let s = spec(8);
        let (pure, _) = execute_spec(&s, &RetryPolicy::default(), &CancelToken::new());
        let h = s.with_hybrid(HybridPolicy::default());
        let (hybrid, _) = execute_spec(&h, &RetryPolicy::default(), &CancelToken::new());
        assert_eq!(pure.outcome, RunOutcome::Success);
        assert_eq!(hybrid.outcome, RunOutcome::Success);
        assert_eq!(
            hybrid.tokens.total_tokens(),
            0,
            "a driftless bot run costs zero tokens"
        );
        assert!(pure.tokens.total_tokens() > 0);
    }

    #[test]
    fn uncompilable_tasks_fall_through_to_one_pure_attempt() {
        use eclair_hybrid::HybridPolicy;
        // An impossible success predicate also fails the compile gate
        // (the replayed gold trace cannot demonstrate the outcome), so
        // the attempt runs pure FM exactly once — no double rescue.
        let mut s = spec(9);
        s.task.success = eclair_sites::SuccessCheck::probes(&[("never", "true")]);
        let policy = RetryPolicy::none();
        let (pure, _) = execute_spec(&s, &policy, &CancelToken::new());
        let h = s.with_hybrid(HybridPolicy::default());
        let (hybrid, _) = execute_spec(&h, &policy, &CancelToken::new());
        assert_eq!(pure.outcome, hybrid.outcome);
        assert_eq!(
            pure.result.actions_attempted, hybrid.result.actions_attempted,
            "the fallthrough attempt is the exact pure attempt"
        );
        assert_eq!(
            pure.exec_steps, hybrid.exec_steps,
            "compile failure must not double-run the attempt"
        );
        assert_eq!(pure.tokens.total_tokens(), hybrid.tokens.total_tokens());
    }

    #[test]
    fn hybrid_rescue_matches_the_pure_outcome_when_the_bot_cannot_win() {
        use eclair_hybrid::HybridPolicy;
        // A step deadline shorter than the script: the bot attempt runs
        // out, and the rescue replays the exact pure attempt.
        let s = spec(12).with_deadline_steps(1);
        let policy = RetryPolicy::none();
        let (pure, _) = execute_spec(&s, &policy, &CancelToken::new());
        let h = s.with_hybrid(HybridPolicy::default());
        let (hybrid, _) = execute_spec(&h, &policy, &CancelToken::new());
        assert_eq!(pure.outcome, hybrid.outcome);
        assert_eq!(
            pure.result.actions_attempted, hybrid.result.actions_attempted,
            "the rescue attempt is the exact pure attempt"
        );
        assert!(
            hybrid.exec_steps > pure.exec_steps,
            "hybrid books include the banked bot attempt"
        );
        assert!(
            hybrid.tokens.total_tokens() >= pure.tokens.total_tokens(),
            "rescue includes the full pure attempt"
        );
    }

    #[test]
    fn hybrid_execution_is_a_pure_function_of_the_spec() {
        use eclair_chaos::ChaosProfile;
        use eclair_hybrid::HybridPolicy;
        let s = spec(10)
            .with_chaos(ChaosProfile::full(23, 0.5))
            .with_hybrid(HybridPolicy::default());
        let p = RetryPolicy::default();
        let a = execute_spec(&s, &p, &CancelToken::new());
        let b = execute_spec(&s, &p, &CancelToken::new());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn execution_is_a_pure_function_of_the_spec() {
        let s = spec(5);
        let p = RetryPolicy::default();
        let a = execute_spec(&s, &p, &CancelToken::new());
        let b = execute_spec(&s, &p, &CancelToken::new());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
