//! The oracle registry: metamorphic and invariant checks over a
//! [`ScenarioRun`].
//!
//! Each oracle is a named pure function from evidence to a verdict.
//! Oracles never re-run anything — the runner gathered all evidence up
//! front — so a check is cheap enough to evaluate on every scenario of a
//! sweep, and a violation pinpoints which contract broke, not merely
//! that something did.
//!
//! Two flavors live here side by side:
//!
//! * **invariants** — properties of a single execution (span trees
//!   well-formed, token accounting closed, budgets enforced);
//! * **metamorphic relations** — properties across related executions
//!   (N workers vs sequential, completion vs chaos rate), which catch
//!   bugs no single-run assertion can see.

use eclair_trace::{audit_seq_gapless, audit_spans, fault_injections, fm_token_totals, RunSummary};

use crate::runner::ScenarioRun;

/// One oracle's verdict on one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The contract held.
    Pass,
    /// The oracle does not apply to this scenario (e.g. the parallel
    /// oracle on a single-worker scenario). Skips are not counted as
    /// evaluated checks.
    Skip,
    /// The contract broke; the string says how.
    Fail(String),
}

/// A named check over scenario evidence.
pub struct Oracle {
    /// Stable name, used in violation reports and shrinker predicates.
    pub name: &'static str,
    /// One-line statement of the contract.
    pub contract: &'static str,
    /// The check itself.
    pub check: fn(&ScenarioRun) -> Verdict,
}

/// A failed check, attributed to its oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

/// What evaluating the registry over one run produced.
#[derive(Debug, Clone, Default)]
pub struct Evaluation {
    /// Oracles that actually evaluated (passes + failures, not skips).
    pub checks: usize,
    /// Every contract that broke.
    pub violations: Vec<Violation>,
}

impl Evaluation {
    /// No contract broke.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn fail(cond: bool, detail: impl FnOnce() -> String) -> Verdict {
    if cond {
        Verdict::Fail(detail())
    } else {
        Verdict::Pass
    }
}

fn records_complete(run: &ScenarioRun) -> Verdict {
    let o = &run.report.outcome;
    let n = run.scenario.task_indices.len();
    if o.records.len() != n {
        return Verdict::Fail(format!("{} records for {} tasks", o.records.len(), n));
    }
    for (i, r) in o.records.iter().enumerate() {
        if r.run_id != i as u64 {
            return Verdict::Fail(format!("record {i} carries run_id {}", r.run_id));
        }
        if r.seed != eclair_fleet::derive_seed(run.scenario.seed, r.run_id) {
            return Verdict::Fail(format!("run {i}: seed not derived from the fleet seed"));
        }
        if r.profile != run.scenario.profile {
            return Verdict::Fail(format!("run {i}: profile {:?}", r.profile));
        }
    }
    fail(o.cancelled != 0, || {
        format!("{} cancelled records in an uncancelled fleet", o.cancelled)
    })
}

fn aggregates_consistent(run: &ScenarioRun) -> Verdict {
    let o = &run.report.outcome;
    let recomputed = eclair_fleet::FleetOutcome::from_records(o.fleet_seed, o.records.clone());
    fail(recomputed != *o, || {
        "fleet aggregates do not equal a recomputation from the records".to_string()
    })
}

fn recoveries_bounded(run: &ScenarioRun) -> Verdict {
    for r in &run.report.outcome.records {
        if r.result.recoveries > r.result.failures {
            return Verdict::Fail(format!(
                "run {}: {} recoveries from {} failures",
                r.run_id, r.result.recoveries, r.result.failures
            ));
        }
    }
    Verdict::Pass
}

fn tokens_account(run: &ScenarioRun) -> Verdict {
    let t = &run.report.outcome.tokens;
    let traced = fm_token_totals(&run.report.merged_trace);
    fail(
        (traced.prompt, traced.completion, traced.calls)
            != (t.prompt_tokens, t.completion_tokens, t.calls),
        || {
            format!(
                "trace accounts {traced:?}, meters say ({}, {}, {})",
                t.prompt_tokens, t.completion_tokens, t.calls
            )
        },
    )
}

fn span_tree_wellformed(run: &ScenarioRun) -> Verdict {
    match audit_spans(&run.report.merged_trace) {
        Ok(audit) => fail(audit.unclosed != 0, || {
            format!("{} spans never closed", audit.unclosed)
        }),
        Err(e) => Verdict::Fail(e.to_string()),
    }
}

fn seq_gapless(run: &ScenarioRun) -> Verdict {
    match audit_seq_gapless(&run.report.merged_trace) {
        Ok(()) => Verdict::Pass,
        Err(e) => Verdict::Fail(e.to_string()),
    }
}

fn merged_rollup_additive(run: &ScenarioRun) -> Verdict {
    let from_trace = RunSummary::from_events(&run.report.merged_trace);
    fail(from_trace != run.report.outcome.totals, || {
        "rollup of the merged trace differs from the summed per-run summaries".to_string()
    })
}

fn parallel_matches_sequential(run: &ScenarioRun) -> Verdict {
    let Some(par) = &run.parallel else {
        return Verdict::Skip;
    };
    if par.outcome.to_json() != run.report.outcome.to_json() {
        return Verdict::Fail(format!(
            "{}-worker outcome diverged from sequential",
            run.scenario.workers
        ));
    }
    fail(par.merged_trace != run.report.merged_trace, || {
        format!(
            "{}-worker merged trace diverged from sequential",
            run.scenario.workers
        )
    })
}

fn chaos_isolation(run: &ScenarioRun) -> Verdict {
    // The metamorphic relation chaos actually guarantees. Completion is
    // NOT monotone in the fault rate — an injected session expiry can
    // force a re-login that rescues a run its fault-free trajectory
    // fails (the sweep found exactly this) — but a run in which *zero*
    // faults landed must be untouched: byte-identical to its execution
    // at rate 0. Anything else means the chaos layer perturbs runs it
    // claims not to have entered.
    let Some(ladder) = &run.ladder else {
        return Verdict::Skip;
    };
    let base = &ladder[0].report.outcome;
    for rung in &ladder[1..] {
        for r in &rung.report.outcome.records {
            if r.faults_injected > 0 {
                continue;
            }
            match base.record(r.run_id) {
                Some(b) if b == r => {}
                Some(_) => {
                    return Verdict::Fail(format!(
                        "run {} took no faults at rate {} yet diverged from its rate-0 record",
                        r.run_id, rung.rate
                    ))
                }
                None => {
                    return Verdict::Fail(format!(
                        "run {} exists at rate {} but not at rate 0",
                        r.run_id, rung.rate
                    ))
                }
            }
        }
    }
    Verdict::Pass
}

fn faults_iff_chaos(run: &ScenarioRun) -> Verdict {
    let counted = run.report.outcome.faults_injected_total();
    let traced = fault_injections(&run.report.merged_trace).count() as u64;
    if traced != counted {
        return Verdict::Fail(format!(
            "{traced} FaultInjected events for {counted} counted injections"
        ));
    }
    fail(!run.scenario.chaos_enabled() && counted != 0, || {
        format!("{counted} faults injected with chaos disabled")
    })
}

fn cache_transparent(run: &ScenarioRun) -> Verdict {
    // The frame cache is an optimization, never an observable: a cached
    // frame is the frame a render would have painted. The runner
    // re-executed the scenario with the cache toggled; any drift means the
    // cache served stale state or leaked its existence into the record.
    let flip = &run.cache_flip;
    if flip.outcome.to_json() != run.report.outcome.to_json() {
        return Verdict::Fail(format!(
            "outcome diverged when the cache toggled {}",
            if run.scenario.use_cache { "off" } else { "on" }
        ));
    }
    fail(flip.merged_trace != run.report.merged_trace, || {
        "merged trace diverged when the cache toggled".to_string()
    })
}

fn budgets_respected(run: &ScenarioRun) -> Verdict {
    use eclair_fleet::RunOutcome;
    let s = &run.scenario;
    for r in &run.report.outcome.records {
        if r.attempts > s.max_attempts || r.retries != r.attempts.saturating_sub(1) {
            return Verdict::Fail(format!(
                "run {}: {} attempts / {} retries under max_attempts {}",
                r.run_id, r.attempts, r.retries, s.max_attempts
            ));
        }
        if let Some(b) = s.token_budget {
            let total = r.tokens.total_tokens();
            let ok = match r.outcome {
                // Success is checked before the budget, so a winning final
                // attempt may legitimately overshoot; what must never
                // happen is a non-budget failure *above* the budget (a
                // retry the budget should have stopped) or a budget
                // verdict below it.
                RunOutcome::BudgetExceeded => total > b,
                RunOutcome::Failed | RunOutcome::DeadlineExceeded => total <= b,
                _ => true,
            };
            if !ok {
                return Verdict::Fail(format!(
                    "run {}: outcome {:?} with {total} tokens against budget {b}",
                    r.run_id, r.outcome
                ));
            }
        }
        if let Some(d) = s.deadline_steps {
            if r.result.actions_attempted > d {
                return Verdict::Fail(format!(
                    "run {}: {} steps in the final attempt against deadline {d}",
                    r.run_id, r.result.actions_attempted
                ));
            }
        }
    }
    Verdict::Pass
}

fn vt_additive(run: &ScenarioRun) -> Verdict {
    // Virtual-time accounting must be additive over the span tree: the
    // exclusive times of all spans telescope back to exactly the summed
    // inclusive time of the root spans, with no negative-duration and no
    // unclosed spans. A violation means an event was stamped outside its
    // span's lifetime — i.e. the virtual clock ran backwards or a span
    // leaked. Never skips: every scenario produces a merged trace.
    let p = eclair_obs::profile_spans(&run.report.merged_trace);
    if !p.is_additive() {
        return Verdict::Fail(format!(
            "exclusive sum {} vs root total {} ({} negative, {} unclosed spans)",
            p.exclusive_sum_us, p.total_root_us, p.negative_spans, p.unclosed
        ));
    }
    for r in &run.report.outcome.records {
        if r.vt_total_us != r.vt_exec_us + r.vt_backoff_us {
            return Verdict::Fail(format!(
                "run {}: vt_total {} != exec {} + backoff {}",
                r.run_id, r.vt_total_us, r.vt_exec_us, r.vt_backoff_us
            ));
        }
    }
    Verdict::Pass
}

fn hybrid_transparent(run: &ScenarioRun) -> Verdict {
    // The compiled bot is a cost optimization, never a capability change:
    // with the full-FM rescue on (the default the runner uses), a hybrid
    // attempt that fails re-runs the exact pure-FM attempt at the same
    // seed, so the twin must complete every task the pure fleet does. The
    // one excused divergence is a budget trip — fallback plus rescue
    // tokens accumulate against the same cumulative budget, so the twin
    // may exhaust it on an earlier attempt than the pure run did. Never
    // skips: the runner always gathers the twin.
    use eclair_fleet::RunOutcome;
    for r in &run.report.outcome.records {
        let Some(twin) = run.hybrid.outcome.record(r.run_id) else {
            return Verdict::Fail(format!("run {} has no hybrid twin record", r.run_id));
        };
        if r.outcome == RunOutcome::Success
            && !matches!(
                twin.outcome,
                RunOutcome::Success | RunOutcome::BudgetExceeded
            )
        {
            return Verdict::Fail(format!(
                "run {} succeeds pure-FM but its hybrid twin reports {:?}",
                r.run_id, twin.outcome
            ));
        }
    }
    Verdict::Pass
}

/// The full registry, in evaluation order.
pub fn registry() -> Vec<Oracle> {
    vec![
        Oracle {
            name: "records-complete",
            contract: "one record per task, run-id ordered, seeds derived, nothing cancelled",
            check: records_complete,
        },
        Oracle {
            name: "aggregates-consistent",
            contract: "fleet aggregates equal a recomputation from the per-run records",
            check: aggregates_consistent,
        },
        Oracle {
            name: "recoveries-bounded",
            contract: "a run never recovers more times than it failed",
            check: recoveries_bounded,
        },
        Oracle {
            name: "tokens-account",
            contract: "FmCall events in the trace sum to exactly the token meters",
            check: tokens_account,
        },
        Oracle {
            name: "span-tree-wellformed",
            contract: "the merged trace is a forest: LIFO ends, unique open ids, parents resolve",
            check: span_tree_wellformed,
        },
        Oracle {
            name: "seq-gapless",
            contract: "merged trace sequence numbers run 0,1,2,… with no gaps",
            check: seq_gapless,
        },
        Oracle {
            name: "merged-rollup-additive",
            contract: "summarizing the merged trace equals the sum of per-run summaries",
            check: merged_rollup_additive,
        },
        Oracle {
            name: "parallel-matches-sequential",
            contract: "an N-worker fleet is byte-identical to the sequential baseline",
            check: parallel_matches_sequential,
        },
        Oracle {
            name: "chaos-isolation",
            contract: "a run that took zero faults is byte-identical to its rate-0 execution",
            check: chaos_isolation,
        },
        Oracle {
            name: "faults-iff-chaos",
            contract: "FaultInjected events match the counters and only occur under chaos",
            check: faults_iff_chaos,
        },
        Oracle {
            name: "cache-transparent",
            contract: "toggling every cache leaves outcome and trace byte-identical",
            check: cache_transparent,
        },
        Oracle {
            name: "budgets-respected",
            contract: "attempt, token, and deadline budgets are enforced as specified",
            check: budgets_respected,
        },
        Oracle {
            name: "vt-additive",
            contract: "virtual-time accounting is additive: span exclusive times telescope to the root total",
            check: vt_additive,
        },
        Oracle {
            name: "hybrid-transparent",
            contract: "the compiled-bot twin completes every task the pure-FM fleet completes (budget trips excused)",
            check: hybrid_transparent,
        },
    ]
}

/// Evaluate every applicable oracle against one run.
pub fn evaluate(run: &ScenarioRun) -> Evaluation {
    let mut eval = Evaluation::default();
    for oracle in registry() {
        match (oracle.check)(run) {
            Verdict::Pass => eval.checks += 1,
            Verdict::Skip => {}
            Verdict::Fail(detail) => {
                eval.checks += 1;
                eval.violations.push(Violation {
                    oracle: oracle.name,
                    detail,
                });
            }
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;
    use crate::scenario::Scenario;

    #[test]
    fn registry_names_are_unique_and_documented() {
        let reg = registry();
        assert!(reg.len() >= 10, "the ISSUE promises ~10 oracles");
        let mut names: Vec<_> = reg.iter().map(|o| o.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), reg.len());
        assert!(reg.iter().all(|o| !o.contract.is_empty()));
    }

    #[test]
    fn a_healthy_scenario_passes_every_applicable_oracle() {
        // Chaos + budgets + retries + multi-worker: arms every oracle.
        let mut s = Scenario::generate(17, 5);
        s.workers = 3;
        s.chaos_rate = 0.3;
        s.chaos_seed = 41;
        s.max_attempts = 2;
        let run = run_scenario(&s).expect("runs");
        let eval = evaluate(&run);
        assert!(eval.passed(), "violations: {:?}", eval.violations);
        assert_eq!(eval.checks, registry().len(), "nothing should skip here");
    }

    #[test]
    fn inapplicable_oracles_skip_instead_of_passing_vacuously() {
        let mut s = Scenario::generate(17, 6);
        s.workers = 1;
        s.chaos_rate = 0.0;
        let run = run_scenario(&s).expect("runs");
        let eval = evaluate(&run);
        assert!(eval.passed(), "violations: {:?}", eval.violations);
        assert_eq!(
            eval.checks,
            registry().len() - 2,
            "parallel and ladder oracles must skip"
        );
    }

    #[test]
    fn a_regressed_hybrid_twin_breaks_transparency() {
        let mut s = Scenario::generate(17, 8);
        s.workers = 1;
        s.chaos_rate = 0.0;
        let mut run = run_scenario(&s).expect("runs");
        let victim = run
            .report
            .outcome
            .records
            .iter()
            .find(|r| r.outcome == eclair_fleet::RunOutcome::Success)
            .map(|r| r.run_id)
            .expect("a chaos-free scenario completes something");
        // Doctor the twin: pretend the compiled bot lost a task the pure
        // fleet wins, for a reason the budget excuse does not cover.
        let twin = run
            .hybrid
            .outcome
            .records
            .iter_mut()
            .find(|r| r.run_id == victim)
            .expect("twin exists");
        twin.outcome = eclair_fleet::RunOutcome::Failed;
        let eval = evaluate(&run);
        let fired: Vec<_> = eval.violations.iter().map(|v| v.oracle).collect();
        assert!(fired.contains(&"hybrid-transparent"), "{fired:?}");
    }

    #[test]
    fn a_leaky_cache_breaks_transparency() {
        let mut s = Scenario::generate(17, 9);
        s.workers = 1;
        s.chaos_rate = 0.0;
        let mut run = run_scenario(&s).expect("runs");
        // Doctor the opposite-cache twin: pretend a cache changed an
        // outcome when it toggled.
        run.cache_flip.outcome.succeeded += 1;
        let eval = evaluate(&run);
        let fired: Vec<_> = eval.violations.iter().map(|v| v.oracle).collect();
        assert_eq!(fired, ["cache-transparent"], "only the cache oracle fires");
    }

    #[test]
    fn a_doctored_run_is_caught_by_the_right_oracles() {
        let mut s = Scenario::generate(17, 7);
        s.workers = 1;
        s.chaos_rate = 0.0;
        let mut run = run_scenario(&s).expect("runs");
        // Corrupt the evidence: drop the first trace event and overstate
        // the succeeded count.
        run.report.merged_trace.remove(0);
        run.report.outcome.succeeded += 1;
        let eval = evaluate(&run);
        let fired: Vec<_> = eval.violations.iter().map(|v| v.oracle).collect();
        assert!(fired.contains(&"aggregates-consistent"), "{fired:?}");
        assert!(
            fired.contains(&"seq-gapless") || fired.contains(&"span-tree-wellformed"),
            "{fired:?}"
        );
    }
}
