//! Delta-debugging minimizer: from a violating scenario to the smallest
//! one that still violates, plus a paste-ready regression test.
//!
//! The shrinker is oracle-agnostic: it takes the violation as a predicate
//! over scenarios (normally "re-run and re-evaluate the registry; does
//! the same oracle still fire?") and greedily applies reduction passes to
//! a fixpoint — fewer tasks first (halves, then single drops, the ddmin
//! schedule), then a lower chaos rate (off, else repeated halving), then
//! dropped budgets, then a single attempt, then a single worker. Every
//! candidate is a full deterministic re-execution, so the result is not a
//! guess: the minimized scenario provably still violates.

use crate::scenario::Scenario;

/// What the shrinker produced.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest still-violating scenario found.
    pub minimal: Scenario,
    /// Predicate evaluations spent (each one is a scenario execution).
    pub evals: usize,
    /// Whether any pass improved on the original.
    pub shrank: bool,
}

/// Minimize `origin` (which the caller knows violates) under `violates`,
/// spending at most `max_evals` predicate calls. The predicate must be
/// deterministic — with this repo's seeded runs it is by construction.
pub fn shrink(
    origin: &Scenario,
    violates: &mut dyn FnMut(&Scenario) -> bool,
    max_evals: usize,
) -> ShrinkResult {
    let mut best = origin.clone();
    let mut evals = 0usize;
    // Try one candidate; adopt it if it still violates.
    let mut attempt = |best: &mut Scenario, evals: &mut usize, candidate: Scenario| -> bool {
        if *evals >= max_evals || candidate == *best {
            return false;
        }
        *evals += 1;
        if violates(&candidate) {
            *best = candidate;
            true
        } else {
            false
        }
    };

    loop {
        let mut improved = false;

        // Pass 1: fewer tasks. Halves first (ddmin's coarse step), then
        // individual drops, repeated until no single task can go.
        while best.task_indices.len() > 1 {
            let mid = best.task_indices.len() / 2;
            let front = Scenario {
                task_indices: best.task_indices[..mid].to_vec(),
                ..best.clone()
            };
            let back = Scenario {
                task_indices: best.task_indices[mid..].to_vec(),
                ..best.clone()
            };
            if attempt(&mut best, &mut evals, front) || attempt(&mut best, &mut evals, back) {
                improved = true;
                continue;
            }
            let mut dropped_one = false;
            for i in 0..best.task_indices.len() {
                let mut indices = best.task_indices.clone();
                indices.remove(i);
                let candidate = Scenario {
                    task_indices: indices,
                    ..best.clone()
                };
                if attempt(&mut best, &mut evals, candidate) {
                    improved = true;
                    dropped_one = true;
                    break;
                }
            }
            if !dropped_one {
                break;
            }
        }

        // Pass 2: lower chaos. Off entirely if the violation survives,
        // otherwise halve the rate as far as it keeps reproducing.
        if best.chaos_enabled() {
            let off = best.at_chaos_rate(0.0);
            if attempt(&mut best, &mut evals, off) {
                improved = true;
            } else {
                while best.chaos_rate > 0.01 {
                    let halved = best.at_chaos_rate(best.chaos_rate / 2.0);
                    if attempt(&mut best, &mut evals, halved) {
                        improved = true;
                    } else {
                        break;
                    }
                }
            }
        }

        // Pass 3: drop budgets.
        if best.token_budget.is_some() {
            let candidate = Scenario {
                token_budget: None,
                ..best.clone()
            };
            improved |= attempt(&mut best, &mut evals, candidate);
        }
        if best.deadline_steps.is_some() {
            let candidate = Scenario {
                deadline_steps: None,
                ..best.clone()
            };
            improved |= attempt(&mut best, &mut evals, candidate);
        }

        // Pass 4: a single attempt.
        if best.max_attempts > 1 {
            let candidate = Scenario {
                max_attempts: 1,
                ..best.clone()
            };
            improved |= attempt(&mut best, &mut evals, candidate);
        }

        // Pass 5: a single worker.
        if best.workers > 1 {
            let candidate = Scenario {
                workers: 1,
                ..best.clone()
            };
            improved |= attempt(&mut best, &mut evals, candidate);
        }

        if !improved || evals >= max_evals {
            break;
        }
    }

    ShrinkResult {
        shrank: best != *origin,
        minimal: best,
        evals,
    }
}

/// Render a ready-to-paste regression test that replays `scenario` and
/// asserts the registry passes. `oracle` names the check that fired (it
/// becomes part of the test name); `master_seed` adds the replay
/// coordinate when the scenario came out of a generation sweep.
pub fn repro_snippet(scenario: &Scenario, oracle: &str, master_seed: Option<u64>) -> String {
    let test_name = format!(
        "crucible_regression_{}_{:08x}",
        oracle.replace('-', "_"),
        scenario.seed as u32
    );
    let replay = match master_seed {
        Some(master) => format!("    {}\n", scenario.seed_line(master)),
        None => String::new(),
    };
    format!(
        r#"#[test]
fn {test_name}() {{
{replay}    let scenario = eclair_crucible::Scenario {{
        id: {id},
        seed: 0x{seed:016x},
        task_indices: vec!{tasks:?},
        profile: eclair_fm::FmProfile::{profile:?},
        chaos_rate: {chaos_rate:?},
        chaos_seed: 0x{chaos_seed:016x},
        token_budget: {token_budget:?},
        deadline_steps: {deadline_steps:?},
        max_attempts: {max_attempts},
        workers: {workers},
        use_cache: {use_cache},
    }};
    let run = eclair_crucible::run_scenario(&scenario).expect("scenario executes");
    let eval = eclair_crucible::evaluate(&run);
    assert!(eval.passed(), "violations: {{:?}}", eval.violations);
}}
"#,
        id = scenario.id,
        seed = scenario.seed,
        tasks = scenario.task_indices,
        profile = scenario.profile,
        chaos_rate = scenario.chaos_rate,
        chaos_seed = scenario.chaos_seed,
        token_budget = scenario.token_budget,
        deadline_steps = scenario.deadline_steps,
        max_attempts = scenario.max_attempts,
        workers = scenario.workers,
        use_cache = scenario.use_cache,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    /// A deliberately broken oracle — "chaos never injects anything" — so
    /// the shrinker has a real, deterministic violation to minimize.
    fn violates_no_faults_ever(s: &Scenario) -> bool {
        run_scenario(s)
            .map(|run| run.report.outcome.faults_injected_total() > 0)
            .unwrap_or(false)
    }

    fn violating_origin() -> Scenario {
        // Multi-task, chaotic, budgeted, retrying, multi-worker: plenty
        // of irrelevant structure for the shrinker to strip.
        let mut s = Scenario::generate(0xC0FFEE, 1);
        s.task_indices = vec![0, 3, 7, 11, 19, 23];
        s.profile = eclair_fm::FmProfile::Gpt4V;
        s.chaos_rate = 0.4;
        s.chaos_seed = 99;
        s.token_budget = Some(8_000);
        s.deadline_steps = None;
        s.max_attempts = 3;
        s.workers = 4;
        assert!(violates_no_faults_ever(&s), "origin must violate");
        s
    }

    #[test]
    fn shrinker_reduces_a_broken_oracle_violation_to_one_lean_task() {
        let origin = violating_origin();
        let result = shrink(&origin, &mut violates_no_faults_ever, 200);
        let m = &result.minimal;
        assert!(result.shrank);
        assert!(violates_no_faults_ever(m), "minimality must be witnessed");
        assert_eq!(m.task_indices.len(), 1, "one task must suffice: {m:?}");
        assert!(
            m.chaos_rate <= origin.chaos_rate,
            "shrinking never raises the chaos rate"
        );
        assert!(m.chaos_enabled(), "this violation genuinely needs chaos");
        assert_eq!(m.token_budget, None, "the budget was irrelevant");
        assert_eq!(m.max_attempts, 1, "retries were irrelevant");
        assert_eq!(m.workers, 1, "parallelism was irrelevant");
        assert!(result.evals <= 200);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let origin = violating_origin();
        let a = shrink(&origin, &mut violates_no_faults_ever, 200);
        let b = shrink(&origin, &mut violates_no_faults_ever, 200);
        assert_eq!(a.minimal, b.minimal);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn eval_budget_is_respected() {
        let origin = violating_origin();
        let result = shrink(&origin, &mut violates_no_faults_ever, 3);
        assert!(result.evals <= 3);
        assert!(violates_no_faults_ever(&result.minimal));
    }

    #[test]
    fn repro_snippet_is_a_complete_test() {
        let origin = violating_origin();
        let minimal = shrink(&origin, &mut violates_no_faults_ever, 200).minimal;
        let snippet = repro_snippet(&minimal, "faults-iff-chaos", Some(0xC0FFEE));
        assert!(snippet.starts_with("#[test]"));
        assert!(snippet.contains("fn crucible_regression_faults_iff_chaos_"));
        assert!(snippet.contains("// replay: Scenario::generate(0x0000000000c0ffee, 1)"));
        assert!(snippet.contains("eclair_crucible::run_scenario"));
        assert!(snippet.contains(&format!("seed: 0x{:016x}", minimal.seed)));
        assert!(snippet.contains("workers: 1"));
    }
}
