//! Per-run specifications and deterministic seed derivation.
//!
//! The fleet's headline guarantee — concurrency changes wall-clock, never
//! outcomes — rests on one rule: *everything stochastic about a run is
//! derived from `(fleet_seed, run_id)` before the run is scheduled*. A
//! worker thread receives a fully self-contained [`RunSpec`] and touches
//! no shared mutable state, so which worker executes which run (and in
//! what order) cannot influence any result.

use eclair_chaos::ChaosProfile;
use eclair_core::execute::executor::ExecConfig;
use eclair_fm::FmProfile;
use eclair_hybrid::HybridPolicy;
use eclair_sites::TaskSpec;

/// SplitMix64-style finalizer: mixes a parent seed and a stream index
/// into an independent child seed. Used for `(fleet_seed, run_id)` →
/// run seed, and `(run_seed, attempt)` → attempt seed.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one run needs, owned and `Send`: the task, the model
/// preset, the derived seed, and the run-local budgets. Workers expand
/// the profile into a fresh `FmModel` at run start — no model state is
/// shared across runs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Position in the fleet's submission order; also the merge key for
    /// traces and reports.
    pub run_id: u64,
    /// The workflow to execute.
    pub task: TaskSpec,
    /// Model preset expanded per attempt (cheap: profile + RNG seed).
    pub profile: FmProfile,
    /// Run seed, normally `derive_seed(fleet_seed, run_id)`. Attempt `k`
    /// runs on `derive_seed(seed, k)`; backoff jitter draws from its own
    /// stream of this seed.
    pub seed: u64,
    /// Hard cap on total tokens across all attempts; exceeding it fails
    /// the run (`RunOutcome::BudgetExceeded`) and stops retrying.
    pub token_budget: Option<u64>,
    /// Per-attempt deadline in simulated steps (caps `config.max_steps`);
    /// a run that exhausts it without succeeding reports
    /// `RunOutcome::DeadlineExceeded`.
    pub deadline_steps: Option<usize>,
    /// Executor configuration for each attempt.
    pub config: ExecConfig,
    /// Optional fault-injection profile. When set, every attempt runs
    /// against a `ChaosSession` whose schedule is
    /// `ChaosSchedule::new(profile, run_id)` — pure in
    /// `(chaos_seed, run_id, step)`, so the fault environment is as
    /// deterministic as the model noise and independent of it.
    pub chaos: Option<ChaosProfile>,
    /// Optional hybrid execution policy. When set, each attempt first
    /// compiles the task's validated trace into a selector bot and runs
    /// it with step-scoped FM fallback (`eclair-hybrid`); with
    /// `full_fm_fallback` on, a still-failing attempt is rescued by a
    /// pure-FM run at the same attempt seed — byte-identical to what the
    /// fleet would have executed without a bot. Chaos schedules, the
    /// virtual clock, token budgets, and the metrics registry all thread
    /// through unchanged.
    pub hybrid: Option<HybridPolicy>,
}

impl RunSpec {
    /// The standard spec for a task: gold SOP, budgeted step count, seed
    /// derived from `(fleet_seed, run_id)`.
    pub fn for_task(fleet_seed: u64, run_id: u64, task: TaskSpec, profile: FmProfile) -> Self {
        let config = ExecConfig::with_sop(task.gold_sop.clone()).budgeted(task.gold_trace.len());
        Self {
            run_id,
            seed: derive_seed(fleet_seed, run_id),
            task,
            profile,
            token_budget: None,
            deadline_steps: None,
            config,
            chaos: None,
            hybrid: None,
        }
    }

    /// Set a token budget.
    pub fn with_token_budget(mut self, budget: u64) -> Self {
        self.token_budget = Some(budget);
        self
    }

    /// Set a per-attempt step deadline.
    pub fn with_deadline_steps(mut self, steps: usize) -> Self {
        self.deadline_steps = Some(steps);
        self
    }

    /// Attach a fault-injection profile; attempts will run under chaos.
    pub fn with_chaos(mut self, chaos: ChaosProfile) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Run attempts through the compiled bot + FM-fallback pipeline.
    pub fn with_hybrid(mut self, policy: HybridPolicy) -> Self {
        self.hybrid = Some(policy);
        self
    }

    /// Toggle the frame cache for every attempt of this run. Caching is
    /// transparent (identical records and traces either way), so this
    /// only changes wall-clock and the quarantined perf counters;
    /// `ECLAIR_NO_CACHE=1` still force-disables it at execution time.
    pub fn with_cache(mut self, on: bool) -> Self {
        self.config.use_cache = on;
        self
    }
}

/// Build one standard spec per task, run ids following task order.
pub fn specs_for_tasks(fleet_seed: u64, tasks: Vec<TaskSpec>, profile: FmProfile) -> Vec<RunSpec> {
    tasks
        .into_iter()
        .enumerate()
        .map(|(i, t)| RunSpec::for_task(fleet_seed, i as u64, t, profile))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_sites::all_tasks;

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0), "derivation is pure");
    }

    #[test]
    fn specs_inherit_ids_and_distinct_seeds() {
        let specs = specs_for_tasks(
            7,
            all_tasks().into_iter().take(4).collect(),
            FmProfile::Gpt4V,
        );
        assert_eq!(specs.len(), 4);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.run_id, i as u64);
            assert_eq!(s.seed, derive_seed(7, i as u64));
        }
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn cache_is_on_by_default_and_toggles_via_builder() {
        let task = all_tasks().remove(0);
        let spec = RunSpec::for_task(1, 0, task, FmProfile::Oracle);
        assert!(spec.config.use_cache);
        let spec = spec.with_cache(false);
        assert!(!spec.config.use_cache);
    }

    #[test]
    fn chaos_profile_is_off_by_default_and_attaches_via_builder() {
        let task = all_tasks().remove(0);
        let spec = RunSpec::for_task(1, 0, task, FmProfile::Oracle);
        assert!(spec.chaos.is_none());
        let profile = ChaosProfile::full(99, 0.25);
        let spec = spec.with_chaos(profile.clone());
        assert_eq!(spec.chaos, Some(profile));
    }
}
