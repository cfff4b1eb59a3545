//! The scenario grammar: everything one simulation trial randomizes.
//!
//! A [`Scenario`] is a fully explicit value — tasks, model profile, chaos
//! rate, budgets, retry, worker count — with two ways to get one:
//! generated from `(master_seed, id)` via [`Scenario::generate`]
//! (scenario fuzzing), or written out literally (what the shrinker's
//! repro snippet pastes into a regression test). Either way the scenario
//! *is* the reproduction: running it twice produces byte-identical fleet
//! outcomes, so a one-line seed is a complete bug report.

use eclair_chaos::ChaosProfile;
use eclair_corpus::corpus_tasks;
use eclair_fleet::{derive_seed, RetryPolicy, RunSpec};
use eclair_fm::FmProfile;
use serde::{Deserialize, Serialize};

use crate::rng::SplitMix64;

/// Chaos rates the generator draws from. Quantized so repro lines and
/// golden files stay readable, and so the metamorphic ladder (rate/2)
/// stays on exact binary fractions.
pub const CHAOS_RATES: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// Model profiles a scenario may draw (the three the paper benchmarks;
/// the text-only ablation is excluded — it can't see the GUI at all, so
/// its failures tell the oracles nothing).
pub const PROFILES: [FmProfile; 3] = [FmProfile::Oracle, FmProfile::CogAgent18b, FmProfile::Gpt4V];

/// One randomized trial for the fleet scheduler: which tasks run, under
/// which model, with how much chaos, inside which budgets, on how many
/// workers. Every field is data — no closures, no handles — so scenarios
/// serialize, diff, and shrink structurally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Position in the generation sweep (0 for hand-written scenarios).
    pub id: u64,
    /// Fleet seed for this trial; generated scenarios use
    /// `derive_seed(master_seed, id)`.
    pub seed: u64,
    /// Indices into the full generated corpus
    /// ([`eclair_corpus::corpus_tasks`]), distinct, in draw order. The
    /// corpus keeps the 30 handwritten tasks as a stable prefix, so
    /// literal scenarios written against the old `all_tasks` pool still
    /// name the same tasks.
    pub task_indices: Vec<usize>,
    /// Model preset every run uses.
    pub profile: FmProfile,
    /// Fault rate; 0.0 disables chaos entirely.
    pub chaos_rate: f64,
    /// Chaos schedule seed (ignored when `chaos_rate` is 0).
    pub chaos_seed: u64,
    /// Cumulative token budget per run, if any.
    pub token_budget: Option<u64>,
    /// Per-attempt step deadline, if any.
    pub deadline_steps: Option<usize>,
    /// Attempts per run (1 = no retries).
    pub max_attempts: u32,
    /// Worker threads; > 1 arms the parallel-vs-sequential oracle.
    pub workers: usize,
    /// Whether runs use the caches: frame, layout and percept, the
    /// fleet's included. Caching is contractually invisible — the runner
    /// always gathers an opposite-cache re-run and the cache-transparent
    /// oracle demands byte-identical evidence — so this knob only
    /// decides which side is the baseline.
    pub use_cache: bool,
}

impl Scenario {
    /// Generate scenario `id` of the sweep under `master_seed`. Pure: the
    /// same pair always yields the same scenario, and distinct ids draw
    /// from independent SplitMix64 streams.
    pub fn generate(master_seed: u64, id: u64) -> Self {
        let seed = derive_seed(master_seed, id);
        let mut rng = SplitMix64::new(seed);
        let pool = corpus_tasks().len();
        let count = 1 + rng.next_below(6) as usize;
        let mut task_indices = Vec::with_capacity(count);
        while task_indices.len() < count {
            let i = rng.next_below(pool as u64) as usize;
            if !task_indices.contains(&i) {
                task_indices.push(i);
            }
        }
        let profile = PROFILES[rng.next_below(PROFILES.len() as u64) as usize];
        let (chaos_rate, chaos_seed) = if rng.chance(1, 2) {
            (
                CHAOS_RATES[rng.next_below(CHAOS_RATES.len() as u64) as usize],
                rng.next_u64(),
            )
        } else {
            (0.0, 0)
        };
        let token_budget = if rng.chance(1, 4) {
            Some(1_000 + rng.next_below(9_000))
        } else {
            None
        };
        let deadline_steps = if rng.chance(1, 4) {
            Some(2 + rng.next_below(18) as usize)
        } else {
            None
        };
        Self {
            id,
            seed,
            task_indices,
            profile,
            chaos_rate,
            chaos_seed,
            token_budget,
            deadline_steps,
            max_attempts: 1 + rng.next_below(3) as u32,
            workers: 1 + rng.next_below(4) as usize,
            // Mostly on (the production default); off often enough that
            // sweeps exercise the uncached baseline as the ground truth.
            use_cache: !rng.chance(1, 8),
        }
    }

    /// Whether chaos is armed.
    pub fn chaos_enabled(&self) -> bool {
        self.chaos_rate > 0.0
    }

    /// The retry policy the fleet runs under (default backoff shape, the
    /// scenario only varies the attempt count).
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Expand into run specs, one per task index, run ids in draw order.
    pub fn specs(&self) -> Vec<RunSpec> {
        let pool = corpus_tasks();
        self.task_indices
            .iter()
            .enumerate()
            .map(|(i, &ti)| {
                let mut spec = RunSpec::for_task(
                    self.seed,
                    i as u64,
                    pool[ti % pool.len()].clone(),
                    self.profile,
                );
                if let Some(b) = self.token_budget {
                    spec = spec.with_token_budget(b);
                }
                if let Some(d) = self.deadline_steps {
                    spec = spec.with_deadline_steps(d);
                }
                if self.chaos_enabled() {
                    spec = spec.with_chaos(ChaosProfile::full(self.chaos_seed, self.chaos_rate));
                }
                spec.with_cache(self.use_cache)
            })
            .collect()
    }

    /// A copy with a different chaos rate (the metamorphic ladder and the
    /// shrinker both use this).
    pub fn at_chaos_rate(&self, rate: f64) -> Self {
        Self {
            chaos_rate: rate,
            ..self.clone()
        }
    }

    /// A copy pinned to a different model profile.
    pub fn with_profile(&self, profile: FmProfile) -> Self {
        Self {
            profile,
            ..self.clone()
        }
    }

    /// A copy with the caches toggled (the runner's transparency re-run).
    pub fn with_cache(&self, on: bool) -> Self {
        Self {
            use_cache: on,
            ..self.clone()
        }
    }

    /// The scenario's hybrid twin specs: identical in every knob, plus
    /// the compiled-bot + FM-fallback policy. The runner always gathers a
    /// twin execution; the hybrid-transparent oracle demands the twin
    /// dominate the pure report (same successes or better, budget trips
    /// excused).
    pub fn hybrid_specs(&self) -> Vec<RunSpec> {
        self.specs()
            .into_iter()
            .map(|s| s.with_hybrid(eclair_hybrid::HybridPolicy::default()))
            .collect()
    }

    /// The one-line replay coordinate for generated scenarios.
    pub fn seed_line(&self, master_seed: u64) -> String {
        format!(
            "// replay: Scenario::generate(0x{master_seed:016x}, {}) (seed 0x{:016x})",
            self.id, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure_and_id_sensitive() {
        let a = Scenario::generate(99, 3);
        let b = Scenario::generate(99, 3);
        assert_eq!(a, b);
        assert_ne!(a, Scenario::generate(99, 4));
        assert_ne!(a, Scenario::generate(100, 3));
    }

    #[test]
    fn generated_scenarios_stay_in_the_grammar() {
        let pool = corpus_tasks().len();
        for id in 0..200 {
            let s = Scenario::generate(7, id);
            assert!((1..=6).contains(&s.task_indices.len()), "id {id}");
            let mut dedup = s.task_indices.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), s.task_indices.len(), "id {id}: distinct");
            assert!(s.task_indices.iter().all(|&i| i < pool));
            assert!(PROFILES.contains(&s.profile));
            assert!(s.chaos_rate == 0.0 || CHAOS_RATES.contains(&s.chaos_rate));
            assert!((1..=3).contains(&s.max_attempts));
            assert!((1..=4).contains(&s.workers));
            if let Some(b) = s.token_budget {
                assert!((1_000..10_000).contains(&b));
            }
            if let Some(d) = s.deadline_steps {
                assert!((2..20).contains(&d));
            }
        }
    }

    #[test]
    fn sweep_covers_the_grammar_dimensions() {
        // 64 scenarios must exercise chaos, budgets, deadlines, retries,
        // and multi-worker configs — otherwise the sweep tests less than
        // it claims.
        let sweep: Vec<Scenario> = (0..64).map(|id| Scenario::generate(2026, id)).collect();
        assert!(sweep.iter().any(|s| s.chaos_enabled()));
        assert!(sweep.iter().any(|s| !s.chaos_enabled()));
        assert!(sweep.iter().any(|s| s.token_budget.is_some()));
        assert!(sweep.iter().any(|s| s.deadline_steps.is_some()));
        assert!(sweep.iter().any(|s| s.max_attempts > 1));
        assert!(sweep.iter().any(|s| s.workers > 1));
        assert!(sweep.iter().any(|s| s.workers == 1));
        assert!(sweep.iter().any(|s| s.use_cache));
        assert!(sweep.iter().any(|s| !s.use_cache));
        // The sweep draws from the full generated corpus, not just the
        // 30-task handwritten prefix.
        assert!(
            sweep
                .iter()
                .any(|s| s.task_indices.iter().any(|&i| i >= 30)),
            "sweep never left the handwritten prefix — corpus not wired in"
        );
    }

    #[test]
    fn specs_reflect_the_scenario_knobs() {
        let s = Scenario {
            id: 0,
            seed: 11,
            task_indices: vec![2, 5],
            profile: FmProfile::Gpt4V,
            chaos_rate: 0.3,
            chaos_seed: 77,
            token_budget: Some(5_000),
            deadline_steps: Some(9),
            max_attempts: 2,
            workers: 3,
            use_cache: false,
        };
        let specs = s.specs();
        assert_eq!(specs.len(), 2);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.run_id, i as u64);
            assert_eq!(spec.seed, derive_seed(11, i as u64));
            assert_eq!(spec.token_budget, Some(5_000));
            assert_eq!(spec.deadline_steps, Some(9));
            assert_eq!(spec.chaos, Some(ChaosProfile::full(77, 0.3)));
            assert!(!spec.config.use_cache, "the cache knob reaches the spec");
        }
        assert_eq!(specs[0].task.id, corpus_tasks()[2].id);
        assert_eq!(specs[1].task.id, corpus_tasks()[5].id);
        assert_eq!(s.retry_policy().max_attempts, 2);
    }

    #[test]
    fn scenarios_serialize_round_trip() {
        let s = Scenario::generate(5, 12);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
