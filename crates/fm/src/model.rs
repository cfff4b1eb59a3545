//! The model handle: a profile + seeded RNG + token meter.
//!
//! Everything ECLAIR asks of a foundation model flows through [`FmModel`],
//! so experiments can (a) swap profiles (GPT-4 vs CogAgent vs oracle),
//! (b) reproduce runs exactly from a seed, and (c) read off token costs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use eclair_gui::Screenshot;
use eclair_shared::{Outcome, ShardedCache};
use eclair_trace::{CostKind, EventKind, TraceRecorder, VirtualClock};
use eclair_vision::marks::{Mark, MarkedScreenshot};

use crate::ground::{native_ground, select_mark, GroundingOutcome};
use crate::percept::{perceive, ScenePercept};
use crate::profile::ModelProfile;
use crate::prompt::Prompt;
use crate::sampling::{judge_ensemble, Judgment, Sampling};
use crate::tokens::TokenMeter;

/// The full purity tuple a percept is keyed by, in any cache:
/// `(model seed, profile fingerprint, frame hash)`. Perception is a pure
/// function of exactly this tuple — keying on anything less (the bare
/// frame hash, say) cross-serves percepts the moment a cache is shared
/// between models with different seeds or profiles.
pub type PerceptKey = (u64, u64, u64);

/// A percept cache: a model's private one, or a fleet's, which every
/// worker and run of the fleet holds (see `eclair-shared` for the
/// lock-striping and single-flight protocol).
pub type SharedPerceptCache = ShardedCache<PerceptKey, ScenePercept>;

/// Build a shared percept cache at the fleet default geometry: 16 lock
/// stripes × 256 percepts per stripe. Workers touching different stripes
/// never serialize; 4096 resident percepts comfortably covers a 30-task
/// suite's distinct frames.
pub fn shared_percept_cache() -> Arc<SharedPerceptCache> {
    Arc::new(ShardedCache::new(16, 256))
}

/// A live (simulated) foundation model.
///
/// ```
/// use eclair_fm::{FmModel, ModelProfile};
/// use eclair_gui::PageBuilder;
///
/// let mut b = PageBuilder::new("page", "/page");
/// b.button("ok", "Confirm order");
/// let shot = b.finish().screenshot_at(0);
///
/// let mut model = FmModel::new(ModelProfile::oracle(), 7);
/// let percept = model.perceive(&shot);
/// assert!(percept.full_text().contains("Confirm order"));
/// ```
#[derive(Debug)]
pub struct FmModel {
    profile: ModelProfile,
    /// The construction seed, kept so per-frame perception streams can be
    /// derived from it (see [`Self::perceive`]).
    seed: u64,
    rng: StdRng,
    meter: TokenMeter,
    sampling: Sampling,
    trace: TraceRecorder,
    /// Whether `perceive` consults the percept cache (`ECLAIR_NO_CACHE=1`
    /// turns it off globally). Flipping it must be unobservable outside
    /// `eclair_trace::perf`.
    cache_enabled: bool,
    /// FNV-1a fingerprint of the full profile (its `Debug` rendering, a
    /// superset of the name): part of every percept key, so two profiles
    /// that share a name but differ in any capability parameter still
    /// key separately. Filled by the first [`Self::perceive`]; the
    /// profile never changes after construction.
    profile_fp: Option<u64>,
    /// The one percept cache `perceive` looks up: a private one-stripe
    /// cache from construction, or the fleet's once
    /// [`Self::attach_shared`] swaps it in.
    percepts: Arc<SharedPerceptCache>,
    /// Whether `percepts` is a fleet's cache: its lookups also count in
    /// the `shared_*` perf counters.
    shared: bool,
}

/// Most percepts a model's private cache keeps (FIFO). Executors revisit
/// a handful of frames per task (probe loops, validators re-reading the
/// screen); the cap just bounds memory on long sessions.
const PERCEPT_MEMO_CAP: usize = 64;

/// SplitMix64 finalizer-style mixer (same construction as
/// `eclair_fleet::derive_seed` / the chaos schedule): derives the seed of
/// an independent per-frame perception stream from the model seed, the
/// profile, and the frame hash.
fn mix(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a string (keys the profile into the perception stream).
fn fnv_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FmModel {
    /// Instantiate a model from a profile and a seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        let mut trace = TraceRecorder::new();
        // Run id 0 by default; the fleet re-seats the clock per run via
        // `TraceRecorder::set_clock` before execution starts.
        trace.set_clock(VirtualClock::new(seed, 0));
        Self {
            profile,
            seed,
            rng: StdRng::seed_from_u64(seed),
            meter: TokenMeter::default(),
            sampling: Sampling::greedy(),
            trace,
            cache_enabled: !eclair_gui::no_cache_env(),
            profile_fp: None,
            percepts: Arc::new(ShardedCache::new(1, PERCEPT_MEMO_CAP)),
            shared: false,
        }
    }

    /// Turn the percept cache on or off for this model instance. Off,
    /// `perceive` bypasses it; flipping never clears it, so whatever it
    /// holds serves again once the cache is back on.
    pub fn set_cache_enabled(&mut self, on: bool) {
        self.cache_enabled = on;
    }

    /// Perceive through a fleet's percept cache instead of this model's
    /// private one. Under the `ECLAIR_NO_CACHE=1` kill switch this is a
    /// no-op: the fleet's cache is never installed, not merely disabled.
    pub fn attach_shared(&mut self, cache: Arc<SharedPerceptCache>) {
        if eclair_gui::no_cache_env() {
            return;
        }
        self.percepts = cache;
        self.shared = true;
    }

    /// The model's capability profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Cumulative token usage.
    pub fn meter(&self) -> &TokenMeter {
        &self.meter
    }

    /// The structured trace of everything this model has been asked to do.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Mutable trace access — the pipeline layers above open spans and
    /// emit their own events here so one recorder holds the whole run.
    pub fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.trace
    }

    /// Record one FM call against the meter *and* the trace. Every token
    /// the meter sees flows through here, so the trace's rolled-up call
    /// and token counts always agree with [`Self::meter`].
    pub fn account(&mut self, purpose: &str, prompt_tokens: u64, completion_tokens: u64) {
        self.meter.record(prompt_tokens, completion_tokens);
        // Advance simulated time before emitting, so the event is stamped
        // with the post-call clock. Decode dominates real FM latency,
        // hence the 4× completion weight. This is the single advance
        // point for FM work: a cached perception accounts the same
        // tokens as the recompute, so the clock stays cache-transparent.
        let kind = if purpose == "perceive" {
            CostKind::Perceive
        } else {
            CostKind::FmCall
        };
        self.trace
            .advance(kind, prompt_tokens + 4 * completion_tokens);
        self.trace.event(EventKind::FmCall {
            purpose: purpose.to_string(),
            prompt_tokens,
            completion_tokens,
        });
    }

    /// Set the sampling configuration for subsequent judgments.
    pub fn set_sampling(&mut self, sampling: Sampling) {
        self.sampling = sampling;
    }

    /// Current sampling configuration.
    pub fn sampling(&self) -> Sampling {
        self.sampling
    }

    /// Account for a prompt being sent and a completion of `completion_tokens`.
    pub fn charge(&mut self, prompt: &Prompt, completion_tokens: u64) {
        self.account("prompt", prompt.tokens(), completion_tokens);
    }

    /// Direct RNG access for capability modules layered on top (the agent
    /// pipeline in `eclair-core` threads all its noise through the model's
    /// RNG so a run is reproducible from one seed).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Parse a screenshot into the model's internal scene representation.
    /// Priced like one image-bearing prompt (the [`crate::prompt::Part`]
    /// schedule) with a completion proportional to the elements read out.
    ///
    /// Perception noise draws from a *pure* per-frame stream seeded by
    /// `(model seed, profile, frame hash)` — never from the model's main
    /// RNG — so perceiving the same frame twice yields the same percept
    /// and perturbs nothing downstream. That purity is what licenses the
    /// percept cache, private or a fleet's: whatever any model stored
    /// under the key is exactly what this one would compute. A hit
    /// returns the stored percept *and accounts the exact tokens the
    /// recompute would have*, keeping the meter and the trace
    /// byte-identical with the cache off. The tokens a provider-side
    /// cache would have saved are reported only through the quarantined
    /// `eclair_trace::perf` counters (`cached_tokens`, and
    /// `shared_cached_tokens` for lookups on a fleet's cache).
    pub fn perceive(&mut self, shot: &Screenshot) -> ScenePercept {
        let frame = shot.frame_hash();
        let profile_fp = *self
            .profile_fp
            .get_or_insert_with(|| fnv_str(&format!("{:?}", self.profile)));
        let key: PerceptKey = (self.seed, profile_fp, frame);
        let prompt_tokens = 85 + 4 * shot.items.len() as u64;
        let (seed, profile) = (self.seed, &self.profile);
        let compute = || {
            let stream_seed = mix(mix(seed, fnv_str(&profile.name)), frame);
            perceive(shot, profile, &mut StdRng::seed_from_u64(stream_seed))
        };
        if !self.cache_enabled {
            let percept = compute();
            self.account(
                "perceive",
                prompt_tokens,
                2 + 4 * percept.elements.len() as u64,
            );
            return percept;
        }
        let (percept, outcome) = self.percepts.get_or_compute(key, compute);
        let completion_tokens = 2 + 4 * percept.elements.len() as u64;
        self.account("perceive", prompt_tokens, completion_tokens);
        eclair_trace::perf::record(|c| {
            if let Outcome::Computed { evicted } = outcome {
                c.perceive_memo_misses += 1;
                if self.shared {
                    c.shared_misses += 1;
                    c.shared_evictions += evicted as u64;
                }
                return;
            }
            c.perceive_memo_hits += 1;
            c.cached_tokens += prompt_tokens + completion_tokens;
            if self.shared {
                match outcome {
                    Outcome::Hit => c.shared_hits += 1,
                    _ => c.single_flight_waits += 1,
                }
                c.shared_cached_tokens += prompt_tokens + completion_tokens;
            }
        });
        percept
    }

    /// Native grounding: emit a bounding box for a description.
    pub fn ground_native(&mut self, shot: &Screenshot, description: &str) -> GroundingOutcome {
        let percept = self.perceive(shot);
        let out = native_ground(&self.profile, &percept, description, &mut self.rng);
        self.account(
            "ground_native",
            85 + 4 * shot.items.len() as u64 + (description.len() as u64).div_ceil(4),
            12,
        );
        out
    }

    /// Set-of-marks grounding: choose a candidate label.
    pub fn ground_marks(
        &mut self,
        marked: &MarkedScreenshot,
        description: &str,
    ) -> GroundingOutcome {
        let out = select_mark(&self.profile, &marked.marks, description, &mut self.rng);
        self.account(
            "ground_marks",
            85 + 4 * marked.shot.items.len() as u64
                + 3 * marked.marks.len() as u64
                + (description.len() as u64).div_ceil(4),
            8,
        );
        out
    }

    /// As [`Self::ground_marks`] but with an explicit mark slice.
    pub fn ground_mark_slice(&mut self, marks: &[Mark], description: &str) -> GroundingOutcome {
        let out = select_mark(&self.profile, marks, description, &mut self.rng);
        self.account(
            "ground_marks",
            85 + 3 * marks.len() as u64 + (description.len() as u64).div_ceil(4),
            8,
        );
        out
    }

    /// Binary judgment from signed evidence strength, under the current
    /// sampling configuration. Self-consistency ensembles produce one
    /// completion per vote but are still a single accounted call.
    pub fn judge(&mut self, evidence: f64) -> Judgment {
        let out = judge_ensemble(
            evidence,
            self.profile.judgment_noise,
            self.sampling,
            &mut self.rng,
        );
        self.account(
            "judge",
            120,
            8 * self.sampling.self_consistency.max(1) as u64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_gui::PageBuilder;

    fn shot() -> Screenshot {
        let mut b = PageBuilder::new("m", "/m");
        b.button("ok", "Confirm order");
        b.finish().screenshot_at(0)
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = || {
            let mut m = FmModel::new(ModelProfile::gpt4v(), 99);
            let p = m.perceive(&shot());
            let g = m.ground_native(&shot(), "Confirm order");
            let j = m.judge(0.2);
            (p, g, j.verdict)
        };
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }

    #[test]
    fn meter_accumulates() {
        let mut m = FmModel::new(ModelProfile::gpt4v(), 1);
        let p = Prompt::new("sys").text("hello world");
        m.charge(&p, 50);
        m.charge(&p, 10);
        assert_eq!(m.meter().calls, 2);
        assert!(m.meter().prompt_tokens > 0);
        assert_eq!(m.meter().completion_tokens, 60);
    }

    #[test]
    fn every_metered_call_is_traced() {
        let mut m = FmModel::new(ModelProfile::gpt4v(), 4);
        let s = shot();
        let _ = m.perceive(&s);
        let _ = m.ground_native(&s, "Confirm order");
        let _ = m.judge(0.1);
        let summary = m.trace().summary();
        assert_eq!(summary.fm_calls(), m.meter().calls);
        assert_eq!(summary.total().prompt_tokens, m.meter().prompt_tokens);
        assert_eq!(
            summary.total().completion_tokens,
            m.meter().completion_tokens
        );
    }

    #[test]
    fn sampling_is_configurable() {
        let mut m = FmModel::new(ModelProfile::gpt4v(), 1);
        m.set_sampling(Sampling::vote(5, 0.3));
        assert_eq!(m.sampling().self_consistency, 5);
        let _ = m.judge(0.5);
    }

    #[test]
    fn perceive_draws_from_a_pure_stream_not_the_main_rng() {
        use rand::Rng;
        let s = shot();
        // Same seed, different number of perceives: the main RNG must be
        // in the same state either way.
        let mut a = FmModel::new(ModelProfile::gpt4v(), 11);
        let mut b = FmModel::new(ModelProfile::gpt4v(), 11);
        let _ = a.perceive(&s);
        let _ = a.perceive(&s);
        let _ = a.perceive(&s);
        let _ = b.perceive(&s);
        assert_eq!(
            a.rng().gen::<u64>(),
            b.rng().gen::<u64>(),
            "perceive must not consume main-RNG draws"
        );
        // And perceiving the same frame is idempotent.
        let mut c = FmModel::new(ModelProfile::gpt4v(), 11);
        assert_eq!(c.perceive(&s), c.perceive(&s));
    }

    #[test]
    fn memoized_perceive_is_transparent_to_meter_and_trace() {
        eclair_trace::perf::reset();
        let s = shot();
        let run = |cache: bool| {
            let mut m = FmModel::new(ModelProfile::gpt4v(), 23);
            m.set_cache_enabled(cache);
            let p1 = m.perceive(&s);
            let p2 = m.perceive(&s);
            (p1, p2, *m.meter(), m.trace().to_jsonl())
        };
        let (on1, on2, on_meter, on_trace) = run(true);
        let (off1, off2, off_meter, off_trace) = run(false);
        assert_eq!(on1, off1);
        assert_eq!(on2, off2);
        assert_eq!(on_meter, off_meter, "cache hits account identical tokens");
        assert_eq!(on_trace, off_trace, "trace bytes identical either way");
        let c = eclair_trace::perf::snapshot();
        assert_eq!(c.perceive_memo_hits, 1, "second cache-on perceive hit");
        assert_eq!(c.perceive_memo_misses, 1);
        assert!(
            c.cached_tokens > 0,
            "hit tokens land in the perf quarantine"
        );
    }

    #[test]
    fn shared_cache_never_cross_serves_between_seeds_or_profiles() {
        // The headline bugfix: the percept key carries the full purity
        // tuple, so models differing in seed or profile that share one
        // cache can never serve each other's percepts.
        let s = shot();
        let cache = shared_percept_cache();
        let baseline = |profile: ModelProfile, seed: u64| {
            let mut m = FmModel::new(profile, seed);
            m.set_cache_enabled(false);
            m.perceive(&s)
        };
        let mut a = FmModel::new(ModelProfile::gpt4v(), 1);
        let mut b = FmModel::new(ModelProfile::gpt4v(), 2); // same profile, new seed
        let mut c = FmModel::new(ModelProfile::cogagent_18b(), 1); // same seed, new profile
        for m in [&mut a, &mut b, &mut c] {
            m.attach_shared(Arc::clone(&cache));
        }
        assert_eq!(a.perceive(&s), baseline(ModelProfile::gpt4v(), 1));
        assert_eq!(b.perceive(&s), baseline(ModelProfile::gpt4v(), 2));
        assert_eq!(c.perceive(&s), baseline(ModelProfile::cogagent_18b(), 1));
        assert_eq!(cache.len(), 3, "three distinct keys for one frame");
        assert_eq!(cache.stats().hits, 0, "no cross-serving between tuples");
    }

    #[test]
    fn shared_cache_hit_is_transparent_to_meter_and_trace() {
        eclair_trace::perf::reset();
        let s = shot();
        let cache = shared_percept_cache();
        let run = |attach: bool| {
            let mut m = FmModel::new(ModelProfile::gpt4v(), 31);
            if attach {
                m.attach_shared(Arc::clone(&cache));
            }
            let p = m.perceive(&s);
            (p, *m.meter(), m.trace().to_jsonl())
        };
        let (miss_p, miss_meter, miss_trace) = run(true); // populates the shard
        let (hit_p, hit_meter, hit_trace) = run(true); // fresh instance, the shard is hot
        let (off_p, off_meter, off_trace) = run(false); // a private cache, cold
        assert_eq!(miss_p, hit_p);
        assert_eq!(hit_p, off_p);
        assert_eq!(
            miss_meter, hit_meter,
            "shared hits account identical tokens"
        );
        assert_eq!(hit_meter, off_meter);
        assert_eq!(miss_trace, hit_trace, "trace bytes identical either way");
        assert_eq!(hit_trace, off_trace);
        let c = eclair_trace::perf::snapshot();
        assert_eq!(c.shared_misses, 1, "first instance computed");
        assert_eq!(c.shared_hits, 1, "second instance served by the shard");
        assert!(c.shared_cached_tokens > 0, "savings land in the quarantine");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cache_flip_never_clears_the_cache() {
        eclair_trace::perf::reset();
        let s = shot();
        let cache = shared_percept_cache();
        let mut fleet_model = FmModel::new(ModelProfile::gpt4v(), 47);
        fleet_model.attach_shared(Arc::clone(&cache));
        let mut private_model = FmModel::new(ModelProfile::gpt4v(), 47);
        for m in [&mut fleet_model, &mut private_model] {
            let first = m.perceive(&s); // computes into the cache
            m.set_cache_enabled(false);
            assert_eq!(m.perceive(&s), first, "bypassed: no lookup");
            m.set_cache_enabled(true);
            assert_eq!(m.perceive(&s), first, "served from the cache");
        }
        assert_eq!(cache.len(), 1, "the flip left the fleet's entry resident");
        let c = eclair_trace::perf::snapshot();
        assert_eq!((c.perceive_memo_hits, c.perceive_memo_misses), (2, 2));
        assert_eq!((c.shared_hits, c.shared_misses), (1, 1));
    }

    #[test]
    fn a_standalone_model_keeps_its_last_64_percepts() {
        // FIFO over 64: the first frame is still resident after 63 other
        // distinct frames, and recomputed after 64.
        let shots: Vec<Screenshot> = (0..65)
            .map(|i| {
                let mut b = PageBuilder::new("m", "/m");
                b.button("ok", format!("Confirm order {i}"));
                b.finish().screenshot_at(0)
            })
            .collect();
        let revisit_after = |others: usize| {
            let mut m = FmModel::new(ModelProfile::gpt4v(), 3);
            for s in &shots[..=others] {
                m.perceive(s);
            }
            eclair_trace::perf::reset();
            m.perceive(&shots[0]);
            let c = eclair_trace::perf::snapshot();
            (c.perceive_memo_hits, c.perceive_memo_misses)
        };
        assert_eq!(revisit_after(63), (1, 0), "a hit");
        assert_eq!(revisit_after(64), (0, 1), "a recompute");
    }

    #[test]
    fn oracle_model_grounds_perfectly() {
        let mut m = FmModel::new(ModelProfile::oracle(), 7);
        let s = shot();
        match m.ground_native(&s, "Confirm order") {
            GroundingOutcome::Box(r) => {
                let target = s
                    .items
                    .iter()
                    .find(|i| i.text == "Confirm order")
                    .unwrap()
                    .rect;
                assert!(target.contains(r.center()));
            }
            other => panic!("expected box, got {other:?}"),
        }
    }
}
