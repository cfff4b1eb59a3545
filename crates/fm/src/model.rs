//! The model handle: a profile + seeded RNG + token meter.
//!
//! Everything ECLAIR asks of a foundation model flows through [`FmModel`],
//! so experiments can (a) swap profiles (GPT-4 vs CogAgent vs oracle),
//! (b) reproduce runs exactly from a seed, and (c) read off token costs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use eclair_gui::Screenshot;
use eclair_trace::{CostKind, EventKind, TraceRecorder, VirtualClock};
use eclair_vision::marks::MarkedScreenshot;

use crate::ground::{native_ground, select_mark, GroundingOutcome};
use crate::percept::{perceive, ScenePercept};
use crate::profile::ModelProfile;
use crate::prompt::Prompt;
use crate::sampling::{judge_ensemble, Judgment, Sampling};
use crate::tokens::TokenMeter;

/// Inert: perception keeps no cache, so this handle holds nothing. Kept
/// only because the end-to-end benchmark still names it (with
/// [`shared_percept_cache`] and [`FmModel::attach_shared`]); it goes when
/// the benchmark drops those calls.
#[derive(Debug)]
pub struct SharedPerceptCache;

/// Inert: an empty [`SharedPerceptCache`] handle, kept only because the
/// end-to-end benchmark still calls it.
pub fn shared_percept_cache() -> Arc<SharedPerceptCache> {
    Arc::new(SharedPerceptCache)
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
}

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
        }
    }

    /// Does nothing: perception keeps no cache. Kept only because the
    /// end-to-end benchmark still calls it; it goes when the benchmark
    /// drops the call.
    pub fn attach_shared(&mut self, _cache: Arc<SharedPerceptCache>) {}

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
    /// and token counts always agree with [`Self::meter`]. `purpose` is
    /// one of a fixed set of names, borrowed into the event.
    pub fn account(&mut self, purpose: &'static str, prompt_tokens: u64, completion_tokens: u64) {
        self.meter.record(prompt_tokens, completion_tokens);
        // Advance simulated time before emitting, so the event is stamped
        // with the post-call clock. Decode dominates real FM latency,
        // hence the 4× completion weight. This is the single advance
        // point for FM work.
        let kind = if purpose == "perceive" {
            CostKind::Perceive
        } else {
            CostKind::FmCall
        };
        self.trace
            .advance(kind, prompt_tokens + 4 * completion_tokens);
        self.trace.event(EventKind::FmCall {
            purpose: purpose.into(),
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
    /// RNG — so perceiving the same frame twice yields the same percept,
    /// accounts the same tokens and perturbs nothing downstream.
    pub fn perceive(&mut self, shot: &Screenshot) -> ScenePercept {
        let stream_seed = mix(
            mix(self.seed, fnv_str(&self.profile.name)),
            shot.frame_hash(),
        );
        let percept = perceive(shot, &self.profile, &mut StdRng::seed_from_u64(stream_seed));
        self.account(
            "perceive",
            85 + 4 * shot.items.len() as u64,
            2 + 4 * percept.elements.len() as u64,
        );
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
            85 + 4 * marked.items as u64
                + 3 * marked.marks.len() as u64
                + (description.len() as u64).div_ceil(4),
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
