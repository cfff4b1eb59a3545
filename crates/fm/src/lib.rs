//! # eclair-fm
//!
//! A *simulated* multimodal foundation model — the substitution this
//! reproduction makes for GPT-4V and CogAgent (see DESIGN.md §1).
//!
//! The simulation is behavioural, not linguistic: instead of generating
//! free text, the model exposes the primitive capabilities the ECLAIR
//! pipeline composes, each with a mechanistic error model conditioned on a
//! per-model [`profile::ModelProfile`]:
//!
//! * [`percept`] — parsing a screenshot into perceived elements through a
//!   lossy vision tower (size-dependent recall, box jitter, OCR noise);
//! * [`ground`] — mapping a natural-language element description to pixels,
//!   natively (raw bbox emission) or via set-of-marks selection — the two
//!   regimes Table 3 compares;
//! * [`sampling`] — temperature, self-consistency ensembling, and
//!   confidence elicitation (the §5 reliability techniques);
//! * [`prompt`] / [`tokens`] — prompt assembly and token/cost accounting so
//!   experiments can report the price of FM-driven automation;
//! * [`model`] — the [`model::FmModel`] handle tying a profile to a seeded
//!   RNG and a token meter;
//! * [`text`] — the lightweight lexical-similarity machinery the simulated
//!   "language head" uses to compare descriptions with on-screen text.
//!
//! Determinism: an `FmModel` seeded identically produces identical
//! behaviour; "temperature 0" disables *sampling* noise but keeps
//! *capability* noise (a model that cannot localize small icons does not
//! become able to at temperature 0 — matching the paper's observation that
//! greedy decoding alone does not fix grounding).

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod ground;
pub mod model;
pub mod percept;
pub mod profile;
pub mod prompt;
#[cfg(test)]
mod reference;
pub mod sampling;
pub mod text;
pub mod tokens;

pub use ground::GroundingOutcome;
pub use model::{shared_percept_cache, FmModel, SharedPerceptCache};
pub use percept::{PerceivedElement, ScenePercept};
pub use profile::{FmProfile, ModelProfile};
pub use prompt::{Part, Prompt};
pub use tokens::TokenMeter;
