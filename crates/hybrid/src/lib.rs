//! # eclair-hybrid — compiled bots with FM-repaired drift
//!
//! The paper's economic argument (§6) is that a foundation-model agent
//! amortizes: once the FM has *demonstrated* a workflow, nothing about
//! re-running it requires intelligence — until the UI drifts. This crate
//! operationalizes that observation as a three-part loop:
//!
//! * [`compile`] — the **trace→script compiler**: lower a validated FM
//!   execution trace (gold actions + gold outcome) into a selector bot,
//!   choosing the most drift-resistant anchor per step (name > label >
//!   position) from the recorded frames;
//! * [`execute`] — the **hybrid executor**: replay the bot through the
//!   FM executor's own step driver at near-zero token cost, detect drift
//!   at runtime (selector miss, landing-point verification failure,
//!   bounced effects, unexpected modals/redirects), and fall back to the
//!   FM for *only the broken step*;
//! * [`execute::splice_repair`] — the **recompiler**: splice each
//!   FM-repaired anchor back into the script, so the same drift never
//!   costs tokens twice;
//! * [`policy`] — the [`HybridPolicy`] knob `RunSpec` carries so the
//!   fleet, chaos schedules, virtual clock, and metrics registry all
//!   thread through unchanged.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod compile;
pub mod execute;
pub mod policy;

pub use compile::{compile_task, CompiledStep, HybridScript};
pub use execute::{run_hybrid_on_session, splice_repair, HybridReport};
pub use policy::HybridPolicy;
