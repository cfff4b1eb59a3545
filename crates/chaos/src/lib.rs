//! # eclair-chaos — deterministic fault injection at the GUI boundary
//!
//! The paper's agents must "use common sense to error correct" (§4.2):
//! surprise dialogs, layout drift between observation and actuation,
//! stale frames, expired sessions, flaky event delivery. This crate turns
//! those hazards into a *seeded, schedulable* perturbation layer so the
//! recovery path can be exercised — and regression-tested — instead of
//! hoped about.
//!
//! The pieces:
//!
//! * [`FaultKind`] / [`FaultSpec`] — the fault vocabulary.
//! * [`ChaosProfile`] / [`ChaosSchedule`] — a pure schedule: the fault at
//!   step `s` is a function of `(chaos_seed, run_id, step)` and nothing
//!   else, so fleets stay byte-reproducible across worker counts.
//! * [`ChaosSession`] — a [`eclair_gui::GuiSurface`] wrapping a real
//!   [`eclair_gui::Session`], arming scheduled faults at each step and
//!   reporting them as [`eclair_gui::FaultNote`]s for trace recording.
//!
//! Executors drive the surface exactly as they drive a pristine session;
//! the only contract addition is calling `begin_step` once per loop
//! iteration and draining fault notes into the trace.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod fault;
pub mod schedule;
pub mod session;

pub use fault::{FaultKind, FaultSpec};
pub use schedule::{ChaosProfile, ChaosSchedule, SHIFT_PX_RANGE};
pub use session::{ChaosSession, CHAOS_DISMISS_NAME, CHAOS_LOGIN_NAME, CHAOS_MODAL_NAME};
