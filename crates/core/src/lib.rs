//! # eclair-core
//!
//! **ECLAIR** — *Enterprise sCaLe AI for woRkflows* — the system proposed by
//! Wornow et al. (VLDB 2024), built on the simulated substrates of this
//! workspace. The three stages mirror the paper's Figure 1:
//!
//! * [`demonstrate`] — learn a workflow by watching a recorded human
//!   demonstration and/or reading its description, emitting an SOP
//!   (paper §4.1, Table 1);
//! * [`execute`] — run a workflow on a live GUI: suggest the next action,
//!   ground it to pixels, actuate, and recover from pop-ups
//!   (paper §4.2, Tables 2–3);
//! * [`validate`] — self-monitor: did the last action execute, is the next
//!   action viable, did the workflow complete, did the trajectory follow
//!   the SOP (paper §4.3, Table 4).
//!
//! Cross-cutting pieces implement the paper's §5 road map: [`hitl`]
//! (human-in-the-loop gates and sensitive-action interrupts), [`skills`]
//! (a self-improvement skill library), [`multiagent`] (ensembling), and
//! [`agent`] (the orchestrator gluing the stages together).
//!
//! [`experiments`] contains the harnesses that regenerate every table and
//! figure; [`calibration`] is the single home of every tuned constant,
//! each documented with the paper operating point it targets.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod agent;
pub mod calibration;
pub mod demonstrate;
pub mod execute;
pub mod experiments;
pub mod hitl;
pub mod multiagent;
pub mod skills;
pub mod validate;

pub use agent::{Eclair, EclairConfig};
