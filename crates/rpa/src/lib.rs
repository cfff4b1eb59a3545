//! # eclair-rpa
//!
//! The baseline the paper positions ECLAIR against: traditional Robotic
//! Process Automation, "in which a human manually defines a set of rules
//! that a bot then follows" (§2.1).
//!
//! * [`selector`] — the rule language: find-by-name, find-by-label,
//!   find-by-position; exactly the brittle anchors real RPA toolkits use;
//! * [`scoring`] — drift-resistance ranking of anchors (name > label >
//!   index > point) and best-anchor choice, shared with the
//!   `eclair-hybrid` trace→script compiler;
//! * [`script`] — compiled scripts: ordered `(selector, operation)` steps,
//!   authored from a gold trace with configurable authoring imperfections;
//! * [`bot`] — the executor: resolves selectors against the live page and
//!   fails fast when an anchor no longer matches;
//! * [`drift`] — the §3 deployment simulation: quarterly UI updates break
//!   selectors, maintenance FTEs fix what broke, accuracy ramps 60% → 95%
//!   over months exactly as both case studies report;
//! * [`economics`] — the cost model: set-up months and dollars, FTE
//!   maintenance, cost per processed item — RPA's side of the case-study
//!   comparison.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod bot;
pub mod drift;
pub mod economics;
pub mod scoring;
pub mod script;
pub mod selector;

pub use bot::{RpaBot, RunOutcome, RunReport};
pub use scoring::{best_selector, drift_resistance};
pub use script::{RpaOp, RpaScript, RpaStep};
pub use selector::Selector;
