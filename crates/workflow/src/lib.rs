//! # eclair-workflow
//!
//! The workflow data model of the ECLAIR reproduction — the vocabulary
//! shared by the agent, the RPA baseline, the simulated sites, and every
//! experiment harness.
//!
//! * [`action`] — semantic actions (`Click "New issue"`, `Type "bug" into
//!   Title`) and traces; the alternating (s, a, s′, ...) structure of paper
//!   §2.2;
//! * [`replay`] — the *oracle* executor: resolves semantic actions against a
//!   live session with perfect grounding (used to realize gold traces and
//!   as the RPA bot's actuator);
//! * [`sop`] — Standard Operating Procedures: numbered natural-language
//!   steps, parsing and formatting;
//! * [`matcher`] — semantic step equivalence (verb classes + token overlap),
//!   standing in for the paper's human annotators;
//! * [`score`] — Table 1's SOP metrics: missing/incorrect step counts,
//!   precision, recall;
//! * [`constraints`] — the integrity-constraint language of §4.3.1 ("a
//!   button must be visible and not disabled"), with oracle evaluation;
//! * [`category`] — Figure 2's workflow taxonomy (enumerable steps ×
//!   decision making × knowledge intensity → which technology can automate
//!   it).

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod action;
pub mod category;
pub mod constraints;
pub mod matcher;
#[cfg(test)]
mod reference;
pub mod replay;
pub mod score;
pub mod sop;

pub use action::{Action, ActionTrace, TargetRef};
pub use category::{AutomationTech, Level, WorkflowProfile};
pub use constraints::{Constraint, IntegrityConstraint};
pub use sop::{Sop, SopStep};
