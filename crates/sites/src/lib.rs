//! # eclair-sites
//!
//! Simulated enterprise web applications plus the 30-workflow evaluation
//! suite, standing in for the live WebArena environments the paper samples
//! from (§4: "30 workflows from the Gitlab and Adobe Magento environments")
//! and for the case-study systems of §3.
//!
//! * [`gitlab`] — a project-management app (projects, issues, merge
//!   requests, members, settings);
//! * [`magento`] — an e-commerce admin (catalog, orders, customers);
//! * [`erp`] — a NetSuite-like invoice-entry system (the §3.2 B2B
//!   invoice-processing case study);
//! * [`payer`] — an insurance payer portal (the §3.1 hospital
//!   revenue-cycle-management case study);
//! * [`ehr`] — an EHR workstation (patient lookup, medication
//!   reconciliation, prior-auth documentation — the §3.1 clinical
//!   workflows the revenue-cycle pilot sat next to);
//! * [`task`] / [`tasks`] — WebArena-style task specs: natural-language
//!   intent, gold semantic action trace, human-written reference SOP, and a
//!   programmatic success predicate over app state.
//!
//! Every app implements `eclair_gui::GuiApp`: pure page render from state,
//! semantic-event state transitions, and `probe()` keys for auditing. All
//! fixture data is deterministic.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod ehr;
pub mod erp;
pub mod fixtures;
pub mod gitlab;
pub mod magento;
pub mod payer;
pub mod task;
pub mod tasks;

pub use task::{Site, SuccessCheck, TaskSpec};
pub use tasks::all_tasks;
