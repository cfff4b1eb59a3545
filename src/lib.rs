//! # eclair
//!
//! Umbrella crate for the ECLAIR reproduction (Wornow et al., *Automating
//! the Enterprise with Foundation Models*, VLDB 2024): re-exports every
//! subsystem crate under one roof so examples and downstream users can
//! depend on a single package.
//!
//! ```
//! use eclair::prelude::*;
//!
//! // Pick a workflow, build the agent, automate it end to end.
//! let task = eclair::sites::all_tasks().remove(2);
//! let mut agent = Eclair::new(EclairConfig::default());
//! let report = agent.automate(&task);
//! assert!(!report.sop_text.is_empty());
//! ```
//!
//! The subsystem crates, bottom-up:
//!
//! | crate | role |
//! |---|---|
//! | [`metrics`] | classification metrics, table rendering |
//! | [`gui`] | the simulated GUI substrate (widgets, layout, sessions, screenshots) |
//! | [`vision`] | recordings, key frames, OCR, detection, set-of-marks |
//! | [`workflow`] | SOPs, actions, traces, integrity constraints, matching |
//! | [`fm`] | the simulated multimodal foundation model |
//! | [`sites`] | GitLab / Magento / ERP / payer-portal apps + the 30 tasks |
//! | [`rpa`] | the rule-based RPA baseline, drift study, economics |
//! | [`core`] | ECLAIR itself: Demonstrate / Execute / Validate + experiments |
//! | [`fleet`] | concurrent multi-workflow scheduler (retries, budgets, backpressure) |
//! | [`hybrid`] | trace→script compiler, drift-detecting bot executor, recompiler |
//! | [`trace`] | deterministic spans, virtual clock, JSONL flight records |

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use eclair_chaos as chaos;
pub use eclair_core as core;
pub use eclair_corpus as corpus;
pub use eclair_fleet as fleet;
pub use eclair_fm as fm;
pub use eclair_gui as gui;
pub use eclair_hybrid as hybrid;
pub use eclair_metrics as metrics;
pub use eclair_rpa as rpa;
pub use eclair_sites as sites;
pub use eclair_trace as trace;
pub use eclair_vision as vision;
pub use eclair_workflow as workflow;

/// The handful of types most programs start from.
pub mod prelude {
    pub use eclair_core::agent::{Eclair, EclairConfig, WorkflowReport};
    pub use eclair_core::demonstrate::EvidenceLevel;
    pub use eclair_core::execute::{ExecConfig, GroundingStrategy};
    pub use eclair_corpus::corpus_tasks;
    pub use eclair_fleet::{Fleet, FleetConfig, RetryPolicy, RunSpec};
    pub use eclair_fm::{FmModel, FmProfile, ModelProfile};
    pub use eclair_hybrid::{HybridPolicy, HybridScript};
    pub use eclair_sites::{Site, TaskSpec};
    pub use eclair_workflow::{Action, Sop, TargetRef};
}

/// Helper used by the hospital example: run a task on a (possibly
/// drifted) themed session with a post-run human-escalation gate.
pub mod hitl_run {
    use eclair_core::execute::executor::{run_on_session, ExecConfig, RunResult};
    use eclair_fm::{FmModel, ModelProfile};
    use eclair_gui::Theme;
    use eclair_sites::TaskSpec;

    /// Execute `task` against a themed session. Returns the run result and
    /// whether the outcome triggered a transfer of control to a human
    /// (here: a coverage-lapse result, which staff must review before any
    /// downstream claim action — the paper's §5 interrupt pattern).
    pub fn run_with_gate(task: &TaskSpec, theme: &Theme, seed: u64) -> (RunResult, bool) {
        let mut model = FmModel::new(ModelProfile::gpt4v(), seed);
        let mut session = task.site.launch_with_theme(theme.clone());
        let cfg = ExecConfig::with_sop(task.gold_sop.clone()).budgeted(task.gold_trace.len());
        let mut result = run_on_session(&mut model, &mut session, &task.intent, &cfg);
        result.success = task.success.evaluate(&session);
        let interrupted = session.screenshot().contains_text("NOT COVERED");
        (result, interrupted)
    }
}
