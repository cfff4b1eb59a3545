//! The trace→script compiler: lower a validated FM execution trace into
//! a selector bot.
//!
//! Input is a task's gold action trace — the semantic record a validated
//! FM run leaves behind — which the compiler "replays" on a pristine
//! launch of the site exactly the way the RPA authoring studio would,
//! capturing for every anchored action the most drift-resistant selector
//! the recorded frame supports (`eclair_rpa::scoring`: name > label >
//! point). Two gates make the result *validated*, not merely recorded:
//! every action must replay cleanly, and the task's success predicate
//! must hold on the final screen (the gold outcome). A trace that fails
//! either gate does not become a bot — the hybrid run falls back to the
//! pure FM executor instead.
//!
//! Compilation is deterministic and token-free; its simulated cost is
//! charged to the virtual clock as [`CostKind::Compile`] draws, and each
//! lowered step is recorded as an [`EventKind::CompiledStep`] so the
//! flight record shows what the bot was born from.

use eclair_rpa::{best_selector, RpaOp, Selector};
use eclair_sites::TaskSpec;
use eclair_trace::{CostKind, EventKind, TraceRecorder};
use eclair_workflow::replay::KindPref;
use eclair_workflow::Action;

/// One compiled bot step: the anchor, the operation, and what the FM
/// fallback needs when the anchor drifts.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStep {
    /// The drift-resistant anchor chosen at compile time (or spliced in
    /// by the recompiler after a repair).
    pub selector: Selector,
    /// The operation to perform on the resolved element.
    pub op: RpaOp,
    /// The grounding query the FM fallback uses when this step drifts —
    /// the element's visible label as recorded, which is what perception
    /// sees on the live screen.
    pub query: String,
    /// Human-readable step description (notes, logs).
    pub describe: String,
}

/// A compiled hybrid script: an [`eclair_rpa::RpaScript`] enriched with
/// per-step fallback queries and a recompilation counter.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridScript {
    /// Task id the script automates.
    pub name: String,
    /// Steps in order.
    pub steps: Vec<CompiledStep>,
    /// How many steps the recompiler has spliced since compilation.
    pub recompiled: u64,
}

/// Compile `task`'s validated trace into a bot script. Replays the trace
/// on a pristine launch (the authoring recording), anchors each action
/// with [`best_selector`], and enforces the gold-outcome gate: the
/// replayed trace must complete and satisfy the task's success check.
/// Compile cost is charged to `recorder`'s virtual clock; each lowered
/// step emits a [`EventKind::CompiledStep`].
pub fn compile_task(task: &TaskSpec, recorder: &mut TraceRecorder) -> Result<HybridScript, String> {
    let mut session = task.launch();
    let mut steps: Vec<CompiledStep> = Vec::new();
    for action in &task.gold_trace.actions {
        let (target, op, pref) = match action {
            Action::Click(t) => (Some(t.clone()), RpaOp::Click, KindPref::Activatable),
            Action::Type {
                target: Some(t),
                text,
            } => (
                Some(t.clone()),
                RpaOp::Type(text.clone()),
                KindPref::Editable,
            ),
            Action::Type { target: None, text } => {
                (None, RpaOp::Type(text.clone()), KindPref::Editable)
            }
            Action::Replace { target, text } => (
                Some(target.clone()),
                RpaOp::Replace(text.clone()),
                KindPref::Editable,
            ),
            // Presses/scrolls need no anchor: replay advances the
            // recording, and the bot's scroll-into-view reproduces the
            // navigation they performed.
            Action::Press(_) | Action::Scroll(_) => (None, RpaOp::Click, KindPref::Any),
        };
        if let Some(target) = target {
            let Some(id) = eclair_workflow::replay::resolve_pref(&session, &target, pref) else {
                return Err(format!(
                    "{}: trace step {} ({}) does not resolve on the recorded screen",
                    task.id,
                    steps.len(),
                    action.describe()
                ));
            };
            let (selector, query) = {
                let page = session.page();
                let w = page.get(id);
                let label_or_name = if w.label.trim().is_empty() {
                    w.name.to_string()
                } else {
                    w.label.to_string()
                };
                let query = match op {
                    RpaOp::Click => label_or_name,
                    RpaOp::Type(_) | RpaOp::Replace(_) => format!("the {label_or_name} field"),
                };
                (best_selector(page, session.scroll_y(), id), query)
            };
            recorder.advance(CostKind::Compile, 0);
            recorder.event(EventKind::CompiledStep {
                step: steps.len() as u64,
                selector: selector.describe(),
            });
            steps.push(CompiledStep {
                selector,
                op,
                query,
                describe: action.describe(),
            });
        }
        if let Err(e) = eclair_workflow::replay::execute(&mut session, action) {
            return Err(format!(
                "{}: trace does not replay at {} ({e:?})",
                task.id,
                action.describe()
            ));
        }
    }
    // The gold-outcome gate: only a trace that demonstrably completed the
    // task is worth compiling into a bot.
    if !task.success.evaluate(&session) {
        return Err(format!(
            "{}: replayed trace does not satisfy the success check",
            task.id
        ));
    }
    Ok(HybridScript {
        name: task.id.clone(),
        steps,
        recompiled: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_sites::tasks::all_tasks;

    #[test]
    fn every_gold_trace_compiles_through_the_validation_gate() {
        for task in all_tasks() {
            let mut rec = TraceRecorder::new();
            let script = compile_task(&task, &mut rec).expect(&task.id);
            assert!(!script.steps.is_empty(), "{}: empty script", task.id);
            assert_eq!(script.name, task.id);
            // Compile work is on the books: one event + one clock draw per
            // lowered step, zero FM tokens anywhere.
            let compiled = rec
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::CompiledStep { .. }))
                .count();
            assert_eq!(compiled, script.steps.len());
            assert!(rec.clock().now_us() > 0);
        }
    }

    #[test]
    fn compiled_anchors_are_maximally_drift_resistant() {
        // The sites name their interactive widgets, so the compiler
        // should essentially never settle for a coordinate anchor.
        let mut by_kind = [0usize; 4];
        for task in all_tasks() {
            let mut rec = TraceRecorder::new();
            let script = compile_task(&task, &mut rec).unwrap();
            for s in &script.steps {
                by_kind[eclair_rpa::drift_resistance(&s.selector) as usize] += 1;
            }
        }
        let total: usize = by_kind.iter().sum();
        assert!(
            by_kind[3] * 10 >= total * 9,
            "expected >=90% name anchors, got {by_kind:?}"
        );
    }

    #[test]
    fn compilation_is_deterministic() {
        let task = &all_tasks()[5];
        let build = || {
            let mut rec = TraceRecorder::new();
            compile_task(task, &mut rec).unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn a_failing_trace_is_rejected() {
        let mut task = all_tasks().remove(0);
        // Truncate the trace: it replays but cannot reach the outcome.
        task.gold_trace.actions.truncate(1);
        let mut rec = TraceRecorder::new();
        let err = compile_task(&task, &mut rec).unwrap_err();
        assert!(err.contains("success check"), "{err}");
    }
}
