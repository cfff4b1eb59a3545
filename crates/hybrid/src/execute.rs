//! The hybrid executor: run a compiled bot at near-zero token cost,
//! detect UI drift at runtime, repair only the broken step with the FM,
//! and splice the repair back into the script.
//!
//! A bot run is an ordinary run of the shared step driver,
//! [`eclair_core::execute::drive`], with compiled steps in place of FM
//! suggestions. The driver owns the span structure, the chaos fault-note
//! accounting, re-login recovery, virtual-clock step anchoring and the
//! attempt counts, so flight records and vt-latency profiles from hybrid
//! runs compose with everything downstream (obs, bench, crucible). What
//! differs is what a step costs: a bot step draws [`CostKind::BotStep`]
//! and zero tokens; only a drifted step pays for FM grounding, via
//! [`eclair_core::execute::repair_step`].
//!
//! Drift taxonomy (the chaos-hardened checks from the executor, applied
//! to bot steps):
//! * `selector-miss` — the recorded anchor resolves to nothing on the
//!   live page (relabel, rename, hidden element);
//! * `displaced-click` — the click landed somewhere other than where it
//!   was aimed (a layout shift in flight);
//! * `op-bounced` — the element resolved and the click landed, but the
//!   operation's effect did not materialize (typing into a button, a
//!   modal capturing input, a dropped event);
//! * `unexpected-page` — a modal or redirect means the resolved point no
//!   longer reaches the recorded element (detected as one of the above;
//!   the repair path escapes modals and re-logs-in).
//!
//! Transient drift (one-shot chaos faults consume on delivery) gets one
//! free deterministic retry before the FM is paid; a persistent miss
//! goes straight to fallback. Every successful repair is spliced back by
//! [`splice_repair`] so the same drift never costs tokens twice.

use eclair_core::execute::{
    click_at, drive, repair_step, ExecConfig, RepairedAnchor, RunResult, StepOutcome,
};
use eclair_fm::FmModel;
use eclair_gui::event::EffectKind;
use eclair_gui::{GuiSurface, Key, UserEvent, VIEWPORT};
use eclair_rpa::{RpaOp, Selector};
use eclair_trace::{CostKind, EventKind, SpanKind};

use crate::compile::{CompiledStep, HybridScript};

/// Outcome of one hybrid run, in the executor's shape: every drift is a
/// failure, and every drift the FM repaired is a recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridReport {
    /// Executor-compatible result (`success` is left `false`; callers
    /// check their own predicate, exactly as with `run_on_session`).
    pub result: RunResult,
}

impl HybridReport {
    /// Steps where the bot detected drift; each paid for one FM fallback.
    pub fn drifts(&self) -> usize {
        self.result.failures
    }

    /// Fallbacks that succeeded and were spliced back into the script.
    pub fn repaired(&self) -> usize {
        self.result.recoveries
    }
}

/// Why a bot step did not land.
enum Drift {
    /// The anchor resolves to nothing — retrying without the FM is
    /// pointless.
    SelectorMiss,
    /// The step reached the page but bounced; one-shot faults consume on
    /// delivery, so one free deterministic retry is worth taking.
    Transient(String),
}

impl Drift {
    fn reason(&self) -> &str {
        match self {
            Drift::SelectorMiss => "selector-miss",
            Drift::Transient(r) => r,
        }
    }
}

/// Run a compiled script against a live surface, falling back to the FM
/// for broken steps only. Mutates `script` in place when the recompiler
/// splices a repaired anchor. The run takes one step per script step, up
/// to `cfg.max_steps`; an unrepairable step aborts it, so
/// `failures - recoveries` is always 0 or 1.
pub fn run_hybrid_on_session<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    script: &mut HybridScript,
    cfg: &ExecConfig,
) -> HybridReport {
    let max_steps = cfg.max_steps.min(script.steps.len());
    // The Execute span is labelled with the script's name while the step
    // body splices repairs into the script, so lend the name out.
    let name = std::mem::take(&mut script.name);
    let result = drive(
        model,
        session,
        cfg,
        &name,
        max_steps,
        CostKind::BotStep,
        |model, session, i| {
            let step = &script.steps[i];
            let landed = match bot_dispatch(session, step) {
                Ok(()) => Ok(()),
                // One-shot faults (layout-shift displacement, a dropped
                // event) consume on delivery: a single deterministic retry
                // is free and resolves them without waking the FM.
                Err(Drift::Transient(_)) => bot_dispatch(session, step),
                Err(miss) => Err(miss),
            };
            let Err(drift) = landed else {
                model.trace_mut().note(format!("bot ok: {}", step.describe));
                return StepOutcome::Landed;
            };
            let reason = drift.reason();
            model.trace_mut().event(EventKind::DriftDetected {
                step: i as u64,
                reason: reason.to_string(),
            });
            model
                .trace_mut()
                .note(format!("drift at step {i}: {reason} ({})", step.describe));
            let rec_span = model.trace_mut().open(SpanKind::Recover, "fm fallback");
            model.trace_mut().advance(CostKind::Recover, 0);
            model.trace_mut().event(EventKind::FallbackStep {
                step: i as u64,
                query: step.query.clone(),
            });
            let repair = repair_step(model, session, cfg, &step.query, &step.op);
            model.trace_mut().close(rec_span);
            match repair {
                Ok(anchor) => {
                    let selector = splice_repair(script, i, &anchor);
                    model.trace_mut().event(EventKind::Recompiled {
                        step: i as u64,
                        selector: selector.describe(),
                    });
                    model
                        .trace_mut()
                        .note(format!("recompiled step {i} -> {}", selector.describe()));
                    StepOutcome::Recovered
                }
                Err(e) => {
                    model
                        .trace_mut()
                        .note(format!("fallback failed at step {i}: {e}"));
                    StepOutcome::Aborted
                }
            }
        },
    );
    script.name = name;
    HybridReport { result }
}

/// The recompiler: splice the anchor an FM repair landed on back into
/// the script at `step`, choosing the most drift-resistant selector the
/// anchor supports (name > label > point) so the same drift never costs
/// tokens twice. Returns the spliced selector.
pub fn splice_repair(script: &mut HybridScript, step: usize, anchor: &RepairedAnchor) -> Selector {
    let selector = if !anchor.name.is_empty() {
        Selector::ByName(anchor.name.clone())
    } else if !anchor.label.is_empty() {
        Selector::ByLabel(anchor.label.clone())
    } else {
        Selector::ByPoint(anchor.point)
    };
    script.steps[step].selector = selector.clone();
    script.recompiled += 1;
    selector
}

/// One token-free bot attempt at a step, with the executor's
/// chaos-hardened checks: anchor resolution, landing-point verification,
/// and effect verification.
fn bot_dispatch<S: GuiSurface>(session: &mut S, step: &CompiledStep) -> Result<(), Drift> {
    let Some(id) = step.selector.resolve_in(session.page(), session.scroll_y()) else {
        return Err(Drift::SelectorMiss);
    };
    scroll_into_view_on(session, id);
    let pt = session
        .page()
        .get(id)
        .bounds
        .center()
        .offset(0, -session.scroll_y());
    let d = click_at(session, pt).map_err(|_| Drift::Transient("displaced-click".into()))?;
    let ok = match &step.op {
        RpaOp::Click => d.effect != EffectKind::NoOp,
        RpaOp::Type(text) => {
            d.effect == EffectKind::Focused
                && session.dispatch(UserEvent::Type(text.clone())).effect == EffectKind::Typed
        }
        RpaOp::Replace(text) => {
            if d.effect != EffectKind::Focused {
                false
            } else {
                for _ in 0..300 {
                    let empty = step
                        .selector
                        .resolve_in(session.page(), session.scroll_y())
                        .map(|id| session.page().get(id).value.is_empty())
                        .unwrap_or(true);
                    if empty {
                        break;
                    }
                    session.dispatch(UserEvent::Press(Key::Backspace));
                }
                session.dispatch(UserEvent::Type(text.clone())).effect == EffectKind::Typed
            }
        }
    };
    if ok {
        Ok(())
    } else {
        Err(Drift::Transient("op-bounced".into()))
    }
}

/// Generic scroll-into-view for any [`GuiSurface`]: same thresholds as
/// `Session::scroll_into_view`, expressed as a dispatched scroll event so
/// wrappers (chaos) see it and the surface clamps it.
fn scroll_into_view_on<S: GuiSurface>(session: &mut S, id: eclair_gui::WidgetId) {
    let b = session.page().get(id).bounds;
    let view_top = session.scroll_y();
    let view_h = VIEWPORT.h as i32;
    let desired = if b.y < view_top {
        (b.y - 20).max(0)
    } else if b.bottom() > view_top + view_h {
        b.bottom() - view_h + 20
    } else {
        view_top
    };
    if desired != view_top {
        session.dispatch(UserEvent::Scroll(desired - view_top));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_task;
    use eclair_fm::FmProfile;
    use eclair_gui::{DriftOp, Theme};
    use eclair_sites::tasks::all_tasks;
    use eclair_sites::TaskSpec;
    use eclair_trace::TraceRecorder;

    fn compile(task: &TaskSpec) -> HybridScript {
        let mut rec = TraceRecorder::new();
        compile_task(task, &mut rec).unwrap()
    }

    fn oracle() -> FmModel {
        FmProfile::Oracle.instantiate(11)
    }

    /// Downgrade the step anchored on the widget labeled `label` from its
    /// name selector to a label selector, so a relabel theme breaks it.
    /// (A click step's fallback query is the recorded label, which is how
    /// the step is found.)
    fn anchor_by_label(script: &mut HybridScript, label: &str) {
        let step = script
            .steps
            .iter_mut()
            .find(|s| s.query == label)
            .expect("script has a step on the labeled widget");
        step.selector = Selector::ByLabel(label.to_string());
    }

    #[test]
    fn pristine_pages_complete_every_task_at_zero_tokens() {
        for task in all_tasks() {
            let mut script = compile(&task);
            let mut session = task.launch();
            let mut model = oracle();
            let cfg = ExecConfig::with_sop(task.gold_sop.clone());
            let report = run_hybrid_on_session(&mut model, &mut session, &mut script, &cfg);
            assert!(
                task.success.evaluate(&session),
                "{}: hybrid run did not reach the gold outcome\n{}",
                task.id,
                report.result.log.join("\n")
            );
            assert_eq!(report.drifts(), 0, "{}: drift on a pristine page", task.id);
            assert_eq!(
                model.meter().total_tokens(),
                0,
                "{}: a driftless bot run must cost zero tokens",
                task.id
            );
        }
    }

    #[test]
    fn relabel_drift_falls_back_then_recompiles() {
        let task = all_tasks()
            .into_iter()
            .find(|t| t.id == "gitlab-01")
            .unwrap();
        let mut script = compile(&task);
        anchor_by_label(&mut script, "New issue");
        let theme = Theme::with_ops(vec![DriftOp::Relabel {
            from: "New issue".into(),
            to: "New issue »".into(),
        }]);
        let mut session = task.site.launch_with_theme(theme.clone());
        let mut model = oracle();
        let cfg = ExecConfig::with_sop(task.gold_sop.clone());
        let report = run_hybrid_on_session(&mut model, &mut session, &mut script, &cfg);
        assert!(
            task.success.evaluate(&session),
            "repaired run must still complete:\n{}",
            report.result.log.join("\n")
        );
        assert_eq!(report.drifts(), 1);
        assert_eq!(report.repaired(), 1);
        assert_eq!(script.recompiled, 1);
        assert!(model.meter().total_tokens() > 0, "the fallback pays tokens");
        // The same drift never costs tokens twice: a fresh run of the
        // *recompiled* script on the same drifted site is token-free.
        let mut session2 = task.site.launch_with_theme(theme);
        let mut model2 = oracle();
        let report2 = run_hybrid_on_session(&mut model2, &mut session2, &mut script, &cfg);
        assert!(task.success.evaluate(&session2));
        assert_eq!(report2.drifts(), 0, "{}", report2.result.log.join("\n"));
        assert_eq!(model2.meter().total_tokens(), 0);
    }

    #[test]
    fn trace_carries_the_full_drift_narrative() {
        let task = all_tasks()
            .into_iter()
            .find(|t| t.id == "gitlab-01")
            .unwrap();
        let mut script = compile(&task);
        anchor_by_label(&mut script, "New issue");
        let theme = Theme::with_ops(vec![DriftOp::Relabel {
            from: "New issue".into(),
            to: "New issue »".into(),
        }]);
        let mut session = task.site.launch_with_theme(theme);
        let mut model = oracle();
        let cfg = ExecConfig::with_sop(task.gold_sop.clone());
        let report = run_hybrid_on_session(&mut model, &mut session, &mut script, &cfg);
        assert_eq!(report.drifts(), 1, "{}", report.result.log.join("\n"));
        let events = model.trace().events();
        let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(
            k,
            EventKind::DriftDetected { reason, .. } if reason == "selector-miss"
        )));
        assert!(has(&|k| matches!(k, EventKind::FallbackStep { .. })));
        assert!(has(&|k| matches!(k, EventKind::Recompiled { .. })));
        // Failure/recovery bookkeeping stays executor-shaped.
        assert!(report.result.recoveries <= report.result.failures);
        assert_eq!(report.result.failures, 1);
        assert_eq!(report.result.recoveries, 1);
    }

    #[test]
    fn unrepairable_scripts_abort_instead_of_flailing() {
        let task = all_tasks()
            .into_iter()
            .find(|t| t.id == "gitlab-01")
            .unwrap();
        let mut script = compile(&task);
        // An op-level mismatch the FM cannot repair: type into a button.
        script.steps[0].op = RpaOp::Type("nonsense".into());
        let mut session = task.launch();
        let mut model = oracle();
        let cfg = ExecConfig::with_sop(task.gold_sop.clone());
        let report = run_hybrid_on_session(&mut model, &mut session, &mut script, &cfg);
        assert!(!task.success.evaluate(&session));
        assert_eq!(report.drifts(), 1);
        assert_eq!(report.repaired(), 0);
        assert_eq!(
            report.result.actions_attempted, 1,
            "the run stops at the broken step"
        );
        assert!(report
            .result
            .log
            .iter()
            .any(|l| l.contains("fallback failed")));
    }

    #[test]
    fn step_budget_below_the_script_length_caps_the_run() {
        let task = all_tasks()
            .into_iter()
            .find(|t| t.id == "gitlab-01")
            .unwrap();
        let mut script = compile(&task);
        assert!(script.steps.len() > 1, "fixture needs a multi-step script");
        let mut session = task.launch();
        let mut model = oracle();
        let mut cfg = ExecConfig::with_sop(task.gold_sop.clone());
        cfg.max_steps = 1;
        let report = run_hybrid_on_session(&mut model, &mut session, &mut script, &cfg);
        assert_eq!(report.result.actions_attempted, cfg.max_steps);
        assert_eq!(report.drifts(), 0);
        assert!(
            !task.success.evaluate(&session),
            "one step of {} cannot finish the task",
            script.steps.len()
        );
    }
}
