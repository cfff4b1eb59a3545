//! The autonomous execution loop: observe → suggest → ground → actuate →
//! recover. This is the system whose end-to-end completion rate Table 2
//! reports (0.17 without an SOP, 0.40 with one).

use eclair_fm::FmModel;
use eclair_gui::event::EffectKind;
use eclair_gui::{GuiSurface, Key, UserEvent, VisualClass};
use eclair_sites::TaskSpec;
use eclair_trace::{fault_cost_weight, render_log, CostKind, EventKind, SpanKind};
use eclair_workflow::Sop;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::calibration;
use crate::execute::ground::{ground_click, GroundView, GroundingStrategy};
use crate::execute::parse::StepIntent;
use crate::execute::suggest::{suggest_next, SuggestState, Suggestion};

/// Configuration of one autonomous run.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// The SOP to follow, if any (Table 2's ablation switch).
    pub sop: Option<Sop>,
    /// Grounding pipeline.
    pub strategy: GroundingStrategy,
    /// Hard budget on suggested actions.
    pub max_steps: usize,
    /// Whether the caching layer (frame cache, layout cache, percept
    /// cache — a fleet's included) runs underneath this execution. Combined with the
    /// `ECLAIR_NO_CACHE=1` kill switch; flipping either must not change a
    /// single serialized byte (the transparency invariant the crucible's
    /// `cache-transparent` oracle enforces).
    pub use_cache: bool,
}

impl ExecConfig {
    /// The paper's main configuration: SOP + set-of-marks grounding.
    pub fn with_sop(sop: Sop) -> Self {
        Self {
            sop: Some(sop),
            ..Self::without_sop()
        }
    }

    /// The no-SOP baseline.
    pub fn without_sop() -> Self {
        Self {
            sop: None,
            strategy: GroundingStrategy::SomHtml,
            max_steps: 24,
            use_cache: true,
        }
    }

    /// Budget derived from a reference trace length.
    pub fn budgeted(mut self, gold_len: usize) -> Self {
        self.max_steps = ((gold_len as f64) * calibration::EXEC_STEP_BUDGET_FACTOR).ceil() as usize;
        self
    }
}

/// Outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Whether the task's functional success check held at the end.
    pub success: bool,
    /// Actions the agent attempted.
    pub actions_attempted: usize,
    /// Actions whose grounding or actuation failed (before retries).
    pub failures: usize,
    /// Failed actions whose in-step retry subsequently *succeeded* (after
    /// popup escape / re-login, where those applied). A recovery is only
    /// counted when the intent was actually re-performed and landed, so
    /// `recoveries <= failures` and `failures - recoveries` is exactly the
    /// count of actions that stayed failed — the substrate fleet-level
    /// retry accounting is built on.
    pub recoveries: usize,
    /// Human-readable narration of the run.
    pub log: Vec<String>,
}

/// How one step's body went, as [`drive`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Nothing left to do: the run ends without attempting an action.
    Exhausted,
    /// The action landed on its first try.
    Landed,
    /// The action failed, then landed on its in-step retry or repair.
    Recovered,
    /// The action failed and stayed failed; the run goes on.
    Failed,
    /// The action failed and stayed failed; the run ends here.
    Aborted,
}

/// Run a task autonomously. The session is created fresh from the task's
/// site fixture; `model` provides all perception/grounding/noise.
pub fn run_task(model: &mut FmModel, task: &TaskSpec, cfg: &ExecConfig) -> RunResult {
    let mut session = task.launch();
    let result = run_on_session(model, &mut session, &task.intent, cfg);
    RunResult {
        success: task.success.evaluate(&session),
        ..result
    }
}

/// The step loop every run shares, whatever proposes its steps: the FM
/// loop of [`run_on_session`] and the compiled bots of `eclair-hybrid`.
///
/// It resolves the cache switch, opens the `Execute` span (labelled
/// `label`) and one `Step` span per step, re-anchors the virtual clock and
/// charges `step_cost` at each step, records the faults a perturbing
/// surface injected, re-logs-in after a session expiry, and counts
/// attempts, failures and recoveries. `body` performs the step: it is
/// given the number of actions already attempted. The run ends after
/// `max_steps` actions, or when `body` reports [`StepOutcome::Exhausted`]
/// or [`StepOutcome::Aborted`]. `success` in the result is left `false`.
pub fn drive<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    cfg: &ExecConfig,
    label: &str,
    max_steps: usize,
    step_cost: CostKind,
    mut body: impl FnMut(&mut FmModel, &mut S, usize) -> StepOutcome,
) -> RunResult {
    // Resolve the caching layer once per run: the per-run config AND the
    // global kill switch must both allow it. Transparency means this is
    // the only place the flag matters — nothing downstream may behave
    // differently because of it.
    let cache_on = cfg.use_cache && !eclair_gui::no_cache_env();
    session.set_cache_enabled(cache_on);
    model.set_cache_enabled(cache_on);
    let (mut attempted, mut failures, mut recoveries) = (0usize, 0usize, 0usize);
    // The run's narration lives in the trace as Note events; the returned
    // log is rendered back from the slice this run appended.
    let log_start = model.trace().events().len();
    let exec_span = model.trace_mut().open(SpanKind::Execute, label);
    while attempted < max_steps {
        let step_no = attempted as u64 + 1;
        let step_span = model
            .trace_mut()
            .open(SpanKind::Step, &format!("step {step_no}"));
        // Re-anchor the virtual clock's draw stream to this step (latency
        // draws are pure in `(seed, run_id, step)`), then charge the
        // fixed per-step overhead.
        model.trace_mut().clock_begin_step(step_no);
        model.trace_mut().advance(step_cost, 0);
        // Let a perturbing surface arm its scheduled fault, and record
        // whatever it injected before the step observes.
        session.begin_step(step_no);
        for note in session.drain_fault_notes() {
            model
                .trace_mut()
                .advance(CostKind::FaultImpact, fault_cost_weight(&note.fault));
            model.trace_mut().note(format!(
                "chaos: {} injected at step {}",
                note.fault, note.step
            ));
            model.trace_mut().event(EventKind::FaultInjected {
                step: note.step,
                fault: note.fault,
            });
        }
        // A session that expired under the agent redirects every route to
        // a login interstitial; click through it *before* the step acts,
        // so its perception and grounding work on the real page.
        if relogin_if_expired(session) {
            let rec_span = model.trace_mut().open(SpanKind::Recover, "re-login");
            model.trace_mut().advance(CostKind::Recover, 0);
            model
                .trace_mut()
                .note("re-authenticated after session expiry");
            model.trace_mut().close(rec_span);
        }
        let outcome = body(model, session, attempted);
        model.trace_mut().close(step_span);
        if outcome == StepOutcome::Exhausted {
            break;
        }
        attempted += 1;
        failures += usize::from(outcome != StepOutcome::Landed);
        recoveries += usize::from(outcome == StepOutcome::Recovered);
        if outcome == StepOutcome::Aborted {
            break;
        }
    }
    model.trace_mut().close(exec_span);
    RunResult {
        success: false,
        actions_attempted: attempted,
        failures,
        recoveries,
        log: render_log(&model.trace().events()[log_start..]),
    }
}

/// Run against an existing surface (used by the agent orchestrator, the
/// drift studies, and the chaos harness): each step observes, asks the FM
/// for the next action, grounds and actuates it, and on failure escapes an
/// irrelevant dialog and retries once. `success` in the result is left
/// `false`; callers check their own predicate.
pub fn run_on_session<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    workflow_description: &str,
    cfg: &ExecConfig,
) -> RunResult {
    let mut state = SuggestState::new();
    let mut history: Vec<String> = Vec::new();
    drive(
        model,
        session,
        cfg,
        workflow_description,
        cfg.max_steps,
        CostKind::StepInit,
        |model, session, _| {
            let obs_span = model.trace_mut().open(SpanKind::Observe, "screenshot");
            model.trace_mut().advance(CostKind::Observe, 0);
            let shot = session.screenshot();
            model.trace_mut().close(obs_span);
            let sug_span = model.trace_mut().open(SpanKind::Suggest, "next action");
            let suggestion = suggest_next(
                model,
                workflow_description,
                cfg.sop.as_ref(),
                &mut state,
                &history,
                &shot,
            );
            model.trace_mut().close(sug_span);
            let Suggestion::Act(intent, text) = suggestion else {
                model.trace_mut().note("done: plan exhausted");
                return StepOutcome::Exhausted;
            };
            let act_span = model.trace_mut().open(SpanKind::Actuate, &text);
            model.trace_mut().advance(CostKind::Actuate, 0);
            let first_try = perform(model, session, &intent, cfg);
            model.trace_mut().close(act_span);
            let Err(e) = first_try else {
                model.trace_mut().note(format!("ok: {text}"));
                history.push(text);
                return StepOutcome::Landed;
            };
            model.trace_mut().note(format!("fail: {text} ({e})"));
            // Escaping a dialog may clear the obstacle, but the step only
            // *recovers* if the intent is then re-performed successfully — an
            // escaped popup with the action still undone is not a recovered
            // action.
            let rec_span = model.trace_mut().open(SpanKind::Recover, "popup escape");
            if escape_if_irrelevant_modal(model, session, &intent) {
                model.trace_mut().advance(CostKind::Recover, 0);
                model.trace_mut().event(EventKind::PopupEscape {
                    url: session.url().to_string(),
                });
                model.trace_mut().note("dismissed unexpected dialog");
            }
            model.trace_mut().close(rec_span);
            model
                .trace_mut()
                .event(EventKind::Retry { what: text.clone() });
            let retry_span = model.trace_mut().open(SpanKind::Actuate, &text);
            model.trace_mut().advance(CostKind::Actuate, 0);
            let retried = perform(model, session, &intent, cfg);
            model.trace_mut().close(retry_span);
            if retried.is_err() {
                return StepOutcome::Failed;
            }
            model.trace_mut().note(format!("retry ok: {text}"));
            history.push(text);
            StepOutcome::Recovered
        },
    )
}

/// Dispatch a click and confirm it landed where it was aimed. A layout
/// shift between grounding and actuation displaces the event in flight;
/// an agent can see its click land somewhere else on screen, so a
/// displaced click is a grounding failure to retry, never a success.
pub fn click_at<S: GuiSurface>(
    session: &mut S,
    pt: eclair_gui::Point,
) -> Result<eclair_gui::event::Dispatch, String> {
    let d = session.dispatch(UserEvent::Click(pt));
    if let UserEvent::Click(landed) = &d.event {
        if *landed != pt {
            return Err(format!(
                "click aimed at ({}, {}) landed at ({}, {})",
                pt.x, pt.y, landed.x, landed.y
            ));
        }
    }
    Ok(d)
}

/// Ground and actuate one intent. Errors describe what went wrong (for the
/// run log and the failure taxonomy in the benches).
fn perform<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    intent: &StepIntent,
    cfg: &ExecConfig,
) -> Result<(), String> {
    match intent {
        StepIntent::Press(k) => {
            session.dispatch(UserEvent::Press(*k));
            Ok(())
        }
        StepIntent::Scroll { down } => {
            session.dispatch(UserEvent::Scroll(if *down { 400 } else { -400 }));
            Ok(())
        }
        StepIntent::Click { target } => {
            let pt = locate(model, session, cfg, target)?;
            let d = click_at(session, pt)?;
            if d.effect == EffectKind::NoOp {
                Err(format!("click on '{target}' hit nothing"))
            } else {
                Ok(())
            }
        }
        StepIntent::Check { target } => {
            let pt = locate(model, session, cfg, target)?;
            let d = click_at(session, pt)?;
            if d.effect == EffectKind::Toggled {
                Ok(())
            } else {
                Err(format!("'{target}' did not toggle"))
            }
        }
        StepIntent::Type { value, field } => {
            if let Some(field) = field {
                // The decomposition failure the paper reports: the model
                // knows it must type, but skips focusing the field first.
                let skip_p = calibration::DECOMPOSE_SKIP_FOCUS_P
                    * (1.0 - model.profile().decomposition_skill);
                if !model.rng().gen_bool(skip_p.clamp(0.0, 1.0)) {
                    let query = format!("the {field} field");
                    let pt = locate(model, session, cfg, &query)?;
                    let d = click_at(session, pt)?;
                    if d.effect != EffectKind::Focused {
                        return Err(format!("'{field}' is not an editable field"));
                    }
                }
            }
            let d = session.dispatch(UserEvent::Type(value.clone()));
            if d.effect == EffectKind::Typed {
                Ok(())
            } else {
                Err("typing had no effect (no field focused)".into())
            }
        }
        StepIntent::Set { field, value } => {
            let query = format!("the {field} field");
            let pt = locate(model, session, cfg, &query)?;
            let d = click_at(session, pt)?;
            if d.effect != EffectKind::Focused {
                return Err(format!("'{field}' is not an editable field"));
            }
            for _ in 0..60 {
                session.dispatch(UserEvent::Press(Key::Backspace));
            }
            let d = session.dispatch(UserEvent::Type(value.clone()));
            if d.effect == EffectKind::Typed {
                Ok(())
            } else {
                Err("replacement typing had no effect".into())
            }
        }
        StepIntent::Select { option, field } => {
            let query = format!("the {field} dropdown");
            let pt = locate(model, session, cfg, &query)?;
            let d = click_at(session, pt)?;
            if d.effect != EffectKind::Focused {
                return Err(format!("'{field}' is not a dropdown"));
            }
            let d = session.dispatch(UserEvent::Type(option.clone()));
            if d.effect == EffectKind::Typed {
                Ok(())
            } else {
                Err("option entry had no effect".into())
            }
        }
        StepIntent::ClickPoint(pt) => {
            // The step gives literal viewport coordinates (recorded
            // demonstrations): replay them as-is.
            let d = click_at(session, *pt)?;
            if d.effect == EffectKind::NoOp {
                Err(format!("click at ({}, {}) hit nothing", pt.x, pt.y))
            } else {
                Ok(())
            }
        }
        StepIntent::TypeAt { point, value } => {
            let d = click_at(session, *point)?;
            if d.effect != EffectKind::Focused {
                return Err(format!(
                    "({}, {}) is not an editable field",
                    point.x, point.y
                ));
            }
            let d = session.dispatch(UserEvent::Type(value.clone()));
            if d.effect == EffectKind::Typed {
                Ok(())
            } else {
                Err("typing had no effect".into())
            }
        }
        StepIntent::Unknown(t) => Err(format!("cannot act on: {t}")),
    }
}

/// Ground a query to a click point, probing one page down and one page up
/// if nothing matches the current viewport.
pub(crate) fn locate<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    cfg: &ExecConfig,
    query: &str,
) -> Result<eclair_gui::Point, String> {
    let span = model.trace_mut().open(SpanKind::Ground, query);
    let found = locate_inner(model, session, cfg, query);
    model.trace_mut().close(span);
    found
}

fn locate_inner<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    cfg: &ExecConfig,
    query: &str,
) -> Result<eclair_gui::Point, String> {
    let home = session.scroll_y();
    // Probe the current viewport first, then one page down, then one page
    // up — the target may sit on either side of where the agent last
    // scrolled. Clamping can land two probes on the same viewport; those
    // are grounded once.
    let mut probed: Vec<i32> = Vec::new();
    for target in [home, home + 400, home - 400] {
        let delta = target - session.scroll_y();
        if delta != 0 {
            session.dispatch(UserEvent::Scroll(delta));
        }
        let at = session.scroll_y();
        if probed.contains(&at) {
            continue;
        }
        probed.push(at);
        let shot = session.screenshot();
        let view = GroundView {
            shot: &shot,
            page: (cfg.strategy == GroundingStrategy::SomHtml).then(|| session.page()),
            scroll_y: session.scroll_y(),
        };
        let (pt, _) = ground_click(model, cfg.strategy, &view, query);
        if let Some(pt) = pt {
            return Ok(pt);
        }
    }
    // Nothing matched anywhere: put the viewport back where the step
    // started instead of leaving the session scrolled somewhere random
    // (the next step's observation should see what this one saw).
    let back = home - session.scroll_y();
    if back != 0 {
        session.dispatch(UserEvent::Scroll(back));
    }
    Err(format!("could not ground '{query}'"))
}

/// If the surface landed on a login interstitial (a chaos session-expiry
/// fault, or any app that signs the agent out), click its login button to
/// re-authenticate. Returns whether the click re-activated the session.
pub(crate) fn relogin_if_expired<S: GuiSurface>(session: &mut S) -> bool {
    if session.url() != "/login" {
        return false;
    }
    let pt = {
        let page = session.page();
        let Some(id) = page.find_by_label("Log in", true) else {
            return false;
        };
        page.get(id).bounds.center().offset(0, -session.scroll_y())
    };
    session.dispatch(UserEvent::Click(pt)).effect == EffectKind::Activated
}

/// If a modal is open and none of its text relates to the current intent,
/// press Escape ("hitting escape when an irrelevant pop-up appears").
/// Returns whether an escape was issued.
///
/// A dialog can sit above the current viewport — the agent scrolled down,
/// then an overlay appeared anchored near the top of the page, swallowing
/// every click while staying invisible at this scroll. When nothing
/// modal-looking is in view, probe the top of the page before giving up,
/// and restore the scroll either way so the retry re-grounds from where
/// the step started.
pub(crate) fn escape_if_irrelevant_modal<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    intent: &StepIntent,
) -> bool {
    if escape_modal_in_view(model, session, intent) {
        return true;
    }
    let home = session.scroll_y();
    if home == 0 {
        return false;
    }
    session.dispatch(UserEvent::Scroll(-home));
    let dismissed = escape_modal_in_view(model, session, intent);
    let back = home - session.scroll_y();
    if back != 0 {
        session.dispatch(UserEvent::Scroll(back));
    }
    dismissed
}

/// One viewport's worth of the escape check: perceive the current frame,
/// find the topmost modal panel, and Escape it if its text is unrelated
/// to the intent.
fn escape_modal_in_view<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    intent: &StepIntent,
) -> bool {
    let shot = session.screenshot();
    let percept = model.perceive(&shot);
    if !percept.modal_seen {
        return false;
    }
    let query = match intent {
        StepIntent::Click { target } => target.clone(),
        other => crate::execute::suggest::intent_text(other),
    };
    // Texts plausibly inside the modal: elements overlapping the modal
    // panel region. The dialog panel is the *topmost* wide text-free panel
    // edge (modals paint last); no height floor beyond excluding hairline
    // dividers — a short dialog (one line and a button) is still a dialog.
    let panel = shot
        .items
        .iter()
        .rev()
        .find(|i| {
            i.visual == VisualClass::PanelEdge
                && i.text.is_empty()
                && i.rect.w >= 300
                && i.rect.h > 12
        })
        .map(|i| i.rect);
    let Some(panel) = panel else { return false };
    let relevant = percept
        .elements
        .iter()
        .filter(|e| e.rect.intersects(&panel) && !e.text.is_empty())
        .any(|e| eclair_fm::text::fuzzy_similarity(&e.text, &query) > 0.4);
    if relevant {
        return false;
    }
    session.dispatch(UserEvent::Press(Key::Escape));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_fm::ModelProfile;
    use eclair_sites::all_tasks;

    fn task(id: &str) -> TaskSpec {
        all_tasks().into_iter().find(|t| t.id == id).unwrap()
    }

    #[test]
    fn oracle_model_with_gold_sop_completes_tasks() {
        for id in ["gitlab-03", "magento-05", "gitlab-14", "magento-02"] {
            let t = task(id);
            let mut model = FmModel::new(ModelProfile::oracle(), 1);
            let cfg = ExecConfig::with_sop(t.gold_sop.clone()).budgeted(t.gold_trace.len());
            let r = run_task(&mut model, &t, &cfg);
            assert!(r.success, "{id}: {:#?}", r.log);
        }
    }

    #[test]
    fn gpt4_with_sop_beats_gpt4_without() {
        let tasks = all_tasks();
        let mut with = 0usize;
        let mut without = 0usize;
        for rep in 0..2u64 {
            for (i, t) in tasks.iter().enumerate() {
                let cfg_with =
                    ExecConfig::with_sop(t.gold_sop.clone()).budgeted(t.gold_trace.len());
                let mut m1 = FmModel::new(ModelProfile::gpt4v(), 100 + rep * 1000 + i as u64);
                if run_task(&mut m1, t, &cfg_with).success {
                    with += 1;
                }
                let cfg_without = ExecConfig::without_sop().budgeted(t.gold_trace.len());
                let mut m2 = FmModel::new(ModelProfile::gpt4v(), 200 + rep * 1000 + i as u64);
                if run_task(&mut m2, t, &cfg_without).success {
                    without += 1;
                }
            }
        }
        assert!(
            with > without,
            "SOP must improve completion: with={with}, without={without} of {}",
            tasks.len() * 2
        );
        assert!(
            with >= 16,
            "with-SOP completion should be well above zero: {with}"
        );
    }

    #[test]
    fn step_budget_caps_runaway_runs() {
        let t = task("gitlab-01");
        let mut model = FmModel::new(ModelProfile::gpt4v(), 5);
        let mut cfg = ExecConfig::without_sop();
        cfg.max_steps = 3;
        let r = run_task(&mut model, &t, &cfg);
        assert!(r.actions_attempted <= 3);
    }

    #[test]
    fn irrelevant_popup_is_escaped_and_run_recovers() {
        use eclair_gui::{GuiApp, Page, PageBuilder, SemanticEvent, Session};

        /// A two-screen app that throws a promo modal the moment the form
        /// opens — the paper's "irrelevant pop-up appears" scenario.
        struct PopupApp {
            on_form: bool,
            promo_open: bool,
            promo_shown: bool,
            saved: Option<String>,
        }
        impl GuiApp for PopupApp {
            fn name(&self) -> &str {
                "popup"
            }
            fn url(&self) -> String {
                if self.saved.is_some() {
                    "/done".into()
                } else if self.on_form {
                    "/form".into()
                } else {
                    "/start".into()
                }
            }
            fn build(&self) -> Page {
                if let Some(v) = &self.saved {
                    let mut b = PageBuilder::new("Done", "/done");
                    b.toast("Saved");
                    b.heading(1, format!("Saved {v}"));
                    b.finish()
                } else if self.on_form {
                    let mut b = PageBuilder::new("Form", "/form");
                    b.heading(1, "Entry form");
                    b.form("f", |b| {
                        b.text_input("amount", "Amount", "0.00");
                        b.button("save", "Save entry");
                    });
                    if self.promo_open {
                        b.modal("promo", |b| {
                            b.text("Subscribe to our newsletter for weekly tips!");
                            b.button("promo-no", "No thanks");
                        });
                    }
                    b.finish()
                } else {
                    let mut b = PageBuilder::new("Start", "/start");
                    b.button("next", "Open entry form");
                    b.finish()
                }
            }
            fn on_event(&mut self, ev: SemanticEvent) -> bool {
                match ev {
                    SemanticEvent::Activated { name, fields, .. } => match name.as_str() {
                        "next" => {
                            self.on_form = true;
                            if !self.promo_shown {
                                self.promo_open = true;
                                self.promo_shown = true;
                            }
                            true
                        }
                        "save" => {
                            self.saved = fields
                                .into_iter()
                                .find(|(n, _)| n == "amount")
                                .map(|(_, v)| v);
                            true
                        }
                        "promo-no" => {
                            self.promo_open = false;
                            true
                        }
                        _ => false,
                    },
                    SemanticEvent::Dismissed { name } if name == "promo" => {
                        self.promo_open = false;
                        true
                    }
                    _ => false,
                }
            }
        }

        let sop = eclair_workflow::Sop::from_texts(
            "Enter the amount",
            &[
                "Click the 'Open entry form' button",
                "Type \"125.00\" into the Amount field",
                "Click the 'Save entry' button",
            ],
        );
        let mut model = FmModel::new(ModelProfile::oracle(), 3);
        let mut session = Session::new(Box::new(PopupApp {
            on_form: false,
            promo_open: false,
            promo_shown: false,
            saved: None,
        }));
        let cfg = ExecConfig {
            sop: Some(sop),
            strategy: GroundingStrategy::SomHtml,
            max_steps: 8,
            use_cache: true,
        };
        let r = run_on_session(&mut model, &mut session, "Enter the amount", &cfg);
        assert!(
            r.log
                .iter()
                .any(|l| l.contains("dismissed unexpected dialog")),
            "the agent must escape the promo: {:#?}",
            r.log
        );
        assert_eq!(session.url(), "/done", "{:#?}", r.log);
    }

    /// A page ~2 viewports tall with one button at the very top — the
    /// grounding-probe regression fixture.
    struct TallApp {
        clicked: bool,
    }
    impl eclair_gui::GuiApp for TallApp {
        fn name(&self) -> &str {
            "tall"
        }
        fn url(&self) -> String {
            "/tall".into()
        }
        fn build(&self) -> eclair_gui::Page {
            use eclair_gui::PageBuilder;
            let mut b = PageBuilder::new("Tall", "/tall");
            b.button("top", "Top action");
            for i in 0..40 {
                b.text(format!("filler line {i}"));
            }
            b.finish()
        }
        fn on_event(&mut self, ev: eclair_gui::SemanticEvent) -> bool {
            if matches!(&ev, eclair_gui::SemanticEvent::Activated { name, .. } if name == "top") {
                self.clicked = true;
            }
            false
        }
        fn probe(&self, key: &str) -> Option<String> {
            (key == "clicked").then(|| self.clicked.to_string())
        }
    }

    #[test]
    fn grounding_probes_upward_for_targets_above_the_viewport() {
        use eclair_gui::{Session, UserEvent};

        let mut session = Session::new(Box::new(TallApp { clicked: false }));
        // The agent scrolled past the target on an earlier step.
        session.dispatch(UserEvent::Scroll(400));
        assert_eq!(session.scroll_y(), 400, "fixture must start scrolled");
        let mut model = FmModel::new(ModelProfile::oracle(), 7);
        let cfg = ExecConfig::without_sop();
        let pt = locate(&mut model, &mut session, &cfg, "Top action")
            .expect("a target one page above the viewport must be groundable");
        let d = session.dispatch(UserEvent::Click(pt));
        assert_eq!(d.effect, eclair_gui::event::EffectKind::Activated, "{d:?}");
        assert_eq!(session.app().probe("clicked").as_deref(), Some("true"));
    }

    #[test]
    fn failed_grounding_restores_the_scroll_position() {
        use eclair_gui::{Session, UserEvent};

        /// A long read-only page: no interactive widgets anywhere, so
        /// grounding has no candidates and must fail at every probe.
        struct ProseApp;
        impl eclair_gui::GuiApp for ProseApp {
            fn name(&self) -> &str {
                "prose"
            }
            fn url(&self) -> String {
                "/prose".into()
            }
            fn build(&self) -> eclair_gui::Page {
                let mut b = eclair_gui::PageBuilder::new("Prose", "/prose");
                b.heading(1, "Release notes");
                for i in 0..40 {
                    b.text(format!("paragraph {i}"));
                }
                b.finish()
            }
            fn on_event(&mut self, _: eclair_gui::SemanticEvent) -> bool {
                false
            }
        }

        let mut session = Session::new(Box::new(ProseApp));
        session.dispatch(UserEvent::Scroll(400));
        let before = session.scroll_y();
        let mut model = FmModel::new(ModelProfile::oracle(), 7);
        let cfg = ExecConfig::without_sop();
        let err = locate(&mut model, &mut session, &cfg, "the Publish button");
        assert!(err.is_err(), "{err:?}");
        assert_eq!(
            session.scroll_y(),
            before,
            "a failed probe must not leave the session scrolled somewhere random"
        );
    }

    /// An app whose form opens under a *short* modal (a bar with a single
    /// button, well under the old 100 px panel floor). `save_enabled`
    /// controls whether the underlying action can succeed at all.
    struct ShortModalApp {
        notice_open: bool,
        saved: bool,
        save_enabled: bool,
    }
    impl eclair_gui::GuiApp for ShortModalApp {
        fn name(&self) -> &str {
            "short-modal"
        }
        fn url(&self) -> String {
            if self.saved {
                "/done".into()
            } else {
                "/form".into()
            }
        }
        fn build(&self) -> eclair_gui::Page {
            use eclair_gui::PageBuilder;
            if self.saved {
                let mut b = PageBuilder::new("Done", "/done");
                b.heading(1, "Saved");
                return b.finish();
            }
            let mut b = PageBuilder::new("Form", "/form");
            b.heading(1, "Entry form");
            let save = b.button("save", "Save entry");
            if self.notice_open {
                // A one-button cookie bar: height ≈ padding + button only.
                b.modal("cookie-bar", |b| {
                    b.button("cookie-ok", "OK");
                });
            }
            let mut page = b.finish();
            page.get_mut(save).enabled = self.save_enabled;
            page
        }
        fn on_event(&mut self, ev: eclair_gui::SemanticEvent) -> bool {
            match ev {
                eclair_gui::SemanticEvent::Activated { name, .. } => match name.as_str() {
                    "save" => {
                        self.saved = true;
                        true
                    }
                    "cookie-ok" => {
                        self.notice_open = false;
                        true
                    }
                    _ => false,
                },
                eclair_gui::SemanticEvent::Dismissed { name } if name == "cookie-bar" => {
                    self.notice_open = false;
                    true
                }
                _ => false,
            }
        }
    }

    #[test]
    fn short_modal_is_detected_and_escaped() {
        use eclair_gui::Session;

        // Pre-fix, the 100 px height floor (in both perception and the
        // escape panel lookup) made this dialog invisible to recovery.
        let modal_h = {
            use eclair_gui::GuiApp;
            let app = ShortModalApp {
                notice_open: true,
                saved: false,
                save_enabled: true,
            };
            let page = app.build();
            let id = page.find_by_name("cookie-bar").unwrap();
            page.get(id).bounds.h
        };
        assert!(
            modal_h < 100,
            "fixture must stay under the old floor (got {modal_h})"
        );
        let sop =
            eclair_workflow::Sop::from_texts("Save the entry", &["Click the 'Save entry' button"]);
        let mut model = FmModel::new(ModelProfile::oracle(), 4);
        let mut session = Session::new(Box::new(ShortModalApp {
            notice_open: true,
            saved: false,
            save_enabled: true,
        }));
        let cfg = ExecConfig::with_sop(sop);
        let r = run_on_session(&mut model, &mut session, "Save the entry", &cfg);
        assert!(
            r.log
                .iter()
                .any(|l| l.contains("dismissed unexpected dialog")),
            "the short dialog must be escaped: {:#?}",
            r.log
        );
        assert_eq!(session.url(), "/done", "{:#?}", r.log);
        assert!(r.recoveries <= r.failures);
    }

    #[test]
    fn escape_without_successful_retry_is_not_a_recovery() {
        use eclair_gui::Session;

        // The dialog blocks a step whose target is permanently disabled:
        // escaping clears the obstacle, but the retry still cannot land,
        // so nothing recovered.
        let sop =
            eclair_workflow::Sop::from_texts("Save the entry", &["Click the 'Save entry' button"]);
        let mut model = FmModel::new(ModelProfile::oracle(), 5);
        let mut session = Session::new(Box::new(ShortModalApp {
            notice_open: true,
            saved: false,
            save_enabled: false,
        }));
        let mut cfg = ExecConfig::with_sop(sop);
        cfg.max_steps = 2;
        let r = run_on_session(&mut model, &mut session, "Save the entry", &cfg);
        assert!(
            r.log
                .iter()
                .any(|l| l.contains("dismissed unexpected dialog")),
            "{:#?}",
            r.log
        );
        assert!(r.failures >= 1, "{:#?}", r.log);
        assert_eq!(
            r.recoveries, 0,
            "an escape whose retry fails must not count as recovered: {:#?}",
            r.log
        );
        assert!(r.recoveries <= r.failures);
    }

    #[test]
    fn executor_relogins_after_chaos_session_expiry() {
        use eclair_chaos::{ChaosProfile, ChaosSchedule, ChaosSession, FaultKind};

        let t = task("gitlab-03");
        // Expire the session at *every* step: each action first fails on
        // the login interstitial, re-authenticates, then retries.
        let schedule = ChaosSchedule::new(ChaosProfile::only(13, 1.0, FaultKind::SessionExpiry), 0);
        let mut surface = ChaosSession::new(t.site.app(), schedule);
        let mut model = FmModel::new(ModelProfile::oracle(), 1);
        let cfg = ExecConfig::with_sop(t.gold_sop.clone()).budgeted(t.gold_trace.len());
        let r = run_on_session(&mut model, &mut surface, &t.intent, &cfg);
        assert!(
            r.log.iter().any(|l| l.contains("re-authenticated")),
            "{:#?}",
            r.log
        );
        assert!(
            t.success.evaluate(surface.inner()),
            "the oracle must complete through constant expiry: {:#?}",
            r.log
        );
        assert!(surface.faults_injected() > 0);
        assert!(r.recoveries <= r.failures);
    }

    /// Archive button with a decoy button right under it, tall enough to
    /// catch any chaos layout-shift displacement. Pre-fix, a shifted click
    /// activated the decoy and the step reported "ok"; the run ended with
    /// the wrong action taken and no failure on record.
    struct DecoyApp {
        archived: bool,
        decoy_hits: u32,
    }
    impl eclair_gui::GuiApp for DecoyApp {
        fn name(&self) -> &str {
            "decoy"
        }
        fn url(&self) -> String {
            "/ledger".into()
        }
        fn build(&self) -> eclair_gui::Page {
            use eclair_gui::PageBuilder;
            let mut b = PageBuilder::new("Ledger", "/ledger");
            b.heading(1, "Ledger");
            b.button("archive", "Archive now");
            let decoy = b.button("decoy", "Discard ledger");
            let mut page = b.finish();
            page.get_mut(decoy).fixed_h = Some(160);
            page.relayout();
            page
        }
        fn on_event(&mut self, ev: eclair_gui::SemanticEvent) -> bool {
            if let eclair_gui::SemanticEvent::Activated { name, .. } = &ev {
                match name.as_str() {
                    "archive" => self.archived = true,
                    "decoy" => self.decoy_hits += 1,
                    _ => {}
                }
            }
            false
        }
        fn probe(&self, key: &str) -> Option<String> {
            match key {
                "archived" => Some(self.archived.to_string()),
                "decoy_hits" => Some(self.decoy_hits.to_string()),
                _ => None,
            }
        }
    }

    #[test]
    fn displaced_click_is_a_failure_to_retry_not_a_silent_success() {
        use eclair_chaos::{ChaosProfile, ChaosSchedule, ChaosSession, FaultKind};
        use eclair_gui::GuiApp;

        let schedule = ChaosSchedule::new(ChaosProfile::only(29, 1.0, FaultKind::LayoutShift), 0);
        // Fixture self-check: the step-1 shift must carry the click from
        // the archive button's center into the decoy, so the displaced
        // click *activates* something (the silent-wrong-click case, not
        // the easier click-hit-nothing one).
        let shift = schedule.fault_at(1).expect("rate 1.0 fires").shift_px;
        let page = DecoyApp {
            archived: false,
            decoy_hits: 0,
        }
        .build();
        let target = page.get(page.find_by_name("archive").unwrap()).bounds;
        let decoy = page.get(page.find_by_name("decoy").unwrap()).bounds;
        assert!(
            decoy.contains(target.center().offset(0, shift)),
            "seed 29's step-1 shift ({shift}px) must land in the decoy"
        );

        let mut surface = ChaosSession::new(
            Box::new(DecoyApp {
                archived: false,
                decoy_hits: 0,
            }),
            schedule,
        );
        let sop = eclair_workflow::Sop::from_texts(
            "Archive the ledger",
            &["Click the 'Archive now' button"],
        );
        let mut model = FmModel::new(ModelProfile::oracle(), 1);
        let cfg = ExecConfig::with_sop(sop);
        let r = run_on_session(&mut model, &mut surface, "Archive the ledger", &cfg);
        assert!(
            r.log.iter().any(|l| l.contains("landed at")),
            "a displaced click must surface as a failure, not a silent success: {:#?}",
            r.log
        );
        let app = surface.inner().app();
        assert_eq!(
            app.probe("decoy_hits").as_deref(),
            Some("1"),
            "the displaced click really did land on the decoy: {:#?}",
            r.log
        );
        assert_eq!(
            app.probe("archived").as_deref(),
            Some("true"),
            "the in-step retry must re-ground and land the intended click: {:#?}",
            r.log
        );
        assert!(r.failures >= 1 && r.recoveries >= 1, "{:#?}", r.log);
        assert!(surface.faults_injected() > 0);
        assert!(r.recoveries <= r.failures);
    }

    /// A long page whose single action button sits at the bottom — when a
    /// chaos modal (anchored near the top of the page) appears, the agent
    /// has scrolled past it, so the dialog blocks input from *above* the
    /// viewport.
    struct BottomApp {
        done: bool,
    }
    impl eclair_gui::GuiApp for BottomApp {
        fn name(&self) -> &str {
            "bottom"
        }
        fn url(&self) -> String {
            "/bottom".into()
        }
        fn build(&self) -> eclair_gui::Page {
            use eclair_gui::PageBuilder;
            let mut b = PageBuilder::new("Bottom", "/bottom");
            b.heading(1, "Archive report");
            for i in 0..40 {
                b.text(format!("ledger row {i}"));
            }
            b.button("finish", "Archive now");
            b.finish()
        }
        fn on_event(&mut self, ev: eclair_gui::SemanticEvent) -> bool {
            if matches!(&ev, eclair_gui::SemanticEvent::Activated { name, .. } if name == "finish")
            {
                self.done = true;
                return true;
            }
            false
        }
        fn probe(&self, key: &str) -> Option<String> {
            (key == "done").then(|| self.done.to_string())
        }
    }

    #[test]
    fn modal_above_the_viewport_is_found_by_the_scroll_probe() {
        use eclair_chaos::{ChaosProfile, ChaosSchedule, ChaosSession, FaultKind};

        let schedule = ChaosSchedule::new(ChaosProfile::only(7, 1.0, FaultKind::PromoModal), 0);
        let mut surface = ChaosSession::new(Box::new(BottomApp { done: false }), schedule);
        // The agent is already deep in the page when the dialog appears:
        // its target is in view, the dialog (page y = 140) is not.
        surface.dispatch(UserEvent::Scroll(10_000));
        assert!(surface.scroll_y() > 400, "fixture must start scrolled");
        let sop = eclair_workflow::Sop::from_texts(
            "Archive the report",
            &["Click the 'Archive now' button"],
        );
        let mut model = FmModel::new(ModelProfile::oracle(), 11);
        let cfg = ExecConfig::with_sop(sop);
        let r = run_on_session(&mut model, &mut surface, "Archive the report", &cfg);
        // Pre-fix, the escape check only perceived the current (scrolled)
        // viewport, never saw the dialog, and the run burned its budget
        // clicking into a glass wall.
        assert!(
            r.log
                .iter()
                .any(|l| l.contains("dismissed unexpected dialog")),
            "the out-of-view dialog must be found and escaped: {:#?}",
            r.log
        );
        assert_eq!(
            surface.inner().app().probe("done").as_deref(),
            Some("true"),
            "the blocked action must land after the escape: {:#?}",
            r.log
        );
        assert!(surface.faults_injected() > 0);
        assert!(r.recoveries <= r.failures);
    }

    #[test]
    fn unknown_steps_fail_gracefully() {
        let t = task("gitlab-03");
        let mut sop = t.gold_sop.clone();
        sop.push("Perform the quarterly reconciliation ritual");
        let mut model = FmModel::new(ModelProfile::oracle(), 2);
        let cfg = ExecConfig::with_sop(sop).budgeted(t.gold_trace.len() + 2);
        let r = run_task(&mut model, &t, &cfg);
        // The core steps still succeed; the nonsense step is skipped by the
        // follower (Unknown → skip), so the task completes.
        assert!(r.success, "{:#?}", r.log);
    }
}
