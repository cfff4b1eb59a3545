//! Step-scoped FM fallback: repair exactly one broken bot step.
//!
//! The hybrid executor (`eclair-hybrid`) replays a compiled script at
//! zero token cost until a step drifts — the selector misses, the click
//! lands displaced, the effect bounces. This module is the surgical
//! entry point it falls back to: ground the step's recorded query with
//! the FM (paying tokens for *this step only*), dispatch the step's
//! operation with the executor's chaos-hardened verification
//! (landing-point check, irrelevant-modal escape, login-interstitial
//! recovery), and report the anchor the repair actually landed on so the
//! recompiler can splice a drift-resistant selector back into the
//! script.

use eclair_fm::FmModel;
use eclair_gui::event::EffectKind;
use eclair_gui::{GuiSurface, Key, Point, UserEvent};
use eclair_rpa::RpaOp;

use crate::execute::executor::{
    click_at, escape_if_irrelevant_modal, locate, relogin_if_expired, ExecConfig,
};
use crate::execute::parse::StepIntent;

/// Where an FM repair landed: the programmatic name and visible label of
/// the widget the repaired operation resolved to, plus the click point
/// (viewport space at repair time). The recompiler turns this into the
/// most drift-resistant selector available (name > label > point).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedAnchor {
    /// Programmatic name of the widget hit ("" when unnamed).
    pub name: String,
    /// Visible label of the widget hit ("" when unlabeled).
    pub label: String,
    /// The verified click point, viewport space.
    pub point: Point,
}

/// Repair one bot step: FM-ground `query` on the live surface and
/// dispatch `op` against the grounded point, verifying the effect the
/// way the full executor would. On failure, runs the recovery ladder
/// (escape an irrelevant modal, re-login after a session-expiry
/// redirect) and retries once. Tokens are spent only on the grounding
/// and perception calls this one step needs.
pub fn repair_step<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    cfg: &ExecConfig,
    query: &str,
    op: &RpaOp,
) -> Result<RepairedAnchor, String> {
    // A redirect may already have landed us on the login interstitial;
    // recover before burning grounding tokens on the wrong page.
    relogin_if_expired(session);
    match ground_and_dispatch(model, session, cfg, query, op) {
        Ok(anchor) => Ok(anchor),
        Err(first) => {
            let intent = StepIntent::Click {
                target: query.to_string(),
            };
            escape_if_irrelevant_modal(model, session, &intent);
            relogin_if_expired(session);
            ground_and_dispatch(model, session, cfg, query, op)
                .map_err(|second| format!("{first}; after recovery: {second}"))
        }
    }
}

/// One grounding + dispatch pass with the executor's effect checks.
fn ground_and_dispatch<S: GuiSurface>(
    model: &mut FmModel,
    session: &mut S,
    cfg: &ExecConfig,
    query: &str,
    op: &RpaOp,
) -> Result<RepairedAnchor, String> {
    let pt = locate(model, session, cfg, query)?;
    let d = click_at(session, pt)?;
    let anchor = RepairedAnchor {
        name: d.hit.map(|(n, _)| n.to_string()).unwrap_or_default(),
        label: d.hit.map(|(_, l)| l.to_string()).unwrap_or_default(),
        point: pt,
    };
    match op {
        RpaOp::Click => {
            if d.effect == EffectKind::NoOp {
                return Err(format!("click on '{query}' hit nothing"));
            }
        }
        RpaOp::Type(text) => {
            if d.effect != EffectKind::Focused {
                return Err(format!("'{query}' is not an editable field"));
            }
            if session.dispatch(UserEvent::Type(text.clone())).effect != EffectKind::Typed {
                return Err("typing had no effect (no field focused)".into());
            }
        }
        RpaOp::Replace(text) => {
            if d.effect != EffectKind::Focused {
                return Err(format!("'{query}' is not an editable field"));
            }
            for _ in 0..60 {
                session.dispatch(UserEvent::Press(Key::Backspace));
            }
            if session.dispatch(UserEvent::Type(text.clone())).effect != EffectKind::Typed {
                return Err("replacement typing had no effect".into());
            }
        }
    }
    Ok(anchor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_fm::FmProfile;
    use eclair_sites::tasks::all_tasks;

    fn oracle() -> FmModel {
        FmProfile::Oracle.instantiate(7)
    }

    #[test]
    fn repairs_a_click_step_and_reports_the_anchor() {
        let task = all_tasks()
            .into_iter()
            .find(|t| t.id == "gitlab-01")
            .unwrap();
        let mut session = task.launch();
        let mut model = oracle();
        let cfg = ExecConfig::with_sop(task.gold_sop.clone());
        let anchor = repair_step(
            &mut model,
            &mut session,
            &cfg,
            "the New issue button",
            &RpaOp::Click,
        )
        .expect("oracle grounding repairs the step");
        assert!(
            !anchor.name.is_empty() || !anchor.label.is_empty(),
            "repair must report where it landed: {anchor:?}"
        );
        assert!(
            model.meter().total_tokens() > 0,
            "a repair pays grounding tokens"
        );
    }

    #[test]
    fn effect_mismatch_errors_without_panicking() {
        // Typing into a button: the grounded click activates instead of
        // focusing, so the repair must fail loudly — not claim success.
        let task = all_tasks()
            .into_iter()
            .find(|t| t.id == "gitlab-01")
            .unwrap();
        let mut session = task.launch();
        let mut model = oracle();
        let cfg = ExecConfig::with_sop(task.gold_sop.clone());
        let err = repair_step(
            &mut model,
            &mut session,
            &cfg,
            "the New issue button",
            &RpaOp::Type("oops".into()),
        )
        .unwrap_err();
        assert!(err.contains("not an editable field"), "{err}");
    }
}
