//! Next-action suggestion (Table 2).
//!
//! At each step the model is given the workflow description, the action
//! history, the current screen, and — in the ablated condition — the SOP.
//! With an SOP it *follows* (parse the current step, keep its place, skip
//! non-actionable chatter); without one it *plans* from its procedure prior
//! and improvises, which is where accuracy is lost.

use eclair_fm::FmModel;
use eclair_gui::Screenshot;
use eclair_workflow::matcher::with_steps;
use eclair_workflow::Sop;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::calibration;
use crate::demonstrate::prior;
use crate::execute::parse::{parse_step, StepIntent};

/// The model's next-step decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Suggestion {
    /// Perform this intent. The `String` carries the step text the model
    /// believes it is executing (for logs and equivalence scoring).
    Act(StepIntent, String),
    /// The workflow is complete (or nothing remains to do).
    Done,
}

/// Mutable suggestion state carried across a run: the plan (for the no-SOP
/// condition) and the follower position.
#[derive(Debug, Clone)]
pub struct SuggestState {
    /// Current position in the SOP / plan.
    pub pos: usize,
    /// The improvised plan (no-SOP condition), lazily built.
    plan: Option<Vec<String>>,
}

impl SuggestState {
    /// Fresh state at the beginning of a run.
    pub fn new() -> Self {
        Self { pos: 0, plan: None }
    }

    /// Start from a known position (teacher-forced evaluation).
    pub fn at(pos: usize) -> Self {
        Self { pos, plan: None }
    }
}

impl Default for SuggestState {
    fn default() -> Self {
        Self::new()
    }
}

/// Suggest the next action.
///
/// * `sop` — present in the with-SOP condition.
/// * `state` — the follower/planner position (advanced on return).
/// * `history` — texts of the steps already executed (the paper's "ground
///   truth history of actions" in the teacher-forced evaluation; the
///   agent's own log when autonomous).
/// * `shot` — the current screen (used to judge completion and to improvise
///   in the no-SOP condition).
pub fn suggest_next(
    model: &mut FmModel,
    workflow_description: &str,
    sop: Option<&Sop>,
    state: &mut SuggestState,
    history: &[String],
    shot: &Screenshot,
) -> Suggestion {
    match sop {
        Some(sop) => follow_sop(model, sop, state),
        None => improvise(model, workflow_description, state, history, shot),
    }
}

fn follow_sop(model: &mut FmModel, sop: &Sop, state: &mut SuggestState) -> Suggestion {
    loop {
        if state.pos >= sop.len() {
            return Suggestion::Done;
        }
        let step = &sop.steps[state.pos];
        // Place-keeping slips: the model loses its position and skips a
        // step — more readily when neighbouring steps look alike.
        let mut slip_p = model.profile().tracking_noise;
        if state.pos + 1 < sop.len() {
            let next = &sop.steps[state.pos + 1];
            // Step `i` takes slot `i % 2`, so moving on to the next step
            // finds it already prepared: each step is prepared once.
            let k = state.pos % 2;
            let texts = [&step.text, &next.text];
            let similar = with_steps([texts[k].as_str(), texts[1 - k].as_str()], |s| {
                s[k].similarity(&s[1 - k]) > 0.4
            });
            if similar {
                slip_p *= 2.0;
            }
        }
        if state.pos + 1 < sop.len() && model.rng().gen_bool(slip_p.min(0.5)) {
            state.pos += 1; // skipped a step silently
            continue;
        }
        state.pos += 1;
        let intent = parse_step(&step.text);
        if matches!(intent, StepIntent::Unknown(_)) {
            // Non-actionable chatter ("Wait for the page to load"): the
            // model correctly skips it.
            continue;
        }
        return Suggestion::Act(intent, step.text.clone());
    }
}

fn improvise(
    model: &mut FmModel,
    wd: &str,
    state: &mut SuggestState,
    history: &[String],
    shot: &Screenshot,
) -> Suggestion {
    if state.plan.is_none() {
        // Without an SOP the model plans from its WD prior — the same
        // (flawed) procedure knowledge that writes the Table 1 WD row,
        // boilerplate hallucinations included.
        let rate = model.profile().hallucination_rate;
        let plan = prior::padded_steps(wd, rate, model.rng());
        state.plan = Some(plan);
    }
    let plan = state.plan.as_ref().expect("plan just initialized").clone();
    // Re-localize against what has already happened: advance a pointer
    // through the plan past steps the history covers (the model reasons
    // "we already did X and Y, so next is Z").
    let mut ptr = 0usize;
    for done in history {
        let mut j = ptr;
        while j < plan.len() {
            if eclair_workflow::matcher::steps_match(done, &plan[j]) {
                ptr = j + 1;
                break;
            }
            j += 1;
        }
    }
    state.pos = state.pos.max(ptr);
    if state.pos >= plan.len() {
        return Suggestion::Done;
    }
    // Spurious exploration: without written guidance the model sometimes
    // chases something salient on screen instead of the plan.
    if model.rng().gen_bool(calibration::NOSOP_SPURIOUS_STEP_P) {
        let percept = model.perceive(shot);
        let clickables: Vec<String> = percept
            .interactive()
            .filter(|e| !e.text.is_empty())
            .map(|e| e.text.clone())
            .collect();
        if !clickables.is_empty() {
            let i = model.rng().gen_range(0..clickables.len());
            let text = format!("Click the '{}'", clickables[i]);
            // Note: the plan position does NOT advance — the model wanders.
            return Suggestion::Act(parse_step(&text), text);
        }
    }
    let step = plan[state.pos].clone();
    state.pos += 1;
    let intent = parse_step(&step);
    if matches!(intent, StepIntent::Unknown(_)) {
        return improvise(model, wd, state, history, shot);
    }
    Suggestion::Act(intent, step)
}

/// Canonical text for an intent (used when scoring suggestion equivalence
/// against the gold step).
pub fn intent_text(intent: &StepIntent) -> String {
    match intent {
        StepIntent::Click { target } => format!("Click the '{target}'"),
        StepIntent::Type {
            value,
            field: Some(f),
        } => format!("Type \"{value}\" into the {f} field"),
        StepIntent::Type { value, field: None } => format!("Type \"{value}\""),
        StepIntent::Set { field, value } => format!("Set the {field} field to \"{value}\""),
        StepIntent::Select { option, field } => {
            format!("Select '{option}' from the {field} dropdown")
        }
        StepIntent::Check { target } => format!("Check the '{target}' checkbox"),
        StepIntent::Press(k) => format!("Press {}", k.name()),
        StepIntent::Scroll { down: true } => "Scroll down".into(),
        StepIntent::Scroll { down: false } => "Scroll up".into(),
        StepIntent::ClickPoint(p) => format!("Click at ({}, {})", p.x, p.y),
        StepIntent::TypeAt { point, value } => {
            format!(
                "Type \"{value}\" into the field at ({}, {})",
                point.x, point.y
            )
        }
        StepIntent::Unknown(t) => t.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_fm::ModelProfile;
    use eclair_sites::all_tasks;
    use eclair_workflow::matcher::steps_match;

    fn blank_shot() -> Screenshot {
        let mut b = eclair_gui::PageBuilder::new("t", "/t");
        b.heading(1, "Anything");
        b.button("x", "Go");
        b.finish().screenshot_at(0)
    }

    #[test]
    fn sop_follower_walks_the_steps_in_order_with_oracle() {
        let task = &all_tasks()[0];
        let mut model = FmModel::new(ModelProfile::oracle(), 1);
        let mut state = SuggestState::new();
        let shot = blank_shot();
        let mut seen = Vec::new();
        while let Suggestion::Act(_, text) = suggest_next(
            &mut model,
            &task.intent,
            Some(&task.gold_sop),
            &mut state,
            &[],
            &shot,
        ) {
            seen.push(text);
        }
        assert_eq!(seen.len(), task.gold_sop.len(), "oracle follows every step");
        for (got, want) in seen.iter().zip(&task.gold_sop.steps) {
            assert_eq!(got, &want.text);
        }
    }

    #[test]
    fn teacher_forced_suggestions_mostly_match_gold() {
        // The Table 2 measurement shape: with the SOP, per-step suggestion
        // accuracy is high but not perfect.
        let tasks = all_tasks();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (ti, task) in tasks.iter().enumerate() {
            let mut model = FmModel::new(ModelProfile::gpt4v(), ti as u64);
            let shot = blank_shot();
            for k in 0..task.gold_sop.len() {
                let mut state = SuggestState::at(k);
                let history: Vec<String> = task.gold_sop.steps[..k]
                    .iter()
                    .map(|s| s.text.clone())
                    .collect();
                if let Suggestion::Act(_, text) = suggest_next(
                    &mut model,
                    &task.intent,
                    Some(&task.gold_sop),
                    &mut state,
                    &history,
                    &shot,
                ) {
                    total += 1;
                    if steps_match(&text, &task.gold_sop.steps[k].text) {
                        correct += 1;
                    }
                } else {
                    total += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(
            (0.82..=1.0).contains(&acc),
            "with-SOP suggestion accuracy near paper's 0.92: {acc:.2}"
        );
    }

    #[test]
    fn no_sop_planner_is_worse_but_not_useless() {
        let tasks = all_tasks();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (ti, task) in tasks.iter().enumerate() {
            let mut model = FmModel::new(ModelProfile::gpt4v(), 1000 + ti as u64);
            let shot = blank_shot();
            for k in 0..task.gold_sop.len() {
                let mut state = SuggestState::at(k);
                total += 1;
                let history: Vec<String> = task.gold_sop.steps[..k]
                    .iter()
                    .map(|s| s.text.clone())
                    .collect();
                if let Suggestion::Act(_, text) =
                    suggest_next(&mut model, &task.intent, None, &mut state, &history, &shot)
                {
                    if steps_match(&text, &task.gold_sop.steps[k].text) {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(
            (0.55..=0.95).contains(&acc),
            "no-SOP accuracy should be clearly lower (paper: 0.83): {acc:.2}"
        );
    }

    #[test]
    fn done_when_sop_exhausted() {
        let task = &all_tasks()[2];
        let mut model = FmModel::new(ModelProfile::oracle(), 2);
        let mut state = SuggestState::at(task.gold_sop.len());
        let s = suggest_next(
            &mut model,
            &task.intent,
            Some(&task.gold_sop),
            &mut state,
            &[],
            &blank_shot(),
        );
        assert_eq!(s, Suggestion::Done);
    }

    #[test]
    fn intent_text_round_trips_through_parser() {
        for text in [
            "Click the 'New issue'",
            "Type \"hello\" into the Title field",
            "Select 'bug' from the Label dropdown",
            "Set the Price field to \"17.25\"",
            "Check the 'Confidential' checkbox",
            "Press Enter",
        ] {
            let intent = parse_step(text);
            let rendered = intent_text(&intent);
            let reparsed = parse_step(&rendered);
            assert_eq!(intent, reparsed, "{text}");
        }
    }
}
