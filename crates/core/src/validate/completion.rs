//! Workflow-completion checking (paper §4.3.2): given the trace and the
//! workflow description, decide whether the workflow finished.
//!
//! Mechanism: compare the final frame against the initial one and look for
//! the signals that distinguish a finished workflow — a confirmation
//! message, the requested entity rendered on a result screen, a settled
//! (non-form) URL. Truncated traces stop mid-form or pre-confirmation and
//! lack these.

use eclair_fm::sampling::Judgment;
use eclair_fm::text::{fuzzy_similarity, with_prepared};
use eclair_fm::FmModel;
use eclair_gui::VisualClass;
use eclair_vision::frame::Recording;

/// Judge whether the recorded workflow completed.
pub fn check_completion(model: &mut FmModel, rec: &Recording, wd: &str) -> Judgment {
    let span = model
        .trace_mut()
        .open(eclair_trace::SpanKind::Validate, "completion");
    let j = completion_judgment(model, rec, wd);
    model
        .trace_mut()
        .event(eclair_trace::EventKind::ValidatorVerdict {
            validator: "completion".into(),
            passed: j.verdict,
        });
    model.trace_mut().close(span);
    j
}

fn completion_judgment(model: &mut FmModel, rec: &Recording, wd: &str) -> Judgment {
    let Some(final_shot) = rec.final_frame() else {
        return model.judge(-0.9);
    };
    let first_shot = &rec.frames[0].shot;
    let percept = model.perceive(final_shot);
    let final_text = percept.full_text().to_lowercase();

    // A slight prior toward "not finished": absence of evidence is not
    // evidence of completion.
    let mut evidence: f64 = -0.2;

    // 1. A toast/notification bar on the final screen (toasts render as a
    //    panel with text; state badges in tables do NOT count — that
    //    distinction is what makes this check reliable).
    let toast_present = percept
        .elements
        .iter()
        .any(|e| e.visual == VisualClass::PanelEdge && !e.text.is_empty());
    evidence += if toast_present { 0.6 } else { -0.3 };
    // An entry form still on screen with no confirmation reads mid-flight.
    let open_inputs = percept
        .elements
        .iter()
        .filter(|e| e.visual == VisualClass::InputBox)
        .count();
    if !toast_present && open_inputs >= 2 {
        evidence -= 0.15;
    }

    // 2. The entities the WD names (quoted strings) appear on the final
    //    screen — e.g. the new issue's title on its detail page.
    let quoted = quoted_strings(wd);
    if !quoted.is_empty() {
        let seen = quoted.iter().all(|q| {
            let ql = q.to_lowercase();
            final_text.contains(&ql)
                || percept
                    .elements
                    .iter()
                    .any(|e| fuzzy_similarity(&e.text, q) > 0.8)
        });
        evidence += if seen { 0.25 } else { -0.1 };
    }

    // 3. URL shape: ending on an entry form (or never leaving the start
    //    URL on a multi-step task) reads unfinished.
    let url = &final_shot.url;
    if url.ends_with("/new") || url.contains("/new?") {
        evidence -= 0.5;
    }
    if url.contains("result") {
        evidence += 0.3;
    }
    if rec.num_actions() >= 3 && url == &first_shot.url {
        evidence -= 0.25;
    } else if url != &first_shot.url {
        evidence += 0.2;
    }

    // 4. A modal still open at the end means a step was left hanging.
    if percept.modal_seen {
        evidence -= 0.5;
    }

    // 5. Task keywords echoed on the final screen (weaker signal than
    //    quotes, still useful for tasks with no quoted entity).
    let hits = with_prepared([wd], |p| {
        p[0].tokens()
            .filter(|t| t.len() > 3 && final_text.contains(t))
            .count()
    });
    evidence += 0.15 * (hits.min(3) as f64) / 3.0;

    model.judge(evidence.clamp(-1.0, 1.0))
}

fn quoted_strings(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('\'') {
        let tail = &rest[start + 1..];
        let Some(end) = tail.find('\'') else { break };
        out.push(tail[..end].to_string());
        rest = &tail[end + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demonstrate::evidence::record_gold_demo;
    use eclair_fm::ModelProfile;
    use eclair_sites::all_tasks;

    #[test]
    fn full_traces_read_complete_truncated_do_not() {
        let tasks: Vec<_> = all_tasks().into_iter().take(10).collect();
        let mut model = FmModel::new(ModelProfile::gpt4v(), 1);
        let mut tp = 0;
        let mut fp = 0;
        for t in &tasks {
            let rec = record_gold_demo(t);
            if check_completion(&mut model, &rec, &t.intent).verdict {
                tp += 1;
            }
            let cut = rec.num_actions() / 2 + 1;
            let truncated = rec.truncated(cut);
            if check_completion(&mut model, &truncated, &t.intent).verdict {
                fp += 1;
            }
        }
        assert!(tp >= 7, "most full traces judged complete: {tp}/10");
        assert!(fp <= 3, "most truncated traces judged incomplete: {fp}/10");
    }

    #[test]
    fn empty_recording_is_incomplete() {
        let rec = Recording {
            workflow_description: "x".into(),
            frames: vec![],
            log: vec![],
        };
        let mut model = FmModel::new(ModelProfile::gpt4v(), 2);
        assert!(!check_completion(&mut model, &rec, "do a thing").verdict);
    }

    #[test]
    fn zero_and_single_action_recordings_read_incomplete() {
        // Degenerate trajectories: a recording cut to its opening frame
        // (no actions) and one cut to a single action are both still on
        // the start screen with no confirmation — the checker should
        // call them unfinished for most tasks.
        let tasks: Vec<_> = all_tasks().into_iter().take(8).collect();
        let mut model = FmModel::new(ModelProfile::gpt4v(), 5);
        let mut fp = 0;
        for t in &tasks {
            let rec = record_gold_demo(t);
            let n = rec.num_actions();
            let zero = rec.truncated(n);
            assert_eq!(zero.num_actions(), 0);
            assert_eq!(zero.frames.len(), 1, "opening frame survives the cut");
            if check_completion(&mut model, &zero, &t.intent).verdict {
                fp += 1;
            }
            let single = rec.truncated(n - 1);
            assert_eq!(single.num_actions(), 1);
            if check_completion(&mut model, &single, &t.intent).verdict {
                fp += 1;
            }
        }
        assert!(
            fp <= 4,
            "degenerate traces mostly judged incomplete: {fp}/16"
        );
    }

    #[test]
    fn quoted_extraction() {
        assert_eq!(
            quoted_strings("Create an issue titled 'A b' with label 'c'"),
            vec!["A b".to_string(), "c".into()]
        );
        assert!(quoted_strings("no quotes").is_empty());
    }
}
