//! Trajectory checking (paper §4.3.2): "it is not sufficient to merely
//! complete the workflow — the steps taken to complete it must align with
//! its SOP."
//!
//! Mechanism: transcribe the recorded action log into step texts (the same
//! transcription the ACT SOP generator uses), then compute an *in-order*
//! alignment against the SOP with the semantic step matcher. Shuffled
//! traces break the ordering; deleted frames leave SOP steps uncovered.

use std::cell::RefCell;

use eclair_fm::sampling::Judgment;
use eclair_fm::FmModel;
use eclair_vision::frame::Recording;
use eclair_workflow::matcher::{with_steps, PreparedStep, VerbClass};
use eclair_workflow::Sop;

use crate::calibration;
use crate::demonstrate::sop_gen::steps_from_action_log;

thread_local! {
    /// The alignment's DP row, reused from call to call.
    static ROW: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Longest in-order alignment between observed steps and SOP steps, as a
/// fraction of the longer sequence (1.0 = perfect correspondence). Each
/// step is prepared once, and a warm call allocates nothing.
pub fn alignment_score(observed: &[String], sop: &Sop) -> f64 {
    if observed.is_empty() || sop.is_empty() {
        return 0.0;
    }
    // LCS over a semantic-match relation, one DP row at a time.
    let n = observed.len();
    let m = sop.len();
    let sop_texts = sop.steps.iter().map(|s| s.text.as_str());
    let texts = observed.iter().map(String::as_str).chain(sop_texts);
    let lcs = with_steps(texts, |steps| {
        let (obs, refs) = steps.split_at(n);
        ROW.with(|row| {
            let row = &mut *row.borrow_mut();
            row.clear();
            row.resize(m + 1, 0);
            for (i, a) in obs.iter().enumerate() {
                // `diag` is the previous row's entry left of `row[j + 1]`.
                let mut diag = 0;
                for (j, b) in refs.iter().enumerate() {
                    let above = row[j + 1];
                    row[j + 1] = if steps_compatible(&observed[i], a, &sop.steps[j].text, b) {
                        diag + 1
                    } else {
                        above.max(row[j])
                    };
                    diag = above;
                }
            }
            row[m]
        })
    });
    lcs as f64 / n.max(m) as f64
}

/// Semantic step match of `a` and `b`, prepared as `pa` and `pb`, relaxed
/// for coordinate-only steps: an SOP step like "Click at (40, 173)"
/// carries no verifiable target, so any observed click of the same kind is
/// compatible with it (and vice versa).
fn steps_compatible(a: &str, pa: &PreparedStep, b: &str, pb: &PreparedStep) -> bool {
    // Trajectory auditing is lenient about phrasing (a transcribed step
    // drops the annotator's qualifiers) and strict about order/coverage,
    // so the per-pair threshold sits below the SOP-scoring one.
    if pa.similarity(pb) >= 0.6 {
        return true;
    }
    let coordish = |s: &str| s.contains(" at (") || s.contains("@ (");
    if coordish(a) || coordish(b) {
        let (va, vb) = (pa.verb(), pb.verb());
        // Type-ish classes interchange when coordinates hide the target.
        let typeish = |v: VerbClass| matches!(v, VerbClass::Type | VerbClass::Select);
        return va == vb || (typeish(va) && typeish(vb));
    }
    false
}

/// Judge whether the recording's actions followed the SOP.
pub fn check_trajectory(model: &mut FmModel, rec: &Recording, sop: &Sop) -> Judgment {
    let span = model
        .trace_mut()
        .open(eclair_trace::SpanKind::Validate, "trajectory");
    let observed = steps_from_action_log(rec);
    let score = alignment_score(&observed, sop);
    // Map alignment around the faithfulness threshold into evidence.
    let evidence = ((score - calibration::TRAJECTORY_ALIGN_THRESHOLD) * 5.0).clamp(-1.0, 1.0);
    let j = model.judge(evidence);
    model
        .trace_mut()
        .event(eclair_trace::EventKind::ValidatorVerdict {
            validator: "trajectory".into(),
            passed: j.verdict,
        });
    model.trace_mut().close(span);
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demonstrate::evidence::record_gold_demo;
    use eclair_fm::ModelProfile;
    use eclair_sites::all_tasks;

    #[test]
    fn faithful_traces_align_with_their_sop() {
        let tasks: Vec<_> = all_tasks().into_iter().take(8).collect();
        let mut model = FmModel::new(ModelProfile::gpt4v(), 1);
        let mut yes = 0;
        for t in &tasks {
            let rec = record_gold_demo(t);
            if check_trajectory(&mut model, &rec, &t.gold_sop).verdict {
                yes += 1;
            }
        }
        assert!(yes >= 6, "faithful traces accepted: {yes}/8");
    }

    #[test]
    fn shuffled_traces_are_rejected() {
        let tasks: Vec<_> = all_tasks().into_iter().take(8).collect();
        let mut model = FmModel::new(ModelProfile::gpt4v(), 2);
        let mut accepted = 0;
        for t in &tasks {
            let rec = record_gold_demo(t);
            let n = rec.num_actions();
            // Swap a far-apart pair to clearly violate order.
            let shuffled = rec.with_swapped(0, n - 1);
            if check_trajectory(&mut model, &shuffled, &t.gold_sop).verdict {
                accepted += 1;
            }
        }
        assert!(accepted <= 3, "shuffles mostly rejected: {accepted}/8");
    }

    #[test]
    fn deleted_steps_are_rejected() {
        let tasks: Vec<_> = all_tasks().into_iter().take(8).collect();
        let mut model = FmModel::new(ModelProfile::gpt4v(), 3);
        let mut accepted = 0;
        for t in &tasks {
            let rec = record_gold_demo(t);
            let mut cut = rec.with_deleted(0);
            if cut.num_actions() > 2 {
                cut = cut.with_deleted(cut.num_actions() / 2);
            }
            if check_trajectory(&mut model, &cut, &t.gold_sop).verdict {
                accepted += 1;
            }
        }
        assert!(accepted <= 3, "deletions mostly rejected: {accepted}/8");
    }

    #[test]
    fn alignment_score_properties() {
        let sop = Sop::from_texts(
            "t",
            &[
                "Click the 'A' button",
                "Type \"x\" into the B field",
                "Click the 'C' button",
            ],
        );
        let perfect: Vec<String> = sop.steps.iter().map(|s| s.text.clone()).collect();
        assert!((alignment_score(&perfect, &sop) - 1.0).abs() < 1e-9);
        let reversed: Vec<String> = perfect.iter().rev().cloned().collect();
        assert!(alignment_score(&reversed, &sop) < 0.5);
        assert_eq!(alignment_score(&[], &sop), 0.0);
    }

    #[test]
    fn alignment_score_single_step_and_empty_sop_edges() {
        let one = Sop::from_texts("t", &["Click the 'Save' button"]);
        // One observed step matching a one-step SOP: perfect alignment.
        let obs = vec!["Click the 'Save' button".to_string()];
        assert!((alignment_score(&obs, &one) - 1.0).abs() < 1e-9);
        // The same single step against a longer SOP covers 1 of 3.
        let three = Sop::from_texts(
            "t",
            &[
                "Click the 'Save' button",
                "Type \"x\" into the B field",
                "Click the 'C' button",
            ],
        );
        assert!((alignment_score(&obs, &three) - 1.0 / 3.0).abs() < 1e-9);
        // An empty SOP can never be aligned with, even by empty input.
        let empty = Sop::from_texts("t", &[]);
        assert_eq!(alignment_score(&obs, &empty), 0.0);
        assert_eq!(alignment_score(&[], &empty), 0.0);
    }

    #[test]
    fn empty_recording_fails_trajectory_check() {
        // Degenerate trajectory: no frames, no actions — nothing aligns,
        // so the verdict should be a near-certain rejection.
        let rec = Recording {
            workflow_description: "x".into(),
            frames: vec![],
            log: vec![],
        };
        let sop = Sop::from_texts("t", &["Click the 'Save' button"]);
        let mut model = FmModel::new(ModelProfile::gpt4v(), 4);
        let mut accepted = 0;
        for _ in 0..100 {
            if check_trajectory(&mut model, &rec, &sop).verdict {
                accepted += 1;
            }
        }
        assert!(accepted < 10, "empty recording rejected: {accepted}/100");
    }
}
