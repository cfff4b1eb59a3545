//! SOP scoring: the Table 1 metrics.
//!
//! Given a generated SOP and the human-written reference, compute
//! * **precision** — "what percent of steps in the generated SOP are in the
//!   true SOP?";
//! * **recall** — "what percent of steps in the true SOP are in the
//!   generated SOP?";
//! * **missing** — reference steps with no generated counterpart;
//! * **incorrect** — generated steps with no reference counterpart
//!   (hallucinations);
//! * **total** — generated step count.
//!
//! Matching is a greedy best-first bipartite assignment on
//! [`crate::matcher::step_similarity`], each step usable once — mirroring
//! how an annotator ticks off steps against the reference. Each step is
//! prepared once ([`crate::matcher::with_steps`]), not once per pair.

use serde::{Deserialize, Serialize};

use crate::matcher::{with_steps, MATCH_THRESHOLD};
use crate::sop::Sop;

/// Scoring result for one generated SOP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SopScore {
    /// Reference steps not covered by any generated step.
    pub missing: usize,
    /// Generated steps matching no reference step.
    pub incorrect: usize,
    /// Number of generated steps.
    pub total: usize,
    /// Matched generated steps / total generated steps.
    pub precision: f64,
    /// Matched reference steps / total reference steps.
    pub recall: f64,
}

impl SopScore {
    /// F1 of precision/recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Greedy best-first matching of generated steps to reference steps.
/// Returns `(gen_idx, ref_idx, similarity)` for each match made.
pub fn match_steps(generated: &Sop, reference: &Sop) -> Vec<(usize, usize, f64)> {
    let texts = generated.steps.iter().chain(&reference.steps);
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    with_steps(texts.map(|s| s.text.as_str()), |steps| {
        let (gen, refs) = steps.split_at(generated.len());
        for (gi, g) in gen.iter().enumerate() {
            for (ri, r) in refs.iter().enumerate() {
                let sim = g.similarity(r);
                if sim >= MATCH_THRESHOLD {
                    pairs.push((gi, ri, sim));
                }
            }
        }
    });
    // Highest similarity first; ties broken by position for determinism.
    pairs.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .expect("similarities are finite")
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    let mut gen_used = vec![false; generated.len()];
    let mut ref_used = vec![false; reference.len()];
    let mut matches = Vec::new();
    for (gi, ri, sim) in pairs {
        if !gen_used[gi] && !ref_used[ri] {
            gen_used[gi] = true;
            ref_used[ri] = true;
            matches.push((gi, ri, sim));
        }
    }
    matches
}

/// Score a generated SOP against the reference.
pub fn score_sop(generated: &Sop, reference: &Sop) -> SopScore {
    let matches = match_steps(generated, reference);
    let matched = matches.len();
    let total = generated.len();
    let missing = reference.len() - matched.min(reference.len());
    let incorrect = total - matched.min(total);
    SopScore {
        missing,
        incorrect,
        total,
        precision: if total == 0 {
            0.0
        } else {
            matched as f64 / total as f64
        },
        recall: if reference.is_empty() {
            0.0
        } else {
            matched as f64 / reference.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Sop {
        Sop::from_texts(
            "Create issue",
            &[
                "Click the 'Issues' link in the sidebar",
                "Click the 'New issue' button",
                "Type \"Login broken\" into the Title field",
                "Click the 'Create issue' button",
            ],
        )
    }

    #[test]
    fn identical_sop_scores_perfectly() {
        let r = reference();
        let s = score_sop(&r, &r);
        assert_eq!(s.missing, 0);
        assert_eq!(s.incorrect, 0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1(), 1.0);
    }

    #[test]
    fn paraphrased_sop_still_matches() {
        let gen = Sop::from_texts(
            "Create issue",
            &[
                "Open Issues from the sidebar",
                "Press New issue",
                "Enter Login broken in Title",
                "Press Create issue",
            ],
        );
        let s = score_sop(&gen, &reference());
        assert!(s.recall >= 0.75, "recall {s:?}");
        assert!(s.precision >= 0.75, "precision {s:?}");
    }

    #[test]
    fn hallucinated_steps_count_incorrect() {
        let gen = Sop::from_texts(
            "Create issue",
            &[
                "Click the 'Issues' link in the sidebar",
                "Log in with your credentials",
                "Click the 'New issue' button",
                "Type \"Login broken\" into the Title field",
                "Select the project from the dropdown",
                "Click the 'Create issue' button",
            ],
        );
        let s = score_sop(&gen, &reference());
        assert_eq!(s.incorrect, 2, "{s:?}");
        assert_eq!(s.missing, 0);
        assert!((s.precision - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn dropped_steps_count_missing() {
        let gen = Sop::from_texts(
            "Create issue",
            &[
                "Click the 'New issue' button",
                "Click the 'Create issue' button",
            ],
        );
        let s = score_sop(&gen, &reference());
        assert_eq!(s.missing, 2);
        assert_eq!(s.incorrect, 0);
        assert_eq!(s.recall, 0.5);
        assert_eq!(s.precision, 1.0);
    }

    #[test]
    fn each_reference_step_matched_once() {
        // Two generated copies of the same step cannot both match one
        // reference step.
        let gen = Sop::from_texts(
            "t",
            &[
                "Click the 'New issue' button",
                "Click the 'New issue' button",
            ],
        );
        let s = score_sop(&gen, &reference());
        assert_eq!(s.incorrect, 1, "duplicate counts as hallucination: {s:?}");
    }

    #[test]
    fn empty_generated_sop() {
        let s = score_sop(&Sop::new("x"), &reference());
        assert_eq!(s.total, 0);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.missing, 4);
    }

    #[test]
    fn matching_is_deterministic() {
        let gen = Sop::from_texts("t", &["Press New issue", "Enter Login broken in Title"]);
        let a = match_steps(&gen, &reference());
        let b = match_steps(&gen, &reference());
        assert_eq!(a, b);
    }
}
