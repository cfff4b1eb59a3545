//! Grounding: mapping a natural-language element description to pixels.
//!
//! Table 3 evaluates exactly two regimes:
//!
//! * **native** ([`native_ground`]) — the model emits a bounding box
//!   directly from its internal percept. Generalist models (GPT-4) carry
//!   large positional uncertainty; GUI-tuned models (CogAgent) are tight.
//! * **set-of-marks** ([`select_mark`]) — candidate boxes are drawn on the
//!   image with numeric labels and the model only has to *choose a number*.
//!   Errors shift from localization to selection: missing candidates
//!   (detector misses), duplicate labels, tag/role mismatches ("the profile
//!   *button*" rendering as `<svg>`).

use std::borrow::Cow;

use rand::Rng;
use serde::{Deserialize, Serialize};

use eclair_gui::{Point, Rect};
use eclair_vision::marks::Mark;

use crate::percept::ScenePercept;
use crate::profile::ModelProfile;

/// The result of a grounding call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroundingOutcome {
    /// A predicted bounding box (native regime).
    Box(Rect),
    /// A selected mark label (set-of-marks regime).
    Mark(u32),
    /// The model declined (nothing plausible on screen).
    Abstain,
}

impl GroundingOutcome {
    /// The click point this outcome implies, resolving marks through the
    /// provided mark list.
    pub fn click_point(&self, marks: &[Mark]) -> Option<Point> {
        match self {
            GroundingOutcome::Box(r) => Some(r.center()),
            GroundingOutcome::Mark(l) => marks
                .iter()
                .find(|m| m.label == *l)
                .map(|m| m.rect.center()),
            GroundingOutcome::Abstain => None,
        }
    }
}

/// Box-Muller standard normal (rand 0.8 has no normal distribution without
/// `rand_distr`, which is outside the sanctioned dependency set).
fn normal<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 0.0;
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn visual_hint(v: eclair_gui::VisualClass) -> &'static str {
    use eclair_gui::VisualClass as V;
    match v {
        V::BoxButton => "button",
        V::TextLink => "a",
        V::InputBox => "input",
        V::CheckGlyph | V::RadioGlyph => "input",
        V::IconGlyph => "svg",
        _ => "p",
    }
}

/// Native grounding: emit a bounding box for `description` given the
/// model's percept of the screen. Internally the model performs the same
/// description-to-element matching it would over visible marks — the
/// candidates are its *own* (lossy) percept — and then serializes the
/// answer into coordinates, which adds the positional noise that separates
/// GPT-4 from CogAgent.
pub fn native_ground<R: Rng>(
    profile: &ModelProfile,
    percept: &ScenePercept,
    description: &str,
    rng: &mut R,
) -> GroundingOutcome {
    if percept.elements.is_empty() {
        return GroundingOutcome::Abstain;
    }
    // Candidates: perceived interactive elements, as internal pseudo-marks.
    let marks: Vec<Mark> = percept
        .elements
        .iter()
        .enumerate()
        .filter(|(_, e)| e.looks_interactive())
        .map(|(i, e)| Mark {
            label: i as u32,
            rect: e.rect,
            text: e.text.clone().into(),
            hint: visual_hint(e.visual).into(),
        })
        .collect();
    if marks.is_empty() {
        return GroundingOutcome::Abstain;
    }
    let mut idx = match select_mark(profile, &marks, description, rng) {
        GroundingOutcome::Mark(l) => l as usize,
        _ => return GroundingOutcome::Abstain,
    };
    // Gross grounding error: attention lands on a different element while
    // the answer is serialized.
    if rng.gen_bool(profile.native_gross_error) && percept.elements.len() > 1 {
        let mut other = rng.gen_range(0..percept.elements.len());
        if other == idx {
            other = (other + 1) % percept.elements.len();
        }
        idx = other;
    }
    let base = percept.elements[idx].rect;
    // Positional uncertainty when serializing the location into
    // coordinates: the defining weakness of generalist models.
    let dx = normal(rng, profile.native_sigma_x);
    let dy = normal(rng, profile.native_sigma_y);
    let scale = rng.gen_range(0.8..1.3);
    let w = ((base.w as f64) * scale).max(6.0) as u32;
    let h = ((base.h as f64) * scale).max(6.0) as u32;
    let cx = base.center().x as f64 + dx;
    let cy = base.center().y as f64 + dy;
    GroundingOutcome::Box(Rect::new(
        (cx - w as f64 / 2.0).round() as i32,
        (cy - h as f64 / 2.0).round() as i32,
        w,
        h,
    ))
}

/// Role words a description may carry; they describe the widget's kind,
/// not its text.
pub(crate) const ROLE_WORDS: &[&str] = &[
    "the", "a", "an", "field", "fields", "dropdown", "button", "link", "tab", "checkbox", "icon",
    "box", "input", "area",
];

/// `s` ready for [`has`]: ASCII text as is, anything else lowercased (the
/// Kelvin sign `K` is not ASCII but lowercases to `k`).
fn foldable(s: &str) -> Cow<'_, str> {
    if s.is_ascii() {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(s.to_lowercase())
    }
}

/// Whether `s` contains the lowercase ASCII `word`, ignoring ASCII case:
/// `s.to_lowercase().contains(word)` for an ASCII or lowercased `s`.
fn has(s: &str, word: &str) -> bool {
    s.as_bytes()
        .windows(word.len())
        .any(|w| w.eq_ignore_ascii_case(word.as_bytes()))
}

/// The roles a description asks for, given [`foldable`] or lowercased:
/// `(button-like, field)`.
fn wanted_roles(d: &str) -> (bool, bool) {
    let wants_button = has(d, "button") || has(d, "link") || has(d, "tab");
    let wants_field = has(d, "field") || has(d, "dropdown") || has(d, "box") || has(d, "area");
    (wants_button, wants_field)
}

/// The roles a mark's tag/class hint ("button", "a", or a detector class
/// such as "BoxButton") says it has: `(button-like, field)`.
fn hint_roles(hint: &str) -> (bool, bool) {
    let h = &*foldable(hint);
    let buttonish = has(h, "button") || h.eq_ignore_ascii_case("a") || has(h, "link");
    let fieldish = has(h, "input") || has(h, "textarea") || has(h, "select");
    (buttonish, fieldish)
}

/// Score every mark against a description. Public so experiments can
/// inspect the ranking the model saw.
///
/// The description is lowercased, tokenized and stemmed once per call;
/// each mark's text once per mark (see [`crate::text`]).
pub fn score_marks(description: &str, marks: &[Mark]) -> Vec<(u32, f64)> {
    crate::text::with_scratch(|s| {
        s.b.load(description);
        let (wants_button, wants_field) = wanted_roles(s.b.text());
        let mut core_joined = String::with_capacity(s.b.text().len());
        for t in s.b.tokens().filter(|t| !ROLE_WORDS.contains(t)) {
            if !core_joined.is_empty() {
                core_joined.push(' ');
            }
            core_joined.push_str(t);
        }
        // Its tokens are the core terms themselves: tokens are lowercase
        // alphanumeric runs, and lowercasing is idempotent.
        s.b.load(&core_joined);
        let has_core = !core_joined.is_empty();
        marks
            .iter()
            .map(|m| {
                let mut score = if m.text.is_empty() {
                    // Unlabeled candidate (icon): only positional/role priors
                    // remain — worth very little.
                    0.05
                } else {
                    s.a.load(&m.text);
                    let all_present =
                        has_core && s.b.tokens().all(|q| s.a.tokens().any(|t| t == q));
                    // Subword agreement ("Ship" ↔ "Create shipment") keeps a
                    // relabeled control findable — the semantic robustness that
                    // separates FM grounding from string-matching selectors.
                    let subword =
                        s.b.tokens()
                            .any(|q| q.len() >= 4 && s.a.tokens().any(|t| t.contains(q)));
                    let base = s.a.fuzzy(&s.b).max(s.a.stem_overlap(&s.b) * 0.9);
                    if all_present {
                        base.max(0.75)
                    } else if subword {
                        base.max(0.45)
                    } else {
                        base
                    }
                };
                // Role mismatch: asked for a "button" but the candidate's
                // tag/class hint says otherwise (the `<svg>` failure of §4.2.1)
                // — and vice versa for fields.
                let (buttonish, fieldish) = hint_roles(&m.hint);
                if wants_button && !buttonish {
                    score *= 0.55;
                }
                if wants_field && !fieldish {
                    score *= 0.5;
                }
                (m.label, score)
            })
            .collect()
    })
}

/// Set-of-marks grounding: choose a mark label for `description`.
pub fn select_mark<R: Rng>(
    profile: &ModelProfile,
    marks: &[Mark],
    description: &str,
    rng: &mut R,
) -> GroundingOutcome {
    if marks.is_empty() {
        return GroundingOutcome::Abstain;
    }
    let mut scored = score_marks(description, marks);
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then(a.0.cmp(&b.0))
    });
    let (best_label, best_score) = scored[0];
    // Nothing plausibly matches: the target is probably not among the
    // candidates (detector miss / unlabeled icon). The model still has to
    // answer — it guesses among the top-scoring junk.
    if best_score < 0.25 {
        // The target may have been relabeled, missed by the detector, or be
        // an unlabeled icon. Fall back to a role prior — asked to act on a
        // field, pick among the inputs; otherwise among the clickables
        // ("when unsure, the submit button is the button"). This is what
        // lets an FM agent survive UI relabeling that breaks rule-based
        // selectors.
        let (_, wants_field) = wanted_roles(&foldable(description));
        let roleish: Vec<u32> = marks
            .iter()
            .filter(|m| {
                let (buttonish, fieldish) = hint_roles(&m.hint);
                if wants_field {
                    fieldish
                } else {
                    buttonish
                }
            })
            .map(|m| m.label)
            .collect();
        if !roleish.is_empty() {
            let label = roleish[rng.gen_range(0..roleish.len())];
            return GroundingOutcome::Mark(label);
        }
        let k = scored.len().min(5);
        let (label, _) = scored[rng.gen_range(0..k)];
        return GroundingOutcome::Mark(label);
    }
    // Near-tie between the top two (duplicate labels): a coin flip.
    if scored.len() > 1 && (best_score - scored[1].1) < 0.05 && rng.gen_bool(0.5) {
        return GroundingOutcome::Mark(scored[1].0);
    }
    // Residual selection noise, scaled by how close the runner-up is —
    // attention slips happen among lookalikes, not against a clear winner.
    if scored.len() > 1 {
        let gap = (best_score - scored[1].1).clamp(0.0, 1.0);
        // A floor keeps some residual error even against clear winners —
        // large models do occasionally emit the wrong label outright.
        let slip_p = profile.mark_selection_noise * (1.0 - gap * 2.0).clamp(0.35, 1.0);
        if slip_p > 0.0 && rng.gen_bool(slip_p) {
            return GroundingOutcome::Mark(scored[1].0);
        }
    }
    GroundingOutcome::Mark(best_label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percept::perceive;
    use eclair_gui::PageBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn page() -> eclair_gui::Page {
        let mut b = PageBuilder::new("g", "/g");
        b.heading(1, "Project members");
        b.row(|b| {
            b.button("invite", "Invite member");
            b.button("remove", "Remove member");
        });
        b.icon_button("gear", "Project settings");
        b.text_input("filter", "Filter", "search");
        b.finish()
    }

    fn marks() -> Vec<Mark> {
        let p = page();
        eclair_vision::marks::marks_from_html(&p, 0).marks
    }

    #[test]
    fn oracle_native_grounding_hits_target() {
        let p = page();
        let shot = p.screenshot_at(0);
        let mut rng = StdRng::seed_from_u64(1);
        let percept = perceive(&shot, &ModelProfile::oracle(), &mut rng);
        let out = native_ground(&ModelProfile::oracle(), &percept, "Invite member", &mut rng);
        let GroundingOutcome::Box(r) = out else {
            panic!("expected a box")
        };
        let target = p.get(p.find_by_name("invite").unwrap()).bounds;
        assert!(target.contains(r.center()), "{r:?} vs {target:?}");
    }

    #[test]
    fn gpt4_native_grounding_mostly_misses() {
        let p = page();
        let shot = p.screenshot_at(0);
        let target = p.get(p.find_by_name("invite").unwrap()).bounds;
        let profile = ModelProfile::gpt4v();
        let mut hits = 0;
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let percept = perceive(&shot, &profile, &mut rng);
            if let GroundingOutcome::Box(r) =
                native_ground(&profile, &percept, "Invite member", &mut rng)
            {
                if target.contains(r.center()) {
                    hits += 1;
                }
            }
        }
        assert!(
            hits < 30,
            "GPT-4 raw grounding should mostly miss: {hits}/100"
        );
    }

    #[test]
    fn cogagent_native_beats_gpt4() {
        let p = page();
        let shot = p.screenshot_at(0);
        let target = p.get(p.find_by_name("invite").unwrap()).bounds;
        let hits = |profile: &ModelProfile| {
            let mut h = 0;
            for seed in 0..100 {
                let mut rng = StdRng::seed_from_u64(seed);
                let percept = perceive(&shot, profile, &mut rng);
                if let GroundingOutcome::Box(r) =
                    native_ground(profile, &percept, "Invite member", &mut rng)
                {
                    if target.contains(r.center()) {
                        h += 1;
                    }
                }
            }
            h
        };
        let cog = hits(&ModelProfile::cogagent_18b());
        let gpt = hits(&ModelProfile::gpt4v());
        assert!(cog > gpt + 20, "CogAgent {cog} vs GPT-4 {gpt}");
    }

    #[test]
    fn mark_selection_picks_labeled_target() {
        let ms = marks();
        let mut rng = StdRng::seed_from_u64(2);
        let out = select_mark(
            &ModelProfile::oracle(),
            &ms,
            "the 'Invite member' button",
            &mut rng,
        );
        let GroundingOutcome::Mark(l) = out else {
            panic!("expected a mark")
        };
        let chosen = ms.iter().find(|m| m.label == l).unwrap();
        assert_eq!(chosen.text, "Invite member");
    }

    #[test]
    fn unlabeled_icon_forces_guess() {
        let ms = marks();
        // The gear icon has no visible text; HTML marks do carry aria text
        // for it, so build detector-style marks with empty icon text.
        let mut ms2 = ms.clone();
        for m in &mut ms2 {
            if m.hint == "svg" {
                m.text = "".into();
            }
        }
        let profile = ModelProfile::gpt4v();
        let mut correct = 0;
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            if let GroundingOutcome::Mark(l) =
                select_mark(&profile, &ms2, "the settings gear icon", &mut rng)
            {
                if ms2.iter().find(|m| m.label == l).map(|m| &*m.hint) == Some("svg") {
                    correct += 1;
                }
            }
        }
        assert!(
            correct < 40,
            "textless icons should often be mis-selected: {correct}/60"
        );
    }

    #[test]
    fn role_mismatch_penalty_applies() {
        let ms = vec![
            Mark {
                label: 1,
                rect: Rect::new(0, 0, 30, 30),
                text: "Profile".into(),
                hint: "svg".into(),
            },
            Mark {
                label: 2,
                rect: Rect::new(100, 0, 80, 30),
                text: "Profile page".into(),
                hint: "button".into(),
            },
        ];
        let scored = score_marks("the Profile button", &ms);
        let s_svg = scored.iter().find(|(l, _)| *l == 1).unwrap().1;
        let s_btn = scored.iter().find(|(l, _)| *l == 2).unwrap().1;
        assert!(
            s_btn > s_svg,
            "tag mismatch must penalize: {s_svg} vs {s_btn}"
        );
    }

    #[test]
    fn empty_marks_abstain() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            select_mark(&ModelProfile::gpt4v(), &[], "anything", &mut rng),
            GroundingOutcome::Abstain
        );
    }

    #[test]
    fn click_point_resolution() {
        let ms = marks();
        let out = GroundingOutcome::Mark(ms[0].label);
        assert_eq!(out.click_point(&ms), Some(ms[0].rect.center()));
        assert_eq!(GroundingOutcome::Abstain.click_point(&ms), None);
        let b = GroundingOutcome::Box(Rect::new(10, 10, 20, 20));
        assert_eq!(b.click_point(&[]), Some(Point::new(20, 20)));
    }
}
