//! SOP generation from demonstration evidence (the Table 1 pipelines).
//!
//! All three pipelines share one output format (combined-granularity steps:
//! `Click the '…'`, `Type "…" into the … field`, `Select '…' from the …
//! dropdown`, `Set the … field to "…"`), which is also the format the gold
//! SOPs use, so Table 1's precision/recall scoring compares like with like.
//!
//! * **WD** — recite the procedure prior ([`super::prior`]), padded with
//!   boilerplate: high-level right, detail-level wrong (hallucinated steps,
//!   unknown field values);
//! * **WD+KF** — infer one step per key-frame transition from what visibly
//!   changed: URL changes → link clicks, input deltas → typing, glyph
//!   flips → checkbox toggles, everything read through the model's noisy
//!   percepts (misses and misattributions included);
//! * **WD+KF+ACT** — transcribe the action log (clicks + keystroke bursts),
//!   merging focus-click/typing pairs; residual errors come from log
//!   dropout and ambiguous coordinate-only entries.

use eclair_fm::percept::{PerceivedElement, ScenePercept};
use eclair_fm::text::{with_prepared, Lowered};
use eclair_fm::FmModel;
use eclair_gui::{Key, Rect, UserEvent, VisualClass};
use eclair_vision::diff::diff_grids;
use eclair_vision::frame::Recording;
use eclair_vision::keyframes::{extract_key_frames, KeyFrameConfig};
use eclair_workflow::Sop;
use rand::Rng;

use crate::calibration;
use crate::demonstrate::evidence::{degrade_log, EvidenceLevel};
use crate::demonstrate::prior;

/// Generate an SOP for a workflow under an evidence level. `recording` is
/// required for the KF/ACT levels.
pub fn generate_sop(
    model: &mut FmModel,
    wd: &str,
    recording: Option<&Recording>,
    level: EvidenceLevel,
) -> Sop {
    let span = model
        .trace_mut()
        .open(eclair_trace::SpanKind::Demonstrate, wd.to_owned());
    let steps = match level {
        EvidenceLevel::Wd => {
            let rate = model.profile().hallucination_rate;
            prior::padded_steps(wd, rate, model.rng())
        }
        EvidenceLevel::WdKf => {
            let rec = recording.expect("WD+KF requires a recording");
            steps_from_key_frames(model, rec)
        }
        EvidenceLevel::WdKfAct => {
            let rec = recording.expect("WD+KF+ACT requires a recording");
            let degraded = degrade_log(rec, model.rng());
            steps_from_action_log(&degraded)
        }
    };
    // The SOP-writing call itself: the recording's frames and the WD go
    // into the context window, the steps come out of it.
    let prompt_tokens =
        200 + (wd.len() as u64).div_ceil(4) + recording.map_or(0, |r| 90 * r.frames.len() as u64);
    let completion_tokens = steps
        .iter()
        .map(|s| 2 + (s.len() as u64).div_ceil(4))
        .sum::<u64>();
    model.account("write_sop", prompt_tokens, completion_tokens);
    model.trace_mut().close(span);
    let mut sop = Sop::new(wd);
    for s in steps {
        sop.push(s);
    }
    sop
}

// ------------------------------------------------------------------ WD+KF

fn steps_from_key_frames(model: &mut FmModel, rec: &Recording) -> Vec<String> {
    let kf_cfg = KeyFrameConfig { min_diff: 0.002 };
    let kfs = extract_key_frames(rec, kf_cfg);
    let mut steps = Vec::new();
    // First-seen text per input-box location. A field that later shows its
    // first-seen text again has *reverted* (the form reset when a submit
    // landed), not been set. Cleared on navigation: a new page, new form.
    let mut pristine: Vec<(Rect, String)> = Vec::new();
    // The grid signature of the last key frame diffed, by frame index: the
    // next transition starts from that frame.
    let mut last_grid: Option<(usize, Vec<u64>)> = None;
    for pair in kfs.windows(2) {
        let a = &rec.frames[pair[0].frame_index].shot;
        let b = &rec.frames[pair[1].frame_index].shot;
        let pa = model.perceive(a);
        let pb = model.perceive(b);
        if b.url != a.url {
            pristine.clear();
            steps.push(infer_navigation(model, &pa, &pb, &b.url));
            continue;
        }
        for el in pa.elements.iter().chain(pb.elements.iter()) {
            if el.visual == VisualClass::InputBox
                && !pristine.iter().any(|(r, _)| same_spot(r, &el.rect))
            {
                pristine.push((el.rect, el.text.clone()));
            }
        }
        let ga = match last_grid.take() {
            Some((i, g)) if i == pair[0].frame_index => g,
            _ => a.grid_signature(),
        };
        let gb = b.grid_signature();
        let d = diff_grids(a, &ga, b, &gb);
        last_grid = Some((pair[1].frame_index, gb));
        if d.is_identical() {
            continue;
        }
        let mut emitted = false;
        // 1. Input boxes whose displayed text changed: typing.
        for (step, _) in changed_inputs(&pa, &pb, &pristine) {
            steps.push(step);
            emitted = true;
        }
        // 2. Check/radio glyphs that flipped (checked state renders as the
        //    glyph's emphasized look, which perception preserves).
        for el_b in &pb.elements {
            if !matches!(
                el_b.visual,
                VisualClass::CheckGlyph | VisualClass::RadioGlyph
            ) {
                continue;
            }
            if let Some(el_a) = find_by_location(&pa, el_b) {
                if !el_a.emphasis && el_b.emphasis {
                    steps.push(format!("Check the '{}' checkbox", el_b.text));
                    emitted = true;
                }
            }
        }
        if emitted {
            continue;
        }
        // A click that merely focuses a field draws a highlight around the
        // input box and changes nothing else; the typing step that follows
        // subsumes it. Without this guard, the click inference below would
        // attribute the highlight to whichever button the workflow
        // description happens to name — usually the final submit.
        let focus_only = d.regions.iter().all(|reg| {
            pa.elements
                .iter()
                .chain(pb.elements.iter())
                .any(|e| e.visual == VisualClass::InputBox && covers(&e.rect.inflate(12), reg))
        });
        if focus_only {
            continue;
        }
        // 3. Same-page click: something changed but no field/toggle did.
        //    Attribute the click to an interactive element near the change.
        if let Some(step) =
            infer_same_page_click(model, &rec.workflow_description, &pa, &pb, &d.regions)
        {
            steps.push(step);
        }
        // else: the transition leaves no readable trace — a missing step.
    }
    steps
}

fn infer_navigation(
    model: &mut FmModel,
    pa: &ScenePercept,
    pb: &ScenePercept,
    new_url: &str,
) -> String {
    // The new page's heading (first emphasized text) usually names what was
    // clicked ("Issues", the project name, the issue title...).
    let heading = pb
        .elements
        .iter()
        .find(|e| e.visual == VisualClass::Text && e.emphasis && !e.text.is_empty())
        .map(|e| e.text.clone())
        .unwrap_or_default();
    let url_tail = new_url
        .rsplit('/')
        .next()
        .unwrap_or("")
        .replace(['-', '_'], " ");
    let candidates: Vec<&PerceivedElement> = pa
        .elements
        .iter()
        .filter(|e| {
            e.looks_interactive() && e.visual != VisualClass::InputBox && !e.text.is_empty()
        })
        .collect();
    // Texts that are NEW on the landing page (a confirmation toast names
    // the button that triggered the navigation: "Issue created" ← "Create
    // issue"). Persisting chrome (nav links) must not count.
    let new_texts: Vec<&str> = pb
        .elements
        .iter()
        .filter(|e| !e.text.is_empty())
        .filter(|e| !pa.elements.iter().any(|o| o.text == e.text))
        .map(|e| e.text.as_str())
        .collect();
    // Every text is prepared once, not once per candidate.
    let texts = [heading.as_str(), url_tail.as_str()]
        .into_iter()
        .chain(new_texts.iter().copied())
        .chain(candidates.iter().map(|c| c.text.as_str()));
    let best = with_prepared(texts, |p| {
        let [h, u, rest @ ..] = p else {
            unreachable!("the heading and the URL tail are prepared first")
        };
        let (news, cands) = rest.split_at(new_texts.len());
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in cands.iter().enumerate() {
            let s = c
                .fuzzy(h)
                .max(c.fuzzy(u))
                .max(
                    news.iter()
                        // Stemmed overlap lets a past-tense confirmation
                        // name its trigger ("Issue created" ← "Create
                        // issue") despite the inflection.
                        .map(|t| c.fuzzy(t).max(c.stem_overlap(t)))
                        .fold(0.0f64, f64::max)
                        * 0.9,
                )
                .max(if nav_semantically_related(c, h) {
                    0.5
                } else {
                    0.0
                });
            if best.map(|(_, bs)| s > bs).unwrap_or(true) {
                best = Some((i, s));
            }
        }
        best
    });
    match best {
        Some((i, score)) if score >= 0.45 => format!("Click the '{}' link", candidates[i].text),
        _ => {
            // Ambiguous: sometimes the model guesses an element (and is
            // usually wrong), sometimes it writes a navigation step that
            // happens to parse/match well when the heading names the page.
            if !candidates.is_empty() && model.rng().gen_bool(calibration::KF_MISATTRIBUTION_P) {
                let i = model.rng().gen_range(0..candidates.len());
                format!("Click the '{}' link", candidates[i].text)
            } else if !heading.is_empty() {
                format!("Navigate to the {heading} page")
            } else {
                format!("Navigate to {url_tail}")
            }
        }
    }
}

/// Navigation labels that point at differently-named pages — world
/// knowledge a pretrained model applies ("Catalog" opens the product
/// list).
const NAV_LEXICON: &[(&str, &str)] = &[
    ("catalog", "product"),
    ("catalog", "products"),
    ("orders", "order"),
    ("issues", "issue"),
    ("members", "member"),
    ("customers", "customer"),
    ("settings", "setting"),
    ("profile", "user"),
];

fn nav_semantically_related(label: &Lowered, heading: &Lowered) -> bool {
    let has = |text: &Lowered, word: &str| text.tokens().any(|t| t == word);
    NAV_LEXICON
        .iter()
        .any(|(a, b)| (has(label, a) && has(heading, b)) || (has(label, b) && has(heading, a)))
}

/// Two rects that denote the same widget across frames (location match
/// tolerant of perception jitter).
fn same_spot(a: &Rect, b: &Rect) -> bool {
    a.iou(b) > 0.3 || a.center().distance(b.center()) < 24.0
}

/// Whether `outer` fully covers `inner`.
fn covers(outer: &Rect, inner: &Rect) -> bool {
    inner.x >= outer.x
        && inner.y >= outer.y
        && inner.right() <= outer.right()
        && inner.bottom() <= outer.bottom()
}

/// Typing steps inferred from input boxes whose rendered text changed.
fn changed_inputs(
    pa: &ScenePercept,
    pb: &ScenePercept,
    pristine: &[(Rect, String)],
) -> Vec<(String, Rect)> {
    let mut out = Vec::new();
    for el_b in pb
        .elements
        .iter()
        .filter(|e| e.visual == VisualClass::InputBox)
    {
        let Some(el_a) = find_by_location(pa, el_b) else {
            continue;
        };
        if el_a.text == el_b.text || el_b.text.is_empty() {
            continue;
        }
        // A field showing its first-seen text again has reverted — the form
        // reset when a submit landed in this same transition, so the real
        // step is the click, not a Set.
        if pristine
            .iter()
            .any(|(r, t)| same_spot(r, &el_b.rect) && *t == el_b.text)
        {
            continue;
        }
        // Reading noise is not a change: two OCR passes over the same
        // longer rendered text differ by a character or two. Short strings
        // (numeric quantities!) get no such benefit of the doubt.
        let len_diff = el_a
            .text
            .chars()
            .count()
            .abs_diff(el_b.text.chars().count());
        if el_a.text.chars().count() >= 6
            && len_diff <= 1
            && eclair_fm::text::edit_distance(&el_a.text, &el_b.text) <= 2
        {
            continue;
        }
        // Caption: a label above/left of the box; else the *previous
        // frame's* box text (an empty input displays its placeholder,
        // which names the field); else give up gracefully.
        let caption = caption_for(pb, el_b)
            .or_else(|| {
                let prior = el_a.text.trim();
                (!prior.is_empty()
                    && !el_b.text.starts_with(prior)
                    && prior.len() <= 28
                    && prior.chars().any(|c| c.is_alphabetic()))
                .then(|| prior.to_string())
            })
            .unwrap_or_else(|| "text".into());
        let step = if el_a.text.is_empty() || el_b.text.starts_with(&el_a.text) {
            format!("Type \"{}\" into the {} field", el_b.text, caption)
        } else {
            format!("Set the {} field to \"{}\"", caption, el_b.text)
        };
        out.push((step, el_b.rect));
    }
    out
}

fn infer_same_page_click(
    model: &mut FmModel,
    wd: &str,
    pa: &ScenePercept,
    pb: &ScenePercept,
    regions: &[Rect],
) -> Option<String> {
    let near_change = |r: &Rect| regions.iter().any(|reg| reg.inflate(16).intersects(r));
    // Clicks that change a page come from activatable things — typing
    // surfaces are excluded even if their pixels sit inside a changed
    // region (a filled input did not *cause* the new table row).
    let clickish = |e: &&PerceivedElement| {
        matches!(
            e.visual,
            eclair_gui::VisualClass::BoxButton
                | eclair_gui::VisualClass::TextLink
                | eclair_gui::VisualClass::IconGlyph
                | eclair_gui::VisualClass::CheckGlyph
                | eclair_gui::VisualClass::RadioGlyph
        ) && !e.text.is_empty()
    };
    // All activatables are candidates; proximity to the changed region is
    // a score bonus rather than a hard filter (state changes often surface
    // far from the button that caused them). Exception: when a modal just
    // closed, whatever was clicked was *inside* it.
    let closed_modal_panel = if pa.modal_seen && !pb.modal_seen {
        pa.elements
            .iter()
            .find(|e| {
                e.visual == eclair_gui::VisualClass::PanelEdge && e.rect.w >= 300 && e.rect.h >= 100
            })
            .map(|e| e.rect)
    } else {
        None
    };
    let candidates: Vec<&PerceivedElement> = pa
        .elements
        .iter()
        .filter(clickish)
        .filter(|e| {
            closed_modal_panel
                .map(|panel| panel.intersects(&e.rect))
                .unwrap_or(true)
        })
        .collect();
    if candidates.is_empty() {
        // Change with no readable cause (icon click, modal content): the
        // model either stays silent (missing step) or invents one.
        if pb.modal_seen && model.rng().gen_bool(0.5) {
            return Some("Dismiss the dialog that appeared".into());
        }
        return None;
    }
    // Prefer an element that disappeared (buttons often swap state:
    // "Close issue" → "Reopen issue").
    let is_gone = |c: &PerceivedElement| {
        !pb.elements
            .iter()
            .any(|e| e.visual == c.visual && e.text == c.text)
    };
    let pick_from: Vec<&PerceivedElement> = candidates.clone();
    // Rank by agreement with what newly appeared (a "Merged" badge or a
    // "Merge request merged" toast names the button that was clicked).
    // When a modal just opened, the informative new content is the modal's;
    // incidental churn elsewhere (OCR flicker) must not vote.
    let opened_modal_panel = if pb.modal_seen && !pa.modal_seen {
        pb.elements
            .iter()
            .find(|e| {
                e.visual == eclair_gui::VisualClass::PanelEdge && e.rect.w >= 300 && e.rect.h >= 100
            })
            .map(|e| e.rect)
    } else {
        None
    };
    // Texts that may be new. An exact copy of an old text is not: for a
    // non-empty `x`, `fuzzy_similarity(x, x) = 1.0`, above the 0.85 below.
    let maybe_new: Vec<&str> = pb
        .elements
        .iter()
        .filter(|e| !e.text.is_empty() && e.visual != eclair_gui::VisualClass::IconGlyph)
        .filter(|e| {
            opened_modal_panel
                .map(|panel| panel.inflate(24).intersects(&e.rect))
                .unwrap_or(true)
        })
        .filter(|e| !pa.elements.iter().any(|o| o.text == e.text))
        .map(|e| e.text.as_str())
        .collect();
    // Every text is prepared once, not once per pair.
    let texts = pa
        .elements
        .iter()
        .map(|o| o.text.as_str())
        .chain(maybe_new.iter().copied())
        .chain(pick_from.iter().map(|c| c.text.as_str()))
        .chain([wd]);
    let (best, best_score) = with_prepared(texts, |p| {
        let (olds, rest) = p.split_at(pa.elements.len());
        let (maybe_new, rest) = rest.split_at(maybe_new.len());
        let (cands, wd) = rest.split_at(pick_from.len());
        // "New" means no close match existed before — exact equality
        // would count every OCR re-read as fresh content.
        let new_texts: Vec<&Lowered> = maybe_new
            .iter()
            .filter(|e| !olds.iter().any(|o| o.fuzzy(e) > 0.85))
            .collect();
        let mut best = 0usize;
        let mut best_score = -1.0f64;
        for (i, (cand, c)) in pick_from.iter().zip(cands).enumerate() {
            let from_effects = new_texts
                .iter()
                .map(|t| c.fuzzy(t).max(c.stem_overlap(t)))
                .fold(0.0f64, f64::max);
            // The workflow description also hints at what was clicked
            // ("Invite jill.woo..." names the Invite button).
            let from_wd = 0.8 * c.stem_overlap(&wd[0]);
            let proximity = if near_change(&cand.rect) { 0.15 } else { 0.0 };
            // A button that vanished in the after-frame very likely was the
            // one clicked ("Close issue" → "Reopen issue" swaps).
            let gone_bonus = if is_gone(cand) { 0.3 } else { 0.0 };
            // When a dialog was just dismissed and the workflow advanced,
            // the affirmative button is the overwhelmingly likely click.
            let affirm_bonus = if closed_modal_panel.is_some()
                && [
                    "ok", "yes", "confirm", "continue", "apply", "archive", "save", "submit",
                ]
                .iter()
                .any(|a| c.text().starts_with(a))
            {
                0.25
            } else {
                0.0
            };
            // Same-page changes are caused by activating buttons; bare text
            // links navigate. Damp link candidates so a toast echoing a nav
            // label ("Settings saved") cannot outvote the real submit
            // button.
            let mut text_match = from_effects.max(from_wd);
            if cand.visual == eclair_gui::VisualClass::TextLink {
                text_match *= 0.6;
            }
            let s = text_match + proximity + gone_bonus + affirm_bonus;
            if s > best_score {
                best_score = s;
                best = i;
            }
        }
        (best, best_score)
    });
    let idx = if pick_from.len() > 1
        && best_score < 0.3
        && model.rng().gen_bool(calibration::KF_MISATTRIBUTION_P)
    {
        model.rng().gen_range(0..pick_from.len())
    } else {
        best
    };
    Some(format!("Click the '{}' button", pick_from[idx].text))
}

fn find_by_location<'a>(
    p: &'a ScenePercept,
    el: &PerceivedElement,
) -> Option<&'a PerceivedElement> {
    p.elements
        .iter()
        .filter(|e| e.visual == el.visual)
        .find(|e| e.rect.iou(&el.rect) > 0.3 || e.rect.center().distance(el.rect.center()) < 24.0)
}

/// The caption of an input: the nearest text element above (or left of) it.
fn caption_for(p: &ScenePercept, input: &PerceivedElement) -> Option<String> {
    let mut best: Option<(&PerceivedElement, i32)> = None;
    for e in &p.elements {
        // Field captions are small plain text; emphasized text is a page
        // heading, not a label.
        if e.visual != VisualClass::Text || e.text.is_empty() || e.emphasis {
            continue;
        }
        let above = e.rect.bottom() <= input.rect.y + 4
            && input.rect.y - e.rect.bottom() < 40
            && (e.rect.x - input.rect.x).abs() < 80;
        let left = (e.rect.y - input.rect.y).abs() < 12 && e.rect.right() <= input.rect.x + 4;
        if above || left {
            let dist = (input.rect.y - e.rect.bottom()).abs() + (input.rect.x - e.rect.x).abs();
            if best.map(|(_, d)| dist < d).unwrap_or(true) {
                best = Some((e, dist));
            }
        }
    }
    best.map(|(e, _)| e.text.clone())
}

// ----------------------------------------------------------------- WD+ACT

/// Transcribe an action log into step texts (also used by the trajectory
/// validator to render "what actually happened" in SOP vocabulary).
pub fn steps_from_action_log(rec: &Recording) -> Vec<String> {
    let mut steps = Vec::new();
    let log = &rec.log;
    let mut i = 0usize;
    while i < log.len() {
        let entry = &log[i];
        match &entry.event {
            UserEvent::Click(pt) => {
                // Look ahead: is this click the focus half of a typing step?
                let mut j = i + 1;
                let mut typed = String::new();
                let mut backspaced = false;
                while j < log.len() {
                    match &log[j].event {
                        UserEvent::Type(t) => typed.push_str(t),
                        UserEvent::Press(Key::Backspace) => backspaced = true,
                        _ => break,
                    }
                    j += 1;
                }
                if !typed.is_empty() {
                    match &entry.target_text {
                        Some(t) => {
                            if backspaced {
                                steps.push(format!("Set the {t} field to \"{typed}\""));
                            } else {
                                steps.push(format!("Type \"{typed}\" into the {t} field"));
                            }
                        }
                        None => steps.push(format!(
                            "Type \"{typed}\" into the field at ({}, {})",
                            pt.x, pt.y
                        )),
                    }
                    i = j;
                    continue;
                }
                match &entry.target_text {
                    Some(t) => steps.push(format!("Click the '{t}'")),
                    None => steps.push(format!("Click at ({}, {})", pt.x, pt.y)),
                }
                i += 1;
            }
            UserEvent::Type(t) => {
                // Orphan typing (after Tab focus); merge the burst.
                let mut typed = t.clone();
                let mut j = i + 1;
                while j < log.len() {
                    if let UserEvent::Type(t2) = &log[j].event {
                        typed.push_str(t2);
                        j += 1;
                    } else {
                        break;
                    }
                }
                steps.push(format!("Type \"{typed}\""));
                i = j;
            }
            UserEvent::Press(Key::Enter) => {
                steps.push("Press Enter".into());
                i += 1;
            }
            UserEvent::Press(Key::Escape) => {
                steps.push("Press Escape to dismiss the dialog".into());
                i += 1;
            }
            UserEvent::Press(_) | UserEvent::Scroll(_) => {
                i += 1; // tab/backspace bursts and scrolling are not steps
            }
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demonstrate::evidence::record_gold_demo;
    use eclair_fm::ModelProfile;
    use eclair_sites::all_tasks;
    use eclair_workflow::score::score_sop;

    fn task(id: &str) -> eclair_sites::TaskSpec {
        all_tasks().into_iter().find(|t| t.id == id).unwrap()
    }

    #[test]
    fn act_transcription_is_nearly_perfect_on_clean_logs() {
        let t = task("gitlab-01");
        let rec = record_gold_demo(&t);
        let steps = steps_from_action_log(&rec);
        let mut sop = Sop::new(&t.intent);
        for s in steps {
            sop.push(s);
        }
        let score = score_sop(&sop, &t.gold_sop);
        assert!(
            score.recall >= 0.8,
            "clean log transcription recalls gold steps: {score:?}\n{}",
            sop.format()
        );
        assert!(score.precision >= 0.8, "{score:?}\n{}", sop.format());
    }

    #[test]
    fn act_beats_kf_beats_wd_on_average() {
        let tasks: Vec<_> = all_tasks().into_iter().take(8).collect();
        let mut f1 = [0.0f64; 3];
        for (ti, t) in tasks.iter().enumerate() {
            let rec = record_gold_demo(t);
            for (k, level) in EvidenceLevel::all().into_iter().enumerate() {
                let mut model = FmModel::new(ModelProfile::gpt4v(), 100 + ti as u64);
                let sop = generate_sop(&mut model, &t.intent, Some(&rec), level);
                f1[k] += score_sop(&sop, &t.gold_sop).f1();
            }
        }
        assert!(
            f1[2] >= f1[1] && f1[1] >= f1[0],
            "evidence monotonicity: WD {:.2} <= KF {:.2} <= ACT {:.2}",
            f1[0] / 8.0,
            f1[1] / 8.0,
            f1[2] / 8.0
        );
        assert!(
            f1[0] / 8.0 > 0.35,
            "WD prior is not useless: {}",
            f1[0] / 8.0
        );
    }

    #[test]
    fn kf_generation_recovers_typing_steps() {
        let t = task("magento-01");
        let rec = record_gold_demo(&t);
        let mut model = FmModel::new(ModelProfile::oracle(), 7);
        let sop = generate_sop(&mut model, &t.intent, Some(&rec), EvidenceLevel::WdKf);
        let text = sop.format();
        assert!(
            text.contains("Trail Running Socks"),
            "typed product name recovered from frames:\n{text}"
        );
        assert!(text.contains("24-SO01"), "typed SKU recovered:\n{text}");
    }

    #[test]
    fn wd_generation_needs_no_recording() {
        let t = task("gitlab-03");
        let mut model = FmModel::new(ModelProfile::gpt4v(), 5);
        let sop = generate_sop(&mut model, &t.intent, None, EvidenceLevel::Wd);
        assert!(!sop.is_empty());
        assert!(sop.format().contains("Close issue"));
    }

    #[test]
    fn deterministic_under_model_seed() {
        let t = task("gitlab-02");
        let rec = record_gold_demo(&t);
        let run = || {
            let mut model = FmModel::new(ModelProfile::gpt4v(), 42);
            generate_sop(&mut model, &t.intent, Some(&rec), EvidenceLevel::WdKf).format()
        };
        assert_eq!(run(), run());
    }
}
