//! Action grounding strategies (Table 3).
//!
//! Given a natural-language element query and the current frame, produce a
//! click point. Three pipelines:
//!
//! * [`GroundingStrategy::Native`] — the model emits a bounding box
//!   directly (Table 3's "–" bbox source; GPT-4 is poor at this, CogAgent
//!   good);
//! * [`GroundingStrategy::SomYolo`] — set-of-marks over boxes from the
//!   simulated YOLO-NAS detector;
//! * [`GroundingStrategy::SomHtml`] — set-of-marks over ground-truth HTML
//!   boxes (needs DOM access; unavailable for "native desktop and
//!   virtualized software", which is why the paper cares about the other
//!   two).
//!
//! Field queries ("the Title field") are resolved through **caption
//! association**: input candidates borrow the text of the nearest caption
//! above/left of them, since the box itself shows only a placeholder.

use eclair_fm::FmModel;
use eclair_gui::{Page, Point, Rect, Screenshot, VisualClass};
use eclair_vision::detector::YoloNasSim;
use eclair_vision::marks::{marks_from_html, marks_via_detector, Mark};
use serde::{Deserialize, Serialize};

/// Which grounding pipeline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroundingStrategy {
    /// Model emits a bbox from raw pixels.
    Native,
    /// Set-of-marks over detector boxes.
    SomYolo,
    /// Set-of-marks over ground-truth HTML boxes.
    SomHtml,
}

impl GroundingStrategy {
    /// The variant's name, as `Debug` prints it: what a grounding
    /// attempt's trace event records, borrowed rather than formatted.
    pub fn name(self) -> &'static str {
        match self {
            GroundingStrategy::Native => "Native",
            GroundingStrategy::SomYolo => "SomYolo",
            GroundingStrategy::SomHtml => "SomHtml",
        }
    }

    /// Paper column label.
    pub fn label(&self) -> &'static str {
        match self {
            GroundingStrategy::Native => "-",
            GroundingStrategy::SomYolo => "YOLO",
            GroundingStrategy::SomHtml => "HTML",
        }
    }
}

/// What the grounder may look at: always the frame; the live page only for
/// the HTML strategy (DOM access).
pub struct GroundView<'a> {
    /// The current frame.
    pub shot: &'a Screenshot,
    /// The live page, when the environment exposes a DOM.
    pub page: Option<&'a Page>,
    /// Scroll offset the frame was captured at (HTML boxes need it).
    pub scroll_y: i32,
}

/// Whether a mark's tag/class hint says it is an input box.
fn inputish(mark: &Mark) -> bool {
    mark.hint == "input"
        || mark.hint == "textarea"
        || mark.hint == "select"
        || mark.hint == "InputBox"
}

/// Prepend the nearest caption's text to input-like marks so field queries
/// can match them ("Title" + placeholder "Add a title"). Frames with no
/// input-like mark are left alone without collecting their captions.
pub fn associate_captions(marks: &mut [Mark], shot: &Screenshot) {
    if !marks.iter().any(inputish) {
        return;
    }
    let captions: Vec<(&Rect, &str)> = shot
        .items
        .iter()
        .filter(|i| i.visual == VisualClass::Text && !i.text.is_empty())
        .map(|i| (&i.rect, i.text.as_str()))
        .collect();
    for mark in marks.iter_mut() {
        if !inputish(mark) {
            continue;
        }
        let mut best: Option<(&str, i32)> = None;
        for (rect, text) in &captions {
            let above = rect.bottom() <= mark.rect.y + 6
                && mark.rect.y - rect.bottom() < 40
                && (rect.x - mark.rect.x).abs() < 80;
            let left = (rect.y - mark.rect.y).abs() < 12 && rect.right() <= mark.rect.x + 6;
            if above || left {
                let dist = (mark.rect.y - rect.bottom()).abs() + (mark.rect.x - rect.x).abs();
                if best.map(|(_, d)| dist < d).unwrap_or(true) {
                    best = Some((text, dist));
                }
            }
        }
        if let Some((caption, _)) = best {
            // `concat` allocates once, at the joined length.
            mark.text = [caption, " ", &mark.text].concat().into();
        } else {
            // No label above/left: borrow the nearest control caption to
            // the right in the same row ("the dropdown next to 'Add label'").
            let right = shot
                .items
                .iter()
                .filter(|i| {
                    !i.text.is_empty()
                        && (i.rect.y - mark.rect.y).abs() < 14
                        && i.rect.x >= mark.rect.right() - 6
                        && i.rect.x - mark.rect.right() < 160
                })
                .min_by_key(|i| i.rect.x - mark.rect.right());
            if let Some(r) = right {
                mark.text = [&mark.text, " ", r.text.as_str()].concat().into();
            }
        }
    }
}

/// Ground `query` to a viewport click point under a strategy. Returns the
/// chosen point plus the mark list used (empty for native), so experiments
/// can audit the decision.
pub fn ground_click(
    model: &mut FmModel,
    strategy: GroundingStrategy,
    view: &GroundView<'_>,
    query: &str,
) -> (Option<Point>, Vec<Mark>) {
    let (pt, marks) = ground_click_inner(model, strategy, view, query);
    model
        .trace_mut()
        .event(eclair_trace::EventKind::GroundingAttempt {
            strategy: strategy.name().into(),
            outcome: if pt.is_some() {
                eclair_trace::GroundingOutcome::Resolved
            } else {
                eclair_trace::GroundingOutcome::Unresolved
            },
        });
    (pt, marks)
}

fn ground_click_inner(
    model: &mut FmModel,
    strategy: GroundingStrategy,
    view: &GroundView<'_>,
    query: &str,
) -> (Option<Point>, Vec<Mark>) {
    match strategy {
        GroundingStrategy::Native => {
            // Native field grounding also reasons about captions: augment a
            // copy of the percept so "the Title field" can match the box
            // under the "Title" caption.
            let mut percept = model.perceive(view.shot);
            let captions: Vec<(Rect, String)> = percept
                .elements
                .iter()
                .filter(|e| e.visual == VisualClass::Text && !e.text.is_empty())
                .map(|e| (e.rect, e.text.clone()))
                .collect();
            for el in percept.elements.iter_mut() {
                if el.visual != VisualClass::InputBox {
                    continue;
                }
                if let Some((_, caption)) = captions
                    .iter()
                    .filter(|(r, _)| r.bottom() <= el.rect.y + 6 && el.rect.y - r.bottom() < 40)
                    .min_by_key(|(r, _)| (el.rect.y - r.bottom()).abs() + (el.rect.x - r.x).abs())
                {
                    el.text = format!("{caption} {}", el.text);
                }
            }
            let out = eclair_fm::ground::native_ground(
                &model.profile().clone(),
                &percept,
                query,
                model.rng(),
            );
            model.account(
                "ground_native",
                85 + 4 * view.shot.items.len() as u64 + (query.len() as u64).div_ceil(4),
                12,
            );
            (out.click_point(&[]), Vec::new())
        }
        GroundingStrategy::SomYolo => {
            let detector = YoloNasSim::default();
            let mut marked = marks_via_detector(view.shot, &detector, model.rng());
            associate_captions(&mut marked.marks, view.shot);
            let out = model.ground_marks(&marked, query);
            let pt = out.click_point(&marked.marks);
            (pt, marked.marks)
        }
        GroundingStrategy::SomHtml => {
            let Some(page) = view.page else {
                return (None, Vec::new());
            };
            let mut marked = marks_from_html(page, view.scroll_y);
            associate_captions(&mut marked.marks, view.shot);
            let out = model.ground_marks(&marked, query);
            let pt = out.click_point(&marked.marks);
            (pt, marked.marks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_fm::ModelProfile;
    use eclair_gui::PageBuilder;

    #[test]
    fn strategy_name_is_its_debug_form() {
        for s in [
            GroundingStrategy::Native,
            GroundingStrategy::SomYolo,
            GroundingStrategy::SomHtml,
        ] {
            assert_eq!(s.name(), format!("{s:?}"));
        }
    }

    fn form_page() -> Page {
        let mut b = PageBuilder::new("g", "/g");
        b.heading(1, "New issue");
        b.form("f", |b| {
            b.text_input("title", "Title", "Add a title");
            b.textarea("description", "Description", "Describe it");
            b.button("create", "Create issue");
        });
        b.finish()
    }

    #[test]
    fn caption_association_enables_field_grounding() {
        let page = form_page();
        let shot = page.screenshot_at(0);
        let mut model = FmModel::new(ModelProfile::oracle(), 3);
        let view = GroundView {
            shot: &shot,
            page: Some(&page),
            scroll_y: 0,
        };
        let (pt, _) = ground_click(
            &mut model,
            GroundingStrategy::SomHtml,
            &view,
            "the Title field",
        );
        let pt = pt.expect("grounded");
        let title = page.get(page.find_by_name("title").unwrap()).bounds;
        assert!(title.contains(pt), "{pt:?} not in {title:?}");
    }

    #[test]
    fn button_grounding_works_across_strategies() {
        let page = form_page();
        let shot = page.screenshot_at(0);
        let target = page.get(page.find_by_name("create").unwrap()).bounds;
        for strategy in [
            GroundingStrategy::Native,
            GroundingStrategy::SomYolo,
            GroundingStrategy::SomHtml,
        ] {
            let mut model = FmModel::new(ModelProfile::oracle(), 5);
            let view = GroundView {
                shot: &shot,
                page: Some(&page),
                scroll_y: 0,
            };
            let (pt, _) = ground_click(&mut model, strategy, &view, "the 'Create issue' button");
            let pt = pt.unwrap_or(Point::new(-1, -1));
            assert!(
                target.contains(pt),
                "{strategy:?}: {pt:?} not in {target:?}"
            );
        }
    }

    #[test]
    fn som_html_requires_dom() {
        let page = form_page();
        let shot = page.screenshot_at(0);
        let mut model = FmModel::new(ModelProfile::gpt4v(), 1);
        let view = GroundView {
            shot: &shot,
            page: None,
            scroll_y: 0,
        };
        let (pt, marks) = ground_click(&mut model, GroundingStrategy::SomHtml, &view, "anything");
        assert!(pt.is_none());
        assert!(marks.is_empty());
    }

    #[test]
    fn gpt4_native_misses_more_than_som() {
        let page = form_page();
        let shot = page.screenshot_at(0);
        let target = page.get(page.find_by_name("create").unwrap()).bounds;
        let hits = |strategy: GroundingStrategy| {
            let mut h = 0;
            for seed in 0..60 {
                let mut model = FmModel::new(ModelProfile::gpt4v(), seed);
                let view = GroundView {
                    shot: &shot,
                    page: Some(&page),
                    scroll_y: 0,
                };
                let (pt, _) =
                    ground_click(&mut model, strategy, &view, "the 'Create issue' button");
                if pt.map(|p| target.contains(p)).unwrap_or(false) {
                    h += 1;
                }
            }
            h
        };
        let native = hits(GroundingStrategy::Native);
        let som = hits(GroundingStrategy::SomHtml);
        assert!(som > native, "SoM {som} must beat raw native {native}");
    }
}
