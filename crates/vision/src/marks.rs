//! Set-of-marks prompting support (Yang et al., 2023).
//!
//! Table 3 grounds GPT-4 by overlaying "a unique numeric label on top of
//! every element in the webpage screenshot" and asking the model to output
//! a label number. The candidate boxes come either from the page's HTML
//! ("HTML" source) or from the simulated YOLO detector ("YOLO" source).

use std::borrow::Cow;

use rand::Rng;
use serde::{Deserialize, Serialize};

use eclair_gui::html::element_boxes;
use eclair_gui::{Page, Rect, Screenshot};

use crate::detector::{Detection, YoloNasSim};

/// One numbered mark over a candidate box.
///
/// `text` and `hint` borrow the page's interned strings for HTML marks
/// and own their text for detector marks (OCR output, class names) and
/// for caption-joined text. Either form serializes as the same JSON
/// string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mark {
    /// The numeric label drawn on screen (1-based, reading order).
    pub label: u32,
    /// The candidate box in viewport coordinates.
    pub rect: Rect,
    /// Text associated with the candidate (OCR'd for detector marks, exact
    /// for HTML marks).
    pub text: Cow<'static, str>,
    /// Coarse class/tag hint ("button", "a", "input", or a detector class).
    pub hint: Cow<'static, str>,
}

/// The marks overlaid on a frame — the exact artifact handed to the
/// grounding model, which prices the frame by its painted item count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkedScreenshot {
    /// Number of items painted in the underlying frame.
    pub items: usize,
    /// Marks in label order.
    pub marks: Vec<Mark>,
}

impl MarkedScreenshot {
    /// Look up a mark by its numeric label.
    pub fn mark(&self, label: u32) -> Option<&Mark> {
        self.marks.iter().find(|m| m.label == label)
    }
}

/// Number `marks` 1.. in stable top-to-bottom, left-to-right order, as SoM
/// tooling numbers elements.
fn number_in_reading_order(marks: &mut [Mark]) {
    marks.sort_by_key(|m| (m.rect.y, m.rect.x));
    for (i, m) in marks.iter_mut().enumerate() {
        m.label = i as u32 + 1;
    }
}

/// Build marks from ground-truth HTML element boxes (Table 3 "HTML"). The
/// marks borrow the page's interned strings and the frame is counted, not
/// rendered, so nothing is allocated per element.
pub fn marks_from_html(page: &Page, scroll_y: i32) -> MarkedScreenshot {
    let mut marks: Vec<Mark> = element_boxes(page, scroll_y, true)
        .into_iter()
        .map(|e| Mark {
            label: 0,
            rect: e.rect,
            text: Cow::Borrowed(e.text.as_str()),
            hint: Cow::Borrowed(e.tag.as_str()),
        })
        .collect();
    number_in_reading_order(&mut marks);
    MarkedScreenshot {
        items: page.painted_count(scroll_y),
        marks,
    }
}

/// Build marks from detector output (Table 3 "YOLO").
pub fn marks_from_detections(shot: &Screenshot, detections: &[Detection]) -> MarkedScreenshot {
    let mut marks: Vec<Mark> = detections
        .iter()
        .map(|d| Mark {
            label: 0,
            rect: d.rect,
            text: Cow::Owned(d.text.clone()),
            hint: Cow::Owned(format!("{:?}", d.visual)),
        })
        .collect();
    number_in_reading_order(&mut marks);
    MarkedScreenshot {
        items: shot.items.len(),
        marks,
    }
}

/// Convenience: run the detector then mark (the full "YOLO" pipeline).
pub fn marks_via_detector<R: Rng>(
    shot: &Screenshot,
    detector: &YoloNasSim,
    rng: &mut R,
) -> MarkedScreenshot {
    let dets = detector.detect(shot, rng);
    marks_from_detections(shot, &dets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_gui::PageBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn page() -> Page {
        let mut b = PageBuilder::new("marks", "/marks");
        b.heading(1, "Members");
        b.row(|b| {
            b.button("invite", "Invite member");
            b.link("export", "Export list");
        });
        b.text_input("q", "Filter", "search members");
        b.icon_button("gear", "Settings");
        b.finish()
    }

    #[test]
    fn html_marks_cover_all_interactive_elements() {
        let p = page();
        let m = marks_from_html(&p, 0);
        // button + link + input + icon = 4 candidates.
        assert_eq!(m.marks.len(), 4, "{:#?}", m.marks);
        assert!(m.marks.iter().any(|mk| mk.hint == "svg"));
        assert!(m.marks.iter().any(|mk| mk.text == "Invite member"));
    }

    #[test]
    fn labels_are_unique_and_in_reading_order() {
        let p = page();
        let m = marks_from_html(&p, 0);
        for (i, mk) in m.marks.iter().enumerate() {
            assert_eq!(mk.label, i as u32 + 1);
        }
        for pair in m.marks.windows(2) {
            assert!(
                (pair[0].rect.y, pair[0].rect.x) <= (pair[1].rect.y, pair[1].rect.x),
                "reading order violated"
            );
        }
    }

    #[test]
    fn detector_marks_reflect_detector_noise() {
        let p = page();
        let shot = p.screenshot_at(0);
        let mut rng = StdRng::seed_from_u64(5);
        let m = marks_via_detector(&shot, &YoloNasSim::oracle(), &mut rng);
        assert_eq!(m.marks.len(), 4, "oracle detector finds all 4");
        // A blind detector yields fewer marks.
        let blind = YoloNasSim {
            recall_small: 0.0,
            recall_medium: 0.0,
            recall_large: 0.0,
            false_positive_rate: 0.0,
            ..YoloNasSim::default()
        };
        let m2 = marks_via_detector(&shot, &blind, &mut StdRng::seed_from_u64(5));
        assert!(m2.marks.is_empty());
    }

    #[test]
    fn borrowed_and_owned_marks_round_trip_through_json() {
        let p = page();
        let html = marks_from_html(&p, 0);
        let borrowed = html
            .marks
            .iter()
            .find(|m| m.text == "Invite member")
            .expect("the invite button is marked");
        assert!(matches!(borrowed.text, Cow::Borrowed(_)));
        assert!(matches!(borrowed.hint, Cow::Borrowed(_)));
        let owned = Mark {
            text: Cow::Owned(borrowed.text.to_string()),
            hint: Cow::Owned(borrowed.hint.to_string()),
            ..borrowed.clone()
        };
        let json = serde_json::to_string(borrowed).unwrap();
        assert_eq!(serde_json::to_string(&owned).unwrap(), json);
        for mark in [borrowed, &owned] {
            let back: Mark = serde_json::from_str(&serde_json::to_string(mark).unwrap()).unwrap();
            assert_eq!(&back, mark);
        }
        let marked = MarkedScreenshot {
            items: html.items,
            marks: vec![borrowed.clone(), owned],
        };
        let back: MarkedScreenshot =
            serde_json::from_str(&serde_json::to_string(&marked).unwrap()).unwrap();
        assert_eq!((back.items, back.marks), (marked.items, marked.marks));
    }

    #[test]
    fn mark_lookup_by_label() {
        let p = page();
        let m = marks_from_html(&p, 0);
        assert!(m.mark(1).is_some());
        assert!(m.mark(99).is_none());
    }
}
