//! Themes and UI drift.
//!
//! A [`Theme`] is a set of [`DriftOp`]s applied to every page an app builds.
//! The Section 3 case studies attribute RPA failure to exactly these
//! mutations: "a button changing location on a screen, or a form field being
//! renamed", quarterly EHR updates, payer-website churn. The drift
//! generator samples realistic mutations from a live page so the RPA study
//! (`eclair-rpa`) can simulate quarters of product change.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::tree::Page;
use crate::widget::{Widget, WidgetId, WidgetKind};

/// One UI mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriftOp {
    /// Change every widget whose visible label equals `from` to `to`
    /// ("Save" becomes "Apply changes").
    Relabel { from: String, to: String },
    /// Change a widget's programmatic `name` (breaks name selectors without
    /// any visible difference).
    RenameField { from: String, to: String },
    /// Change the rendered HTML tag of the widget named `name`
    /// (a `button` becomes a `div` / `svg`).
    Retag { name: String, tag: String },
    /// Insert an announcement banner at the top of the page, shifting all
    /// content down (breaks position selectors).
    InsertBanner { text: String },
    /// Deterministically reorder the children of every multi-child
    /// [`WidgetKind::Section`]/`Row` (a redesign shuffling panels).
    ShuffleSections { seed: u64 },
    /// Hide the widget named `name` (feature removed / moved behind a menu).
    Hide { name: String },
    /// Set a new fixed width for all single-line inputs (a design-system
    /// refresh changing geometry).
    ResizeInputs { width: u32 },
}

/// A theme: drift ops applied after every page build.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Theme {
    /// Mutations applied in order.
    pub ops: Vec<DriftOp>,
}

impl Theme {
    /// The pristine theme (no drift).
    pub fn pristine() -> Self {
        Self::default()
    }

    /// A theme from explicit ops.
    pub fn with_ops(ops: Vec<DriftOp>) -> Self {
        Self { ops }
    }

    /// Append further drift (a new "quarterly update" on top of the old).
    pub fn extend(&mut self, ops: impl IntoIterator<Item = DriftOp>) {
        self.ops.extend(ops);
    }

    /// Apply all ops to a built page, then relayout.
    pub fn apply(&self, page: &mut Page) {
        if self.ops.is_empty() {
            return;
        }
        for op in &self.ops {
            apply_op(page, op);
        }
        page.relayout();
    }
}

fn apply_op(page: &mut Page, op: &DriftOp) {
    match op {
        DriftOp::Relabel { from, to } => {
            let targets: Vec<WidgetId> = page
                .iter()
                .filter(|w| w.label == *from)
                .map(|w| w.id)
                .collect();
            for id in targets {
                page.get_mut(id).label = to.into();
            }
        }
        DriftOp::RenameField { from, to } => {
            let targets: Vec<WidgetId> = page
                .iter()
                .filter(|w| w.name == *from)
                .map(|w| w.id)
                .collect();
            for id in targets {
                page.get_mut(id).name = to.into();
            }
        }
        DriftOp::Retag { name, tag } => {
            if let Some(id) = page.find_by_name(name) {
                page.get_mut(id).tag = tag.into();
            }
        }
        DriftOp::InsertBanner { text } => {
            page.inject_banner(text);
        }
        DriftOp::ShuffleSections { seed } => {
            shuffle_sections(page, *seed);
        }
        DriftOp::Hide { name } => {
            if let Some(id) = page.find_by_name(name) {
                page.get_mut(id).visible = false;
            }
        }
        DriftOp::ResizeInputs { width } => {
            let targets: Vec<WidgetId> = page
                .iter()
                .filter(|w| w.kind == WidgetKind::TextInput || w.kind == WidgetKind::Select)
                .map(|w| w.id)
                .collect();
            for id in targets {
                page.get_mut(id).fixed_w = Some(*width);
            }
        }
    }
}

fn shuffle_sections(page: &mut Page, seed: u64) {
    // Deterministic pseudo-shuffle: rotate each container's children by a
    // seed-derived amount. Rotation (not full shuffle) keeps pages plausible
    // while still moving everything.
    let containers: Vec<WidgetId> = page
        .iter()
        .filter(|w| {
            matches!(w.kind, WidgetKind::Section | WidgetKind::Row) && w.children.len() >= 3
        })
        .map(|w| w.id)
        .collect();
    for (i, id) in containers.into_iter().enumerate() {
        let n = page.get(id).children.len();
        let by = ((seed as usize).wrapping_add(i * 7) % (n - 1)) + 1;
        page.get_mut(id).children.rotate_left(by % n);
    }
}

impl Page {
    /// Insert a banner widget as the first child of the root (used by
    /// [`DriftOp::InsertBanner`]). Shifts all content down once laid out.
    pub fn inject_banner(&mut self, text: &str) {
        let root = self.root();
        let mut w = Widget::new(WidgetKind::Text);
        w.label = text.into();
        w.name = "drift-banner".into();
        w.parent = Some(root);
        let id = self.push_widget(w);
        self.get_mut(root).children.insert(0, id);
    }
}

/// Common label substitutions products actually ship ("Save" → "Apply").
const LABEL_SYNONYMS: &[(&str, &str)] = &[
    ("Save", "Apply"),
    ("Save changes", "Apply changes"),
    ("Create", "Add"),
    ("New issue", "Create issue"),
    ("New project", "Create project"),
    ("Delete", "Remove"),
    ("Submit", "Confirm"),
    ("Search", "Find"),
    ("Cancel", "Dismiss"),
    ("Edit", "Modify"),
    ("Add product", "New product"),
    ("Invite member", "Add member"),
];

/// Sample `n` plausible drift ops for a page: relabel known verbs, rename a
/// field, retag a button, maybe add a banner or reshuffle. Deterministic
/// under the provided RNG.
pub fn generate_drift<R: Rng>(page: &Page, rng: &mut R, n: usize) -> Vec<DriftOp> {
    let mut ops = Vec::new();
    let buttons: Vec<&Widget> = page
        .iter()
        .filter(|w| w.kind.is_activatable() && !w.label.is_empty())
        .collect();
    let fields: Vec<&Widget> = page
        .iter()
        .filter(|w| w.kind.is_editable() && !w.name.is_empty())
        .collect();
    for i in 0..n {
        let roll = rng.gen_range(0u32..100);
        match roll {
            0..=34 => {
                // Relabel a button, preferring a real synonym.
                if let Some(b) = buttons.choose(rng) {
                    let to = LABEL_SYNONYMS
                        .iter()
                        .find(|(from, _)| *from == b.label)
                        .map(|(_, to)| to.to_string())
                        .unwrap_or_else(|| format!("{} »", b.label));
                    ops.push(DriftOp::Relabel {
                        from: b.label.to_string(),
                        to,
                    });
                }
            }
            35..=54 => {
                if let Some(f) = fields.choose(rng) {
                    ops.push(DriftOp::RenameField {
                        from: f.name.to_string(),
                        to: format!("{}_v2", f.name),
                    });
                }
            }
            55..=69 => {
                if let Some(b) = buttons.choose(rng) {
                    if !b.name.is_empty() {
                        ops.push(DriftOp::Retag {
                            name: b.name.to_string(),
                            tag: "div".into(),
                        });
                    }
                }
            }
            70..=84 => ops.push(DriftOp::InsertBanner {
                text: format!("Scheduled maintenance window #{i}"),
            }),
            _ => ops.push(DriftOp::ShuffleSections { seed: rng.gen() }),
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PageBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Page {
        let mut b = PageBuilder::new("Drift", "/drift");
        b.heading(1, "Settings");
        b.section(|b| {
            b.text_input("email", "Email", "");
            b.text_input("phone", "Phone", "");
            b.button("save", "Save");
        });
        b.finish()
    }

    #[test]
    fn relabel_changes_visible_label_only() {
        let mut p = sample();
        Theme::with_ops(vec![DriftOp::Relabel {
            from: "Save".into(),
            to: "Apply".into(),
        }])
        .apply(&mut p);
        assert!(p.find_by_label("Save", true).is_none());
        let id = p.find_by_label("Apply", true).unwrap();
        assert_eq!(p.get(id).name, "save", "programmatic name untouched");
    }

    #[test]
    fn rename_field_is_invisible_in_pixels() {
        let mut p = sample();
        let before = crate::screenshot::Screenshot::render(
            &p.url,
            &p.title,
            p.widgets(),
            &p.paint_order(),
            0,
            None,
        );
        Theme::with_ops(vec![DriftOp::RenameField {
            from: "email".into(),
            to: "email_v2".into(),
        }])
        .apply(&mut p);
        let after = crate::screenshot::Screenshot::render(
            &p.url,
            &p.title,
            p.widgets(),
            &p.paint_order(),
            0,
            None,
        );
        assert_eq!(before.diff_fraction(&after), 0.0, "pixels identical");
        assert!(p.find_by_name("email").is_none());
        assert!(p.find_by_name("email_v2").is_some());
    }

    #[test]
    fn banner_shifts_content_down() {
        let mut p = sample();
        let save_y_before = p.get(p.find_by_name("save").unwrap()).bounds.y;
        Theme::with_ops(vec![DriftOp::InsertBanner {
            text: "We have updated our terms of service".into(),
        }])
        .apply(&mut p);
        let save_y_after = p.get(p.find_by_name("save").unwrap()).bounds.y;
        assert!(save_y_after > save_y_before, "content shifted down");
        assert!(p.find_by_name("drift-banner").is_some());
    }

    #[test]
    fn hide_removes_from_hit_testing() {
        let mut p = sample();
        Theme::with_ops(vec![DriftOp::Hide {
            name: "save".into(),
        }])
        .apply(&mut p);
        let id = p.find_by_name("save").unwrap();
        assert!(!p.is_shown(id));
    }

    #[test]
    fn shuffle_reorders_section_children() {
        let mut p = sample();
        let section = p
            .iter()
            .find(|w| w.kind == WidgetKind::Section && w.children.len() >= 3)
            .unwrap()
            .id;
        let before = p.get(section).children.clone();
        Theme::with_ops(vec![DriftOp::ShuffleSections { seed: 1 }]).apply(&mut p);
        let after = p.get(section).children.clone();
        assert_ne!(before, after, "children rotated");
        let mut b2 = before.clone();
        b2.sort();
        let mut a2 = after.clone();
        a2.sort();
        assert_eq!(b2, a2, "same children, different order");
    }

    #[test]
    fn generated_drift_is_deterministic() {
        let p = sample();
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(
            generate_drift(&p, &mut r1, 6),
            generate_drift(&p, &mut r2, 6)
        );
    }

    #[test]
    fn retag_changes_html_only() {
        let mut p = sample();
        Theme::with_ops(vec![DriftOp::Retag {
            name: "save".into(),
            tag: "div".into(),
        }])
        .apply(&mut p);
        let html = crate::html::serialize(&p);
        assert!(html.contains("<div name=\"save\">Save</div>"), "got {html}");
        // Still clickable: semantics unchanged.
        let id = p.find_by_name("save").unwrap();
        assert!(p.get(id).kind.is_activatable());
    }
}
