//! Screenshots: the *only* observation channel agents get.
//!
//! A [`Screenshot`] is a list of [`PaintItem`]s — geometry, a coarse visual
//! class (what the pixels would look like), drawn text, and styling — plus
//! the browser chrome (URL bar). It deliberately drops everything pixels
//! would not carry: widget ids, programmatic names, HTML tags, semantic
//! kinds, and (crucially for the paper's integrity-constraint finding)
//! *focus state*, which is only observable as a caret bar in frames where
//! the blink phase happens to be on.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::geometry::{Point, Rect, Size};
use crate::intern::Sym;
use crate::widget::{Widget, WidgetKind};
use crate::VIEWPORT;

/// What a painted region's pixels look like, at the granularity a vision
/// model could plausibly classify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VisualClass {
    /// Plain rendered text (body text, headings, labels, table cells).
    Text,
    /// Underlined/colored text (links, tabs, menu entries).
    TextLink,
    /// A filled rounded rectangle with a caption (buttons).
    BoxButton,
    /// A bordered box possibly containing text (inputs, selects, areas).
    InputBox,
    /// A small square with or without a check mark.
    CheckGlyph,
    /// A small circle with or without a dot.
    RadioGlyph,
    /// A non-text pictograph.
    IconGlyph,
    /// A raster image region.
    ImageBlob,
    /// A panel border / rule (modal frame, toast bar, divider).
    PanelEdge,
    /// The blinking text caret (present only in some frames).
    CaretBar,
}

/// One painted region of a screenshot, in viewport coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaintItem {
    /// Viewport-space rectangle (scroll already applied).
    pub rect: Rect,
    /// Coarse visual classification.
    pub visual: VisualClass,
    /// The text pixels show (interned — rendering a frame allocates no
    /// per-item strings). Empty for icons, images, carets, edges — and
    /// masked (`•`) for password boxes.
    pub text: Sym,
    /// Bold / primary-color styling (headings, primary buttons, checked
    /// glyphs).
    pub emphasis: bool,
    /// Grayed-out rendering (disabled widgets *are* visibly gray).
    pub grayed: bool,
}

/// A captured frame.
///
/// Frames are content-addressed by [`Screenshot::frame_hash`], which is
/// memoized after the first call. Frames are immutable once rendered in
/// every production path; code that *does* mutate one (tests, mostly)
/// must mutate a fresh [`Clone`] — cloning resets the memo, so a mutated
/// clone can never carry its parent's stale hash.
#[derive(Debug)]
pub struct Screenshot {
    /// Viewport size (always [`crate::VIEWPORT`] in the experiments).
    pub viewport: Size,
    /// The URL shown in the browser chrome (agents can read this).
    pub url: String,
    /// Window title shown in the chrome.
    pub title: String,
    /// Scroll offset the frame was taken at.
    pub scroll_y: i32,
    /// Painted regions in paint order (later items overlay earlier ones).
    pub items: Vec<PaintItem>,
    /// Lazily computed frame hash. Never serialized or compared; reset on
    /// clone.
    hash_memo: OnceLock<u64>,
}

// Manual serde impls (the vendored derive has no `skip`): identical to the
// derive's field-order map, minus the hash memo — a deserialized frame
// re-earns its hash on first use.
impl Serialize for Screenshot {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"viewport\":");
        self.viewport.write_json(out);
        out.push_str(",\"url\":");
        self.url.write_json(out);
        out.push_str(",\"title\":");
        self.title.write_json(out);
        out.push_str(",\"scroll_y\":");
        self.scroll_y.write_json(out);
        out.push_str(",\"items\":");
        self.items.write_json(out);
        out.push('}');
    }
}

impl Deserialize for Screenshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
            T::from_value(v.field(name))
                .map_err(|e| serde::Error::custom(format!("Screenshot.{name}: {e}")))
        }
        Ok(Screenshot {
            viewport: field(v, "viewport")?,
            url: field(v, "url")?,
            title: field(v, "title")?,
            scroll_y: field(v, "scroll_y")?,
            items: field(v, "items")?,
            hash_memo: OnceLock::new(),
        })
    }
}

impl Clone for Screenshot {
    fn clone(&self) -> Self {
        Self {
            viewport: self.viewport,
            url: self.url.clone(),
            title: self.title.clone(),
            scroll_y: self.scroll_y,
            items: self.items.clone(),
            // A clone is the mutation escape hatch: it must re-earn its
            // hash.
            hash_memo: OnceLock::new(),
        }
    }
}

impl PartialEq for Screenshot {
    fn eq(&self, other: &Self) -> bool {
        self.viewport == other.viewport
            && self.url == other.url
            && self.title == other.title
            && self.scroll_y == other.scroll_y
            && self.items == other.items
    }
}

/// Number of signature-grid columns (1280 / 20px cells).
pub const GRID_COLS: usize = 64;
/// Number of signature-grid rows (720 / 20px cells).
pub const GRID_ROWS: usize = 36;

impl Screenshot {
    /// Render a page region into a screenshot.
    ///
    /// * `widgets`, `paint_order` — the page being rendered.
    /// * `scroll_y` — vertical scroll offset in page coordinates.
    /// * `caret` — the page-space caret rectangle to draw, if the focused
    ///   widget's blink phase is "on" for this frame.
    pub fn render(
        url: &str,
        title: &str,
        widgets: &[Widget],
        paint_order: &[crate::widget::WidgetId],
        scroll_y: i32,
        caret: Option<Rect>,
    ) -> Self {
        let viewport_rect = Rect::new(0, scroll_y, VIEWPORT.w, VIEWPORT.h);
        let mut items = Vec::new();
        for &id in paint_order {
            let w = &widgets[id.index()];
            if !w.visible || w.bounds.w == 0 || w.bounds.h == 0 {
                continue;
            }
            if !w.bounds.intersects(&viewport_rect) {
                continue;
            }
            if let Some(item) = Self::paint_widget(w, scroll_y) {
                items.push(item);
            }
        }
        if let Some(c) = caret {
            if c.intersects(&viewport_rect) {
                items.push(PaintItem {
                    rect: c.offset(0, -scroll_y),
                    visual: VisualClass::CaretBar,
                    text: Sym::EMPTY,
                    emphasis: false,
                    grayed: false,
                });
            }
        }
        Self::new(VIEWPORT, url, title, scroll_y, items)
    }

    /// Assemble a frame from parts (the hash memo starts unset).
    pub fn new(
        viewport: Size,
        url: impl Into<String>,
        title: impl Into<String>,
        scroll_y: i32,
        items: Vec<PaintItem>,
    ) -> Self {
        Self {
            viewport,
            url: url.into(),
            title: title.into(),
            scroll_y,
            items,
            hash_memo: OnceLock::new(),
        }
    }

    fn paint_widget(w: &Widget, scroll_y: i32) -> Option<PaintItem> {
        let rect = w.bounds.offset(0, -scroll_y);
        let grayed = !w.enabled;
        let (visual, text, emphasis) = match w.kind {
            WidgetKind::Heading => (VisualClass::Text, w.label, true),
            WidgetKind::Text | WidgetKind::Badge | WidgetKind::TableCell => {
                if w.label.is_empty() {
                    return None;
                }
                (VisualClass::Text, w.label, false)
            }
            WidgetKind::Link | WidgetKind::MenuItem | WidgetKind::Tab => {
                (VisualClass::TextLink, w.label, false)
            }
            WidgetKind::Button => (VisualClass::BoxButton, w.label, true),
            WidgetKind::TextInput | WidgetKind::TextArea | WidgetKind::Select => {
                (VisualClass::InputBox, w.display_sym(), false)
            }
            WidgetKind::PasswordInput => (
                VisualClass::InputBox,
                Sym::from("•".repeat(w.value.chars().count())),
                false,
            ),
            WidgetKind::Checkbox => (VisualClass::CheckGlyph, w.label, w.is_checked()),
            WidgetKind::Radio => (VisualClass::RadioGlyph, w.label, w.is_checked()),
            // Icons paint a glyph. The `text` carries the glyph's *identity*
            // (a gear, a bell) — pixels do convey that — but it is not
            // rendered text: `visible_text` excludes it and only GUI-literate
            // models recover it during perception.
            WidgetKind::Icon => (VisualClass::IconGlyph, w.label, false),
            WidgetKind::Image => (VisualClass::ImageBlob, Sym::EMPTY, false),
            WidgetKind::Modal => (VisualClass::PanelEdge, Sym::EMPTY, false),
            WidgetKind::Toast => (VisualClass::PanelEdge, w.label, true),
            WidgetKind::Divider => (VisualClass::PanelEdge, Sym::EMPTY, false),
            // Pure layout containers have no pixels of their own.
            WidgetKind::Root
            | WidgetKind::Section
            | WidgetKind::Row
            | WidgetKind::Form
            | WidgetKind::TableRow => return None,
        };
        Some(PaintItem {
            rect,
            visual,
            text,
            emphasis,
            grayed,
        })
    }

    /// Stable FNV-1a content hash of the frame: every byte of pixel-visible
    /// state (chrome, geometry, visual class, text, styling) feeds the
    /// digest, so two frames hash equal iff they would rasterize to the
    /// same pixels. This is the content-address the session frame cache and
    /// the percept cache key on.
    ///
    /// Deliberately hashes item text *bytes*, never interned `Sym` ids:
    /// the hash seeds simulated FM perception, so it must be identical
    /// across processes and across fleet/sequential runs, while intern ids
    /// depend on first-intern order (thread scheduling). Folding ids is
    /// reserved for in-process signatures (build sig, layout sig).
    ///
    /// Memoized: frames are immutable once rendered (mutate a clone — the
    /// memo resets on clone — never a frame that has already been hashed).
    pub fn frame_hash(&self) -> u64 {
        *self.hash_memo.get_or_init(|| self.compute_hash())
    }

    fn compute_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.viewport.w as u64);
        mix(self.viewport.h as u64);
        mix(self.scroll_y as u32 as u64);
        for by in self.url.bytes() {
            mix(by as u64);
        }
        mix(0xFF); // field separator (URL is free text)
        for by in self.title.bytes() {
            mix(by as u64);
        }
        mix(0xFF);
        mix(self.items.len() as u64);
        for item in &self.items {
            mix(item.rect.x as u32 as u64);
            mix(item.rect.y as u32 as u64);
            mix(item.rect.w as u64);
            mix(item.rect.h as u64);
            mix(item.visual as u64);
            mix(item.emphasis as u64 | (item.grayed as u64) << 1);
            mix(item.text.len() as u64);
            for by in item.text.bytes() {
                mix(by as u64);
            }
        }
        h
    }

    /// Items whose rect contains `p` (topmost last).
    pub fn items_at(&self, p: Point) -> Vec<&PaintItem> {
        self.items.iter().filter(|i| i.rect.contains(p)).collect()
    }

    /// Concatenated visible text (reading order), handy for goal predicates
    /// that check "the confirmation screen says X".
    pub fn visible_text(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            if item.visual == VisualClass::IconGlyph {
                continue; // glyph identity is not rendered text
            }
            if !item.text.is_empty() {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&item.text);
            }
        }
        out
    }

    /// Whether any visible text contains `needle` (case-insensitive).
    pub fn contains_text(&self, needle: &str) -> bool {
        let needle = needle.to_lowercase();
        self.items
            .iter()
            .filter(|i| i.visual != VisualClass::IconGlyph)
            .any(|i| i.text.to_lowercase().contains(&needle))
    }

    /// A coarse perceptual signature: a 64×36 grid of cell hashes. Two
    /// screenshots differing in any painted content produce different cell
    /// values, and the *number* of differing cells approximates how much of
    /// the screen changed — the primitive the actuation validator uses.
    pub fn grid_signature(&self) -> Vec<u64> {
        let mut grid = vec![0xcbf2_9ce4_8422_2325u64; GRID_COLS * GRID_ROWS];
        let cell_w = (self.viewport.w as usize / GRID_COLS).max(1);
        let cell_h = (self.viewport.h as usize / GRID_ROWS).max(1);
        for item in &self.items {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |b: u64| {
                h ^= b;
                h = h.wrapping_mul(0x1000_0000_01b3);
            };
            mix(item.visual as u64);
            mix(item.emphasis as u64 | (item.grayed as u64) << 1);
            for by in item.text.bytes() {
                mix(by as u64);
            }
            mix(item.rect.x as u64);
            mix(item.rect.y as u64);
            // Stamp the item hash into every grid cell it overlaps.
            let x0 = (item.rect.x.max(0) as usize / cell_w).min(GRID_COLS - 1);
            let y0 = (item.rect.y.max(0) as usize / cell_h).min(GRID_ROWS - 1);
            let x1 =
                ((item.rect.right().max(0) as usize).saturating_sub(1) / cell_w).min(GRID_COLS - 1);
            let y1 = ((item.rect.bottom().max(0) as usize).saturating_sub(1) / cell_h)
                .min(GRID_ROWS - 1);
            for gy in y0..=y1 {
                for gx in x0..=x1 {
                    let cell = &mut grid[gy * GRID_COLS + gx];
                    *cell = cell.wrapping_mul(0x100_0000_01b3).wrapping_add(h) ^ h.rotate_left(17);
                }
            }
        }
        grid
    }

    /// Fraction of signature cells that differ between two frames (0.0 =
    /// visually identical, 1.0 = everything changed).
    pub fn diff_fraction(&self, other: &Screenshot) -> f64 {
        if self.url != other.url {
            return 1.0;
        }
        let a = self.grid_signature();
        let b = other.grid_signature();
        let changed = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        changed as f64 / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PageBuilder;

    fn shoot(page: &crate::tree::Page, scroll: i32) -> Screenshot {
        Screenshot::render(
            &page.url,
            &page.title,
            page.widgets(),
            &page.paint_order(),
            scroll,
            None,
        )
    }

    fn sample() -> crate::tree::Page {
        let mut b = PageBuilder::new("Shot", "/shot");
        b.heading(1, "Create issue");
        b.text_input("title", "Title", "Issue title");
        b.icon_button("gear", "Settings");
        b.button("submit", "Create issue");
        b.finish()
    }

    #[test]
    fn screenshot_drops_semantics_keeps_pixels() {
        let p = sample();
        let s = shoot(&p, 0);
        // Button caption is visible...
        assert!(s.contains_text("Create issue"));
        // ...the input shows its placeholder...
        assert!(s.contains_text("Issue title"));
        // ...but the icon's accessible label is NOT painted.
        assert!(!s.visible_text().contains("Settings"));
        // And no item exposes a programmatic name anywhere.
        assert!(!s.visible_text().contains("gear"));
    }

    #[test]
    fn password_is_masked() {
        let mut b = PageBuilder::new("pw", "/pw");
        let id = b.password("pw", "Password");
        let mut p = b.finish();
        p.get_mut(id).value = "hunter2".into();
        let s = shoot(&p, 0);
        assert!(s.contains_text("•••••••"));
        assert!(!s.contains_text("hunter2"));
    }

    #[test]
    fn scrolling_moves_items_up() {
        let p = sample();
        let s0 = shoot(&p, 0);
        let s1 = shoot(&p, 50);
        let first_y0 = s0.items[0].rect.y;
        let first_y1 = s1.items[0].rect.y;
        assert_eq!(first_y1, first_y0 - 50);
    }

    #[test]
    fn offscreen_items_are_culled() {
        let mut b = PageBuilder::new("long", "/long");
        for i in 0..100 {
            b.text(format!("row {i}"));
        }
        let p = b.finish();
        let top = shoot(&p, 0);
        assert!(top.contains_text("row 0"));
        assert!(!top.contains_text("row 99"));
        let max_scroll = p.content_height as i32 - 720;
        let bottom = shoot(&p, max_scroll);
        assert!(bottom.contains_text("row 99"));
        assert!(!bottom.contains_text("row 0"));
    }

    #[test]
    fn identical_frames_have_zero_diff() {
        let p = sample();
        let a = shoot(&p, 0);
        let b = shoot(&p, 0);
        assert_eq!(a.diff_fraction(&b), 0.0);
    }

    #[test]
    fn typed_text_changes_signature_locally() {
        let mut p = sample();
        let before = shoot(&p, 0);
        let title = p.find_by_name("title").unwrap();
        p.get_mut(title).value = "Login broken".into();
        let after = shoot(&p, 0);
        let frac = before.diff_fraction(&after);
        assert!(frac > 0.0, "a visible change must change the signature");
        assert!(
            frac < 0.25,
            "one input changing should be a local change, got {frac}"
        );
    }

    #[test]
    fn url_change_is_total_diff() {
        let p = sample();
        let a = shoot(&p, 0);
        let mut b = a.clone();
        b.url = "/elsewhere".into();
        assert_eq!(a.diff_fraction(&b), 1.0);
    }

    #[test]
    fn caret_renders_only_when_provided() {
        let p = sample();
        let title = p.find_by_name("title").unwrap();
        let caret_rect = Rect::new(p.get(title).bounds.x + 4, p.get(title).bounds.y + 6, 2, 20);
        let with = Screenshot::render(
            &p.url,
            &p.title,
            p.widgets(),
            &p.paint_order(),
            0,
            Some(caret_rect),
        );
        let without = shoot(&p, 0);
        assert!(with.items.iter().any(|i| i.visual == VisualClass::CaretBar));
        assert!(!without
            .items
            .iter()
            .any(|i| i.visual == VisualClass::CaretBar));
        assert!(with.diff_fraction(&without) > 0.0);
    }

    #[test]
    fn frame_hash_is_content_addressed() {
        let p = sample();
        // Two independent renders of the same page state hash equal.
        assert_eq!(shoot(&p, 0).frame_hash(), shoot(&p, 0).frame_hash());
        // Scroll, URL, text, and styling changes all move the hash.
        let base = shoot(&p, 0);
        assert_ne!(base.frame_hash(), shoot(&p, 50).frame_hash());
        let mut relabeled = base.clone();
        relabeled.url = "/elsewhere".into();
        assert_ne!(base.frame_hash(), relabeled.frame_hash());
        let mut edited = base.clone();
        edited.items[0].text = Sym::from(format!("{}!", edited.items[0].text));
        assert_ne!(base.frame_hash(), edited.frame_hash());
        let mut styled = base.clone();
        styled.items[0].grayed = !styled.items[0].grayed;
        assert_ne!(base.frame_hash(), styled.frame_hash());
    }

    #[test]
    fn frame_hash_matches_structural_equality() {
        let p = sample();
        let a = shoot(&p, 0);
        let b = shoot(&p, 0);
        assert_eq!(a, b);
        assert_eq!(a.frame_hash(), b.frame_hash());
    }

    #[test]
    fn disabled_widgets_render_grayed() {
        let mut b = PageBuilder::new("g", "/g");
        let id = b.button("save", "Save");
        let mut p = b.finish();
        p.get_mut(id).enabled = false;
        let s = shoot(&p, 0);
        let item = s.items.iter().find(|i| i.text == "Save").unwrap();
        assert!(item.grayed);
    }

    mod hash_soundness {
        use super::*;
        use proptest::prelude::*;

        const VISUALS: [VisualClass; 10] = [
            VisualClass::Text,
            VisualClass::TextLink,
            VisualClass::BoxButton,
            VisualClass::InputBox,
            VisualClass::CheckGlyph,
            VisualClass::RadioGlyph,
            VisualClass::IconGlyph,
            VisualClass::ImageBlob,
            VisualClass::PanelEdge,
            VisualClass::CaretBar,
        ];

        fn arb_item() -> impl Strategy<Value = PaintItem> {
            (
                (-40..1280i32, -40..720i32, 1..400u32, 1..80u32),
                0..VISUALS.len(),
                "[a-z •]{0,12}",
                0..4u8,
            )
                .prop_map(|((x, y, w, h), v, text, style)| PaintItem {
                    rect: Rect { x, y, w, h },
                    visual: VISUALS[v],
                    text: Sym::from(text),
                    emphasis: style & 1 != 0,
                    grayed: style & 2 != 0,
                })
        }

        fn arb_shot() -> impl Strategy<Value = Screenshot> {
            (
                proptest::collection::vec(arb_item(), 0..14),
                0..600i32,
                "/[a-z/]{0,10}",
                "[A-Za-z ]{0,10}",
            )
                .prop_map(|(items, scroll_y, url, title)| {
                    Screenshot::new(VIEWPORT, url, title, scroll_y, items)
                })
        }

        proptest! {
            // Completeness: equal content always hashes equal (the cache
            // may only ever *reuse*; it can never wrongly split).
            #[test]
            fn equal_frames_hash_equal(shot in arb_shot()) {
                prop_assert_eq!(shot.frame_hash(), shot.clone().frame_hash());
            }

            // Soundness over randomized frames: every kind of visible
            // perturbation — chrome, scroll, text, styling, geometry,
            // paint order, item count — moves the content address, so a
            // cached frame can never be served for a frame that would
            // rasterize differently.
            #[test]
            fn any_visible_perturbation_moves_the_hash(
                shot in arb_shot(),
                which in 0usize..7,
            ) {
                let base = shot.frame_hash();
                let mut m = shot.clone();
                match which {
                    0 => m.scroll_y += 1,
                    1 => m.url.push('x'),
                    2 => m.title.push('x'),
                    3 => m.items.push(PaintItem {
                        rect: Rect { x: 5, y: 5, w: 9, h: 9 },
                        visual: VisualClass::Text,
                        text: Sym::from("q"),
                        emphasis: false,
                        grayed: false,
                    }),
                    4 if !m.items.is_empty() => m.items[0].grayed = !m.items[0].grayed,
                    5 if !m.items.is_empty() => m.items[0].rect.x += 1,
                    6 if m.items.len() >= 2 && m.items[0] != m.items[1] => m.items.swap(0, 1),
                    _ => m.title.push('y'),
                }
                prop_assert_ne!(base, m.frame_hash());
            }

            // Field separators hold: bytes sliding between adjacent free-text
            // fields (url/title) must not alias into the same digest.
            #[test]
            fn adjacent_text_fields_do_not_alias(a in "[a-z]{0,6}", b in "[a-z]{0,6}") {
                prop_assume!(a != b);
                let mk = |url: &str, title: &str| {
                    Screenshot::new(VIEWPORT, url, title, 0, vec![])
                };
                prop_assert_ne!(mk(&a, &b).frame_hash(), mk(&b, &a).frame_hash());
            }
        }
    }
}
