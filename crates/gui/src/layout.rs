//! A single-pass flow layout engine.
//!
//! Deliberately simple — vertical stacks, horizontal rows, intrinsic leaf
//! sizes, fixed-width table cells, centered modal overlays — but it computes
//! real, stable pixel rectangles for every widget, which is all the
//! downstream vision/grounding experiments require. Geometry shifts caused
//! by theme drift (padding changes, injected banners) fall out naturally:
//! they move every subsequent widget, which is what breaks position-based
//! RPA selectors.
//!
//! A walk writes every bounds it computes straight into the widgets. Its
//! one per-walk buffer, the child-id stack the container pass iterates,
//! is per-thread scratch that keeps its capacity across walks, so a warm
//! walk allocates nothing.

use std::cell::RefCell;

use eclair_trace::perf;

use crate::geometry::{Rect, Size};
use crate::widget::{Widget, WidgetId, WidgetKind};

/// Approximate glyph advance width in pixels for body text.
pub const CHAR_W: u32 = 8;
/// Body-line height in pixels.
pub const LINE_H: u32 = 20;
/// Root page padding.
pub const PAGE_PAD: u32 = 16;
/// Vertical gap between stacked siblings.
pub const V_GAP: u32 = 10;
/// Horizontal gap between row siblings.
pub const H_GAP: u32 = 12;
/// Page (and viewport) width.
pub const PAGE_W: u32 = 1280;
/// Modal dialog width.
pub const MODAL_W: u32 = 520;

fn text_width(s: &str, char_w: u32) -> u32 {
    s.chars().count() as u32 * char_w
}

thread_local! {
    /// The child-id stack of this thread's walks: each container pushes
    /// its children as a range and truncates back when done, instead of
    /// cloning a `Vec` per container. Empty between walks.
    static KIDS: RefCell<Vec<WidgetId>> = const { RefCell::new(Vec::new()) };
}

/// Lay out the widgets from `root`; fills every widget's `bounds` in
/// page coordinates and returns the total content height. Every call is
/// a full walk (`relayouts_full`).
pub fn layout_page(widgets: &mut [Widget], root: WidgetId) -> u32 {
    perf::record(|c| c.relayouts_full += 1);
    KIDS.with_borrow_mut(|kids| {
        let avail = PAGE_W - 2 * PAGE_PAD;
        let used = place(widgets, kids, root, PAGE_PAD as i32, PAGE_PAD as i32, avail);
        // Overlay pass: modals are centered over the content, not in flow.
        kids.extend(
            widgets
                .iter()
                .filter(|w| w.kind == WidgetKind::Modal && w.visible)
                .map(|w| w.id),
        );
        for i in 0..kids.len() {
            let m = kids[i];
            let x = ((PAGE_W - MODAL_W) / 2) as i32;
            place(widgets, kids, m, x, 140, MODAL_W);
        }
        kids.clear();
        place_toasts(widgets, kids);
        used.h + 2 * PAGE_PAD
    })
}

/// Toasts float at the top-right, stacked, without reflowing content.
fn place_toasts(widgets: &mut [Widget], kids: &mut Vec<WidgetId>) {
    let start = kids.len();
    kids.extend(
        widgets
            .iter()
            .filter(|w| w.kind == WidgetKind::Toast && w.visible)
            .map(|w| w.id),
    );
    let mut toast_y = 16i32;
    for &t in &kids[start..] {
        let size = leaf_size(&widgets[t.index()], 480);
        let x = PAGE_W as i32 - size.w as i32 - 24;
        widgets[t.index()].bounds = Rect::new(x, toast_y, size.w, size.h);
        toast_y += size.h as i32 + 8;
    }
    kids.truncate(start);
}

/// Recursively place `id` at (x, y) with `avail_w` of horizontal room.
/// Returns the size consumed.
fn place(
    widgets: &mut [Widget],
    kids: &mut Vec<WidgetId>,
    id: WidgetId,
    x: i32,
    y: i32,
    avail_w: u32,
) -> Size {
    let (kind, visible, fixed_w, has_children) = {
        let w = &widgets[id.index()];
        (w.kind, w.visible, w.fixed_w, !w.children.is_empty())
    };
    if !visible {
        widgets[id.index()].bounds = Rect::new(x, y, 0, 0);
        return Size::new(0, 0);
    }
    // A pinned width constrains the widget and everything inside it.
    let avail_w = fixed_w.map(|f| f.min(avail_w)).unwrap_or(avail_w);
    // Table cells holding widgets (e.g. a link) lay out as containers.
    let as_container = kind.is_container() || (kind == WidgetKind::TableCell && has_children);
    let size = if as_container {
        place_container(widgets, kids, id, x, y, avail_w, kind)
    } else {
        leaf_size(&widgets[id.index()], avail_w)
    };
    widgets[id.index()].bounds = Rect::new(x, y, size.w, size.h);
    size
}

#[allow(clippy::too_many_arguments)]
fn place_container(
    widgets: &mut [Widget],
    kids: &mut Vec<WidgetId>,
    id: WidgetId,
    x: i32,
    y: i32,
    avail_w: u32,
    kind: WidgetKind,
) -> Size {
    let (pad, gap_v, gap_h, horizontal) = match kind {
        WidgetKind::Row => (0u32, 0u32, H_GAP, true),
        WidgetKind::TableRow => (0, 0, 0, true),
        WidgetKind::Modal => (20, V_GAP, H_GAP, false),
        WidgetKind::Root => (0, V_GAP, H_GAP, false),
        _ => (0, V_GAP, H_GAP, false),
    };
    let start = kids.len();
    kids.extend_from_slice(widgets[id.index()].children.as_slice());
    let end = kids.len();
    let inner_w = avail_w.saturating_sub(2 * pad).max(CHAR_W);
    let mut cx = x + pad as i32;
    let mut cy = y + pad as i32;
    let mut max_w = 0u32;
    let mut max_h = 0u32;
    let mut first = true;
    for i in start..end {
        let child = kids[i];
        let ck = widgets[child.index()].kind;
        if ck == WidgetKind::Modal || ck == WidgetKind::Toast {
            continue; // the overlay pass places modals and toasts
        }
        if !widgets[child.index()].visible {
            widgets[child.index()].bounds = Rect::new(cx, cy, 0, 0);
            continue;
        }
        if horizontal {
            if !first {
                cx += gap_h as i32;
            }
            let remaining = (x + pad as i32 + inner_w as i32 - cx).max(CHAR_W as i32) as u32;
            let s = place(widgets, kids, child, cx, cy, remaining);
            cx += s.w as i32;
            max_h = max_h.max(s.h);
            max_w = ((cx - x) as u32).saturating_sub(pad);
        } else {
            if !first {
                cy += gap_v as i32;
            }
            let s = place(widgets, kids, child, cx, cy, inner_w);
            cy += s.h as i32;
            max_w = max_w.max(s.w);
            max_h = ((cy - y) as u32).saturating_sub(pad);
        }
        first = false;
    }
    kids.truncate(start);
    let w = match kind {
        WidgetKind::Row | WidgetKind::TableRow => max_w + 2 * pad,
        // Sections and forms shrink-wrap their content so that, inside a
        // row, a labelled input does not shove its siblings off-screen.
        WidgetKind::Section | WidgetKind::Form => (max_w + 2 * pad).min(avail_w),
        // Root, modals, and table cells span what they are given.
        _ => avail_w,
    };
    let h = max_h + 2 * pad;
    Size::new(w.min(avail_w.max(w)), h)
}

/// Intrinsic pixel size of a leaf widget given available width.
fn leaf_size(w: &Widget, avail_w: u32) -> Size {
    let label_len = w.label.chars().count() as u32;
    match w.kind {
        WidgetKind::Heading => {
            let (char_w, h) = match w.level {
                1 => (14, 44),
                2 => (11, 34),
                _ => (9, 26),
            };
            Size::new(text_width(&w.label, char_w).min(avail_w).max(CHAR_W), h)
        }
        WidgetKind::Text => {
            let total = text_width(&w.label, CHAR_W).max(CHAR_W);
            let per_line = avail_w.max(CHAR_W);
            let lines = total.div_ceil(per_line).max(1);
            Size::new(total.min(per_line), lines * LINE_H)
        }
        WidgetKind::Button => {
            let w_px = w.fixed_w.unwrap_or((label_len * CHAR_W + 36).max(64));
            Size::new(w_px.min(avail_w), w.fixed_h.unwrap_or(34))
        }
        WidgetKind::Link => Size::new(
            (label_len * CHAR_W).max(CHAR_W).min(avail_w),
            w.fixed_h.unwrap_or(LINE_H),
        ),
        WidgetKind::Icon => Size::new(w.fixed_w.unwrap_or(26), w.fixed_h.unwrap_or(26)),
        WidgetKind::TextInput | WidgetKind::PasswordInput | WidgetKind::Select => Size::new(
            w.fixed_w.unwrap_or(360).min(avail_w),
            w.fixed_h.unwrap_or(34),
        ),
        WidgetKind::TextArea => Size::new(
            w.fixed_w.unwrap_or(560).min(avail_w),
            w.fixed_h.unwrap_or(110),
        ),
        WidgetKind::Checkbox | WidgetKind::Radio => {
            Size::new((22 + 8 + label_len * CHAR_W).min(avail_w), 24)
        }
        WidgetKind::MenuItem => Size::new(
            w.fixed_w
                .unwrap_or((label_len * CHAR_W + 24).max(140))
                .min(avail_w),
            28,
        ),
        WidgetKind::Tab => Size::new((label_len * CHAR_W + 28).min(avail_w), 38),
        WidgetKind::Badge => Size::new((label_len * 7 + 18).min(avail_w), 22),
        WidgetKind::Toast => Size::new((text_width(&w.label, CHAR_W) + 28).min(avail_w), 36),
        WidgetKind::Image => Size::new(
            w.fixed_w.unwrap_or(160).min(avail_w),
            w.fixed_h.unwrap_or(120),
        ),
        WidgetKind::Divider => Size::new(avail_w, 9),
        WidgetKind::TableCell => {
            // Cells are sized by the table builder; bare cells get a line.
            Size::new(w.fixed_w.unwrap_or(100).min(avail_w), 28)
        }
        // Containers never reach here.
        _ => Size::new(avail_w, LINE_H),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PageBuilder;

    #[test]
    fn stacked_children_do_not_overlap_vertically() {
        let mut b = PageBuilder::new("t", "/t");
        b.heading(1, "Title");
        b.text("Some body text");
        b.button("go", "Go");
        let p = b.finish();
        let ids: Vec<_> = p.iter().filter(|w| !w.kind.is_container()).collect();
        for pair in ids.windows(2) {
            assert!(
                pair[1].bounds.y >= pair[0].bounds.bottom(),
                "{:?} overlaps {:?}",
                pair[1].kind,
                pair[0].kind
            );
        }
    }

    #[test]
    fn row_children_flow_left_to_right() {
        let mut b = PageBuilder::new("t", "/t");
        b.row(|b| {
            b.button("a", "Alpha");
            b.button("bb", "Beta");
            b.link("c", "Gamma");
        });
        let p = b.finish();
        let a = p.get(p.find_by_name("a").unwrap()).bounds;
        let bb = p.get(p.find_by_name("bb").unwrap()).bounds;
        let c = p.get(p.find_by_name("c").unwrap()).bounds;
        assert!(bb.x >= a.right());
        assert!(c.x >= bb.right());
        assert_eq!(a.y, bb.y);
    }

    #[test]
    fn everything_within_page_width() {
        let mut b = PageBuilder::new("t", "/t");
        b.heading(1, "A heading");
        b.form("f", |b| {
            b.text_input("x", "Field", "hint");
            b.textarea("y", "Area", "hint");
        });
        b.table(
            &["A", "B", "C"],
            &[vec![
                ("1".into(), None),
                ("2".into(), None),
                ("3".into(), None),
            ]],
        );
        let p = b.finish();
        for w in p.visible_iter() {
            assert!(
                w.bounds.right() <= PAGE_W as i32,
                "{:?} '{}' exceeds page width: {:?}",
                w.kind,
                w.label,
                w.bounds
            );
        }
    }

    #[test]
    fn modal_is_centered_overlay() {
        let mut b = PageBuilder::new("t", "/t");
        b.text("content");
        b.modal("m", |b| {
            b.text("dialog body");
            b.button("ok", "OK");
        });
        let p = b.finish();
        let m = p.get(p.find_by_name("m").unwrap()).bounds;
        assert_eq!(m.x, ((PAGE_W - MODAL_W) / 2) as i32);
        assert_eq!(m.y, 140);
        assert_eq!(m.w, MODAL_W);
        let ok = p.get(p.find_by_name("ok").unwrap()).bounds;
        assert!(m.contains(ok.center()), "modal children inside modal");
    }

    #[test]
    fn long_text_wraps_to_multiple_lines() {
        let mut b = PageBuilder::new("t", "/t");
        let long = "word ".repeat(100);
        b.text(long.trim().to_string());
        let p = b.finish();
        let t = p
            .iter()
            .find(|w| w.kind == crate::widget::WidgetKind::Text)
            .unwrap();
        assert!(
            t.bounds.h >= 2 * LINE_H,
            "expected wrapping: {:?}",
            t.bounds
        );
    }

    #[test]
    fn invisible_widgets_take_no_space() {
        let mut b = PageBuilder::new("t", "/t");
        b.text("above");
        let hidden = b.button("h", "Hidden");
        b.text("below");
        let mut p = b.finish();
        let below_before = p
            .find_by_label("below", false)
            .map(|id| p.get(id).bounds.y)
            .unwrap();
        p.get_mut(hidden).visible = false;
        p.relayout();
        let below_after = p
            .find_by_label("below", false)
            .map(|id| p.get(id).bounds.y)
            .unwrap();
        assert!(below_after < below_before);
    }

    #[test]
    fn content_height_tracks_content() {
        let mut b = PageBuilder::new("t", "/t");
        for i in 0..60 {
            b.text(format!("line {i}"));
        }
        let p = b.finish();
        assert!(
            p.content_height > 720,
            "60 lines should overflow the viewport, got {}",
            p.content_height
        );
    }

    #[test]
    fn icon_is_small_bucket_button_medium() {
        use crate::geometry::SizeBucket;
        let mut b = PageBuilder::new("t", "/t");
        b.icon_button("gear", "Settings");
        b.button("save", "Save changes");
        let p = b.finish();
        let icon = p.get(p.find_by_name("gear").unwrap()).bounds;
        let btn = p.get(p.find_by_name("save").unwrap()).bounds;
        assert_eq!(icon.size_bucket(), SizeBucket::Small);
        assert_eq!(btn.size_bucket(), SizeBucket::Medium);
    }
}
