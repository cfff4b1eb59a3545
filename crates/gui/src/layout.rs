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
//! Two perf layers sit on top of the walk, neither of which may change a
//! single computed pixel:
//!
//! 1. **Scratch pooling** — per-walk allocations (child id stacks, the
//!    write log) come from a thread-local scratch reused across walks and
//!    truncated wholesale at the end, the scoped-arena discipline.
//! 2. **A global layout cache** — a full walk reads only a small slice of
//!    each widget (kind / visibility / level / fixed size / label /
//!    children), so its output is a pure function of a cheap signature
//!    over interned ids. The cache replays the exact bounds writes of an
//!    earlier identical walk (the write log, not a bounds-per-slot dump,
//!    so widgets the walk never touched keep their stale bounds exactly
//!    as a real walk would leave them). Lookups compute inside the lock,
//!    so each unique signature misses exactly once even under a
//!    multi-worker fleet and the aggregate counters stay deterministic.
//!
//! `ECLAIR_NO_CACHE=1` bypasses the cache (checked per walk, so a harness
//! can flip it between legs), and [`scoped_cache_off`] bypasses it for one
//! session on one thread, mirroring `Session::set_cache_enabled`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

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

/// Entries the layout cache refuses to grow past. No eviction: page
/// signatures repeat heavily (that is the whole point), so a cap merely
/// bounds a pathological workload without perturbing steady-state counts.
const LAYOUT_CACHE_CAP: usize = 8192;

fn text_width(s: &str, char_w: u32) -> u32 {
    s.chars().count() as u32 * char_w
}

/// Per-thread scratch reused across layout walks: the child-id stack the
/// container pass iterates (replacing a per-container `Vec` clone) and the
/// bounds write log. Freed wholesale (truncated) when a walk finishes;
/// capacity persists.
#[derive(Default)]
struct Scratch {
    kids: Vec<WidgetId>,
    log: Vec<WriteEntry>,
}

#[derive(Clone, Copy)]
struct WriteEntry {
    slot: u32,
    bounds: Rect,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    static CACHE_OFF_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard disabling the layout cache on this thread while held.
/// Mirrors `Session::set_cache_enabled(false)`: the session's layouts run
/// for real without poking the process-wide cache.
pub struct LayoutCacheOff(());

/// Disable the layout cache on this thread until the guard drops.
pub fn scoped_cache_off() -> LayoutCacheOff {
    CACHE_OFF_DEPTH.with(|d| d.set(d.get() + 1));
    LayoutCacheOff(())
}

impl Drop for LayoutCacheOff {
    fn drop(&mut self) {
        CACHE_OFF_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

fn cache_bypassed() -> bool {
    // Re-read the env every walk: perf_bench flips ECLAIR_NO_CACHE between
    // legs of one process.
    crate::session::no_cache_env() || CACHE_OFF_DEPTH.with(|d| d.get() > 0)
}

struct CacheEntry {
    writes: Vec<WriteEntry>,
    content_height: u32,
}

fn layout_cache() -> &'static Mutex<HashMap<u64, Arc<CacheEntry>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<CacheEntry>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Signature over exactly the widget fields a layout walk reads: kind,
/// visibility, heading level, pinned sizes, label (as its interned id —
/// equal ids iff equal strings, so this is collision-free by construction
/// for the label part), and child topology. Values, names, placeholders,
/// options, and enabled flags are invisible to layout and deliberately
/// excluded — editing a field must not change the page's layout identity.
fn layout_sig(widgets: &[Widget], root: WidgetId) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv(h, root.0 as u64);
    h = fnv(h, widgets.len() as u64);
    for w in widgets {
        h = fnv(
            h,
            (w.kind as u64)
                | ((w.visible as u64) << 8)
                | ((w.level as u64) << 16)
                | ((w.label.id() as u64) << 32),
        );
        h = fnv(
            h,
            (w.fixed_w.map_or(0, |v| v as u64 + 1)) | (w.fixed_h.map_or(0, |v| v as u64 + 1) << 32),
        );
        h = fnv(h, w.children.len() as u64);
        for c in &w.children {
            h = fnv(h, c.0 as u64);
        }
    }
    h
}

/// Lay out the widgets from `root`; fills every widget's `bounds` in
/// page coordinates and returns the total content height.
///
/// Served from the global layout cache when an identical walk already ran
/// (`layout_cache_hits`); otherwise the full walk runs (`relayouts_full`)
/// and its write log is cached for replay.
pub fn layout_page(widgets: &mut [Widget], root: WidgetId) -> u32 {
    if cache_bypassed() {
        perf::record(|c| c.relayouts_full += 1);
        return SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            scratch.log.clear();
            let h = walk_page(widgets, root, scratch);
            scratch.kids.clear();
            scratch.log.clear();
            h
        });
    }
    let sig = layout_sig(widgets, root);
    let mut cache = layout_cache().lock().expect("layout cache poisoned");
    if let Some(entry) = cache.get(&sig).cloned() {
        drop(cache);
        for e in &entry.writes {
            widgets[e.slot as usize].bounds = e.bounds;
        }
        perf::record(|c| c.layout_cache_hits += 1);
        return entry.content_height;
    }
    // Compute inside the lock: concurrent walks of the same signature
    // coalesce into one miss, keeping fleet-merged counts deterministic.
    let h = SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        scratch.log.clear();
        let h = walk_page(widgets, root, scratch);
        if cache.len() < LAYOUT_CACHE_CAP {
            cache.insert(
                sig,
                Arc::new(CacheEntry {
                    writes: scratch.log.clone(),
                    content_height: h,
                }),
            );
        }
        scratch.kids.clear();
        scratch.log.clear();
        h
    });
    perf::record(|c| c.relayouts_full += 1);
    h
}

/// The uncached full walk: flow pass from the root, then the modal and
/// toast overlay passes. Every bounds write goes through the scratch log
/// so a cache entry can replay it exactly.
fn walk_page(widgets: &mut [Widget], root: WidgetId, scratch: &mut Scratch) -> u32 {
    let avail = PAGE_W - 2 * PAGE_PAD;
    let used = place(
        widgets,
        scratch,
        root,
        PAGE_PAD as i32,
        PAGE_PAD as i32,
        avail,
    );
    // Overlay pass: modals are centered over the content, not in flow.
    let modal_start = scratch.kids.len();
    scratch.kids.extend(
        widgets
            .iter()
            .filter(|w| w.kind == WidgetKind::Modal && w.visible)
            .map(|w| w.id),
    );
    for i in modal_start..scratch.kids.len() {
        let m = scratch.kids[i];
        let x = ((PAGE_W - MODAL_W) / 2) as i32;
        place(widgets, scratch, m, x, 140, MODAL_W);
    }
    scratch.kids.truncate(modal_start);
    place_toasts(widgets, scratch);
    used.h + 2 * PAGE_PAD
}

/// Toasts float at the top-right, stacked, without reflowing content.
fn place_toasts(widgets: &mut [Widget], scratch: &mut Scratch) {
    let start = scratch.kids.len();
    scratch.kids.extend(
        widgets
            .iter()
            .filter(|w| w.kind == WidgetKind::Toast && w.visible)
            .map(|w| w.id),
    );
    let mut toast_y = 16i32;
    for i in start..scratch.kids.len() {
        let t = scratch.kids[i];
        let size = leaf_size(&widgets[t.index()], 480);
        let x = PAGE_W as i32 - size.w as i32 - 24;
        set_bounds(widgets, scratch, t.0, Rect::new(x, toast_y, size.w, size.h));
        toast_y += size.h as i32 + 8;
    }
    scratch.kids.truncate(start);
}

#[inline]
fn set_bounds(widgets: &mut [Widget], scratch: &mut Scratch, slot: u32, bounds: Rect) {
    widgets[slot as usize].bounds = bounds;
    scratch.log.push(WriteEntry { slot, bounds });
}

/// Recursively place `id` at (x, y) with `avail_w` of horizontal room.
/// Returns the size consumed.
fn place(
    widgets: &mut [Widget],
    scratch: &mut Scratch,
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
        set_bounds(widgets, scratch, id.0, Rect::new(x, y, 0, 0));
        return Size::new(0, 0);
    }
    // A pinned width constrains the widget and everything inside it.
    let avail_w = fixed_w.map(|f| f.min(avail_w)).unwrap_or(avail_w);
    // Table cells holding widgets (e.g. a link) lay out as containers.
    let as_container = kind.is_container() || (kind == WidgetKind::TableCell && has_children);
    let size = if as_container {
        place_container(widgets, scratch, id, x, y, avail_w, kind)
    } else {
        leaf_size(&widgets[id.index()], avail_w)
    };
    set_bounds(widgets, scratch, id.0, Rect::new(x, y, size.w, size.h));
    size
}

#[allow(clippy::too_many_arguments)]
fn place_container(
    widgets: &mut [Widget],
    scratch: &mut Scratch,
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
    // Children go onto the shared scratch stack (a range per recursion
    // level) instead of a cloned Vec per container.
    let start = scratch.kids.len();
    scratch
        .kids
        .extend_from_slice(widgets[id.index()].children.as_slice());
    let end = scratch.kids.len();
    let inner_w = avail_w.saturating_sub(2 * pad).max(CHAR_W);
    let mut cx = x + pad as i32;
    let mut cy = y + pad as i32;
    let mut max_w = 0u32;
    let mut max_h = 0u32;
    let mut first = true;
    for i in start..end {
        let child = scratch.kids[i];
        let ck = widgets[child.index()].kind;
        if ck == WidgetKind::Modal || ck == WidgetKind::Toast {
            continue; // the overlay pass places modals and toasts
        }
        if !widgets[child.index()].visible {
            set_bounds(widgets, scratch, child.0, Rect::new(cx, cy, 0, 0));
            continue;
        }
        if horizontal {
            if !first {
                cx += gap_h as i32;
            }
            let remaining = (x + pad as i32 + inner_w as i32 - cx).max(CHAR_W as i32) as u32;
            let s = place(widgets, scratch, child, cx, cy, remaining);
            cx += s.w as i32;
            max_h = max_h.max(s.h);
            max_w = ((cx - x) as u32).saturating_sub(pad);
        } else {
            if !first {
                cy += gap_v as i32;
            }
            let s = place(widgets, scratch, child, cx, cy, inner_w);
            cy += s.h as i32;
            max_w = max_w.max(s.w);
            max_h = ((cy - y) as u32).saturating_sub(pad);
        }
        first = false;
    }
    scratch.kids.truncate(start);
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

    #[test]
    fn cached_walk_replays_identical_bounds() {
        // Two separately built copies of an identical page must come out
        // of `finish()` with identical geometry whether the second build
        // was served from the layout cache or not.
        let build = || {
            let mut b = PageBuilder::new("cache-replay", "/cache-replay");
            b.heading(1, "Cache replay");
            b.form("f", |b| {
                b.text_input("x", "Field", "hint");
                b.button("go", "Go");
            });
            b.finish()
        };
        let a = build();
        let b = build();
        for (wa, wb) in a.iter().zip(b.iter()) {
            assert_eq!(wa.bounds, wb.bounds, "{:?} '{}'", wa.kind, wa.label);
        }
        assert_eq!(a.content_height, b.content_height);
    }

    #[test]
    fn layout_sig_ignores_values_but_not_labels() {
        let build = |label: &str, value: &str| {
            let mut b = PageBuilder::new("sig", "/sig");
            let id = b.text_input("f", label, "hint");
            let mut p = b.finish();
            p.get_mut(id).value = value.into();
            p
        };
        let base = build("Name", "");
        let edited = build("Name", "Ada");
        let relabeled = build("Full name", "");
        use crate::tree::Page;
        let sig = |p: &Page| layout_sig(p.widgets(), p.root());
        assert_eq!(sig(&base), sig(&edited), "values are layout-invisible");
        assert_ne!(sig(&base), sig(&relabeled), "labels size widgets");
    }
}
