//! The page and its builder DSL.
//!
//! A [`Page`] stores widgets in one append-only `Vec` indexed by
//! [`WidgetId`]: cheap to clone for screenshot snapshots, friendly to the
//! borrow checker, and directly sliceable for the layout engine. Apps
//! rebuild their page from scratch after every event, so no slot is ever
//! compacted or reused: widgets added to a built page (drift banners,
//! injected popups) are appended, and [`Page::remove_subtree`] leaves
//! inert tombstones behind.
//!
//! [`PageBuilder`] is the DSL the simulated sites use to describe screens;
//! `finish()` runs the layout engine so every widget has pixel bounds.
//! After any geometry change, [`Page::relayout`] re-runs the full walk.
//!
//! Widget vectors are recycled: a dropped page hands its vector, cleared,
//! to a short per-thread list of spares, and [`PageBuilder::new`] takes
//! one from there, so an app that re-renders its screen after every event
//! builds into a vector that already has room.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::geometry::{Point, Rect};
use crate::intern::Sym;
use crate::layout;
use crate::widget::{Widget, WidgetId, WidgetKind};

/// Most widget vectors a thread keeps as spares. A thread drives a
/// session or two at a time, and a rebuild holds the live page beside the
/// fresh build, so a few spares serve every build; more would only hold
/// memory.
const SPARES: usize = 4;

thread_local! {
    /// Widget vectors of dropped pages: cleared, but with their capacity,
    /// so a warm thread builds pages without growing vectors.
    static SPARE_WIDGETS: RefCell<Vec<Vec<Widget>>> = const { RefCell::new(Vec::new()) };
}

/// A spare widget vector when this thread has one, else a new one.
fn take_spare() -> Vec<Widget> {
    SPARE_WIDGETS
        .try_with(|s| s.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Clear `v` and keep it for a later [`take_spare`] on this thread,
/// unless the thread already keeps [`SPARES`] of them.
fn keep_spare(mut v: Vec<Widget>) {
    v.clear();
    // During thread-local teardown the list may be gone: drop the vector.
    let _ = SPARE_WIDGETS.try_with(|s| {
        let mut list = s.borrow_mut();
        if list.len() < SPARES {
            list.push(v);
        }
    });
}

/// A fully built screen: widgets + metadata + computed layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Page {
    /// Window / document title.
    pub title: String,
    /// The route this page renders (e.g. `/gitlab/project/3/issues/new`).
    pub url: String,
    widgets: Vec<Widget>,
    root: WidgetId,
    /// Total laid-out content height in pixels (may exceed the viewport).
    pub content_height: u32,
}

impl Page {
    /// Number of widgets (including containers and any tombstones).
    pub fn len(&self) -> usize {
        self.widgets.len()
    }

    /// True when the page holds only its root.
    pub fn is_empty(&self) -> bool {
        self.widgets.len() <= 1
    }

    /// The root widget id.
    pub fn root(&self) -> WidgetId {
        self.root
    }

    /// Borrow a widget.
    ///
    /// # Panics
    /// Panics on a stale/foreign id — ids are only valid for the page that
    /// created them.
    pub fn get(&self, id: WidgetId) -> &Widget {
        &self.widgets[id.index()]
    }

    /// Mutably borrow a widget. Call [`Page::relayout`] after changing
    /// anything layout reads.
    pub fn get_mut(&mut self, id: WidgetId) -> &mut Widget {
        &mut self.widgets[id.index()]
    }

    /// Iterate over all widgets in build (pre-)order.
    pub fn iter(&self) -> impl Iterator<Item = &Widget> {
        self.widgets.iter()
    }

    /// Iterate over widgets that are visible *and* all of whose ancestors
    /// are visible.
    pub fn visible_iter(&self) -> impl Iterator<Item = &Widget> + '_ {
        self.widgets.iter().filter(move |w| self.is_shown(w.id))
    }

    /// Whether `id` and all its ancestors are visible.
    pub fn is_shown(&self, id: WidgetId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let w = self.get(c);
            if !w.visible {
                return false;
            }
            cur = w.parent;
        }
        true
    }

    /// Depth-first paint order starting at the root: parents before
    /// children, siblings in child order, modals last (they overlay).
    pub fn paint_order(&self) -> Vec<WidgetId> {
        let mut order = Vec::with_capacity(self.widgets.len());
        let mut overlays = Vec::new();
        self.walk(self.root, &mut |w| {
            if w.kind == WidgetKind::Modal || w.kind == WidgetKind::Toast {
                overlays.push(w.id);
                false // subtree painted in the overlay pass
            } else {
                order.push(w.id);
                true
            }
        });
        for m in overlays {
            self.walk(m, &mut |w| {
                order.push(w.id);
                true
            });
        }
        order
    }

    fn walk(&self, id: WidgetId, f: &mut impl FnMut(&Widget) -> bool) {
        let w = self.get(id);
        if !w.visible {
            return;
        }
        if !f(w) {
            return;
        }
        for &c in &w.children {
            self.walk(c, f);
        }
    }

    /// The topmost open modal, if any.
    pub fn active_modal(&self) -> Option<WidgetId> {
        self.widgets
            .iter()
            .rev()
            .find(|w| w.kind == WidgetKind::Modal && self.is_shown(w.id))
            .map(|w| w.id)
    }

    /// Whether `id` is `ancestor` or a descendant of it.
    pub fn is_within(&self, id: WidgetId, ancestor: WidgetId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.get(c).parent;
        }
        false
    }

    /// Hit-test a point in *page coordinates*: returns the topmost visible,
    /// enabled, interactive widget containing the point. An open modal
    /// captures all input (clicks outside it hit nothing), mirroring real
    /// dialog behaviour — and the paper's "irrelevant pop-up appears"
    /// failure mode.
    pub fn hit_test(&self, p: Point) -> Option<WidgetId> {
        let modal = self.active_modal();
        let mut hit = None;
        for id in self.paint_order() {
            let w = self.get(id);
            if let Some(m) = modal {
                if !self.is_within(id, m) {
                    continue;
                }
            }
            if w.kind.is_interactive() && w.enabled && w.bounds.contains(p) {
                hit = Some(id); // later in paint order = drawn on top
            }
        }
        hit
    }

    /// First widget whose visible label equals `label` (case-insensitive,
    /// trimmed), filtered to interactive kinds when `interactive_only`.
    pub fn find_by_label(&self, label: &str, interactive_only: bool) -> Option<WidgetId> {
        let needle = label.trim().to_lowercase();
        self.paint_order().into_iter().find(|&id| {
            let w = self.get(id);
            (!interactive_only || w.kind.is_interactive())
                && w.label.trim().to_lowercase() == needle
        })
    }

    /// All widgets whose label equals `label` (case-insensitive).
    pub fn find_all_by_label(&self, label: &str) -> Vec<WidgetId> {
        let needle = label.trim().to_lowercase();
        self.paint_order()
            .into_iter()
            .filter(|&id| self.get(id).label.trim().to_lowercase() == needle)
            .collect()
    }

    /// First widget with the given programmatic `name`.
    pub fn find_by_name(&self, name: &str) -> Option<WidgetId> {
        self.widgets.iter().find(|w| w.name == name).map(|w| w.id)
    }

    /// The nearest enclosing [`WidgetKind::Form`] of `id`, if any.
    pub fn enclosing_form(&self, id: WidgetId) -> Option<WidgetId> {
        let mut cur = self.get(id).parent;
        while let Some(c) = cur {
            if self.get(c).kind == WidgetKind::Form {
                return Some(c);
            }
            cur = self.get(c).parent;
        }
        None
    }

    /// Collect `(name, value)` pairs of every named editable/toggleable
    /// widget under `root_id` (a form, or the page root).
    pub fn field_values(&self, root_id: WidgetId) -> Vec<(String, String)> {
        let mut fields = Vec::new();
        self.walk(root_id, &mut |w| {
            if !w.name.is_empty() && (w.kind.is_editable() || w.kind.is_toggleable()) {
                fields.push((w.name.to_string(), w.value.to_string()));
            }
            true
        });
        fields
    }

    /// All interactive widgets in paint order (for set-of-marks candidates).
    pub fn interactive_widgets(&self) -> Vec<WidgetId> {
        self.paint_order()
            .into_iter()
            .filter(|&id| self.get(id).kind.is_interactive())
            .collect()
    }

    /// Render this page into a screenshot at a scroll offset, without a
    /// caret. Session-driven captures (which know focus and blink phase)
    /// should use [`crate::session::Session::screenshot`]; this standalone
    /// variant serves static corpora (e.g. the Table 3 grounding pages).
    pub fn screenshot_at(&self, scroll_y: i32) -> crate::screenshot::Screenshot {
        crate::screenshot::Screenshot::render(
            &self.url,
            &self.title,
            &self.widgets,
            &self.paint_order(),
            scroll_y,
            None,
        )
    }

    /// How many items [`Page::screenshot_at`] paints at `scroll_y`, counted
    /// without rendering the frame. The count does not depend on paint
    /// order, so a plain walk of the shown widgets gives it.
    pub fn painted_count(&self, scroll_y: i32) -> usize {
        let viewport = Rect::new(0, scroll_y, crate::VIEWPORT.w, crate::VIEWPORT.h);
        let mut n = 0;
        self.walk(self.root, &mut |w| {
            n += usize::from(crate::screenshot::paints(w, &viewport));
            true
        });
        n
    }

    /// Recompute the full layout (after any geometry change: structural
    /// mutation, theme application, a dismissed popup).
    pub fn relayout(&mut self) {
        self.content_height = layout::layout_page(&mut self.widgets, self.root);
    }

    /// Remove `id` and its whole subtree from the page: detaches it from
    /// its parent's child list and leaves a tombstone in each of its
    /// slots. Ids stay positional, so nothing else moves. The root and an
    /// already-removed widget (both parentless) cannot be removed.
    /// Returns whether anything was removed; call [`Page::relayout`]
    /// afterwards.
    pub fn remove_subtree(&mut self, id: WidgetId) -> bool {
        let Some(pid) = self.get(id).parent else {
            return false;
        };
        self.widgets[pid.index()].children.remove_item(id);
        let mut stack = vec![id];
        while let Some(s) = stack.pop() {
            stack.extend(self.get(s).children.iter().copied());
            self.widgets[s.index()] = Widget::tombstone(s);
        }
        true
    }

    /// Internal: raw widget slice (used by layout and html modules).
    /// Includes tombstones; they are invisible, unnamed, and unreachable
    /// from the root.
    pub(crate) fn widgets(&self) -> &[Widget] {
        &self.widgets
    }

    /// Internal: append a fully-initialized widget (caller is responsible
    /// for wiring `parent`/`children`); returns the assigned id. Used by
    /// drift ops and fault injectors.
    pub(crate) fn push_widget(&mut self, mut w: Widget) -> WidgetId {
        let id = WidgetId(u32::try_from(self.widgets.len()).expect("page overflow"));
        w.id = id;
        self.widgets.push(w);
        id
    }

    /// Overlay a modal dialog (one text line plus a dismiss button) onto
    /// an already-built page and re-run layout. Used by fault injectors
    /// (`eclair-chaos`) to reproduce the paper's "irrelevant pop-up
    /// appears" scenario on arbitrary screens; the modal captures input
    /// exactly like a builder-made one (see [`Page::hit_test`]).
    pub fn inject_modal(
        &mut self,
        name: &str,
        text: &str,
        button_name: &str,
        button_label: &str,
    ) -> WidgetId {
        let root = self.root();
        let mut modal = Widget::new(WidgetKind::Modal);
        modal.name = name.into();
        modal.parent = Some(root);
        let modal_id = self.push_widget(modal);
        let mut body = Widget::new(WidgetKind::Text);
        body.label = text.into();
        body.parent = Some(modal_id);
        let body_id = self.push_widget(body);
        let mut btn = Widget::new(WidgetKind::Button);
        btn.name = button_name.into();
        btn.label = button_label.into();
        btn.parent = Some(modal_id);
        let btn_id = self.push_widget(btn);
        self.get_mut(modal_id).children = vec![body_id, btn_id].into();
        self.get_mut(root).children.push(modal_id);
        self.relayout();
        modal_id
    }
}

/// Hands the widget vector to the next [`PageBuilder::new`] on this thread.
impl Drop for Page {
    fn drop(&mut self) {
        keep_spare(std::mem::take(&mut self.widgets));
    }
}

/// Builder DSL for pages. Containers nest through closures:
///
/// ```
/// use eclair_gui::{PageBuilder, WidgetKind};
///
/// let mut b = PageBuilder::new("Issues", "/project/1/issues");
/// b.heading(1, "Issues");
/// b.row(|b| {
///     b.button("new-issue", "New issue");
///     b.link("export", "Export as CSV");
/// });
/// let page = b.finish();
/// assert!(page.find_by_label("New issue", true).is_some());
/// assert!(page.get(page.find_by_label("New issue", true).unwrap()).bounds.w > 0);
/// ```
#[derive(Debug)]
pub struct PageBuilder {
    title: String,
    url: String,
    widgets: Vec<Widget>,
    stack: Vec<WidgetId>,
}

impl PageBuilder {
    /// Start a page with a title and route.
    pub fn new(title: impl Into<String>, url: impl Into<String>) -> Self {
        let mut root = Widget::new(WidgetKind::Root);
        root.id = WidgetId(0);
        let mut widgets = take_spare();
        widgets.push(root);
        Self {
            title: title.into(),
            url: url.into(),
            widgets,
            stack: vec![WidgetId(0)],
        }
    }

    fn attach(&mut self, mut w: Widget) -> WidgetId {
        let id = WidgetId(self.widgets.len() as u32);
        let parent = *self.stack.last().expect("builder stack never empty");
        w.id = id;
        w.parent = Some(parent);
        self.widgets.push(w);
        self.widgets[parent.index()].children.push(id);
        id
    }

    /// Add an arbitrary pre-configured widget.
    pub fn push(&mut self, w: Widget) -> WidgetId {
        self.attach(w)
    }

    /// Open a container of `kind`, run `f` inside it, close it.
    pub fn container(&mut self, kind: WidgetKind, f: impl FnOnce(&mut Self)) -> WidgetId {
        let id = self.attach(Widget::new(kind));
        self.stack.push(id);
        f(self);
        self.stack.pop();
        id
    }

    /// Vertical grouping.
    pub fn section(&mut self, f: impl FnOnce(&mut Self)) -> WidgetId {
        self.container(WidgetKind::Section, f)
    }

    /// Horizontal grouping.
    pub fn row(&mut self, f: impl FnOnce(&mut Self)) -> WidgetId {
        self.container(WidgetKind::Row, f)
    }

    /// A named form; submit gathers its descendants' values.
    pub fn form(&mut self, name: impl Into<Sym>, f: impl FnOnce(&mut Self)) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Form);
        w.name = name.into();
        let id = self.attach(w);
        self.stack.push(id);
        f(self);
        self.stack.pop();
        id
    }

    /// A modal dialog overlaying the page.
    pub fn modal(&mut self, name: impl Into<Sym>, f: impl FnOnce(&mut Self)) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Modal);
        w.name = name.into();
        let id = self.attach(w);
        self.stack.push(id);
        f(self);
        self.stack.pop();
        id
    }

    /// Heading text at `level` 1–3.
    pub fn heading(&mut self, level: u8, text: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Heading);
        w.level = level.clamp(1, 3);
        w.label = text.into();
        self.attach(w)
    }

    /// Static body text.
    pub fn text(&mut self, text: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Text);
        w.label = text.into();
        self.attach(w)
    }

    /// A push button.
    pub fn button(&mut self, name: impl Into<Sym>, label: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Button);
        w.name = name.into();
        w.label = label.into();
        self.attach(w)
    }

    /// An icon-only activatable control (renders as a glyph; HTML tag `svg`).
    /// `label` is its accessible name, never painted.
    pub fn icon_button(&mut self, name: impl Into<Sym>, label: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Icon);
        w.name = name.into();
        w.label = label.into();
        self.attach(w)
    }

    /// A hyperlink.
    pub fn link(&mut self, name: impl Into<Sym>, label: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Link);
        w.name = name.into();
        w.label = label.into();
        self.attach(w)
    }

    /// A labelled single-line text input. Renders as a caption line plus the
    /// input box; the returned id is the *input's*.
    pub fn text_input(
        &mut self,
        name: impl Into<Sym>,
        label: impl Into<Sym>,
        placeholder: impl Into<Sym>,
    ) -> WidgetId {
        self.labelled_input(WidgetKind::TextInput, name, label, placeholder)
    }

    /// A labelled multi-line text area.
    pub fn textarea(
        &mut self,
        name: impl Into<Sym>,
        label: impl Into<Sym>,
        placeholder: impl Into<Sym>,
    ) -> WidgetId {
        self.labelled_input(WidgetKind::TextArea, name, label, placeholder)
    }

    /// A labelled masked input.
    pub fn password(&mut self, name: impl Into<Sym>, label: impl Into<Sym>) -> WidgetId {
        self.labelled_input(WidgetKind::PasswordInput, name, label, "")
    }

    fn labelled_input(
        &mut self,
        kind: WidgetKind,
        name: impl Into<Sym>,
        label: impl Into<Sym>,
        placeholder: impl Into<Sym>,
    ) -> WidgetId {
        let label = label.into();
        let mut input = Widget::new(kind);
        input.name = name.into();
        input.label = label;
        input.placeholder = placeholder.into();
        let mut out = WidgetId(u32::MAX);
        self.container(WidgetKind::Section, |b| {
            if !label.is_empty() {
                b.text(label);
            }
            out = b.attach(input);
        });
        out
    }

    /// A labelled checkbox; `checked` sets the initial state.
    pub fn checkbox(
        &mut self,
        name: impl Into<Sym>,
        label: impl Into<Sym>,
        checked: bool,
    ) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Checkbox);
        w.name = name.into();
        w.label = label.into();
        w.value = if checked { "true" } else { "false" }.into();
        self.attach(w)
    }

    /// A radio chip sharing `name` with its alternatives.
    pub fn radio(
        &mut self,
        name: impl Into<Sym>,
        label: impl Into<Sym>,
        checked: bool,
    ) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Radio);
        w.name = name.into();
        w.label = label.into();
        w.value = if checked { "true" } else { "false" }.into();
        self.attach(w)
    }

    /// A labelled combo box. Typing into a focused select snaps the value to
    /// the best-matching option.
    pub fn select(
        &mut self,
        name: impl Into<Sym>,
        label: impl Into<Sym>,
        options: &[&str],
        selected: Option<&str>,
    ) -> WidgetId {
        let label = label.into();
        let mut sel = Widget::new(WidgetKind::Select);
        sel.name = name.into();
        sel.label = label;
        sel.placeholder = "Select...".into();
        sel.options = options.iter().map(|&s| Sym::from(s)).collect();
        sel.value = selected.unwrap_or("").into();
        let mut out = WidgetId(u32::MAX);
        self.container(WidgetKind::Section, |b| {
            if !label.is_empty() {
                b.text(label);
            }
            out = b.attach(sel);
        });
        out
    }

    /// A tab header.
    pub fn tab(&mut self, name: impl Into<Sym>, label: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Tab);
        w.name = name.into();
        w.label = label.into();
        self.attach(w)
    }

    /// A status pill.
    pub fn badge(&mut self, label: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Badge);
        w.label = label.into();
        self.attach(w)
    }

    /// A transient notification bar.
    pub fn toast(&mut self, text: impl Into<Sym>) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Toast);
        w.label = text.into();
        self.attach(w)
    }

    /// An image placeholder with alt text.
    pub fn image(&mut self, alt: impl Into<Sym>, w_px: u32, h_px: u32) -> WidgetId {
        let mut w = Widget::new(WidgetKind::Image);
        w.label = alt.into();
        w.fixed_w = Some(w_px);
        w.fixed_h = Some(h_px);
        self.attach(w)
    }

    /// A horizontal rule.
    pub fn divider(&mut self) -> WidgetId {
        self.attach(Widget::new(WidgetKind::Divider))
    }

    /// A simple data table: a header row plus one row per entry. Each cell
    /// may optionally be a link (`Some(name)` makes the cell text a link with
    /// that programmatic name).
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<(String, Option<String>)>]) -> WidgetId {
        let ncols = headers.len().max(1) as u32;
        let cell_w = (1180 / ncols).max(60);
        self.container(WidgetKind::Section, |b| {
            b.container(WidgetKind::TableRow, |b| {
                for h in headers {
                    let mut c = Widget::new(WidgetKind::TableCell);
                    c.label = (*h).into();
                    c.fixed_w = Some(cell_w);
                    b.attach(c);
                }
            });
            for row in rows {
                b.container(WidgetKind::TableRow, |b| {
                    for (text, link_name) in row {
                        let mut c = Widget::new(WidgetKind::TableCell);
                        c.fixed_w = Some(cell_w);
                        match link_name {
                            Some(name) => {
                                let cid = b.attach(c);
                                b.stack.push(cid);
                                b.link(name.as_str(), text.as_str());
                                b.stack.pop();
                            }
                            None => {
                                c.label = text.as_str().into();
                                b.attach(c);
                            }
                        }
                    }
                });
            }
        })
    }

    /// Finish the page: runs layout and returns the immutable result.
    pub fn finish(self) -> Page {
        let mut page = Page {
            title: self.title,
            url: self.url,
            widgets: self.widgets,
            root: WidgetId(0),
            content_height: 0,
        };
        page.relayout();
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_page() -> Page {
        let mut b = PageBuilder::new("Sample", "/sample");
        b.heading(1, "Create issue");
        b.form("issue-form", |b| {
            b.text_input("title", "Title", "Issue title");
            b.textarea("description", "Description", "Describe the issue");
            b.checkbox("confidential", "This issue is confidential", false);
            b.row(|b| {
                b.button("submit", "Create issue");
                b.link("cancel", "Cancel");
            });
        });
        b.finish()
    }

    #[test]
    fn builder_creates_hierarchy() {
        let p = sample_page();
        let title = p.find_by_name("title").unwrap();
        let form = p.enclosing_form(title).unwrap();
        assert_eq!(p.get(form).name, "issue-form");
        let submit = p.find_by_label("Create issue", true).unwrap();
        assert_eq!(p.get(submit).kind, WidgetKind::Button);
    }

    #[test]
    fn field_values_collects_named_inputs() {
        let mut p = sample_page();
        let title = p.find_by_name("title").unwrap();
        p.get_mut(title).value = "Login broken".into();
        let form = p.enclosing_form(title).unwrap();
        let fields = p.field_values(form);
        assert!(fields.contains(&("title".into(), "Login broken".into())));
        assert!(fields.contains(&("confidential".into(), "false".into())));
        assert_eq!(fields.len(), 3);
    }

    #[test]
    fn hit_test_returns_topmost_interactive() {
        let p = sample_page();
        let submit = p.find_by_label("Create issue", true).unwrap();
        let center = p.get(submit).bounds.center();
        assert_eq!(p.hit_test(center), Some(submit));
        // A point in the page margin hits nothing.
        assert_eq!(p.hit_test(Point::new(1279, 719)), None);
    }

    #[test]
    fn modal_captures_input() {
        let mut b = PageBuilder::new("m", "/m");
        b.button("below", "Below button");
        b.modal("confirm", |b| {
            b.text("Are you sure?");
            b.button("yes", "Yes");
        });
        let p = b.finish();
        let below = p.find_by_name("below").unwrap();
        let below_center = p.get(below).bounds.center();
        // The button under the modal is unreachable even at its own center
        // (unless the modal happens to cover it, in which case the modal's
        // own widgets win; either way "below" is not hit).
        assert_ne!(p.hit_test(below_center), Some(below));
        let yes = p.find_by_name("yes").unwrap();
        assert_eq!(p.hit_test(p.get(yes).bounds.center()), Some(yes));
        assert_eq!(p.active_modal(), Some(p.find_by_name("confirm").unwrap()));
    }

    #[test]
    fn invisible_subtrees_are_skipped() {
        let mut p = sample_page();
        let form_id = p.find_by_name("issue-form").unwrap();
        p.get_mut(form_id).visible = false;
        let title = p.find_by_name("title").unwrap();
        assert!(!p.is_shown(title));
        assert!(!p.visible_iter().any(|w| w.id == title));
    }

    #[test]
    fn duplicate_labels_are_all_found() {
        let mut b = PageBuilder::new("dup", "/dup");
        b.button("a", "Delete");
        b.button("b", "Delete");
        let p = b.finish();
        assert_eq!(p.find_all_by_label("Delete").len(), 2);
    }

    #[test]
    fn table_builder_produces_cells_and_links() {
        let mut b = PageBuilder::new("t", "/t");
        b.table(
            &["Name", "Status"],
            &[
                vec![
                    ("proj-alpha".into(), Some("open-alpha".into())),
                    ("active".into(), None),
                ],
                vec![
                    ("proj-beta".into(), Some("open-beta".into())),
                    ("archived".into(), None),
                ],
            ],
        );
        let p = b.finish();
        assert!(p.find_by_name("open-alpha").is_some());
        let link = p.find_by_label("proj-beta", true).unwrap();
        assert_eq!(p.get(link).kind, WidgetKind::Link);
    }

    #[test]
    fn remove_subtree_vacates_and_reuses_slots() {
        // Removal tombstones in place; a later insertion is appended.
        let mut p = sample_page();
        let len_before = p.len();
        let root = p.root();
        assert!(!p.remove_subtree(root), "the root cannot be removed");
        let form = p.find_by_name("issue-form").unwrap();
        assert!(p.remove_subtree(form));
        assert!(!p.remove_subtree(form), "a tombstone cannot be removed");
        assert!(!p.get(root).children.contains(&form), "detached");
        assert!(p.find_by_name("title").is_none(), "descendants removed too");
        assert!(p.find_by_label("Create issue", true).is_none());
        assert_eq!(p.len(), len_before, "slots tombstoned, not compacted");
        let modal = p.inject_modal("late", "hello", "ok", "OK");
        assert_eq!(modal.index(), len_before, "insertions are appended");
        assert_eq!(p.len(), len_before + 3);
        let ok = p.find_by_name("ok").unwrap();
        assert_eq!(p.hit_test(p.get(ok).bounds.center()), Some(ok));
    }

    #[test]
    fn paint_order_puts_modals_last() {
        let mut b = PageBuilder::new("m", "/m");
        b.modal("dialog", |b| {
            b.button("in-modal", "OK");
        });
        b.button("after", "After");
        let p = b.finish();
        let order = p.paint_order();
        let modal_pos = order
            .iter()
            .position(|&id| p.get(id).name == "dialog")
            .unwrap();
        let after_pos = order
            .iter()
            .position(|&id| p.get(id).name == "after")
            .unwrap();
        assert!(modal_pos > after_pos, "modal painted after page content");
    }

    #[test]
    fn a_recycled_widget_vector_builds_the_same_page() {
        let spares = || SPARE_WIDGETS.with(|s| s.borrow().len());
        let json = |p: &Page| serde_json::to_string(p).unwrap();
        let fresh = std::thread::spawn(move || {
            assert_eq!(spares(), 0, "a fresh thread has no spare vector");
            json(&sample_page())
        })
        .join()
        .unwrap();
        // Leave a spare holding more, and other, widgets than the page.
        let mut b = PageBuilder::new("Other", "/other");
        for i in 0..40 {
            b.button(format!("b{i}"), format!("Button {i}"));
        }
        drop(b.finish());
        assert_eq!(spares(), 1);
        let page = sample_page();
        assert_eq!(spares(), 0, "the build took the spare vector");
        assert_eq!(json(&page), fresh);
    }

    #[test]
    fn painted_count_equals_the_rendered_item_count() {
        // Every case where a widget in the paint order paints nothing, plus
        // a password box (its bullets are the one text a render interns).
        let mut b = PageBuilder::new("Paint", "/paint");
        b.heading(1, "Sign in");
        let pw = b.password("pw", "Password");
        b.text("");
        b.badge("");
        b.table(
            &["Name", ""],
            &[
                vec![
                    (String::new(), None),
                    ("open".into(), Some("open-1".into())),
                ],
                vec![(String::new(), None), (String::new(), None)],
            ],
        );
        let hidden = b.section(|b| {
            b.button("ghost", "Ghost");
            b.text("Not shown");
        });
        for i in 0..40 {
            b.text(format!("filler {i}"));
        }
        b.modal("confirm", |b| {
            b.text("Really?");
            b.button("yes", "Yes");
        });
        b.toast("Saved");
        let mut p = b.finish();
        p.get_mut(pw).value = "hunter2".into();
        p.get_mut(hidden).visible = false;
        p.relayout();
        let max_scroll = (p.content_height as i32 - crate::VIEWPORT.h as i32).max(0);
        assert!(max_scroll > 800, "the page scrolls past every offset below");
        for scroll in [0, 400, 800, max_scroll, max_scroll + 10_000] {
            let shot = p.screenshot_at(scroll);
            assert_eq!(p.painted_count(scroll), shot.items.len(), "scroll {scroll}");
        }
        let shown = p.paint_order().len();
        assert!(
            p.painted_count(0) < shown,
            "some shown widgets paint nothing"
        );
        assert!(p.painted_count(0) > 0);
    }
}
