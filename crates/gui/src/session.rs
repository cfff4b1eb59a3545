//! The session: owns a running application, a live page, focus, scroll, and
//! the dispatch loop translating raw pixel-level events into application
//! semantics.

use std::sync::Arc;

use crate::event::{Dispatch, EffectKind, Key, SemanticEvent, UserEvent};
use crate::geometry::{Point, Rect};
use crate::intern::Sym;
use crate::screenshot::Screenshot;
use crate::theme::Theme;
use crate::tree::Page;
use crate::widget::{WidgetId, WidgetKind};
use crate::VIEWPORT;

use eclair_trace::perf;

/// Whether `ECLAIR_NO_CACHE=1` is set: the global kill switch that turns
/// off the frame cache everywhere. The cache-transparency invariant says
/// flipping this must not change a single serialized byte.
pub fn no_cache_env() -> bool {
    std::env::var("ECLAIR_NO_CACHE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Most distinct `(scroll, caret)` frames kept per page epoch. Probing
/// loops revisit only a handful of scroll offsets; the cap just bounds
/// memory on pathological drivers.
const FRAME_CACHE_CAP: usize = 32;

/// A simulated application. Implementations hold their domain state (issues,
/// products, invoices, ...) and rebuild their current screen on demand.
///
/// The contract mirrors an Elm-style loop: `build` is a pure render of the
/// current state; `on_event` is the state transition, returning `true` when
/// the state changed in a way that requires re-rendering (navigation,
/// mutation, modal open/close).
pub trait GuiApp {
    /// A short identifier ("gitlab", "magento", ...).
    fn name(&self) -> &str;

    /// The current route.
    fn url(&self) -> String;

    /// Render the current state into a page.
    fn build(&self) -> Page;

    /// Apply a semantic event. Return `true` to have the session rebuild
    /// the page from `build()`.
    fn on_event(&mut self, ev: SemanticEvent) -> bool;

    /// Advance app-side timers (spontaneous popups, toast expiry). Returns
    /// `true` if the screen must be rebuilt. Default: nothing happens.
    fn tick(&mut self) -> bool {
        false
    }

    /// Inspect application state for auditing. Task success predicates and
    /// test oracles query domain facts through string keys (e.g.
    /// `"issue_state:webapp:Login broken"`); agents never call this.
    fn probe(&self, _key: &str) -> Option<String> {
        None
    }
}

/// The accessible name an OS-level recorder resolves for a widget: its
/// label, else (for fields) its placeholder — the same fallback chain
/// screen readers use.
fn accessible_name(w: &crate::widget::Widget) -> Sym {
    if w.label.is_empty() && w.kind.is_editable() && !w.placeholder.is_empty() {
        w.placeholder
    } else {
        w.label
    }
}

/// A live browsing session over a [`GuiApp`].
///
/// The session is the boundary between the pixel world and the application
/// world: it hit-tests clicks, maintains focus and uncommitted form state,
/// applies the [`Theme`] (and its drift) after each rebuild, clamps
/// scrolling, and renders screenshots whose caret blinks as a pure function
/// of the event counter.
pub struct Session {
    app: Box<dyn GuiApp>,
    theme: Theme,
    page: Page,
    scroll_y: i32,
    focus: Option<WidgetId>,
    /// Monotonic event counter; drives caret blink phase.
    frame: u64,
    nav_count: u32,
    /// Names of editable widgets holding uncommitted edits. Rebuilds on
    /// the same URL transplant these values unconditionally — a re-render
    /// (a popup appearing, a widget toggling) must not revert what the
    /// user has typed, even over a prefilled value.
    edited: std::collections::HashSet<Sym>,
    /// Whether the frame cache is on. Defaults to `!no_cache_env()`;
    /// flipping it must be unobservable in any serialized artifact (the
    /// transparency invariant).
    cache_enabled: bool,
    /// Bumped every time the live page is mutated in place or replaced.
    /// Scroll-only dispatches leave it alone — the dirty-tracking signal
    /// the frame cache and the tests key off.
    page_epoch: u64,
    /// Rendered frames for the current page epoch, keyed by what else
    /// feeds `Screenshot::render`: scroll offset and caret rect.
    frame_cache: std::collections::HashMap<(i32, Option<Rect>), Arc<Screenshot>>,
    /// Insertion order of `frame_cache` keys: at capacity the oldest
    /// single frame is evicted, never the whole map (a wholesale clear
    /// turns the 33rd distinct frame into a hit-rate cliff).
    frame_order: std::collections::VecDeque<(i32, Option<Rect>)>,
}

impl Session {
    /// Start a session on `app` with the default (un-drifted) theme.
    pub fn new(app: Box<dyn GuiApp>) -> Self {
        Self::with_theme(app, Theme::default())
    }

    /// Start a session with an explicit theme (used by the drift studies).
    pub fn with_theme(app: Box<dyn GuiApp>, theme: Theme) -> Self {
        let cache_enabled = !no_cache_env();
        let mut page = app.build();
        theme.apply(&mut page);
        Self {
            app,
            theme,
            page,
            scroll_y: 0,
            focus: None,
            frame: 0,
            nav_count: 0,
            edited: std::collections::HashSet::new(),
            cache_enabled,
            page_epoch: 0,
            frame_cache: std::collections::HashMap::new(),
            frame_order: std::collections::VecDeque::new(),
        }
    }

    /// The live page (tests and oracles may inspect it; agents must not).
    pub fn page(&self) -> &Page {
        &self.page
    }

    /// The application's current URL.
    pub fn url(&self) -> String {
        self.app.url()
    }

    /// Direct access to the app for success-predicate evaluation.
    pub fn app(&self) -> &dyn GuiApp {
        self.app.as_ref()
    }

    /// Current scroll offset.
    pub fn scroll_y(&self) -> i32 {
        self.scroll_y
    }

    /// How many navigations (URL changes) happened so far.
    pub fn nav_count(&self) -> u32 {
        self.nav_count
    }

    /// The focused widget, if any (oracle-only knowledge: screenshots do
    /// not expose this except through the caret).
    pub fn focus(&self) -> Option<WidgetId> {
        self.focus
    }

    fn max_scroll(&self) -> i32 {
        (self.page.content_height as i32 - VIEWPORT.h as i32).max(0)
    }

    /// Turn the frame cache on or off for this session (the
    /// `ECLAIR_NO_CACHE=1` path, and per-run toggles).
    pub fn set_cache_enabled(&mut self, on: bool) {
        if self.cache_enabled != on {
            self.cache_enabled = on;
            self.invalidate_frames();
        }
    }

    /// Whether the session's frame cache is on.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Dirty-tracking epoch: bumped by every page mutation and rebuild,
    /// untouched by scroll-only dispatches.
    pub fn page_epoch(&self) -> u64 {
        self.page_epoch
    }

    /// Drop every cached frame. Called on page mutation, and by fault
    /// injectors whose faults displace the page out from under the cache
    /// (layout shifts, stale-frame delivery).
    pub fn invalidate_frames(&mut self) {
        if !self.frame_cache.is_empty() {
            perf::record(|c| c.frame_cache_invalidations += 1);
            self.frame_cache.clear();
            self.frame_order.clear();
        }
    }

    /// Record that the live page changed, in place or by a rebuild: bump
    /// the epoch and drop cached frames.
    fn touch_page(&mut self) {
        self.page_epoch += 1;
        self.invalidate_frames();
    }

    /// Replace the live page with a fresh `app.build()`, themed, and carry
    /// the session state over to it.
    fn rebuild(&mut self, url_changed: bool) {
        let fresh = self.app.build();
        self.touch_page();
        let old = std::mem::replace(&mut self.page, fresh);
        self.theme.apply(&mut self.page);
        self.focus = None;
        if url_changed {
            // Navigation unloads the page; drafts do not survive it.
            self.scroll_y = 0;
            self.edited.clear();
        } else {
            // Same screen re-rendered: keep scroll position and transplant
            // uncommitted form values the rebuild would otherwise wipe.
            // Fields the user actively edited carry over unconditionally
            // (their draft beats whatever the app re-renders, prefilled or
            // not); untouched fields only fill in where the rebuild left
            // them empty.
            self.scroll_y = self.scroll_y.clamp(0, self.max_scroll());
            let names: Vec<(Sym, Sym)> = old
                .iter()
                .filter(|w| !w.name.is_empty() && (w.kind.is_editable() || w.kind.is_toggleable()))
                .map(|w| (w.name, w.value))
                .collect();
            for (name, value) in names {
                if let Some(id) = self.page.find_by_name(&name) {
                    let w = self.page.get_mut(id);
                    if self.edited.contains(&name) || (w.value.is_empty() && !value.is_empty()) {
                        w.value = value;
                    }
                }
            }
        }
    }

    /// Let app-side time pass (popups may appear).
    pub fn tick(&mut self) {
        self.frame += 1;
        if self.app.tick() {
            let url_changed = self.app.url() != self.page.url;
            self.rebuild(url_changed);
        }
    }

    /// Dispatch one raw event and return what it did.
    pub fn dispatch(&mut self, event: UserEvent) -> Dispatch {
        self.frame += 1;
        let url_before = self.app.url();
        let (hit, effect) = match &event {
            UserEvent::Click(p) => self.handle_click(*p),
            UserEvent::Type(text) => (self.focus_hit(), self.handle_type(text)),
            UserEvent::Press(key) => self.handle_key(*key),
            UserEvent::Scroll(dy) => {
                let before = self.scroll_y;
                self.scroll_y = (self.scroll_y + dy).clamp(0, self.max_scroll());
                let eff = if self.scroll_y != before {
                    EffectKind::Scrolled
                } else {
                    EffectKind::NoOp
                };
                (None, eff)
            }
        };
        let url_after = self.app.url();
        if url_after != url_before {
            self.nav_count += 1;
        }
        Dispatch {
            event,
            hit,
            effect,
            url_after,
        }
    }

    fn focus_hit(&self) -> Option<(Sym, Sym)> {
        self.focus.map(|id| {
            let w = self.page.get(id);
            (w.name, accessible_name(w))
        })
    }

    fn handle_click(&mut self, viewport_pt: Point) -> (Option<(Sym, Sym)>, EffectKind) {
        let page_pt = viewport_pt.offset(0, self.scroll_y);
        let Some(id) = self.page.hit_test(page_pt) else {
            self.focus = None;
            return (None, EffectKind::NoOp);
        };
        let w = self.page.get(id);
        let hit = Some((w.name, accessible_name(w)));
        let kind = w.kind;
        if kind.is_editable() {
            self.focus = Some(id);
            return (hit, EffectKind::Focused);
        }
        if kind.is_toggleable() {
            self.focus = None;
            let (name, label, checked) = {
                let w = self.page.get_mut(id);
                let now = w.value != "true";
                w.value = if now { "true" } else { "false" }.into();
                (w.name, w.label, now)
            };
            if kind == WidgetKind::Radio && checked {
                // Uncheck sibling radios sharing the group name.
                let others: Vec<WidgetId> = self
                    .page
                    .iter()
                    .filter(|o| {
                        o.kind == WidgetKind::Radio
                            && o.name == name
                            && o.id != id
                            // Already-unchecked siblings stay untouched (no
                            // dirty mark for a write that changes nothing).
                            && o.value != "false"
                    })
                    .map(|o| o.id)
                    .collect();
                for o in others {
                    self.page.get_mut(o).value = "false".into();
                }
            }
            self.touch_page();
            let rebuild = self.app.on_event(SemanticEvent::Toggled {
                name: name.to_string(),
                label: label.to_string(),
                checked,
            });
            if rebuild {
                self.after_app_event();
            }
            return (hit, EffectKind::Toggled);
        }
        if kind.is_activatable() {
            self.focus = None;
            let fields_root = self.page.enclosing_form(id).unwrap_or(self.page.root());
            let fields = self.page.field_values(fields_root);
            let (name, label) = {
                let w = self.page.get(id);
                (w.name.to_string(), w.label.to_string())
            };
            let rebuild = self.app.on_event(SemanticEvent::Activated {
                name,
                label,
                fields,
            });
            self.edited.clear();
            if rebuild {
                self.after_app_event();
            }
            return (hit, EffectKind::Activated);
        }
        (hit, EffectKind::NoOp)
    }

    fn after_app_event(&mut self) {
        let url_changed = self.app.url() != self.page.url;
        self.rebuild(url_changed);
    }

    fn handle_type(&mut self, text: &str) -> EffectKind {
        let Some(id) = self.focus else {
            // Typing with nothing focused: keystrokes vanish. This is the
            // exact actuation failure the Validate experiments detect.
            return EffectKind::NoOp;
        };
        if !self.page.get(id).enabled || !self.page.get(id).kind.is_editable() {
            return EffectKind::NoOp;
        }
        let before = self.page.get(id).value;
        let w = self.page.get_mut(id);
        if w.kind == WidgetKind::Select {
            // Combo-box behaviour: snap to the best-matching option. Try
            // the accumulated text first; if the field already held a full
            // option (prefilled select), the fresh keystrokes alone are the
            // query — typing "Disabled" over "Enabled" switches options.
            let accumulated = format!("{}{}", w.value, text);
            let find = |query: &str| {
                let lower = query.to_lowercase();
                w.options
                    .iter()
                    .find(|o| o.to_lowercase() == lower)
                    .or_else(|| {
                        w.options
                            .iter()
                            .find(|o| o.to_lowercase().starts_with(&lower))
                    })
                    .or_else(|| w.options.iter().find(|o| o.to_lowercase().contains(&lower)))
                    .copied()
            };
            w.value = find(&accumulated)
                .or_else(|| find(text))
                .unwrap_or_else(|| accumulated.into());
        } else {
            w.value = format!("{}{}", w.value, text).into();
        }
        let name = self.page.get(id).name;
        if !name.is_empty() {
            self.edited.insert(name);
        }
        // Identical-value write (a select snapping back to its current
        // option, an empty text event): the screen cannot have changed, so
        // evicting every cached frame would be pure waste.
        if self.page.get(id).value != before {
            self.touch_page();
        }
        EffectKind::Typed
    }

    fn handle_key(&mut self, key: Key) -> (Option<(Sym, Sym)>, EffectKind) {
        match key {
            Key::Backspace => {
                if let Some(id) = self.focus {
                    let w = self.page.get(id);
                    if w.kind.is_editable() && !w.value.is_empty() {
                        let mut value = w.value.to_string();
                        value.pop();
                        let w = self.page.get_mut(id);
                        w.value = value.into();
                        let name = w.name;
                        if !name.is_empty() {
                            self.edited.insert(name);
                        }
                        self.touch_page();
                        return (self.focus_hit(), EffectKind::Typed);
                    }
                }
                (None, EffectKind::NoOp)
            }
            Key::Tab => {
                let editables: Vec<WidgetId> = self
                    .page
                    .paint_order()
                    .into_iter()
                    .filter(|&id| {
                        let w = self.page.get(id);
                        w.kind.is_editable() && w.enabled
                    })
                    .collect();
                if editables.is_empty() {
                    return (None, EffectKind::NoOp);
                }
                let next = match self
                    .focus
                    .and_then(|f| editables.iter().position(|&e| e == f))
                {
                    Some(pos) => editables[(pos + 1) % editables.len()],
                    None => editables[0],
                };
                self.focus = Some(next);
                (self.focus_hit(), EffectKind::FocusMoved)
            }
            Key::Escape => {
                // Dismiss the topmost modal, else the first visible toast.
                let target = self.page.active_modal().or_else(|| {
                    self.page
                        .iter()
                        .find(|w| w.kind == WidgetKind::Toast && w.visible)
                        .map(|w| w.id)
                });
                let Some(id) = target else {
                    return (None, EffectKind::NoOp);
                };
                let (name, label) = (self.page.get(id).name, self.page.get(id).label);
                let rebuild = self.app.on_event(SemanticEvent::Dismissed {
                    name: name.to_string(),
                });
                if rebuild {
                    self.after_app_event();
                } else {
                    // App does not track it; excise the subtree locally.
                    self.page.remove_subtree(id);
                    self.page.relayout();
                    self.touch_page();
                }
                (Some((name, label)), EffectKind::Dismissed)
            }
            Key::Enter => {
                let Some(focused) = self.focus else {
                    return (None, EffectKind::NoOp);
                };
                if self.page.get(focused).kind == WidgetKind::TextArea {
                    let w = self.page.get_mut(focused);
                    w.value = format!("{}\n", w.value).into();
                    self.touch_page();
                    return (self.focus_hit(), EffectKind::Typed);
                }
                // Submit: activate the enclosing form's first enabled button.
                let Some(form) = self.page.enclosing_form(focused) else {
                    return (None, EffectKind::NoOp);
                };
                let submit = self.find_submit_button(form);
                let Some(btn) = submit else {
                    return (None, EffectKind::NoOp);
                };
                let center = self.page.get(btn).bounds.center();
                let viewport_pt = center.offset(0, -self.scroll_y);
                self.handle_click(viewport_pt)
            }
        }
    }

    fn find_submit_button(&self, form: WidgetId) -> Option<WidgetId> {
        self.page.paint_order().into_iter().find(|&id| {
            let w = self.page.get(id);
            w.kind == WidgetKind::Button && w.enabled && self.page.is_within(id, form)
        })
    }

    /// Page-space caret rect for the focused widget, when blink phase is on.
    fn caret(&self, phase_on: bool) -> Option<Rect> {
        if !phase_on {
            return None;
        }
        let id = self.focus?;
        let w = self.page.get(id);
        if !w.kind.is_editable() {
            return None;
        }
        let text_w = (w.value.chars().count() as i32) * crate::layout::CHAR_W as i32;
        Some(Rect::new(
            w.bounds.x + 6 + text_w.min(w.bounds.w as i32 - 10),
            w.bounds.y + 6,
            2,
            w.bounds.h.saturating_sub(12).max(4),
        ))
    }

    /// Capture a screenshot at the current blink phase (alternates with
    /// every dispatched event, like a ~2 Hz caret under a steady action
    /// rate). A *static* screenshot therefore may or may not show the caret
    /// — the paper's stated reason step-level integrity checking is hard.
    ///
    /// Frames are content-addressed and shared: re-observing an unchanged
    /// page at a scroll/caret state seen this epoch returns the same
    /// `Arc` without re-rendering. The cached frame is byte-identical to
    /// a fresh render (`screenshot_at_phase` is a pure function of page,
    /// scroll, and caret, and every page mutation drops the cache), so
    /// the cache is unobservable except through [`perf`] counters.
    pub fn screenshot(&mut self) -> Arc<Screenshot> {
        let caret_on = self.frame.is_multiple_of(2);
        if !self.cache_enabled {
            return Arc::new(self.screenshot_at_phase(caret_on));
        }
        let key = (self.scroll_y, self.caret(caret_on));
        if let Some(shot) = self.frame_cache.get(&key) {
            perf::record(|c| c.frame_cache_hits += 1);
            return Arc::clone(shot);
        }
        perf::record(|c| c.frame_cache_misses += 1);
        let shot = Arc::new(self.screenshot_at_phase(caret_on));
        if self.frame_cache.len() >= FRAME_CACHE_CAP {
            if let Some(oldest) = self.frame_order.pop_front() {
                self.frame_cache.remove(&oldest);
            }
        }
        if self.frame_cache.insert(key, Arc::clone(&shot)).is_none() {
            self.frame_order.push_back(key);
        }
        shot
    }

    /// Capture with an explicit caret phase (tests and the oracle use this).
    pub fn screenshot_at_phase(&self, caret_on: bool) -> Screenshot {
        Screenshot::render(
            &self.page.url,
            &self.page.title,
            self.page.widgets(),
            &self.page.paint_order(),
            self.scroll_y,
            self.caret(caret_on),
        )
    }

    /// Convenience for oracles/replayers: click the center of the widget
    /// with `name`, scrolling it into view first. Returns `false` when no
    /// such widget exists or it is not interactive.
    pub fn click_by_name(&mut self, name: &str) -> bool {
        let Some(id) = self.page.find_by_name(name) else {
            return false;
        };
        if !self.page.get(id).kind.is_interactive() {
            return false;
        }
        self.scroll_into_view(id);
        let center = self.page.get(id).bounds.center().offset(0, -self.scroll_y);
        let d = self.dispatch(UserEvent::Click(center));
        d.effect != EffectKind::NoOp
    }

    /// Scroll so the widget is inside the viewport.
    pub fn scroll_into_view(&mut self, id: WidgetId) {
        let b = self.page.get(id).bounds;
        let view_top = self.scroll_y;
        let view_bottom = self.scroll_y + VIEWPORT.h as i32;
        if b.y < view_top {
            self.scroll_y = (b.y - 20).clamp(0, self.max_scroll());
        } else if b.bottom() > view_bottom {
            self.scroll_y = (b.bottom() - VIEWPORT.h as i32 + 20).clamp(0, self.max_scroll());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Page, PageBuilder};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A miniature two-screen app used by the session tests: a form that,
    /// on submit, stores the value and navigates to a confirmation screen.
    struct MiniApp {
        route: String,
        saved_title: Option<String>,
        modal_open: bool,
        ticks: u32,
    }

    impl MiniApp {
        fn new() -> Self {
            Self {
                route: "/form".into(),
                saved_title: None,
                modal_open: false,
                ticks: 0,
            }
        }
    }

    impl GuiApp for MiniApp {
        fn name(&self) -> &str {
            "mini"
        }
        fn url(&self) -> String {
            self.route.clone()
        }
        fn build(&self) -> Page {
            match self.route.as_str() {
                "/done" => {
                    let mut b = PageBuilder::new("Done", "/done");
                    b.heading(1, "Saved");
                    b.text(format!(
                        "Created: {}",
                        self.saved_title.clone().unwrap_or_default()
                    ));
                    b.link("back", "Back");
                    b.finish()
                }
                _ => {
                    let mut b = PageBuilder::new("Form", "/form");
                    b.heading(1, "New item");
                    b.form("item-form", |b| {
                        b.text_input("title", "Title", "enter title");
                        b.button("save", "Save");
                    });
                    b.button("help", "Help");
                    if self.modal_open {
                        b.modal("promo", |b| {
                            b.text("Subscribe to our newsletter!");
                            b.button("promo-close", "No thanks");
                        });
                    }
                    b.finish()
                }
            }
        }
        fn on_event(&mut self, ev: SemanticEvent) -> bool {
            match ev {
                SemanticEvent::Activated { name, fields, .. } => match name.as_str() {
                    "save" => {
                        let title = fields
                            .iter()
                            .find(|(n, _)| n == "title")
                            .map(|(_, v)| v.clone())
                            .unwrap_or_default();
                        self.saved_title = Some(title);
                        self.route = "/done".into();
                        true
                    }
                    "back" => {
                        self.route = "/form".into();
                        true
                    }
                    "promo-close" => {
                        self.modal_open = false;
                        true
                    }
                    _ => false,
                },
                SemanticEvent::Dismissed { name } if name == "promo" => {
                    self.modal_open = false;
                    true
                }
                _ => false,
            }
        }
        fn tick(&mut self) -> bool {
            self.ticks += 1;
            if self.ticks == 3 && self.route == "/form" {
                self.modal_open = true;
                return true;
            }
            false
        }
    }

    fn click_widget(s: &mut Session, name: &str) -> Dispatch {
        let id = s.page().find_by_name(name).unwrap();
        let pt = s.page().get(id).bounds.center().offset(0, -s.scroll_y());
        s.dispatch(UserEvent::Click(pt))
    }

    #[test]
    fn full_form_flow() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        // Click the input, type, submit.
        let d = click_widget(&mut s, "title");
        assert_eq!(d.effect, EffectKind::Focused);
        let d = s.dispatch(UserEvent::Type("Quarterly report".into()));
        assert_eq!(d.effect, EffectKind::Typed);
        let d = click_widget(&mut s, "save");
        assert_eq!(d.effect, EffectKind::Activated);
        assert_eq!(s.url(), "/done");
        assert_eq!(s.nav_count(), 1);
        assert!(s.screenshot().contains_text("Created: Quarterly report"));
    }

    #[test]
    fn typing_without_focus_is_noop() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        let before = s.screenshot_at_phase(false);
        let d = s.dispatch(UserEvent::Type("lost keystrokes".into()));
        assert_eq!(d.effect, EffectKind::NoOp);
        let after = s.screenshot_at_phase(false);
        assert_eq!(before.diff_fraction(&after), 0.0, "screen unchanged");
    }

    #[test]
    fn enter_submits_enclosing_form() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        click_widget(&mut s, "title");
        s.dispatch(UserEvent::Type("via enter".into()));
        let d = s.dispatch(UserEvent::Press(Key::Enter));
        assert_eq!(d.effect, EffectKind::Activated);
        assert_eq!(s.url(), "/done");
    }

    #[test]
    fn spontaneous_modal_blocks_then_escape_recovers() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        s.tick();
        s.tick();
        s.tick(); // modal appears
        assert!(s.page().active_modal().is_some());
        // Clicking "save" through the modal does nothing useful.
        let d = click_widget(&mut s, "save");
        assert_ne!(d.effect, EffectKind::Activated);
        // Escape dismisses it (the paper's "common sense to error correct").
        let d = s.dispatch(UserEvent::Press(Key::Escape));
        assert_eq!(d.effect, EffectKind::Dismissed);
        assert!(s.page().active_modal().is_none());
        // And now the form is usable again.
        let d = click_widget(&mut s, "title");
        assert_eq!(d.effect, EffectKind::Focused);
    }

    #[test]
    fn caret_blinks_with_event_parity() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        click_widget(&mut s, "title");
        let on = s.screenshot_at_phase(true);
        let off = s.screenshot_at_phase(false);
        use crate::screenshot::VisualClass;
        assert!(on.items.iter().any(|i| i.visual == VisualClass::CaretBar));
        assert!(!off.items.iter().any(|i| i.visual == VisualClass::CaretBar));
    }

    #[test]
    fn tab_cycles_focus() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        let d = s.dispatch(UserEvent::Press(Key::Tab));
        assert_eq!(d.effect, EffectKind::FocusMoved);
        assert!(s.focus().is_some());
        s.dispatch(UserEvent::Type("tabbed text".into()));
        let title = s.page().find_by_name("title").unwrap();
        assert_eq!(s.page().get(title).value, "tabbed text");
    }

    #[test]
    fn backspace_edits_focused_value() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        click_widget(&mut s, "title");
        s.dispatch(UserEvent::Type("abc".into()));
        s.dispatch(UserEvent::Press(Key::Backspace));
        let title = s.page().find_by_name("title").unwrap();
        assert_eq!(s.page().get(title).value, "ab");
    }

    #[test]
    fn draft_in_a_prefilled_field_survives_a_same_url_rebuild() {
        /// Settings screen with a prefilled field; a banner appears on
        /// tick — a same-URL re-render, like a chaos modal or a toast
        /// expiring mid-edit.
        struct PrefilledApp {
            banner: bool,
        }
        impl GuiApp for PrefilledApp {
            fn name(&self) -> &str {
                "prefilled"
            }
            fn url(&self) -> String {
                "/settings".into()
            }
            fn build(&self) -> Page {
                let mut b = PageBuilder::new("Settings", "/settings");
                let mut rate = None;
                b.form("settings", |b| {
                    rate = Some(b.text_input("rate", "Tax rate", ""));
                    b.button("apply", "Apply");
                });
                if self.banner {
                    b.toast("Connection restored");
                }
                let mut page = b.finish();
                page.get_mut(rate.unwrap()).value = "0.00".into();
                page
            }
            fn on_event(&mut self, _: SemanticEvent) -> bool {
                false
            }
            fn tick(&mut self) -> bool {
                if !self.banner {
                    self.banner = true;
                    return true;
                }
                false
            }
        }

        let mut s = Session::new(Box::new(PrefilledApp { banner: false }));
        let rate = s.page().find_by_name("rate").unwrap();
        assert_eq!(
            s.page().get(rate).value,
            "0.00",
            "fixture prefills the field"
        );
        click_widget(&mut s, "rate");
        for _ in 0..4 {
            s.dispatch(UserEvent::Press(Key::Backspace));
        }
        s.dispatch(UserEvent::Type("7.25".into()));
        s.tick(); // banner appears: same-URL rebuild mid-edit
        let rate = s.page().find_by_name("rate").unwrap();
        assert_eq!(
            s.page().get(rate).value,
            "7.25",
            "a same-URL re-render must not revert an actively edited field to its prefill"
        );
    }

    /// App whose `tick` always requests a rebuild but whose screen never
    /// changes: a polling re-render.
    struct SteadyApp;
    impl GuiApp for SteadyApp {
        fn name(&self) -> &str {
            "steady"
        }
        fn url(&self) -> String {
            "/steady".into()
        }
        fn build(&self) -> Page {
            let mut b = PageBuilder::new("Steady", "/steady");
            b.form("f", |b| {
                b.text_input("q", "Query", "type here");
                b.button("go", "Go");
            });
            for i in 0..60 {
                b.text(format!("row {i}"));
            }
            b.finish()
        }
        fn on_event(&mut self, _: SemanticEvent) -> bool {
            false
        }
        fn tick(&mut self) -> bool {
            true
        }
    }

    #[test]
    fn every_rebuild_walks_once_and_keeps_the_draft() {
        let mut s = Session::new(Box::new(SteadyApp));
        assert!(s.cache_enabled());
        for _ in 0..2 {
            s.screenshot();
            let epoch = s.page_epoch();
            let before = perf::snapshot();
            s.tick(); // the app re-renders an unchanged screen
            let after = perf::snapshot();
            assert_eq!(
                after.relayouts_full - before.relayouts_full,
                1,
                "a rebuild runs exactly one layout walk"
            );
            assert_eq!(s.page_epoch(), epoch + 1, "a rebuild bumps the epoch");
            assert_eq!(
                after.frame_cache_invalidations - before.frame_cache_invalidations,
                1,
                "a rebuild drops the cached frames"
            );
        }

        let epoch = s.page_epoch();
        s.dispatch(UserEvent::Scroll(120));
        assert_eq!(s.page_epoch(), epoch, "scrolling does not dirty the page");

        click_widget(&mut s, "q");
        s.dispatch(UserEvent::Type("draft".into()));
        s.tick();
        let q = s.page().find_by_name("q").unwrap();
        assert_eq!(
            s.page().get(q).value,
            "draft",
            "the draft survives the rebuild"
        );
    }

    /// App whose every `tick` re-renders the same screen with one label
    /// changed.
    struct RelabelApp(u32);
    impl GuiApp for RelabelApp {
        fn name(&self) -> &str {
            "relabel"
        }
        fn url(&self) -> String {
            "/relabel".into()
        }
        fn build(&self) -> Page {
            let mut b = PageBuilder::new("Relabel", "/relabel");
            b.heading(1, "Orders");
            b.button("go", format!("Refresh {}", self.0));
            b.finish()
        }
        fn on_event(&mut self, _: SemanticEvent) -> bool {
            false
        }
        fn tick(&mut self) -> bool {
            self.0 += 1;
            true
        }
    }

    #[test]
    fn a_rebuild_that_changes_one_label_never_skips() {
        let mut s = Session::new(Box::new(RelabelApp(0)));
        for n in 1..=3 {
            let epoch = s.page_epoch();
            s.tick();
            assert!(s.page_epoch() > epoch);
            let label = format!("Refresh {n}");
            assert!(s.page().find_by_label(&label, true).is_some(), "{label}");
        }
    }

    /// What [`ScriptedApp`] renders. A test rewrites it between ticks, and
    /// every tick re-renders the screen from it.
    struct Script {
        url: &'static str,
        rows: usize,
        /// The value the app renders into the `note` field.
        note: &'static str,
        /// The `agree` checkbox's rendered state; `None` renders it with
        /// no value at all.
        agree: Option<bool>,
    }

    struct ScriptedApp(Rc<RefCell<Script>>);
    impl GuiApp for ScriptedApp {
        fn name(&self) -> &str {
            "scripted"
        }
        fn url(&self) -> String {
            self.0.borrow().url.into()
        }
        fn build(&self) -> Page {
            let script = self.0.borrow();
            let mut b = PageBuilder::new("Scripted", script.url);
            let mut note = None;
            b.form("f", |b| {
                b.text_input("q", "Query", "type here");
                note = Some(b.text_input("note", "Note", ""));
                match script.agree {
                    Some(checked) => {
                        b.checkbox("agree", "Agree", checked);
                    }
                    None => {
                        let mut w = crate::widget::Widget::new(WidgetKind::Checkbox);
                        w.name = "agree".into();
                        w.label = "Agree".into();
                        b.push(w);
                    }
                }
            });
            for i in 0..script.rows {
                b.text(format!("row {i}"));
            }
            let mut page = b.finish();
            page.get_mut(note.unwrap()).value = script.note.into();
            page
        }
        fn on_event(&mut self, _: SemanticEvent) -> bool {
            false
        }
        fn tick(&mut self) -> bool {
            true
        }
    }

    fn scripted(rows: usize) -> (Session, Rc<RefCell<Script>>) {
        let script = Rc::new(RefCell::new(Script {
            url: "/a",
            rows,
            note: "",
            agree: Some(false),
        }));
        let s = Session::new(Box::new(ScriptedApp(Rc::clone(&script))));
        (s, script)
    }

    fn value_of(s: &Session, name: &str) -> Sym {
        s.page().get(s.page().find_by_name(name).unwrap()).value
    }

    #[test]
    fn a_same_url_rebuild_keeps_the_scroll_offset_and_clamps_it() {
        let (mut s, script) = scripted(80);
        s.dispatch(UserEvent::Scroll(400));
        assert_eq!(s.scroll_y(), 400);
        s.tick();
        assert_eq!(s.scroll_y(), 400, "the offset survives a re-render");

        script.borrow_mut().rows = 20;
        s.tick();
        let max = s.page().content_height as i32 - VIEWPORT.h as i32;
        assert!(
            (1..400).contains(&max),
            "the rebuilt page is shorter: {max}"
        );
        assert_eq!(s.scroll_y(), max, "the offset is clamped to the new page");
    }

    #[test]
    fn a_navigation_resets_the_scroll_offset_and_drops_drafts() {
        let (mut s, script) = scripted(80);
        click_widget(&mut s, "note");
        s.dispatch(UserEvent::Type("draft".into()));
        s.dispatch(UserEvent::Scroll(300));
        script.borrow_mut().url = "/b";
        s.tick();
        assert_eq!(s.page().url, "/b");
        assert_eq!(s.scroll_y(), 0, "a new page starts at the top");
        assert_eq!(value_of(&s, "note"), "", "the draft does not survive");

        script.borrow_mut().note = "from the app";
        s.tick();
        assert_eq!(
            value_of(&s, "note"),
            "from the app",
            "nor does the field still count as edited"
        );
    }

    #[test]
    fn untouched_values_fill_only_what_the_rebuild_left_empty() {
        let (mut s, script) = scripted(0);
        script.borrow_mut().note = "from the app";
        s.tick();
        assert_eq!(value_of(&s, "note"), "from the app");
        script.borrow_mut().note = "";
        s.tick();
        assert_eq!(
            value_of(&s, "note"),
            "from the app",
            "an untouched field keeps its old value where the rebuild left it empty"
        );
        script.borrow_mut().note = "re-rendered";
        s.tick();
        assert_eq!(
            value_of(&s, "note"),
            "re-rendered",
            "an old value never overrides what the app re-rendered"
        );

        // The app ignores the toggle, so only the live page holds it.
        click_widget(&mut s, "agree");
        assert_eq!(value_of(&s, "agree"), "true");
        script.borrow_mut().agree = None;
        s.tick();
        assert_eq!(
            value_of(&s, "agree"),
            "true",
            "an empty toggle takes the old value"
        );
        script.borrow_mut().agree = Some(false);
        s.tick();
        assert_eq!(value_of(&s, "agree"), "false", "a rendered toggle wins");
    }

    #[test]
    fn a_rebuild_drops_focus() {
        let (mut s, script) = scripted(0);
        click_widget(&mut s, "q");
        assert!(s.focus().is_some());
        s.tick();
        assert_eq!(s.focus(), None, "a same-URL rebuild drops focus");

        click_widget(&mut s, "q");
        script.borrow_mut().url = "/b";
        s.tick();
        assert_eq!(s.focus(), None, "a navigation drops focus");
    }

    #[test]
    fn repeated_screenshots_share_one_frame() {
        eclair_trace::perf::reset();
        let mut s = Session::new(Box::new(SteadyApp));
        let a = s.screenshot();
        let b = s.screenshot();
        assert!(Arc::ptr_eq(&a, &b), "unchanged page re-serves the frame");
        let c = eclair_trace::perf::snapshot();
        assert_eq!((c.frame_cache_hits, c.frame_cache_misses), (1, 1));

        // Scrolling away misses, scrolling back hits the cached frame.
        s.dispatch(UserEvent::Scroll(200));
        let far = s.screenshot();
        assert!(!Arc::ptr_eq(&a, &far));
        s.dispatch(UserEvent::Scroll(-200));
        let back = s.screenshot();
        assert_eq!(*back, *a, "same state renders the same bytes");
        assert!(eclair_trace::perf::snapshot().frame_cache_hits >= 2);
    }

    #[test]
    fn cached_frames_match_fresh_renders_and_die_with_mutations() {
        let mut s = Session::new(Box::new(MiniApp::new()));
        let cached = s.screenshot();
        assert_eq!(
            *cached,
            s.screenshot_at_phase(true),
            "cache serves exactly what a fresh render produces"
        );
        // Mutate the page (type into the form): the cache must not serve
        // the pre-edit frame.
        click_widget(&mut s, "title");
        s.dispatch(UserEvent::Type("x".into()));
        let after = s.screenshot();
        assert!(
            after.contains_text("x"),
            "post-mutation screenshot reflects the edit"
        );
    }

    #[test]
    fn identical_value_write_does_not_evict_frames() {
        // A write that leaves the value unchanged — here a select snapping
        // back to its current option — must not invalidate the frame
        // cache: the screen cannot have changed, so eviction would turn
        // no-op keystrokes into render storms.
        struct SelectApp;
        impl GuiApp for SelectApp {
            fn name(&self) -> &str {
                "sel"
            }
            fn url(&self) -> String {
                "/sel".into()
            }
            fn build(&self) -> Page {
                let mut b = PageBuilder::new("Sel", "/sel");
                b.form("f", |b| {
                    b.select("state", "State", &["Enabled", "Disabled"], Some("Enabled"));
                });
                b.finish()
            }
            fn on_event(&mut self, _: SemanticEvent) -> bool {
                false
            }
        }
        eclair_trace::perf::reset();
        let mut s = Session::new(Box::new(SelectApp));
        click_widget(&mut s, "state");
        s.screenshot();
        let inv_before = eclair_trace::perf::snapshot().frame_cache_invalidations;
        let epoch = s.page_epoch();
        let d = s.dispatch(UserEvent::Type("enabled".into()));
        assert_eq!(d.effect, EffectKind::Typed);
        let state = s.page().find_by_name("state").unwrap();
        assert_eq!(
            s.page().get(state).value,
            "Enabled",
            "snap landed on the already-selected option"
        );
        assert_eq!(s.page_epoch(), epoch, "no-op write leaves the page clean");
        assert_eq!(
            eclair_trace::perf::snapshot().frame_cache_invalidations,
            inv_before,
            "no-op write must not evict cached frames"
        );
        // A real edit still invalidates.
        s.dispatch(UserEvent::Type("dis".into()));
        assert_eq!(s.page().get(state).value, "Disabled");
        assert!(s.page_epoch() > epoch, "a value change dirties the page");
    }

    #[test]
    fn disabling_the_cache_renders_every_frame() {
        eclair_trace::perf::reset();
        let mut s = Session::new(Box::new(SteadyApp));
        s.set_cache_enabled(false);
        let a = s.screenshot();
        let b = s.screenshot();
        assert!(!Arc::ptr_eq(&a, &b), "cache off: every frame is fresh");
        assert_eq!(*a, *b, "but the bytes are identical either way");
        let c = eclair_trace::perf::snapshot();
        assert_eq!(
            (c.frame_cache_hits, c.frame_cache_misses),
            (0, 0),
            "cache-off lookups never touch the counters"
        );
        // And rebuilds always take the full path: a real walk.
        let before = eclair_trace::perf::snapshot();
        s.tick();
        let after = eclair_trace::perf::snapshot();
        assert_eq!(
            after.relayouts_full - before.relayouts_full,
            1,
            "cache off: the walk really ran"
        );
    }

    #[test]
    fn click_by_name_scrolls_into_view() {
        struct TallApp;
        impl GuiApp for TallApp {
            fn name(&self) -> &str {
                "tall"
            }
            fn url(&self) -> String {
                "/tall".into()
            }
            fn build(&self) -> Page {
                let mut b = PageBuilder::new("Tall", "/tall");
                for i in 0..80 {
                    b.text(format!("filler {i}"));
                }
                b.button("bottom", "Bottom button");
                b.finish()
            }
            fn on_event(&mut self, _: SemanticEvent) -> bool {
                false
            }
        }
        let mut s = Session::new(Box::new(TallApp));
        assert!(s.click_by_name("bottom"));
        assert!(s.scroll_y() > 0, "session scrolled to reach the button");
    }

    #[test]
    fn frame_cache_eviction_has_no_cliff_at_capacity() {
        // 33 distinct frames against a 32-entry cap: the 33rd insertion
        // must evict exactly the oldest frame. The old wholesale `clear()`
        // turned it into a cliff — every revisit after frame 33 missed.
        struct TallSteady;
        impl GuiApp for TallSteady {
            fn name(&self) -> &str {
                "tall-steady"
            }
            fn url(&self) -> String {
                "/tall-steady".into()
            }
            fn build(&self) -> Page {
                let mut b = PageBuilder::new("TallSteady", "/tall-steady");
                for i in 0..80 {
                    b.text(format!("filler {i}"));
                }
                b.finish()
            }
            fn on_event(&mut self, _: SemanticEvent) -> bool {
                false
            }
        }
        eclair_trace::perf::reset();
        let mut s = Session::new(Box::new(TallSteady));
        s.screenshot(); // offset 0
        for _ in 0..32 {
            s.dispatch(UserEvent::Scroll(1));
            s.screenshot(); // offsets 1..=32 — one past the cap
        }
        assert_eq!(eclair_trace::perf::snapshot().frame_cache_misses, 33);
        // Walk back down: every offset except the single evicted oldest
        // (offset 0) is still resident.
        for _ in 0..32 {
            s.dispatch(UserEvent::Scroll(-1));
            s.screenshot(); // offsets 31, 30, ..., 0
        }
        let c = eclair_trace::perf::snapshot();
        assert_eq!(
            c.frame_cache_hits, 31,
            "offsets 31..=1 survive the 33rd insertion (no hit-rate cliff)"
        );
        assert_eq!(
            c.frame_cache_misses, 34,
            "only the evicted offset re-renders"
        );
        assert_eq!(
            c.frame_cache_invalidations, 0,
            "eviction is not invalidation"
        );
    }

    /// App whose screen carries a toast it does not track: `Dismissed` is
    /// ignored, so Escape must excise the toast from the live page.
    struct ToastApp {
        archived_toast: bool,
    }
    impl GuiApp for ToastApp {
        fn name(&self) -> &str {
            "toast"
        }
        fn url(&self) -> String {
            "/inbox".into()
        }
        fn build(&self) -> Page {
            let mut b = PageBuilder::new("Inbox", "/inbox");
            b.heading(1, "Inbox");
            if self.archived_toast {
                b.toast("Message archived");
            }
            let mut sync = crate::widget::Widget::new(WidgetKind::Toast);
            sync.name = "sync".into();
            sync.label = "Sync complete".into();
            b.push(sync);
            b.form("search", |b| {
                b.text_input("q", "Query", "search mail");
                b.button("go", "Go");
            });
            b.row(|b| {
                b.link("prev", "Previous");
                b.link("next", "Next");
            });
            b.finish()
        }
        fn on_event(&mut self, _: SemanticEvent) -> bool {
            false
        }
    }

    #[test]
    fn escape_excises_an_untracked_toast_locally() {
        let mut s = Session::new(Box::new(ToastApp {
            archived_toast: true,
        }));
        assert!(s.screenshot().contains_text("Message archived"));
        let d = s.dispatch(UserEvent::Press(Key::Escape));
        assert_eq!(d.effect, EffectKind::Dismissed);
        assert!(!s.screenshot().contains_text("Message archived"));
        assert!(s.screenshot().contains_text("Sync complete"));
        // The page looks as if it had been built without the toast: the
        // remaining toast restacks to the top, nothing else moves.
        let fresh = ToastApp {
            archived_toast: false,
        }
        .build();
        for w in fresh.iter().filter(|w| !w.name.is_empty()) {
            let id = s.page().find_by_name(&w.name).unwrap();
            assert_eq!(s.page().get(id).bounds, w.bounds, "{}", w.name);
        }
        assert_eq!(s.page().content_height, fresh.content_height);
        // The remaining toast is the next Escape's target; then nothing.
        let d = s.dispatch(UserEvent::Press(Key::Escape));
        assert_eq!(d.effect, EffectKind::Dismissed);
        assert!(!s.screenshot().contains_text("Sync complete"));
        let d = s.dispatch(UserEvent::Press(Key::Escape));
        assert_eq!(d.effect, EffectKind::NoOp);
    }
}
