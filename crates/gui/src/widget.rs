//! Widgets: the nodes of a simulated page.
//!
//! A [`Widget`] carries both *semantic* identity (its [`WidgetKind`] and
//! programmatic `name`) and *presentation* (its visible `label`, current
//! `value`, and the HTML `tag` it renders as). The distinction matters:
//! screenshots expose only presentation, the HTML serialization exposes tags
//! and names, and only the application itself sees kinds. The paper's
//! "profile button rendered as `<svg>`" grounding failure is representable
//! precisely because `tag` can diverge from `kind`.

use serde::{Deserialize, Serialize};

use crate::arena::ChildVec;
use crate::geometry::Rect;
use crate::intern::{Sym, PREINTERNED};

/// Index of a widget in its [`crate::tree::Page`]. Ids are stable only
/// within one build of a page; navigation or rebuild invalidates them, which
/// is why gold traces and agents address widgets semantically instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WidgetId(pub u32);

impl WidgetId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a widget *is* (semantics, invisible to agents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WidgetKind {
    /// The page root.
    Root,
    /// Vertical grouping container.
    Section,
    /// Horizontal grouping container.
    Row,
    /// A form container: descendants' values are gathered on submit.
    Form,
    /// Heading text; the payload level is stored in `Widget::level`.
    Heading,
    /// Static body text.
    Text,
    /// A push button.
    Button,
    /// A hyperlink.
    Link,
    /// Single-line text entry.
    TextInput,
    /// Multi-line text entry.
    TextArea,
    /// Masked text entry.
    PasswordInput,
    /// Two-state toggle; `value` is `"true"`/`"false"`.
    Checkbox,
    /// One-of-many choice chip; checking it unchecks siblings with the same
    /// `name`.
    Radio,
    /// Combo box; permitted options live in `Widget::options`.
    Select,
    /// A row of a data table.
    TableRow,
    /// A cell of a data table.
    TableCell,
    /// An entry in a menu or dropdown.
    MenuItem,
    /// A tab header.
    Tab,
    /// A non-text pictograph (avatar, gear, bell, ...).
    Icon,
    /// A raster image placeholder.
    Image,
    /// A floating dialog; blocks interaction with everything below it.
    Modal,
    /// A transient notification bar.
    Toast,
    /// A small status pill ("open", "merged", ...).
    Badge,
    /// A horizontal rule.
    Divider,
}

impl WidgetKind {
    /// Whether a click on this widget activates application logic.
    pub fn is_activatable(self) -> bool {
        matches!(
            self,
            WidgetKind::Button
                | WidgetKind::Link
                | WidgetKind::MenuItem
                | WidgetKind::Tab
                | WidgetKind::Icon
        )
    }

    /// Whether typing can edit this widget (once focused).
    pub fn is_editable(self) -> bool {
        matches!(
            self,
            WidgetKind::TextInput
                | WidgetKind::TextArea
                | WidgetKind::PasswordInput
                | WidgetKind::Select
        )
    }

    /// Whether clicking toggles the widget's boolean value.
    pub fn is_toggleable(self) -> bool {
        matches!(self, WidgetKind::Checkbox | WidgetKind::Radio)
    }

    /// Whether the widget participates in hit-testing at all.
    pub fn is_interactive(self) -> bool {
        self.is_activatable() || self.is_editable() || self.is_toggleable()
    }

    /// Whether this kind is a container laid out around children.
    pub fn is_container(self) -> bool {
        matches!(
            self,
            WidgetKind::Root
                | WidgetKind::Section
                | WidgetKind::Row
                | WidgetKind::Form
                | WidgetKind::TableRow
                | WidgetKind::Modal
        )
    }

    /// Default HTML tag this kind renders as (overridable per widget).
    pub fn default_tag(self) -> &'static str {
        PREINTERNED[self.default_tag_id()]
    }

    /// The id of [`WidgetKind::default_tag`], which the interner holds
    /// from its creation at this index of [`PREINTERNED`].
    fn default_tag_id(self) -> usize {
        use WidgetKind::*;
        match self {
            Root => 1,                                         // body
            Section | Row | Toast => 2,                        // div
            Form => 3,                                         // form
            Heading => 4,                                      // h2
            Text => 5,                                         // p
            Button => 6,                                       // button
            Link | Tab => 7,                                   // a
            TextInput | PasswordInput | Checkbox | Radio => 8, // input
            TextArea => 9,                                     // textarea
            Select => 10,                                      // select
            TableRow => 11,                                    // tr
            TableCell => 12,                                   // td
            MenuItem => 13,                                    // li
            Icon => 14,                                        // svg
            Image => 15,                                       // img
            Modal => 16,                                       // dialog
            Badge => 17,                                       // span
            Divider => 18,                                     // hr
        }
    }
}

/// One node of a page.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Widget {
    /// Index in the page's widget list (assigned by the page builder).
    pub id: WidgetId,
    /// Semantic role.
    pub kind: WidgetKind,
    /// HTML tag rendered in the serialization. Usually
    /// `kind.default_tag()`, but icon buttons etc. may override it.
    pub tag: Sym,
    /// Visible caption (button text, link text, field label, heading text).
    pub label: Sym,
    /// Programmatic name (form field name / automation id). *Not* visible in
    /// screenshots.
    pub name: Sym,
    /// Current value (input contents, checkbox state, select choice).
    pub value: Sym,
    /// Ghost text shown in an empty input.
    pub placeholder: Sym,
    /// Permitted options for a [`WidgetKind::Select`].
    pub options: Vec<Sym>,
    /// Heading level (1–3) for [`WidgetKind::Heading`].
    pub level: u8,
    /// Whether the widget accepts interaction; disabled widgets render
    /// grayed out (observable) but ignore events.
    pub enabled: bool,
    /// Whether the widget is rendered at all.
    pub visible: bool,
    /// Child widget ids, in layout order. Inline up to 8, heap beyond.
    pub children: ChildVec,
    /// Parent widget id; `None` only for the root and for tombstones.
    pub parent: Option<WidgetId>,
    /// Fixed width in pixels, if the builder pinned one.
    pub fixed_w: Option<u32>,
    /// Fixed height in pixels, if the builder pinned one.
    pub fixed_h: Option<u32>,
    /// Computed bounds in page coordinates (filled by layout).
    pub bounds: Rect,
}

impl Widget {
    /// A bare widget of `kind` with defaults everywhere else. The page
    /// builder assigns the real id.
    ///
    /// Interns nothing: the default tag's handle is a constant.
    pub fn new(kind: WidgetKind) -> Self {
        Self {
            id: WidgetId(u32::MAX),
            kind,
            tag: Sym::preinterned(kind.default_tag_id()),
            label: Sym::EMPTY,
            name: Sym::EMPTY,
            value: Sym::EMPTY,
            placeholder: Sym::EMPTY,
            options: Vec::new(),
            level: 2,
            enabled: true,
            visible: true,
            children: ChildVec::new(),
            parent: None,
            fixed_w: None,
            fixed_h: None,
            bounds: Rect::default(),
        }
    }

    /// The inert value [`crate::tree::Page::remove_subtree`] leaves in a
    /// removed widget's slot: invisible, unnamed, childless, parentless,
    /// and unreachable from the root, so no walk, search, or render can
    /// observe it.
    pub(crate) fn tombstone(slot: WidgetId) -> Self {
        let mut w = Widget::new(WidgetKind::Root);
        w.id = slot;
        w.visible = false;
        w
    }

    /// Whether this widget is a checked checkbox/radio.
    pub fn is_checked(&self) -> bool {
        self.kind.is_toggleable() && self.value == "true"
    }

    /// The text pixels would show for this widget: the value if it has one,
    /// else the placeholder, else the label.
    pub fn display_text(&self) -> &'static str {
        self.display_sym().as_str()
    }

    /// [`Widget::display_text`] as an interned handle (no resolve needed).
    pub fn display_sym(&self) -> Sym {
        if self.kind.is_editable() {
            if !self.value.is_empty() {
                self.value
            } else {
                self.placeholder
            }
        } else {
            self.label
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates_are_disjoint_where_expected() {
        for kind in [
            WidgetKind::Button,
            WidgetKind::Link,
            WidgetKind::TextInput,
            WidgetKind::Checkbox,
            WidgetKind::Section,
            WidgetKind::Text,
        ] {
            let groups = [
                kind.is_activatable(),
                kind.is_editable(),
                kind.is_toggleable(),
            ];
            assert!(
                groups.iter().filter(|&&g| g).count() <= 1,
                "{kind:?} belongs to more than one interaction group"
            );
        }
    }

    #[test]
    fn interactive_covers_all_groups() {
        assert!(WidgetKind::Button.is_interactive());
        assert!(WidgetKind::TextInput.is_interactive());
        assert!(WidgetKind::Radio.is_interactive());
        assert!(!WidgetKind::Text.is_interactive());
        assert!(!WidgetKind::Divider.is_interactive());
    }

    #[test]
    fn default_tags_sane() {
        assert_eq!(WidgetKind::Button.default_tag(), "button");
        assert_eq!(WidgetKind::Icon.default_tag(), "svg");
        let w = Widget::new(WidgetKind::Button);
        assert_eq!(w.tag, "button");
    }

    #[test]
    fn display_text_prefers_value_then_placeholder() {
        let mut w = Widget::new(WidgetKind::TextInput);
        w.placeholder = "Search...".into();
        assert_eq!(w.display_text(), "Search...");
        w.value = "gitlab".into();
        assert_eq!(w.display_text(), "gitlab");
        let mut b = Widget::new(WidgetKind::Button);
        b.label = "Submit".into();
        b.value = "ignored".into();
        assert_eq!(b.display_text(), "Submit");
    }

    #[test]
    fn checkbox_checked_state() {
        let mut c = Widget::new(WidgetKind::Checkbox);
        assert!(!c.is_checked());
        c.value = "true".into();
        assert!(c.is_checked());
        let mut t = Widget::new(WidgetKind::TextInput);
        t.value = "true".into();
        assert!(!t.is_checked(), "non-toggleable never counts as checked");
    }
}
