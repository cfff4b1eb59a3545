//! Raw user events (what an agent's actuator emits) and semantic events
//! (what an application receives after the session resolves the raw event
//! against the live widget tree).

use serde::{Deserialize, Serialize};

use crate::geometry::Point;
use crate::intern::Sym;

/// Keyboard keys the simulator models. Printable characters arrive through
/// [`UserEvent::Type`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Key {
    Enter,
    Escape,
    Tab,
    Backspace,
}

impl Key {
    /// Human-readable name used in action logs and SOPs.
    pub fn name(&self) -> &'static str {
        match self {
            Key::Enter => "Enter",
            Key::Escape => "Escape",
            Key::Tab => "Tab",
            Key::Backspace => "Backspace",
        }
    }
}

/// A raw input event, addressed in *viewport* coordinates — exactly the
/// channel a pixel-level agent controls (paper §2.2: "directly operate on
/// the GUI").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UserEvent {
    /// Press and release the left mouse button at a viewport point.
    Click(Point),
    /// Type a string of printable characters into whatever is focused.
    Type(String),
    /// Press a non-printable key.
    Press(Key),
    /// Scroll vertically by `dy` pixels (positive scrolls content down).
    Scroll(i32),
}

impl UserEvent {
    /// Short description for action logs ("click @ (412,188)").
    pub fn describe(&self) -> String {
        match self {
            UserEvent::Click(p) => format!("click @ ({},{})", p.x, p.y),
            UserEvent::Type(t) => format!("type {t:?}"),
            UserEvent::Press(k) => format!("press {}", k.name()),
            UserEvent::Scroll(dy) => format!("scroll {dy}"),
        }
    }
}

/// An application-level event, produced by the session after hit-testing
/// and form resolution. Sites implement their logic entirely against these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SemanticEvent {
    /// An activatable widget (button/link/menu item/tab/icon) was clicked.
    /// `fields` carries the current values of the enclosing form (or of the
    /// whole page when the widget is outside any form).
    Activated {
        name: String,
        label: String,
        fields: Vec<(String, String)>,
    },
    /// A checkbox/radio changed state (the session already applied the
    /// visual toggle; this is a notification).
    Toggled {
        name: String,
        label: String,
        checked: bool,
    },
    /// Escape dismissed the topmost modal or a toast. `name` is the modal's
    /// programmatic name (empty for unnamed toasts).
    Dismissed { name: String },
}

/// What a dispatched [`UserEvent`] ended up doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EffectKind {
    /// Click landed on an editable widget and moved focus.
    Focused,
    /// Characters were appended to the focused widget.
    Typed,
    /// A checkbox/radio flipped.
    Toggled,
    /// A button/link/menu item fired application logic.
    Activated,
    /// A modal or toast was dismissed.
    Dismissed,
    /// The viewport scrolled.
    Scrolled,
    /// Focus moved via Tab.
    FocusMoved,
    /// The event hit nothing / changed nothing (e.g. typing with no focus —
    /// the actuation-failure case the paper's validator must catch).
    NoOp,
}

/// Record of one dispatched event: the raw event, what it hit, and what it
/// did. Sequences of these form the action logs consumed by the
/// Demonstrate experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dispatch {
    /// The raw event as issued.
    pub event: UserEvent,
    /// `(name, label)` of the widget the event resolved to, if any, as
    /// the handles the widget holds (each serializes as its string).
    pub hit: Option<(Sym, Sym)>,
    /// The classified effect.
    pub effect: EffectKind,
    /// The app URL after the event settled.
    pub url_after: String,
}

impl Dispatch {
    /// Whether the event visibly did something.
    pub fn changed_anything(&self) -> bool {
        self.effect != EffectKind::NoOp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_formats() {
        assert_eq!(
            UserEvent::Click(Point::new(3, 4)).describe(),
            "click @ (3,4)"
        );
        assert_eq!(UserEvent::Type("hi".into()).describe(), "type \"hi\"");
        assert_eq!(UserEvent::Press(Key::Enter).describe(), "press Enter");
        assert_eq!(UserEvent::Scroll(-120).describe(), "scroll -120");
    }

    #[test]
    fn noop_is_not_a_change() {
        let d = Dispatch {
            event: UserEvent::Type("x".into()),
            hit: None,
            effect: EffectKind::NoOp,
            url_after: "/".into(),
        };
        assert!(!d.changed_anything());
    }
}
