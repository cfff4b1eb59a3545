//! Simplified HTML serialization of a page.
//!
//! Two consumers: (1) the set-of-marks grounding strategy that labels
//! elements using "ground-truth" HTML bounding boxes (Table 3's `HTML` bbox
//! source), and (2) text-only LLM baselines that read markup instead of
//! pixels. Tags come from each widget's `tag` field, which may diverge from
//! its semantic kind — icon buttons serialize as `<svg>`, the exact
//! mismatch the paper blames for grounding failures.

use serde::{Deserialize, Serialize};

use crate::geometry::Rect;
use crate::intern::Sym;
use crate::tree::Page;
use crate::widget::{WidgetId, WidgetKind};
use crate::VIEWPORT;

/// One element extracted from the HTML rendering, with its layout box.
///
/// The strings are the page's interned handles, so extracting an element
/// copies no text; each serializes as the JSON string it stands for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HtmlElement {
    /// The widget this element came from (oracle-only; graders use it).
    pub id: WidgetId,
    /// Rendered tag (`button`, `a`, `input`, `svg`, ...).
    pub tag: Sym,
    /// Inner text / value attribute as serialized.
    pub text: Sym,
    /// `name` attribute (empty when absent).
    pub name: Sym,
    /// Bounding box in viewport coordinates.
    pub rect: Rect,
    /// Whether the underlying widget is interactive.
    pub interactive: bool,
}

/// Escape text for use in an attribute value or element body.
fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Serialize the page to an indented HTML-ish string.
pub fn serialize(page: &Page) -> String {
    let mut out = String::new();
    write_node(page, page.root(), 0, &mut out);
    out
}

fn write_node(page: &Page, id: WidgetId, depth: usize, out: &mut String) {
    let w = page.get(id);
    if !w.visible {
        return;
    }
    let indent = "  ".repeat(depth);
    let mut attrs = String::new();
    if !w.name.is_empty() {
        attrs.push_str(&format!(" name=\"{}\"", escape(&w.name)));
    }
    if w.kind.is_editable() && !w.value.is_empty() {
        attrs.push_str(&format!(" value=\"{}\"", escape(&w.value)));
    }
    if w.kind.is_toggleable() && w.is_checked() {
        attrs.push_str(" checked");
    }
    if !w.enabled {
        attrs.push_str(" disabled");
    }
    if !w.placeholder.is_empty() {
        attrs.push_str(&format!(" placeholder=\"{}\"", escape(&w.placeholder)));
    }
    // Icons carry their accessible label as aria-label (pixels don't show
    // it, but markup does).
    if w.kind == WidgetKind::Icon && !w.label.is_empty() {
        attrs.push_str(&format!(" aria-label=\"{}\"", escape(&w.label)));
    }
    let inner_text = match w.kind {
        WidgetKind::Icon | WidgetKind::Image => String::new(),
        _ if w.kind.is_editable() => String::new(),
        _ => escape(&w.label),
    };
    if w.children.is_empty() && inner_text.is_empty() {
        out.push_str(&format!("{indent}<{}{attrs}/>\n", w.tag));
    } else {
        out.push_str(&format!("{indent}<{}{attrs}>{inner_text}", w.tag));
        if w.children.is_empty() {
            out.push_str(&format!("</{}>\n", w.tag));
        } else {
            out.push('\n');
            for &c in &w.children {
                write_node(page, c, depth + 1, out);
            }
            out.push_str(&format!("{indent}</{}>\n", w.tag));
        }
    }
}

/// Extract visible elements with their viewport-space boxes, skipping pure
/// layout containers. `interactive_only` restricts to clickable/editable
/// elements (the candidate set for set-of-marks). Allocates the returned
/// vector once, sized to the paint order, whatever the page holds.
pub fn element_boxes(page: &Page, scroll_y: i32, interactive_only: bool) -> Vec<HtmlElement> {
    let viewport = Rect::new(0, scroll_y, VIEWPORT.w, VIEWPORT.h);
    let order = page.paint_order();
    let mut out = Vec::with_capacity(order.len());
    out.extend(order.into_iter().filter_map(|id| {
        let w = page.get(id);
        if w.kind.is_container() && w.kind != WidgetKind::Modal {
            return None;
        }
        if interactive_only && !w.kind.is_interactive() {
            return None;
        }
        if w.bounds.w == 0 || w.bounds.h == 0 || !w.bounds.intersects(&viewport) {
            return None;
        }
        Some(HtmlElement {
            id,
            tag: w.tag,
            text: match w.kind {
                // Icons and images have no *visible* text for a mark
                // caption, whatever their markup attributes say.
                WidgetKind::Icon | WidgetKind::Image => Sym::EMPTY,
                k if k.is_editable() => w.display_sym(),
                _ => w.label,
            },
            name: w.name,
            rect: w.bounds.offset(0, -scroll_y),
            interactive: w.kind.is_interactive(),
        })
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PageBuilder;

    fn sample() -> Page {
        let mut b = PageBuilder::new("Html", "/html");
        b.heading(1, "Profile");
        b.form("profile", |b| {
            b.text_input("display-name", "Display name", "your name");
            b.checkbox("newsletter", "Subscribe", true);
            b.button("save", "Save changes");
        });
        b.icon_button("avatar", "Open profile menu");
        b.finish()
    }

    #[test]
    fn serialization_contains_tags_names_and_text() {
        let html = serialize(&sample());
        assert!(html.contains("<form name=\"profile\">"));
        assert!(html.contains("name=\"display-name\""));
        assert!(html.contains("placeholder=\"your name\""));
        assert!(html.contains("<button name=\"save\">Save changes</button>"));
        assert!(html.contains("checked"));
    }

    #[test]
    fn icon_serializes_as_svg_with_aria_label() {
        let html = serialize(&sample());
        assert!(
            html.contains("<svg name=\"avatar\" aria-label=\"Open profile menu\"/>"),
            "got: {html}"
        );
    }

    #[test]
    fn invisible_widgets_are_omitted() {
        let mut p = sample();
        let save = p.find_by_name("save").unwrap();
        p.get_mut(save).visible = false;
        let html = serialize(&p);
        assert!(!html.contains("Save changes"));
    }

    #[test]
    fn element_boxes_skip_containers_and_offscreen() {
        let p = sample();
        let all = element_boxes(&p, 0, false);
        assert!(all.iter().all(|e| e.tag != "div" || !e.text.is_empty()));
        assert!(all.iter().any(|e| e.name == "save"));
        // Scrolled far past content: nothing visible.
        let none = element_boxes(&p, 10_000, false);
        assert!(none.is_empty());
    }

    #[test]
    fn interactive_filter_works() {
        let p = sample();
        let inter = element_boxes(&p, 0, true);
        assert!(inter.iter().all(|e| e.interactive));
        assert!(
            inter.iter().any(|e| e.tag == "svg"),
            "icons count as interactive"
        );
        assert!(!inter.iter().any(|e| e.tag == "h1"));
    }

    #[test]
    fn markup_special_characters_are_escaped() {
        let mut b = PageBuilder::new("esc", "/esc");
        b.button("x", "Say \"hi\" <now> & go");
        let p = b.finish();
        let html = serialize(&p);
        assert!(
            html.contains("Say &quot;hi&quot; &lt;now&gt; &amp; go"),
            "{html}"
        );
        assert!(!html.contains("<now>"));
    }

    #[test]
    fn boxes_are_viewport_relative() {
        let p = sample();
        let at0 = element_boxes(&p, 0, true);
        let save0 = at0.iter().find(|e| e.name == "save").unwrap().rect;
        let at30 = element_boxes(&p, 30, true);
        let save30 = at30.iter().find(|e| e.name == "save").unwrap().rect;
        assert_eq!(save30.y, save0.y - 30);
    }
}
