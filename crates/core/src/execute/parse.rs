//! Parsing SOP step text into structured intents.
//!
//! SOP steps are natural language; before an agent can act on one it must
//! recover the *intent*: the interaction verb, the target phrase, and any
//! value to enter. The grammar accepted here covers how humans (and our
//! generators) phrase steps; anything else degrades to
//! [`StepIntent::Unknown`], which the executor treats as a step it must
//! improvise — one of the decomposition failure modes.

use eclair_gui::{Key, Point};
use serde::{Deserialize, Serialize};

/// A structured reading of one SOP step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepIntent {
    /// Click something described by `target`.
    Click { target: String },
    /// Type `value`, into the field described by `field` when known.
    Type {
        value: String,
        field: Option<String>,
    },
    /// Clear the field and enter `value`.
    Set { field: String, value: String },
    /// Choose `option` from the dropdown described by `field`.
    Select { option: String, field: String },
    /// Toggle the checkbox described by `target`.
    Check { target: String },
    /// Press a key.
    Press(Key),
    /// Scroll the page.
    Scroll { down: bool },
    /// Click at literal coordinates (action logs sometimes only have
    /// these when the recorder lost accessibility metadata).
    ClickPoint(Point),
    /// Focus the field at literal coordinates, then type.
    TypeAt { point: Point, value: String },
    /// Unparseable — the agent will have to improvise.
    Unknown(String),
}

impl StepIntent {
    /// A short description of the element this intent must locate, used as
    /// the grounding query ("the 'New issue' button", "the Title field").
    pub fn grounding_query(&self) -> Option<String> {
        match self {
            StepIntent::Click { target } => Some(target.clone()),
            StepIntent::Type { field: Some(f), .. } => Some(format!("the {f} field")),
            StepIntent::Type { field: None, .. } => None,
            StepIntent::Set { field, .. } => Some(format!("the {field} field")),
            StepIntent::Select { field, .. } => Some(format!("the {field} dropdown")),
            StepIntent::Check { target } => Some(target.clone()),
            _ => None,
        }
    }
}

/// Parse a "(x, y)" coordinate suffix.
fn coord_suffix(text: &str) -> Option<Point> {
    let open = text.rfind('(')?;
    let close = text[open..].find(')')? + open;
    let inner = &text[open + 1..close];
    let mut parts = inner.split(',');
    let x: i32 = parts.next()?.trim().parse().ok()?;
    let y: i32 = parts.next()?.trim().parse().ok()?;
    Some(Point::new(x, y))
}

fn first_quoted(text: &str, quote: char) -> Option<String> {
    let start = text.find(quote)?;
    let rest = &text[start + 1..];
    let end = rest.find(quote)?;
    Some(rest[..end].to_string())
}

/// Byte offset of the first match of the lowercase ASCII `needle` in
/// `text`, ignoring ASCII case. The offset indexes `text` itself (not a
/// lowercased copy, whose byte offsets can differ), and a match of an
/// ASCII needle always starts and ends on a char boundary.
fn find_ascii(text: &str, needle: &str) -> Option<usize> {
    text.as_bytes()
        .windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

fn after_keyword<'a>(text: &'a str, kw: &str) -> Option<&'a str> {
    let pos = find_ascii(text, kw)?;
    Some(text[pos + kw.len()..].trim())
}

fn strip_articles(s: &str) -> String {
    let s = s.trim();
    let s = s.strip_prefix("the ").unwrap_or(s);
    let s = s.strip_prefix("a ").unwrap_or(s);
    s.trim().to_string()
}

fn field_phrase(text: &str) -> Option<String> {
    // "... into the X field" / "... in the X field" / "the X field ..."
    for kw in ["into the ", "in the ", "the "] {
        if let Some(rest) = after_keyword(text, kw) {
            if let Some(end) = find_ascii(rest, " field") {
                let cand = rest[..end].trim();
                if !cand.is_empty() && cand.len() < 60 {
                    return Some(cand.to_string());
                }
            }
        }
    }
    None
}

/// Parse one step.
pub fn parse_step(text: &str) -> StepIntent {
    let lower = text.to_lowercase();
    let lead_verb = lower
        .split_whitespace()
        .next()
        .unwrap_or("")
        .trim_matches(|c: char| !c.is_alphanumeric())
        .to_string();

    match lead_verb.as_str() {
        "press" | "hit" if lower.contains("enter") => return StepIntent::Press(Key::Enter),
        "press" | "hit" if lower.contains("escape") => return StepIntent::Press(Key::Escape),
        "press" | "hit" if lower.contains("tab") => return StepIntent::Press(Key::Tab),
        "scroll" => {
            return StepIntent::Scroll {
                down: !lower.contains("up"),
            }
        }
        _ => {}
    }

    // Select 'X' from the Y dropdown.
    if matches!(lead_verb.as_str(), "select" | "choose" | "pick") {
        if let Some(option) = first_quoted(text, '\'') {
            let field = after_keyword(text, "from the ")
                .map(|rest| {
                    rest.trim_end_matches('.')
                        .trim_end_matches(" dropdown")
                        .trim_end_matches(" drop-down")
                        .to_string()
                })
                .unwrap_or_else(|| "option".into());
            return StepIntent::Select {
                option,
                field: strip_articles(&field),
            };
        }
    }

    // Set the X field to "V".
    if lead_verb == "set" {
        if let (Some(field), Some(value)) = (field_phrase(text), first_quoted(text, '"')) {
            return StepIntent::Set { field, value };
        }
    }

    // Type "V" [into the X field] / [into the field at (x, y)].
    if matches!(
        lead_verb.as_str(),
        "type" | "enter" | "input" | "write" | "fill"
    ) {
        if let Some(value) = first_quoted(text, '"') {
            if lower.contains("field at (") {
                if let Some(point) = coord_suffix(text) {
                    return StepIntent::TypeAt { point, value };
                }
            }
            return StepIntent::Type {
                value,
                field: field_phrase(text),
            };
        }
        // Unquoted value ("Type the member ID into the Member ID field"):
        // the value itself is unknown — still a Type intent, but with the
        // placeholder text as its value (an honest failure source).
        if let Some(field) = field_phrase(text) {
            let value = after_keyword(text, "type ")
                .or_else(|| after_keyword(text, "enter "))
                .map(|r| r.split(" into ").next().unwrap_or(r).trim().to_string())
                .unwrap_or_default();
            return StepIntent::Type {
                value,
                field: Some(field),
            };
        }
    }

    // Check the '…' checkbox.
    if matches!(lead_verb.as_str(), "check" | "tick" | "toggle" | "enable") {
        let target = first_quoted(text, '\'')
            .or_else(|| {
                after_keyword(text, "check ")
                    .map(|r| strip_articles(r.trim_end_matches('.').trim_end_matches(" checkbox")))
            })
            .unwrap_or_else(|| text.to_string());
        return StepIntent::Check { target };
    }

    // Click / open / navigate: a click on something.
    if matches!(
        lead_verb.as_str(),
        "click" | "tap" | "open" | "go" | "navigate" | "visit" | "push"
    ) {
        if lower.starts_with("click at (") {
            if let Some(point) = coord_suffix(text) {
                return StepIntent::ClickPoint(point);
            }
        }
        // Prefer the quoted anchor; fall back to "the X field" (focus
        // clicks) then the whole tail.
        if let Some(q) = first_quoted(text, '\'') {
            return StepIntent::Click { target: q };
        }
        if let Some(field) = field_phrase(text) {
            return StepIntent::Click { target: field };
        }
        let tail = text
            .split_once(' ')
            .map(|x| x.1)
            .map(|t| strip_articles(t.trim_end_matches('.')))
            .unwrap_or_default();
        if !tail.is_empty() {
            return StepIntent::Click { target: tail };
        }
    }

    StepIntent::Unknown(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_click_with_quotes() {
        assert_eq!(
            parse_step("Click the 'New issue' button"),
            StepIntent::Click {
                target: "New issue".into()
            }
        );
        assert_eq!(
            parse_step("Open the 'WebApp' project link"),
            StepIntent::Click {
                target: "WebApp".into()
            }
        );
    }

    #[test]
    fn parses_type_into_field() {
        assert_eq!(
            parse_step("Type \"Login broken\" into the Title field"),
            StepIntent::Type {
                value: "Login broken".into(),
                field: Some("Title".into())
            }
        );
        assert_eq!(
            parse_step("Type \"free text\""),
            StepIntent::Type {
                value: "free text".into(),
                field: None
            }
        );
    }

    #[test]
    fn parses_set_and_select() {
        assert_eq!(
            parse_step("Set the Price field to \"17.25\""),
            StepIntent::Set {
                field: "Price".into(),
                value: "17.25".into()
            }
        );
        assert_eq!(
            parse_step("Select 'bug' from the Label dropdown"),
            StepIntent::Select {
                option: "bug".into(),
                field: "Label".into()
            }
        );
    }

    #[test]
    fn parses_check_press_scroll() {
        assert_eq!(
            parse_step("Check the 'This issue is confidential' checkbox"),
            StepIntent::Check {
                target: "This issue is confidential".into()
            }
        );
        assert_eq!(parse_step("Press Enter"), StepIntent::Press(Key::Enter));
        assert_eq!(
            parse_step("Scroll down to the bottom"),
            StepIntent::Scroll { down: true }
        );
        assert_eq!(parse_step("Scroll up"), StepIntent::Scroll { down: false });
    }

    #[test]
    fn unparseable_becomes_unknown() {
        assert!(matches!(
            parse_step("Double-check the value you entered is correct"),
            StepIntent::Check { .. } | StepIntent::Unknown(_)
        ));
        assert!(matches!(
            parse_step("Wait for the page to finish loading"),
            StepIntent::Unknown(_)
        ));
    }

    #[test]
    fn grounding_queries() {
        assert_eq!(
            parse_step("Type \"x\" into the Title field").grounding_query(),
            Some("the Title field".into())
        );
        assert_eq!(
            parse_step("Click the 'Save' button").grounding_query(),
            Some("Save".into())
        );
        assert_eq!(parse_step("Press Enter").grounding_query(), None);
    }

    #[test]
    fn non_ascii_text_is_sliced_where_it_matched() {
        // Lowercasing `İ` and `Ⱥ` lengthens them: an offset found in a
        // lowercased copy would slice the original out of bounds.
        assert_eq!(
            parse_step("Type \"x\" into the İİİİİİİ field"),
            StepIntent::Type {
                value: "x".into(),
                field: Some("İİİİİİİ".into())
            }
        );
        assert_eq!(
            parse_step("Select 'a' ȺȺȺȺȺȺȺȺȺȺȺ from the X dropdown"),
            StepIntent::Select {
                option: "a".into(),
                field: "X".into()
            }
        );
        assert_eq!(
            parse_step("Type the ȺȺȺȺȺȺȺȺ value into the Name field"),
            StepIntent::Type {
                value: "the ȺȺȺȺȺȺȺȺ value".into(),
                field: Some("Name".into())
            }
        );
        assert_eq!(
            parse_step("Set the ȺȺȺȺȺȺȺ field to \"v\""),
            StepIntent::Set {
                field: "ȺȺȺȺȺȺȺ".into(),
                value: "v".into()
            }
        );
    }

    /// The grammar's keywords, step and SOP framing, and chars whose
    /// lowercase differs in length or lands in ASCII.
    const PIECES: &[&str] = &[
        "Type ",
        "type ",
        "Enter ",
        "Set ",
        "Select ",
        "Choose ",
        "Click ",
        "click at (",
        "Check ",
        "check ",
        "Press ",
        "Scroll ",
        "Open ",
        "into the ",
        "INTO THE ",
        "in the ",
        "the ",
        "The ",
        " field",
        " FIELD",
        "field at (",
        "from the ",
        " dropdown",
        " drop-down",
        " checkbox",
        " to ",
        "'",
        "\"",
        "(",
        ")",
        ",",
        "12",
        "-3",
        ".",
        " ",
        "1. ",
        "2) ",
        "- ",
        "SOP:",
        "[HUMAN]",
        "\n",
        "enter",
        "escape",
        "tab",
        "up",
        "İ",
        "İİİ",
        "Ⱥ",
        "ȺȺȺ",
        "\u{212A}",
        "ẞ",
        "ΑΣ",
        "e\u{301}",
        "🚀",
        "—",
        "",
    ];

    fn splice(parts: Vec<(usize, u32)>) -> String {
        let mut out = String::new();
        for (k, cp) in parts {
            match PIECES.get(k) {
                Some(p) => out.push_str(p),
                None => out.push(char::from_u32(cp).unwrap_or('\u{FFFD}')),
            }
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn parsers_never_panic_on_spliced_unicode(
            lines in proptest::collection::vec(
                proptest::collection::vec((0usize..PIECES.len() + 4, 0u32..0x11_0000), 0..12),
                1..8,
            ),
        ) {
            let lines: Vec<String> = lines.into_iter().map(splice).collect();
            for line in &lines {
                if let StepIntent::Unknown(t) = parse_step(line) {
                    proptest::prop_assert_eq!(&t, line);
                }
            }
            let sop = eclair_workflow::Sop::parse(&lines.join("\n"));
            for step in &sop.steps {
                parse_step(&step.text);
            }
        }
    }

    #[test]
    fn gold_sop_round_trip_parses_cleanly() {
        // Every step of every gold SOP must parse to a non-Unknown intent.
        for task in eclair_sites::all_tasks() {
            for step in &task.gold_sop.steps {
                let intent = parse_step(&step.text);
                assert!(
                    !matches!(intent, StepIntent::Unknown(_)),
                    "{}: unparseable gold step: {}",
                    task.id,
                    step.text
                );
            }
        }
    }
}
