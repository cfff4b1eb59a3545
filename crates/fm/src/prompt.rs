//! Prompt assembly.
//!
//! Experiments differ only in *which evidence enters the context window*
//! (WD vs WD+KF vs WD+KF+ACT; with or without SOP; marked or raw
//! screenshots). [`Prompt`] makes that explicit and measurable: harnesses
//! build prompts, the token meter prices them, and the model consumes the
//! structured parts directly.

use serde::{Deserialize, Serialize};

use eclair_gui::Screenshot;
use eclair_vision::marks::MarkedScreenshot;

/// One piece of a prompt.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Part {
    /// Instruction or evidence text.
    Text(String),
    /// A raw screenshot.
    Image(Screenshot),
    /// A screenshot with set-of-marks overlay.
    MarkedImage(MarkedScreenshot),
}

impl Part {
    /// Approximate token cost of this part (text ≈ 1 token / 4 chars;
    /// images priced like high-detail GPT-4V tiles: a flat base plus a per-
    /// item term since our screenshots are structured).
    pub fn tokens(&self) -> u64 {
        match self {
            Part::Text(t) => (t.len() as u64).div_ceil(4),
            Part::Image(s) => 85 + 4 * s.items.len() as u64,
            Part::MarkedImage(m) => 85 + 4 * m.items as u64 + 3 * m.marks.len() as u64,
        }
    }
}

/// A full prompt: ordered parts plus a system preamble.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Prompt {
    /// System / task framing text.
    pub system: String,
    /// Ordered content parts.
    pub parts: Vec<Part>,
}

impl Prompt {
    /// Start a prompt with a system preamble.
    pub fn new(system: impl Into<String>) -> Self {
        Self {
            system: system.into(),
            parts: Vec::new(),
        }
    }

    /// Append a text part.
    pub fn text(mut self, t: impl Into<String>) -> Self {
        self.parts.push(Part::Text(t.into()));
        self
    }

    /// Append an image part.
    pub fn image(mut self, s: Screenshot) -> Self {
        self.parts.push(Part::Image(s));
        self
    }

    /// Total prompt tokens.
    pub fn tokens(&self) -> u64 {
        (self.system.len() as u64).div_ceil(4) + self.parts.iter().map(Part::tokens).sum::<u64>()
    }

    /// Number of image parts (multimodal calls cost more).
    pub fn image_count(&self) -> usize {
        self.parts
            .iter()
            .filter(|p| !matches!(p, Part::Text(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_gui::PageBuilder;

    fn shot() -> Screenshot {
        let mut b = PageBuilder::new("t", "/t");
        b.heading(1, "Hello");
        b.button("x", "Do thing");
        b.finish().screenshot_at(0)
    }

    #[test]
    fn token_accounting_sums_parts() {
        let p = Prompt::new("You are a workflow agent.")
            .text("Workflow: create an issue")
            .image(shot());
        assert!(p.tokens() > 85, "image base cost included");
        assert_eq!(p.image_count(), 1);
        let p2 = p.clone().image(shot());
        assert!(p2.tokens() > p.tokens());
        assert_eq!(p2.image_count(), 2);
    }

    #[test]
    fn text_tokens_are_chars_over_four() {
        let p = Prompt::new("").text("abcdefgh"); // 8 chars -> 2 tokens
        assert_eq!(p.tokens(), 2);
    }

    #[test]
    fn marked_image_costs_more_than_plain() {
        let page = {
            let mut b = PageBuilder::new("m", "/m");
            b.button("a", "A");
            b.button("b", "B");
            b.finish()
        };
        let plain = Part::Image(page.screenshot_at(0));
        let marked = Part::MarkedImage(eclair_vision::marks::marks_from_html(&page, 0));
        assert!(marked.tokens() > plain.tokens());
    }
}
