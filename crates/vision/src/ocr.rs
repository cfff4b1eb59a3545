//! Simulated optical character recognition.
//!
//! Multimodal FMs read on-screen text through their vision tower; small or
//! dense text is read less reliably. This module models that: reading a
//! [`PaintItem`]'s text applies character-level corruption whose rate grows
//! as the glyph size shrinks, controlled by an *acuity* parameter that the
//! model profiles in `eclair-fm` set (CogAgent, trained on GUIs, reads
//! small text better than a generalist model).

use rand::Rng;

use eclair_gui::PaintItem;

/// OCR quality knob: 1.0 = perfect reading, 0.0 = hopeless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acuity(pub f64);

impl Acuity {
    /// Clamp into [0, 1].
    pub fn new(v: f64) -> Self {
        Self(v.clamp(0.0, 1.0))
    }

    /// Per-character error probability for text rendered at `glyph_h`
    /// pixels. Full-size text (≥18 px) is read almost perfectly at high
    /// acuity; 10 px text suffers.
    pub fn char_error_rate(&self, glyph_h: u32) -> f64 {
        let size_penalty = if glyph_h >= 18 {
            0.002
        } else if glyph_h >= 13 {
            0.01
        } else {
            0.05
        };
        (size_penalty * (2.0 - self.0) * 2.0).min(0.5) * (1.0 - self.0 * 0.8)
            + size_penalty * (1.0 - self.0)
    }
}

/// Glyph height implied by a paint item (text fills most of short items;
/// tall items like textareas render body-size text).
pub fn glyph_height(item: &PaintItem) -> u32 {
    item.rect.h.clamp(8, 22)
}

const CONFUSIONS: &[(char, char)] = &[
    ('O', '0'),
    ('0', 'O'),
    ('l', '1'),
    ('1', 'l'),
    ('I', 'l'),
    ('S', '5'),
    ('5', 'S'),
    ('B', '8'),
    ('m', 'n'),
    ('n', 'm'),
    ('e', 'c'),
    ('a', 'o'),
];

/// Read one item's text with noise.
pub fn read_item<R: Rng>(item: &PaintItem, acuity: Acuity, rng: &mut R) -> String {
    let rate = acuity.char_error_rate(glyph_height(item));
    let text: &str = &item.text;
    if rate <= 0.0 {
        return text.to_string();
    }
    // Every confusion swaps one ASCII character for another, so the read
    // has exactly the text's byte length: one allocation.
    let mut read = String::with_capacity(text.len());
    read.extend(text.chars().map(|c| {
        if c.is_alphanumeric() && rng.gen_bool(rate) {
            CONFUSIONS
                .iter()
                .find(|(from, _)| *from == c)
                .map(|(_, to)| *to)
                .unwrap_or(c)
        } else {
            c
        }
    }));
    read
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_gui::{Rect, VisualClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn item(text: &str, h: u32) -> PaintItem {
        PaintItem {
            rect: Rect::new(0, 0, 100, h),
            visual: VisualClass::Text,
            text: text.into(),
            emphasis: false,
            grayed: false,
        }
    }

    #[test]
    fn perfect_acuity_on_large_text_is_nearly_lossless() {
        let mut rng = StdRng::seed_from_u64(1);
        let it = item("Create merge request", 20);
        let mut errors = 0;
        for _ in 0..200 {
            if read_item(&it, Acuity::new(1.0), &mut rng) != it.text {
                errors += 1;
            }
        }
        assert!(
            errors <= 6,
            "large text at acuity 1.0 rarely corrupts: {errors}"
        );
    }

    #[test]
    fn small_text_low_acuity_corrupts_more() {
        let mut rng = StdRng::seed_from_u64(2);
        let small = item("Settings", 10);
        let large = item("Settings", 20);
        let mut small_err = 0;
        let mut large_err = 0;
        for _ in 0..400 {
            if read_item(&small, Acuity::new(0.3), &mut rng) != small.text {
                small_err += 1;
            }
            if read_item(&large, Acuity::new(0.3), &mut rng) != large.text {
                large_err += 1;
            }
        }
        assert!(
            small_err > large_err,
            "small text must corrupt more: {small_err} vs {large_err}"
        );
    }

    #[test]
    fn error_rate_monotone_in_acuity() {
        let a_hi = Acuity::new(0.95).char_error_rate(12);
        let a_lo = Acuity::new(0.2).char_error_rate(12);
        assert!(a_lo > a_hi);
    }

    #[test]
    fn deterministic_under_seed() {
        let it = item("Invoice #10023", 12);
        let a = read_item(&it, Acuity::new(0.4), &mut StdRng::seed_from_u64(9));
        let b = read_item(&it, Acuity::new(0.4), &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn punctuation_and_spaces_survive() {
        let it = item("a-b c_d!", 10);
        let mut rng = StdRng::seed_from_u64(3);
        let out = read_item(&it, Acuity::new(0.0), &mut rng);
        assert_eq!(out.len(), it.text.len(), "length preserved");
        for (o, t) in out.chars().zip(it.text.chars()) {
            if !t.is_alphanumeric() {
                assert_eq!(o, t, "non-alphanumerics never corrupt");
            }
        }
    }
}
