//! The plain `Vec<String>` formulation of the step matcher: the oracle the
//! exactness tests compare [`crate::matcher`] against, bit for bit. No
//! production path calls it.
//!
//! Bit-exactness matters because the matcher's scores meet hard
//! thresholds (0.75 to count an SOP step as matched, 0.6 for a trajectory
//! step, 0.4 for a follower's place-keeping slip) and the SOP scorer sorts
//! its candidate pairs by score: a one-ulp drift moves a Table 1 cell or
//! draws the RNG differently.

use crate::matcher::{verbs_compatible, VerbClass, STOPWORDS, VERB_TABLE};

/// Lowercase, strip punctuation, drop stopwords.
fn normalize_tokens(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty() && !STOPWORDS.contains(t))
        .map(str::to_string)
        .collect()
}

/// Normalized tokens with interaction verbs removed.
fn content_tokens(text: &str) -> Vec<String> {
    normalize_tokens(text)
        .into_iter()
        .filter(|t| !VERB_TABLE.iter().any(|(w, _)| w == t))
        .collect()
}

/// The leading interaction verb among the first four tokens.
fn verb_class(text: &str) -> VerbClass {
    for tok in text
        .to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .take(4)
    {
        if let Some((_, v)) = VERB_TABLE.iter().find(|(w, _)| *w == tok) {
            return *v;
        }
    }
    VerbClass::Other
}

fn token_f1(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut b_left: Vec<&String> = b.iter().collect();
    let mut overlap = 0usize;
    for tok in a {
        if let Some(pos) = b_left.iter().position(|t| *t == tok) {
            b_left.swap_remove(pos);
            overlap += 1;
        }
    }
    let p = overlap as f64 / a.len() as f64;
    let r = overlap as f64 / b.len() as f64;
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

fn step_similarity(a: &str, b: &str) -> f64 {
    let va = verb_class(a);
    let vb = verb_class(b);
    let verb_score = if verbs_compatible(va, vb) { 1.0 } else { 0.0 };
    let ta = content_tokens(a);
    let tb = content_tokens(b);
    0.4 * verb_score + 0.6 * token_f1(&ta, &tb)
}

mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use crate::matcher;

    /// Fragments the generated steps are spliced from: the inputs whose
    /// lowercasing, tokenizing, verb finding or counting is easy to get
    /// subtly wrong.
    const FRAGMENTS: &[&str] = &[
        // One char that lowercases to two, and the final sigma, which
        // lowercases by context.
        "İ",
        "İİ",
        "ΑΣ",
        "Σ",
        "ΣΑ",
        "ς",
        "ß",
        "ẞ",
        // The Kelvin sign lowercases to ASCII `k`; combining marks split
        // tokens.
        "\u{212A}",
        "e\u{301}",
        "\u{308}a",
        "·",
        " — ",
        "🚀",
        "٣",
        // Empty pieces, whitespace and punctuation.
        "",
        " ",
        "'",
        "\"",
        "!!!",
        "(40, 173)",
        // Verbs in every case, and words that merely start like one.
        "Click",
        "click",
        "PRESS",
        "Type",
        "enter",
        "go",
        "Open",
        "select",
        "Choose",
        "check",
        "uncheck",
        "toggle",
        "scroll",
        "clicked",
        "going",
        // Stopwords.
        "the",
        "a",
        "to",
        "into",
        "button",
        "field",
        "page",
        "now",
        "then",
        // Content.
        "New issue",
        "Save",
        "save",
        "changes",
        "Title",
        "Login broken",
        "x",
        "123",
    ];

    const PIECES: usize = FRAGMENTS.len() + 4;

    fn piece(out: &mut String, (k, cp): (usize, u32)) {
        let c = match k.checked_sub(FRAGMENTS.len()) {
            None => return out.push_str(FRAGMENTS[k]),
            Some(0) => cp,
            Some(1) => 0xC0 + cp % 0x3C0,
            Some(_) => 0x20 + cp % 0x5F,
        };
        out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
    }

    fn build(parts: Vec<(usize, u32)>) -> String {
        let mut out = String::new();
        for (i, p) in parts.into_iter().enumerate() {
            if i > 0 && p.1 % 3 == 0 {
                out.push(' ');
            }
            piece(&mut out, p);
        }
        out
    }

    fn arb_step() -> impl Strategy<Value = String> {
        vec((0usize..PIECES, 0u32..0x11_0000), 0..9).prop_map(build)
    }

    fn content(step: &str) -> Vec<String> {
        matcher::with_steps([step], |s| s[0].content().map(str::to_string).collect())
    }

    /// The matcher agrees with the oracle on `a` and `b`: the verb class
    /// and the content tokens of each, and the similarity to the bit.
    fn assert_exact(a: &str, b: &str) {
        assert_eq!(
            matcher::verb_class(a),
            super::verb_class(a),
            "verb_class({a:?})"
        );
        assert_eq!(content(a), super::content_tokens(a), "content({a:?})");
        assert_eq!(
            matcher::step_similarity(a, b).to_bits(),
            super::step_similarity(a, b).to_bits(),
            "step_similarity({a:?}, {b:?})"
        );
        let (ta, tb) = (super::content_tokens(a), super::content_tokens(b));
        assert_eq!(
            matcher::token_f1(&ta, &tb).to_bits(),
            super::token_f1(&ta, &tb).to_bits(),
            "token_f1({ta:?}, {tb:?})"
        );
    }

    /// Prepared once as a list, every pair of `steps` scores as the oracle
    /// scores it.
    fn assert_list_exact(steps: &[String]) {
        matcher::with_steps(steps.iter().map(String::as_str), |prepared| {
            for (a, pa) in steps.iter().zip(prepared) {
                assert_eq!(pa.verb(), super::verb_class(a), "verb of {a:?}");
                for (b, pb) in steps.iter().zip(prepared) {
                    assert_eq!(
                        pa.similarity(pb).to_bits(),
                        super::step_similarity(a, b).to_bits(),
                        "prepared similarity({a:?}, {b:?})"
                    );
                }
            }
        });
    }

    #[test]
    fn every_fragment_pair_is_exact() {
        for a in FRAGMENTS {
            for b in FRAGMENTS {
                assert_exact(a, b);
                assert_exact(&format!("{a} {b}"), &format!("{b}{a}"));
            }
        }
    }

    #[test]
    fn only_the_first_four_tokens_name_the_verb() {
        for (step, verb) in [
            ("one two three click x", matcher::VerbClass::Click),
            ("the a an Press x", matcher::VerbClass::Press),
            ("one two three four click x", matcher::VerbClass::Other),
            ("the a an on press x", matcher::VerbClass::Other),
            ("'!' -- the · a — to Type x", matcher::VerbClass::Type),
            ("İ İ İ İ select", matcher::VerbClass::Other),
        ] {
            assert_eq!(matcher::verb_class(step), verb, "{step:?}");
            assert_exact(step, "Click the 'x' button");
        }
    }

    #[test]
    fn stopword_only_empty_and_repeated_steps_are_exact() {
        let steps = [
            "",
            " ",
            "!!!",
            "the",
            "Click the button on the page",
            "Type into the field",
            "save save save changes",
            "Save changes changes",
            "changes save",
            "x x x x x",
            "x",
        ];
        for a in steps {
            for b in steps {
                assert_exact(a, b);
            }
        }
        // Two empty bags agree fully; an empty and a full one not at all.
        assert_eq!(matcher::step_similarity("", "the button"), 1.0);
        assert_eq!(matcher::token_f1(&[], &["x".to_string()]), 0.0);
        let steps: Vec<String> = steps.iter().map(|s| s.to_string()).collect();
        assert_list_exact(&steps);
    }

    /// Steps of more than 128 content tokens, with and without repeats, so
    /// a bound on the bag size would show.
    #[test]
    fn long_steps_are_exact() {
        let words = |n: usize, modulo: usize| -> String {
            let body: Vec<String> = (0..n).map(|i| format!("w{}", i % modulo)).collect();
            format!("Click {}", body.join(" "))
        };
        let steps = vec![
            words(129, 1000),
            words(130, 1000),
            words(200, 1000),
            words(200, 7),
            words(140, 3),
            words(5, 1000),
        ];
        assert!(content(&steps[0]).len() > 128);
        for a in &steps {
            for b in &steps {
                assert_exact(a, b);
            }
        }
        assert_list_exact(&steps);
    }

    proptest! {
        #[test]
        fn matcher_is_bit_identical_to_the_oracle(steps in vec(arb_step(), 1..8)) {
            for a in &steps {
                for b in &steps {
                    assert_exact(a, b);
                }
            }
            assert_list_exact(&steps);
        }
    }
}
