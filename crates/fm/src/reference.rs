//! The plain `Vec<String>` formulation of the lexical kernel and of
//! `score_marks`: the oracle the exactness tests compare [`crate::text`]
//! and [`crate::ground::score_marks`] against, bit for bit. No production
//! path calls it.
//!
//! Bit-exactness matters because grounding compares these scores with
//! hard thresholds (the 0.25 fallback, the 0.05 near-tie, the 0.4 and
//! 0.85 text filters) and breaks ties with `partial_cmp`: a one-ulp drift
//! is a different click.

use eclair_vision::marks::Mark;

use crate::ground::ROLE_WORDS;

fn tokens(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

fn overlap(a: &str, b: &str) -> f64 {
    let ta = tokens(a);
    let tb = tokens(b);
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let mut remaining: Vec<&String> = tb.iter().collect();
    let mut hits = 0usize;
    for t in &ta {
        if let Some(pos) = remaining.iter().position(|r| *r == t) {
            remaining.swap_remove(pos);
            hits += 1;
        }
    }
    2.0 * hits as f64 / (ta.len() + tb.len()) as f64
}

fn stem(token: &str) -> String {
    let t = token.to_lowercase();
    for suffix in ["ing", "ed", "es", "s", "e"] {
        if let Some(stripped) = t.strip_suffix(suffix) {
            if stripped.len() >= 3 {
                return stripped.to_string();
            }
        }
    }
    t
}

fn stem_overlap(a: &str, b: &str) -> f64 {
    let ta: Vec<String> = tokens(a).iter().map(|t| stem(t)).collect();
    let tb: Vec<String> = tokens(b).iter().map(|t| stem(t)).collect();
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let mut remaining: Vec<&String> = tb.iter().collect();
    let mut hits = 0usize;
    for t in &ta {
        if let Some(pos) = remaining.iter().position(|r| *r == t) {
            remaining.swap_remove(pos);
            hits += 1;
        }
    }
    2.0 * hits as f64 / (ta.len() + tb.len()) as f64
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn fuzzy_similarity(a: &str, b: &str) -> f64 {
    let o = overlap(a, b);
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    let e = 1.0 - edit_distance(&a.to_lowercase(), &b.to_lowercase()) as f64 / max_len as f64;
    o.max(e)
}

fn core_terms(description: &str) -> Vec<String> {
    tokens(description)
        .into_iter()
        .filter(|t| !ROLE_WORDS.contains(&t.as_str()))
        .collect()
}

fn score_marks(description: &str, marks: &[Mark]) -> Vec<(u32, f64)> {
    let lower = description.to_lowercase();
    let wants_button = lower.contains("button") || lower.contains("link") || lower.contains("tab");
    let wants_field = lower.contains("field")
        || lower.contains("dropdown")
        || lower.contains("box")
        || lower.contains("area");
    let core = core_terms(description);
    let core_joined = core.join(" ");
    marks
        .iter()
        .map(|m| {
            let mut s = if m.text.is_empty() {
                0.05
            } else {
                let text_tokens = tokens(&m.text);
                let all_present = !core.is_empty() && core.iter().all(|t| text_tokens.contains(t));
                let subword = core
                    .iter()
                    .any(|q| q.len() >= 4 && text_tokens.iter().any(|t| t.contains(q.as_str())));
                let base = fuzzy_similarity(&m.text, &core_joined)
                    .max(stem_overlap(&m.text, &core_joined) * 0.9);
                if all_present {
                    base.max(0.75)
                } else if subword {
                    base.max(0.45)
                } else {
                    base
                }
            };
            let hint = m.hint.to_lowercase();
            let buttonish = hint.contains("button") || hint == "a" || hint.contains("link");
            let fieldish =
                hint.contains("input") || hint.contains("textarea") || hint.contains("select");
            if wants_button && !buttonish {
                s *= 0.55;
            }
            if wants_field && !fieldish {
                s *= 0.5;
            }
            (m.label, s)
        })
        .collect()
}

mod tests {
    use eclair_gui::Rect;
    use eclair_vision::marks::Mark;
    use proptest::collection::vec;
    use proptest::prelude::*;

    use crate::{ground, text};

    /// Fragments the generated strings are spliced from: the inputs whose
    /// lowercasing, tokenizing or stemming is easy to get subtly wrong.
    const FRAGMENTS: &[&str] = &[
        // One char that lowercases to two: `max_len` counts the original
        // chars, the edit distance the lowercased ones.
        "İ",
        "İİİ",
        // Final sigma: lowercasing depends on the neighbours.
        "ΑΣ",
        "Σ",
        "ΣΑ",
        "ς",
        "ß",
        "ẞ",
        // Combining marks (not alphanumeric: they split tokens).
        "e\u{301}",
        "\u{301}",
        "\u{308}a",
        // What the sites render.
        "·",
        " · ",
        "—",
        " — ",
        "🚀",
        "👍🏽",
        "✓",
        // Kelvin sign lowercases to ASCII `k`; others are numbers.
        "\u{212A}",
        "Ⅻ",
        "٣",
        "ǅ",
        "ﬁ",
        // Empty pieces, whitespace, punctuation runs.
        "",
        " ",
        "   ",
        "!!!",
        "...",
        "-_-",
        "'\"",
        // Stemming: "es" would leave under 3 bytes in "ties" and "bes",
        // so the next suffix is tried.
        "ties",
        "bes",
        "saving",
        "Saved",
        "saves",
        "ing",
        "es",
        "s",
        "e",
        "ed",
        "abed",
        "sing",
        "cafés",
        "naïve",
        // Everyday labels and role words.
        "Invite",
        "member",
        "Create shipment",
        "Ship",
        "the",
        "button",
        "field",
        "link",
        "tab",
        "box",
        "area",
        "dropdown",
        "Settings",
        "Setting5",
        "123",
        "x",
    ];

    /// Piece index range: fragments, then a random scalar from anywhere,
    /// from Latin-1/Greek/Cyrillic, or from printable ASCII.
    const PIECES: usize = FRAGMENTS.len() + 6;

    fn piece(out: &mut String, (k, cp): (usize, u32)) {
        let c = match k.checked_sub(FRAGMENTS.len()) {
            None => return out.push_str(FRAGMENTS[k]),
            Some(0 | 1) => cp,
            Some(2 | 3) => 0xC0 + cp % 0x3C0,
            Some(_) => 0x20 + cp % 0x5F,
        };
        out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
    }

    fn build(parts: Vec<(usize, u32)>) -> String {
        let mut out = String::new();
        for p in parts {
            piece(&mut out, p);
        }
        out
    }

    fn arb_text() -> impl Strategy<Value = String> {
        vec((0usize..PIECES, 0u32..0x11_0000), 0..7).prop_map(build)
    }

    /// Every kernel entry point agrees with the oracle on `(a, b)`, to
    /// the bit.
    fn assert_exact(a: &str, b: &str) {
        let bits = |f: fn(&str, &str) -> f64| f(a, b).to_bits();
        assert_eq!(
            bits(text::overlap),
            bits(super::overlap),
            "overlap({a:?}, {b:?})"
        );
        assert_eq!(
            bits(text::stem_overlap),
            bits(super::stem_overlap),
            "stem_overlap({a:?}, {b:?})"
        );
        assert_eq!(
            bits(text::fuzzy_similarity),
            bits(super::fuzzy_similarity),
            "fuzzy_similarity({a:?}, {b:?})"
        );
        assert_eq!(
            text::edit_distance(a, b),
            super::edit_distance(a, b),
            "edit_distance({a:?}, {b:?})"
        );
        text::with_prepared([a], |p| {
            assert!(
                p[0].tokens()
                    .eq(super::tokens(a).iter().map(String::as_str)),
                "tokens({a:?})"
            )
        });
        let contains_all = |hay: &str, needle: &str| {
            let hay = super::tokens(hay);
            super::tokens(needle).iter().all(|t| hay.contains(t))
        };
        assert_eq!(
            text::contains_all(a, b),
            contains_all(a, b),
            "contains_all({a:?}, {b:?})"
        );
    }

    fn marks(texts: &[String], hints: &[String]) -> Vec<Mark> {
        texts
            .iter()
            .zip(hints.iter().cycle())
            .enumerate()
            .map(|(i, (text, hint))| Mark {
                label: i as u32,
                rect: Rect::new(0, 0, 10, 10),
                text: text.clone().into(),
                hint: hint.clone().into(),
            })
            .collect()
    }

    fn assert_scores_exact(description: &str, marks: &[Mark]) {
        let bits = |scored: Vec<(u32, f64)>| -> Vec<(u32, u64)> {
            scored.into_iter().map(|(l, s)| (l, s.to_bits())).collect()
        };
        assert_eq!(
            bits(ground::score_marks(description, marks)),
            bits(super::score_marks(description, marks)),
            "score_marks({description:?}, {marks:?})"
        );
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
    fn the_tricky_cases_are_exact() {
        // `İ` is one char but two after lowercasing: the edit term goes
        // negative and the overlap wins.
        assert_eq!(super::fuzzy_similarity("İ", ""), 0.0);
        assert!(1.0 - (super::edit_distance("i\u{307}", "") as f64) < 0.0);
        for (a, b) in [
            ("İ", ""),
            ("İİİ", "iii"),
            ("ΑΣ", "ας"),
            ("ΑΣ ΑΣ", "ασ"),
            ("STRASSE", "straße"),
            ("", ""),
            ("!!!", "..."),
            ("ties", "tie"),
            ("bes", "be"),
            ("Saving changes", "You saved the changes"),
            ("Settings", "Setting5"),
            ("Created · 2 issues — 🚀", "create issue"),
        ] {
            assert_exact(a, b);
            assert_exact(b, a);
        }
        // `ties` stems to `tie`; `bes` and `be` keep every byte.
        assert_eq!(text::stem_overlap("ties", "tie"), 1.0);
        assert_eq!(text::stem_overlap("bes", "be"), 0.0);
    }

    /// `n` chars drawn from `alphabet` by a fixed xorshift stream.
    fn drawn(alphabet: &[char], n: usize, seed: u64) -> String {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                alphabet[(x % alphabet.len() as u64) as usize]
            })
            .collect()
    }

    /// `s` with every `k`-th char replaced and chars appended, inserted
    /// and repeated up to `n` chars: a near copy, so its distance to `s`
    /// is small.
    fn edited(s: &str, alphabet: &[char], k: usize, n: usize) -> String {
        let mut out: Vec<char> = s
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % k == k - 1 {
                    alphabet[i % alphabet.len()]
                } else {
                    c
                }
            })
            .collect();
        let mut i = 0;
        while out.len() < n {
            let c = alphabet[i % alphabet.len()];
            out.insert((i * 7) % (out.len() + 1), c);
            i += 1;
        }
        out.into_iter().collect()
    }

    /// The bit-parallel distance covers shorter sides of 1 to 64 chars and
    /// the row DP the rest: both agree with the oracle on either side of
    /// the limit, for ASCII and non-ASCII chars (`İ` lowercases to two
    /// chars, so its lowercased side crosses the limit first), repeated
    /// chars and either argument order.
    #[test]
    fn the_bit_parallel_limit_is_exact() {
        const ALPHABETS: &[&str] = &["ab", "Invite member", "İΣ·🚀a", "ΣΣσ·ς👍🏽 x"];
        for alphabet in ALPHABETS {
            let alphabet: Vec<char> = alphabet.chars().collect();
            for short in [0, 1, 63, 64, 65, 130] {
                for long in [short, short + 1, short + 9, 2 * short + 5] {
                    for seed in 0..3 {
                        let a = drawn(&alphabet, short, seed);
                        let far = drawn(&alphabet, long, seed + 100);
                        let near = edited(&a, &alphabet, 5 + seed as usize, long);
                        let ascii = drawn(&['a', 'b', 'I'], long, seed + 200);
                        for b in [far.as_str(), near.as_str(), ascii.as_str()] {
                            for (x, y) in [(a.as_str(), b), (b, a.as_str())] {
                                assert_eq!(
                                    text::edit_distance(x, y),
                                    super::edit_distance(x, y),
                                    "edit_distance({x:?}, {y:?})"
                                );
                                assert_eq!(
                                    text::fuzzy_similarity(x, y).to_bits(),
                                    super::fuzzy_similarity(x, y).to_bits(),
                                    "fuzzy_similarity({x:?}, {y:?})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The premise the spans rest on, over every Unicode scalar value:
    /// lowercasing is idempotent, so the oracle's second lowercasing of a
    /// token is a no-op, a stem is a prefix of its token, and the joined
    /// core terms re-tokenize to themselves.
    #[test]
    fn lowercasing_is_idempotent_on_every_char() {
        let mut once = String::new();
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            once.clear();
            once.extend(c.to_lowercase());
            assert_eq!(once.to_lowercase(), once, "{c:?}");
        }
    }

    /// Every char that lowercasing changes, and every char of one or two
    /// UTF-8 bytes, alone against itself followed by an `s`.
    #[test]
    fn every_cased_char_is_exact() {
        let mut one = String::new();
        let mut with_s = String::new();
        let chars = (0..=u32::from(char::MAX)).filter_map(char::from_u32);
        for c in chars.filter(|&c| c < '\u{800}' || !c.to_lowercase().eq([c])) {
            one.clear();
            one.push(c);
            with_s.clear();
            with_s.push(c);
            with_s.push('s');
            assert_exact(&one, &with_s);
        }
    }

    #[test]
    fn score_marks_on_role_words_and_hints_is_exact() {
        let texts: Vec<String> = FRAGMENTS.iter().map(|s| s.to_string()).collect();
        let hints: Vec<String> = [
            "button",
            "a",
            "input",
            "svg",
            "textarea",
            "select",
            "p",
            "LINK",
            "Button",
            "\u{212A}",
            "A",
            "BoxButton",
            "TextLink",
            "InputBox",
            "IconGlyph",
            // Lowercases to "link".
            "Lin\u{212A}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let ms = marks(&texts, &hints);
        for d in FRAGMENTS {
            assert_scores_exact(d, &ms);
            assert_scores_exact(&format!("the {d} button"), &ms);
            assert_scores_exact(&format!("the '{d}' field"), &ms);
        }
    }

    proptest! {
        #[test]
        fn kernel_is_bit_identical_to_the_oracle(texts in vec(arb_text(), 1..8)) {
            for a in &texts {
                for b in &texts {
                    assert_exact(a, b);
                }
            }
        }

        #[test]
        fn score_marks_is_bit_identical_to_the_oracle(
            description in arb_text(),
            texts in vec(arb_text(), 0..12),
            hints in vec(arb_text(), 1..4),
        ) {
            let ms = marks(&texts, &hints);
            assert_scores_exact(&description, &ms);
            assert_scores_exact(&format!("the {description} button"), &ms);
            assert_scores_exact(&format!("{description} field"), &ms);
        }
    }
}
