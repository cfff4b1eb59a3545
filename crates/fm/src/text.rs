//! Lexical similarity for the simulated language head.
//!
//! The simulated FM "understands" a description like *"the Invite member
//! button"* by comparing its tokens with the text it perceives on screen.
//! This is deliberately shallow — token overlap with light normalization —
//! because the failure modes the paper documents (two buttons with the same
//! label, an icon with no label at all) survive any amount of lexical
//! cleverness.
//!
//! Every similarity here is one kernel over per-thread scratch: an input
//! is lowercased once into a reusable buffer (in place for ASCII, through
//! `str::to_lowercase` otherwise), its tokens and stems are byte spans of
//! that buffer, and a slot handed the input it already holds keeps it. The
//! edit distance is Myers' bit-parallel algorithm when the shorter input
//! has at most 64 chars, and a reused DP row otherwise. A warm call on
//! ASCII inputs allocates nothing, nor does a repeated call on any inputs,
//! and every score is bit-identical to the plain `Vec<String>` formulation
//! the tests keep as their oracle (DESIGN.md §18).

use std::cell::RefCell;

/// Byte range `start..end` of a token or stem in a [`Lowered`] buffer.
type Span = (usize, usize);

/// One input, lowercased once, with its tokens and their stems as spans
/// of the lowercased text.
#[derive(Default)]
pub(crate) struct Lowered {
    /// The input as last loaded, before lowercasing. The default state is
    /// exactly what loading `""` leaves.
    raw: String,
    text: String,
    /// Char count of the input *before* lowercasing, which is what the
    /// edit similarity normalizes by (`İ` is one char and lowercases to
    /// two).
    chars: usize,
    tokens: Vec<Span>,
    stems: Vec<Span>,
}

impl Lowered {
    /// Lowercase `s` into this buffer and split it into tokens: the
    /// maximal runs of alphanumeric chars of the lowercased text. Loading
    /// the input already held does nothing: the state is a function of
    /// the input, and the whole input is compared, not a hash of it.
    pub(crate) fn load(&mut self, s: &str) {
        if self.raw == s {
            return;
        }
        self.raw.clear();
        self.raw.push_str(s);
        if s.is_ascii() {
            self.text.clear();
            self.text.push_str(s);
            self.text.make_ascii_lowercase();
            self.chars = s.len();
        } else {
            // Whole-string, not per char: a final `Σ` lowercases to `ς`
            // only in context.
            self.text = s.to_lowercase();
            self.chars = s.chars().count();
        }
        let Lowered {
            text,
            tokens,
            stems,
            ..
        } = self;
        tokens.clear();
        stems.clear();
        // A stem is a prefix of its token: lowercasing is idempotent, so the
        // token needs no second lowercasing before a suffix is stripped.
        let mut push = |start: usize, end: usize| {
            tokens.push((start, end));
            stems.push((start, start + stem_len(&text[start..end])));
        };
        let mut start = None;
        for (i, c) in text.char_indices() {
            match (c.is_alphanumeric(), start) {
                (true, None) => start = Some(i),
                (false, Some(s0)) => {
                    push(s0, i);
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s0) = start {
            push(s0, text.len());
        }
    }

    /// The lowercased text.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// The tokens, in order.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = &str> + '_ {
        self.tokens.iter().map(|&(s, e)| &self.text[s..e])
    }
}

/// Reusable buffers of the edit distance and the bag overlap.
struct Work {
    /// Match masks of the bit-parallel distance's pattern, by ASCII code
    /// point: bit `i` is set when the pattern's char `i` is that char.
    /// All zero between calls.
    ascii_masks: [u64; 128],
    /// Match masks of the pattern's other chars. Empty between calls.
    other_masks: Vec<(char, u64)>,
    row: Vec<usize>,
    remaining: Vec<Span>,
}

impl Default for Work {
    fn default() -> Self {
        Work {
            ascii_masks: [0; 128],
            other_masks: Vec::new(),
            row: Vec::new(),
            remaining: Vec::new(),
        }
    }
}

impl Work {
    /// Levenshtein distance between the chars of `a` and `b`.
    fn edit_distance(&mut self, a: &str, b: &str) -> usize {
        let (na, nb) = (a.chars().count(), b.chars().count());
        let (short, m, long, n) = if na <= nb {
            (a, na, b, nb)
        } else {
            (b, nb, a, na)
        };
        match m {
            0 => n,
            1..=64 => self.myers(short, m, long),
            _ => levenshtein(short, long, n, &mut self.row),
        }
    }

    /// The match mask of `c`: bit `i` set when the pattern's char `i` is
    /// `c`.
    fn mask(&self, c: char) -> u64 {
        match self.ascii_masks.get(c as usize) {
            Some(&m) => m,
            None => self
                .other_masks
                .iter()
                .find(|&&(k, _)| k == c)
                .map_or(0, |&(_, m)| m),
        }
    }

    /// Levenshtein distance between `pattern`, of `m` chars (1 to 64), and
    /// `text`: Myers' bit-vector algorithm (JACM 1999) in Hyyrö's
    /// whole-string form (2003). Bit `i` of `vp`/`vn` says that the
    /// current DP column rises/falls from row `i` to row `i + 1`, and
    /// `dist` tracks the column's last entry. Only the low `m` bits
    /// matter: carries and shifts move upward, so the bits above never
    /// reach them.
    fn myers(&mut self, pattern: &str, m: usize, text: &str) -> usize {
        for (i, c) in pattern.chars().enumerate() {
            let bit = 1u64 << i;
            match self.ascii_masks.get_mut(c as usize) {
                Some(mask) => *mask |= bit,
                None => match self.other_masks.iter_mut().find(|(k, _)| *k == c) {
                    Some((_, mask)) => *mask |= bit,
                    None => self.other_masks.push((c, bit)),
                },
            }
        }
        let last = 1u64 << (m - 1);
        let (mut vp, mut vn, mut dist) = (!0u64, 0u64, m);
        for c in text.chars() {
            let eq = self.mask(c);
            let xv = eq | vn;
            let xh = ((eq & vp).wrapping_add(vp) ^ vp) | eq;
            let hp = vn | !(xh | vp);
            let hn = vp & xh;
            if hp & last != 0 {
                dist += 1;
            } else if hn & last != 0 {
                dist -= 1;
            }
            // Row 0 of the DP is 0, 1, 2, …: every column steps up there.
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(xv | hp);
            vn = hp & xv;
        }
        for c in pattern.chars() {
            if let Some(mask) = self.ascii_masks.get_mut(c as usize) {
                *mask = 0;
            }
        }
        self.other_masks.clear();
        dist
    }
}

/// A thread's kernel state: two loaded inputs and the buffers comparing
/// them.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) a: Lowered,
    pub(crate) b: Lowered,
    work: Work,
}

impl Scratch {
    /// [`overlap`] of the loaded inputs.
    fn overlap(&mut self) -> f64 {
        let (a, b) = (&self.a, &self.b);
        dice(
            &a.text,
            &a.tokens,
            &b.text,
            &b.tokens,
            &mut self.work.remaining,
        )
    }

    /// [`stem_overlap`] of the loaded inputs.
    pub(crate) fn stem_overlap(&mut self) -> f64 {
        let (a, b) = (&self.a, &self.b);
        dice(
            &a.text,
            &a.stems,
            &b.text,
            &b.stems,
            &mut self.work.remaining,
        )
    }

    /// [`fuzzy_similarity`] of the loaded inputs.
    pub(crate) fn fuzzy(&mut self) -> f64 {
        let o = self.overlap();
        let max_len = self.a.chars.max(self.b.chars);
        if max_len == 0 {
            return 1.0;
        }
        let d = self.work.edit_distance(&self.a.text, &self.b.text);
        let e = 1.0 - d as f64 / max_len as f64;
        o.max(e)
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` on this thread's kernel state.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Load `a` and `b`, then run `f` on them.
fn with_pair<T>(a: &str, b: &str, f: impl FnOnce(&mut Scratch) -> T) -> T {
    with_scratch(|s| {
        s.a.load(a);
        s.b.load(b);
        f(s)
    })
}

/// Lowercase alphanumeric tokens.
pub fn tokens(text: &str) -> Vec<String> {
    with_scratch(|s| {
        s.a.load(text);
        s.a.tokens().map(str::to_string).collect()
    })
}

/// Dice coefficient `2·hits / (|A| + |B|)` of two bags of spans, where
/// `hits` is the size of their multiset intersection.
fn dice(a: &str, sa: &[Span], b: &str, sb: &[Span], remaining: &mut Vec<Span>) -> f64 {
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    remaining.clear();
    remaining.extend_from_slice(sb);
    let mut hits = 0usize;
    for &(s, e) in sa {
        let t = &a[s..e];
        if let Some(pos) = remaining.iter().position(|&(rs, re)| &b[rs..re] == t) {
            remaining.swap_remove(pos);
            hits += 1;
        }
    }
    2.0 * hits as f64 / (sa.len() + sb.len()) as f64
}

/// Dice-style overlap between token bags in [0, 1].
pub fn overlap(a: &str, b: &str) -> f64 {
    with_pair(a, b, Scratch::overlap)
}

/// Byte length of `token`'s stem, a crude suffix strip ("saved", "saving"
/// and "saves" → "sav") that is enough for confirmation-text ↔
/// button-label agreement. The first suffix whose removal leaves at least
/// 3 bytes is stripped. One that would leave fewer is skipped and
/// the next one tried: "ties" → "tie", because "es" would leave "ti".
fn stem_len(token: &str) -> usize {
    for suffix in ["ing", "ed", "es", "s", "e"] {
        if let Some(stripped) = token.strip_suffix(suffix) {
            if stripped.len() >= 3 {
                return stripped.len();
            }
        }
    }
    token.len()
}

/// Dice overlap over stemmed tokens ("You saved the product" ↔ "Save").
pub fn stem_overlap(a: &str, b: &str) -> f64 {
    with_pair(a, b, Scratch::stem_overlap)
}

/// Whether `needle`'s tokens all appear in `hay`.
pub fn contains_all(hay: &str, needle: &str) -> bool {
    with_pair(hay, needle, |s| {
        s.b.tokens().all(|t| s.a.tokens().any(|h| h == t))
    })
}

/// Levenshtein distance between `a` and `b`, of `nb` chars, in one reused
/// row of the O(n·m) DP. Only pairs whose shorter side exceeds the
/// bit-parallel algorithm's 64 chars come here.
fn levenshtein(a: &str, b: &str, nb: usize, row: &mut Vec<usize>) -> usize {
    row.clear();
    row.extend(0..=nb);
    for (i, ca) in a.chars().enumerate() {
        // `diag` is the previous row's entry left of `row[j + 1]`.
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.chars().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (above + 1)
                .min(row[j] + 1)
                .min(diag + usize::from(ca != cb));
            diag = above;
        }
    }
    row[nb]
}

/// Levenshtein distance (for OCR-noise-tolerant comparisons).
pub fn edit_distance(a: &str, b: &str) -> usize {
    with_scratch(|s| s.work.edit_distance(a, b))
}

/// Similarity robust to a few corrupted characters: max of token overlap
/// and normalized edit similarity.
pub fn fuzzy_similarity(a: &str, b: &str) -> f64 {
    with_pair(a, b, Scratch::fuzzy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_basics() {
        assert_eq!(overlap("Invite member", "Invite member"), 1.0);
        assert!(overlap("Invite member", "the Invite member button") > 0.5);
        assert_eq!(overlap("", "x"), 0.0);
        assert!(overlap("Delete project", "New issue") < 0.1);
    }

    #[test]
    fn contains_all_tokens() {
        assert!(contains_all(
            "Click the 'Save changes' button",
            "save changes"
        ));
        assert!(!contains_all("Click Save", "save changes"));
    }

    #[test]
    fn edit_distance_known_values() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
    }

    #[test]
    fn fuzzy_tolerates_ocr_noise() {
        // 'Settings' OCR'd as 'Setting5'.
        assert!(fuzzy_similarity("Settings", "Setting5") > 0.8);
        assert!(fuzzy_similarity("Settings", "Dashboard") < 0.5);
    }

    #[test]
    fn fuzzy_of_empty_is_one() {
        assert_eq!(fuzzy_similarity("", ""), 1.0);
    }
}
