//! Lexical similarity for the simulated language head.
//!
//! The simulated FM "understands" a description like *"the Invite member
//! button"* by comparing its tokens with the text it perceives on screen.
//! This is deliberately shallow — token overlap with light normalization —
//! because the failure modes the paper documents (two buttons with the same
//! label, an icon with no label at all) survive any amount of lexical
//! cleverness.
//!
//! Every similarity here is one kernel over prepared inputs. A
//! [`Lowered`] holds one input lowercased once (in place for ASCII,
//! through `str::to_lowercase` otherwise), with its tokens and stems as
//! byte spans of that buffer, and keeps it when handed the input it
//! already holds. [`Lowered::fuzzy`], [`Lowered::overlap`] and
//! [`Lowered::stem_overlap`] compare two prepared inputs. The `&str`
//! functions are thin wrappers that prepare both sides into a per-thread
//! pair, and [`with_prepared`] prepares a whole list into reusable
//! per-thread slots, so a caller comparing many candidates with many texts
//! prepares each once. The edit distance is Myers' bit-parallel algorithm
//! when the shorter input has at most 64 chars, and a reused DP row
//! otherwise. A warm call on ASCII inputs allocates nothing, nor does a
//! repeated call on any inputs, and every score is bit-identical to the
//! plain `Vec<String>` formulation the tests keep as their oracle
//! (DESIGN.md §18, §22).

use std::cell::RefCell;
use std::thread::LocalKey;

/// Byte range `start..end` of a token or stem in a [`Lowered`] buffer.
pub type Span = (usize, usize);

/// One input prepared for comparison: lowercased once, with its tokens
/// and their stems as spans of the lowercased text.
#[derive(Default)]
pub struct Lowered {
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
    /// the input already held does nothing and returns `false`: the state
    /// is a function of the input, and the whole input is compared, not a
    /// hash of it.
    pub fn load(&mut self, s: &str) -> bool {
        if self.raw == s {
            return false;
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
        true
    }

    /// The lowercased text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The tokens, in order.
    pub fn tokens(&self) -> impl Iterator<Item = &str> + '_ {
        self.tokens.iter().map(|&(s, e)| &self.text[s..e])
    }

    /// The tokens as spans of [`Lowered::text`], in order.
    pub fn token_spans(&self) -> &[Span] {
        &self.tokens
    }

    /// [`overlap`] of two prepared inputs.
    pub fn overlap(&self, other: &Lowered) -> f64 {
        with_work(|w| dice(&self.text, &self.tokens, &other.text, &other.tokens, w))
    }

    /// [`stem_overlap`] of two prepared inputs.
    pub fn stem_overlap(&self, other: &Lowered) -> f64 {
        with_work(|w| dice(&self.text, &self.stems, &other.text, &other.stems, w))
    }

    /// [`fuzzy_similarity`] of two prepared inputs.
    pub fn fuzzy(&self, other: &Lowered) -> f64 {
        with_work(|w| {
            let o = dice(&self.text, &self.tokens, &other.text, &other.tokens, w);
            let max_len = self.chars.max(other.chars);
            if max_len == 0 {
                return 1.0;
            }
            let d = w.edit_distance(&self.text, &other.text);
            let e = 1.0 - d as f64 / max_len as f64;
            o.max(e)
        })
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

/// The inputs of the `&str` functions: two prepared inputs per thread.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) a: Lowered,
    pub(crate) b: Lowered,
}

/// Spare vectors of prepared values, kept per thread with every value's
/// buffers: the storage [`with_slots`] prepares into.
pub type Slots<T> = RefCell<Vec<Vec<T>>>;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    static WORK: RefCell<Work> = RefCell::new(Work::default());
    static PREPARED: Slots<Lowered> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's pair of inputs.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Run `f` on this thread's comparison buffers.
fn with_work<T>(f: impl FnOnce(&mut Work) -> T) -> T {
    WORK.with(|w| f(&mut w.borrow_mut()))
}

/// Load `a` and `b` into this thread's pair, then run `f` on them.
fn with_pair<T>(a: &str, b: &str, f: impl FnOnce(&Lowered, &Lowered) -> T) -> T {
    with_scratch(|s| {
        s.a.load(a);
        s.b.load(b);
        f(&s.a, &s.b)
    })
}

/// Prepare each of `inputs` with `load` into a spare vector of `slots`
/// (a new one when this thread has none spare), run `f` on the prepared
/// values in input order, and keep the vector, with its values and their
/// buffers, for the next call. Slot `i` keeps what it held on the last
/// call, so a warm call allocates nothing and `load` can skip an input
/// its slot already holds. Calls nest: an inner call takes another
/// vector.
pub fn with_slots<'a, T: Default, R>(
    slots: &'static LocalKey<Slots<T>>,
    inputs: impl IntoIterator<Item = &'a str>,
    mut load: impl FnMut(&mut T, &str),
    f: impl FnOnce(&[T]) -> R,
) -> R {
    let mut values = slots.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    let mut n = 0;
    for input in inputs {
        if n == values.len() {
            values.push(T::default());
        }
        load(&mut values[n], input);
        n += 1;
    }
    let out = f(&values[..n]);
    slots.with(|s| s.borrow_mut().push(values));
    out
}

/// Prepare each of `texts` once, then run `f` on the prepared inputs, in
/// order: the way to compare every one of many candidates with every one
/// of many texts without preparing either side once per pair.
pub fn with_prepared<'a, T>(
    texts: impl IntoIterator<Item = &'a str>,
    f: impl FnOnce(&[Lowered]) -> T,
) -> T {
    with_slots(
        &PREPARED,
        texts,
        |l, s| {
            l.load(s);
        },
        f,
    )
}

/// Dice coefficient `2·hits / (|A| + |B|)` of two bags of spans, where
/// `hits` is the size of their multiset intersection.
fn dice(a: &str, sa: &[Span], b: &str, sb: &[Span], w: &mut Work) -> f64 {
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let remaining = &mut w.remaining;
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
    with_pair(a, b, Lowered::overlap)
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
    with_pair(a, b, Lowered::stem_overlap)
}

/// Whether `needle`'s tokens all appear in `hay`.
pub fn contains_all(hay: &str, needle: &str) -> bool {
    with_pair(hay, needle, |hay, needle| {
        needle.tokens().all(|t| hay.tokens().any(|h| h == t))
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
    with_work(|w| w.edit_distance(a, b))
}

/// Similarity robust to a few corrupted characters: max of token overlap
/// and normalized edit similarity.
pub fn fuzzy_similarity(a: &str, b: &str) -> f64 {
    with_pair(a, b, Lowered::fuzzy)
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
