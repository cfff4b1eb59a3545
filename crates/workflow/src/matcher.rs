//! Semantic step matching: the deterministic stand-in for the paper's human
//! annotators, who judged whether a generated step "is in" the reference
//! SOP and whether a suggested action is "semantically equivalent" to the
//! gold action (§4.1.1, §4.2.1).
//!
//! A step is decomposed into a *verb class* (click / type / navigate / ...)
//! and a bag of content tokens; similarity combines verb agreement with
//! token F1 overlap. Thresholds are deliberately forgiving about phrasing
//! ("Click the 'New issue' button" ≈ "Press New issue") and strict about
//! substance (different targets do not match).
//!
//! A [`PreparedStep`] is a step taken apart once: its verb class, and its
//! content tokens as spans of one lowercased buffer, which the text
//! kernel's [`Lowered`] splits exactly as it does for the FM's language
//! head. Two prepared steps compare without allocating. [`with_steps`]
//! prepares a list of steps into reusable per-thread slots, so scoring an
//! SOP against a reference, or a trajectory against an SOP, prepares each
//! step once rather than once per pair; [`step_similarity`] is the thin
//! `&str` wrapper. Every score is bit-identical to the `Vec<String>`
//! formulation the tests keep as their oracle (DESIGN.md §22).

use std::cell::RefCell;

use eclair_fm::text::{with_slots, Lowered, Slots, Span};
use serde::{Deserialize, Serialize};

/// Coarse interaction verb classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VerbClass {
    Click,
    Type,
    Navigate,
    Scroll,
    Press,
    Check,
    Select,
    /// No recognizable interaction verb.
    Other,
}

pub(crate) const VERB_TABLE: &[(&str, VerbClass)] = &[
    ("click", VerbClass::Click),
    ("tap", VerbClass::Click),
    ("hit", VerbClass::Click),
    ("activate", VerbClass::Click),
    ("push", VerbClass::Click),
    ("type", VerbClass::Type),
    ("enter", VerbClass::Type),
    ("input", VerbClass::Type),
    ("fill", VerbClass::Type),
    ("write", VerbClass::Type),
    ("set", VerbClass::Type),
    ("navigate", VerbClass::Navigate),
    ("go", VerbClass::Navigate),
    ("open", VerbClass::Navigate),
    ("visit", VerbClass::Navigate),
    ("scroll", VerbClass::Scroll),
    ("press", VerbClass::Press),
    ("check", VerbClass::Check),
    ("tick", VerbClass::Check),
    ("uncheck", VerbClass::Check),
    ("toggle", VerbClass::Check),
    ("enable", VerbClass::Check),
    ("disable", VerbClass::Check),
    ("select", VerbClass::Select),
    ("choose", VerbClass::Select),
    ("pick", VerbClass::Select),
];

pub(crate) const STOPWORDS: &[&str] = &[
    "the", "a", "an", "on", "in", "to", "of", "for", "with", "into", "at", "and", "then", "now",
    "button", "field", "link", "box", "option", "page", "screen", "item", "element", "labeled",
    "labelled", "called", "named", "that", "says", "text", "your", "it",
];

/// The verb class `token` names, if it is an interaction verb.
fn verb_of(token: &str) -> Option<VerbClass> {
    VERB_TABLE
        .iter()
        .find(|(w, _)| *w == token)
        .map(|&(_, v)| v)
}

/// Whether `token` carries a step's substance (targets, values): it is
/// neither a stopword nor an interaction verb. Verb agreement is scored
/// separately, so leaving verbs in the bags would double-count them and
/// make "Click A" ≈ "Click B".
fn is_content(token: &str) -> bool {
    !STOPWORDS.contains(&token) && verb_of(token).is_none()
}

/// One step prepared for matching: its verb class, and its content tokens
/// as spans of its lowercased text.
pub struct PreparedStep {
    text: Lowered,
    verb: VerbClass,
    content: Vec<Span>,
}

impl Default for PreparedStep {
    /// Exactly what preparing `""` leaves.
    fn default() -> Self {
        PreparedStep {
            text: Lowered::default(),
            verb: VerbClass::Other,
            content: Vec::new(),
        }
    }
}

impl PreparedStep {
    /// Take `step` apart: lowercase it, split it into the alphanumeric
    /// runs of the lowercased text, classify the first interaction verb
    /// among its first four tokens, and keep the content tokens. Preparing
    /// the step already held does nothing.
    pub(crate) fn load(&mut self, step: &str) {
        if !self.text.load(step) {
            return;
        }
        self.verb = self
            .text
            .tokens()
            .take(4)
            .find_map(verb_of)
            .unwrap_or(VerbClass::Other);
        let text = self.text.text();
        self.content.clear();
        self.content.extend(
            self.text
                .token_spans()
                .iter()
                .filter(|&&(s, e)| is_content(&text[s..e])),
        );
    }

    /// The step's verb class (see [`verb_class`]).
    pub fn verb(&self) -> VerbClass {
        self.verb
    }

    /// The content tokens, in order: lowercased, stopwords and
    /// interaction verbs dropped.
    pub fn content(&self) -> impl Iterator<Item = &str> + Clone + '_ {
        let text = self.text.text();
        self.content.iter().map(move |&(s, e)| &text[s..e])
    }

    /// [`step_similarity`] of two prepared steps.
    pub fn similarity(&self, other: &PreparedStep) -> f64 {
        let verb_score = if verbs_compatible(self.verb, other.verb) {
            1.0
        } else {
            0.0
        };
        0.4 * verb_score + 0.6 * f1(self.content(), other.content())
    }
}

thread_local! {
    static STEPS: Slots<PreparedStep> = const { RefCell::new(Vec::new()) };
}

/// Prepare each of `steps` once into this thread's reusable slots, then
/// run `f` on the prepared steps, in order: the way to compare every step
/// of one list with every step of another. A warm call allocates nothing.
pub fn with_steps<'a, T>(
    steps: impl IntoIterator<Item = &'a str>,
    f: impl FnOnce(&[PreparedStep]) -> T,
) -> T {
    with_slots(&STEPS, steps, PreparedStep::load, f)
}

/// Classify the leading interaction verb of a step: the first of its
/// first four tokens that is one.
pub fn verb_class(text: &str) -> VerbClass {
    with_steps([text], |s| s[0].verb)
}

/// Equivalence between verb classes (press≈click for buttons; select≈click;
/// enter≈type; click≈navigate for links).
pub(crate) fn verbs_compatible(a: VerbClass, b: VerbClass) -> bool {
    use VerbClass::*;
    if a == b {
        return true;
    }
    matches!(
        (a, b),
        (Click, Press)
            | (Press, Click)
            | (Click, Select)
            | (Select, Click)
            | (Check, Click)
            | (Click, Check)
            | (Type, Select)
            | (Select, Type)
            | (Click, Navigate)
            | (Navigate, Click)
    )
}

/// Token-level F1 between two bags of tokens.
pub fn token_f1(a: &[String], b: &[String]) -> f64 {
    f1(a.iter().map(String::as_str), b.iter().map(String::as_str))
}

/// Token-level F1 between two bags, each an iterator that can be
/// restarted by cloning.
fn f1<'a>(
    a: impl Iterator<Item = &'a str> + Clone,
    b: impl Iterator<Item = &'a str> + Clone,
) -> f64 {
    let (na, nb) = (a.clone().count(), b.clone().count());
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    let overlap = common(a, b);
    let p = overlap as f64 / na as f64;
    let r = overlap as f64 / nb as f64;
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// Size of the multiset intersection of two bags: every distinct token of
/// `a`, at its first occurrence, adds the smaller of its counts in `a`
/// and in `b`. Needs no buffer, so no allocation.
fn common<'a>(
    a: impl Iterator<Item = &'a str> + Clone,
    b: impl Iterator<Item = &'a str> + Clone,
) -> usize {
    let mut n = 0;
    for (i, t) in a.clone().enumerate() {
        if a.clone().take(i).any(|u| u == t) {
            continue;
        }
        let in_a = a.clone().skip(i).filter(|&u| u == t).count();
        let in_b = b.clone().filter(|&u| u == t).count();
        n += in_a.min(in_b);
    }
    n
}

/// Similarity in [0, 1] between two step texts: verb compatibility worth
/// 0.4, content-token F1 worth 0.6 (verbs excluded from the token bags so
/// they are not double-counted).
pub fn step_similarity(a: &str, b: &str) -> f64 {
    with_steps([a, b], |s| s[0].similarity(&s[1]))
}

/// Default decision threshold for "these steps are the same step": a
/// compatible verb plus a clear majority of shared content.
pub const MATCH_THRESHOLD: f64 = 0.75;

/// Whether two steps are semantically equivalent.
pub fn steps_match(a: &str, b: &str) -> bool {
    step_similarity(a, b) >= MATCH_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paraphrases_match() {
        assert!(steps_match(
            "Click the 'New issue' button",
            "Press New issue"
        ));
        assert!(steps_match(
            "Type \"Login broken\" into the Title field",
            "Enter Login broken in Title"
        ));
        assert!(steps_match(
            "Select 'Bug' from the label dropdown",
            "Choose the Bug label"
        ));
    }

    #[test]
    fn different_targets_do_not_match() {
        assert!(!steps_match(
            "Click the 'Delete project' button",
            "Click the 'New issue' button"
        ));
        assert!(!steps_match(
            "Type \"alpha\" into Search",
            "Type \"omega\" into Description"
        ));
    }

    #[test]
    fn verb_class_detection() {
        assert_eq!(verb_class("Click the save button"), VerbClass::Click);
        assert_eq!(verb_class("Now type your name"), VerbClass::Type);
        assert_eq!(
            verb_class("Navigate to the issues page"),
            VerbClass::Navigate
        );
        assert_eq!(verb_class("Wait patiently"), VerbClass::Other);
    }

    #[test]
    fn press_click_compatible() {
        assert!(verbs_compatible(VerbClass::Click, VerbClass::Press));
        assert!(!verbs_compatible(VerbClass::Type, VerbClass::Scroll));
    }

    /// The content tokens of `text`, prepared.
    fn content_tokens(text: &str) -> Vec<String> {
        with_steps([text], |s| s[0].content().map(str::to_string).collect())
    }

    #[test]
    fn token_f1_properties() {
        let a = content_tokens("Click the Save changes button");
        let b = content_tokens("Press Save changes");
        assert!(token_f1(&a, &b) > 0.5);
        assert_eq!(token_f1(&a, &a), 1.0);
        assert_eq!(token_f1(&a, &[]), 0.0);
        assert_eq!(token_f1(&[], &[]), 1.0);
    }

    #[test]
    fn content_tokens_exclude_verbs() {
        assert_eq!(
            content_tokens("Click the 'New issue' button"),
            vec!["new".to_string(), "issue".into()]
        );
    }

    #[test]
    fn similarity_is_symmetric() {
        let pairs = [
            ("Click 'New issue'", "Press the New issue button"),
            ("Type \"x\" into Title", "Scroll down"),
        ];
        for (a, b) in pairs {
            assert!((step_similarity(a, b) - step_similarity(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn stopwords_do_not_inflate_similarity() {
        // Shared stopwords only — must not match.
        assert!(!steps_match(
            "Click on the button in the page",
            "Type into the field on the page"
        ));
    }

    #[test]
    fn normalize_strips_punctuation_and_case() {
        assert_eq!(
            content_tokens("'NEW' Issue!! -- now"),
            vec!["new".to_string(), "issue".into()]
        );
    }
}
