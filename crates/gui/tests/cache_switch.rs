//! `ECLAIR_NO_CACHE` has one definition: only `"1"` turns the frame cache
//! off.
//! This lives in its own integration binary because it sets a
//! process-global environment variable.

use eclair_gui::{no_cache_env, GuiApp, Page, PageBuilder, SemanticEvent, Session};
use eclair_trace::perf;

struct Search;

impl GuiApp for Search {
    fn name(&self) -> &str {
        "search"
    }
    fn url(&self) -> String {
        "/switch".into()
    }
    fn build(&self) -> Page {
        let mut b = PageBuilder::new("Switch", "/switch");
        b.heading(1, "Cache switch");
        b.text_input("q", "Query", "search");
        b.finish()
    }
    fn on_event(&mut self, _: SemanticEvent) -> bool {
        false
    }
}

/// Launch a session and capture its unchanged page twice; return the
/// frame cache's (hits, misses).
fn frame_lookups() -> (u64, u64) {
    perf::reset();
    let mut s = Session::new(Box::new(Search));
    s.screenshot();
    s.screenshot();
    let c = perf::snapshot();
    (c.frame_cache_hits, c.frame_cache_misses)
}

#[test]
fn only_one_turns_the_caches_off() {
    std::env::set_var("ECLAIR_NO_CACHE", "0");
    assert!(!no_cache_env());
    assert_eq!(
        frame_lookups(),
        (1, 1),
        "under \"0\" the second capture is a frame-cache hit"
    );
    std::env::set_var("ECLAIR_NO_CACHE", "1");
    assert!(no_cache_env());
    assert_eq!(
        frame_lookups(),
        (0, 0),
        "under \"1\" every capture renders, bypassing the frame cache"
    );
}
