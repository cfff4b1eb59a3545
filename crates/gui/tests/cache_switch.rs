//! `ECLAIR_NO_CACHE` has one definition: only `"1"` turns the caches off,
//! the layout cache included. This lives in its own integration binary
//! because it sets a process-global environment variable.

use eclair_gui::{no_cache_env, PageBuilder};
use eclair_trace::perf;

/// Build the same page twice; return (full walks, layout-cache replays).
fn walks_and_replays() -> (u64, u64) {
    perf::reset();
    for _ in 0..2 {
        let mut b = PageBuilder::new("Switch", "/switch");
        b.heading(1, "Cache switch");
        b.text_input("q", "Query", "search");
        b.finish();
    }
    let c = perf::snapshot();
    (c.relayouts_full, c.layout_cache_hits)
}

#[test]
fn only_one_turns_the_layout_cache_off() {
    std::env::set_var("ECLAIR_NO_CACHE", "0");
    assert!(!no_cache_env());
    assert_eq!(
        walks_and_replays(),
        (1, 1),
        "under \"0\" the second identical build is a cache replay"
    );
    std::env::set_var("ECLAIR_NO_CACHE", "1");
    assert!(no_cache_env());
    assert_eq!(walks_and_replays(), (2, 0), "under \"1\" every build walks");
}
