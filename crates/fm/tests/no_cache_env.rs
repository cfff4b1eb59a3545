//! The `ECLAIR_NO_CACHE=1` kill switch must bypass the shared perception
//! layer *entirely* — not merely disable lookups. This lives in its own
//! integration binary because environment variables are process-global
//! and the workspace test harness is multi-threaded; here the variable is
//! set once, before any cache code runs, and never unset.

use std::sync::Arc;

use eclair_fm::{shared_percept_cache, FmModel, ModelProfile};
use eclair_gui::PageBuilder;

#[test]
fn kill_switch_bypasses_the_shared_layer_entirely() {
    std::env::set_var("ECLAIR_NO_CACHE", "1");

    let mut b = PageBuilder::new("k", "/k");
    b.button("ok", "Confirm order");
    let shot = b.finish().screenshot_at(0);

    let cache = shared_percept_cache();
    let mut m = FmModel::new(ModelProfile::gpt4v(), 9);
    m.attach_shared(Arc::clone(&cache));

    // Perception still works, is still deterministic, and the global
    // shards never see a single lookup or insertion.
    eclair_trace::perf::reset();
    let p1 = m.perceive(&shot);
    let p2 = m.perceive(&shot);
    assert_eq!(p1, p2);
    assert!(cache.is_empty(), "no percept may reach the shared shards");
    assert_eq!(cache.stats(), Default::default(), "no lookups either");
    let c = eclair_trace::perf::snapshot();
    assert_eq!(c.shared_hits + c.shared_misses + c.single_flight_waits, 0);
    assert_eq!(c.perceive_memo_hits, 0, "the private cache is off too");

    // Even force-enabling the model's cache afterwards must not resurrect
    // the shared layer: the handle was never installed.
    m.set_cache_enabled(true);
    let p3 = m.perceive(&shot);
    assert_eq!(p1, p3);
    assert!(cache.is_empty());
}
