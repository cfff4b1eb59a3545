//! `Page::painted_count` is the item count set-of-marks grounding prices a
//! frame by, computed without rendering the frame. It must equal the
//! rendered frame's item count on every page the agents see, or token
//! counts, and with them every downstream choice, would move. Checked on
//! every corpus task's launch page and on each page its gold trace
//! passes through.

use eclair_gui::{Page, VIEWPORT};
use eclair_workflow::replay;

/// Compare the count and the render at the top, two fixed offsets, the
/// bottom, and one past the content.
fn check(page: &Page, at: &str) {
    let max_scroll = (page.content_height as i32 - VIEWPORT.h as i32).max(0);
    for scroll in [0, 400, 800, max_scroll, max_scroll + VIEWPORT.h as i32] {
        assert_eq!(
            page.painted_count(scroll),
            page.screenshot_at(scroll).items.len(),
            "{at}, scroll {scroll}"
        );
    }
}

#[test]
fn painted_count_matches_the_render_on_every_corpus_page() {
    let mut pages = 0;
    for task in eclair_corpus::corpus_tasks() {
        let mut session = task.launch();
        check(session.page(), &format!("{} launch page", task.id));
        pages += 1;
        for (i, action) in task.gold_trace.actions.iter().enumerate() {
            replay::execute(&mut session, action)
                .unwrap_or_else(|e| panic!("{}: gold action {} failed: {e}", task.id, i + 1));
            check(
                session.page(),
                &format!("{} after gold action {}", task.id, i + 1),
            );
            pages += 1;
        }
    }
    assert!(pages > 300, "only {pages} pages checked");
}
