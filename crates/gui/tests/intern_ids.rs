//! Intern ids are assigned in first-intern order, whatever hash the
//! table's maps use: this process starts with only the pre-interned
//! strings, so a fixed sequence of new strings gets fixed ids, and the
//! hit, miss and size counters repeat with them. (A file of its own, so
//! no other test interns first.)

use eclair_gui::intern::{intern, table_size};
use eclair_trace::perf;

const WORDS: [&str; 12] = [
    "Save",
    "Cancel",
    "",
    "Save",
    "div",
    "Patient name",
    "cancel",
    "Cancel",
    "a",
    "Zoë Ångström",
    "button",
    "a much longer label that spans several eight-byte words",
];

#[test]
fn a_fixed_intern_sequence_gets_fixed_ids() {
    perf::reset();
    assert_eq!(table_size(), 19, "the pre-interned strings");
    let ids: Vec<u32> = WORDS.iter().map(|w| intern(w).id()).collect();
    assert_eq!(ids, [19, 20, 0, 19, 2, 21, 22, 20, 7, 23, 6, 24]);
    let c = perf::snapshot();
    assert_eq!(
        (c.intern_misses, c.intern_hits, c.intern_table_size),
        (6, 6, 25)
    );
    assert_eq!(table_size(), 25);
    // A thread whose mirror starts empty resolves and re-interns the same.
    let again = std::thread::spawn(|| {
        WORDS
            .iter()
            .map(|w| (intern(w).id(), intern(w).as_str() == *w))
            .collect::<Vec<_>>()
    })
    .join()
    .unwrap();
    assert!(again.iter().all(|&(_, resolves)| resolves));
    let again: Vec<u32> = again.into_iter().map(|(id, _)| id).collect();
    assert_eq!(again, ids);
    assert_eq!(table_size(), 25, "no string was added twice");
}
