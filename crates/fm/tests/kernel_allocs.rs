//! Heap allocations of the lexical kernel, counted by a global allocator
//! that tallies per thread: warm ASCII calls allocate nothing, and
//! set-of-marks scoring allocates the same whatever the number of marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use eclair_fm::ground::score_marks;
use eclair_fm::text::{edit_distance, fuzzy_similarity, overlap, stem_overlap};
use eclair_gui::Rect;
use eclair_vision::marks::Mark;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const PAIRS: &[(&str, &str)] = &[
    ("Invite member", "the Invite member button"),
    ("Settings", "Setting5"),
    ("You saved the product", "Save"),
    ("Issue created", "Create issue"),
    ("", ""),
    ("!!!", "Delete project"),
];

#[test]
fn warm_ascii_calls_allocate_nothing() {
    for &(a, b) in PAIRS {
        black_box((
            fuzzy_similarity(a, b),
            stem_overlap(a, b),
            overlap(a, b),
            edit_distance(a, b),
        ));
    }
    for &(a, b) in PAIRS {
        let n = allocs(|| {
            black_box(fuzzy_similarity(a, b));
        });
        assert_eq!(n, 0, "fuzzy_similarity({a:?}, {b:?})");
        let n = allocs(|| {
            black_box(stem_overlap(a, b));
        });
        assert_eq!(n, 0, "stem_overlap({a:?}, {b:?})");
        let n = allocs(|| {
            black_box(overlap(a, b));
        });
        assert_eq!(n, 0, "overlap({a:?}, {b:?})");
        let n = allocs(|| {
            black_box(edit_distance(a, b));
        });
        assert_eq!(n, 0, "edit_distance({a:?}, {b:?})");
    }
}

fn marks(n: usize) -> Vec<Mark> {
    // Hints as marks carry them: HTML tags, and on SoM-YOLO marks the
    // detector classes.
    const LABELS: &[(&str, &str)] = &[
        ("Invite member", "button"),
        ("Remove member", "BoxButton"),
        ("Project settings", "svg"),
        ("Filter", "InputBox"),
        ("Members", "TextLink"),
        ("", "IconGlyph"),
        ("Create shipment", "a"),
    ];
    (0..n)
        .map(|i| {
            let (text, hint) = LABELS[i % LABELS.len()];
            Mark {
                label: i as u32,
                rect: Rect::new(0, 20 * i as i32, 80, 20),
                text: text.to_string(),
                hint: hint.to_string(),
            }
        })
        .collect()
}

#[test]
fn score_marks_allocations_do_not_grow_with_the_marks() {
    let description = "the 'Invite member' button";
    let sets: Vec<Vec<Mark>> = [1, 7, 70].iter().map(|&n| marks(n)).collect();
    for ms in &sets {
        black_box(score_marks(description, ms));
    }
    let counts: Vec<u64> = sets
        .iter()
        .map(|ms| {
            allocs(|| {
                black_box(score_marks(description, ms));
            })
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations per call for 1, 7 and 70 marks: {counts:?}"
    );
}
