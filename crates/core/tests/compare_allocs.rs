//! Heap allocations of Demonstrate's and Validate's comparisons, counted
//! by a global allocator that tallies per thread: once warm, the step
//! matcher, the trajectory alignment and the prepared-text path allocate
//! nothing, whichever inputs they are handed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use eclair_core::validate::trajectory::alignment_score;
use eclair_fm::text::with_prepared;
use eclair_workflow::matcher::{step_similarity, with_steps};
use eclair_workflow::Sop;

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

const STEPS: &[&str] = &[
    "Click the 'New issue' button",
    "Press New issue",
    "Type \"Login broken\" into the Title field",
    "Enter Login broken in Title",
    "Select 'Bug' from the label dropdown",
    "Click at (40, 173)",
    "Click on the button in the page",
    "",
    "save save save changes",
];

#[test]
fn warm_step_similarity_allocates_nothing() {
    for _ in 0..2 {
        for a in STEPS {
            for b in STEPS {
                black_box(step_similarity(a, b));
            }
        }
    }
    for a in STEPS {
        for b in STEPS {
            let n = allocs(|| {
                black_box(step_similarity(a, b));
            });
            assert_eq!(n, 0, "step_similarity({a:?}, {b:?})");
        }
    }
}

#[test]
fn warm_alignment_score_allocates_nothing() {
    let sop = Sop::from_texts("t", &STEPS[..6]);
    let observed: Vec<Vec<String>> = (0..STEPS.len())
        .map(|k| {
            STEPS[k..]
                .iter()
                .chain(&STEPS[..k])
                .map(|s| s.to_string())
                .collect()
        })
        .collect();
    for obs in &observed {
        black_box(alignment_score(obs, &sop));
    }
    for obs in &observed {
        let n = allocs(|| {
            black_box(alignment_score(obs, &sop));
        });
        assert_eq!(n, 0, "alignment_score({obs:?})");
    }
}

#[test]
fn warm_prepared_comparisons_allocate_nothing() {
    let texts: [&[&str]; 3] = [
        &[
            "Issues",
            "issues",
            "Create issue",
            "Issue created",
            "Settings",
        ],
        &[
            "Members",
            "Invite member",
            "jill.woo invited",
            "",
            "Save changes",
        ],
        STEPS,
    ];
    let compare_all = |texts: &[&str]| {
        with_prepared(texts.iter().copied(), |p| {
            for a in p {
                for b in p {
                    black_box((a.fuzzy(b), a.stem_overlap(b), a.overlap(b)));
                }
            }
        });
        with_steps(texts.iter().copied(), |s| {
            for a in s {
                for b in s {
                    black_box(a.similarity(b));
                }
            }
        });
    };
    for t in texts {
        compare_all(t);
    }
    for t in texts {
        assert_eq!(allocs(|| compare_all(t)), 0, "{t:?}");
    }
}
