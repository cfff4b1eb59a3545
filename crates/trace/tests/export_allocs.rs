//! Heap allocations of the JSONL export, counted by a global allocator
//! that tallies per thread: exporting ten times more events allocates the
//! same number of times, so nothing is allocated per event and what
//! remains is the output buffer and its growth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use eclair_trace::{merged_jsonl, EventKind, GroundingOutcome, SpanKind, TraceRecorder};

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

/// A long free-text note, so a line averages 112–114 bytes at both
/// event counts: the buffer, pre-sized at 96 bytes per event, grows once
/// either way (the longer seq numbers of the larger trace add about 2).
const NARRATION: &str = "observed the chart for patient \"Zoë Ångström\" after \
    typing into Notes:\n\tline one \\ line two\u{7f}\u{1b}; the Save button moved \
    12px right, so the next click re-grounds against the fresh screenshot \
    before the validator reads the confirmation toast and the audit log";

/// A trace of `rounds` steps, each emitting every `EventKind` variant
/// once, with strings that need escaping and non-ASCII text.
fn trace(rounds: u64) -> TraceRecorder {
    let mut t = TraceRecorder::new();
    for step in 0..rounds {
        let span = t.open(SpanKind::Step, "step \"quoted\"");
        t.event(EventKind::FmCall {
            purpose: "ground".into(),
            prompt_tokens: 1_234 + step,
            completion_tokens: 56,
        });
        t.event(EventKind::GroundingAttempt {
            strategy: "som+html".into(),
            outcome: GroundingOutcome::Resolved,
        });
        t.event(EventKind::Retry {
            what: "click\tSave".into(),
        });
        t.event(EventKind::PopupEscape {
            url: "https://ehr.local/chart?id=7".into(),
        });
        t.event(EventKind::FaultInjected {
            step,
            fault: "stale-frame".into(),
        });
        t.event(EventKind::ValidatorVerdict {
            validator: "completion".into(),
            passed: step % 2 == 0,
        });
        t.event(EventKind::CompiledStep {
            step,
            selector: "button[name=\"submit\"]".into(),
        });
        t.event(EventKind::DriftDetected {
            step,
            reason: "selector-miss".into(),
        });
        t.event(EventKind::FallbackStep {
            step,
            query: "Create issue — naïve\u{1}".into(),
        });
        t.event(EventKind::Recompiled {
            step,
            selector: "#save".into(),
        });
        t.note(NARRATION);
        t.close(span);
    }
    t
}

#[test]
fn export_allocations_do_not_grow_with_the_event_count() {
    let (small, large) = (trace(50), trace(500));
    assert_eq!(large.events().len(), 10 * small.events().len());
    // Every variant appears, so every derived shape is on the path.
    let kinds: std::collections::HashSet<_> = small
        .events()
        .iter()
        .map(|e| std::mem::discriminant(&e.kind))
        .collect();
    assert_eq!(kinds.len(), 13, "every EventKind variant is exported");

    let to_jsonl = |t: &TraceRecorder| allocs(|| drop(black_box(t.to_jsonl())));
    let merged = |t: &TraceRecorder| allocs(|| drop(black_box(merged_jsonl(t.events()))));
    let (a, b) = (to_jsonl(&small), to_jsonl(&large));
    assert_eq!(a, b, "to_jsonl: {a} allocations for 1x events, {b} for 10x");
    let (a, b) = (merged(&small), merged(&large));
    assert_eq!(
        a, b,
        "merged_jsonl: {a} allocations for 1x events, {b} for 10x"
    );
    assert!(a <= 4, "only the output buffer and its growth: {a}");
}
