//! Heap allocations of set-of-marks over HTML boxes and of a noisy OCR
//! read, counted by a global allocator that tallies per thread: the marks
//! borrow the page's interned strings and the frame is counted, not
//! rendered, so building them allocates the same whatever the number of
//! elements; a read allocates its output once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::hint::black_box;

use eclair_gui::{Page, PageBuilder, PaintItem, Rect, VisualClass};
use eclair_vision::marks::marks_from_html;
use eclair_vision::ocr::{glyph_height, read_item, Acuity};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// A form with `n` interactive elements in rows of five: inputs (which
/// paint their placeholder) and buttons, under a heading and a caption.
fn form(n: usize) -> Page {
    let mut b = PageBuilder::new("Members", "/members");
    b.heading(1, "Invite members");
    b.text("Everyone invited gets the reporter role.");
    for row in 0..n.div_ceil(5) {
        b.row(|b| {
            for i in row * 5..n.min(row * 5 + 5) {
                if i % 3 == 0 {
                    b.text_input(format!("email-{i}"), "", format!("Email {i}"));
                } else {
                    b.button(format!("invite-{i}"), format!("Invite {i}"));
                }
            }
        });
    }
    b.finish()
}

#[test]
fn html_marks_allocate_the_same_for_3_and_30_elements() {
    let small = form(3);
    let large = form(30);
    for (page, n) in [(&small, 3), (&large, 30)] {
        let marked = marks_from_html(page, 0);
        assert_eq!(marked.marks.len(), n, "every element is on screen");
        assert!(
            marked
                .marks
                .iter()
                .all(|m| matches!((&m.text, &m.hint), (Cow::Borrowed(_), Cow::Borrowed(_)))),
            "HTML marks borrow the page's strings"
        );
    }
    let small_allocs = allocs(|| {
        black_box(marks_from_html(black_box(&small), 0));
    });
    let large_allocs = allocs(|| {
        black_box(marks_from_html(black_box(&large), 0));
    });
    assert_eq!(
        small_allocs, large_allocs,
        "3 elements: {small_allocs} allocations, 30 elements: {large_allocs}"
    );
}

#[test]
fn a_noisy_ocr_read_allocates_once() {
    let item = PaintItem {
        rect: Rect::new(0, 0, 320, 10),
        visual: VisualClass::Text,
        text: "Invoice INV-2024-00518 from Oakridge Ltd".into(),
        emphasis: false,
        grayed: false,
    };
    let acuity = Acuity::new(0.3);
    assert!(
        acuity.char_error_rate(glyph_height(&item)) > 0.0,
        "a noisy read"
    );
    let label_len = item.text.len();
    let mut rng = StdRng::seed_from_u64(7);
    let mut read = String::new();
    let n = allocs(|| read = read_item(&item, acuity, &mut rng));
    assert_eq!(
        read.len(),
        label_len,
        "every confusion keeps the byte length"
    );
    assert_eq!(n, 1, "a {label_len}-byte read made {n} allocations");
}
