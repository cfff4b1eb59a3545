//! What a page build costs beyond what the app rendered, counted on this
//! thread: by a global allocator that records the largest request, and
//! by the interner's perf counters. A warm rebuild builds into a recycled
//! widget vector instead of growing a new one, and a new widget takes its
//! default tag without interning.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use eclair_gui::{intern, GuiApp, Page, PageBuilder, SemanticEvent, Session, Widget, WidgetKind};
use eclair_trace::perf;

struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; noting a size only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest allocation or reallocation, in bytes, `f` asks for on
/// this thread.
fn largest_request(f: impl FnOnce()) -> usize {
    LARGEST.with(|c| c.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// An order list whose every tick re-renders it with the refresh button
/// relabelled, so no rebuild is skipped. The two labels alternate, so a
/// warm tick interns no new string.
struct Orders {
    rows: Vec<Vec<(String, Option<String>)>>,
    ticks: u32,
}

impl Orders {
    fn new() -> Self {
        let rows = (0..8)
            .map(|i| {
                vec![
                    (format!("#{}", 1000 + i), Some(format!("open-{i}"))),
                    ("Pending".to_string(), None),
                    (format!("{}.00", 20 + i), None),
                ]
            })
            .collect();
        Self { rows, ticks: 0 }
    }
}

impl GuiApp for Orders {
    fn name(&self) -> &str {
        "orders"
    }
    fn url(&self) -> String {
        "/orders".into()
    }
    fn build(&self) -> Page {
        let mut b = PageBuilder::new("Orders", "/orders");
        b.heading(1, "Orders");
        b.form("filter", |b| {
            b.text_input("q", "Search", "Order number");
            b.button(
                "refresh",
                ["Refresh", "Refreshing"][self.ticks as usize % 2],
            );
        });
        b.table(&["Order", "Status", "Total"], &self.rows);
        b.finish()
    }
    fn on_event(&mut self, _: SemanticEvent) -> bool {
        false
    }
    fn tick(&mut self) -> bool {
        self.ticks += 1;
        true
    }
}

#[test]
fn a_warm_rebuild_does_not_grow_its_widget_vector() {
    let mut s = Session::new(Box::new(Orders::new()));
    let widgets = s.page().len();
    assert!(widgets >= 35, "{widgets} widgets");
    // The first rebuilds fill this thread's spare widget vectors.
    for _ in 0..3 {
        s.tick();
    }
    let epoch = s.page_epoch();
    let largest = largest_request(|| s.tick());
    assert!(s.page_epoch() > epoch, "the tick rebuilt the page");
    assert_eq!(s.page().len(), widgets);
    let vector = widgets * std::mem::size_of::<Widget>();
    assert!(
        largest < vector,
        "the rebuild asked for {largest} bytes at once; {widgets} widgets take {vector}"
    );
}

/// Every kind with the HTML tag it renders as by default.
const DEFAULT_TAGS: [(WidgetKind, &str); 24] = [
    (WidgetKind::Root, "body"),
    (WidgetKind::Section, "div"),
    (WidgetKind::Row, "div"),
    (WidgetKind::Form, "form"),
    (WidgetKind::Heading, "h2"),
    (WidgetKind::Text, "p"),
    (WidgetKind::Button, "button"),
    (WidgetKind::Link, "a"),
    (WidgetKind::TextInput, "input"),
    (WidgetKind::TextArea, "textarea"),
    (WidgetKind::PasswordInput, "input"),
    (WidgetKind::Checkbox, "input"),
    (WidgetKind::Radio, "input"),
    (WidgetKind::Select, "select"),
    (WidgetKind::TableRow, "tr"),
    (WidgetKind::TableCell, "td"),
    (WidgetKind::MenuItem, "li"),
    (WidgetKind::Tab, "a"),
    (WidgetKind::Icon, "svg"),
    (WidgetKind::Image, "img"),
    (WidgetKind::Modal, "dialog"),
    (WidgetKind::Toast, "div"),
    (WidgetKind::Badge, "span"),
    (WidgetKind::Divider, "hr"),
];

/// Make a widget of every kind with the interner's counters zeroed, then
/// check each tag against its kind's default tag.
fn new_widgets_intern_nothing_and_carry_their_default_tags() {
    perf::reset();
    let made = DEFAULT_TAGS.map(|(kind, _)| black_box(Widget::new(kind)));
    let c = perf::snapshot();
    assert_eq!(
        (c.intern_hits, c.intern_misses),
        (0, 0),
        "Widget::new interned"
    );
    for (w, (kind, tag)) in made.iter().zip(DEFAULT_TAGS) {
        assert_eq!(kind.default_tag(), tag, "{kind:?}");
        assert_eq!(w.tag.as_str(), tag, "{kind:?}");
        assert_eq!(w.tag, intern(tag), "{kind:?}");
    }
}

#[test]
fn every_kind_takes_its_default_tag_without_interning() {
    new_widgets_intern_nothing_and_carry_their_default_tags();
    // A fresh thread's interner mirror is empty, so resolving each tag
    // copies the table, which holds the tags from its creation.
    std::thread::spawn(new_widgets_intern_nothing_and_carry_their_default_tags)
        .join()
        .expect("the fresh thread's checks pass");
}
