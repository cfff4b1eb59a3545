//! Micro-benchmarks for the GUI core: interning, page build, a full
//! (cache-served) relayout, and the memoized frame hash — the primitives
//! the `perf_bench` macro numbers decompose into.

use criterion::{criterion_group, criterion_main, Criterion};
use eclair_gui::{intern, PageBuilder};
use std::hint::black_box;

fn busy_page() -> eclair_gui::Page {
    let mut b = PageBuilder::new("bench", "/bench");
    b.heading(1, "Benchmark page");
    for i in 0..12 {
        b.row(|b| {
            b.link(format!("l{i}"), format!("Item row {i}"));
            b.button(format!("b{i}"), format!("Action {i}"));
            b.icon_button(format!("i{i}"), format!("Icon {i}"));
        });
        b.text(format!("Row {i} body text for visual density"));
    }
    b.finish()
}

fn bench_gui_core(c: &mut Criterion) {
    c.bench_function("gui_core/intern_hit", |b| {
        intern("gui-core-bench-hot");
        b.iter(|| black_box(intern("gui-core-bench-hot")))
    });
    c.bench_function("gui_core/sym_compare", |b| {
        let a = intern("gui-core-compare-a");
        let z = intern("gui-core-compare-b");
        b.iter(|| black_box(a == z))
    });
    c.bench_function("gui_core/page_build", |b| {
        b.iter(|| black_box(busy_page().content_height))
    });
    c.bench_function("gui_core/relayout_full", |b| {
        let mut p = busy_page();
        b.iter(|| {
            p.relayout();
            black_box(p.content_height)
        })
    });
    c.bench_function("gui_core/frame_hash_memoized", |b| {
        let p = busy_page();
        let shot = p.screenshot_at(0);
        shot.frame_hash();
        b.iter(|| black_box(shot.frame_hash()))
    });
    c.bench_function("gui_core/frame_hash_cold", |b| {
        let p = busy_page();
        let shot = p.screenshot_at(0);
        b.iter(|| black_box(shot.clone().frame_hash()))
    });
}

criterion_group!(benches, bench_gui_core);
criterion_main!(benches);
