//! Outside-in layer attribution for the traced leg: a scope stack that
//! turns nested wall-clock spans into per-layer self time, a counting
//! global allocator that charges each allocation to the innermost open
//! layer, and [`TimedSurface`], which opens a GUI scope around every call
//! the executor makes into the GUI.
//!
//! All state is thread-local and fixed-size (no allocation, no locking),
//! so the allocator can consult it and the two-client legs never contend.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use eclair_gui::event::Dispatch;
use eclair_gui::{FaultNote, GuiSurface, Page, Screenshot, UserEvent};

/// The layers a traced run is split into, named after the crates whose
/// public functions the scopes wrap. `Root` is whatever a run does
/// outside every scope (loop glue): the unattributed remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Root,
    SitesLaunch,
    SitesEvaluate,
    GuiScreenshot,
    GuiDispatch,
    CoreExecute,
    HybridCompile,
    DemonstrateRecord,
    DemonstrateSopGen,
    Validate,
    TraceExport,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = Layer::TraceExport as usize + 1;

/// Deepest scope nesting the traced leg opens (root → execute → gui).
const MAX_DEPTH: usize = 8;

/// Per-layer totals for one thread since the last [`reset`].
#[derive(Debug, Clone, Copy)]
pub struct LayerTotals {
    /// Self time: time inside the layer's scopes minus nested scopes.
    pub self_ns: [u64; LAYERS],
    /// Scopes opened (calls into the layer).
    pub calls: [u64; LAYERS],
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls).
    pub allocs: [u64; LAYERS],
    /// Bytes those allocations requested.
    pub alloc_bytes: [u64; LAYERS],
}

impl LayerTotals {
    /// Self time of every layer, unattributed remainder included.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Allocation count and bytes of `layers` summed.
    pub fn allocs_of(&self, layers: &[Layer]) -> (u64, u64) {
        layers.iter().fold((0, 0), |(n, b), &l| {
            (
                n + self.allocs[l as usize],
                b + self.alloc_bytes[l as usize],
            )
        })
    }
}

struct Stack {
    depth: usize,
    /// `(layer, start ns, ns covered by child scopes)` per open scope.
    frames: [(Layer, u64, u64); MAX_DEPTH],
    self_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack {
            depth: 0,
            frames: [(Layer::Root, 0, 0); MAX_DEPTH],
            self_ns: [0; LAYERS],
            calls: [0; LAYERS],
        })
    };
    /// Layer the allocator charges: the innermost open scope's. Kept
    /// apart from `STACK` so an allocation made while `STACK` is borrowed
    /// cannot re-enter the borrow.
    static CURRENT: Cell<Layer> = const { Cell::new(Layer::Root) };
    static ALLOCS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static ALLOC_BYTES: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open layer scope; closing it (on drop) books its self time.
pub struct Scope {
    outer: Layer,
}

/// Open a scope for `layer` on this thread.
pub fn scope(layer: Layer) -> Scope {
    let outer = CURRENT.with(|c| c.replace(layer));
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let depth = s.depth;
        assert!(
            depth < MAX_DEPTH,
            "layer scopes nested deeper than {MAX_DEPTH}"
        );
        s.frames[depth] = (layer, now_ns(), 0);
        s.depth += 1;
        s.calls[layer as usize] += 1;
    });
    Scope { outer }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.depth -= 1;
            let (layer, start, child) = s.frames[s.depth];
            let elapsed = end - start;
            s.self_ns[layer as usize] += elapsed.saturating_sub(child);
            if s.depth > 0 {
                let parent = s.depth - 1;
                s.frames[parent].2 += elapsed;
            }
        });
        CURRENT.with(|c| c.set(self.outer));
    }
}

/// Zero this thread's layer totals and allocation counters.
pub fn reset() {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.self_ns = [0; LAYERS];
        s.calls = [0; LAYERS];
    });
    ALLOCS.with(|a| a.iter().for_each(|c| c.set(0)));
    ALLOC_BYTES.with(|a| a.iter().for_each(|c| c.set(0)));
}

/// This thread's layer totals since the last [`reset`].
pub fn snapshot() -> LayerTotals {
    let (self_ns, calls) = STACK.with(|s| {
        let s = s.borrow();
        (s.self_ns, s.calls)
    });
    LayerTotals {
        self_ns,
        calls,
        allocs: ALLOCS.with(|a| std::array::from_fn(|i| a[i].get())),
        alloc_bytes: ALLOC_BYTES.with(|a| std::array::from_fn(|i| a[i].get())),
    }
}

/// The system allocator, counting every allocation against the calling
/// thread's innermost open layer.
pub struct CountingAlloc;

fn count(bytes: usize) {
    let layer = CURRENT.try_with(Cell::get).unwrap_or(Layer::Root) as usize;
    let _ = ALLOCS.try_with(|a| a[layer].set(a[layer].get() + 1));
    let _ = ALLOC_BYTES.try_with(|a| a[layer].set(a[layer].get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialized thread-locals
// without destructors, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// A [`GuiSurface`] that forwards every call to `S` unchanged and times
/// screenshots and event dispatches as the GUI layer. Under chaos `S` is
/// the `ChaosSession`, so its perturbation cost is booked as GUI time.
pub struct TimedSurface<S> {
    inner: S,
}

impl<S: GuiSurface> TimedSurface<S> {
    /// Wrap a surface.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// The wrapped surface.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: GuiSurface> GuiSurface for TimedSurface<S> {
    fn begin_step(&mut self, step: u64) {
        self.inner.begin_step(step)
    }

    fn screenshot(&mut self) -> Arc<Screenshot> {
        let _gui = scope(Layer::GuiScreenshot);
        self.inner.screenshot()
    }

    fn set_cache_enabled(&mut self, on: bool) {
        self.inner.set_cache_enabled(on)
    }

    fn dispatch(&mut self, event: UserEvent) -> Dispatch {
        let _gui = scope(Layer::GuiDispatch);
        self.inner.dispatch(event)
    }

    fn page(&self) -> &Page {
        self.inner.page()
    }

    fn scroll_y(&self) -> i32 {
        self.inner.scroll_y()
    }

    fn url(&self) -> String {
        self.inner.url()
    }

    fn drain_fault_notes(&mut self) -> Vec<FaultNote> {
        self.inner.drain_fault_notes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_split_into_self_time_that_adds_up() {
        reset();
        {
            let _root = scope(Layer::Root);
            {
                let _exec = scope(Layer::CoreExecute);
                std::hint::black_box(vec![0u8; 64]);
                {
                    let _gui = scope(Layer::GuiDispatch);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        let t = snapshot();
        assert_eq!(t.calls[Layer::GuiDispatch as usize], 1);
        assert!(t.self_ns[Layer::GuiDispatch as usize] >= 2_000_000);
        assert!(
            t.self_ns[Layer::CoreExecute as usize] < t.self_ns[Layer::GuiDispatch as usize],
            "the child's sleep must not be booked to its parent"
        );
        assert!(t.allocs[Layer::CoreExecute as usize] >= 1);
        assert!(t.alloc_bytes[Layer::CoreExecute as usize] >= 64);
    }

    #[test]
    fn timed_surface_is_transparent() {
        use eclair_core::execute::executor::{run_on_session, ExecConfig};
        use eclair_fm::{FmModel, ModelProfile};

        let task = &eclair_sites::all_tasks()[2];
        let cfg = ExecConfig::with_sop(task.gold_sop.clone()).budgeted(task.gold_trace.len());
        let run = |timed: bool| {
            let mut model = FmModel::new(ModelProfile::gpt4v(), 17);
            let (mut result, session) = if timed {
                let mut surface = TimedSurface::new(task.launch());
                let r = run_on_session(&mut model, &mut surface, &task.intent, &cfg);
                (r, surface.inner)
            } else {
                let mut session = task.launch();
                let r = run_on_session(&mut model, &mut session, &task.intent, &cfg);
                (r, session)
            };
            result.success = task.success.evaluate(&session);
            (result, model.trace().to_jsonl())
        };
        let (plain, plain_jsonl) = run(false);
        let (timed, timed_jsonl) = run(true);
        assert_eq!(plain, timed);
        assert_eq!(plain_jsonl, timed_jsonl);
    }
}
