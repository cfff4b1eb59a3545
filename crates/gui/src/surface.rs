//! The GUI boundary abstraction: what an agent needs from "a browser".
//!
//! [`crate::session::Session`] is the real (simulated) boundary. Fault
//! injectors (`eclair-chaos`) wrap it and perturb what crosses: stale
//! frames, shifted clicks, dropped events, injected dialogs. The executor
//! is written against this trait so the same loop runs on a pristine
//! session and on an adversarially perturbed one.

use std::sync::Arc;

use crate::event::{Dispatch, UserEvent};
use crate::screenshot::Screenshot;
use crate::session::Session;
use crate::tree::Page;

/// One injected fault, reported by a perturbing surface so the executor
/// can record it in the trace. Plain data: the step it was scheduled at
/// and a stable name for the fault kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultNote {
    /// Executor step (1-based) the fault was armed at.
    pub step: u64,
    /// Stable fault-kind name (e.g. `"layout-shift"`).
    pub fault: String,
}

/// A surface an agent drives: screenshots in, events out. Implemented by
/// [`Session`] directly and by fault-injecting wrappers around it.
///
/// `screenshot` takes `&mut self` because perturbing surfaces maintain
/// frame caches (stale-frame delivery) and schedules; the plain session
/// ignores the mutability.
pub trait GuiSurface {
    /// Called by the executor at the top of each loop iteration with the
    /// 1-based step index. Perturbing surfaces arm scheduled faults here;
    /// the plain session does nothing.
    fn begin_step(&mut self, _step: u64) {}

    /// Capture the current frame (or, under fault injection, a stale one).
    /// Frames are shared (`Arc`): an unchanged page re-observed at the
    /// same scroll/caret state may return the same allocation.
    fn screenshot(&mut self) -> Arc<Screenshot>;

    /// Turn the frame cache on or off beneath this surface. Must be
    /// observationally transparent:
    /// only `eclair_trace::perf` counters may notice. Wrappers forward to
    /// the inner session.
    fn set_cache_enabled(&mut self, _on: bool) {}

    /// Deliver one raw user event (or drop/duplicate/translate it, under
    /// fault injection).
    fn dispatch(&mut self, event: UserEvent) -> Dispatch;

    /// The live page (HTML source for set-of-marks grounding).
    fn page(&self) -> &Page;

    /// Current scroll offset.
    fn scroll_y(&self) -> i32;

    /// The current URL (agents can read it off the browser chrome).
    fn url(&self) -> String;

    /// Faults armed since the last drain, for trace recording. Empty on
    /// a pristine surface.
    fn drain_fault_notes(&mut self) -> Vec<FaultNote> {
        Vec::new()
    }
}

impl GuiSurface for Session {
    fn screenshot(&mut self) -> Arc<Screenshot> {
        Session::screenshot(self)
    }

    fn set_cache_enabled(&mut self, on: bool) {
        Session::set_cache_enabled(self, on)
    }

    fn dispatch(&mut self, event: UserEvent) -> Dispatch {
        Session::dispatch(self, event)
    }

    fn page(&self) -> &Page {
        Session::page(self)
    }

    fn scroll_y(&self) -> i32 {
        Session::scroll_y(self)
    }

    fn url(&self) -> String {
        Session::url(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EffectKind;
    use crate::tree::{Page, PageBuilder};
    use crate::SemanticEvent;

    struct One;
    impl crate::session::GuiApp for One {
        fn name(&self) -> &str {
            "one"
        }
        fn url(&self) -> String {
            "/one".into()
        }
        fn build(&self) -> Page {
            let mut b = PageBuilder::new("One", "/one");
            b.button("go", "Go");
            b.finish()
        }
        fn on_event(&mut self, _: SemanticEvent) -> bool {
            false
        }
    }

    #[test]
    fn session_implements_the_surface() {
        fn drive<S: GuiSurface>(s: &mut S) -> EffectKind {
            s.begin_step(1);
            assert!(s.drain_fault_notes().is_empty(), "pristine surface");
            let shot = s.screenshot();
            let btn = shot.items.iter().find(|i| i.text == "Go").unwrap();
            s.dispatch(UserEvent::Click(btn.rect.center())).effect
        }
        let mut s = Session::new(Box::new(One));
        assert_eq!(drive(&mut s), EffectKind::Activated);
        assert_eq!(GuiSurface::url(&s), "/one");
        assert_eq!(GuiSurface::scroll_y(&s), 0);
    }
}
