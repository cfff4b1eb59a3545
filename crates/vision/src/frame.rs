//! Demonstration recordings: what the paper's human annotators produced by
//! "recording themselves completing each workflow".
//!
//! A [`Recording`] pairs a sequence of frames (screenshots) with an aligned
//! action log: `frames[i]` is the screen state *before* `log[i]`, and
//! `frames[i+1]` the state after it. The final frame has no following
//! action. This is exactly the (s, a, s′, a′, ...) alternation of the
//! paper's §2.2 problem formulation.

use eclair_gui::event::Dispatch;
use eclair_gui::{Screenshot, Session, UserEvent};
use serde::{Deserialize, Serialize};

/// One captured frame of a demonstration video.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Frame {
    /// Position in the recording (0-based).
    pub index: usize,
    /// The captured screen.
    pub shot: Screenshot,
}

/// One entry of the OS-level action log: the raw event plus whatever a
/// recording tool could attach from accessibility metadata (the clicked
/// element's visible/accessible text). The paper's WD+KF+ACT condition
/// feeds these to the model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionLogEntry {
    /// Index of the frame this action was taken *from*.
    pub frame_index: usize,
    /// The raw event.
    pub event: UserEvent,
    /// Accessible text of the hit element, when the logger could resolve
    /// one (button caption, field label, icon aria-label).
    pub target_text: Option<String>,
    /// URL after the event settled.
    pub url_after: String,
}

impl ActionLogEntry {
    /// Render the entry as a log line ("click 'New issue'").
    pub fn describe(&self) -> String {
        match (&self.event, &self.target_text) {
            (UserEvent::Click(_), Some(t)) if !t.is_empty() => format!("click '{t}'"),
            (UserEvent::Type(s), Some(t)) if !t.is_empty() => format!("type {s:?} into '{t}'"),
            _ => self.event.describe(),
        }
    }
}

/// A complete demonstration: workflow description, frames, action log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recording {
    /// The natural-language workflow description ("WD").
    pub workflow_description: String,
    /// Captured frames; `frames.len() == log.len() + 1` for a non-empty
    /// recording.
    pub frames: Vec<Frame>,
    /// Aligned action log.
    pub log: Vec<ActionLogEntry>,
}

impl Recording {
    /// Number of actions performed.
    pub fn num_actions(&self) -> usize {
        self.log.len()
    }

    /// The (s, a, s′) triple around action `i`, if in range.
    pub fn transition(&self, i: usize) -> Option<(&Screenshot, &ActionLogEntry, &Screenshot)> {
        if i + 1 < self.frames.len() && i < self.log.len() {
            Some((&self.frames[i].shot, &self.log[i], &self.frames[i + 1].shot))
        } else {
            None
        }
    }

    /// The final screen state.
    pub fn final_frame(&self) -> Option<&Screenshot> {
        self.frames.last().map(|f| &f.shot)
    }

    /// Drop the last `n` transitions — the paper's negative-example
    /// construction for the workflow-completion validator ("truncate some
    /// by a random number of frames").
    pub fn truncated(&self, n: usize) -> Recording {
        let keep_actions = self.log.len().saturating_sub(n);
        Recording {
            workflow_description: self.workflow_description.clone(),
            frames: self.frames[..=keep_actions.min(self.frames.len() - 1)].to_vec(),
            log: self.log[..keep_actions].to_vec(),
        }
    }

    /// Swap two transitions (paper's "randomly shuffle" trajectory
    /// corruption). Frame `i+1` and `j+1` plus log entries `i`/`j` swap, so
    /// the trace stays aligned but the order of evidence is wrong.
    pub fn with_swapped(&self, i: usize, j: usize) -> Recording {
        let mut r = self.clone();
        if i < r.log.len() && j < r.log.len() && i != j {
            r.log.swap(i, j);
            r.frames.swap(i + 1, j + 1);
        }
        r
    }

    /// Delete transition `i` entirely (frame `i+1` and log entry `i`) —
    /// the paper's "randomly delete frames" corruption.
    pub fn with_deleted(&self, i: usize) -> Recording {
        let mut r = self.clone();
        if i < r.log.len() {
            r.log.remove(i);
            r.frames.remove(i + 1);
            for (idx, f) in r.frames.iter_mut().enumerate() {
                f.index = idx;
            }
            for (idx, l) in r.log.iter_mut().enumerate() {
                l.frame_index = idx;
            }
        }
        r
    }
}

/// Drive a live session through `events`, capturing a frame before the
/// first event and after every event — the recorder the paper's annotators
/// ran while demonstrating workflows.
pub fn record(session: &mut Session, wd: &str, events: Vec<UserEvent>) -> Recording {
    // Frames are archived (serialized, mutated by corruption studies), so
    // the recording deep-copies out of the session's shared frame cache.
    let mut frames = vec![Frame {
        index: 0,
        shot: (*session.screenshot()).clone(),
    }];
    let mut log = Vec::with_capacity(events.len());
    for (i, event) in events.into_iter().enumerate() {
        let d: Dispatch = session.dispatch(event.clone());
        log.push(ActionLogEntry {
            frame_index: i,
            event,
            target_text: d
                .hit
                .filter(|(_, label)| !label.is_empty())
                .map(|(_, label)| label.to_string()),
            url_after: d.url_after,
        });
        frames.push(Frame {
            index: i + 1,
            shot: (*session.screenshot()).clone(),
        });
    }
    Recording {
        workflow_description: wd.to_string(),
        frames,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_gui::{GuiApp, Page, PageBuilder, Point, SemanticEvent};

    struct TwoStep {
        route: String,
    }
    impl GuiApp for TwoStep {
        fn name(&self) -> &str {
            "two"
        }
        fn url(&self) -> String {
            self.route.clone()
        }
        fn build(&self) -> Page {
            let mut b = PageBuilder::new("Two", self.route.clone());
            if self.route == "/a" {
                b.button("go", "Go to B");
            } else {
                b.heading(1, "Page B");
            }
            b.finish()
        }
        fn on_event(&mut self, ev: SemanticEvent) -> bool {
            if let SemanticEvent::Activated { name, .. } = ev {
                if name == "go" {
                    self.route = "/b".into();
                    return true;
                }
            }
            false
        }
    }

    fn make_recording() -> Recording {
        let mut s = Session::new(Box::new(TwoStep { route: "/a".into() }));
        let go = s.page().find_by_name("go").unwrap();
        let pt = s.page().get(go).bounds.center();
        record(
            &mut s,
            "Navigate from A to B",
            vec![
                UserEvent::Click(pt),
                UserEvent::Scroll(10), // no-op on a short page
            ],
        )
    }

    #[test]
    fn recording_aligns_frames_and_log() {
        let r = make_recording();
        assert_eq!(r.frames.len(), r.log.len() + 1);
        assert_eq!(r.num_actions(), 2);
        let (s, a, s2) = r.transition(0).unwrap();
        assert_eq!(s.url, "/a");
        assert_eq!(a.target_text.as_deref(), Some("Go to B"));
        assert_eq!(s2.url, "/b");
    }

    #[test]
    fn describe_uses_target_text() {
        let r = make_recording();
        assert_eq!(r.log[0].describe(), "click 'Go to B'");
    }

    #[test]
    fn truncation_drops_tail() {
        let r = make_recording();
        let t = r.truncated(1);
        assert_eq!(t.num_actions(), 1);
        assert_eq!(t.frames.len(), 2);
        assert_eq!(t.final_frame().unwrap().url, "/b");
        let t2 = r.truncated(10);
        assert_eq!(t2.num_actions(), 0);
        assert_eq!(t2.frames.len(), 1);
    }

    #[test]
    fn swap_and_delete_keep_alignment() {
        let r = make_recording();
        let sw = r.with_swapped(0, 1);
        assert_eq!(sw.frames.len(), sw.log.len() + 1);
        assert_ne!(sw.log[0].event, r.log[0].event, "order changed after swap");
        let del = r.with_deleted(0);
        assert_eq!(del.num_actions(), 1);
        assert_eq!(del.frames.len(), 2);
        assert_eq!(del.log[0].frame_index, 0, "indices rewritten");
    }

    #[test]
    fn click_point_type_has_describe_fallback() {
        let e = ActionLogEntry {
            frame_index: 0,
            event: UserEvent::Click(Point::new(5, 6)),
            target_text: None,
            url_after: "/".into(),
        };
        assert_eq!(e.describe(), "click @ (5,6)");
    }
}
