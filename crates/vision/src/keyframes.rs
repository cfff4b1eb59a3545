//! Key-frame extraction from demonstration recordings.
//!
//! Paper §4.1.1: *"we preprocess our video demonstrations into a sequence of
//! key frames using imperfect heuristics (i.e. alignment with clicks and
//! keystrokes)"*. This module implements that heuristic with its real
//! imperfections:
//!
//! * a burst of `Type`/`Backspace` events collapses into a single key frame
//!   at the end of the burst (per-keystroke frames carry no new step);
//! * frames whose perceptual diff against the previous *kept* frame falls
//!   below a threshold are dropped — which silently discards fast,
//!   low-visual-impact steps (the source of the "missing steps" in
//!   Table 1's WD+KF row);
//! * scroll events never produce key frames, even though a step may have
//!   only been *reachable* by scrolling.

use serde::{Deserialize, Serialize};

use eclair_gui::screenshot::changed_fraction;
use eclair_gui::UserEvent;

use crate::frame::Recording;

/// Why a frame was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeepReason {
    /// First frame of the recording (initial state).
    Initial,
    /// Frame after a click.
    AfterClick,
    /// Frame at the end of a typing burst.
    AfterTypingBurst,
    /// Frame after a key press (Enter/Escape/Tab).
    AfterKey,
}

/// One selected key frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeyFrame {
    /// Index into `recording.frames`.
    pub frame_index: usize,
    /// Why the heuristic kept it.
    pub reason: KeepReason,
}

/// Tuning knobs for the extraction heuristic.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KeyFrameConfig {
    /// Minimum perceptual diff (fraction of changed signature cells) vs the
    /// previously *kept* frame for a candidate to survive.
    pub min_diff: f64,
}

impl Default for KeyFrameConfig {
    fn default() -> Self {
        // ~0.8% of the screen must have changed; tuned so pure caret blinks
        // and hover-ish noise drop but real actions survive.
        Self { min_diff: 0.008 }
    }
}

/// Run the heuristic over a recording. Each frame's grid signature is
/// computed at most once: the last kept frame's grid is kept for the
/// candidates after it.
pub fn extract_key_frames(rec: &Recording, cfg: KeyFrameConfig) -> Vec<KeyFrame> {
    let mut kept: Vec<KeyFrame> = Vec::new();
    if rec.frames.is_empty() {
        return kept;
    }
    kept.push(KeyFrame {
        frame_index: 0,
        reason: KeepReason::Initial,
    });
    let mut last_kept = 0usize;
    // The grid of frame `last_kept`, once a candidate on its URL needed it.
    let mut kept_grid: Option<Vec<u64>> = None;
    // `Screenshot::diff_fraction` against the last kept frame; returns the
    // candidate's grid when it computed one.
    let diff_from_kept = |candidate: usize, last_kept: usize, kept_grid: &mut Option<Vec<u64>>| {
        let (shot, kept) = (&rec.frames[candidate].shot, &rec.frames[last_kept].shot);
        if shot.url != kept.url {
            return (1.0, None);
        }
        let grid = shot.grid_signature();
        let kept_grid = kept_grid.get_or_insert_with(|| kept.grid_signature());
        (changed_fraction(&grid, kept_grid), Some(grid))
    };
    for (i, entry) in rec.log.iter().enumerate() {
        let candidate = i + 1; // frame after action i
                               // A typing burst is any run of Type / Backspace events; only the
                               // frame at the end of the run is a key-frame candidate.
        let next_in_burst = rec
            .log
            .get(i + 1)
            .map(|n| {
                matches!(n.event, UserEvent::Type(_))
                    || matches!(n.event, UserEvent::Press(eclair_gui::Key::Backspace))
            })
            .unwrap_or(false);
        let reason = match &entry.event {
            UserEvent::Click(_) => Some(KeepReason::AfterClick),
            UserEvent::Type(_) | UserEvent::Press(eclair_gui::Key::Backspace) if next_in_burst => {
                None // mid-burst
            }
            UserEvent::Type(_) | UserEvent::Press(eclair_gui::Key::Backspace) => {
                Some(KeepReason::AfterTypingBurst)
            }
            UserEvent::Press(_) => Some(KeepReason::AfterKey),
            UserEvent::Scroll(_) => None,
        };
        let Some(reason) = reason else { continue };
        let (diff, grid) = diff_from_kept(candidate, last_kept, &mut kept_grid);
        if diff < cfg.min_diff {
            continue; // imperfection: a real but visually-small step is lost
        }
        kept.push(KeyFrame {
            frame_index: candidate,
            reason,
        });
        last_kept = candidate;
        kept_grid = grid;
    }
    // Always keep the final state so completion is observable.
    let last = rec.frames.len() - 1;
    if kept.last().map(|k| k.frame_index) != Some(last) {
        let (diff, _) = diff_from_kept(last, last_kept, &mut kept_grid);
        if diff >= cfg.min_diff || kept.len() == 1 {
            kept.push(KeyFrame {
                frame_index: last,
                reason: KeepReason::AfterKey,
            });
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::record;
    use eclair_gui::{GuiApp, Page, PageBuilder, SemanticEvent, Session, UserEvent};

    struct FormApp {
        saved: Option<String>,
    }
    impl GuiApp for FormApp {
        fn name(&self) -> &str {
            "form"
        }
        fn url(&self) -> String {
            if self.saved.is_some() {
                "/done".into()
            } else {
                "/form".into()
            }
        }
        fn build(&self) -> Page {
            if let Some(v) = &self.saved {
                let mut b = PageBuilder::new("Done", "/done");
                b.heading(1, format!("Saved {v}"));
                b.finish()
            } else {
                let mut b = PageBuilder::new("Form", "/form");
                b.form("f", |b| {
                    b.text_input("q", "Query", "type here");
                    b.button("go", "Go");
                });
                b.finish()
            }
        }
        fn on_event(&mut self, ev: SemanticEvent) -> bool {
            if let SemanticEvent::Activated { name, fields, .. } = ev {
                if name == "go" {
                    self.saved = fields.into_iter().find(|(n, _)| n == "q").map(|(_, v)| v);
                    return true;
                }
            }
            false
        }
    }

    fn demo() -> crate::frame::Recording {
        let mut s = Session::new(Box::new(FormApp { saved: None }));
        let q = s.page().find_by_name("q").unwrap();
        let q_pt = s.page().get(q).bounds.center();
        let go = s.page().find_by_name("go").unwrap();
        let go_pt = s.page().get(go).bounds.center();
        record(
            &mut s,
            "Search for foobar",
            vec![
                UserEvent::Click(q_pt),
                UserEvent::Type("foo".into()),
                UserEvent::Type("bar".into()),
                UserEvent::Click(go_pt),
            ],
        )
    }

    #[test]
    fn typing_burst_collapses_to_one_frame() {
        let rec = demo();
        let kfs = extract_key_frames(&rec, KeyFrameConfig::default());
        // Expect: initial, after first click (caret/focus change may or may
        // not pass the diff gate), after typing burst, after final click.
        let burst_frames = kfs
            .iter()
            .filter(|k| k.reason == KeepReason::AfterTypingBurst)
            .count();
        assert_eq!(burst_frames, 1, "two Type events -> one key frame: {kfs:?}");
        assert_eq!(kfs[0].reason, KeepReason::Initial);
        assert_eq!(
            kfs.last().unwrap().frame_index,
            rec.frames.len() - 1,
            "final state kept"
        );
    }

    #[test]
    fn key_frames_are_strictly_ordered() {
        let rec = demo();
        let kfs = extract_key_frames(&rec, KeyFrameConfig::default());
        for pair in kfs.windows(2) {
            assert!(pair[0].frame_index < pair[1].frame_index);
        }
    }

    #[test]
    fn scrolls_never_become_key_frames() {
        let mut s = Session::new(Box::new(FormApp { saved: None }));
        let rec = record(
            &mut s,
            "scroll around",
            vec![UserEvent::Scroll(100), UserEvent::Scroll(-50)],
        );
        let kfs = extract_key_frames(&rec, KeyFrameConfig::default());
        // Initial frame (plus possibly a final-state keep); no click/typing
        // frames.
        assert!(kfs.iter().all(
            |k| k.reason != KeepReason::AfterClick && k.reason != KeepReason::AfterTypingBurst
        ));
    }

    #[test]
    fn low_diff_frames_are_dropped() {
        // Clicking dead space changes nothing; the heuristic must drop the
        // resulting frame (and thereby can also drop *real* small steps —
        // that is the documented imperfection).
        let mut s = Session::new(Box::new(FormApp { saved: None }));
        let rec = record(
            &mut s,
            "misclicks",
            vec![
                UserEvent::Click(eclair_gui::Point::new(1270, 700)),
                UserEvent::Click(eclair_gui::Point::new(1270, 710)),
            ],
        );
        let kfs = extract_key_frames(&rec, KeyFrameConfig::default());
        assert_eq!(
            kfs.iter()
                .filter(|k| k.reason == KeepReason::AfterClick)
                .count(),
            0,
            "no-op clicks produce no key frames: {kfs:?}"
        );
    }

    #[test]
    fn empty_recording_is_safe() {
        let rec = crate::frame::Recording {
            workflow_description: String::new(),
            frames: vec![],
            log: vec![],
        };
        assert!(extract_key_frames(&rec, KeyFrameConfig::default()).is_empty());
    }
}
