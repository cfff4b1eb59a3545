//! Key frames and screen diffs from precomputed grid signatures equal the
//! per-call formulation, on the gold demo of every corpus task.
//! `extract_key_frames` keeps the last kept frame's grid, and SOP
//! generation diffs consecutive key frames through `diff_grids`; both
//! must pick exactly the frames and report exactly the regions that
//! computing both grids on every comparison does, or the SOPs, traces and
//! Table 1 cells would move.

use eclair_core::demonstrate::record_gold_demo;
use eclair_gui::{Key, UserEvent};
use eclair_vision::diff::{diff, diff_grids};
use eclair_vision::frame::Recording;
use eclair_vision::keyframes::{extract_key_frames, KeepReason, KeyFrame, KeyFrameConfig};

/// The key-frame heuristic as it compared frames before grids were kept:
/// `Screenshot::diff_fraction` against the last kept frame, both grids
/// computed per candidate.
fn per_call_key_frames(rec: &Recording, cfg: KeyFrameConfig) -> Vec<KeyFrame> {
    let mut kept: Vec<KeyFrame> = Vec::new();
    if rec.frames.is_empty() {
        return kept;
    }
    kept.push(KeyFrame {
        frame_index: 0,
        reason: KeepReason::Initial,
    });
    let typing = |e: &UserEvent| matches!(e, UserEvent::Type(_) | UserEvent::Press(Key::Backspace));
    let mut last_kept = 0usize;
    for (i, entry) in rec.log.iter().enumerate() {
        let candidate = i + 1;
        let next_in_burst = rec.log.get(i + 1).is_some_and(|n| typing(&n.event));
        let reason = match &entry.event {
            UserEvent::Click(_) => Some(KeepReason::AfterClick),
            e if typing(e) && next_in_burst => None,
            e if typing(e) => Some(KeepReason::AfterTypingBurst),
            UserEvent::Press(_) => Some(KeepReason::AfterKey),
            _ => None,
        };
        let Some(reason) = reason else { continue };
        let d = rec.frames[candidate]
            .shot
            .diff_fraction(&rec.frames[last_kept].shot);
        if d < cfg.min_diff {
            continue;
        }
        kept.push(KeyFrame {
            frame_index: candidate,
            reason,
        });
        last_kept = candidate;
    }
    let last = rec.frames.len() - 1;
    if kept.last().map(|k| k.frame_index) != Some(last) {
        let d = rec.frames[last]
            .shot
            .diff_fraction(&rec.frames[last_kept].shot);
        if d >= cfg.min_diff || kept.len() == 1 {
            kept.push(KeyFrame {
                frame_index: last,
                reason: KeepReason::AfterKey,
            });
        }
    }
    kept
}

#[test]
fn key_frames_and_diffs_from_kept_grids_match_on_every_gold_demo() {
    // SOP generation's threshold, the default, and one that keeps every
    // changed frame.
    let configs = [0.002, 0.008, 0.0].map(|min_diff| KeyFrameConfig { min_diff });
    let (mut tasks, mut kept, mut diffs) = (0, 0, 0);
    for task in eclair_corpus::corpus_tasks() {
        let rec = record_gold_demo(task);
        for cfg in configs {
            let frames = extract_key_frames(&rec, cfg);
            assert_eq!(
                frames,
                per_call_key_frames(&rec, cfg),
                "{} at min_diff {}",
                task.id,
                cfg.min_diff
            );
            kept += frames.len();
        }
        let grids: Vec<Vec<u64>> = rec.frames.iter().map(|f| f.shot.grid_signature()).collect();
        // Consecutive frames, and the first frame against every other (URL
        // changes included).
        let pairs = (1..rec.frames.len()).flat_map(|j| [(j - 1, j), (0, j)]);
        for (i, j) in pairs {
            let (a, b) = (&rec.frames[i].shot, &rec.frames[j].shot);
            assert_eq!(
                diff_grids(a, &grids[i], b, &grids[j]),
                diff(a, b),
                "{}: frames {i} and {j}",
                task.id
            );
            diffs += 1;
        }
        tasks += 1;
    }
    assert_eq!(tasks, 384, "every corpus task");
    assert!(
        kept > 3 * tasks && diffs > 4 * tasks,
        "{kept} key frames, {diffs} diffs"
    );
}
