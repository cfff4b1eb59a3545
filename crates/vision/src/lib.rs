//! # eclair-vision
//!
//! The vision substrate of the ECLAIR reproduction: everything between raw
//! screenshots (from `eclair-gui`) and the simulated foundation model's
//! perception.
//!
//! * [`frame`] — recordings of demonstrations: aligned frame/action-log
//!   sequences, captured by driving a live session (the "video
//!   demonstrations" of paper §4.1);
//! * [`keyframes`] — the paper's *imperfect* key-frame extraction heuristic
//!   ("alignment with clicks and keystrokes"), including its real failure
//!   modes (typing bursts collapse, low-diff frames drop);
//! * [`ocr`] — simulated optical character recognition with size-dependent
//!   character noise;
//! * [`detector`] — a YOLO-NAS-like object detector over screenshots with
//!   size-dependent recall, box jitter, and false positives (Table 3's
//!   "YOLO" bounding-box source);
//! * [`marks`] — set-of-marks overlays (Yang et al. 2023): numeric labels on
//!   candidate boxes from either the detector or ground-truth HTML;
//! * [`diff`] — perceptual screen diffing used by the Validate experiments.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod detector;
pub mod diff;
pub mod frame;
pub mod keyframes;
pub mod marks;
pub mod ocr;

pub use detector::{Detection, YoloNasSim};
pub use frame::{ActionLogEntry, Frame, Recording};
pub use keyframes::{extract_key_frames, KeyFrame};
pub use marks::{Mark, MarkedScreenshot};
