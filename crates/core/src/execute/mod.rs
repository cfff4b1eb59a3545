//! Stage 2 — **Execute** (paper §4.2).
//!
//! Each step of execution has two phases the paper measures separately:
//! **action suggestion** — deciding *what* to do next from the current
//! screen, the history, and (optionally) an SOP — and **action grounding**
//! — translating the suggestion into actual clicks and keystrokes at pixel
//! coordinates.
//!
//! * [`parse`] — turn an SOP step's text into a structured intent;
//! * [`suggest`] — next-action suggestion, with and without SOP guidance
//!   (Table 2's ablation);
//! * [`ground`] — the grounding strategies of Table 3 (raw bbox emission,
//!   set-of-marks over detector or HTML boxes, GUI-tuned native);
//! * [`executor`] — the autonomous loop: observe → suggest → ground →
//!   actuate → recover. Its step driver, [`drive`], owns what every run
//!   shares whatever proposes the steps: spans, virtual-clock anchoring,
//!   chaos fault notes, re-login, the attempt/failure/recovery counts and
//!   the rendered log. [`executor::run_on_session`] drives FM-suggested
//!   steps; the hybrid executor (`eclair-hybrid`) drives compiled bot
//!   steps;
//! * [`fallback`] — the step-scoped repair entry point the hybrid
//!   executor calls when a compiled bot step drifts: FM-ground one query,
//!   dispatch one operation, report the landed anchor for recompilation.

pub mod executor;
pub mod fallback;
pub mod ground;
pub mod parse;
pub mod suggest;

pub use executor::{click_at, drive, run_task, ExecConfig, RunResult, StepOutcome};
pub use fallback::{repair_step, RepairedAnchor};
pub use ground::GroundingStrategy;
pub use parse::{parse_step, StepIntent};
pub use suggest::{suggest_next, Suggestion};
