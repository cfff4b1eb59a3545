//! The trace vocabulary: span kinds, typed events, and the sequenced
//! event record that everything downstream (rollups, JSONL, the flight
//! recorder) consumes.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// What a span represents in the Demonstrate → Execute → Validate
/// pipeline. The first three are *phase* spans; the rest are per-step
/// children nested under an `Execute` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// SOP generation from a demonstration (paper §4.1).
    Demonstrate,
    /// Autonomous execution of a workflow (paper §4.2).
    Execute,
    /// Post-hoc validation of a run (paper §4.3).
    Validate,
    /// One iteration of the execution loop.
    Step,
    /// Screenshot / perception inside a step.
    Observe,
    /// Next-action proposal inside a step.
    Suggest,
    /// Coordinate grounding inside a step.
    Ground,
    /// Performing the grounded action on the GUI.
    Actuate,
    /// Error-recovery handling after a failed action.
    Recover,
}

impl SpanKind {
    /// Stable lower-case name used in rendered output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Demonstrate => "demonstrate",
            SpanKind::Execute => "execute",
            SpanKind::Validate => "validate",
            SpanKind::Step => "step",
            SpanKind::Observe => "observe",
            SpanKind::Suggest => "suggest",
            SpanKind::Ground => "ground",
            SpanKind::Actuate => "actuate",
            SpanKind::Recover => "recover",
        }
    }

    /// Whether this kind is a top-level pipeline phase.
    pub fn is_phase(self) -> bool {
        matches!(
            self,
            SpanKind::Demonstrate | SpanKind::Execute | SpanKind::Validate
        )
    }
}

/// A typed trace event. Everything the pipeline reports flows through
/// these variants; free-text narration is a `Note`.
///
/// The fields that usually hold a fixed name (span labels, FM-call
/// purposes, grounding strategies, validator names) are
/// `Cow<'static, str>`: a literal is borrowed, never allocated, cloned or
/// freed, while a label made from run text is owned. Both write the same
/// JSON string, and a parsed trace holds owned values, which compare
/// equal to borrowed ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A span opened. `id` is unique within the run.
    SpanStart {
        id: u64,
        kind: SpanKind,
        label: Cow<'static, str>,
    },
    /// The span with `id` closed.
    SpanEnd { id: u64, kind: SpanKind },
    /// One foundation-model invocation with its token accounting.
    FmCall {
        purpose: Cow<'static, str>,
        prompt_tokens: u64,
        completion_tokens: u64,
    },
    /// One grounding attempt and how it went.
    GroundingAttempt {
        strategy: Cow<'static, str>,
        outcome: GroundingOutcome,
    },
    /// An action was retried after a recovery step.
    Retry { what: String },
    /// An unexpected modal/popup was dismissed.
    PopupEscape { url: String },
    /// A chaos fault was injected at the GUI boundary (`eclair-chaos`).
    /// `step` is the 1-based executor step the fault was armed at; `fault`
    /// is the stable kind name (e.g. `"stale-frame"`).
    FaultInjected { step: u64, fault: String },
    /// A validator produced a verdict.
    ValidatorVerdict {
        validator: Cow<'static, str>,
        passed: bool,
    },
    /// The hybrid compiler lowered one validated-trace action into a bot
    /// step anchored by `selector` (`eclair-hybrid`). `step` is the
    /// 0-based script position.
    CompiledStep { step: u64, selector: String },
    /// The hybrid executor detected UI drift at script step `step`:
    /// a selector miss, a displaced click, a swallowed effect, or an
    /// unexpected redirect. `reason` is a stable short name.
    DriftDetected { step: u64, reason: String },
    /// The hybrid executor fell back to the FM executor for script step
    /// `step`, grounding `query` (this is where a hybrid run spends
    /// tokens).
    FallbackStep { step: u64, query: String },
    /// The recompiler spliced the FM-repaired anchor back into the
    /// script at `step`; `selector` is the new anchor.
    Recompiled { step: u64, selector: String },
    /// Free-text narration (renders verbatim into the legacy log).
    Note { text: String },
}

/// Outcome of a single grounding attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroundingOutcome {
    /// A point was produced.
    Resolved,
    /// No candidate matched the query.
    Unresolved,
}

/// One record in the trace: a monotonically increasing sequence number
/// (no wall-clock anywhere — runs are byte-reproducible), the id of the
/// innermost enclosing span (0 = root), the virtual-clock reading at
/// emission, and the typed payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Strictly increasing, starting at 0, unique within a run.
    pub seq: u64,
    /// Enclosing span id at emission time; 0 when outside any span.
    pub parent: u64,
    /// Simulated time at emission, microseconds since run start (see
    /// [`crate::vclock::VirtualClock`]). Deterministic from the seeds —
    /// never wall-clock — so it is safe inside the byte-compared stream.
    /// Defaults to 0 when parsing traces that predate the field.
    pub vt: u64,
    /// The payload.
    pub kind: EventKind,
}

// Hand-written (the derive stub has no `#[serde(default)]`) so traces
// recorded before the `vt` field parse with `vt: 0` instead of erroring.
impl serde::Deserialize for TraceEvent {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            serde::Deserialize::from_value(v.field(name))
                .map_err(|e| serde::Error::custom(format!("TraceEvent.{name}: {e}")))
        };
        Ok(TraceEvent {
            seq: field("seq")?,
            parent: field("parent")?,
            vt: match v.field("vt") {
                serde::Value::Null => 0,
                _ => field("vt")?,
            },
            kind: serde::Deserialize::from_value(v.field("kind"))
                .map_err(|e| serde::Error::custom(format!("TraceEvent.kind: {e}")))?,
        })
    }
}
