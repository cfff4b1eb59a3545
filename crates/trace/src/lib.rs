//! Deterministic structured tracing for the ECLAIR pipeline.
//!
//! Every run of Demonstrate → Execute → Validate emits a stream of typed
//! [`TraceEvent`]s — nested spans, FM-call token accounting, grounding
//! attempts, retries, popup escapes, validator verdicts, and free-text
//! notes. The stream carries only monotonic sequence numbers (never
//! wall-clock), so the same seed yields a byte-identical JSONL export.
//!
//! Three consumers sit on top of the stream:
//!
//! * [`RunSummary::from_events`] rolls it up into per-phase counters, a
//!   completion-token histogram, and a dollar cost;
//! * [`render_log`] recovers the legacy human-readable narration (every
//!   `Note` event, verbatim);
//! * [`FlightTail`] shows the most recent events for post-mortem dumps
//!   after a failed run;
//! * [`merge_event_streams`] splices many per-run streams into one
//!   fleet-level trace in run-id order (see `eclair-fleet`), refusing
//!   structurally invalid input with a [`MergeError`];
//! * [`audit_spans`] / [`audit_seq_gapless`] check the structural
//!   invariants oracles rely on (see `eclair-crucible`).
//!
//! The [`perf`] module holds the caching layer's hit/miss/invalidation
//! counters. They are deliberately *not* events: cache effectiveness must
//! never appear in the byte-compared stream, or cache-on and cache-off
//! runs could not be byte-identical (the PR 5 transparency invariant).

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod audit;
mod event;
mod flight;
mod merge;
pub mod perf;
mod recorder;
mod summary;
pub mod vclock;

pub use audit::{
    audit_seq_gapless, audit_spans, fault_injections, fm_token_totals, AuditError, SpanAudit,
    TokenTotals,
};
pub use event::{EventKind, GroundingOutcome, SpanKind, TraceEvent};
pub use flight::{FlightTail, FLIGHT_TAIL_LEN};
pub use merge::{merge_event_streams, merge_owned_event_streams, merged_jsonl, MergeError};
pub use recorder::{read_jsonl, render_log, SpanId, TraceRecorder};
pub use summary::{PhaseStats, RunSummary, TokenHistogram, HIST_BOUNDS};
pub use vclock::{fault_cost_weight, CostKind, VirtualClock};
