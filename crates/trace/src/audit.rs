//! Stream auditing: the structural invariants a well-formed event stream
//! satisfies, plus the oracle-facing iterators `eclair-crucible` checks
//! traces with.
//!
//! A stream produced by one [`crate::TraceRecorder`] obeys three rules by
//! construction, and this module makes them checkable after the fact:
//!
//! 1. **Span ends match opens.** Every `SpanEnd` closes exactly the
//!    innermost open span (the recorder's `close` unwinds children with
//!    explicit end events, so ends are strictly LIFO).
//! 2. **No id is open twice.** A span id may be *reused* once closed
//!    (fleet workers concatenate one fresh recorder per attempt), but two
//!    simultaneously open spans never share an id.
//! 3. **Parents resolve.** Every event's `parent` is the id of the
//!    innermost open span at emission time, or 0 outside any span.
//!
//! Merged fleet streams additionally renumber `seq` from 0 with no gaps —
//! [`audit_seq_gapless`] checks that contract separately, because raw
//! per-run streams legitimately reset `seq` at attempt boundaries.

use crate::event::{EventKind, TraceEvent};

/// Why a stream failed the structural audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A `SpanEnd` that does not close the innermost open span (either no
    /// span is open, a different one is, or the id was never opened).
    MismatchedSpanEnd {
        /// `seq` of the offending event.
        seq: u64,
        /// The id the event tried to close.
        id: u64,
        /// The innermost open span at that point (`None` = stack empty).
        innermost: Option<u64>,
    },
    /// A `SpanStart` reusing an id that is still open.
    DuplicateOpenSpan {
        /// `seq` of the offending event.
        seq: u64,
        /// The doubly-opened id.
        id: u64,
    },
    /// An event whose `parent` is neither 0 nor the innermost open span.
    OrphanParent {
        /// `seq` of the offending event.
        seq: u64,
        /// The parent the event claims.
        parent: u64,
        /// The innermost open span at that point (`None` = stack empty).
        innermost: Option<u64>,
    },
    /// `seq` numbering has a gap or regression (merged streams only).
    SeqGap {
        /// Position in the slice.
        index: usize,
        /// The `seq` the gapless contract requires there.
        expected: u64,
        /// The `seq` actually found.
        found: u64,
    },
    /// `seq` failed to strictly increase *inside an open span*. Raw
    /// per-run streams may reset `seq` at attempt boundaries, but an
    /// attempt boundary always has an empty span stack — a duplicate or
    /// out-of-order `seq` while any span is open means the stream was
    /// reordered or doctored.
    NonMonotoneSeq {
        /// The offending event's `seq`.
        seq: u64,
        /// The previous event's `seq` (which `seq` failed to exceed).
        prev: u64,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::MismatchedSpanEnd { seq, id, innermost } => write!(
                f,
                "event seq {seq}: SpanEnd for id {id} but innermost open span is {innermost:?}"
            ),
            AuditError::DuplicateOpenSpan { seq, id } => {
                write!(f, "event seq {seq}: SpanStart reopens still-open id {id}")
            }
            AuditError::OrphanParent {
                seq,
                parent,
                innermost,
            } => write!(
                f,
                "event seq {seq}: parent {parent} but innermost open span is {innermost:?}"
            ),
            AuditError::SeqGap {
                index,
                expected,
                found,
            } => write!(
                f,
                "event at index {index}: expected seq {expected}, found {found}"
            ),
            AuditError::NonMonotoneSeq { seq, prev } => write!(
                f,
                "event seq {seq} does not increase past {prev} inside an open span"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// What [`audit_spans`] learned from a structurally valid stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAudit {
    /// Spans opened over the stream.
    pub opened: u64,
    /// Spans closed over the stream.
    pub closed: u64,
    /// Deepest nesting observed.
    pub max_depth: usize,
    /// Spans still open when the stream ended.
    pub unclosed: usize,
}

/// Walk the stream checking the span-tree rules (ends LIFO-match opens,
/// no id open twice, parents resolve) plus in-span `seq` monotonicity
/// (`seq` must strictly increase while any span is open; it may only
/// reset at an attempt boundary, where the stack is empty). Returns
/// counters on success.
pub fn audit_spans(events: &[TraceEvent]) -> Result<SpanAudit, AuditError> {
    let mut stack: Vec<u64> = Vec::new();
    let mut audit = SpanAudit::default();
    // `Some(prev_seq)` while inside a span run; cleared whenever the
    // stack empties so legal attempt-boundary seq resets pass.
    let mut prev_seq: Option<u64> = None;
    for e in events {
        if let Some(prev) = prev_seq {
            if !stack.is_empty() && e.seq <= prev {
                return Err(AuditError::NonMonotoneSeq { seq: e.seq, prev });
            }
        }
        match &e.kind {
            EventKind::SpanStart { id, .. } => {
                if e.parent != stack.last().copied().unwrap_or(0) {
                    return Err(AuditError::OrphanParent {
                        seq: e.seq,
                        parent: e.parent,
                        innermost: stack.last().copied(),
                    });
                }
                if stack.contains(id) {
                    return Err(AuditError::DuplicateOpenSpan {
                        seq: e.seq,
                        id: *id,
                    });
                }
                stack.push(*id);
                audit.opened += 1;
                audit.max_depth = audit.max_depth.max(stack.len());
            }
            EventKind::SpanEnd { id, .. } => {
                if stack.last() != Some(id) {
                    return Err(AuditError::MismatchedSpanEnd {
                        seq: e.seq,
                        id: *id,
                        innermost: stack.last().copied(),
                    });
                }
                stack.pop();
                audit.closed += 1;
                if e.parent != stack.last().copied().unwrap_or(0) {
                    return Err(AuditError::OrphanParent {
                        seq: e.seq,
                        parent: e.parent,
                        innermost: stack.last().copied(),
                    });
                }
            }
            _ => {
                if e.parent != stack.last().copied().unwrap_or(0) {
                    return Err(AuditError::OrphanParent {
                        seq: e.seq,
                        parent: e.parent,
                        innermost: stack.last().copied(),
                    });
                }
            }
        }
        prev_seq = if stack.is_empty() { None } else { Some(e.seq) };
    }
    audit.unclosed = stack.len();
    Ok(audit)
}

/// Check that `seq` runs 0, 1, 2, … with no gaps — the contract of a
/// merged stream (raw per-run streams reset at attempt boundaries and
/// should use [`audit_spans`] only).
pub fn audit_seq_gapless(events: &[TraceEvent]) -> Result<(), AuditError> {
    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 {
            return Err(AuditError::SeqGap {
                index: i,
                expected: i as u64,
                found: e.seq,
            });
        }
    }
    Ok(())
}

/// Token totals recomputed from the raw `FmCall` events. Oracles compare
/// this against the `TokenMeter` the model kept — the two are accounted
/// at the same funnel and must agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenTotals {
    /// Prompt tokens summed over every `FmCall` event.
    pub prompt: u64,
    /// Completion tokens summed over every `FmCall` event.
    pub completion: u64,
    /// Number of `FmCall` events (one per metered model invocation).
    pub calls: u64,
}

impl TokenTotals {
    /// Prompt + completion tokens.
    pub fn total(&self) -> u64 {
        self.prompt + self.completion
    }
}

/// Recompute [`TokenTotals`] from the raw `FmCall` events of a stream.
pub fn fm_token_totals(events: &[TraceEvent]) -> TokenTotals {
    let mut totals = TokenTotals::default();
    for e in events {
        if let EventKind::FmCall {
            prompt_tokens,
            completion_tokens,
            ..
        } = &e.kind
        {
            totals.prompt += prompt_tokens;
            totals.completion += completion_tokens;
            totals.calls += 1;
        }
    }
    totals
}

/// Iterator over chaos injections in the stream: `(step, fault name)` per
/// `FaultInjected` event, in order.
pub fn fault_injections(events: &[TraceEvent]) -> impl Iterator<Item = (u64, &str)> {
    events.iter().filter_map(|e| match &e.kind {
        EventKind::FaultInjected { step, fault } => Some((*step, fault.as_str())),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;
    use crate::recorder::TraceRecorder;

    fn recorded() -> Vec<TraceEvent> {
        let mut t = TraceRecorder::new();
        let run = t.open(SpanKind::Execute, "run");
        let step = t.open(SpanKind::Step, "1");
        t.event(EventKind::FmCall {
            purpose: "suggest".into(),
            prompt_tokens: 100,
            completion_tokens: 10,
        });
        t.event(EventKind::FaultInjected {
            step: 1,
            fault: "stale-frame".into(),
        });
        t.close(step);
        t.close(run);
        t.take_events()
    }

    #[test]
    fn recorder_streams_pass_the_audit() {
        let events = recorded();
        let audit = audit_spans(&events).expect("recorder output is well-formed");
        assert_eq!(audit.opened, 2);
        assert_eq!(audit.closed, 2);
        assert_eq!(audit.max_depth, 2);
        assert_eq!(audit.unclosed, 0);
        audit_seq_gapless(&events).expect("single stream is gapless");
    }

    #[test]
    fn attempt_concatenation_with_reused_ids_passes() {
        // Fleet workers concatenate one fresh recorder per attempt: span
        // ids restart at 1 and seq restarts at 0. Reuse after close is
        // legal; the seq check is a merged-stream-only contract.
        let mut both = recorded();
        both.extend(recorded());
        let audit = audit_spans(&both).expect("reuse after close is fine");
        assert_eq!(audit.opened, 4);
        assert!(audit_seq_gapless(&both).is_err());
    }

    #[test]
    fn mismatched_end_is_rejected() {
        let mut events = recorded();
        // Swap the two SpanEnds so the outer closes before the inner.
        let n = events.len();
        events.swap(n - 1, n - 2);
        assert!(matches!(
            audit_spans(&events),
            Err(AuditError::MismatchedSpanEnd { .. })
        ));
    }

    #[test]
    fn doubly_open_id_is_rejected() {
        let mut t = TraceRecorder::new();
        let _a = t.open(SpanKind::Execute, "run");
        let mut events = t.take_events();
        let mut dup = events[0].clone();
        dup.seq = 1;
        dup.parent = 1;
        events.push(dup);
        assert!(matches!(
            audit_spans(&events),
            Err(AuditError::DuplicateOpenSpan { seq: 1, id: 1 })
        ));
    }

    #[test]
    fn orphan_parent_is_rejected() {
        let mut events = recorded();
        events[2].parent = 99;
        assert!(matches!(
            audit_spans(&events),
            Err(AuditError::OrphanParent { parent: 99, .. })
        ));
    }

    #[test]
    fn unclosed_spans_are_counted_not_rejected() {
        let mut t = TraceRecorder::new();
        let _leak = t.open(SpanKind::Execute, "run");
        let audit = audit_spans(t.events()).unwrap();
        assert_eq!(audit.unclosed, 1);
    }

    #[test]
    fn token_totals_and_fault_iterator() {
        let events = recorded();
        let totals = fm_token_totals(&events);
        assert_eq!(
            totals,
            TokenTotals {
                prompt: 100,
                completion: 10,
                calls: 1
            }
        );
        assert_eq!(totals.total(), 110);
        let faults: Vec<_> = fault_injections(&events).collect();
        assert_eq!(faults, vec![(1, "stale-frame")]);
    }

    #[test]
    fn in_span_seq_regression_is_rejected() {
        // Duplicate seq inside an open span: reordering/doctoring, not an
        // attempt boundary.
        let mut events = recorded();
        events[2].seq = events[1].seq;
        assert_eq!(
            audit_spans(&events),
            Err(AuditError::NonMonotoneSeq {
                seq: events[1].seq,
                prev: events[1].seq
            })
        );
        // Out-of-order (decreasing) seq inside a span is equally rejected.
        let mut events = recorded();
        events[3].seq = 1;
        assert!(matches!(
            audit_spans(&events),
            Err(AuditError::NonMonotoneSeq { seq: 1, .. })
        ));
    }

    #[test]
    fn seq_gap_reports_position() {
        let mut events = recorded();
        events[3].seq = 7;
        assert_eq!(
            audit_seq_gapless(&events),
            Err(AuditError::SeqGap {
                index: 3,
                expected: 3,
                found: 7
            })
        );
    }
}
