//! Merging per-run traces into one fleet-level stream.
//!
//! A fleet executes many runs concurrently, each on its own
//! [`crate::TraceRecorder`]. Concurrency must never show up in the trace:
//! the merged stream is defined as the concatenation of the per-run
//! streams *in run-id order*, with sequence numbers and span ids
//! renumbered so the result is a single well-formed trace (globally
//! monotone `seq`, globally unique span ids). Because each per-run stream
//! is deterministic from its seed and the merge order is deterministic
//! from the run ids, the merged export is byte-identical whether the runs
//! executed on one worker or eight.
//!
//! Malformed input is an error, not a panic: every input stream is run
//! through [`crate::audit_spans`] before splicing, so a recorder bug (or
//! a hand-assembled stream) surfaces as a [`MergeError`] the caller can
//! report instead of a corrupted merged trace.

use crate::audit::{audit_spans, AuditError};
use crate::event::{EventKind, TraceEvent};

/// Why a merge (or a merged-stream serialization) was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Input stream `stream` (0-based position in the iterator) failed
    /// the structural audit.
    MalformedStream {
        /// Position of the offending stream.
        stream: usize,
        /// What the audit found.
        error: AuditError,
    },
    /// An event refused to serialize (carries `seq` and the serde
    /// message).
    Serialize {
        /// `seq` of the offending event.
        seq: u64,
        /// The serializer's error text.
        message: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::MalformedStream { stream, error } => {
                write!(f, "input stream {stream} is malformed: {error}")
            }
            MergeError::Serialize { seq, message } => {
                write!(f, "event seq {seq} failed to serialize: {message}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merge event streams (already ordered by run id by the caller) into one
/// well-formed stream. Sequence numbers are renumbered from 0; span ids
/// and parent references are offset so ids stay unique across runs. An
/// empty stream list merges to an empty stream; a structurally invalid
/// input stream is refused with [`MergeError::MalformedStream`].
pub fn merge_event_streams<'a, I>(streams: I) -> Result<Vec<TraceEvent>, MergeError>
where
    I: IntoIterator<Item = &'a [TraceEvent]>,
{
    // Collect once to size the output exactly: growth-reallocation would
    // move every already-spliced event (and its heap strings) each time
    // the vector doubled.
    let streams: Vec<&'a [TraceEvent]> = streams.into_iter().collect();
    let mut out = Vec::with_capacity(streams.iter().map(|s| s.len()).sum());
    let mut next_seq = 0u64;
    let mut span_base = 0u64;
    for (stream, events) in streams.into_iter().enumerate() {
        audit_spans(events).map_err(|error| MergeError::MalformedStream { stream, error })?;
        let mut max_span = span_base;
        for e in events {
            let mut e = e.clone();
            e.seq = next_seq;
            next_seq += 1;
            if e.parent != 0 {
                e.parent += span_base;
            }
            match &mut e.kind {
                EventKind::SpanStart { id, .. } | EventKind::SpanEnd { id, .. } => {
                    *id += span_base;
                    max_span = max_span.max(*id);
                }
                _ => {}
            }
            out.push(e);
        }
        span_base = max_span;
    }
    Ok(out)
}

/// Serialize a merged stream as JSON Lines (same format as
/// [`crate::TraceRecorder::to_jsonl`]): one pre-sized output buffer, no
/// per-event allocation.
pub fn merged_jsonl(events: &[TraceEvent]) -> Result<String, MergeError> {
    crate::recorder::events_to_jsonl(events)
        .map_err(|(seq, message)| MergeError::Serialize { seq, message })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;
    use crate::recorder::TraceRecorder;
    use crate::summary::RunSummary;

    fn one_run(notes: &[&str]) -> Vec<TraceEvent> {
        let mut t = TraceRecorder::new();
        let s = t.open(SpanKind::Execute, "run");
        for n in notes {
            t.note(*n);
        }
        t.event(EventKind::FmCall {
            purpose: "suggest".into(),
            prompt_tokens: 10,
            completion_tokens: 2,
        });
        t.close(s);
        t.take_events()
    }

    #[test]
    fn merged_stream_is_monotone_with_unique_span_ids() {
        let a = one_run(&["a1", "a2"]);
        let b = one_run(&["b1"]);
        let merged = merge_event_streams([a.as_slice(), b.as_slice()]).unwrap();
        assert_eq!(merged.len(), a.len() + b.len());
        let seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        let starts: Vec<u64> = merged
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanStart { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        let mut dedup = starts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(starts.len(), dedup.len(), "span ids must stay unique");
    }

    #[test]
    fn rollup_of_merge_equals_sum_of_rollups() {
        let a = one_run(&["x"]);
        let b = one_run(&["y", "z"]);
        let merged = merge_event_streams([a.as_slice(), b.as_slice()]).unwrap();
        let mut summed = RunSummary::from_events(&a);
        summed.merge(&RunSummary::from_events(&b));
        assert_eq!(RunSummary::from_events(&merged), summed);
    }

    #[test]
    fn merge_order_determines_bytes() {
        let a = one_run(&["x"]);
        let b = one_run(&["y"]);
        let merge = |s: [&[TraceEvent]; 2]| merged_jsonl(&merge_event_streams(s).unwrap()).unwrap();
        let ab = merge([a.as_slice(), b.as_slice()]);
        let ab2 = merge([a.as_slice(), b.as_slice()]);
        let ba = merge([b.as_slice(), a.as_slice()]);
        assert_eq!(ab, ab2);
        assert_ne!(ab, ba, "order is part of the contract");
    }

    #[test]
    fn merged_jsonl_round_trips() {
        let a = one_run(&["only"]);
        let merged = merge_event_streams([a.as_slice()]).unwrap();
        let text = merged_jsonl(&merged).unwrap();
        assert_eq!(crate::recorder::read_jsonl(&text).unwrap(), merged);
    }

    #[test]
    fn empty_stream_list_merges_to_empty() {
        let merged = merge_event_streams(std::iter::empty::<&[TraceEvent]>()).unwrap();
        assert!(merged.is_empty());
        assert_eq!(merged_jsonl(&merged).unwrap(), "");
        // A list of present-but-empty streams is equally fine.
        let merged = merge_event_streams([[].as_slice(), [].as_slice()]).unwrap();
        assert!(merged.is_empty());
    }

    #[test]
    fn malformed_stream_is_refused_with_its_position() {
        let good = one_run(&["ok"]);
        let mut bad = one_run(&["broken"]);
        bad.remove(0); // drop the SpanStart: the SpanEnd now dangles
        let err = merge_event_streams([good.as_slice(), bad.as_slice()]).unwrap_err();
        match err {
            MergeError::MalformedStream { stream, .. } => assert_eq!(stream, 1),
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_seq_inside_a_span_is_refused() {
        let mut bad = one_run(&["a", "b"]);
        let dup = bad[1].seq;
        bad[2].seq = dup; // two events sharing a seq while Execute is open
        let err = merge_event_streams([bad.as_slice()]).unwrap_err();
        assert_eq!(
            err,
            MergeError::MalformedStream {
                stream: 0,
                error: AuditError::NonMonotoneSeq {
                    seq: dup,
                    prev: dup
                },
            }
        );
    }

    #[test]
    fn unsorted_stream_is_refused() {
        let mut bad = one_run(&["a", "b"]);
        bad[2].seq = 0; // regression: seq jumps backwards mid-span
        let err = merge_event_streams([bad.as_slice()]).unwrap_err();
        assert_eq!(
            err,
            MergeError::MalformedStream {
                stream: 0,
                error: AuditError::NonMonotoneSeq { seq: 0, prev: 1 },
            }
        );
    }

    #[test]
    fn orphan_span_close_is_refused() {
        let mut bad = one_run(&["a"]);
        let next_seq = bad.last().unwrap().seq + 1;
        bad.push(TraceEvent {
            seq: next_seq,
            parent: 0,
            vt: 0,
            kind: EventKind::SpanEnd {
                id: 999,
                kind: SpanKind::Execute,
            },
        });
        let err = merge_event_streams([bad.as_slice()]).unwrap_err();
        assert_eq!(
            err,
            MergeError::MalformedStream {
                stream: 0,
                error: AuditError::MismatchedSpanEnd {
                    seq: next_seq,
                    id: 999,
                    innermost: None,
                },
            }
        );
    }
}
