//! Property tests for the trace recorder: sequence monotonicity, span
//! balance under arbitrary open/close interleavings, and rollup/export
//! invariants, among them that the export's length pass measures exactly
//! what it then writes.

use std::borrow::Cow;

use eclair_trace::{
    merged_jsonl, read_jsonl, EventKind, GroundingOutcome, RunSummary, SpanKind, TraceEvent,
    TraceRecorder,
};
use proptest::prelude::*;
use serde::{ByteCount, Serialize};

const KINDS: [SpanKind; 9] = [
    SpanKind::Demonstrate,
    SpanKind::Execute,
    SpanKind::Validate,
    SpanKind::Step,
    SpanKind::Observe,
    SpanKind::Suggest,
    SpanKind::Ground,
    SpanKind::Actuate,
    SpanKind::Recover,
];

/// Drive a recorder with a schedule of small opcodes: 0 = open span,
/// 1 = close most-recent open span, 2 = FM call, 3 = grounding attempt,
/// 4 = note, 5 = retry.
fn drive(ops: &[(u8, u8)]) -> TraceRecorder {
    let mut t = TraceRecorder::new();
    let mut open = Vec::new();
    for &(op, arg) in ops {
        match op % 6 {
            0 => open.push(t.open(KINDS[arg as usize % KINDS.len()], "s")),
            1 => {
                if let Some(id) = open.pop() {
                    t.close(id);
                }
            }
            2 => t.event(EventKind::FmCall {
                purpose: "p".into(),
                prompt_tokens: arg as u64 * 10,
                completion_tokens: arg as u64,
            }),
            3 => t.event(EventKind::GroundingAttempt {
                strategy: "YOLO".into(),
                outcome: if arg % 2 == 0 {
                    GroundingOutcome::Resolved
                } else {
                    GroundingOutcome::Unresolved
                },
            }),
            4 => t.note(format!("note {arg}")),
            _ => t.event(EventKind::Retry {
                what: format!("op {arg}"),
            }),
        }
    }
    t.close_all();
    t
}

/// Arbitrary text: mostly ASCII, so control characters, quotes and
/// backslashes are frequent, with arbitrary scalar values mixed in.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..4, 0u32..0x80, 0u32..0x11_0000), 0..40).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(pick, ascii, any)| {
                char::from_u32(if pick == 0 { any } else { ascii }).unwrap_or('\u{FFFD}')
            })
            .collect()
    })
}

/// A label field: a fixed literal half the time, run text otherwise.
fn label(fixed: bool, text: String) -> Cow<'static, str> {
    if fixed {
        Cow::Borrowed("next action")
    } else {
        Cow::Owned(text)
    }
}

/// Any of the 13 `EventKind` variants, picked by `variant`, with numbers
/// drawn across the whole `u64` range and arbitrary text.
fn event(variant: u8, (a, b, c): (u64, u64, u64), text: String, fixed: bool) -> TraceEvent {
    let kind = match variant % 13 {
        0 => EventKind::SpanStart {
            id: a,
            kind: KINDS[b as usize % KINDS.len()],
            label: label(fixed, text),
        },
        1 => EventKind::SpanEnd {
            id: a,
            kind: KINDS[c as usize % KINDS.len()],
        },
        2 => EventKind::FmCall {
            purpose: label(fixed, text),
            prompt_tokens: b,
            completion_tokens: c,
        },
        3 => EventKind::GroundingAttempt {
            strategy: label(fixed, text),
            outcome: if a % 2 == 0 {
                GroundingOutcome::Resolved
            } else {
                GroundingOutcome::Unresolved
            },
        },
        4 => EventKind::Retry { what: text },
        5 => EventKind::PopupEscape { url: text },
        6 => EventKind::FaultInjected {
            step: a,
            fault: text,
        },
        7 => EventKind::ValidatorVerdict {
            validator: label(fixed, text),
            passed: b % 2 == 0,
        },
        8 => EventKind::CompiledStep {
            step: a,
            selector: text,
        },
        9 => EventKind::DriftDetected {
            step: a,
            reason: text,
        },
        10 => EventKind::FallbackStep {
            step: a,
            query: text,
        },
        11 => EventKind::Recompiled {
            step: a,
            selector: text,
        },
        _ => EventKind::Note { text },
    };
    TraceEvent {
        seq: a,
        parent: b,
        vt: c,
        kind,
    }
}

/// Numbers from every digit count, 0 and `u64::MAX` included.
fn number() -> impl Strategy<Value = u64> {
    (0u32..21, 0u64..=u64::MAX).prop_map(|(digits, n)| match digits {
        0 => 0,
        20 => u64::MAX,
        d => n % 10u64.pow(d),
    })
}

proptest! {
    #[test]
    fn length_pass_equals_the_rendered_length(
        variant in 0u8..13,
        numbers in (number(), number(), number()),
        text in text(),
        fixed in 0u8..2,
    ) {
        let e = event(variant, numbers, text, fixed == 0);
        let rendered = serde_json::to_string(&e).unwrap();
        let mut len = ByteCount::default();
        e.write_json(&mut len);
        prop_assert_eq!(len.0, rendered.len(), "{}", rendered);
        // Parsed back, a borrowed label is owned and compares equal.
        prop_assert_eq!(read_jsonl(&rendered).unwrap(), vec![e]);
    }

    #[test]
    fn the_export_buffer_is_exactly_its_length(
        picks in proptest::collection::vec((0u8..13, number(), 0u8..2), 0..40),
        text in text(),
    ) {
        let events: Vec<TraceEvent> = picks
            .iter()
            .enumerate()
            .map(|(i, &(variant, n, fixed))| {
                let cut = text.char_indices().nth(i % 7).map_or(0, |(at, _)| at);
                event(variant, (i as u64, n, n / 3), text[cut..].to_string(), fixed == 0)
            })
            .collect();
        let out = merged_jsonl(&events).unwrap();
        prop_assert_eq!(out.capacity(), out.len());
        prop_assert_eq!(read_jsonl(&out).unwrap(), events);
    }

    #[test]
    fn seq_is_strictly_increasing(ops in proptest::collection::vec((0u8..6, 0u8..16), 1..60)) {
        let t = drive(&ops);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        for w in seqs.windows(2) {
            prop_assert!(w[1] > w[0], "seq must strictly increase: {w:?}");
        }
    }

    #[test]
    fn all_spans_close(ops in proptest::collection::vec((0u8..6, 0u8..16), 1..60)) {
        let t = drive(&ops);
        prop_assert_eq!(t.depth(), 0, "close_all leaves nothing open");
        let mut starts = 0i64;
        for e in t.events() {
            match e.kind {
                EventKind::SpanStart { .. } => starts += 1,
                EventKind::SpanEnd { .. } => starts -= 1,
                _ => {}
            }
            prop_assert!(starts >= 0, "a span ended before it started");
        }
        prop_assert_eq!(starts, 0, "every SpanStart has a matching SpanEnd");
    }

    #[test]
    fn jsonl_round_trips_and_summary_is_stable(ops in proptest::collection::vec((0u8..6, 0u8..16), 1..60)) {
        let t = drive(&ops);
        let back = read_jsonl(&t.to_jsonl()).expect("export parses");
        prop_assert_eq!(back.as_slice(), t.events());
        prop_assert_eq!(RunSummary::from_events(&back), t.summary());
    }

    #[test]
    fn rollup_counts_match_raw_events(ops in proptest::collection::vec((0u8..6, 0u8..16), 1..60)) {
        let t = drive(&ops);
        let s = t.summary();
        let raw_calls = t
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FmCall { .. }))
            .count() as u64;
        let raw_grounds = t
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GroundingAttempt { .. }))
            .count() as u64;
        prop_assert_eq!(s.fm_calls(), raw_calls);
        prop_assert_eq!(s.total().grounding_attempts, raw_grounds);
        prop_assert_eq!(s.fm_completion_hist.total(), raw_calls);
        prop_assert_eq!(s.events, t.events().len() as u64);
    }
}
