//! The flight tail: the most recent trace events — the "black box" to
//! read after a failed run without exporting the full trace.

use crate::event::{EventKind, TraceEvent};

/// Number of events the flight tail shows.
pub const FLIGHT_TAIL_LEN: usize = 64;

/// The last (at most) [`FLIGHT_TAIL_LEN`] events of a recorder, borrowed
/// from its own event list rather than kept as a second copy. It covers
/// only the events the recorder still holds: after
/// [`TraceRecorder::take_events`] or [`TraceRecorder::reset`] it starts
/// over from the next event.
///
/// [`TraceRecorder::take_events`]: crate::TraceRecorder::take_events
/// [`TraceRecorder::reset`]: crate::TraceRecorder::reset
#[derive(Debug, Clone, Copy)]
pub struct FlightTail<'a> {
    events: &'a [TraceEvent],
}

impl<'a> FlightTail<'a> {
    /// The tail of `events`.
    pub(crate) fn new(events: &'a [TraceEvent]) -> Self {
        let start = events.len().saturating_sub(FLIGHT_TAIL_LEN);
        FlightTail {
            events: &events[start..],
        }
    }

    /// The events in the tail, oldest first.
    pub fn events(&self) -> &'a [TraceEvent] {
        self.events
    }

    /// Human-readable dump of the tail, one line per event — what gets
    /// printed when a run fails.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in self.events {
            out.push_str(&format!(
                "#{:<5} span {:<4} {}\n",
                e.seq,
                e.parent,
                describe(&e.kind)
            ));
        }
        out
    }
}

fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::SpanStart { id, kind, label } => {
            format!("open {} [{}] {label}", kind.name(), id)
        }
        EventKind::SpanEnd { id, kind } => format!("close {} [{}]", kind.name(), id),
        EventKind::FmCall {
            purpose,
            prompt_tokens,
            completion_tokens,
        } => format!("fm-call {purpose} ({prompt_tokens}p+{completion_tokens}c tok)"),
        EventKind::GroundingAttempt { strategy, outcome } => {
            format!("ground via {strategy}: {outcome:?}")
        }
        EventKind::Retry { what } => format!("retry {what}"),
        EventKind::PopupEscape { url } => format!("popup escaped at {url}"),
        EventKind::FaultInjected { step, fault } => {
            format!("fault injected at step {step}: {fault}")
        }
        EventKind::ValidatorVerdict { validator, passed } => {
            format!(
                "verdict {validator}: {}",
                if *passed { "pass" } else { "fail" }
            )
        }
        EventKind::CompiledStep { step, selector } => {
            format!("compiled step {step} -> {selector}")
        }
        EventKind::DriftDetected { step, reason } => {
            format!("drift detected at step {step}: {reason}")
        }
        EventKind::FallbackStep { step, query } => {
            format!("fm fallback at step {step}: {query}")
        }
        EventKind::Recompiled { step, selector } => {
            format!("recompiled step {step} -> {selector}")
        }
        EventKind::Note { text } => format!("note: {text}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(seq: u64, text: &str) -> TraceEvent {
        TraceEvent {
            seq,
            parent: 0,
            vt: 0,
            kind: EventKind::Note { text: text.into() },
        }
    }

    #[test]
    fn tail_keeps_only_the_last_events() {
        let events: Vec<TraceEvent> = (0..70).map(|i| note(i, "x")).collect();
        let seqs: Vec<u64> = FlightTail::new(&events)
            .events()
            .iter()
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, (6..70).collect::<Vec<u64>>());
        assert!(FlightTail::new(&[]).events().is_empty());
    }

    #[test]
    fn dump_mentions_every_retained_event() {
        let events: Vec<TraceEvent> = (0..=FLIGHT_TAIL_LEN as u64)
            .map(|i| note(i, &format!("n{i}")))
            .collect();
        let d = FlightTail::new(&events).dump();
        assert_eq!(d.lines().count(), FLIGHT_TAIL_LEN);
        assert!(!d.lines().any(|l| l.ends_with("note: n0")));
        assert_eq!(d.lines().next(), Some("#1     span 0    note: n1"));
        assert_eq!(d.lines().last(), Some("#64    span 0    note: n64"));
    }
}
