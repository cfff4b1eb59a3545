//! The recorder: spans open/close, events append with monotonically
//! increasing sequence numbers, and the whole run exports as JSONL.

use crate::event::{EventKind, SpanKind, TraceEvent};
use crate::flight::FlightTail;
use crate::summary::RunSummary;
use crate::vclock::{CostKind, VirtualClock};

/// Handle returned by [`TraceRecorder::open`]; pass it back to
/// [`TraceRecorder::close`]. Deliberately not `Copy` so a span is hard
/// to close twice by accident.
#[derive(Debug, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The raw span id (matches `SpanStart { id }` in the event stream).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Collects the trace of one run. No wall-clock is read anywhere:
/// ordering comes from sequence numbers, so the same seed produces a
/// byte-identical export.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
    next_seq: u64,
    next_span: u64,
    stack: Vec<(u64, SpanKind)>,
    /// Simulated time for this run; every pushed event is stamped with
    /// its current reading.
    clock: VirtualClock,
}

impl TraceRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span; events emitted until the matching [`close`] are
    /// attributed to it.
    ///
    /// [`close`]: TraceRecorder::close
    pub fn open(&mut self, kind: SpanKind, label: &str) -> SpanId {
        self.next_span += 1;
        let id = self.next_span;
        self.push(EventKind::SpanStart {
            id,
            kind,
            label: label.to_string(),
        });
        self.stack.push((id, kind));
        SpanId(id)
    }

    /// Close a span. Any spans opened inside it and not yet closed are
    /// closed too (exception-safety for early returns).
    pub fn close(&mut self, id: SpanId) {
        while let Some(&(top, kind)) = self.stack.last() {
            self.stack.pop();
            self.push(EventKind::SpanEnd { id: top, kind });
            if top == id.0 {
                break;
            }
        }
    }

    /// Close every span still open (end-of-run cleanup).
    pub fn close_all(&mut self) {
        while let Some(&(top, kind)) = self.stack.last() {
            self.stack.pop();
            self.push(EventKind::SpanEnd { id: top, kind });
        }
    }

    /// Emit one typed event inside the current span.
    pub fn event(&mut self, kind: EventKind) {
        self.push(kind);
    }

    /// Emit free-text narration (renders verbatim into [`log`]).
    ///
    /// [`log`]: TraceRecorder::log
    pub fn note(&mut self, text: impl Into<String>) {
        self.push(EventKind::Note { text: text.into() });
    }

    fn push(&mut self, kind: EventKind) {
        let ev = TraceEvent {
            seq: self.next_seq,
            parent: self.stack.last().map_or(0, |&(id, _)| id),
            vt: self.clock.now_us(),
            kind,
        };
        self.next_seq += 1;
        self.events.push(ev);
    }

    /// Every event recorded so far, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The virtual clock stamping this recorder's events.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Replace the clock (fleet workers install one seeded from
    /// `(run seed, run_id)` before an attempt records anything).
    pub fn set_clock(&mut self, clock: VirtualClock) {
        self.clock = clock;
    }

    /// Advance simulated time by one `kind` operation of `weight` units;
    /// returns the microseconds added. See [`CostKind`] for the bands.
    pub fn advance(&mut self, kind: CostKind, weight: u64) -> u64 {
        self.clock.advance(kind, weight)
    }

    /// Enter executor step `step` on the clock (resets the per-step draw
    /// counter — see the purity contract on [`VirtualClock::begin_step`]).
    pub fn clock_begin_step(&mut self, step: u64) {
        self.clock.begin_step(step);
    }

    /// How many spans are currently open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Roll the trace up into counters.
    pub fn summary(&self) -> RunSummary {
        RunSummary::from_events(&self.events)
    }

    /// The legacy narration log: every `Note` event's text, in order.
    pub fn log(&self) -> Vec<String> {
        render_log(&self.events)
    }

    /// The last [`FLIGHT_TAIL_LEN`](crate::FLIGHT_TAIL_LEN) events the
    /// recorder still holds (read after failures).
    pub fn flight(&self) -> FlightTail<'_> {
        FlightTail::new(&self.events)
    }

    /// Serialize the whole trace as JSON Lines (one event per line).
    /// Events are written straight into one pre-sized output buffer, so
    /// the export allocates nothing per event: only that buffer and its
    /// growth (see `perf` counters and `tests/export_allocs.rs`).
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.events).expect("trace events serialize")
    }

    /// Move the events out, resetting the recorder for the next run.
    /// Sequence numbers and span ids keep counting up so merged streams
    /// stay globally ordered.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.stack.clear();
        std::mem::take(&mut self.events)
    }

    /// Drop everything and start the numbering over. The clock restarts
    /// at virtual time zero but keeps its `(seed, run_id)` identity.
    pub fn reset(&mut self) {
        let clock = VirtualClock::new(self.clock.seed(), self.clock.run_id());
        *self = TraceRecorder::default();
        self.clock = clock;
    }
}

/// Render the narration log from an event stream: each `Note` verbatim.
/// A counting pass sizes the output vector exactly, so the only
/// allocations are the returned lines themselves (no growth-reallocation
/// shuffling every `String` already pushed).
pub fn render_log(events: &[TraceEvent]) -> Vec<String> {
    let notes = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Note { .. }))
        .count();
    let mut out = Vec::with_capacity(notes);
    for e in events {
        if let EventKind::Note { text } = &e.kind {
            out.push(text.clone());
        }
    }
    crate::perf::record(|c| {
        c.log_events_rendered += notes as u64;
        c.log_allocations += 1 + notes as u64; // the vec + one String per line
    });
    out
}

/// Serialize an event stream as JSON Lines into one pre-sized buffer.
/// Each event's `Serialize` impl appends its JSON text to the buffer
/// directly (`serde_json::to_string_into`), with no intermediate value
/// tree, so the only allocations are the buffer and its growth. Errors
/// carry the failing event's `seq`.
pub(crate) fn events_to_jsonl(events: &[TraceEvent]) -> Result<String, (u64, String)> {
    let mut buf = String::with_capacity(events.len() * 96);
    for e in events {
        serde_json::to_string_into(e, &mut buf).map_err(|err| (e.seq, err.to_string()))?;
        buf.push('\n');
    }
    crate::perf::record(|c| {
        c.jsonl_events_rendered += events.len() as u64;
        c.jsonl_allocations += 1; // the single output buffer
    });
    Ok(buf)
}

/// Longest offending-payload excerpt quoted in a parse error. Enough to
/// identify the line, short enough that a megabyte of binary garbage on
/// one line cannot balloon the error message.
const READ_ERR_PAYLOAD_MAX: usize = 120;

/// Parse a JSONL trace back into events (inverse of
/// [`TraceRecorder::to_jsonl`]). A malformed line fails with its 1-based
/// line number and the offending payload, so a truncated download or a
/// log line interleaved into the file is diagnosable from the error
/// alone.
pub fn read_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line) {
            Ok(ev) => out.push(ev),
            Err(e) => {
                let mut payload = line;
                if payload.len() > READ_ERR_PAYLOAD_MAX {
                    // Cut on a char boundary so the excerpt stays valid UTF-8.
                    let mut end = READ_ERR_PAYLOAD_MAX;
                    while !payload.is_char_boundary(end) {
                        end -= 1;
                    }
                    payload = &payload[..end];
                }
                return Err(format!("bad trace line {}: {e}: {payload}", i + 1));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_is_strictly_increasing_and_spans_nest() {
        let mut t = TraceRecorder::new();
        let outer = t.open(SpanKind::Execute, "run");
        t.note("hello");
        let inner = t.open(SpanKind::Step, "1");
        t.note("inside");
        t.close(inner);
        t.close(outer);
        assert_eq!(t.depth(), 0);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        // "inside" is attributed to the step span, "hello" to the run.
        let parents: Vec<u64> = t
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Note { .. }))
            .map(|e| e.parent)
            .collect();
        assert_eq!(parents, vec![1, 2]);
    }

    #[test]
    fn close_unwinds_forgotten_children() {
        let mut t = TraceRecorder::new();
        let outer = t.open(SpanKind::Execute, "run");
        let _leaked = t.open(SpanKind::Step, "1");
        t.close(outer);
        assert_eq!(t.depth(), 0);
        let ends = t
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd { .. }))
            .count();
        assert_eq!(
            ends, 2,
            "closing the outer span also closed the leaked child"
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let mut t = TraceRecorder::new();
        let s = t.open(SpanKind::Validate, "completion");
        t.event(EventKind::ValidatorVerdict {
            validator: "completion".into(),
            passed: true,
        });
        t.event(EventKind::FmCall {
            purpose: "judge".into(),
            prompt_tokens: 42,
            completion_tokens: 7,
        });
        t.close(s);
        let text = t.to_jsonl();
        let back = read_jsonl(&text).expect("parses");
        assert_eq!(back, t.events());
    }

    #[test]
    fn log_renders_notes_in_order() {
        let mut t = TraceRecorder::new();
        t.note("one");
        t.event(EventKind::Retry {
            what: "click".into(),
        });
        t.note("two");
        assert_eq!(t.log(), vec!["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn read_jsonl_reports_line_number_of_truncated_input() {
        let mut t = TraceRecorder::new();
        t.note("one");
        t.note("two");
        t.note("three");
        let text = t.to_jsonl();
        // Chop the export mid-way through the last line, as a torn
        // download or a crashed writer would.
        let truncated = &text[..text.len() - 8];
        let err = read_jsonl(truncated).unwrap_err();
        assert!(err.starts_with("bad trace line 3:"), "{err}");
        assert!(err.contains("three") || err.contains("{"), "{err}");
    }

    #[test]
    fn read_jsonl_reports_interleaved_garbage_with_payload() {
        let mut t = TraceRecorder::new();
        t.note("ok");
        t.note("also ok");
        let mut lines: Vec<&str> = Vec::new();
        let text = t.to_jsonl();
        let mut it = text.lines();
        lines.push(it.next().unwrap());
        lines.push("WARN renderer: frame dropped"); // a stray log line
        lines.push(it.next().unwrap());
        let err = read_jsonl(&lines.join("\n")).unwrap_err();
        assert!(err.starts_with("bad trace line 2:"), "{err}");
        assert!(err.contains("WARN renderer: frame dropped"), "{err}");
        // Blank lines are skipped but still counted for line numbers.
        let err = read_jsonl("\n\nnot-json\n").unwrap_err();
        assert!(err.starts_with("bad trace line 3:"), "{err}");
    }

    #[test]
    fn read_jsonl_rejects_a_broken_surrogate_pair_with_its_line() {
        let mut t = TraceRecorder::new();
        t.note("ok");
        let good = t.to_jsonl();
        // A high surrogate whose partner is not a low one: an error naming
        // the line, never an overflow panic or a wrong character.
        for bad in [r"\ud800\u0041", r"\ud800\ud800", r"\ud800\uffff"] {
            let line =
                format!(r#"{{"seq":1,"parent":0,"vt":0,"kind":{{"Note":{{"text":"{bad}"}}}}}}"#);
            let err = read_jsonl(&format!("{good}{line}\n")).unwrap_err();
            assert!(err.starts_with("bad trace line 2:"), "{err}");
            assert!(err.contains("not a low surrogate"), "{err}");
        }
        let pair = r#"{"seq":1,"parent":0,"vt":0,"kind":{"Note":{"text":"\ud83d\ude00"}}}"#;
        let back = read_jsonl(&format!("{good}{pair}")).unwrap();
        assert_eq!(
            back[1].kind,
            EventKind::Note {
                text: "\u{1F600}".into()
            }
        );
    }

    #[test]
    fn read_jsonl_truncates_huge_offending_payloads() {
        let garbage = format!("x{}", "y".repeat(4096));
        let err = read_jsonl(&garbage).unwrap_err();
        assert!(err.len() < 400, "payload must be excerpted: {}", err.len());
        assert!(err.starts_with("bad trace line 1:"), "{err}");
    }

    #[test]
    fn events_are_stamped_with_virtual_time() {
        use crate::vclock::CostKind;
        let mut t = TraceRecorder::new();
        t.note("at zero");
        let d = t.advance(CostKind::Actuate, 1);
        t.note("after work");
        assert_eq!(t.events()[0].vt, 0);
        assert_eq!(t.events()[1].vt, d);
        assert_eq!(t.clock().now_us(), d);
        // vt round-trips through JSONL, and pre-vt traces parse as vt=0.
        let back = read_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back, t.events());
        let legacy = r#"{"seq":0,"parent":0,"kind":{"Note":{"text":"old"}}}"#;
        assert_eq!(read_jsonl(legacy).unwrap()[0].vt, 0);
    }

    #[test]
    fn flight_tail_covers_only_held_events() {
        let mut t = TraceRecorder::new();
        for i in 0..70 {
            t.note(format!("n{i}"));
        }
        let tail = t.flight();
        assert_eq!(tail.events().len(), crate::FLIGHT_TAIL_LEN);
        assert_eq!(tail.events()[0].seq, 6);
        assert_eq!(tail.events(), &t.events()[6..]);
        t.take_events();
        assert!(t.flight().events().is_empty());
        t.note("after");
        assert_eq!(t.flight().events().len(), 1);
    }

    #[test]
    fn take_events_keeps_numbering_monotone() {
        let mut t = TraceRecorder::new();
        t.note("a");
        let first = t.take_events();
        t.note("b");
        assert_eq!(first[0].seq, 0);
        assert_eq!(t.events()[0].seq, 1, "seq continues across takes");
    }
}
