//! Query, aggregate, and diff flight-record traces.
//!
//! This is the library behind the `eclair-analyze` binary: pure
//! functions from parsed event streams to filtered views, rollup
//! aggregates, and divergence reports. Everything renders
//! deterministically (sorted maps, no wall-clock), so two invocations
//! over byte-identical traces produce byte-identical output.

use std::collections::BTreeMap;

use eclair_trace::{EventKind, TraceEvent};

/// A filter over an event stream. All populated criteria must hold
/// (conjunction); `Default` matches everything.
#[derive(Debug, Clone, Default)]
pub struct TraceQuery {
    /// Keep events inside at least one span of this kind name (the
    /// event's ancestor chain is consulted, so `step` keeps everything
    /// nested under any step span, including the span boundaries).
    pub span_kind: Option<String>,
    /// Keep events of this kind (stable lower-case name: `fm_call`,
    /// `fault_injected`, `span_start`, `note`, …).
    pub event_kind: Option<String>,
    /// Keep events belonging to the `n`-th root span subtree (0-based;
    /// in a merged fleet trace, root subtree == run).
    pub run: Option<usize>,
    /// Keep events with `vt >= vt_min`.
    pub vt_min: Option<u64>,
    /// Keep events with `vt <= vt_max`.
    pub vt_max: Option<u64>,
    /// Keep at most this many events (after the other filters).
    pub limit: Option<usize>,
}

/// Stable lower-case name of an event kind (query vocabulary).
pub fn event_kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::SpanStart { .. } => "span_start",
        EventKind::SpanEnd { .. } => "span_end",
        EventKind::FmCall { .. } => "fm_call",
        EventKind::GroundingAttempt { .. } => "grounding_attempt",
        EventKind::Retry { .. } => "retry",
        EventKind::PopupEscape { .. } => "popup_escape",
        EventKind::FaultInjected { .. } => "fault_injected",
        EventKind::ValidatorVerdict { .. } => "validator_verdict",
        EventKind::CompiledStep { .. } => "compiled_step",
        EventKind::DriftDetected { .. } => "drift_detected",
        EventKind::FallbackStep { .. } => "fallback_step",
        EventKind::Recompiled { .. } => "recompiled",
        EventKind::Note { .. } => "note",
    }
}

impl TraceQuery {
    /// Apply the query, preserving stream order.
    pub fn filter<'a>(&self, events: &'a [TraceEvent]) -> Vec<&'a TraceEvent> {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut root_index: Option<usize> = None;
        let mut roots_seen = 0usize;
        let mut out = Vec::new();
        for e in events {
            // Track the open-span kind stack and which root subtree we
            // are in. Span boundaries count as inside their own span.
            if let EventKind::SpanStart { kind, .. } = &e.kind {
                if stack.is_empty() {
                    root_index = Some(roots_seen);
                    roots_seen += 1;
                }
                stack.push(kind.name());
            }
            let keep = self
                .span_kind
                .as_ref()
                .is_none_or(|k| stack.iter().any(|s| s == k))
                && self
                    .event_kind
                    .as_ref()
                    .is_none_or(|k| event_kind_name(&e.kind) == k)
                && self.run.is_none_or(|r| root_index == Some(r))
                && self.vt_min.is_none_or(|m| e.vt >= m)
                && self.vt_max.is_none_or(|m| e.vt <= m);
            if let EventKind::SpanEnd { .. } = &e.kind {
                stack.pop();
                if stack.is_empty() {
                    // The closing event itself still belongs to the
                    // subtree; reset after the keep decision.
                    if keep && self.limit.is_none_or(|l| out.len() < l) {
                        out.push(e);
                    }
                    root_index = None;
                    continue;
                }
            }
            if keep && self.limit.is_none_or(|l| out.len() < l) {
                out.push(e);
            }
        }
        out
    }
}

/// Rollup of one (possibly filtered) event view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Events in the view.
    pub events: u64,
    /// FM calls and their token totals.
    pub fm_calls: u64,
    /// Prompt tokens over the view's FM calls.
    pub prompt_tokens: u64,
    /// Completion tokens over the view's FM calls.
    pub completion_tokens: u64,
    /// Chaos faults, by fault name.
    pub faults: BTreeMap<String, u64>,
    /// Retry events.
    pub retries: u64,
    /// Popup escapes.
    pub popup_escapes: u64,
    /// Spans opened, by kind name.
    pub spans: BTreeMap<String, u64>,
    /// Largest `vt` stamp in the view (the virtual end time).
    pub vt_end_us: u64,
}

/// Aggregate a view produced by [`TraceQuery::filter`] (or a full
/// stream).
pub fn aggregate<'a, I>(events: I) -> Aggregate
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let mut a = Aggregate::default();
    for e in events {
        a.events += 1;
        a.vt_end_us = a.vt_end_us.max(e.vt);
        match &e.kind {
            EventKind::FmCall {
                prompt_tokens,
                completion_tokens,
                ..
            } => {
                a.fm_calls += 1;
                a.prompt_tokens += prompt_tokens;
                a.completion_tokens += completion_tokens;
            }
            EventKind::FaultInjected { fault, .. } => {
                *a.faults.entry(fault.clone()).or_insert(0) += 1;
            }
            EventKind::Retry { .. } => a.retries += 1,
            EventKind::PopupEscape { .. } => a.popup_escapes += 1,
            EventKind::SpanStart { kind, .. } => {
                *a.spans.entry(kind.name().to_string()).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    a
}

/// Render an aggregate as stable `key = value` lines.
pub fn render_aggregate(a: &Aggregate) -> String {
    let mut out = String::new();
    out.push_str(&format!("events = {}\n", a.events));
    out.push_str(&format!("vt_end_us = {}\n", a.vt_end_us));
    out.push_str(&format!(
        "fm_calls = {} (prompt {}, completion {})\n",
        a.fm_calls, a.prompt_tokens, a.completion_tokens
    ));
    out.push_str(&format!(
        "retries = {}, popup_escapes = {}\n",
        a.retries, a.popup_escapes
    ));
    for (kind, n) in &a.spans {
        out.push_str(&format!("spans.{kind} = {n}\n"));
    }
    for (fault, n) in &a.faults {
        out.push_str(&format!("faults.{fault} = {n}\n"));
    }
    out
}

/// One rendered event line: `seq`, `vt`, nesting depth, payload.
pub fn render_event(e: &TraceEvent, depth: usize) -> String {
    let payload = match &e.kind {
        EventKind::SpanStart { kind, label, .. } => format!("> {} «{}»", kind.name(), label),
        EventKind::SpanEnd { kind, .. } => format!("< {}", kind.name()),
        EventKind::FmCall {
            purpose,
            prompt_tokens,
            completion_tokens,
        } => format!("fm {purpose} ({prompt_tokens}p+{completion_tokens}c)"),
        EventKind::GroundingAttempt { strategy, outcome } => {
            format!("ground {strategy}: {outcome:?}")
        }
        EventKind::Retry { what } => format!("retry {what}"),
        EventKind::PopupEscape { url } => format!("popup-escape at {url}"),
        EventKind::FaultInjected { step, fault } => format!("fault {fault} @ step {step}"),
        EventKind::ValidatorVerdict { validator, passed } => {
            format!(
                "verdict {validator}: {}",
                if *passed { "pass" } else { "fail" }
            )
        }
        EventKind::CompiledStep { step, selector } => {
            format!("compiled step {step} -> {selector}")
        }
        EventKind::DriftDetected { step, reason } => format!("drift @ step {step}: {reason}"),
        EventKind::FallbackStep { step, query } => format!("fallback @ step {step}: {query}"),
        EventKind::Recompiled { step, selector } => {
            format!("recompiled step {step} -> {selector}")
        }
        EventKind::Note { text } => format!("note: {text}"),
    };
    format!(
        "{:>6} {:>12} {}{}",
        e.seq,
        e.vt,
        "  ".repeat(depth),
        payload
    )
}

/// Render a filtered view with indentation recovered from the *full*
/// stream's span structure (depths are looked up by `seq`).
pub fn render_view(full: &[TraceEvent], view: &[&TraceEvent]) -> String {
    // Precompute depth at each event of the full stream.
    let mut depths: BTreeMap<u64, usize> = BTreeMap::new();
    let mut depth = 0usize;
    for e in full {
        match &e.kind {
            EventKind::SpanStart { .. } => {
                depths.insert(e.seq, depth);
                depth += 1;
            }
            EventKind::SpanEnd { .. } => {
                depth = depth.saturating_sub(1);
                depths.insert(e.seq, depth);
            }
            _ => {
                depths.insert(e.seq, depth);
            }
        }
    }
    let mut out = String::new();
    for e in view {
        out.push_str(&render_event(e, depths.get(&e.seq).copied().unwrap_or(0)));
        out.push('\n');
    }
    out
}

/// Where two traces diverge, plus both sides' aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Events in each trace.
    pub len: (u64, u64),
    /// Seq of the first event where the streams differ (`None` when one
    /// is a prefix of the other or they are identical).
    pub first_divergence: Option<u64>,
    /// Side-by-side rollups.
    pub aggregates: (Aggregate, Aggregate),
}

impl TraceDiff {
    /// True when the streams are event-for-event identical.
    pub fn identical(&self) -> bool {
        self.first_divergence.is_none() && self.len.0 == self.len.1
    }
}

/// Compare two traces event-for-event.
pub fn diff_traces(a: &[TraceEvent], b: &[TraceEvent]) -> TraceDiff {
    let first_divergence = a
        .iter()
        .zip(b.iter())
        .find(|(x, y)| x != y)
        .map(|(x, _)| x.seq);
    TraceDiff {
        len: (a.len() as u64, b.len() as u64),
        first_divergence,
        aggregates: (aggregate(a), aggregate(b)),
    }
}

/// Render a diff: verdict line, then any aggregate fields that differ.
pub fn render_diff(d: &TraceDiff) -> String {
    let mut out = String::new();
    if d.identical() {
        out.push_str(&format!("identical: {} events\n", d.len.0));
        return out;
    }
    match d.first_divergence {
        Some(seq) => out.push_str(&format!(
            "diverge at seq {seq} ({} vs {} events)\n",
            d.len.0, d.len.1
        )),
        None => out.push_str(&format!(
            "prefix match, lengths differ ({} vs {} events)\n",
            d.len.0, d.len.1
        )),
    }
    let (a, b) = &d.aggregates;
    for (name, x, y) in [
        ("events", a.events, b.events),
        ("fm_calls", a.fm_calls, b.fm_calls),
        ("prompt_tokens", a.prompt_tokens, b.prompt_tokens),
        (
            "completion_tokens",
            a.completion_tokens,
            b.completion_tokens,
        ),
        ("retries", a.retries, b.retries),
        ("popup_escapes", a.popup_escapes, b.popup_escapes),
        ("vt_end_us", a.vt_end_us, b.vt_end_us),
    ] {
        if x != y {
            out.push_str(&format!("  {name}: {x} vs {y}\n"));
        }
    }
    let fault_keys: std::collections::BTreeSet<&String> =
        a.faults.keys().chain(b.faults.keys()).collect();
    for k in fault_keys {
        let (x, y) = (
            a.faults.get(k).copied().unwrap_or(0),
            b.faults.get(k).copied().unwrap_or(0),
        );
        if x != y {
            out.push_str(&format!("  faults.{k}: {x} vs {y}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_trace::{CostKind, SpanKind, TraceRecorder, VirtualClock};

    fn two_run_trace() -> Vec<TraceEvent> {
        let mut streams = Vec::new();
        for run in 0..2u64 {
            let mut t = TraceRecorder::new();
            t.set_clock(VirtualClock::new(3, run));
            let exec = t.open(SpanKind::Execute, format!("run {run}"));
            t.clock_begin_step(1);
            t.advance(CostKind::StepInit, 0);
            let step = t.open(SpanKind::Step, "step 1");
            t.event(EventKind::FmCall {
                purpose: "suggest".into(),
                prompt_tokens: 100,
                completion_tokens: 10,
            });
            if run == 1 {
                t.event(EventKind::FaultInjected {
                    step: 1,
                    fault: "stale-frame".into(),
                });
            }
            t.close(step);
            t.close(exec);
            streams.push(t.take_events());
        }
        eclair_trace::merge_event_streams(streams.iter().map(|s| s.as_slice())).unwrap()
    }

    #[test]
    fn query_filters_by_span_event_run_and_vt() {
        let events = two_run_trace();
        let q = TraceQuery {
            event_kind: Some("fm_call".into()),
            ..Default::default()
        };
        assert_eq!(q.filter(&events).len(), 2);

        let q = TraceQuery {
            run: Some(1),
            event_kind: Some("fault_injected".into()),
            ..Default::default()
        };
        assert_eq!(q.filter(&events).len(), 1);
        let q0 = TraceQuery {
            run: Some(0),
            event_kind: Some("fault_injected".into()),
            ..Default::default()
        };
        assert!(q0.filter(&events).is_empty());

        let q = TraceQuery {
            span_kind: Some("step".into()),
            ..Default::default()
        };
        let inside_step = q.filter(&events);
        assert!(inside_step.iter().all(
            |e| !matches!(e.kind, EventKind::SpanStart { kind, .. } if kind == SpanKind::Execute)
        ));
        assert!(!inside_step.is_empty());

        let q = TraceQuery {
            vt_min: Some(1),
            limit: Some(3),
            ..Default::default()
        };
        assert_eq!(q.filter(&events).len(), 3);
    }

    #[test]
    fn aggregate_rolls_up_tokens_faults_and_spans() {
        let events = two_run_trace();
        let a = aggregate(&events);
        assert_eq!(a.fm_calls, 2);
        assert_eq!(a.prompt_tokens, 200);
        assert_eq!(a.completion_tokens, 20);
        assert_eq!(a.faults.get("stale-frame"), Some(&1));
        assert_eq!(a.spans["execute"], 2);
        assert_eq!(a.spans["step"], 2);
        assert!(a.vt_end_us > 0);
        let rendered = render_aggregate(&a);
        assert!(rendered.contains("fm_calls = 2 (prompt 200, completion 20)"));
        assert!(rendered.contains("faults.stale-frame = 1"));
    }

    #[test]
    fn diff_reports_divergence_and_identity() {
        let a = two_run_trace();
        let b = two_run_trace();
        let d = diff_traces(&a, &b);
        assert!(d.identical());
        assert!(render_diff(&d).starts_with("identical"));

        let mut c = two_run_trace();
        let i = c
            .iter()
            .position(|e| matches!(e.kind, EventKind::FmCall { .. }))
            .unwrap();
        if let EventKind::FmCall { prompt_tokens, .. } = &mut c[i].kind {
            *prompt_tokens += 1;
        }
        let d = diff_traces(&a, &c);
        assert_eq!(d.first_divergence, Some(a[i].seq));
        let r = render_diff(&d);
        assert!(r.contains("diverge at seq"));
        assert!(r.contains("prompt_tokens: 200 vs 201"));
    }

    #[test]
    fn render_view_indents_by_span_depth() {
        let events = two_run_trace();
        let q = TraceQuery::default();
        let view = q.filter(&events);
        assert_eq!(view.len(), events.len(), "empty query keeps everything");
        let text = render_view(&events, &view);
        let fm_line = text
            .lines()
            .find(|l| l.contains("fm suggest"))
            .expect("fm call rendered");
        assert!(
            fm_line.contains("    fm suggest (100p+10c)"),
            "depth-2 indent: {fm_line:?}"
        );
    }
}
