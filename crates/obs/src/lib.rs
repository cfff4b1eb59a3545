//! # eclair-obs
//!
//! Virtual-clock telemetry for the ECLAIR reproduction (Wornow et al.,
//! *Automating the Enterprise with Foundation Models*, VLDB 2024).
//!
//! The repo's determinism contract quarantines wall-clock time from
//! every serialized artifact — which historically meant latency could
//! only be reported in abstract "steps". This crate closes the loop on
//! the virtual clock introduced in `eclair_trace::vclock`: every trace
//! event now carries a simulated-time stamp, and this crate turns those
//! stamps into reviewable telemetry:
//!
//! * [`MetricsRegistry`] — counters, gauges, and fixed-boundary
//!   histograms with a byte-stable JSON snapshot (`eclair-obs/v1`) that
//!   CI byte-diffs between runs and gates against committed baselines
//!   via [`baseline_check`];
//! * [`profile_spans`] — rebuilds the span tree from a flight record and
//!   attributes inclusive/exclusive virtual time per span kind and call
//!   path, rendered by [`render_flamegraph`] as a deterministic text
//!   flamegraph (the additivity invariant `Σ exclusive == Σ root
//!   inclusive` is what `eclair-crucible`'s `vt-additive` oracle pins);
//! * [`TraceQuery`] / [`aggregate`] / [`diff_traces`] — the query layer
//!   behind the `eclair-analyze` binary: filter JSONL flight records by
//!   span kind, event kind, run, or virtual-time range; roll up tokens,
//!   faults, and retries; and locate the first divergence between two
//!   traces.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod analyze;
mod metrics;
mod profile;

pub use analyze::{
    aggregate, diff_traces, event_kind_name, render_aggregate, render_diff, render_event,
    render_view, Aggregate, TraceDiff, TraceQuery,
};
pub use metrics::{
    baseline_check, parse_snapshot, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot,
    SNAPSHOT_SCHEMA, VT_LATENCY_BOUNDS_US,
};
pub use profile::{
    profile_spans, render_flamegraph, span_inclusive_durations, SpanProfile, SpanStat,
};
