//! The deterministic metrics registry: counters, gauges, and
//! fixed-boundary histograms with a byte-stable snapshot format.
//!
//! Everything here is ordinary data — no wall-clock, no atomics, no
//! global state. A run (or a bench harness) builds a registry, records
//! into it, and serializes a snapshot; because every map is a `BTreeMap`
//! and every histogram's boundaries are fixed at registration, the same
//! inputs always produce the same bytes, which is what lets CI byte-diff
//! two snapshots and gate on a committed baseline.
//!
//! The thread-local cache counters in [`eclair_trace::perf`] fold in
//! through [`MetricsRegistry::absorb_perf`], so one snapshot carries the
//! whole observability surface: virtual-time latency, token totals, span
//! counts, and cache effectiveness.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Current snapshot schema tag. Bump when the JSON shape changes so
/// `baseline check` can refuse cross-schema comparisons outright.
pub const SNAPSHOT_SCHEMA: &str = "eclair-obs/v1";

/// A fixed-boundary histogram. `bounds[i]` is the *inclusive* upper edge
/// of bucket `i`; one implicit overflow bucket catches everything above
/// the last bound. Percentiles are nearest-rank over bucket upper edges
/// (the overflow bucket reports the observed maximum), which keeps them
/// deterministic and merge-stable without storing raw samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (overflow
    /// bucket last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Nearest-rank percentile (`p` in 1..=100) over bucket upper edges;
    /// 0 when empty. An answer in the overflow bucket reports `max`.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p * self.count).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram in. The bounds must match exactly — merged
    /// fleet-wide rollups only make sense over identical bucketings.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Default bucket boundaries for virtual-time latencies in microseconds:
/// 1 ms … 100 s in a coarse geometric ladder.
pub const VT_LATENCY_BOUNDS_US: [u64; 14] = [
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    100_000_000,
];

/// The registry: named counters, gauges, and histograms for one run (or
/// one aggregated artifact). All maps are ordered, so serialization is
/// byte-stable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time values.
    pub gauges: BTreeMap<String, i64>,
    /// Distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `name` (registering it at 0 first).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record into histogram `name`, registering it over `bounds` on
    /// first use. Later calls ignore `bounds` (the first registration
    /// fixes the bucketing for the registry's lifetime).
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .record(value);
    }

    /// Fold another registry in: counters add, gauges take the other's
    /// value (last write wins), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Absorb a [`eclair_trace::perf`] snapshot as `cache.*` counters —
    /// the one place the caching layer's effectiveness meets the rest of
    /// the telemetry (it must never enter the trace itself; see the
    /// transparency invariant in `eclair_trace::perf`).
    pub fn absorb_perf(&mut self, c: &eclair_trace::perf::PerfCounters) {
        self.inc("cache.frame_hits", c.frame_cache_hits);
        self.inc("cache.frame_misses", c.frame_cache_misses);
        self.inc("cache.frame_invalidations", c.frame_cache_invalidations);
        self.inc("cache.relayouts_full", c.relayouts_full);
        self.inc("gui.intern_hits", c.intern_hits);
        self.inc("gui.intern_misses", c.intern_misses);
        // Table size is a high-water gauge, not a counter: merged
        // snapshots take the max, and absorb keeps that semantic.
        let size = c.intern_table_size as i64;
        let cur = self
            .gauges
            .get("gui.intern_table_size")
            .copied()
            .unwrap_or(0);
        self.set_gauge("gui.intern_table_size", cur.max(size));
        self.inc("render.log_events", c.log_events_rendered);
        self.inc("render.log_allocations", c.log_allocations);
        self.inc("render.jsonl_events", c.jsonl_events_rendered);
        self.inc("render.jsonl_allocations", c.jsonl_allocations);
    }

    /// The byte-stable snapshot: schema tag first, then the registry,
    /// then derived percentiles per histogram (so a snapshot is readable
    /// without recomputing anything).
    pub fn snapshot_json(&self) -> String {
        let snap = Snapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                            p50: h.percentile(50),
                            p95: h.percentile(95),
                            p99: h.percentile(99),
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                        },
                    )
                })
                .collect(),
        };
        serde_json::to_string(&snap).expect("metrics snapshot serializes")
    }
}

/// The serialized snapshot shape (what `--metrics-out` writes and
/// `baseline check` reads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Always [`SNAPSHOT_SCHEMA`].
    pub schema: String,
    /// Counters, name-sorted.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, name-sorted.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms with precomputed percentiles, name-sorted.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// One histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (overflow last).
    pub counts: Vec<u64>,
}

/// Parse a snapshot produced by [`MetricsRegistry::snapshot_json`],
/// refusing other schemas.
pub fn parse_snapshot(json: &str) -> Result<Snapshot, String> {
    let snap: Snapshot =
        serde_json::from_str(json).map_err(|e| format!("unparseable snapshot: {e}"))?;
    if snap.schema != SNAPSHOT_SCHEMA {
        return Err(format!(
            "snapshot schema {:?} (this binary reads {SNAPSHOT_SCHEMA:?})",
            snap.schema
        ));
    }
    Ok(snap)
}

/// Compare a current snapshot against a committed baseline. Scalar
/// metrics (counters, gauges, histogram counts/sums/percentiles) must
/// agree within `tol_pct` percent relative tolerance; missing or extra
/// metric names are always violations. Returns every violation found,
/// empty = pass.
pub fn baseline_check(current: &Snapshot, baseline: &Snapshot, tol_pct: f64) -> Vec<String> {
    let mut violations = Vec::new();
    fn check_scalar(violations: &mut Vec<String>, tol_pct: f64, name: &str, cur: f64, base: f64) {
        let scale = cur.abs().max(base.abs());
        if scale != 0.0 && (cur - base).abs() > scale * tol_pct / 100.0 {
            violations.push(format!("{name}: current {cur} vs baseline {base}"));
        }
    }
    compare_keys(
        "counter",
        &current.counters,
        &baseline.counters,
        &mut violations,
    );
    for (k, cur) in &current.counters {
        if let Some(base) = baseline.counters.get(k) {
            check_scalar(
                &mut violations,
                tol_pct,
                &format!("counter {k}"),
                *cur as f64,
                *base as f64,
            );
        }
    }
    compare_keys("gauge", &current.gauges, &baseline.gauges, &mut violations);
    for (k, cur) in &current.gauges {
        if let Some(base) = baseline.gauges.get(k) {
            check_scalar(
                &mut violations,
                tol_pct,
                &format!("gauge {k}"),
                *cur as f64,
                *base as f64,
            );
        }
    }
    compare_keys(
        "histogram",
        &current.histograms,
        &baseline.histograms,
        &mut violations,
    );
    for (k, cur) in &current.histograms {
        let Some(base) = baseline.histograms.get(k) else {
            continue;
        };
        if cur.bounds != base.bounds {
            violations.push(format!("histogram {k}: bucket bounds changed"));
            continue;
        }
        for (field, c, b) in [
            ("count", cur.count, base.count),
            ("sum", cur.sum, base.sum),
            ("p50", cur.p50, base.p50),
            ("p95", cur.p95, base.p95),
            ("p99", cur.p99, base.p99),
            ("max", cur.max, base.max),
        ] {
            check_scalar(
                &mut violations,
                tol_pct,
                &format!("histogram {k}.{field}"),
                c as f64,
                b as f64,
            );
        }
    }
    violations
}

fn compare_keys<V>(
    what: &str,
    current: &BTreeMap<String, V>,
    baseline: &BTreeMap<String, V>,
    violations: &mut Vec<String>,
) {
    for k in baseline.keys() {
        if !current.contains_key(k) {
            violations.push(format!("{what} {k}: present in baseline, missing now"));
        }
    }
    for k in current.keys() {
        if !baseline.contains_key(k) {
            violations.push(format!("{what} {k}: new metric absent from baseline"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_nearest_rank_over_edges() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 7, 50, 60, 70, 500, 5000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.counts, vec![2, 3, 1, 1]);
        assert_eq!(h.percentile(50), 100); // rank 4 lands in (10,100]
        assert_eq!(h.percentile(95), 5000); // overflow bucket → max
        assert_eq!(h.max, 5000);
        assert_eq!(Histogram::new(&[1]).percentile(99), 0);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(50);
        let mut b = Histogram::new(&[10, 100]);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 555);
        assert_eq!(a.max, 500);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_refuses_different_bounds() {
        let mut a = Histogram::new(&[10]);
        a.merge(&Histogram::new(&[20]));
    }

    #[test]
    fn snapshot_bytes_are_stable_and_round_trip() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.inc("runs.total", 3);
            r.inc("faults.injected", 1);
            r.set_gauge("workers", 4);
            r.observe("latency", &VT_LATENCY_BOUNDS_US, 42_000);
            r.observe("latency", &VT_LATENCY_BOUNDS_US, 2_000_000);
            r.snapshot_json()
        };
        let a = build();
        assert_eq!(a, build(), "snapshots are byte-stable");
        let snap = parse_snapshot(&a).unwrap();
        assert_eq!(snap.counters["runs.total"], 3);
        assert_eq!(snap.histograms["latency"].count, 2);
    }

    #[test]
    fn parse_rejects_other_schemas() {
        let mut r = MetricsRegistry::new();
        r.inc("x", 1);
        let bad = r.snapshot_json().replace(SNAPSHOT_SCHEMA, "eclair-obs/v0");
        assert!(parse_snapshot(&bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn registry_merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.inc("n", 1);
        a.observe("h", &[10], 5);
        let mut b = MetricsRegistry::new();
        b.inc("n", 2);
        b.inc("only_b", 7);
        b.observe("h", &[10], 50);
        b.set_gauge("g", -3);
        a.merge(&b);
        assert_eq!(a.counters["n"], 3);
        assert_eq!(a.counters["only_b"], 7);
        assert_eq!(a.gauges["g"], -3);
        assert_eq!(a.histograms["h"].counts, vec![1, 1]);
    }

    #[test]
    fn absorb_perf_exposes_cache_counters() {
        let c = eclair_trace::perf::PerfCounters {
            frame_cache_hits: 9,
            relayouts_full: 4,
            ..Default::default()
        };
        let mut r = MetricsRegistry::new();
        r.absorb_perf(&c);
        assert_eq!(r.counters["cache.frame_hits"], 9);
        assert_eq!(r.counters["cache.relayouts_full"], 4);
        assert_eq!(r.counters["cache.frame_misses"], 0);
        assert!(
            !r.counters
                .keys()
                .any(|k| k.contains("perceive") || k.starts_with("shared.")),
            "no counter of the deleted percept cache: {:?}",
            r.counters.keys()
        );
    }

    #[test]
    fn baseline_check_flags_drift_missing_and_new() {
        let mut base = MetricsRegistry::new();
        base.inc("runs", 100);
        base.inc("gone", 1);
        base.observe("lat", &[10, 100], 50);
        let baseline = parse_snapshot(&base.snapshot_json()).unwrap();

        let mut cur = MetricsRegistry::new();
        cur.inc("runs", 103); // 3% over
        cur.inc("fresh", 1);
        cur.observe("lat", &[10, 100], 50);
        let current = parse_snapshot(&cur.snapshot_json()).unwrap();

        let v = baseline_check(&current, &baseline, 5.0);
        assert!(v.iter().any(|s| s.contains("gone")), "{v:?}");
        assert!(v.iter().any(|s| s.contains("fresh")), "{v:?}");
        assert!(
            !v.iter().any(|s| s.contains("counter runs")),
            "3% drift within 5% tolerance: {v:?}"
        );
        let strict = baseline_check(&current, &baseline, 1.0);
        assert!(strict.iter().any(|s| s.contains("counter runs")));
        // Identical snapshots pass at zero tolerance.
        assert!(baseline_check(&baseline, &baseline, 0.0).is_empty());
    }
}
