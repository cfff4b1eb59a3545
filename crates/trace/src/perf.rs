//! Quarantined performance counters for the caching layer.
//!
//! PR 5's cache-transparency invariant forbids cache effectiveness from
//! ever appearing inside the byte-compared artifacts: a frame-cache hit
//! must leave the trace stream, the token meter, and every serialized
//! record byte-identical to a miss, or cache-on and `ECLAIR_NO_CACHE=1`
//! runs would diverge. So hit/miss/invalidation accounting lives *here*,
//! in thread-local counters outside the event stream — the same
//! quarantine `eclair_fleet::FleetTiming` applies to wall-clock. The
//! counters are still fully deterministic for a single-threaded driver
//! (the `perf_bench` bin), which is how `BENCH_perf.json` stays
//! byte-reproducible while the determinism artifacts stay cache-blind.
//!
//! Counters are per-thread: fleet workers each accumulate their own and
//! never contend; harnesses that want totals run sequentially (one
//! thread) and call [`snapshot`] after [`reset`]-ing up front.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

/// The caching layer's deterministic counters. Everything in here is a
/// pure function of the seeds when collected on one thread; nothing in
/// here may ever feed back into a trace, meter, or record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Session frame-cache hits (a screenshot served without re-render).
    pub frame_cache_hits: u64,
    /// Session frame-cache misses (a full `Screenshot::render` ran).
    pub frame_cache_misses: u64,
    /// Frame-cache invalidations (page mutated / fault dirtied the layout
    /// while cached frames existed).
    pub frame_cache_invalidations: u64,
    /// `Session::rebuild` calls that skipped page reconstruction because
    /// the app's fresh build was structurally identical.
    pub relayouts_avoided: u64,
    /// Full layout walks the GUI layout engine actually ran (a cache miss
    /// or a cache-disabled pass over the whole tree). Counted at the
    /// engine, not the session, so a skipped walk can never masquerade as
    /// a saved one.
    pub relayouts_full: u64,
    /// Full layout walks answered from the global layout cache (bounds
    /// replayed from an identical earlier walk; no tree traversal ran).
    pub layout_cache_hits: u64,
    /// String-interner lookups that found an existing entry.
    pub intern_hits: u64,
    /// String-interner lookups that inserted a new entry.
    pub intern_misses: u64,
    /// High-water size of the intern table as observed by this thread.
    /// This is a gauge, not a sum: [`merge`](Self::merge) takes the max so
    /// fleet-merged snapshots still report the true table size.
    pub intern_table_size: u64,
    /// Percept-cache lookups that `FmModel::perceive` answered without
    /// recomputing (hits and single-flight coalesces), on the model's
    /// private cache or a fleet's. The name predates the one cache.
    pub perceive_memo_hits: u64,
    /// Percept-cache lookups that ran the full perception pass.
    pub perceive_memo_misses: u64,
    /// Tokens that a provider-side cache would have served from cache
    /// (the accounted tokens of every `perceive_memo_hits` lookup).
    /// Reported here — not in the meter — because the deterministic
    /// accounting must stay identical with the cache off.
    pub cached_tokens: u64,
    /// The subset of `perceive_memo_hits` made on a fleet's percept cache
    /// and found resident.
    pub shared_hits: u64,
    /// The subset of `perceive_memo_misses` made on a fleet's percept
    /// cache (this call was the single-flight leader, or nothing was in
    /// flight for the key).
    pub shared_misses: u64,
    /// Fleet-cache insertions that evicted an older entry (FIFO per shard
    /// at capacity).
    pub shared_evictions: u64,
    /// The subset of `perceive_memo_hits` made on a fleet's percept cache
    /// that blocked behind another worker's in-flight perception of the
    /// same key and shared its value (single-flight coalesces).
    pub single_flight_waits: u64,
    /// The subset of `cached_tokens` served by a fleet's percept cache.
    pub shared_cached_tokens: u64,
    /// Log lines produced by `render_log` since the last reset.
    pub log_events_rendered: u64,
    /// Buffer allocations `render_log` performed for those lines.
    pub log_allocations: u64,
    /// Events serialized by the JSONL exporters since the last reset.
    pub jsonl_events_rendered: u64,
    /// Output-buffer allocations those exporters performed.
    pub jsonl_allocations: u64,
}

impl PerfCounters {
    /// Frame-cache hit rate in [0, 1]; 0 when no lookups happened.
    pub fn frame_cache_hit_rate(&self) -> f64 {
        rate(self.frame_cache_hits, self.frame_cache_misses)
    }

    /// Percept-cache hit rate in [0, 1], counting coalesces as hits; 0
    /// when no lookups happened.
    pub fn perceive_memo_rate(&self) -> f64 {
        rate(self.perceive_memo_hits, self.perceive_memo_misses)
    }

    /// Fleet-cache hit rate in [0, 1], counting single-flight coalesces
    /// as hits (they did not recompute); 0 when no lookup was made on a
    /// fleet's cache.
    pub fn shared_rate(&self) -> f64 {
        rate(
            self.shared_hits + self.single_flight_waits,
            self.shared_misses,
        )
    }

    /// Add another snapshot's counts into this one.
    pub fn merge(&mut self, other: &PerfCounters) {
        self.frame_cache_hits += other.frame_cache_hits;
        self.frame_cache_misses += other.frame_cache_misses;
        self.frame_cache_invalidations += other.frame_cache_invalidations;
        self.relayouts_avoided += other.relayouts_avoided;
        self.relayouts_full += other.relayouts_full;
        self.layout_cache_hits += other.layout_cache_hits;
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.intern_table_size = self.intern_table_size.max(other.intern_table_size);
        self.perceive_memo_hits += other.perceive_memo_hits;
        self.perceive_memo_misses += other.perceive_memo_misses;
        self.cached_tokens += other.cached_tokens;
        self.shared_hits += other.shared_hits;
        self.shared_misses += other.shared_misses;
        self.shared_evictions += other.shared_evictions;
        self.single_flight_waits += other.single_flight_waits;
        self.shared_cached_tokens += other.shared_cached_tokens;
        self.log_events_rendered += other.log_events_rendered;
        self.log_allocations += other.log_allocations;
        self.jsonl_events_rendered += other.jsonl_events_rendered;
        self.jsonl_allocations += other.jsonl_allocations;
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

thread_local! {
    static COUNTERS: RefCell<PerfCounters> = const { RefCell::new(PerfCounters {
        frame_cache_hits: 0,
        frame_cache_misses: 0,
        frame_cache_invalidations: 0,
        relayouts_avoided: 0,
        relayouts_full: 0,
        layout_cache_hits: 0,
        intern_hits: 0,
        intern_misses: 0,
        intern_table_size: 0,
        perceive_memo_hits: 0,
        perceive_memo_misses: 0,
        cached_tokens: 0,
        shared_hits: 0,
        shared_misses: 0,
        shared_evictions: 0,
        single_flight_waits: 0,
        shared_cached_tokens: 0,
        log_events_rendered: 0,
        log_allocations: 0,
        jsonl_events_rendered: 0,
        jsonl_allocations: 0,
    }) };
}

/// Apply a mutation to this thread's counters.
pub fn record(f: impl FnOnce(&mut PerfCounters)) {
    COUNTERS.with(|c| f(&mut c.borrow_mut()));
}

/// This thread's counters since the last [`reset`].
pub fn snapshot() -> PerfCounters {
    COUNTERS.with(|c| *c.borrow())
}

/// Zero this thread's counters (harnesses call this before a measured
/// section).
pub fn reset() {
    COUNTERS.with(|c| *c.borrow_mut() = PerfCounters::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_reset_round_trip() {
        reset();
        record(|c| {
            c.frame_cache_hits += 3;
            c.frame_cache_misses += 1;
            c.perceive_memo_hits += 1;
        });
        let s = snapshot();
        assert_eq!(s.frame_cache_hits, 3);
        assert_eq!(s.frame_cache_misses, 1);
        assert!((s.frame_cache_hit_rate() - 0.75).abs() < 1e-12);
        reset();
        assert_eq!(snapshot(), PerfCounters::default());
    }

    #[test]
    fn rates_are_zero_without_lookups() {
        let c = PerfCounters::default();
        assert_eq!(c.frame_cache_hit_rate(), 0.0);
        assert_eq!(c.perceive_memo_rate(), 0.0);
        assert_eq!(c.shared_rate(), 0.0);
    }

    #[test]
    fn shared_rate_counts_coalesces_as_hits() {
        let c = PerfCounters {
            shared_hits: 2,
            single_flight_waits: 1,
            shared_misses: 1,
            ..Default::default()
        };
        assert!((c.shared_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = PerfCounters {
            frame_cache_hits: 1,
            cached_tokens: 10,
            ..Default::default()
        };
        let b = PerfCounters {
            frame_cache_hits: 2,
            relayouts_avoided: 5,
            cached_tokens: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frame_cache_hits, 3);
        assert_eq!(a.relayouts_avoided, 5);
        assert_eq!(a.cached_tokens, 17);
    }
}
