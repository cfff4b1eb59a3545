//! The fleet's percept cache must be invisible everywhere except the
//! quarantined counters: an 8-worker fleet with the shared cache and
//! single-flight dedup produces byte-identical records JSON and merged
//! trace JSONL to a sequential execution — and to an uncached fleet —
//! across arbitrary seeds. Cross-run hits are real (replica specs,
//! re-executed suites) but live only in `CacheStats` and the `shared.*`
//! perf counters, never in a serialized artifact.

use eclair_fleet::{specs_for_tasks, Fleet, FleetConfig, RunSpec};
use eclair_fm::FmProfile;
use eclair_sites::all_tasks;
use proptest::prelude::*;

/// The shared cache handle crosses worker-thread boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<eclair_fm::SharedPerceptCache>();
    assert_send_sync::<std::sync::Arc<eclair_fm::SharedPerceptCache>>();
};

fn fleet(seed: u64, workers: usize) -> Fleet {
    Fleet::new(FleetConfig::default().with_workers(workers).with_seed(seed))
}

/// The same specs with every cache off: the uncached reference.
fn uncached(specs: Vec<RunSpec>) -> Vec<RunSpec> {
    specs.into_iter().map(|s| s.with_cache(false)).collect()
}

fn small_specs(seed: u64, n: usize) -> Vec<RunSpec> {
    specs_for_tasks(
        seed,
        all_tasks().into_iter().take(n).collect(),
        FmProfile::Gpt4V,
    )
}

/// Two replicas of each task at *identical* run seeds (the second copy
/// re-uses the first's seed): every percept of the replica is a shared
/// hit or a single-flight coalesce, never a recompute.
fn replica_specs(seed: u64, n: usize) -> Vec<RunSpec> {
    let firsts = small_specs(seed, n);
    let mut specs = Vec::with_capacity(2 * n);
    for s in &firsts {
        let mut twin = s.clone();
        twin.run_id = s.run_id + n as u64;
        specs.push(s.clone());
        specs.push(twin);
    }
    specs.sort_by_key(|s| s.run_id);
    specs
}

proptest! {
    /// Byte-identity across arbitrary seeds: 8 workers + shared cache +
    /// single-flight == sequential == uncached, on records JSON and
    /// merged JSONL alike.
    #[test]
    fn shared_fleet_is_byte_identical_to_sequential_and_to_shared_off(
        seed in 0u64..1_000_000_000,
    ) {
        let on = fleet(seed, 8);
        let par = on.run(small_specs(seed, 3)).expect("parallel");
        let seq = on.run_sequential(small_specs(seed, 3)).expect("sequential");
        let off = fleet(seed, 8).run(uncached(small_specs(seed, 3))).expect("off");
        prop_assert_eq!(par.outcome.to_json(), seq.outcome.to_json());
        prop_assert_eq!(par.outcome.to_json(), off.outcome.to_json());
        prop_assert_eq!(
            par.merged_trace_jsonl().unwrap(),
            seq.merged_trace_jsonl().unwrap()
        );
        prop_assert_eq!(
            par.merged_trace_jsonl().unwrap(),
            off.merged_trace_jsonl().unwrap()
        );
    }
}

#[test]
fn replica_runs_hit_the_shared_cache_without_changing_a_byte() {
    let on = fleet(404, 8);
    let par = on.run(replica_specs(404, 4)).expect("parallel");
    let stats = on.shared_cache().stats();
    assert!(
        stats.hits + stats.coalesced > 0,
        "identical-seed replicas must be served by the shared layer: {stats:?}"
    );
    // A fresh fleet run sequentially, and an uncached fleet, agree
    // byte-for-byte — hits changed nothing observable.
    let seq = fleet(404, 1)
        .run_sequential(replica_specs(404, 4))
        .expect("sequential");
    let off_fleet = fleet(404, 8);
    let off = off_fleet.run(uncached(replica_specs(404, 4))).expect("off");
    assert_eq!(par.outcome.to_json(), seq.outcome.to_json());
    assert_eq!(par.outcome.to_json(), off.outcome.to_json());
    assert_eq!(
        par.merged_trace_jsonl().unwrap(),
        seq.merged_trace_jsonl().unwrap()
    );
    assert_eq!(
        par.merged_trace_jsonl().unwrap(),
        off.merged_trace_jsonl().unwrap()
    );
    assert_eq!(
        off_fleet.shared_cache().stats(),
        Default::default(),
        "an uncached fleet never touches its cache"
    );
}

#[test]
fn the_cache_persists_across_fleet_invocations() {
    // Cross-run redundancy lives *between* invocations: the same Fleet
    // executing the same suite twice serves the second pass from the
    // shards the first pass filled.
    let f = fleet(777, 2);
    let a = f.run(small_specs(777, 4)).expect("first pass");
    let misses_after_first = f.shared_cache().stats().misses;
    let b = f.run(small_specs(777, 4)).expect("second pass");
    let stats = f.shared_cache().stats();
    assert_eq!(
        stats.misses, misses_after_first,
        "a re-executed suite recomputes nothing: every percept is resident"
    );
    assert!(stats.hits > 0, "second pass must harvest cross-run hits");
    assert_eq!(a.outcome.to_json(), b.outcome.to_json());
    assert_eq!(
        a.merged_trace_jsonl().unwrap(),
        b.merged_trace_jsonl().unwrap()
    );
}

#[test]
fn shared_counters_are_quarantined_from_serialized_artifacts() {
    eclair_trace::perf::reset();
    let f = fleet(55, 1);
    // Two sequential passes on one thread: guaranteed shared hits, and
    // the perf counters all land on this thread where we can read them.
    let _ = f.run_sequential(replica_specs(55, 2)).expect("pass one");
    let report = f.run_sequential(replica_specs(55, 2)).expect("pass two");
    let c = eclair_trace::perf::snapshot();
    assert!(
        c.shared_hits > 0,
        "the quarantine must have something in it"
    );
    assert!(c.shared_misses > 0);
    assert!(c.shared_cached_tokens > 0);
    let json = report.outcome.to_json();
    let jsonl = report.merged_trace_jsonl().unwrap();
    for needle in [
        "shared_hits",
        "shared_misses",
        "shared_evictions",
        "single_flight",
        "shared_cached_tokens",
        "coalesced",
    ] {
        assert!(
            !json.contains(needle),
            "records JSON must not leak `{needle}`"
        );
        assert!(
            !jsonl.contains(needle),
            "merged trace must not leak `{needle}`"
        );
    }
}
