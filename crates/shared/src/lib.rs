//! # eclair-shared
//!
//! Fleet-wide shared caches with single-flight deduplication.
//!
//! A model's private percept cache dies with it: every fleet run
//! instantiates a fresh `FmModel`, so identical frames perceived by
//! *different* runs would always miss. Since perception is a pure
//! function of `(model seed, profile, frame hash)`, a cache keyed on that
//! full tuple can safely be shared by every worker and every run of a
//! fleet — and by *successive* fleet invocations, which is where the
//! cross-run redundancy actually lives (re-executed suites, retry
//! rescues, metamorphic ladders re-running the same seeds). The same
//! type, at one stripe, is each model's private cache.
//!
//! [`ShardedCache`] is the substrate: a generic, lock-striped map with
//! FIFO per-shard eviction and a **single-flight** layer that dedupes
//! concurrent computations of the same key — when N workers ask for one
//! key at once, one computes while the rest block on a condvar and share
//! the leader's value. Values must be pure functions of their key (the
//! caller's contract); under that contract the cache is *transparent*:
//! whether a lookup hit, missed, or coalesced is unobservable in the
//! value returned.
//!
//! Effectiveness accounting lives in two quarantines, mirroring the
//! PR 5 invariant that cache effectiveness never reaches a serialized
//! artifact:
//!
//! * [`CacheStats`] — process-wide atomics on the cache itself
//!   (deterministic for sequential drivers, advisory under concurrency);
//! * the caller's thread-local counters (`eclair_trace::perf` for the
//!   perception cache), fed from the [`Outcome`] each lookup returns.
//!
//! The crate is dependency-free by design: it sits below `eclair-fm`
//! and `eclair-fleet` in the crate graph and knows nothing about
//! percepts, traces, or fleets.

mod cache;
mod stats;

pub use cache::{Outcome, ShardedCache};
pub use stats::{CacheStats, StatsSnapshot};
