//! The lock-striped map and its single-flight protocol.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};

use crate::stats::{CacheStats, StatsSnapshot};

/// How one [`ShardedCache::get_or_compute`] call was served. Callers
/// feed this into their own quarantined counters; the returned value is
/// identical in every case (the purity contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The key was already resident in its shard.
    Hit,
    /// This call computed the value (it was the single-flight leader, or
    /// nothing was in flight). `evicted` says whether inserting the
    /// result pushed out the shard's oldest entry.
    Computed {
        /// An older entry was dropped to make room.
        evicted: bool,
    },
    /// Another thread was already computing the key; this call blocked
    /// until the leader published and shared its value.
    Coalesced,
}

/// What a single-flight slot currently holds.
enum FlightState<V> {
    /// The leader is still computing, or published with no waiter left
    /// to read the value.
    Pending,
    /// The leader published to its waiters; they clone this.
    Ready(V),
    /// The leader's computation unwound (panicked) before publishing.
    /// One waiter is promoted to leader and recomputes.
    Abandoned,
}

/// One in-flight computation, shared between the leader and its waiters.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

/// Publishes on success; marks the flight abandoned if the leader's
/// compute unwinds, so waiters wake and recompute instead of blocking
/// forever.
struct FlightGuard<'a, K: Eq + Hash, V> {
    shard: &'a Mutex<Shard<K, V>>,
    key: K,
    flight: Arc<Flight<V>>,
    published: bool,
}

impl<K: Eq + Hash, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            self.shard.lock().unwrap().inflight.remove(&self.key);
            *self.flight.state.lock().unwrap() = FlightState::Abandoned;
            self.flight.ready.notify_all();
        }
    }
}

/// The maps' hasher: the fixed-key SipHash that picks the stripe, so
/// whether a full table rehashes in place or reallocates (and thus the
/// allocation count) repeats across processes. Keys are the caller's own
/// hashes, not outside input.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// One stripe of the cache: resident values, their insertion order (the
/// FIFO eviction queue — deliberately *not* a wholesale `clear()` at
/// capacity, the hit-rate cliff the GUI frame cache used to have), and
/// the keys currently being computed.
struct Shard<K, V> {
    map: HashMap<K, V, FixedState>,
    order: VecDeque<K>,
    inflight: HashMap<K, Arc<Flight<V>>, FixedState>,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::default(),
            order: VecDeque::new(),
            inflight: HashMap::default(),
        }
    }
}

/// A sharded, lock-striped cache with single-flight deduplication.
///
/// Keys pick their stripe through the std `DefaultHasher` (fixed-key
/// SipHash — deterministic across processes, so shard assignment and
/// therefore eviction behavior are reproducible). Each stripe holds at
/// most `cap_per_shard` values and evicts its oldest entry to admit a
/// new one. Contention is bounded by the stripe count: workers touching
/// different stripes never serialize.
///
/// ```
/// use eclair_shared::{Outcome, ShardedCache};
///
/// let cache: ShardedCache<u64, String> = ShardedCache::new(4, 64);
/// let (v, o) = cache.get_or_compute(7, || "percept".to_string());
/// assert_eq!((v.as_str(), o), ("percept", Outcome::Computed { evicted: false }));
/// let (v, o) = cache.get_or_compute(7, || unreachable!("deduped"));
/// assert_eq!((v.as_str(), o), ("percept", Outcome::Hit));
/// ```
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    cap_per_shard: usize,
    stats: CacheStats,
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("cap_per_shard", &self.cap_per_shard)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// Build a cache of `shards` stripes, each holding at most
    /// `cap_per_shard` values. Both are clamped to at least 1.
    pub fn new(shards: usize, cap_per_shard: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::new()))
                .collect(),
            cap_per_shard: cap_per_shard.max(1),
            stats: CacheStats::default(),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look the key up without computing. Counts neither a hit nor a
    /// miss — this is the peek harnesses and tests use.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.shard_for(key).lock().unwrap().map.get(key).cloned()
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether no shard holds a value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache's quarantined effectiveness counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Return the cached value for `key`, or compute it exactly once.
    ///
    /// The single-flight protocol: if the key is resident, clone it out
    /// (`Hit`). If another thread is mid-computation, block until it
    /// publishes and share its value (`Coalesced`) — the simulated FM is
    /// never asked twice for one in-flight key. Otherwise this call
    /// becomes the leader: it computes *outside* the shard lock, inserts
    /// the value (evicting the shard's oldest entry at capacity), hands
    /// it to every waiter, and reports `Computed`. A miss nobody waited
    /// on clones the value once, into the shard.
    ///
    /// `compute` must be a pure function of `key` — that purity is what
    /// makes hit/coalesce/compute unobservable in the returned value. If
    /// the leader panics, the flight is marked abandoned and one waiter
    /// promotes itself to leader.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, Outcome) {
        let shard = self.shard_for(&key);
        let flight = {
            let mut guard = shard.lock().unwrap();
            if let Some(v) = guard.map.get(&key) {
                CacheStats::bump(&self.stats.hits);
                return (v.clone(), Outcome::Hit);
            }
            match guard.inflight.get(&key) {
                Some(flight) => Some(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Pending),
                        ready: Condvar::new(),
                    });
                    guard.inflight.insert(key.clone(), Arc::clone(&flight));
                    drop(guard);
                    return self.lead(shard, key, flight, compute);
                }
            }
        };
        // Waiter path: block until the leader publishes or abandons.
        let flight = flight.expect("waiter path always holds a flight");
        let mut state = flight.state.lock().unwrap();
        loop {
            match &*state {
                FlightState::Pending => state = flight.ready.wait(state).unwrap(),
                FlightState::Ready(v) => {
                    CacheStats::bump(&self.stats.coalesced);
                    return (v.clone(), Outcome::Coalesced);
                }
                FlightState::Abandoned => {
                    // The leader unwound; recompute from scratch (the
                    // key may also have been claimed again by now).
                    drop(state);
                    return self.get_or_compute(key, compute);
                }
            }
        }
    }

    /// Leader path: compute outside the lock, publish, insert, wake.
    fn lead(
        &self,
        shard: &Mutex<Shard<K, V>>,
        key: K,
        flight: Arc<Flight<V>>,
        compute: impl FnOnce() -> V,
    ) -> (V, Outcome) {
        let mut cleanup = FlightGuard {
            shard,
            key: key.clone(),
            flight: Arc::clone(&flight),
            published: false,
        };
        let value = compute();
        let (evicted, waited_on) = {
            let mut guard = shard.lock().unwrap();
            guard.inflight.remove(&key);
            // Out of `inflight` under the lock, the flight gains no more
            // waiters: beyond this frame's handle and the guard's, every
            // reference is a waiter blocked until publication.
            let waited_on = Arc::strong_count(&flight) > 2;
            let mut evicted = false;
            if guard.map.len() >= self.cap_per_shard {
                if let Some(oldest) = guard.order.pop_front() {
                    guard.map.remove(&oldest);
                    CacheStats::bump(&self.stats.evictions);
                    evicted = true;
                }
            }
            if guard.map.insert(key.clone(), value.clone()).is_none() {
                guard.order.push_back(key.clone());
            }
            (evicted, waited_on)
        };
        if waited_on {
            *flight.state.lock().unwrap() = FlightState::Ready(value.clone());
            flight.ready.notify_all();
        }
        cleanup.published = true;
        CacheStats::bump(&self.stats.misses);
        (value, Outcome::Computed { evicted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_compute() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(4, 8);
        let (v, o) = c.get_or_compute(1, || 10);
        assert_eq!((v, o), (10, Outcome::Computed { evicted: false }));
        let (v, o) = c.get_or_compute(1, || panic!("must not recompute"));
        assert_eq!((v, o), (10, Outcome::Hit));
        assert_eq!(c.peek(&1), Some(10));
        assert_eq!(c.peek(&2), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.coalesced, s.evictions), (1, 1, 0, 0));
    }

    #[test]
    fn an_unwaited_miss_clones_the_value_once() {
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        /// A value that counts its clones.
        struct Counted(Arc<AtomicU64>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, SeqCst);
                Counted(Arc::clone(&self.0))
            }
        }
        let clones = Arc::new(AtomicU64::new(0));
        let c: ShardedCache<u64, Counted> = ShardedCache::new(1, 4);
        c.get_or_compute(1, || Counted(Arc::clone(&clones)));
        assert_eq!(clones.load(SeqCst), 1, "into the shard, not the flight");
        c.get_or_compute(1, || unreachable!("resident"));
        assert_eq!(clones.load(SeqCst), 2, "a hit clones once");
    }

    #[test]
    fn per_shard_fifo_eviction_is_single_entry_not_a_cliff() {
        // One stripe, capacity 3: inserting a 4th key evicts exactly the
        // oldest — the other two stay resident (no wholesale clear).
        let c: ShardedCache<u64, u64> = ShardedCache::new(1, 3);
        for k in 0..3 {
            c.get_or_compute(k, || k * 10);
        }
        let (_, o) = c.get_or_compute(3, || 30);
        assert_eq!(o, Outcome::Computed { evicted: true });
        assert_eq!(c.len(), 3);
        assert_eq!(c.peek(&0), None, "oldest entry evicted");
        assert_eq!(c.peek(&1), Some(10));
        assert_eq!(c.peek(&2), Some(20));
        assert_eq!(c.peek(&3), Some(30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn shard_assignment_is_deterministic() {
        // Same keys, two cache instances: identical residency after the
        // same insertion sequence (DefaultHasher has fixed keys).
        let a: ShardedCache<u64, u64> = ShardedCache::new(8, 2);
        let b: ShardedCache<u64, u64> = ShardedCache::new(8, 2);
        for k in 0..64 {
            a.get_or_compute(k, || k);
            b.get_or_compute(k, || k);
        }
        for k in 0..64 {
            assert_eq!(a.peek(&k), b.peek(&k), "key {k}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn concurrent_same_key_coalesces_to_one_compute() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;
        let c: ShardedCache<u64, u64> = ShardedCache::new(4, 8);
        let computes = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    let (v, _) = c.get_or_compute(42, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually queue.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        420
                    });
                    assert_eq!(v, 420);
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "single-flight must dedupe concurrent computes of one key"
        );
        let s = c.stats();
        assert_eq!(s.hits + s.coalesced + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn distinct_keys_do_not_serialize_on_each_other() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(16, 8);
        std::thread::scope(|s| {
            for k in 0..16u64 {
                let c = &c;
                s.spawn(move || {
                    let (v, _) = c.get_or_compute(k, || k * k);
                    assert_eq!(v, k * k);
                });
            }
        });
        assert_eq!(c.len(), 16);
        assert_eq!(c.stats().misses, 16);
    }

    #[test]
    fn panicking_leader_abandons_the_flight_and_a_waiter_recovers() {
        use std::sync::Barrier;
        let c: ShardedCache<u64, u64> = ShardedCache::new(1, 8);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let c = &c;
            let b = &barrier;
            let leader = s.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.get_or_compute(5, || {
                        b.wait(); // let the waiter enqueue behind this flight
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("compute failed");
                    })
                }));
                assert!(result.is_err());
            });
            let waiter = s.spawn(move || {
                b.wait();
                // By now the leader holds the flight; this call waits,
                // sees Abandoned, and recomputes successfully.
                let (v, _) = c.get_or_compute(5, || 55);
                assert_eq!(v, 55);
            });
            leader.join().unwrap();
            waiter.join().unwrap();
        });
        assert_eq!(c.peek(&5), Some(55));
    }

    #[test]
    fn values_are_pure_functions_of_keys_regardless_of_path() {
        // The transparency contract in miniature: hit, miss, and
        // coalesce all return the same value for the same key.
        let c: ShardedCache<(u64, u64), u64> = ShardedCache::new(2, 4);
        let f = |k: (u64, u64)| k.0.wrapping_mul(31).wrapping_add(k.1);
        let key = (3, 9);
        let (miss, _) = c.get_or_compute(key, || f(key));
        let (hit, _) = c.get_or_compute(key, || f(key));
        assert_eq!(miss, hit);
        assert_eq!(miss, f(key));
    }
}
