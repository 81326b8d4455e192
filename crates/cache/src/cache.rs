//! The sharded concurrent cache: N independently locked cost-aware shards
//! plus lock-free statistics.
//!
//! A key's hash picks its shard, so concurrent queries for different keys
//! contend only when they collide on a shard — with the default 16 shards
//! and a worker pool sized to the machine, lock hold times (one hash-map
//! probe, plus a scan of the shard's few dozen entries on an evicting
//! insert) are far below a single 2SBound expansion, keeping the cache
//! invisible on the miss path.

use crate::gdsf::GdsfShard;
use crate::rtr_sync::atomic::{AtomicU64, Ordering};
use crate::rtr_sync::Mutex;
use std::hash::{Hash, Hasher};

/// Shape of a [`ShardedCache`]: total entry budget and shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entry budget across all shards (each shard gets
    /// `ceil(capacity / shards)`, so the whole cache holds at least
    /// `capacity` entries).
    pub capacity: usize,
    /// Number of independently locked shards.
    pub shards: usize,
}

impl Default for CacheConfig {
    /// 4096 entries across 16 shards — small enough to be memory-harmless
    /// (a cached top-10 ranking is a few hundred bytes), large enough to
    /// hold the hot head of a Zipf workload.
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 16,
        }
    }
}

impl CacheConfig {
    /// A config with the given total capacity and default sharding.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            ..Self::default()
        }
    }
}

/// What a cached value would cost to compute again, in deterministic work
/// units — never wall time, so eviction decisions replay exactly. The
/// shard counts a cost of 0 as 1.
pub trait EvictionCost {
    /// The recomputation cost of this value.
    fn eviction_cost(&self) -> u64;
}

impl<T: EvictionCost + ?Sized> EvictionCost for std::sync::Arc<T> {
    fn eviction_cost(&self) -> u64 {
        (**self).eviction_cost()
    }
}

/// A bare number carries no work: every entry costs one unit, and a cache
/// of numbers evicts the least hit, then the least recently touched.
macro_rules! unit_cost {
    ($($number:ty),*) => {$(
        impl EvictionCost for $number {
            fn eviction_cost(&self) -> u64 {
                1
            }
        }
    )*};
}
unit_cost!(u32, u64);

/// A point-in-time snapshot of cache traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (first insert and updates alike).
    pub inserts: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit, or 0 with no traffic.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot (for measuring
    /// one phase of a run).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// A concurrent bounded map: `shards` independent [`GdsfShard`]s behind
/// mutexes, with atomic traffic counters. Values are returned by clone, so
/// `V` is typically an `Arc<…>`; each value states its own
/// [`EvictionCost`].
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<GdsfShard<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone + EvictionCost> ShardedCache<K, V> {
    /// An empty cache shaped by `config` (shards and capacity are clamped
    /// to at least 1).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.max(1).div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(GdsfShard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total entry budget (shard count × per-shard capacity).
    pub fn capacity(&self) -> usize {
        self.shards.len()
            * self.shards[0]
                .lock()
                // invariant: only GdsfShard ops run under a shard lock
                // (here and in every method below) — no user code, no
                // panics, no poisoning.
                .expect("cache shard poisoned")
                .capacity()
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            // invariant: see capacity() — no user code under shard locks.
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key`, counting a hit (which raises the entry's eviction
    /// priority) or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self
            .shard(key)
            .lock()
            // invariant: see capacity() — no user code under shard locks.
            .expect("cache shard poisoned")
            .get(key)
            .cloned();
        match found {
            Some(v) => {
                // ordering: Relaxed — hit/miss counts are monotonic
                // telemetry with no cross-counter invariant.
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                // ordering: Relaxed — see the hit counter above.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up `key` like [`ShardedCache::get`], but record only a hit
    /// when found — an absent entry records nothing. For a probe whose
    /// miss is counted elsewhere: the serving engine's submit-side fast
    /// path probes with `recheck`, and the worker that takes a missed
    /// request counts the miss with its own [`ShardedCache::get`]. So a
    /// recheck-miss must not inflate the counters, while a recheck-hit is
    /// genuinely served from the cache and counts (and raises the entry's
    /// priority) like any other hit.
    pub fn recheck(&self, key: &K) -> Option<V> {
        let found = self
            .shard(key)
            .lock()
            // invariant: see capacity() — no user code under shard locks.
            .expect("cache shard poisoned")
            .get(key)
            .cloned();
        if found.is_some() {
            // ordering: Relaxed — monotonic telemetry, as in get().
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Insert or update `key`, evicting its shard's lowest-priority entry
    /// if full.
    pub fn insert(&self, key: K, value: V) {
        let cost = value.eviction_cost();
        let evicted = self
            .shard(&key)
            .lock()
            // invariant: see capacity() — no user code under shard locks.
            .expect("cache shard poisoned")
            .insert(key, value, cost);
        // ordering: Relaxed — the insert count is ordered by the Release
        // bump of `evictions` below (or never observed paired with an
        // eviction at all); no other reader pairs it with anything.
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            // ordering: Release — publishes the preceding insert bump to
            // a `stats()` reader whose Acquire load of `evictions` sees
            // this eviction, keeping evictions <= inserts in every
            // snapshot (model-checked in rtr-check's cache suite).
            self.evictions.fetch_add(1, Ordering::Release);
        }
    }

    /// Drop every entry; traffic counters keep accumulating.
    pub fn clear(&self) {
        for s in &self.shards {
            // invariant: see capacity() — no user code under shard locks.
            s.lock().expect("cache shard poisoned").clear();
        }
    }

    /// Entries currently resident in each shard, in shard order (the
    /// per-shard occupancy behind [`ShardedCache::len`]).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            // invariant: see capacity() — no user code under shard locks.
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .collect()
    }

    /// Publish the cache's state into `registry`: traffic counters
    /// (`rtr_cache_hits_total` / `misses` / `inserts` / `evictions`),
    /// budget and occupancy gauges (`rtr_cache_capacity_entries`,
    /// `rtr_cache_entries`), and per-shard occupancy
    /// (`rtr_cache_shard_entries{shard="i"}`).
    ///
    /// The cache keeps its own atomics as the source of truth; this
    /// *mirrors* them into registry counters at call time (snapshot-time
    /// export, not hot-path double counting). Call it right before
    /// [`rtr_obs::Registry::snapshot`].
    pub fn export_metrics(&self, registry: &rtr_obs::Registry) {
        let stats = self.stats();
        registry
            .counter(
                "rtr_cache_hits_total",
                "Cache lookups answered from the cache.",
            )
            .store(stats.hits);
        registry
            .counter(
                "rtr_cache_misses_total",
                "Cache lookups that found nothing.",
            )
            .store(stats.misses);
        registry
            .counter("rtr_cache_inserts_total", "Cache entries written.")
            .store(stats.inserts);
        registry
            .counter(
                "rtr_cache_evictions_total",
                "Cache entries evicted to make room.",
            )
            .store(stats.evictions);
        registry
            .gauge("rtr_cache_capacity_entries", "Total cache entry budget.")
            .set(self.capacity() as i64);
        let lens = self.shard_lens();
        registry
            .gauge("rtr_cache_entries", "Entries currently resident.")
            .set(lens.iter().sum::<usize>() as i64);
        for (i, len) in lens.iter().enumerate() {
            let shard = i.to_string();
            registry
                .gauge_with(
                    "rtr_cache_shard_entries",
                    &[("shard", &shard)],
                    "Entries currently resident in one shard.",
                )
                .set(*len as i64);
        }
    }

    /// Snapshot the traffic counters.
    ///
    /// The snapshot is not a single atomic cut across all four counters,
    /// but it does guarantee `evictions <= inserts`: `evictions` is read
    /// *first* with Acquire (pairing with the Release bump in
    /// [`ShardedCache::insert`]), so every eviction it observes has its
    /// preceding insert visible to the later `inserts` load. Reading the
    /// counters in the reverse order would let a concurrent insert+evict
    /// land between the two loads and report more evictions than inserts.
    pub fn stats(&self) -> CacheStats {
        // ordering: Acquire — see the method doc; pairs with the Release
        // `fetch_add` in insert() to pin evictions <= inserts.
        let evictions = self.evictions.load(Ordering::Acquire);
        CacheStats {
            // ordering: Relaxed (×3) — monotonic telemetry; the only
            // cross-counter invariant is the evictions pair above.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<GdsfShard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_insert_and_stats() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig::default());
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        c.insert(1, 11);
        assert_eq!(c.get(&1), Some(11));
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.lookups(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn recheck_counts_hits_but_never_misses() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig::default());
        assert_eq!(c.recheck(&1), None);
        c.insert(1, 10);
        assert_eq!(c.recheck(&1), Some(10));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0, "recheck must not record misses");
    }

    #[test]
    fn recheck_refreshes_recency() {
        // Unit costs: the rechecked entry outranks the unhit one.
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.recheck(&1), Some(1)); // 2 becomes the eviction candidate
        c.insert(3, 3);
        assert_eq!(c.recheck(&1), Some(1));
        assert_eq!(c.recheck(&2), None, "unhit entry 2 was evicted");
    }

    #[test]
    fn stats_since_measures_a_phase() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig::default());
        c.insert(1, 1);
        let _ = c.get(&1);
        let mark = c.stats();
        let _ = c.get(&1);
        let _ = c.get(&2);
        let delta = c.stats().since(&mark);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.inserts, 0);
    }

    #[test]
    fn capacity_is_at_least_requested_and_evicts_under_pressure() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig {
            capacity: 8,
            shards: 4,
        });
        assert!(c.capacity() >= 8);
        for k in 0..1000 {
            c.insert(k, k);
        }
        assert!(c.len() <= c.capacity());
        assert!(c.stats().evictions > 0);
        // Everything still resident must read back correctly.
        for k in 0..1000 {
            if let Some(v) = c.get(&k) {
                assert_eq!(v, k);
            }
        }
    }

    #[test]
    fn export_metrics_mirrors_stats_and_occupancy() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig {
            capacity: 8,
            shards: 2,
        });
        c.insert(1, 1);
        c.insert(2, 2);
        let _ = c.get(&1);
        let _ = c.get(&9);
        let registry = rtr_obs::Registry::new();
        c.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("rtr_cache_hits_total", &[]), Some(1));
        assert_eq!(snap.counter_value("rtr_cache_misses_total", &[]), Some(1));
        assert_eq!(snap.counter_value("rtr_cache_inserts_total", &[]), Some(2));
        assert_eq!(snap.gauge_value("rtr_cache_entries", &[]), Some(2));
        assert_eq!(
            snap.gauge_value("rtr_cache_capacity_entries", &[]),
            Some(c.capacity() as i64)
        );
        let per_shard: i64 = (0..c.shard_count())
            .map(|i| {
                snap.gauge_value("rtr_cache_shard_entries", &[("shard", &i.to_string())])
                    .unwrap()
            })
            .sum();
        assert_eq!(per_shard, 2);
        assert_eq!(
            c.shard_lens().iter().sum::<usize>(),
            c.len(),
            "shard_lens must decompose len"
        );
        // Re-export is idempotent: counters mirror, not accumulate.
        c.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("rtr_cache_hits_total", &[]), Some(1));
    }

    #[test]
    fn zero_shapes_clamp() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig {
            capacity: 0,
            shards: 0,
        });
        assert_eq!(c.shard_count(), 1);
        assert!(c.capacity() >= 1);
        c.insert(1, 1);
        assert_eq!(c.get(&1), Some(1));
    }

    #[test]
    fn clear_empties_but_keeps_counting() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(CacheConfig::default());
        c.insert(1, 1);
        let _ = c.get(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn concurrent_mixed_traffic_is_safe_and_counted() {
        let c: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(CacheConfig {
            capacity: 64,
            shards: 8,
        }));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 31 + i) % 128;
                        if i % 3 == 0 {
                            c.insert(k, k * 2);
                        } else if let Some(v) = c.get(&k) {
                            assert_eq!(v, k * 2);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.stats();
        // 8 threads × 500 ops; i % 3 == 0 hits 167 of 0..500 per thread.
        assert_eq!(s.inserts, 8 * 167);
        assert_eq!(s.lookups(), 8 * 500 - s.inserts);
        assert!(c.len() <= c.capacity());
    }
}
