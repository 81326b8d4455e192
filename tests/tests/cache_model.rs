//! Property suite: the `rtr-cache` shard against an O(n) GreedyDual-Size-
//! Frequency (GDSF) reference.
//!
//! The sharded cache is the layer that lets serving skip recomputation, so
//! its semantics must be boringly exact: a bounded map that evicts the
//! entry with the lowest priority `clock + hits × cost` (ties to the least
//! recently touched) and raises the clock to the evicted priority, where
//! both `get` and an updating `insert` count a hit. The reference model is
//! the obvious O(n) implementation — a `Vec` of entries ordered
//! most-recently-touched first, scanned from the back for the lowest
//! priority — driven through random operation sequences alongside the
//! real structure.

use proptest::collection;
use proptest::prelude::*;
use rtr_cache::{CacheConfig, EvictionCost, GdsfShard, ShardedCache};
use std::collections::HashMap;

struct Entry {
    key: u32,
    value: u32,
    cost: u64,
    hits: u64,
    priority: u64,
}

/// The O(n) reference: entries in recency order (front = most recently
/// touched) plus the GDSF clock.
struct Model {
    entries: Vec<Entry>,
    clock: u64,
    capacity: usize,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            entries: Vec::new(),
            clock: 0,
            capacity,
        }
    }

    /// Count a hit on the entry at `i` and move it to the front.
    fn hit(&mut self, i: usize) {
        let mut e = self.entries.remove(i);
        e.hits += 1;
        e.priority = self.clock + e.hits * e.cost;
        self.entries.insert(0, e);
    }

    fn get(&mut self, k: u32) -> Option<u32> {
        let i = self.entries.iter().position(|e| e.key == k)?;
        self.hit(i);
        Some(self.entries[0].value)
    }

    /// Insert/update; returns the evicted `(key, value)` if one fell out.
    fn insert(&mut self, k: u32, v: u32, cost: u64) -> Option<(u32, u32)> {
        let cost = cost.max(1);
        if let Some(i) = self.entries.iter().position(|e| e.key == k) {
            self.entries[i].value = v;
            self.entries[i].cost = cost;
            self.hit(i);
            return None;
        }
        let evicted = (self.entries.len() == self.capacity).then(|| {
            // Scanning from the least recent end, the first minimum wins.
            let (victim, _) = self
                .entries
                .iter()
                .enumerate()
                .rev()
                .min_by_key(|&(_, e)| e.priority)
                .expect("a full model has entries");
            let e = self.entries.remove(victim);
            self.clock = e.priority;
            (e.key, e.value)
        });
        let priority = self.clock + cost;
        self.entries.insert(
            0,
            Entry {
                key: k,
                value: v,
                cost,
                hits: 1,
                priority,
            },
        );
        evicted
    }

    fn peek(&self, k: u32) -> Option<u32> {
        self.entries.iter().find(|e| e.key == k).map(|e| e.value)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.clock = 0;
    }
}

/// A value whose cost is a small function of itself, so costs tie often
/// and vary too.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Costed(u32);

fn cost_of(v: u32) -> u64 {
    u64::from(v % 4)
}

impl EvictionCost for Costed {
    fn eviction_cost(&self) -> u64 {
        cost_of(self.0)
    }
}

/// Key universe deliberately larger than any tested capacity, so eviction,
/// re-insertion of evicted keys, and hit/miss mixes all occur.
const KEYS: u32 = 32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    // The single shard IS the policy: every operation must agree with the
    // model exactly, including which entry each insert evicts and where
    // the clock stands.
    #[test]
    fn gdsf_shard_matches_model(
        capacity in 1usize..12,
        ops in collection::vec((0..4u8, 0..KEYS, 0..1000u32), 1..150)
    ) {
        let mut shard = GdsfShard::new(capacity);
        let mut model = Model::new(capacity);
        for (op, k, v) in ops {
            match op {
                0 | 1 => {
                    // Insert twice as often as the other ops: pressure on
                    // the eviction path is where policy bugs live.
                    prop_assert_eq!(shard.insert(k, v, cost_of(v)), model.insert(k, v, cost_of(v)));
                }
                2 => prop_assert_eq!(shard.get(&k).copied(), model.get(k)),
                _ => {
                    shard.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(shard.len(), model.entries.len());
            prop_assert!(shard.len() <= capacity);
            prop_assert_eq!(shard.clock(), model.clock);
        }
        // Final contents agree key by key (peek counts no hit).
        for k in 0..KEYS {
            prop_assert_eq!(shard.peek(&k).copied(), model.peek(k));
        }
    }

    // A single-shard ShardedCache degenerates to one shard, so the same
    // model pins the concurrent wrapper's sequential semantics — the cost
    // it reads from each value through `EvictionCost` included — plus its
    // hit/miss/eviction accounting.
    #[test]
    fn single_shard_cache_matches_model(
        capacity in 1usize..12,
        ops in collection::vec((0..3u8, 0..KEYS, 0..1000u32), 1..150)
    ) {
        let cache: ShardedCache<u32, Costed> = ShardedCache::new(CacheConfig {
            capacity,
            shards: 1,
        });
        let mut model = Model::new(capacity);
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for (op, k, v) in ops {
            match op {
                0 | 1 => {
                    cache.insert(k, Costed(v));
                    evictions += model.insert(k, v, cost_of(v)).is_some() as u64;
                }
                _ => {
                    let got = cache.get(&k);
                    prop_assert_eq!(got, model.get(k).map(Costed));
                    match got {
                        Some(_) => hits += 1,
                        None => misses += 1,
                    }
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len());
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.evictions, evictions);
    }

    // Multi-shard coherence: whatever the shard layout, a hit must return
    // the *latest* value inserted for that key, and the cache never holds
    // more than its budget.
    #[test]
    fn multi_shard_cache_serves_latest_values(
        shards in 1usize..6,
        capacity in 1usize..24,
        ops in collection::vec((0..3u8, 0..KEYS, 0..1000u32), 1..150)
    ) {
        let cache: ShardedCache<u32, Costed> = ShardedCache::new(CacheConfig {
            capacity,
            shards,
        });
        let mut latest: HashMap<u32, u32> = HashMap::new();
        for (op, k, v) in ops {
            match op {
                0 | 1 => {
                    cache.insert(k, Costed(v));
                    latest.insert(k, v);
                }
                _ => {
                    if let Some(got) = cache.get(&k) {
                        // Entries may be evicted at the cache's discretion
                        // (per-shard cost-aware eviction), but never served
                        // stale.
                        prop_assert_eq!(Some(got), latest.get(&k).copied().map(Costed));
                    }
                }
            }
            prop_assert!(cache.len() <= cache.capacity());
        }
    }
}
