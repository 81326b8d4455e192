//! Model checks for the sharded result cache: epoch-keyed invalidation
//! never serves a stale (pre-bump) entry, and the `stats()` snapshot
//! keeps its `evictions <= inserts` invariant in every interleaving —
//! the regression test for the Acquire/Release tightening of the
//! eviction counter (see `ShardedCache::stats`).

use loom_shim::model::{explore, Config};
use loom_shim::sync::Arc;
use loom_shim::thread;
use rtr_cache::{CacheConfig, ShardedCache};

const OLD: u64 = 1;
const NEW: u64 = 2;

/// Epoch-bump invalidation, as the serving engine keys its result cache:
/// the epoch is part of the key, so entries from a stale epoch can never
/// collide with a fresh lookup. A writer racing to insert an old-epoch
/// entry must never make a new-epoch reader observe the old value —
/// whether the reader hits (its own insert), misses (evicted), but never
/// crosses epochs.
#[test]
fn epoch_bump_never_serves_stale() {
    let report = explore(Config::with_random(2_000, 0xCA0E_0001), || {
        // Tiny capacity so old- and new-epoch entries fight for the same
        // slots — eviction is part of the explored surface.
        let cache: Arc<ShardedCache<(u64, u32), u64>> =
            Arc::new(ShardedCache::new(CacheConfig::with_capacity(2)));
        let query = 9u32;
        // A straggling writer from before the bump, still publishing
        // results computed against epoch 1.
        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.insert((1, query), OLD);
            })
        };
        // The bump happened: readers now key by epoch 2.
        let reader = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let key = (2u64, query);
                match cache.get(&key) {
                    Some(v) => assert_eq!(v, NEW, "stale entry served across epochs"),
                    None => {
                        cache.insert(key, NEW);
                        // The entry may have been evicted again by the
                        // writer's traffic, but it can never come back OLD.
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(v, NEW, "stale entry served across epochs");
                        }
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Post-quiescence: the new-epoch key still never yields OLD.
        if let Some(v) = cache.get(&(2u64, query)) {
            assert_eq!(v, NEW);
        }
    });
    rtr_check::report("cache/epoch-bump", &report);
    assert!(report.dfs_schedules > 1);
}

/// Regression for the stats read-order/ordering fix: two threads
/// hammering a capacity-1 cache (every insert after the first evicts)
/// while the main thread snapshots `stats()` mid-flight. In every
/// schedule, every snapshot must report `evictions <= inserts`; with the
/// old read order (inserts before evictions) the explorer finds a
/// violating interleaving within two preemptions.
#[test]
fn stats_never_report_more_evictions_than_inserts() {
    let report = explore(Config::with_random(2_000, 0xCA0E_0002), || {
        let cache: Arc<ShardedCache<u32, u64>> = Arc::new(ShardedCache::new(CacheConfig {
            capacity: 1,
            shards: 1,
        }));
        // Seed one resident entry so every write below evicts.
        cache.insert(0, 0);
        let writers: Vec<_> = (0..2)
            .map(|i| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    cache.insert(100 + i, u64::from(i));
                })
            })
            .collect();
        let stats = cache.stats();
        assert!(
            stats.evictions <= stats.inserts,
            "snapshot reported {} evictions > {} inserts",
            stats.evictions,
            stats.inserts
        );
        for w in writers {
            w.join().unwrap();
        }
        let end = cache.stats();
        assert!(end.evictions <= end.inserts);
        assert_eq!(end.inserts, 3);
    });
    rtr_check::report("cache/stats-invariant", &report);
    assert!(report.dfs_schedules > 1);
}
