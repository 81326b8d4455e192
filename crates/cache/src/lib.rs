//! # rtr-cache — sharded top-K result cache for RoundTripRank serving
//!
//! Real query traffic is heavily skewed: a small set of hot query nodes
//! dominates any bibliographic-search workload (the paper's own QLog
//! dataset is Zipf-distributed in phrase popularity, and `rtr-datagen`
//! models exactly that). 2SBound makes a single top-K query cheap; this
//! crate makes a *repeated* top-K query nearly free by remembering its
//! full ranking.
//!
//! The design, bottom-up:
//!
//! * [`gdsf::GdsfShard`] — a bounded cost-aware map evicting by
//!   GreedyDual-Size-Frequency: an entry's priority grows with its
//!   deterministic [`EvictionCost`] and its hits. Pinned to an O(n)
//!   reference by the `cache_model` property suite.
//! * [`ShardedCache`] — N independently locked shards (a key's hash picks
//!   its shard) with atomic hit/miss/insert/eviction counters, snapshotted
//!   as [`CacheStats`].
//! * [`CacheKey`] / [`ResultCache`] — the serving key, the one place that
//!   decides which requests share an answer: every field of the query,
//!   measure, graph epoch, `TopKConfig` and `RankParams`. The **graph epoch**
//!   ([`rtr_graph::Graph::epoch`]) makes invalidation structural: replace
//!   the graph and every stale entry stops being addressable — no scanning,
//!   no tombstones; the eviction clock ages them out.
//!
//! Correctness stance: a cache hit returns the *bit-identical* `TopKResult`
//! a fresh run would produce, because every input that can change a run's
//! output is part of the key and the engines are deterministic. The
//! `serve_determinism` suite enforces this end to end through `rtr-serve`
//! (its matrix runs every stream with the cache off, on, and thrashing).
//!
//! ```
//! use rtr_cache::{CacheConfig, ShardedCache};
//!
//! let cache: ShardedCache<u32, u64> = ShardedCache::new(CacheConfig::with_capacity(128));
//! assert_eq!(cache.get(&7), None);       // miss
//! cache.insert(7, 700);
//! assert_eq!(cache.get(&7), Some(700));  // hit
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod gdsf;
pub mod key;
mod rtr_sync;

pub use cache::{CacheConfig, CacheStats, EvictionCost, ShardedCache};
pub use gdsf::GdsfShard;
pub use key::{CacheKey, ResultCache};
