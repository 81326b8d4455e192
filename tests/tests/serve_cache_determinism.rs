//! Determinism suite for the *cached* serving path.
//!
//! The contract extends `serve_determinism`: turning the result cache on —
//! at any worker count — must leave every computed value bit-identical to
//! the serial reference. A cache hit is a clone of a deterministic engine's
//! output and every output-relevant input is part of the cache key, so hits
//! can never differ from fresh runs; these tests enforce that end to end,
//! including second batches served almost entirely from cache.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::toy::fig2_toy;
use rtr_graph::{Graph, NodeId};
use rtr_serve::{run_serial_requests, QueryRequest, QueryResponse, ServeConfig, ServeEngine};
use rtr_topk::TopKConfig;
use std::sync::Arc;

/// Strict comparison: every value that the engine computes must agree
/// exactly (no tolerances — determinism means bit-identity).
fn assert_outputs_identical(label: &str, a: &[QueryResponse], b: &[QueryResponse]) {
    assert_eq!(a.len(), b.len(), "{label}: batch sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{label}: ids diverge");
        assert_eq!(x.request.query, y.request.query, "{label}: queries diverge");
        let (rx, ry) = (
            x.result.as_ref().expect("query failed"),
            y.result.as_ref().expect("query failed"),
        );
        assert_eq!(rx.ranking, ry.ranking, "{label}: rankings diverge");
        // Bit-exact f64 equality, deliberately not an epsilon comparison.
        assert_eq!(rx.bounds, ry.bounds, "{label}: bounds diverge");
        assert_eq!(rx.expansions, ry.expansions, "{label}: expansions diverge");
        assert_eq!(rx.converged, ry.converged, "{label}: convergence diverges");
        assert_eq!(rx.active, ry.active, "{label}: active sets diverge");
    }
}

/// A workload with heavy repetition (every query appears `repeats` times,
/// shuffled): the shape a cache exists for.
fn repeated_shuffled(queries: &[NodeId], repeats: usize, seed: u64) -> Vec<QueryRequest> {
    let mut out: Vec<QueryRequest> = queries
        .iter()
        .flat_map(|&q| std::iter::repeat_n(QueryRequest::node(q), repeats))
        .collect();
    out.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    out
}

fn check_cached_matches_serial(g: Graph, queries: Vec<QueryRequest>, config: ServeConfig) {
    assert!(config.cache_enabled(), "suite exercises the cached path");
    // The reference is the plain serial engine — no cache involved.
    let serial = run_serial_requests(&g, &config.with_cache_capacity(0), &queries);
    let g = Arc::new(g);
    for workers in [1usize, 2, 8] {
        let label = format!("{workers} workers");
        let engine = ServeEngine::start(Arc::clone(&g), config.with_workers(workers));
        // Cold pass: misses compute and populate the cache.
        let cold = engine.run_requests(&queries);
        assert_outputs_identical(&format!("{label}, cold"), &cold, &serial);
        // Warm pass: served from cache, still bit-identical.
        let warm = engine.run_requests(&queries);
        assert_outputs_identical(&format!("{label}, warm"), &warm, &serial);
        let stats = engine.cache_stats().expect("cache on");
        assert!(
            stats.hits > 0,
            "{label}: a repeated workload must hit the cache, got {stats:?}"
        );
    }
}

#[test]
fn fig2_toy_cached_identical_at_1_2_8_workers() {
    let (g, _) = fig2_toy();
    let base: Vec<NodeId> = g.nodes().collect();
    let queries = repeated_shuffled(&base, 3, 11);
    let config = ServeConfig::default()
        .with_cache_capacity(256)
        .with_topk(TopKConfig {
            k: 5,
            epsilon: 0.0,
            m_f: 4,
            m_t: 2,
            max_expansions: 500,
            ..TopKConfig::default()
        });
    check_cached_matches_serial(g, queries, config);
}

#[test]
fn seeded_qlog_cached_identical_at_1_2_8_workers() {
    let log = QLog::generate(&QLogConfig::tiny(), 77);
    let g = log.graph.clone();
    let mut base: Vec<NodeId> = log.phrases.clone();
    base.shuffle(&mut ChaCha8Rng::seed_from_u64(7));
    base.truncate(10);
    let queries = repeated_shuffled(&base, 4, 23);
    // Paper defaults: K = 10, ε = 0.01.
    let config = ServeConfig::default().with_cache_capacity(64);
    check_cached_matches_serial(g, queries, config);
}

#[test]
fn tiny_cache_evicts_but_stays_correct() {
    // A cache far smaller than the distinct-query set thrashes (insert /
    // evict constantly) yet must never change an answer.
    let log = QLog::generate(&QLogConfig::tiny(), 5);
    let g = log.graph.clone();
    let base: Vec<NodeId> = log.phrases.iter().copied().take(12).collect();
    let queries = repeated_shuffled(&base, 3, 41);
    let config = ServeConfig::default()
        .with_cache_capacity(4)
        .with_cache_shards(2);
    let serial = run_serial_requests(&g, &config.with_cache_capacity(0), &queries);
    let engine = ServeEngine::start(Arc::new(g), config.with_workers(4));
    let outputs = engine.run_requests(&queries);
    assert_outputs_identical("thrashing cache", &outputs, &serial);
    let stats = engine.cache_stats().expect("cache on");
    assert!(stats.evictions > 0, "capacity 4 must evict, got {stats:?}");
}

#[test]
fn graph_epoch_separates_cache_entries() {
    // Two byte-identical graphs have different epochs: an engine over the
    // second must not see (or be poisoned by) entries computed on the
    // first. Sharing one cache across engines isn't possible through the
    // public API today (each engine owns its cache), so pin the epoch
    // property directly: keys built on clone vs rebuild differ.
    let (g1, _) = fig2_toy();
    let (g2, _) = fig2_toy();
    assert_ne!(g1.epoch(), g2.epoch());
    let params = rtr_core::RankParams::default();
    let cfg = TopKConfig::toy();
    let k1 = rtr_cache::CacheKey::single(NodeId(0), g1.epoch(), &params, &cfg);
    let k2 = rtr_cache::CacheKey::single(NodeId(0), g2.epoch(), &params, &cfg);
    assert_ne!(k1, k2, "same query, different graph epoch: distinct keys");
    // A clone is the same graph content and keeps the epoch: cached
    // answers stay valid.
    assert_eq!(g1.clone().epoch(), g1.epoch());
}
