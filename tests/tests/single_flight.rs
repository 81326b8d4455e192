//! Single-flight stress suite.
//!
//! With the cache on, M concurrent identical queries must cost exactly one
//! engine computation: the first claimant computes and inserts, the other
//! M−1 attach to its in-flight entry (or hit the cache) and read the
//! shared result. `ServeEngine::computed_queries` counts actual engine
//! runs, so the assertion is direct — not a timing heuristic.

use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::NodeId;
use rtr_integration_tests::node_requests as requests;
use rtr_serve::{run_serial_requests, ServeConfig, ServeEngine};
use std::sync::Arc;

fn engine_with(workers: usize) -> (ServeEngine, Vec<NodeId>) {
    let log = QLog::generate(&QLogConfig::tiny(), 99);
    let phrases = log.phrases.clone();
    let config = ServeConfig::default()
        .with_workers(workers)
        .with_cache_capacity(256);
    (ServeEngine::start(Arc::new(log.graph), config), phrases)
}

#[test]
fn identical_in_flight_queries_compute_once() {
    let (engine, phrases) = engine_with(8);
    let q = phrases[0];
    let outputs = engine.run_requests(&requests(&[q; 64]));

    // One computation, one insert, everyone else shared it.
    assert_eq!(engine.computed_queries(), 1, "single-flight must dedup");
    let stats = engine.cache_stats().expect("cache on");
    assert_eq!(stats.inserts, 1);
    assert_eq!(stats.hits, 63, "the other 63 must be served from cache");

    // And the shared result is the right one.
    let config = engine.config();
    let serial = run_serial_requests(
        engine.graph(),
        &config.with_cache_capacity(0),
        &requests(&[q]),
    );
    let want = serial[0].result.as_ref().unwrap();
    for out in &outputs {
        let got = out.result.as_ref().unwrap();
        assert_eq!(got.ranking, want.ranking);
        assert_eq!(got.bounds, want.bounds);
    }
}

#[test]
fn one_computation_per_distinct_in_flight_query() {
    let (engine, phrases) = engine_with(8);
    let distinct: Vec<NodeId> = phrases.iter().copied().take(4).collect();
    // 32 copies of each of the 4 queries, interleaved so duplicates of
    // every query are in flight together.
    let batch: Vec<NodeId> = (0..32).flat_map(|_| distinct.iter().copied()).collect();
    let outputs = engine.run_requests(&requests(&batch));
    assert_eq!(outputs.len(), 128);

    assert_eq!(
        engine.computed_queries(),
        distinct.len() as u64,
        "exactly one computation per distinct query"
    );
    let stats = engine.cache_stats().expect("cache on");
    assert_eq!(stats.inserts, distinct.len() as u64);
    assert_eq!(stats.hits, (batch.len() - distinct.len()) as u64);

    // Each occurrence of a query got the same (correct) answer.
    let serial = run_serial_requests(
        engine.graph(),
        &engine.config().with_cache_capacity(0),
        &requests(&distinct),
    );
    for out in &outputs {
        let query = out.request.query.nodes()[0];
        let pos = distinct.iter().position(|&d| d == query).unwrap();
        let want = serial[pos].result.as_ref().unwrap();
        assert_eq!(out.result.as_ref().unwrap().ranking, want.ranking);
        assert_eq!(out.result.as_ref().unwrap().bounds, want.bounds);
    }
}

#[test]
fn sequential_duplicates_also_compute_once() {
    // Even with one worker (no two queries ever in flight together), the
    // cache alone collapses duplicates; single-flight must not interfere.
    let (engine, phrases) = engine_with(1);
    let q = phrases[1];
    let _ = engine.run_requests(&requests(&[q; 16]));
    assert_eq!(engine.computed_queries(), 1);
    assert_eq!(engine.cache_stats().unwrap().hits, 15);
}

#[test]
fn failed_queries_do_not_wedge_single_flight() {
    // A failing query releases its in-flight key on the error path; later
    // duplicates must neither hang nor read a cached error.
    let (engine, phrases) = engine_with(4);
    let bad = NodeId(u32::MAX - 1);
    let outputs = engine.run_requests(&requests(&[bad; 16]));
    assert_eq!(outputs.len(), 16);
    for out in &outputs {
        assert!(out.result.is_err());
    }
    assert_eq!(engine.cache_stats().unwrap().inserts, 0);
    // A good batch afterwards still works and caches normally.
    let good = engine.run_requests(&requests(&[phrases[0], phrases[0]]));
    assert!(good[0].result.is_ok() && good[1].result.is_ok());
    assert_eq!(engine.cache_stats().unwrap().inserts, 1);
}
