//! Duplicate-request stress suite.
//!
//! With the cache on, a worker runs one job at a time and inserts its
//! result before it takes the next, so M concurrent identical requests
//! run the engine at most once per worker while the entry stays resident;
//! every later copy hits, on a worker or on the submit-side fast path.
//! `ServeEngine::computed_queries` counts actual engine runs, so the
//! bound is asserted directly — not by a timing heuristic. Every copy's
//! answer is bit-identical to the serial reference whichever way it was
//! served.

use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::NodeId;
use rtr_integration_tests::{assert_same_answer, node_requests as requests};
use rtr_serve::{run_serial_requests, QueryRequest, QueryResponse, ServeConfig, ServeEngine};
use std::sync::Arc;

const WORKERS: usize = 8;

fn engine_with(workers: usize) -> (ServeEngine, Vec<NodeId>) {
    let log = QLog::generate(&QLogConfig::tiny(), 99);
    let phrases = log.phrases.clone();
    let config = ServeConfig::default()
        .with_workers(workers)
        .with_cache_capacity(256);
    (ServeEngine::start(Arc::new(log.graph), config), phrases)
}

/// Assert every response equals the serial reference of its query node,
/// bit for bit, and return how many of them computed (were not served
/// from the cache), per entry of `distinct`.
fn check_against_serial(
    engine: &ServeEngine,
    distinct: &[NodeId],
    outputs: &[QueryResponse],
) -> Vec<u64> {
    let serial = run_serial_requests(
        engine.graph(),
        &engine.config().with_cache_capacity(0),
        &requests(distinct),
    );
    let mut computed = vec![0; distinct.len()];
    for out in outputs {
        let query = out.request.query.nodes()[0];
        let pos = distinct.iter().position(|&d| d == query).unwrap();
        assert_same_answer(&format!("{query:?}"), out, &serial[pos]);
        // A hit hands out the computing run's result, work included: the
        // cache weighs entries by it.
        let work = |r: &QueryResponse| r.result.as_ref().unwrap().work;
        assert_eq!(work(out), work(&serial[pos]));
        computed[pos] += u64::from(!out.from_cache);
    }
    computed
}

#[test]
fn identical_concurrent_requests_compute_at_most_once_per_worker() {
    let (engine, phrases) = engine_with(WORKERS);
    let q = phrases[0];
    let outputs = engine.run_requests(&requests(&[q; 64]));
    assert_eq!(outputs.len(), 64);

    let computed = engine.computed_queries();
    assert!(
        (1..=WORKERS as u64).contains(&computed),
        "64 copies on {WORKERS} workers ran {computed} times"
    );
    let stats = engine.cache_stats().expect("cache on");
    assert!(stats.inserts <= WORKERS as u64, "{stats:?}");
    assert_eq!(stats.inserts, computed, "every computed copy inserts");
    assert_eq!(check_against_serial(&engine, &[q], &outputs), [computed]);
}

#[test]
fn interleaved_duplicates_compute_at_most_once_per_worker_per_query() {
    let (engine, phrases) = engine_with(WORKERS);
    let distinct: Vec<NodeId> = phrases.iter().copied().take(4).collect();
    // 32 copies of each of the 4 queries, interleaved so duplicates of
    // every query are in flight together.
    let batch: Vec<NodeId> = (0..32).flat_map(|_| distinct.iter().copied()).collect();
    let outputs = engine.run_requests(&requests(&batch));
    assert_eq!(outputs.len(), 128);

    let per_query = check_against_serial(&engine, &distinct, &outputs);
    for (q, &runs) in distinct.iter().zip(&per_query) {
        assert!(
            (1..=WORKERS as u64).contains(&runs),
            "query {q:?} ran {runs} times on {WORKERS} workers"
        );
    }
    assert_eq!(engine.computed_queries(), per_query.iter().sum::<u64>());
}

#[test]
fn sequential_duplicates_also_compute_once() {
    // With one worker no two queries are ever in flight together: the
    // cache alone collapses duplicates.
    let (engine, phrases) = engine_with(1);
    let q = phrases[1];
    let _ = engine.run_requests(&requests(&[q; 16]));
    assert_eq!(engine.computed_queries(), 1);
    assert_eq!(engine.cache_stats().unwrap().hits, 15);
}

#[test]
fn failed_duplicates_all_fail_and_cache_nothing() {
    // Errors are never cached: every copy of a failing query computes and
    // fails on its own, and nothing is inserted.
    let (engine, phrases) = engine_with(4);
    let bad = NodeId(u32::MAX - 1);
    let outputs = engine.run_requests(&requests(&[bad; 16]));
    assert_eq!(outputs.len(), 16);
    for out in &outputs {
        assert!(out.result.is_err());
        assert!(!out.from_cache);
    }
    assert_eq!(engine.computed_queries(), 16);
    assert_eq!(engine.cache_stats().unwrap().inserts, 0);
    // A good query afterwards still works and caches normally.
    let good = QueryRequest::node(phrases[0]);
    let first = engine.submit(good.clone()).wait();
    let again = engine.submit(good).wait();
    assert!(first.result.is_ok() && !first.from_cache);
    assert!(again.result.is_ok() && again.from_cache);
    assert_eq!(engine.cache_stats().unwrap().inserts, 1);
}

#[test]
fn every_request_counts_one_cache_lookup() {
    // A request is answered on the fast path (a counted hit) or by a
    // worker (one counted `get`, hit or miss), never both.
    let (engine, phrases) = engine_with(WORKERS);
    let distinct: Vec<NodeId> = phrases.iter().copied().take(4).collect();
    let burst = vec![phrases[0]; 64];
    let interleaved: Vec<NodeId> = (0..32).flat_map(|_| distinct.iter().copied()).collect();
    let mut served = 0;
    for batch in [burst, interleaved] {
        served += engine.run_requests(&requests(&batch)).len() as u64;
        let stats = engine.cache_stats().expect("cache on");
        assert_eq!(stats.hits + stats.misses, served, "{stats:?}");
    }
}
