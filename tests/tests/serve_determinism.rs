//! Concurrency-determinism suite for the serving layer.
//!
//! The contract: batch execution through `rtr-serve` is **bit-identical**
//! to the serial engines at any worker count — same rankings, same `f64`
//! bounds down to the last bit, same expansion counts, same active-set
//! statistics. Concurrency must only change *when* queries run, never
//! *what* they compute; likewise workspace reuse (the whole point of the
//! serving layer) must leave no residue from one query in the next.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::RankParams;
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::toy::fig2_toy;
use rtr_graph::{Graph, NodeId};
use rtr_integration_tests::node_requests as requests;
use rtr_serve::{run_serial_requests, QueryResponse, ServeConfig, ServeEngine};
use rtr_topk::{TopKConfig, TopKResult, TwoSBound};
use std::sync::Arc;

/// Strict comparison: every value that the engine computes must agree
/// exactly (no tolerances — determinism means bit-identity).
fn assert_results_identical(label: &str, rx: &TopKResult, ry: &TopKResult) {
    assert_eq!(rx.ranking, ry.ranking, "{label}: rankings diverge");
    // Bit-exact f64 equality, deliberately not an epsilon comparison.
    assert_eq!(rx.bounds, ry.bounds, "{label}: bounds diverge");
    assert_eq!(rx.expansions, ry.expansions, "{label}: expansions diverge");
    assert_eq!(rx.converged, ry.converged, "{label}: convergence diverges");
    assert_eq!(rx.active, ry.active, "{label}: active sets diverge");
}

fn assert_outputs_identical(label: &str, a: &[QueryResponse], b: &[QueryResponse]) {
    assert_eq!(a.len(), b.len(), "{label}: batch sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{label}: ids diverge");
        assert_eq!(x.request.query, y.request.query, "{label}: queries diverge");
        assert_results_identical(
            label,
            x.result.as_ref().expect("query failed"),
            y.result.as_ref().expect("query failed"),
        );
    }
}

fn check_all_worker_counts(g: Graph, queries: Vec<NodeId>, config: ServeConfig) {
    let requests = requests(&queries);
    let serial = run_serial_requests(&g, &config, &requests);
    // The plain allocating engine, one fresh state per query — the
    // original pre-serving code path, still the semantic ground truth.
    let runner = TwoSBound::new(config.params, config.topk);
    for (s, &query) in serial.iter().zip(&queries) {
        assert_results_identical(
            "workspace-reuse vs allocating",
            s.result.as_ref().expect("query failed"),
            &runner.run(&g, query).expect("query failed"),
        );
    }
    let g = Arc::new(g);
    for workers in [1usize, 2, 8] {
        let engine = ServeEngine::start(Arc::clone(&g), config.with_workers(workers));
        let pooled = engine.run_requests(&requests);
        assert_outputs_identical(&format!("{workers} workers vs serial"), &pooled, &serial);
    }
}

#[test]
fn fig2_toy_identical_at_1_2_8_workers() {
    let (g, _) = fig2_toy();
    // Every node as a query: covers hubs, leaves, and the query types the
    // toy models.
    let queries: Vec<NodeId> = g.nodes().collect();
    let config = ServeConfig::default().with_topk(TopKConfig {
        k: 5,
        epsilon: 0.0,
        m_f: 4,
        m_t: 2,
        max_expansions: 500,
        ..TopKConfig::default()
    });
    check_all_worker_counts(g, queries, config);
}

#[test]
fn seeded_qlog_identical_at_1_2_8_workers() {
    let log = QLog::generate(&QLogConfig::tiny(), 77);
    let g = log.graph.clone();
    // A deterministic mixed workload: phrases (the realistic query type)
    // plus a few URLs.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut queries: Vec<NodeId> = log.phrases.clone();
    queries.shuffle(&mut rng);
    queries.truncate(12);
    queries.extend(log.urls.iter().copied().take(4));
    let config = ServeConfig {
        workers: 1,
        params: RankParams::default(),
        topk: TopKConfig::default(), // paper defaults: K = 10, ε = 0.01
        ..ServeConfig::default()     // cache off: the uncached contract
    };
    check_all_worker_counts(g, queries, config);
}

#[test]
fn repeated_queries_in_one_batch_are_identical() {
    // Workspace recycling inside a single worker: the same query early and
    // late in a batch must produce the same answer (no state leakage).
    let log = QLog::generate(&QLogConfig::tiny(), 3);
    let q = log.phrases[0];
    let other: Vec<NodeId> = log.phrases.iter().copied().skip(1).take(6).collect();
    let mut queries = vec![q];
    queries.extend(other);
    queries.push(q);
    let engine = ServeEngine::start(
        Arc::new(log.graph.clone()),
        ServeConfig::default().with_workers(1),
    );
    let outputs = engine.run_requests(&requests(&queries));
    let first = outputs.first().unwrap().result.as_ref().unwrap();
    let last = outputs.last().unwrap().result.as_ref().unwrap();
    assert_eq!(first.ranking, last.ranking);
    assert_eq!(first.bounds, last.bounds);
    assert_eq!(first.expansions, last.expansions);
}
