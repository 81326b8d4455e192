//! Determinism matrix for the serving layer.
//!
//! The contract: serving through `rtr-serve` is **bit-identical** to the
//! serial reference ([`run_serial_requests`]) in every cell of
//!
//! `{1, 2, 8 workers} × {cache off, cache on (cold pass, then warm pass),
//! a 4-entry / 2-shard cache that evicts constantly}`
//!
//! for every request stream below: the Fig. 2 toy, a seeded QLog sample,
//! the full measure/β/k mix on both graphs, and a scheduler stress stream,
//! each with one typed refusal of each shape the bound search does not
//! serve.
//! Concurrency, the submit-side fast path and the cache may only change
//! *when* and *where* a request is answered, never *what* the answer is;
//! a cache hit is a shared copy of a deterministic engine's output and
//! every output-relevant input is part of the key. Workspace reuse (the
//! point of the serving layer) must leave no residue either: every
//! single-node answer the bound search gives equals the allocating
//! engine's, run with one fresh state per query.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::{Measure, Query, RankParams};
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::toy::fig2_toy;
use rtr_graph::{Graph, NodeId};
use rtr_integration_tests::{assert_same_answer, assert_same_result};
use rtr_serve::{
    run_serial_requests, QueryRequest, QueryResponse, ServeConfig, ServeEngine, ServeError,
};
use rtr_topk::{TopKConfig, TwoSBound};
use std::sync::Arc;

/// The cache column of the matrix: name, capacity, shards. "cache on"
/// holds every stream's distinct identities, so its warm pass is served
/// entirely from the cache; the 4-entry cache holds none of them for long.
const CACHES: [(&str, usize, usize); 3] = [
    ("cache off", 0, 16),
    ("cache on", 4096, 16),
    ("4-entry cache", 4, 2),
];

fn assert_same_batch(label: &str, got: &[QueryResponse], want: &[QueryResponse]) {
    assert_eq!(got.len(), want.len(), "{label}: batch sizes differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.id, w.id, "{label}: ids diverge");
        assert_same_answer(&format!("{label}, request {i}"), g, w);
    }
}

/// Run `requests`, plus one refused request of each shape (a full ranking
/// and a five-node query), through every cell of the matrix and compare
/// each batch with the serial reference; compare the reference's
/// single-node bound searches with the allocating engine.
fn check_matrix(stream: &str, g: Graph, requests: &[QueryRequest], config: ServeConfig) {
    let wide: Vec<NodeId> = g.nodes().take(5).collect();
    let mut requests = requests.to_vec();
    requests.push(QueryRequest::node(wide[0]).with_k(g.node_count()));
    requests.push(QueryRequest::nodes(&wide).with_measure(Measure::T));
    let requests = &requests[..];
    let serial = run_serial_requests(&g, &config, requests);
    for s in &serial[requests.len() - 2..] {
        assert!(
            matches!(s.result, Err(ServeError::Refused(_))),
            "{stream}: {:?}",
            s.result
        );
    }
    for s in &serial {
        let r = &s.request;
        if let ([node], true) = (r.query.nodes(), r.topk.k < g.node_count()) {
            let fresh = TwoSBound::for_measure(r.params, r.topk, r.measure)
                .and_then(|search| search.run(&g, *node))
                .expect("query failed");
            let label = format!("{stream}: workspace reuse vs allocating");
            assert_same_result(&label, s.result.as_ref().expect("query failed"), &fresh);
        }
    }
    let g = Arc::new(g);
    for workers in [1usize, 2, 8] {
        for (cache, capacity, shards) in CACHES {
            let label = format!("{stream}: {workers} workers, {cache}");
            let cell = config
                .with_workers(workers)
                .with_cache_capacity(capacity)
                .with_cache_shards(shards);
            let engine = ServeEngine::start(Arc::clone(&g), cell);
            assert_same_batch(&label, &engine.run_requests(requests), &serial);
            if capacity > 0 {
                let warm = engine.run_requests(requests);
                assert_same_batch(&format!("{label}, warm"), &warm, &serial);
                let stats = engine.cache_stats().expect("cache on");
                if capacity >= requests.len() {
                    // Refusals are never cached; every answer is.
                    assert!(
                        warm.iter().all(|r| r.from_cache == r.result.is_ok()),
                        "{label}: every warm answer must come from the cache"
                    );
                } else {
                    assert!(stats.evictions > 0, "{label}: must evict, got {stats:?}");
                }
            }
            engine.shutdown();
        }
    }
}

/// Every query `repeats` times, shuffled: the shape a cache exists for,
/// with duplicates of one query in flight together.
fn repeated_shuffled(queries: &[NodeId], repeats: usize, seed: u64) -> Vec<QueryRequest> {
    let mut out: Vec<QueryRequest> = queries
        .iter()
        .flat_map(|&q| std::iter::repeat_n(QueryRequest::node(q), repeats))
        .collect();
    out.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    out
}

/// The full measure/β/k mix over a pool of query nodes, with per-request
/// top-K and params overrides and interleaved duplicates.
fn mixed_requests(nodes: &[NodeId]) -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for (i, &q) in nodes.iter().enumerate() {
        requests.push(QueryRequest::node(q)); // RTR, default k
        requests.push(QueryRequest::node(q).with_measure(Measure::F).with_k(3));
        requests.push(QueryRequest::node(q).with_measure(Measure::T).with_k(8));
        requests.push(QueryRequest::node(q).with_measure(Measure::RtrPlus { beta: 0.3 }));
        requests.push(
            QueryRequest::node(q)
                .with_measure(Measure::RtrPlus { beta: 0.7 })
                .with_k(3),
        );
        if i + 1 < nodes.len() {
            requests.push(QueryRequest::nodes(&[q, nodes[i + 1]]).with_k(6));
            requests.push(
                QueryRequest::new(Query::weighted(&[(q, 3.0), (nodes[i + 1], 1.0)]).unwrap())
                    .with_measure(Measure::F),
            );
        }
        let loose = TopKConfig {
            epsilon: 0.05,
            ..TopKConfig::default()
        };
        requests.push(QueryRequest::node(q).with_topk(loose).with_k(3));
        requests.push(QueryRequest::node(q).with_params(RankParams::with_alpha(0.35)));
    }
    let dups: Vec<QueryRequest> = requests.iter().step_by(3).cloned().collect();
    requests.extend(dups);
    requests
}

/// Every scheduler path at once: repeats of a small hot pool (hits on
/// workers and on the fast path), `k = 0` probes (empty rankings, computed
/// by a worker like everything else) and a measure/k mix, in a skewed
/// burst that keeps 8 workers competing for the queue.
fn scheduler_stress_requests(nodes: &[NodeId], n: usize, seed: u64) -> Vec<QueryRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let hot: Vec<NodeId> = nodes.iter().copied().take(8).collect();
    (0..n)
        .map(|i| {
            let q = if rng.gen_bool(0.6) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                nodes[rng.gen_range(0..nodes.len())]
            };
            match i % 5 {
                0 => QueryRequest::node(q).with_k(0),
                1 => QueryRequest::node(q).with_measure(Measure::RtrPlus { beta: 0.4 }),
                2 => QueryRequest::node(q).with_k(3),
                _ => QueryRequest::node(q),
            }
        })
        .collect()
}

fn toy_config() -> ServeConfig {
    ServeConfig::default().with_topk(TopKConfig {
        k: 5,
        epsilon: 0.0,
        m_f: 4,
        m_t: 2,
        max_expansions: 500,
        ..TopKConfig::default()
    })
}

/// The seeded QLog graph and `n` of its phrases, shuffled.
fn qlog_phrases(n: usize) -> (QLog, Vec<NodeId>) {
    let log = QLog::generate(&QLogConfig::tiny(), 77);
    let mut nodes: Vec<NodeId> = log.phrases.clone();
    nodes.shuffle(&mut ChaCha8Rng::seed_from_u64(7));
    nodes.truncate(n);
    (log, nodes)
}

#[test]
fn fig2_toy_identical_at_1_2_8_workers() {
    // Every node as a query: hubs, leaves, and the query types the toy
    // models.
    let (g, _) = fig2_toy();
    let nodes: Vec<NodeId> = g.nodes().collect();
    check_matrix(
        "fig2 toy",
        g,
        &repeated_shuffled(&nodes, 3, 11),
        toy_config(),
    );
}

#[test]
fn seeded_qlog_identical_at_1_2_8_workers() {
    // Phrases (the realistic query type) plus a few URLs, under the
    // paper's defaults: K = 10, ε = 0.01.
    let (log, mut nodes) = qlog_phrases(12);
    nodes.extend(log.urls.iter().copied().take(4));
    let requests = repeated_shuffled(&nodes, 3, 23);
    check_matrix("seeded qlog", log.graph, &requests, ServeConfig::default());
}

#[test]
fn fig2_toy_mixed_measures_identical_at_1_2_8_workers() {
    let (g, ids) = fig2_toy();
    let requests = mixed_requests(&[ids.t1, ids.t2, ids.v1, ids.p[0]]);
    check_matrix("fig2 mixed", g, &requests, toy_config());
}

#[test]
fn seeded_qlog_mixed_measures_identical_at_1_2_8_workers() {
    let (log, nodes) = qlog_phrases(4);
    let requests = mixed_requests(&nodes);
    check_matrix("qlog mixed", log.graph, &requests, ServeConfig::default());
}

#[test]
fn scheduler_matrix_is_bit_identical_to_serial() {
    let (log, nodes) = qlog_phrases(24);
    let requests = scheduler_stress_requests(&nodes, 120, 2013);
    check_matrix(
        "scheduler stress",
        log.graph,
        &requests,
        ServeConfig::default(),
    );
}

#[test]
fn repeated_queries_in_one_batch_are_identical() {
    // Workspace recycling inside a single worker: the same query early and
    // late in a batch must produce the same answer (no state leakage).
    let log = QLog::generate(&QLogConfig::tiny(), 3);
    let q = log.phrases[0];
    let mut queries = vec![QueryRequest::node(q)];
    queries.extend(log.phrases[1..7].iter().map(|&p| QueryRequest::node(p)));
    queries.push(QueryRequest::node(q));
    let engine = ServeEngine::start(
        Arc::new(log.graph.clone()),
        ServeConfig::default().with_workers(1),
    );
    let outputs = engine.run_requests(&queries);
    assert_same_answer("first vs last", &outputs[0], &outputs[outputs.len() - 1]);
}

#[test]
fn fast_path_reports_no_worker_and_queued_requests_report_one() {
    let (log, nodes) = qlog_phrases(2);
    let config = ServeConfig::default()
        .with_workers(2)
        .with_cache_capacity(512);
    let engine = ServeEngine::start(Arc::new(log.graph), config);

    // Cold query: must be computed by a pool worker.
    let cold = engine.run_requests(&[QueryRequest::node(nodes[0])]);
    assert!(
        cold[0].worker.is_some(),
        "cold compute must name its worker"
    );

    // The repeat is a cache hit: served inline on the submitting thread.
    let hit = engine.run_requests(&[QueryRequest::node(nodes[0])]);
    assert!(hit[0].from_cache, "repeat must hit the cache");
    assert_eq!(hit[0].worker, None, "cache hit must serve inline");

    // A k = 0 miss is computed like any other miss: by a worker.
    let empty = engine.run_requests(&[QueryRequest::node(nodes[1]).with_k(0)]);
    assert!(!empty[0].from_cache);
    assert!(
        empty[0].worker.is_some(),
        "a k = 0 miss must name its worker"
    );
    engine.shutdown();
}
