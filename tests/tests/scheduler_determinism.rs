//! Scheduler-matrix determinism suite.
//!
//! The engine serves through one job queue (an MPMC channel every worker
//! receives from), a submit-side fast path that answers cache hits on the
//! *submitting* thread, and attach batching of identical in-flight
//! requests behind one computation. None of that may change a single bit
//! of output: every cell of the matrix
//!
//! `{1, 2, 8 workers} × {cache off, on}`
//!
//! must be bit-identical to [`run_serial_requests`] on the same request
//! stream. The stream is deliberately adversarial for the scheduler: hot
//! duplicates (attach-batching + single-flight), `k = 0` requests (empty
//! rankings, computed by a worker like everything else), a heterogeneous
//! measure mix, and a skewed burst that keeps all 8 workers competing for
//! a small queue.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::Measure;
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::NodeId;
use rtr_serve::{run_serial_requests, QueryRequest, QueryResponse, ServeConfig, ServeEngine};
use rtr_topk::TopKConfig;
use std::sync::Arc;

/// Strict comparison: bit-exact `f64` equality, deliberately not an
/// epsilon comparison — determinism means bit-identity.
fn assert_responses_identical(label: &str, got: &[QueryResponse], want: &[QueryResponse]) {
    assert_eq!(got.len(), want.len(), "{label}: batch sizes differ");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "{label}: ids diverge");
        assert_eq!(g.request, w.request, "{label}: resolved requests diverge");
        let (rg, rw) = (
            g.result.as_ref().expect("query failed"),
            w.result.as_ref().expect("query failed"),
        );
        assert_eq!(rg.ranking, rw.ranking, "{label}: rankings diverge");
        assert_eq!(rg.bounds, rw.bounds, "{label}: bounds diverge");
        assert_eq!(rg.expansions, rw.expansions, "{label}: expansions diverge");
        assert_eq!(rg.converged, rw.converged, "{label}: convergence diverges");
        assert_eq!(rg.active, rw.active, "{label}: active sets diverge");
    }
}

/// A request stream exercising every scheduler path at once: repeats of a
/// small hot pool (cache hits + attach batching), `k = 0` probes (empty
/// rankings) and a measure/k mix (ordinary queued compute).
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
                // Empty ranking after a bounded amount of setup work.
                0 => QueryRequest::node(q).with_k(0),
                1 => QueryRequest::node(q).with_measure(Measure::RtrPlus { beta: 0.4 }),
                2 => QueryRequest::node(q).with_k(3),
                _ => QueryRequest::node(q),
            }
        })
        .collect()
}

fn qlog_nodes() -> (Arc<rtr_graph::Graph>, Vec<NodeId>) {
    let log = QLog::generate(&QLogConfig::tiny(), 77);
    let mut nodes: Vec<NodeId> = log.phrases.clone();
    nodes.shuffle(&mut ChaCha8Rng::seed_from_u64(7));
    nodes.truncate(24);
    (Arc::new(log.graph), nodes)
}

#[test]
fn scheduler_matrix_is_bit_identical_to_serial() {
    let (g, nodes) = qlog_nodes();
    let base = ServeConfig {
        topk: TopKConfig {
            k: 10,
            epsilon: 0.01,
            ..TopKConfig::default()
        },
        ..ServeConfig::default()
    };
    let requests = scheduler_stress_requests(&nodes, 120, 2013);
    let serial = run_serial_requests(&g, &base, &requests);

    for workers in [1, 2, 8] {
        for cache in [0, 512] {
            let label = format!("{workers} workers × cache {cache}");
            let config = base.with_workers(workers).with_cache_capacity(cache);
            let engine = ServeEngine::start(Arc::clone(&g), config);
            let got = engine.run_requests(&requests);
            assert_responses_identical(&label, &got, &serial);
            engine.shutdown();
        }
    }
}

#[test]
fn fast_path_reports_no_worker_and_queued_requests_report_one() {
    let (g, nodes) = qlog_nodes();
    let config = ServeConfig {
        topk: TopKConfig {
            k: 10,
            epsilon: 0.01,
            ..TopKConfig::default()
        },
        ..ServeConfig::default()
    }
    .with_workers(2)
    .with_cache_capacity(512);
    let engine = ServeEngine::start(Arc::clone(&g), config);

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
