//! Distributed 2SBound must agree with the single-machine algorithm on
//! generated graphs — **bit-identically**: same ranking, same bounds, same
//! expansion count, same active-set accounting, for any GP count, while
//! touching only a fraction of the graph. This is the property that makes
//! the serving layer's execution backends interchangeable (and lets them
//! share one result cache).
//!
//! The pool-level half of the contract lives below: mixed-measure request
//! batches driven through a `ServeEngine` on the distributed backend, at
//! {1, 2, 8} workers × {2, 4} GPs × cache off/on, must be bit-identical to
//! the serial local reference — including the measures the AP/GP protocol
//! doesn't cover, which fall back (recorded) to local execution.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::prelude::*;
use rtr_core::Measure;
use rtr_datagen::{BibNet, BibNetConfig, QLog, QLogConfig};
use rtr_distributed::{DistributedTwoSBound, DistributedWorkspace, GpCluster};
use rtr_graph::{AdjacencyError, Graph, NodeId};
use rtr_integration_tests::SEED;
use rtr_serve::{
    run_serial_requests, Backend, BackendKind, QueryRequest, ServeConfig, ServeEngine, ServeError,
};
use rtr_topk::prelude::*;
use std::sync::Arc;

fn queries(g: &Graph, n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pool: Vec<NodeId> = g.nodes().filter(|&v| !g.is_dangling(v)).collect();
    pool.shuffle(&mut rng);
    pool.truncate(n);
    pool
}

fn cfg() -> TopKConfig {
    TopKConfig {
        k: 8,
        epsilon: 0.01,
        ..TopKConfig::default()
    }
}

#[test]
fn distributed_matches_local_bit_for_bit_on_bibnet() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED);
    let g = &net.graph;
    let params = RankParams::default();
    let cluster = GpCluster::spawn(g, 4);
    for q in queries(g, 5, SEED) {
        let local = TwoSBound::new(params, cfg()).run(g, q).expect("local");
        let (dist, stats) = DistributedTwoSBound::new(params, cfg())
            .run(&cluster, q)
            .expect("distributed");
        assert_eq!(local.ranking, dist.ranking, "query {q:?}");
        assert_eq!(local.bounds, dist.bounds, "query {q:?}");
        assert_eq!(local.expansions, dist.expansions, "query {q:?}");
        assert_eq!(local.converged, dist.converged, "query {q:?}");
        assert_eq!(local.active, dist.active, "query {q:?}");
        assert!(stats.bytes_transferred > 0, "query {q:?}");
    }
}

#[test]
fn distributed_plus_matches_local_bit_for_bit_on_qlog() {
    let qlog = QLog::generate(&QLogConfig::small(), SEED);
    let g = &qlog.graph;
    let params = RankParams::default();
    let cluster = GpCluster::spawn(g, 3);
    for (i, q) in queries(g, 4, SEED + 7).into_iter().enumerate() {
        let beta = [0.0, 0.3, 0.7, 1.0][i % 4];
        let engine = TwoSBoundPlus::new(params, cfg(), beta).unwrap();
        let local = engine.run(g, q).expect("local");
        let (dist, _) = DistributedTwoSBound::from(engine)
            .run(&cluster, q)
            .expect("distributed");
        assert_eq!(local.ranking, dist.ranking, "query {q:?} β={beta}");
        assert_eq!(local.bounds, dist.bounds, "query {q:?} β={beta}");
        assert_eq!(local.expansions, dist.expansions, "query {q:?} β={beta}");
        assert_eq!(local.active, dist.active, "query {q:?} β={beta}");
    }
}

#[test]
fn ablation_schemes_match_local_bit_for_bit() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 11);
    let g = &net.graph;
    let params = RankParams::default();
    let cluster = GpCluster::spawn(g, 2);
    let q = queries(g, 1, SEED + 11)[0];
    for scheme in Scheme::all() {
        let local = TwoSBound::with_scheme(params, cfg(), scheme)
            .run(g, q)
            .expect("local");
        let (dist, _) = DistributedTwoSBound::from(TwoSBound::with_scheme(params, cfg(), scheme))
            .run(&cluster, q)
            .expect("distributed");
        assert_eq!(local.ranking, dist.ranking, "{scheme:?}");
        assert_eq!(local.bounds, dist.bounds, "{scheme:?}");
        assert_eq!(local.expansions, dist.expansions, "{scheme:?}");
    }
}

#[test]
fn active_set_is_partial_on_qlog() {
    let qlog = QLog::generate(&QLogConfig::small(), SEED);
    let g = &qlog.graph;
    let cluster = GpCluster::spawn(g, 3);
    let runner = DistributedTwoSBound::new(RankParams::default(), cfg());
    for q in queries(g, 5, SEED + 1) {
        let (_, stats) = runner.run(&cluster, q).expect("distributed");
        assert!(
            stats.active_nodes < g.node_count(),
            "query {q:?}: active set covered the whole graph"
        );
        assert!(stats.bytes_transferred > 0);
        // Every touched node was fetched over the wire, exactly once.
        assert_eq!(stats.blocks_fetched, stats.active_nodes);
    }
}

/// The AP holds exactly the paper's active set `S_f ∪ S_t`: for every
/// measure and query arity, the blocks a query fetches are the nodes of its
/// result's active set, and nothing arrives on speculation. One workspace
/// serves the whole run, against the local engine bit for bit.
#[test]
fn the_ap_fetches_exactly_the_active_set() {
    let qlog = QLog::generate(&QLogConfig::small(), SEED);
    let g = &qlog.graph;
    let params = RankParams::default();
    let cluster = GpCluster::spawn(g, 2);
    let pool = queries(g, 6, SEED + 14);
    let measures = [
        Measure::Rtr,
        Measure::F,
        Measure::T,
        Measure::RtrPlus { beta: 0.3 },
        Measure::RtrPlus { beta: 0.7 },
    ];
    let mut ws = DistributedWorkspace::new();
    for (i, measure) in measures.into_iter().enumerate() {
        let search = TwoSBound::for_measure(params, cfg(), measure).expect("valid measure");
        let (a, b) = (pool[i], pool[i + 1]);
        for query in [Query::single(a), Query::uniform(&[a, b])] {
            let label = format!("{measure:?} {:?}", query.nodes());
            let local = search
                .run_query_with(g, &query, &mut TopKWorkspace::new())
                .expect("local");
            let (dist, stats) = DistributedTwoSBound::from(search)
                .run_query_with(&cluster, &query, &mut ws)
                .expect("distributed");
            assert_eq!(local.ranking, dist.ranking, "{label}");
            assert_eq!(local.bounds, dist.bounds, "{label}");
            assert_eq!(local.expansions, dist.expansions, "{label}");
            assert_eq!(local.work, dist.work, "{label}");
            assert_eq!(local.active, dist.active, "{label}");
            assert_eq!(stats.blocks_fetched, stats.active_nodes, "{label}");
            assert_eq!(stats.active_nodes, dist.active.active_nodes, "{label}");
            assert_eq!(stats.blocks_prefetched, 0, "{label}");
            assert_eq!(stats.blocks_from_cache, 0, "{label}");
        }
    }
}

/// A workspace carries nothing from one query to the next: a repeat, and a
/// query on a cluster over another graph, pay exactly what a fresh
/// workspace pays and answer exactly as the local engine does.
#[test]
fn a_reused_workspace_pays_what_a_fresh_one_pays() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 4);
    let other = BibNet::generate(&BibNetConfig::tiny(), SEED + 9);
    let params = RankParams::default();
    let engine = DistributedTwoSBound::new(params, cfg());
    let mut ws = DistributedWorkspace::new();
    for g in [&net.graph, &other.graph, &net.graph] {
        let cluster = GpCluster::spawn(g, 4);
        for q in queries(g, 3, SEED + 4) {
            let local = TwoSBound::new(params, cfg()).run(g, q).expect("local");
            let (_, fresh) = engine.run(&cluster, q).expect("fresh");
            assert!(fresh.bytes_transferred > 0, "query {q:?}");
            for _ in 0..2 {
                let (dist, stats) = engine.run_with(&cluster, q, &mut ws).expect("reused");
                assert_eq!(local.ranking, dist.ranking, "query {q:?}");
                assert_eq!(local.bounds, dist.bounds, "query {q:?}");
                assert_eq!(local.active, dist.active, "query {q:?}");
                assert_eq!(stats, fresh, "query {q:?}");
            }
        }
    }
}

/// After a run of distinct queries, a worker's block store holds no more
/// than the largest single query's payload: nothing accumulates across
/// queries, and every answer is the local one.
#[test]
fn a_worker_retains_at_most_one_querys_blocks() {
    let log = QLog::generate(&QLogConfig::small(), SEED);
    let g = &log.graph;
    let params = RankParams::default();
    let cluster = GpCluster::spawn(g, 2);
    let engine = DistributedTwoSBound::new(params, cfg());
    let local = TwoSBound::new(params, cfg());
    let (mut ws, mut local_ws) = (DistributedWorkspace::new(), TopKWorkspace::new());
    let (mut largest, mut total) = (0, 0);
    for q in queries(g, 200, SEED + 12) {
        let want = local.run_with(g, q, &mut local_ws).expect("local");
        let (dist, stats) = engine.run_with(&cluster, q, &mut ws).expect("distributed");
        assert_eq!(want.ranking, dist.ranking, "query {q:?}");
        assert_eq!(want.bounds, dist.bounds, "query {q:?}");
        assert_eq!(stats.blocks_fetched, stats.active_nodes, "query {q:?}");
        largest = largest.max(stats.bytes_transferred);
        total += stats.bytes_transferred;
        assert!(
            ws.cache.resident_bytes() <= largest,
            "query {q:?}: {} B retained, largest payload {largest} B",
            ws.cache.resident_bytes()
        );
    }
    assert!(total > 4 * largest, "the queries must not all be one query");
}

/// A GP that fails a fetch in the middle of a query surfaces as the typed
/// error, and the same workspace answers the next query exactly, at a
/// fresh workspace's wire cost.
#[test]
fn a_failed_fetch_mid_query_is_typed_and_the_workspace_recovers() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 13);
    let g = &net.graph;
    let params = RankParams::default();
    let cluster = GpCluster::spawn(g, 3);
    let engine = DistributedTwoSBound::new(params, cfg());
    let mut ws = DistributedWorkspace::new();
    // A query node GP 0 owns: the first round asks GP 0 alone, so a fault
    // armed on GP 1 fires in a later round, with blocks already resident.
    let q = queries(g, 64, SEED + 13)
        .into_iter()
        .find(|v| v.index() % 3 == 0)
        .expect("a query node on GP 0");
    cluster.fail_next_fetch(1);
    let err = engine
        .run_with(&cluster, q, &mut ws)
        .expect_err("injected fault");
    match err {
        CoreError::Adjacency(AdjacencyError::SourceUnavailable { detail }) => {
            assert!(detail.contains("graph processor 1"), "got: {detail}")
        }
        other => panic!("expected SourceUnavailable, got {other:?}"),
    }
    assert!(!ws.cache.is_empty(), "the fault hit after the first round");
    let local = TwoSBound::new(params, cfg()).run(g, q).expect("local");
    let (cold, cold_stats) = engine.run(&cluster, q).expect("fresh workspace");
    let (dist, stats) = engine.run_with(&cluster, q, &mut ws).expect("recovered");
    for other in [&cold, &dist] {
        assert_eq!(local.ranking, other.ranking);
        assert_eq!(local.bounds, other.bounds);
        assert_eq!(local.expansions, other.expansions);
        assert_eq!(local.active, other.active);
    }
    assert_eq!(stats, cold_stats);
    assert_eq!(stats.active_nodes, stats.blocks_fetched);
}

#[test]
fn gp_counts_are_equivalent_on_generated_graph() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 2);
    let g = &net.graph;
    let params = RankParams::default();
    let q = queries(g, 1, SEED + 2)[0];
    let mut results = Vec::new();
    for gps in [1usize, 3, 7] {
        let cluster = GpCluster::spawn(g, gps);
        let (res, _) = DistributedTwoSBound::new(params, cfg())
            .run(&cluster, q)
            .expect("distributed");
        results.push((res.ranking, res.bounds));
    }
    assert_eq!(results[0], results[1], "1 GP vs 3 GPs differ");
    assert_eq!(results[1], results[2], "3 GPs vs 7 GPs differ");
}

#[test]
fn more_gps_spread_the_stripe() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 3);
    let g = &net.graph;
    use rtr_distributed::Striping;
    for gps in [2usize, 5] {
        let stores = Striping::new(gps).partition(g);
        let total: usize = stores.iter().map(|s| s.len()).sum();
        assert_eq!(total, g.node_count());
        let max = stores.iter().map(|s| s.len()).max().expect("stores");
        let min = stores.iter().map(|s| s.len()).min().expect("stores");
        assert!(max - min <= 1, "unbalanced striping at {gps} GPs");
    }
}

// ---------------------------------------------------------------------------
// Pool-level consistency: the distributed backend through `ServeEngine`.
// ---------------------------------------------------------------------------

/// A deterministic heterogeneous request mix: RTR, RTR+β, F and T over
/// single- and two-node queries, all served distributed, then one
/// request of each shape the bound search refuses.
fn mixed_requests(g: &Graph, n: usize, seed: u64) -> Vec<QueryRequest> {
    let pool = queries(g, 64.min(g.node_count()), seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0d15);
    let refused = [
        QueryRequest::node(pool[0]).with_k(g.node_count()),
        QueryRequest::nodes(&pool[..5]).with_measure(Measure::F),
    ];
    (0..n)
        .map(|_| {
            let node = pool[rng.gen_range(0..pool.len())];
            let request = if rng.gen_bool(0.15) {
                let other = pool[rng.gen_range(0..pool.len())];
                QueryRequest::nodes(&[node, other])
            } else {
                QueryRequest::node(node)
            };
            match rng.gen_range(0..6) {
                0 => request.with_measure(Measure::F),
                1 => request.with_measure(Measure::T),
                2 => request.with_measure(Measure::RtrPlus { beta: 0.3 }),
                3 => request.with_measure(Measure::RtrPlus { beta: 0.7 }),
                _ => request, // RoundTripRank
            }
        })
        .chain(refused)
        .collect()
}

#[test]
fn mixed_measure_batches_match_serial_local_at_every_pool_shape() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 5);
    let g = Arc::new(net.graph);
    let base = ServeConfig::default().with_topk(cfg());
    let requests = mixed_requests(&g, 40, SEED + 5);
    // The ground truth: the serial reference on the local backend.
    let serial = run_serial_requests(&g, &base, &requests);

    for gps in [2usize, 4] {
        for workers in [1usize, 2, 8] {
            for cache in [0usize, 256] {
                let config = base
                    .with_backend(Backend::Distributed { gps })
                    .with_workers(workers)
                    .with_cache_capacity(cache);
                let engine = ServeEngine::start(Arc::clone(&g), config);
                let responses = engine.run_requests(&requests);
                assert_eq!(responses.len(), serial.len());
                for (got, want) in responses.iter().zip(&serial) {
                    let label = format!("gps={gps} workers={workers} cache={cache} id={}", want.id);
                    assert_eq!(got.backend, BackendKind::Distributed, "{label}");
                    let (got_r, want_r) = match (&got.result, &want.result) {
                        (Ok(got_r), Ok(want_r)) => (got_r, want_r),
                        // The shapes the search does not serve are refused
                        // alike on both backends, before any fetch.
                        (Err(got_e), Err(want_e)) => {
                            assert!(matches!(want_e, ServeError::Refused(_)), "{label}");
                            assert_eq!(got_e, want_e, "{label}");
                            assert!(got.distributed.is_none(), "{label}");
                            continue;
                        }
                        other => panic!("{label}: outcomes differ: {other:?}"),
                    };
                    assert_eq!(got_r.ranking, want_r.ranking, "{label}");
                    assert_eq!(got_r.bounds, want_r.bounds, "{label}");
                    assert_eq!(got_r.expansions, want_r.expansions, "{label}");
                    // Every answer ran distributed and paid a measurable
                    // wire cost.
                    let stats = got.distributed.expect("distributed stats");
                    assert!(stats.active_nodes > 0, "{label}");
                    assert!(stats.bytes_transferred > 0, "{label}");
                    assert_eq!(stats.blocks_fetched, stats.active_nodes, "{label}");
                    assert_eq!(stats.blocks_from_cache, 0, "{label}");
                    assert_eq!(stats.active_nodes, got_r.active.active_nodes, "{label}");
                    assert_eq!(stats.blocks_prefetched, 0, "{label}");
                }
            }
        }
    }
}

/// Every query a pool serves fetches exactly its own active set, and what
/// a worker served before it changes nothing: on one and on two workers,
/// each response reads the bytes, rounds and blocks the same query reads on
/// a fresh workspace, and answers as the serial local reference does.
#[test]
fn pool_queries_fetch_exactly_their_active_set_warm_or_fresh() {
    let log = QLog::generate(&QLogConfig::small(), SEED);
    let g = Arc::new(log.graph);
    let pool = queries(&g, 40, SEED);
    // The pool cycled five times: every worker serves repeats.
    let requests: Vec<QueryRequest> = (0..200)
        .map(|i| QueryRequest::node(pool[i % pool.len()]))
        .collect();
    let base = ServeConfig::default()
        .with_topk(cfg())
        .with_backend(Backend::Distributed { gps: 4 });
    let serial = run_serial_requests(&g, &base, &requests);
    let cluster = GpCluster::spawn(&g, 4);
    let engine = DistributedTwoSBound::new(base.params, base.topk);
    let fresh: Vec<_> = pool
        .iter()
        .map(|&q| engine.run(&cluster, q).expect("fresh").1)
        .collect();
    for workers in [1, 2] {
        let served = ServeEngine::start(Arc::clone(&g), base.with_workers(workers));
        let responses = served.run_requests(&requests);
        assert_eq!(responses.len(), serial.len());
        for (i, (got, want)) in responses.iter().zip(&serial).enumerate() {
            let label = format!("workers={workers} id={}", want.id);
            let (got_r, want_r) = (
                got.result.as_ref().expect("served"),
                want.result.as_ref().expect("serial"),
            );
            assert_eq!(got_r.ranking, want_r.ranking, "{label}");
            assert_eq!(got_r.bounds, want_r.bounds, "{label}");
            let stats = got.distributed.expect("distributed stats");
            assert_eq!(stats.blocks_fetched, stats.active_nodes, "{label}");
            assert_eq!(stats.blocks_from_cache, 0, "{label}");
            assert_eq!(stats, fresh[i % pool.len()], "{label}");
        }
        served.shutdown();
    }
}
