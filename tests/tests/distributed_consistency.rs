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
use rtr_distributed::{BlockCache, DistributedTwoSBound, DistributedWorkspace, GpCluster};
use rtr_graph::{AdjacencyError, Graph, NodeId};
use rtr_integration_tests::SEED;
use rtr_serve::{
    run_serial_requests, Backend, BackendKind, QueryRequest, ServeConfig, ServeEngine,
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
        // Every touched node was classified exactly once: fetched over the
        // wire, or already resident from an earlier query.
        assert_eq!(
            stats.blocks_fetched + stats.blocks_from_cache,
            stats.active_nodes
        );
    }
}

/// The AP holds exactly the paper's active set `S_f ∪ S_t`: for every
/// measure and query arity, the blocks a query demands — fetched over the
/// wire or served from the block cache — are the nodes of its result's
/// active set, and nothing arrives on speculation. Checked with the block
/// cache off (a zero budget: every query starts cold) and on (one
/// workspace warm across the whole run), against the local engine bit for
/// bit.
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
    for budget in [0, rtr_distributed::DEFAULT_CACHE_BYTES] {
        let mut ws = DistributedWorkspace::with_cache(BlockCache::with_budget(budget));
        for (i, measure) in measures.into_iter().enumerate() {
            let search = TwoSBound::for_measure(params, cfg(), measure).expect("valid measure");
            let (a, b) = (pool[i], pool[i + 1]);
            for query in [Query::single(a), Query::uniform(&[a, b])] {
                let label = format!("budget {budget} {measure:?} {:?}", query.nodes());
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
                assert_eq!(
                    stats.blocks_fetched + stats.blocks_from_cache,
                    stats.active_nodes,
                    "{label}"
                );
                assert_eq!(stats.active_nodes, dist.active.active_nodes, "{label}");
                assert_eq!(stats.blocks_prefetched, 0, "{label}");
                if budget == 0 {
                    assert_eq!(stats.blocks_from_cache, 0, "{label}");
                }
            }
        }
    }
}

#[test]
fn block_cache_invalidates_on_epoch_bump_and_graph_swap() {
    let net1 = BibNet::generate(&BibNetConfig::tiny(), SEED + 8);
    let net2 = BibNet::generate(&BibNetConfig::tiny(), SEED + 9);
    let (g1, g2) = (&net1.graph, &net2.graph);
    let q = queries(g2, 8, SEED + 9)
        .into_iter()
        .find(|v| v.index() < g1.node_count() && !g1.is_dangling(*v))
        .expect("a query valid in both graphs");
    let params = RankParams::default();
    let engine = DistributedTwoSBound::new(params, cfg());
    let mut ws = DistributedWorkspace::new();

    // Warm the worker's block cache against g1.
    let c1 = GpCluster::spawn(g1, 3);
    engine.run_with(&c1, q, &mut ws).expect("g1 run");

    // Same graph, bumped epoch: identical content, but the cache must not
    // trust it. The warm workspace pays exactly a fresh (cold) workspace's
    // wire cost — fetch for fetch, byte for byte.
    let mut g1b = g1.clone();
    g1b.bump_epoch();
    let c1b = GpCluster::spawn(&g1b, 3);
    let (_, cold) = engine.run(&c1b, q).expect("cold reference");
    let (_, stats) = engine.run_with(&c1b, q, &mut ws).expect("bumped run");
    assert_eq!(stats, cold, "stale epoch must not serve a single block");
    assert_eq!(stats.blocks_from_cache, 0);
    assert!(stats.bytes_transferred > 0);

    // A different graph entirely: again exactly cold-cache wire cost, and
    // the answer must match a local run on the new graph — no stale g1
    // adjacency can leak into it.
    let c2 = GpCluster::spawn(g2, 3);
    let (_, cold2) = engine.run(&c2, q).expect("cold g2 reference");
    let (dist, stats) = engine.run_with(&c2, q, &mut ws).expect("g2 run");
    assert_eq!(stats, cold2, "stale blocks must not serve");
    let local = TwoSBound::new(params, cfg()).run(g2, q).expect("local g2");
    assert_eq!(local.ranking, dist.ranking);
    assert_eq!(local.bounds, dist.bounds);
    assert_eq!(local.active, dist.active);
}

#[test]
fn warm_cache_reduces_wire_cost_without_changing_answers() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 4);
    let g = &net.graph;
    let cluster = GpCluster::spawn(g, 4);
    let engine = DistributedTwoSBound::new(RankParams::default(), cfg());
    let mut ws = DistributedWorkspace::new();
    for q in queries(g, 3, SEED + 4) {
        let (cold, cold_stats) = engine.run_with(&cluster, q, &mut ws).expect("cold");
        let (warm, warm_stats) = engine.run_with(&cluster, q, &mut ws).expect("warm");
        assert_eq!(cold.ranking, warm.ranking, "query {q:?}");
        assert_eq!(cold.bounds, warm.bounds, "query {q:?}");
        assert_eq!(cold.active, warm.active, "query {q:?}");
        // The repeat visit is entirely cache-resident: zero wire rounds.
        assert_eq!(warm_stats.fetch_requests, 0, "query {q:?}");
        assert_eq!(warm_stats.bytes_transferred, 0, "query {q:?}");
        assert_eq!(
            warm_stats.blocks_from_cache, warm_stats.active_nodes,
            "query {q:?}"
        );
        assert!(cold_stats.bytes_transferred > 0, "query {q:?}");
    }
}

/// A query whose active set alone is larger than the whole block budget
/// keeps every block it touched until it finishes: the answer is the local
/// one and the accounting holds, query after query. Between queries such a
/// generation is over budget on its own and is dropped, so each query pays
/// exactly what a fresh workspace pays.
#[test]
fn queries_larger_than_the_block_budget_stay_exact() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 12);
    let g = &net.graph;
    let params = RankParams::default();
    let cluster = GpCluster::spawn(g, 3);
    let engine = DistributedTwoSBound::new(params, cfg());
    const BUDGET: usize = 2048;
    let mut ws = DistributedWorkspace::with_cache(BlockCache::with_budget(BUDGET));
    for q in queries(g, 6, SEED + 12) {
        let local = TwoSBound::new(params, cfg()).run(g, q).expect("local");
        let (dist, stats) = engine.run_with(&cluster, q, &mut ws).expect("distributed");
        assert_eq!(local.ranking, dist.ranking, "query {q:?}");
        assert_eq!(local.bounds, dist.bounds, "query {q:?}");
        assert_eq!(local.expansions, dist.expansions, "query {q:?}");
        assert_eq!(local.active, dist.active, "query {q:?}");
        assert!(
            stats.active_bytes > BUDGET,
            "query {q:?} fits the budget ({} B): the test no longer tests anything",
            stats.active_bytes
        );
        assert_eq!(
            stats.active_nodes,
            stats.blocks_fetched + stats.blocks_from_cache,
            "query {q:?}"
        );
        // Nothing the query touched was dropped under it ...
        assert!(
            ws.cache.resident_bytes() >= stats.active_bytes,
            "query {q:?}"
        );
        // ... and nothing the previous one left was still there.
        let cold_cache = BlockCache::with_budget(BUDGET);
        let (_, cold) = engine
            .run_with(
                &cluster,
                q,
                &mut DistributedWorkspace::with_cache(cold_cache),
            )
            .expect("cold");
        assert_eq!(stats, cold, "query {q:?}");
    }
}

/// A GP that fails a fetch in the middle of a query surfaces as the typed
/// error, and the blocks the query had already taken in stay usable: the
/// same workspace answers the next query exactly.
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
    let (cold, _) = engine.run(&cluster, q).expect("fresh workspace");
    let (dist, stats) = engine.run_with(&cluster, q, &mut ws).expect("recovered");
    for other in [&cold, &dist] {
        assert_eq!(local.ranking, other.ranking);
        assert_eq!(local.bounds, other.bounds);
        assert_eq!(local.expansions, other.expansions);
        assert_eq!(local.active, other.active);
    }
    assert_eq!(
        stats.active_nodes,
        stats.blocks_fetched + stats.blocks_from_cache
    );
    assert!(
        stats.blocks_from_cache > 0,
        "the half-finished query's blocks serve"
    );
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
/// single- and two-node queries, all served distributed.
fn mixed_requests(g: &Graph, n: usize, seed: u64) -> Vec<QueryRequest> {
    let pool = queries(g, 64.min(g.node_count()), seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0d15);
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
        .collect()
}

/// Whether this request takes the genuinely distributed path (the bound
/// search, any measure and arity) or the recorded local fallback (a full
/// ranking).
fn expect_distributed(r: &QueryRequest, g: &Graph, defaults: &ServeConfig) -> bool {
    r.resolve(defaults).topk.k < g.node_count()
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
                    let (got_r, want_r) = (
                        got.result.as_ref().expect("served"),
                        want.result.as_ref().expect("serial"),
                    );
                    assert_eq!(got_r.ranking, want_r.ranking, "{label}");
                    assert_eq!(got_r.bounds, want_r.bounds, "{label}");
                    assert_eq!(got_r.expansions, want_r.expansions, "{label}");
                    // Provenance: the distributed path really ran for the
                    // shapes the protocol covers, the fallback is recorded
                    // for the rest, and genuinely distributed answers paid
                    // a measurable wire cost.
                    if expect_distributed(&requests[want.id], &g, &base) {
                        assert_eq!(got.backend, BackendKind::Distributed, "{label}");
                        // Wire bytes may legitimately be zero once the
                        // worker's cross-query block cache is warm; the
                        // touched-set accounting must hold regardless.
                        let stats = got.distributed.expect("distributed stats");
                        assert!(stats.active_nodes > 0, "{label}");
                        assert_eq!(
                            stats.blocks_fetched + stats.blocks_from_cache,
                            stats.active_nodes,
                            "{label}"
                        );
                        assert_eq!(stats.active_nodes, got_r.active.active_nodes, "{label}");
                        assert_eq!(stats.blocks_prefetched, 0, "{label}");
                    } else {
                        assert_eq!(got.backend, BackendKind::Local, "{label}");
                        assert!(got.distributed.is_none(), "{label}");
                    }
                }
            }
        }
    }
}

/// The hardware-independent clause of the retired distributed perf gate:
/// one worker is one AP with one block cache, so a fixed request stream
/// costs exactly the same wire traffic every time, and the cross-query
/// block cache keeps that traffic at a small fraction of what a cache that
/// forgets everything between queries pays.
#[test]
fn single_worker_wire_cost_repeats_exactly_and_the_block_cache_bounds_it() {
    let log = QLog::generate(&QLogConfig::small(), SEED);
    let g = Arc::new(log.graph);
    let pool = queries(&g, 40, SEED);
    // The pool cycled five times: popular phrases repeat.
    let requests: Vec<QueryRequest> = (0..200)
        .map(|i| QueryRequest::node(pool[i % pool.len()]))
        .collect();
    let base = ServeConfig::default()
        .with_topk(cfg())
        .with_workers(1)
        .with_backend(Backend::Distributed { gps: 4 });
    let serial = run_serial_requests(&g, &base, &requests);

    // Σ bytes and Σ fetch rounds of the stream on a fresh engine, with
    // every answer checked against the serial local reference.
    let wire_cost = |config: ServeConfig| -> (usize, usize) {
        let engine = ServeEngine::start(Arc::clone(&g), config);
        let responses = engine.run_requests(&requests);
        assert_eq!(responses.len(), serial.len());
        let (mut bytes, mut rounds) = (0, 0);
        for (got, want) in responses.iter().zip(&serial) {
            let (got_r, want_r) = (
                got.result.as_ref().expect("served"),
                want.result.as_ref().expect("serial"),
            );
            assert_eq!(got_r.ranking, want_r.ranking, "id={}", want.id);
            assert_eq!(got_r.bounds, want_r.bounds, "id={}", want.id);
            let stats = got.distributed.expect("distributed stats");
            bytes += stats.bytes_transferred;
            rounds += stats.fetch_requests;
        }
        (bytes, rounds)
    };
    let first = wire_cost(base);
    assert_eq!(
        first,
        wire_cost(base),
        "the wire stream must repeat exactly"
    );
    let (starved_bytes, _) = wire_cost(base.with_block_cache_bytes(0));
    assert!(
        first.0 * 10 <= starved_bytes,
        "the block cache must cut wire bytes at least 10x: {} vs {starved_bytes} starved",
        first.0
    );
}
