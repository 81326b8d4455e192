//! Equivalence suite for the per-request serving API.
//!
//! One `ServeEngine` serves heterogeneous traffic: F-Rank, T-Rank,
//! RoundTripRank, and RoundTripRank+ at per-request β, over single- and
//! multi-node queries, with per-request k/params/top-K overrides. That a
//! mixed batch is bit-identical to the serial reference at any worker
//! count, cache on or off, is the `serve_determinism` matrix; this suite
//! pins the other half — **the pool is the engines**: every response is
//! bit-identical to running the *direct* bound search (`TwoSBound` for
//! every measure and query arity) with the request's effective
//! parameters, and keeps the ε-contract against the exact engines
//! (`FRank`, `TRank`, `RoundTripRank`, `RoundTripRankPlus`). It also pins
//! per-request errors, the dangling-node fast answer, and the eviction
//! weight of an exact answer.

use rtr_cache::EvictionCost;
use rtr_core::prelude::*;
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::toy::fig2_toy;
use rtr_graph::NodeId;
use rtr_integration_tests::assert_same_result;
use rtr_serve::{QueryRequest, QueryResponse, ServeConfig, ServeEngine};
use rtr_topk::{TopKConfig, TopKWorkspace, TwoSBound, TwoSBoundPlus};
use std::sync::Arc;

/// The acceptance clause: one engine, one batch mixing every measure (two
/// distinct β values), multi-node queries, and two k values, with the
/// cache on — each response bit-identical to the corresponding direct
/// engine run.
#[test]
fn mixed_batch_matches_direct_engines_with_cache_and_single_flight_on() {
    let (g, ids) = fig2_toy();
    let topk = TopKConfig {
        k: 5,
        epsilon: 0.0,
        m_f: 4,
        m_t: 2,
        max_expansions: 500,
        ..TopKConfig::default()
    };
    let config = ServeConfig::default()
        .with_workers(4)
        .with_topk(topk)
        .with_cache_capacity(256);
    let params = config.params;

    let requests = vec![
        QueryRequest::node(ids.t1), // RTR, k=5
        QueryRequest::node(ids.t1)
            .with_measure(Measure::F)
            .with_k(3), // F, k=3
        QueryRequest::node(ids.t1).with_measure(Measure::T), // T, k=5
        QueryRequest::node(ids.t2).with_measure(Measure::RtrPlus { beta: 0.3 }),
        QueryRequest::node(ids.t2)
            .with_measure(Measure::RtrPlus { beta: 0.7 })
            .with_k(3),
        QueryRequest::nodes(&[ids.t1, ids.t2]).with_k(3), // multi-node RTR
        QueryRequest::nodes(&[ids.t1, ids.t2]).with_measure(Measure::RtrPlus { beta: 0.7 }),
    ];
    let engine = ServeEngine::start(Arc::new(g.clone()), config);
    let responses = engine.run_requests(&requests);

    // The direct bound search with the request's effective parameters, and
    // the ε-contract (here ε = 0: the exact top-k, up to exact ties)
    // against the exact engine.
    let check_exact = |response: &QueryResponse, scores: &ScoreVec| {
        let result = response.result.as_ref().unwrap();
        let r = &response.request;
        let direct = TwoSBound::for_measure(r.params, r.topk, r.measure)
            .unwrap()
            .run_query_with(&g, &r.query, &mut TopKWorkspace::default())
            .unwrap();
        assert_same_result(&format!("{}", r.measure), result, &direct);
        assert!(result.converged);
        let want = scores.top_k(r.topk.k);
        assert_eq!(result.ranking.len(), want.len());
        for ((v, &(lo, hi)), w) in result.ranking.iter().zip(&result.bounds).zip(&want) {
            let s = scores.score(*v);
            assert!(
                lo <= s + 1e-9 && s <= hi + 1e-9,
                "{v:?}: {s} outside [{lo}, {hi}]"
            );
            assert!(
                (s - scores.score(*w)).abs() < 1e-9,
                "{v:?} ranked in place of {w:?}"
            );
        }
    };

    // [0] single-node RTR → 2SBound.
    let direct = TwoSBound::new(params, topk).run(&g, ids.t1).unwrap();
    assert_same_result("RTR", responses[0].result.as_ref().unwrap(), &direct);

    // [1] F-Rank → bound search on the f-neighborhood, top-3.
    let f = FRank::new(params)
        .compute(&g, &Query::single(ids.t1))
        .unwrap();
    assert_eq!(responses[1].request.topk.k, 3);
    check_exact(&responses[1], &f);

    // [2] T-Rank → bound search on the t-neighborhood, k from the engine
    // default.
    let t = TRank::new(params)
        .compute(&g, &Query::single(ids.t1))
        .unwrap();
    assert_eq!(responses[2].request.topk.k, 5);
    check_exact(&responses[2], &t);

    // [3, 4] single-node RTR+ at two βs → 2SBound+.
    for (idx, beta, k) in [(3usize, 0.3, 5usize), (4, 0.7, 3)] {
        let direct = TwoSBoundPlus::new(params, TopKConfig { k, ..topk }, beta)
            .unwrap()
            .run(&g, ids.t2)
            .unwrap();
        let got = responses[idx].result.as_ref().unwrap();
        assert_same_result(&format!("β={beta}"), got, &direct);
    }

    // [5] multi-node RTR → one neighborhood pair per query node, bounding
    // the linearity reduction.
    let multi = Query::uniform(&[ids.t1, ids.t2]);
    let rtr = RoundTripRank::new(params).compute(&g, &multi).unwrap();
    assert_eq!(responses[5].request.topk.k, 3);
    check_exact(&responses[5], &rtr);

    // [6] multi-node RTR+ → the same with the β blend.
    let plus = RoundTripRankPlus::new(params, 0.7)
        .unwrap()
        .compute(&g, &multi)
        .unwrap();
    check_exact(&responses[6], &plus);

    // Distinct parameterizations may never share cache entries.
    assert_eq!(engine.cache_len(), requests.len());
    assert_eq!(engine.computed_queries(), requests.len() as u64);
}

#[test]
fn per_request_errors_do_not_disturb_the_rest_of_a_mixed_batch() {
    let (g, ids) = fig2_toy();
    let config = ServeConfig::default()
        .with_workers(2)
        .with_topk(TopKConfig::toy())
        .with_cache_capacity(64);
    let engine = ServeEngine::start(Arc::new(g), config);
    let requests = vec![
        QueryRequest::node(ids.t1),
        QueryRequest::node(NodeId(9999)), // out of range
        QueryRequest::node(ids.t1).with_measure(Measure::RtrPlus { beta: 2.0 }), // bad β
        QueryRequest::nodes(&[]),         // empty query
        QueryRequest::node(ids.t2).with_measure(Measure::F),
    ];
    let responses = engine.run_requests(&requests);
    assert!(responses[0].result.is_ok());
    assert!(responses[1].result.is_err());
    assert!(responses[2].result.is_err());
    assert!(responses[3].result.is_err());
    assert!(responses[4].result.is_ok());
    // Only the good requests were cached.
    assert_eq!(engine.cache_len(), 2);
}

#[test]
fn dangling_query_node_is_answered_at_once_through_submit() {
    // A dangling query node scores only itself (its F-Rank mass dies on the
    // spot), however large the component leading into it. The bound search
    // used to absorb that component for `max_expansions` rounds — a worker
    // pinned for a minute on a 200k-node graph — before giving up
    // unconverged. Node `i` points at its tree parent `i / 2` (the query is
    // the root) and at one pseudo-random other non-query node.
    let n = 20_000u32;
    let mut b = rtr_graph::GraphBuilder::new();
    let ty = b.register_type("n");
    let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(ty)).collect();
    for i in 1..n {
        b.add_edge(nodes[i as usize], nodes[(i / 2) as usize], 1.0);
        let other = 1 + (i.wrapping_mul(7919) + 3) % (n - 1);
        if other != i {
            b.add_edge(nodes[i as usize], nodes[other as usize], 1.0);
        }
    }
    let g = b.build();
    let q = nodes[0];
    assert!(g.is_dangling(q));
    let engine = ServeEngine::start(Arc::new(g), ServeConfig::default().with_workers(1));
    for request in [
        QueryRequest::node(q),
        QueryRequest::node(q).with_measure(Measure::RtrPlus { beta: 0.45 }),
    ] {
        let started = std::time::Instant::now();
        let response = engine.submit(request).wait();
        let elapsed = started.elapsed();
        let result = response.result.expect("typed answer");
        assert_eq!(result.ranking, vec![q]);
        assert!(result.converged);
        assert!(result.expansions <= 3, "{} expansions", result.expansions);
        assert!(elapsed.as_millis() < 50, "took {elapsed:?}");
    }
}

#[test]
fn an_exact_answer_outlives_a_stream_of_cheap_misses() {
    // A full ranking runs the exact engines, which touch every node once
    // per sweep of each fixed point, so its cache entry weighs |V| × the
    // F and T sweeps of RoundTripRank; a single-node T search absorbs a
    // few nodes. In a one-shard, two-entry cache the exact entry survives a
    // stream of T misses whose costs sum below its own (LRU, or an exact
    // answer costed at zero, would lose it to the second miss).
    let log = QLog::generate(&QLogConfig::small(), 2013);
    let g = Arc::new(log.graph);
    let n = g.node_count();
    let config = ServeConfig::default()
        .with_cache_capacity(2)
        .with_cache_shards(1)
        .with_workers(1);
    let engine = ServeEngine::start(Arc::clone(&g), config);
    let queries: Vec<NodeId> = g.nodes().filter(|&v| !g.is_dangling(v)).collect();
    let exact = QueryRequest::node(queries[0]).with_k(n);
    let first = engine.submit(exact.clone()).wait();
    let exact_cost = first.result.expect("exact answer").eviction_cost();
    let (_, [f, t]) = RoundTripRank::new(config.params)
        .compute_with_stats(&g, &Query::single(queries[0]))
        .expect("exact engine");
    let sweeps = f.iterations + t.iterations;
    assert!(sweeps > 2, "{sweeps} sweeps");
    assert_eq!(exact_cost, (n * sweeps) as u64);
    let mut stream_cost = 0;
    for &q in queries[1..].iter().take(12) {
        let response = engine
            .submit(QueryRequest::node(q).with_measure(Measure::T))
            .wait();
        assert!(!response.from_cache);
        stream_cost += response.result.expect("T answer").eviction_cost();
    }
    assert!(
        stream_cost < exact_cost,
        "the T misses cost {stream_cost}, the exact answer {exact_cost}"
    );
    let again = engine.submit(exact).wait();
    assert!(again.from_cache, "the exact answer was evicted");
    assert_eq!(engine.cache_stats().expect("cache on").evictions, 11);
}
