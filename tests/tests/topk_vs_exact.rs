//! 2SBound against the exact engines on generated graphs — the online
//! algorithm's correctness contract, beyond the toy graph its unit tests use.
//!
//! The fixed cases come first; the property suite at the end is the oracle
//! on random inputs: random graphs from all three generators (query log,
//! bibliographic network, hand-built), random weighted queries of one to
//! three nodes (dangling ones included), every measure (F, T, RTR, RTR+ from
//! β = 0 to 1) and random expansion granularities, checked against the exact
//! fixed-point engines after every bound-update round and at the end of
//! every top-K search, locally and on the distributed backend.

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::prelude::*;
use rtr_datagen::{BibNet, BibNetConfig, QLog, QLogConfig};
use rtr_distributed::{
    ActiveGraph, BlockCache, DistributedTwoSBound, DistributedWorkspace, GpCluster, ReplySlot,
};
use rtr_graph::wire::{BlockView, NodeBlock};
use rtr_graph::{AdjacencyAccess, Graph, GraphBuilder, NodeId};
use rtr_integration_tests::SEED;
use rtr_topk::fbound::{FBoundMode, FNeighborhood};
use rtr_topk::prelude::*;
use rtr_topk::tbound::{TBoundMode, TNeighborhood};

fn random_queries(g: &Graph, n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pool: Vec<NodeId> = g.nodes().filter(|&v| !g.is_dangling(v)).collect();
    pool.shuffle(&mut rng);
    pool.truncate(n);
    pool
}

fn exact_scores(g: &Graph, q: NodeId) -> ScoreVec {
    RoundTripRank::new(RankParams::default())
        .compute(g, &Query::single(q))
        .expect("exact RTR")
}

#[test]
fn zero_slack_topk_matches_exact_on_bibnet() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED);
    let g = &net.graph;
    let cfg = TopKConfig {
        k: 10,
        epsilon: 0.0,
        max_expansions: 100_000,
        ..TopKConfig::default()
    };
    let runner = TwoSBound::new(RankParams::default(), cfg);
    for q in random_queries(g, 8, SEED) {
        let result = runner.run(g, q).expect("topk");
        let exact = exact_scores(g, q);
        let want = exact.top_k(10);
        for (got, want) in result.ranking.iter().zip(&want) {
            assert!(
                (exact.score(*got) - exact.score(*want)).abs() < 1e-9,
                "query {q:?}: got {got:?} ({}) want {want:?} ({})",
                exact.score(*got),
                exact.score(*want)
            );
        }
    }
}

#[test]
fn epsilon_guarantee_on_qlog() {
    let qlog = QLog::generate(&QLogConfig::tiny(), SEED);
    let g = &qlog.graph;
    let eps = 0.01;
    let cfg = TopKConfig {
        k: 10,
        epsilon: eps,
        ..TopKConfig::default()
    };
    let runner = TwoSBound::new(RankParams::default(), cfg);
    for q in random_queries(g, 8, SEED + 1) {
        let result = runner.run(g, q).expect("topk");
        let exact = exact_scores(g, q);
        // (a) no node exceeding the K-th returned score by ≥ ε is missed
        let kth = exact.score(*result.ranking.last().expect("k results"));
        for v in g.nodes() {
            if !result.ranking.contains(&v) {
                assert!(
                    exact.score(v) <= kth + eps + 1e-9,
                    "query {q:?}: missed {v:?} ({}) vs kth {kth}",
                    exact.score(v)
                );
            }
        }
        // (b) no swapped pair differing by ≥ ε
        for w in result.ranking.windows(2) {
            assert!(
                exact.score(w[0]) >= exact.score(w[1]) - eps - 1e-9,
                "query {q:?}: pair {w:?} swapped beyond ε"
            );
        }
    }
}

#[test]
fn bounds_sandwich_exact_scores_on_generated_graph() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 5);
    let g = &net.graph;
    let runner = TwoSBound::new(
        RankParams::default(),
        TopKConfig {
            k: 5,
            epsilon: 0.02,
            ..TopKConfig::default()
        },
    );
    for q in random_queries(g, 5, SEED + 2) {
        let result = runner.run(g, q).expect("topk");
        let exact = exact_scores(g, q);
        for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
            let s = exact.score(*v);
            assert!(
                s >= lo - 1e-9 && s <= hi + 1e-9,
                "query {q:?}: {v:?} score {s} outside [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn all_schemes_produce_valid_epsilon_approximations() {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED + 6);
    let g = &net.graph;
    let eps = 0.02;
    for scheme in Scheme::all() {
        let runner = TwoSBound::with_scheme(
            RankParams::default(),
            TopKConfig {
                k: 5,
                epsilon: eps,
                ..TopKConfig::default()
            },
            scheme,
        );
        for q in random_queries(g, 3, SEED + 3) {
            let result = runner.run(g, q).expect("topk");
            let exact = exact_scores(g, q);
            let kth = exact.score(*result.ranking.last().expect("k results"));
            for v in g.nodes() {
                if !result.ranking.contains(&v) {
                    assert!(
                        exact.score(v) <= kth + eps + 1e-9,
                        "{}: query {q:?} missed {v:?}",
                        scheme.name()
                    );
                }
            }
        }
    }
}

#[test]
fn naive_and_2sbound_agree() {
    let qlog = QLog::generate(&QLogConfig::tiny(), SEED + 7);
    let g = &qlog.graph;
    let params = RankParams::default();
    for q in random_queries(g, 5, SEED + 4) {
        let naive = NaiveTopK::new(params, 5).run(g, q).expect("naive");
        let fast = TwoSBound::new(
            params,
            TopKConfig {
                k: 5,
                epsilon: 0.0,
                max_expansions: 100_000,
                ..TopKConfig::default()
            },
        )
        .run(g, q)
        .expect("2sbound");
        let exact = exact_scores(g, q);
        for (a, b) in naive.ranking.iter().zip(&fast.ranking) {
            assert!(
                (exact.score(*a) - exact.score(*b)).abs() < 1e-9,
                "query {q:?}: naive {a:?} vs 2sbound {b:?}"
            );
        }
    }
}

/// A random graph from one of the three generators.
fn random_graph(kind: u8, seed: u64) -> Graph {
    match kind % 3 {
        0 => QLog::generate(&QLogConfig::tiny(), seed).graph,
        1 => BibNet::generate(&BibNetConfig::tiny(), seed).graph,
        _ => {
            // Hand-built: 0–4 weighted out-edges per node, so dangling nodes,
            // sources, self-loops and regions that cannot reach the query
            // all occur.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            let types = [b.register_type("a"), b.register_type("b")];
            let n = rng.gen_range(20..120usize);
            let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(types[i % 2])).collect();
            for &v in &nodes {
                for _ in 0..rng.gen_range(0..5usize) {
                    let dst = nodes[rng.gen_range(0..n)];
                    b.add_edge(v, dst, rng.gen_range(1..6usize) as f64);
                }
            }
            b.build()
        }
    }
}

/// Exact engines iterate well past the tolerance the assertions use.
fn oracle_params() -> RankParams {
    RankParams {
        tolerance: 1e-13,
        max_iterations: 5_000,
        ..RankParams::default()
    }
}

/// Every measure the search serves, RTR+ at both endpoints included.
const MEASURES: [Measure; 8] = [
    Measure::F,
    Measure::T,
    Measure::Rtr,
    Measure::RtrPlus { beta: 0.0 },
    Measure::RtrPlus { beta: 0.3 },
    Measure::RtrPlus { beta: 0.45 },
    Measure::RtrPlus { beta: 0.7 },
    Measure::RtrPlus { beta: 1.0 },
];

/// A canonical query of `arity` random nodes (dangling ones included) with
/// random weights; a repeated node merges into one.
fn random_query(g: &Graph, arity: usize, seed: u64) -> Query {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
    let pairs: Vec<(NodeId, f64)> = (0..arity)
        .map(|_| {
            let v = NodeId(rng.gen_range(0..g.node_count()) as u32);
            (v, rng.gen_range(1..5usize) as f64)
        })
        .collect();
    Query::weighted(&pairs)
        .expect("positive weights")
        .canonicalize()
}

/// Exact scores of `measure` for `query` from the fixed-point engines.
fn exact_measure(g: &Graph, query: &Query, measure: Measure, params: RankParams) -> ScoreVec {
    match measure {
        Measure::F => FRank::new(params).compute(g, query),
        Measure::T => TRank::new(params).compute(g, query),
        Measure::Rtr => RoundTripRank::new(params).compute(g, query),
        Measure::RtrPlus { beta } => {
            RoundTripRankPlus::new(params, beta).and_then(|m| m.compute(g, query))
        }
    }
    .expect("exact engine")
}

/// The ε-contract of a converged top-K answer against exact `scores`, plus
/// the bracket every answer owes: reported bounds contain the exact score.
fn check_contract(
    what: &str,
    g: &Graph,
    result: &TopKResult,
    scores: &ScoreVec,
    k: usize,
    eps: f64,
) -> Result<(), TestCaseError> {
    for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
        let s = scores.score(*v);
        prop_assert!(
            s >= lo - 1e-9 && s <= hi + 1e-9,
            "{what}: {v:?} exact {s} outside [{lo}, {hi}]"
        );
    }
    if !result.converged {
        return Ok(()); // best effort at the expansion cap promises bounds only
    }
    prop_assert!(result.ranking.len() <= k, "{what}: more than k results");
    // A short answer claims every other node scores nothing at all.
    let floor = match result.ranking.last() {
        Some(&kth) if result.ranking.len() == k.min(g.node_count()) => scores.score(kth) + eps,
        _ => 0.0,
    };
    for v in g.nodes() {
        if !result.ranking.contains(&v) {
            prop_assert!(
                scores.score(v) <= floor + 1e-9,
                "{what}: missed {v:?} ({}) above {floor}",
                scores.score(v)
            );
        }
    }
    for w in result.ranking.windows(2) {
        prop_assert!(
            scores.score(w[0]) >= scores.score(w[1]) - eps - 1e-9,
            "{what}: pair {w:?} swapped beyond ε"
        );
    }
    Ok(())
}

/// The distributed backend runs the same engine over paged adjacency: every
/// field of its answer must equal the local one bit for bit.
fn check_bit_identical(local: &TopKResult, dist: &TopKResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&local.ranking, &dist.ranking);
    prop_assert_eq!(&local.bounds, &dist.bounds);
    prop_assert_eq!(local.expansions, dist.expansions);
    prop_assert_eq!(local.converged, dist.converged);
    prop_assert_eq!(local.active, dist.active);
    prop_assert_eq!(local.work, dist.work);
    Ok(())
}

/// The work counts add up: no side expands in more rounds than the search
/// ran, a one-sided measure expands its live side every round and never
/// touches the inert one, and a two-sided search moves some side every
/// round and names a binding Eq. 16 term per query node per round.
fn check_work(
    what: &str,
    measure: Measure,
    arity: usize,
    r: &TopKResult,
) -> Result<(), TestCaseError> {
    let (w, rounds) = (r.work, r.expansions);
    prop_assert!(
        w.f_rounds <= rounds && w.t_rounds <= rounds,
        "{}: {:?}",
        what,
        w
    );
    let binds = w.bound_both + w.bound_f + w.bound_t;
    let inert_f = (w.f_rounds, w.bca_pushes, w.f_sweeps) == (0, 0, 0);
    let inert_t = (w.t_rounds, w.t_absorbed, w.t_sweeps) == (0, 0, 0);
    match measure {
        Measure::F | Measure::RtrPlus { beta: 0.0 } => {
            prop_assert!(
                inert_t && w.f_rounds == rounds && binds == 0,
                "{}: {:?}",
                what,
                w
            );
        }
        Measure::T | Measure::RtrPlus { beta: 1.0 } => {
            prop_assert!(
                inert_f && w.t_rounds == rounds && binds == 0,
                "{}: {:?}",
                what,
                w
            );
        }
        _ => {
            prop_assert!(w.f_rounds + w.t_rounds >= rounds, "{}: {:?}", what, w);
            prop_assert!(binds == rounds * arity, "{}: {:?}", what, w);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn neighborhood_bounds_sandwich_exact_ranks_after_every_round(
        kind in 0..3u8,
        seed in 0..u64::MAX,
        pick in 0..10_000usize,
        m_f in 1..60usize,
        m_t in 1..7usize,
    ) {
        let g = &random_graph(kind, seed);
        let q = NodeId((pick % g.node_count()) as u32);
        let params = oracle_params();
        let query = Query::single(q);
        let exact_f = FRank::new(params).compute(g, &query).expect("exact F-Rank");
        let exact_t = TRank::new(params).compute(g, &query).expect("exact T-Rank");
        let mut f = FNeighborhood::new(&g, q, &params, FBoundMode::TwoStage).expect("f");
        let mut t = TNeighborhood::new(&g, q, &params, TBoundMode::TwoStage).expect("t");
        let (mut f_unseen, mut t_unseen) = (f.unseen_upper(), t.unseen_upper());
        let mut a = g;
        for round in 0..12 {
            f.expand(&mut a, m_f).expect("in-memory graph");
            f.refine(&a, 1e-12, 50);
            t.expand(&mut a, m_t).expect("in-memory graph");
            t.refine(&a, 1e-12, 50);
            prop_assert!(f.unseen_upper() <= f_unseen + 1e-12, "round {round}: f̂(q) rose");
            prop_assert!(t.unseen_upper() <= t_unseen + 1e-12, "round {round}: t̂(q) rose");
            (f_unseen, t_unseen) = (f.unseen_upper(), t.unseen_upper());
            for v in g.nodes() {
                let (fb, tb) = (f.effective_bounds(v), t.effective_bounds(v));
                prop_assert!(
                    fb.contains(exact_f.score(v), 1e-9),
                    "kind {kind} seed {seed} q {q:?} round {round}: F-Rank of {v:?} = {} outside [{}, {}]",
                    exact_f.score(v), fb.lower, fb.upper
                );
                prop_assert!(
                    tb.contains(exact_t.score(v), 1e-9),
                    "kind {kind} seed {seed} q {q:?} round {round}: T-Rank of {v:?} = {} outside [{}, {}]",
                    exact_t.score(v), tb.lower, tb.upper
                );
            }
        }
    }

    // Every measure — F and T alone, RTR, RTR+ from β = 0 to β = 1 — over a
    // weighted query of one to three nodes runs the one search loop: its
    // bounds bracket the exact scores, the answer keeps the ε-contract, its
    // work counts add up, and the AP reproduces it bit for bit.
    #[test]
    fn top_k_engines_keep_the_epsilon_contract_locally_and_distributed(
        kind in 0..3u8,
        seed in 0..u64::MAX,
        arity in 1..4usize,
        knobs in (1..13usize, 0..3usize, 0..3usize, 0..3usize),
        gps in 1..4usize,
    ) {
        let g = &random_graph(kind, seed);
        let query = random_query(g, arity, seed);
        let params = oracle_params();
        let (k, eps_at, m_f_at, m_t_at) = knobs;
        let eps = [0.003, 0.01, 0.03][eps_at];
        let cfg = TopKConfig {
            k,
            epsilon: eps,
            m_f: [4, 20, 100][m_f_at],
            m_t: [1, 2, 5][m_t_at],
            ..TopKConfig::default()
        };
        let cluster = GpCluster::spawn(g, gps);
        let (mut ws, mut dist_ws) = (TopKWorkspace::default(), DistributedWorkspace::new());
        for measure in MEASURES {
            let what = format!("{measure}, kind {kind} seed {seed} {query:?} {cfg:?}");
            let exact = exact_measure(g, &query, measure, params);
            let engine = TwoSBound::for_measure(params, cfg, measure)
                .expect("valid measure");
            let local = engine.run_query_with(g, &query, &mut ws).expect("local search");
            check_contract(&what, g, &local, &exact, k, eps)?;
            check_work(&what, measure, query.len(), &local)?;
            let (dist, _) = DistributedTwoSBound::from(engine)
                .run_query_with(&cluster, &query, &mut dist_ws)
                .expect("distributed search");
            check_bit_identical(&local, &dist)?;
            if let [q] = query.nodes() {
                // The single-node entry points are the same loop.
                check_bit_identical(&local, &engine.run(g, *q).expect("single-node search"))?;
            }
        }
    }

    // The AP serves adjacency straight from the bytes a GP sent. For every
    // node of a random graph that byte view must be the graph's own
    // adjacency — same neighbours in the same order, probabilities equal
    // bit for bit — and must agree with the owned decoder on the same
    // bytes, at any GP count.
    #[test]
    fn paged_byte_view_equals_the_graph_for_every_node(
        kind in 0..3u8,
        seed in 0..u64::MAX,
        gps in 1..4usize,
    ) {
        let g = &random_graph(kind, seed);
        let cluster = GpCluster::spawn(g, gps);
        let (mut cache, mut slot) = (BlockCache::new(), ReplySlot::new());
        let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        let all: Vec<u32> = g.nodes().map(|v| v.0).collect();
        active.ensure(&all).expect("healthy cluster");
        prop_assert_eq!(active.blocks_fetched(), g.node_count());
        let bits = |edges: Vec<(NodeId, f64)>| -> Vec<(NodeId, u64)> {
            edges.into_iter().map(|(n, p)| (n, p.to_bits())).collect()
        };
        for v in g.nodes() {
            prop_assert_eq!(active.out_degree(v), g.out_degree(v));
            prop_assert_eq!(active.in_degree(v), g.in_degree(v));
            prop_assert_eq!(active.node_footprint_bytes(v), g.node_footprint_bytes(v));
            prop_assert_eq!(
                bits(active.out_edges(v).collect()),
                bits(g.out_edges(v).collect())
            );
            prop_assert_eq!(
                bits(active.in_edges(v).collect()),
                bits(g.in_edges(v).collect())
            );
        }
        // The same bytes through the owned decoder.
        let mut slot = ReplySlot::new();
        let wanted: Vec<NodeId> = g.nodes().collect();
        for payload in cluster.fetch(&wanted, &mut slot).expect("healthy cluster") {
            let mut rest = bytes::Bytes::from(payload.clone());
            while let Some(view) = BlockView::parse(rest.as_slice()) {
                let (node, owned) = (view.node(), view.to_block());
                prop_assert_eq!(&owned, &NodeBlock::extract(g, node));
                prop_assert_eq!(NodeBlock::decode(&mut rest), Some(owned));
            }
            prop_assert!(rest.is_empty());
        }
    }
}
