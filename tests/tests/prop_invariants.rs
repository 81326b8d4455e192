//! Property-based invariants over randomly generated graphs.
//!
//! These are the contracts the paper's derivations rest on:
//! * transition rows are stochastic (or zero for dangling nodes);
//! * F-Rank/T-Rank are probability-bounded and the decomposition
//!   `r ∝ f·t` equals brute-force round-trip enumeration (Prop. 2);
//! * 2SBound bounds always sandwich the exact scores and its ε = 0 top-K
//!   matches the exact ranking (Eq. 13–14);
//! * the irreducibility repair makes any graph strongly connected;
//! * metric axioms for NDCG and Kendall's tau.

use proptest::prelude::*;
use rtr_core::enumerate::{rtr_by_enumeration, rtr_constant};
use rtr_core::prelude::*;
use rtr_eval::{kendall_tau, ndcg_at_k};
use rtr_graph::prelude::*;
use rtr_graph::scc::tarjan_scc;
use rtr_graph::{Graph, NodeId};
use rtr_topk::prelude::*;

/// Strategy: a random directed weighted graph with `n` nodes and up to
/// `max_edges` edges (at least a spanning cycle so queries are never dead
/// ends and the graph is strongly connected).
fn arb_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (
        2..max_n,
        proptest::collection::vec((0..1000u32, 0..1000u32, 1..100u32), 0..max_edges),
    )
        .prop_map(move |(n, edges)| {
            let mut b = GraphBuilder::new();
            let ty = b.register_type("n");
            let nodes: Vec<_> = (0..n).map(|_| b.add_node(ty)).collect();
            // Spanning cycle guarantees irreducibility.
            for i in 0..n {
                b.add_edge(nodes[i], nodes[(i + 1) % n], 1.0);
            }
            for (s, d, w) in edges {
                let s = nodes[(s as usize) % n];
                let d = nodes[(d as usize) % n];
                b.add_edge(s, d, w as f64);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn transition_rows_stochastic(g in arb_graph(24, 80)) {
        for v in g.nodes() {
            let total: f64 = g.out_edges(v).map(|(_, p)| p).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "row {v:?} sums to {total}");
        }
    }

    #[test]
    fn frank_trank_are_probabilities(g in arb_graph(20, 60)) {
        let params = RankParams::default();
        let q = Query::single(NodeId(0));
        let f = FRank::new(params).compute(&g, &q).unwrap();
        let t = TRank::new(params).compute(&g, &q).unwrap();
        // f is a distribution over targets; t is per-start probability.
        prop_assert!((f.total() - 1.0).abs() < 1e-6);
        for v in g.nodes() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&f.score(v)));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&t.score(v)));
        }
    }

    #[test]
    fn decomposition_matches_enumeration(g in arb_graph(10, 25)) {
        // Prop. 2 with constant walk lengths on random graphs.
        let q = NodeId(0);
        let by_enum = rtr_by_enumeration(&g, q, 2, 2);
        let by_product = rtr_constant(&g, q, 2, 2);
        prop_assert!(by_enum.linf_distance(&by_product) < 1e-9);
    }

    #[test]
    fn bca_matches_iterative_frank(g in arb_graph(20, 60)) {
        let params = RankParams::default();
        let q = NodeId(0);
        let exact = FRank::new(params).compute(&g, &Query::single(q)).unwrap();
        let mut bca = rtr_core::bca::Bca::new(&g, q, &params).unwrap();
        bca.run_to_residual(&mut &g, 1e-10, 16).unwrap();
        for v in g.nodes() {
            prop_assert!((bca.rho(v) - exact.score(v)).abs() < 1e-7);
        }
    }

    #[test]
    fn topk_bounds_sandwich_and_match_exact(g in arb_graph(18, 50)) {
        let params = RankParams::default();
        let q = NodeId(0);
        let exact = RoundTripRank::new(params)
            .compute(&g, &Query::single(q))
            .unwrap();
        let cfg = TopKConfig {
            k: 5,
            epsilon: 0.0,
            m_f: 8,
            m_t: 3,
            max_expansions: 20_000,
            ..TopKConfig::default()
        };
        let result = TwoSBound::new(params, cfg).run(&g, q).unwrap();
        // Bounds sandwich.
        for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
            let s = exact.score(*v);
            prop_assert!(s >= lo - 1e-9 && s <= hi + 1e-9);
        }
        // Scores agree with the exact top-K.
        let want = exact.top_k(result.ranking.len());
        for (got, want) in result.ranking.iter().zip(&want) {
            prop_assert!((exact.score(*got) - exact.score(*want)).abs() < 1e-9);
        }
    }

    #[test]
    fn rtr_plus_interpolates_endpoints(g in arb_graph(16, 40), beta in 0.0f64..=1.0) {
        let params = RankParams::default();
        let q = Query::single(NodeId(1));
        let f = FRank::new(params).compute(&g, &q).unwrap();
        let t = TRank::new(params).compute(&g, &q).unwrap();
        let blend = RoundTripRankPlus::new(params, beta).unwrap().blend(&f, &t);
        for v in g.nodes() {
            let lo = f.score(v).min(t.score(v));
            let hi = f.score(v).max(t.score(v));
            // Weighted geometric mean lies between its factors.
            prop_assert!(blend.score(v) >= lo - 1e-12 && blend.score(v) <= hi + 1e-12);
        }
    }

    #[test]
    fn repair_always_yields_strong_connectivity(
        n in 2usize..20,
        edges in proptest::collection::vec((0..100u32, 0..100u32), 0..40)
    ) {
        // Arbitrary (possibly disconnected) graph.
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(ty)).collect();
        for (s, d) in edges {
            let s = nodes[(s as usize) % n];
            let d = nodes[(d as usize) % n];
            if s != d {
                b.add_edge(s, d, 1.0);
            }
        }
        let (g, weights, labels) = b.build_with_columns();
        let (fixed, _, _) = IrreducibilityRepair::default().repair(&g, &weights, &labels);
        prop_assert!(tarjan_scc(&fixed).is_strongly_connected());
    }

    #[test]
    fn ndcg_bounded_and_monotone_in_k(
        ranking in proptest::collection::vec(0..50u32, 1..20),
        truth in proptest::collection::vec(0..50u32, 1..8)
    ) {
        // Result lists never contain duplicates; dedup the raw sample.
        let mut seen = std::collections::HashSet::new();
        let ranking: Vec<NodeId> = ranking
            .into_iter()
            .map(NodeId)
            .filter(|v| seen.insert(*v))
            .collect();
        let truth: Vec<NodeId> = truth.into_iter().map(NodeId).collect();
        if ranking.is_empty() {
            return Ok(());
        }
        for k in 1..=ranking.len() {
            let v = ndcg_at_k(&ranking, &truth, k);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
        // A ranking that leads with the entire ground truth is perfect.
        let mut rest: Vec<NodeId> = ranking
            .iter()
            .copied()
            .filter(|v| !truth.contains(v))
            .collect();
        let mut unique_truth: Vec<NodeId> = truth.clone();
        unique_truth.sort_unstable();
        unique_truth.dedup();
        let mut perfect = unique_truth.clone();
        perfect.append(&mut rest);
        let k = perfect.len();
        prop_assert!((ndcg_at_k(&perfect, &unique_truth, k) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_range_and_self_identity(
        items in proptest::collection::vec(0..100u32, 2..15)
    ) {
        let mut order: Vec<NodeId> = items.into_iter().map(NodeId).collect();
        order.sort_unstable();
        order.dedup();
        if order.len() >= 2 {
            let tau = kendall_tau(&order, &order);
            prop_assert!((tau - 1.0).abs() < 1e-12);
            let mut rev = order.clone();
            rev.reverse();
            let tau = kendall_tau(&rev, &order);
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&tau));
        }
    }
}
