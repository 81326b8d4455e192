//! Property suite: the set-free `ActiveSetStats` against a `BTreeSet`.
//!
//! The bound search measures a query's active set without a set over the
//! graph's ids: one query node's neighborhoods as `S_t ∪ (S_f \ S_t)` with
//! T's membership test, a lone side as its own member list, a 2–4-node
//! query by sorting its members, an exact answer as the whole graph twice.
//! Each way must count what a `BTreeSet` union of the same random,
//! overlapping member lists counts.

use proptest::collection;
use proptest::prelude::*;
use rtr_graph::{Graph, GraphBuilder, NodeId};
use rtr_topk::ActiveSetStats;
use std::collections::BTreeSet;

const N: u32 = 48;

/// Degrees that differ node by node, so a miscounted node shows in the
/// edge and byte totals, not only in the node count.
fn graph() -> Graph {
    let mut b = GraphBuilder::new();
    let ty = b.register_type("n");
    for _ in 0..N {
        b.add_node(ty);
    }
    for v in 0..N {
        for i in 0..=v % 5 {
            b.add_edge(NodeId(v), NodeId((v * 7 + i * 11 + 1) % N), 1.0);
        }
    }
    b.build()
}

/// One query node's `S_f` and `S_t`: each lists its members once, in a
/// random order, and the two overlap at random.
fn arb_pair() -> impl Strategy<Value = (Vec<NodeId>, Vec<NodeId>)> {
    let side = || {
        collection::vec(0..N, 0..16).prop_map(|ids| {
            let mut seen = BTreeSet::new();
            ids.into_iter()
                .filter(|&v| seen.insert(v))
                .map(NodeId)
                .collect::<Vec<_>>()
        })
    };
    (side(), side())
}

/// The sides' sizes, and the union's nodes, edges and bytes via a set.
fn reference<'a>(
    g: &Graph,
    f: impl IntoIterator<Item = &'a NodeId>,
    t: impl IntoIterator<Item = &'a NodeId>,
) -> ActiveSetStats {
    let (f, t): (Vec<_>, Vec<_>) = (f.into_iter().collect(), t.into_iter().collect());
    let union: BTreeSet<NodeId> = f.iter().chain(&t).map(|&&v| v).collect();
    ActiveSetStats {
        f_nodes: f.len(),
        t_nodes: t.len(),
        active_nodes: union.len(),
        active_edges: union
            .iter()
            .map(|&v| g.out_degree(v) + g.in_degree(v))
            .sum(),
        bytes: union.iter().map(|&v| g.node_footprint_bytes(v)).sum(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn every_way_of_measuring_counts_the_set_union(
        pairs in collection::vec(arb_pair(), 1..5),
    ) {
        let g = graph();
        let none = std::iter::empty::<NodeId>;
        let (f, t) = &pairs[0];
        let in_t = |v: NodeId| t.contains(&v);
        // A lone side, then one query node's pair.
        prop_assert_eq!(
            ActiveSetStats::measure_pair(&g, f.iter().copied(), none(), |_| false),
            reference(&g, f, &[])
        );
        prop_assert_eq!(
            ActiveSetStats::measure_pair(&g, none(), t.iter().copied(), |_| true),
            reference(&g, &[], t)
        );
        prop_assert_eq!(
            ActiveSetStats::measure_pair(&g, f.iter().copied(), t.iter().copied(), in_t),
            reference(&g, f, t)
        );
        // Every query node's members at once, duplicates across nodes
        // included, through one reused scratch list.
        let mut scratch = vec![N + 1; 3];
        for _ in 0..2 {
            let fs = pairs.iter().flat_map(|(f, _)| f.iter().copied());
            let ts = pairs.iter().flat_map(|(_, t)| t.iter().copied());
            prop_assert_eq!(
                ActiveSetStats::measure(&mut scratch, &g, fs, ts),
                reference(
                    &g,
                    pairs.iter().flat_map(|(f, _)| f),
                    pairs.iter().flat_map(|(_, t)| t),
                )
            );
        }
    }
}

#[test]
fn an_exact_answer_measures_the_whole_graph_once() {
    let g = graph();
    let all: Vec<NodeId> = g.nodes().collect();
    let stats = ActiveSetStats::measure_pair(&g, g.nodes(), g.nodes(), |_| true);
    assert_eq!(stats, reference(&g, &all, &all));
    assert_eq!(stats.active_nodes, g.node_count());
    assert_eq!(stats.active_edges, 2 * g.edge_count());
}
