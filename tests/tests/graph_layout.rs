//! The graph's one adjacency layout against a naive reference.
//!
//! Random edge lists — parallel edges, self-loops, dangling and isolated
//! nodes, graphs of zero and one node — are built twice: by
//! `GraphBuilder` into the block arena, cold out-table and raw-weight
//! column, and by a `BTreeMap` that merges parallel edges left to right in
//! insertion order. Every accessor must agree with the reference bit for
//! bit, and every node's arena bytes must be the wire encoding of the
//! reference block, at the byte range its slot offsets name. Random labels
//! (empty, multi-byte, repeated) are held against a `Vec<String>`. On a
//! generated graph, the resident bytes must be exactly the layout's.

use bytes::BytesMut;
use proptest::prelude::*;
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::wire::{self, NodeBlock};
use rtr_graph::{EdgeWeights, Graph, GraphBuilder, NodeId};
use std::collections::BTreeMap;

/// Weights that make summation order visible (0.1 is inexact, 1e16 swallows
/// a 1.0 added after it).
const WEIGHTS: [f64; 6] = [0.1, 0.25, 1.0, 1.0, 3.0, 1e16];

/// Labels for the label arena: empty, multi-byte, and prefixes of each other.
const LABELS: [&str; 5] = ["", "a", "ab", "Zürich · 東京", "ß"];

/// An edge list over `n` nodes, `n` in `0..max_n`.
fn arb_edges(
    max_n: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (
        0..max_n,
        proptest::collection::vec((0..64u32, 0..64u32, 0..WEIGHTS.len()), 0..max_edges),
    )
        .prop_map(|(n, raw)| {
            let edges = if n == 0 {
                Vec::new()
            } else {
                raw.into_iter()
                    .map(|(s, d, w)| (s % n as u32, d % n as u32, WEIGHTS[w]))
                    .collect()
            };
            (n, edges)
        })
}

fn build(labels: &[String], edges: &[(u32, u32, f64)]) -> (Graph, EdgeWeights) {
    let mut b = GraphBuilder::new();
    let ty = b.register_type("n");
    for label in labels {
        b.add_labeled_node(ty, label);
    }
    for &(s, d, w) in edges {
        b.add_edge(NodeId(s), NodeId(d), w);
    }
    b.build_with_weights()
}

/// The reference: merged weights keyed `(src, dst)`, ascending.
fn reference(edges: &[(u32, u32, f64)]) -> BTreeMap<(u32, u32), f64> {
    let mut merged = BTreeMap::new();
    for &(s, d, w) in edges {
        *merged.entry((s, d)).or_insert(0.0) += w;
    }
    merged
}

/// Reference out-row of `v`: `(dst, weight, prob)`, ascending by `dst`.
fn out_row(merged: &BTreeMap<(u32, u32), f64>, v: u32) -> Vec<(u32, f64, f64)> {
    let row: Vec<_> = merged.range((v, 0)..=(v, u32::MAX)).collect();
    let total: f64 = row.iter().map(|(_, &w)| w).sum();
    row.into_iter()
        .map(|(&(_, d), &w)| (d, w, w / total))
        .collect()
}

/// Reference block of `v` in owned form.
fn reference_block(merged: &BTreeMap<(u32, u32), f64>, n: usize, v: u32) -> NodeBlock {
    let in_edges = (0..n as u32)
        .filter_map(|s| {
            out_row(merged, s)
                .into_iter()
                .find(|&(d, _, _)| d == v)
                .map(|(_, _, p)| (NodeId(s), p))
        })
        .collect();
    NodeBlock {
        node: NodeId(v),
        out_edges: out_row(merged, v)
            .into_iter()
            .map(|(d, _, p)| (NodeId(d), p))
            .collect(),
        in_edges,
    }
}

fn bits(edges: impl Iterator<Item = (NodeId, f64)>) -> Vec<(u32, u64)> {
    edges.map(|(n, x)| (n.0, x.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn accessors_match_the_reference_bit_for_bit(
        case in arb_edges(9, 40),
        picks in proptest::collection::vec(0..LABELS.len(), 9..10),
    ) {
        let (n, edges) = case;
        let labels: Vec<String> = picks[..n].iter().map(|&i| LABELS[i].to_owned()).collect();
        let (g, weights) = build(&labels, &edges);
        let merged = reference(&edges);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(weights.len(), merged.len());
        for v in g.nodes() {
            prop_assert_eq!(g.label(v), labels[v.index()].as_str());
        }
        for label in LABELS {
            let first = labels.iter().position(|l| l == label).map(NodeId::from_index);
            prop_assert_eq!(g.find_by_label(label), first);
        }
        prop_assert_eq!(g.edge_count(), merged.len());
        prop_assert_eq!(g.has_self_loops(), merged.keys().any(|&(s, d)| s == d));
        for v in g.nodes() {
            let want = reference_block(&merged, n, v.0);
            prop_assert_eq!(bits(g.out_edges(v)), bits(want.out_edges.iter().copied()));
            prop_assert_eq!(bits(g.in_edges(v)), bits(want.in_edges.iter().copied()));
            let row = out_row(&merged, v.0);
            prop_assert_eq!(
                bits(weights.out_edges(&g, v)),
                bits(row.iter().map(|&(d, w, _)| (NodeId(d), w)))
            );
            let total: f64 = row.iter().map(|&(_, w, _)| w).sum();
            prop_assert_eq!(weights.weighted_out_degree(&g, v).to_bits(), total.to_bits());
            // The graph's own rows are probabilities only, shim included.
            prop_assert_eq!(bits(g.out_edges_weighted(v)), bits(g.out_edges(v)));
            prop_assert_eq!(g.out_degree(v), want.out_edges.len());
            prop_assert_eq!(g.in_degree(v), want.in_edges.len());
            prop_assert_eq!(g.total_degree(v), want.out_edges.len() + want.in_edges.len());
            prop_assert_eq!(g.is_dangling(v), row.is_empty());
            let neighbors: Vec<_> = row.iter().map(|&(d, _, _)| NodeId(d)).collect();
            prop_assert_eq!(g.out_neighbors(v), neighbors.as_slice());
        }
    }

    #[test]
    fn arena_bytes_are_the_wire_encoding(case in arb_edges(9, 40)) {
        let (n, edges) = case;
        let (g, _) = build(&vec![String::new(); n], &edges);
        let merged = reference(&edges);
        let mut whole = Vec::new();
        for v in g.nodes() {
            let extracted = NodeBlock::extract(&g, v);
            prop_assert_eq!(&extracted, &reference_block(&merged, n, v.0));
            let mut encoded = BytesMut::new();
            extracted.encode(&mut encoded);
            // The slot offsets name exactly the bytes the reference block
            // takes when the blocks before it are laid back to back.
            let range = whole.len()..whole.len() + encoded.len();
            prop_assert_eq!(g.blocks().byte_range(v), Some(range));
            prop_assert_eq!(g.blocks().get(v), Some(encoded.as_slice()));
            whole.extend_from_slice(encoded.as_slice());
        }
        // Blocks back to back in id order, and nothing else.
        prop_assert_eq!(g.blocks().as_bytes(), whole.as_slice());
        prop_assert_eq!(g.blocks().len(), n);
        prop_assert_eq!(g.blocks().byte_range(NodeId(n as u32)), None);
    }
}

#[test]
fn resident_bytes_are_exactly_the_layout() {
    // A graph holding any column beyond its blocks, their `u32` slot
    // offsets and the `u32` out-table fails here.
    let log = QLog::generate(&QLogConfig::tiny(), 7);
    let g = &log.graph;
    let (n, m) = (g.node_count(), g.edge_count());
    assert!(m > n, "a generated graph with edges: |V| = {n}, |E| = {m}");
    let parts: BTreeMap<_, _> = g.resident_bytes().into_iter().collect();
    assert_eq!(parts["adjacency"], 12 * n + 24 * m + 4 * (n + 1));
    assert_eq!(parts["cold_table"], 4 * (n + 1) + 4 * m);
    assert_eq!(parts["node_types"], n);
    // Every block is one 12-byte header slot plus one slot per edge end.
    let slots: usize = g.nodes().map(|v| 1 + g.total_degree(v)).sum();
    assert_eq!(g.blocks().as_bytes().len(), slots * wire::EDGE_BYTES);
    // The raw weights are the column's, not the graph's.
    assert_eq!(log.edge_weights.len(), m);
}
