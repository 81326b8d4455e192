//! The graph's one adjacency layout against a naive reference.
//!
//! Random edge lists — parallel edges, self-loops, dangling and isolated
//! nodes, graphs of zero and one node — are built twice: by
//! `GraphBuilder` into the block arena, cold out-table, raw-weight column
//! and label column, and by a `BTreeMap` that merges parallel edges left
//! to right in insertion order. Every accessor must agree with the
//! reference bit for bit, and every node's arena bytes must be the wire
//! encoding of the reference block, at the byte range its slot offsets
//! name. Random labels (empty, multi-byte, repeated) are held against a
//! `Vec<String>`, and the text format either refuses a graph or reads it
//! back bit for bit. On a generated graph, the resident bytes must be
//! exactly the layout's, and the transforms that rebuild a graph keep
//! every node's label.

use bytes::BytesMut;
use proptest::prelude::*;
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::io::{read_graph, write_graph, IoError};
use rtr_graph::scc::IrreducibilityRepair;
use rtr_graph::view::Subgraph;
use rtr_graph::wire::{self, NodeBlock};
use rtr_graph::{EdgeWeights, Graph, GraphBuilder, NodeId, NodeLabels};
use std::collections::BTreeMap;

/// Weights that make summation order visible (0.1 is inexact, 1e16 swallows
/// a 1.0 added after it).
const WEIGHTS: [f64; 6] = [0.1, 0.25, 1.0, 1.0, 3.0, 1e16];

/// Labels for the label arena: empty, multi-byte, and prefixes of each other.
const LABELS: [&str; 5] = ["", "a", "ab", "Zürich · 東京", "ß"];

/// Labels for the text format, with whether it can carry them: a tab, CR
/// or LF anywhere, or trailing whitespace, would not read back.
const TEXT_LABELS: [(&str, bool); 10] = [
    ("", true),
    (" lead and  inner", true),
    ("Zürich · 東京", true),
    ("#not a comment", true),
    ("VLDB ", false),
    ("a\tb", false),
    ("a\nb", false),
    ("a\rb", false),
    ("x\r", false),
    ("nbsp\u{a0}", false),
];

/// Type names for the text format, as [`TEXT_LABELS`]; an empty one would
/// not read back beside an empty label.
const TEXT_TYPES: [(&str, bool); 5] = [
    ("venue", true),
    ("p q", true),
    ("venue ", false),
    ("t\tx", false),
    ("", false),
];

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

fn build(labels: &[String], edges: &[(u32, u32, f64)]) -> (Graph, EdgeWeights, NodeLabels) {
    let mut b = GraphBuilder::new();
    let ty = b.register_type("n");
    for label in labels {
        b.add_labeled_node(ty, label);
    }
    for &(s, d, w) in edges {
        b.add_edge(NodeId(s), NodeId(d), w);
    }
    b.build_with_columns()
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
        let (g, weights, column) = build(&labels, &edges);
        let merged = reference(&edges);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(weights.len(), merged.len());
        prop_assert_eq!(column.len(), n);
        for v in g.nodes() {
            prop_assert_eq!(column.label(&g, v), labels[v.index()].as_str());
        }
        for label in LABELS {
            let first = labels.iter().position(|l| l == label).map(NodeId::from_index);
            prop_assert_eq!(column.find_by_label(&g, label), first);
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
        let (g, _, _) = build(&vec![String::new(); n], &edges);
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

    // Every write either refuses the graph, naming its first node with a
    // name the format cannot carry, or reads back bit for bit.
    #[test]
    fn text_io_refuses_or_reads_back_bit_for_bit(
        case in arb_edges(7, 24),
        picks in proptest::collection::vec((0..40usize, 0..20usize), 7..8),
    ) {
        let (n, edges) = case;
        // Every name, but mostly writable ones (the first four labels and
        // the first two types), so both outcomes are common.
        let pick = |(l, t): (usize, usize)| {
            let label = TEXT_LABELS.get(l).unwrap_or(&TEXT_LABELS[l % 4]);
            let ty = TEXT_TYPES.get(t).unwrap_or(&TEXT_TYPES[t % 2]);
            (*label, *ty)
        };
        let names: Vec<_> = picks[..n].iter().map(|&p| pick(p)).collect();
        let mut b = GraphBuilder::new();
        for &((label, _), (ty, _)) in &names {
            let ty = b.register_type(ty);
            b.add_labeled_node(ty, label);
        }
        for &(s, d, w) in &edges {
            b.add_edge(NodeId(s), NodeId(d), w);
        }
        let (g, weights, labels) = b.build_with_columns();
        let refused = names.iter().position(|&((_, l), (_, t))| !(l && t));
        let mut buf = Vec::new();
        match write_graph(&g, &weights, &labels, &mut buf) {
            Err(IoError::Unwritable { node, .. }) => {
                prop_assert_eq!(Some(node.index()), refused);
                prop_assert!(buf.is_empty(), "a refused graph wrote {} bytes", buf.len());
            }
            Err(e) => prop_assert!(false, "write failed: {e}"),
            Ok(()) => {
                prop_assert_eq!(refused, None);
                let (back, back_weights, back_labels) =
                    read_graph(buf.as_slice()).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(back.node_count(), n);
                prop_assert_eq!(back.edge_count(), g.edge_count());
                for v in g.nodes() {
                    prop_assert_eq!(back_labels.label(&back, v), labels.label(&g, v));
                    prop_assert_eq!(
                        back.types().name(back.node_type(v)),
                        g.types().name(g.node_type(v))
                    );
                    prop_assert_eq!(
                        bits(back_weights.out_edges(&back, v)),
                        bits(weights.out_edges(&g, v))
                    );
                    prop_assert_eq!(bits(back.out_edges(v)), bits(g.out_edges(v)));
                    prop_assert_eq!(bits(back.in_edges(v)), bits(g.in_edges(v)));
                }
            }
        }
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
    assert_eq!(
        parts.keys().copied().collect::<Vec<_>>(),
        ["adjacency", "cold_table", "node_types"]
    );
    assert_eq!(parts["adjacency"], 12 * n + 24 * m + 4 * (n + 1));
    assert_eq!(parts["cold_table"], 4 * (n + 1) + 4 * m);
    assert_eq!(parts["node_types"], n);
    assert_eq!(g.memory_bytes(), parts.values().sum::<usize>());
    // Every block is one 12-byte header slot plus one slot per edge end.
    let slots: usize = g.nodes().map(|v| 1 + g.total_degree(v)).sum();
    assert_eq!(g.blocks().as_bytes().len(), slots * wire::EDGE_BYTES);
    // The raw weights and the labels are the columns', not the graph's.
    assert_eq!(log.edge_weights.len(), m);
    assert_eq!(log.labels.len(), n);
}

#[test]
fn repair_and_induce_keep_the_parents_labels() {
    let log = QLog::generate(&QLogConfig::tiny(), 7);
    let (g, labels) = (&log.graph, &log.labels);
    // Every third node in descending id order: new ids, a new label order.
    let keep: Vec<NodeId> = (0..g.node_count() as u32)
        .rev()
        .step_by(3)
        .map(NodeId)
        .collect();
    let sub = Subgraph::induce(g, &log.edge_weights, labels, &keep);
    assert_eq!(sub.labels.len(), keep.len());
    for new in sub.graph.nodes() {
        let old = sub.to_parent(new);
        assert_eq!(sub.labels.label(&sub.graph, new), labels.label(g, old));
    }
    // Only the ascending edges: a DAG of singleton components, which the
    // repair rebuilds with dummy edges.
    let mut b = GraphBuilder::new();
    for (_, name) in g.types().iter() {
        b.register_type(name);
    }
    for v in g.nodes() {
        b.add_labeled_node(g.node_type(v), labels.label(g, v));
    }
    for v in g.nodes() {
        for (d, w) in log.edge_weights.out_edges(g, v).filter(|&(d, _)| d > v) {
            b.add_edge(v, d, w);
        }
    }
    let (dag, weights, dag_labels) = b.build_with_columns();
    let (fixed, fixed_labels, added) =
        IrreducibilityRepair::default().repair(&dag, &weights, &dag_labels);
    assert!(added > 0);
    assert_eq!(fixed_labels.len(), g.node_count());
    for v in g.nodes() {
        assert_eq!(fixed_labels.label(&fixed, v), labels.label(g, v));
    }
}
