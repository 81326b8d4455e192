//! Mutable edge-list builder producing a frozen [`Graph`].
//!
//! Build-time representation is a plain edge list; [`GraphBuilder::build`]
//! groups it into rows with counting passes (no comparison sort over the
//! whole list), merges parallel edges by summing weights (the QLog click
//! counts of Sect. VI are exactly such summed multiplicities),
//! row-normalizes into transition probabilities, and writes the [`Graph`]'s
//! block arena and cold out-table. The merged raw weights leave the build
//! as an [`EdgeWeights`] column of their own, or not at all.

use crate::graph::{EdgeWeights, Graph};
use crate::node::{Labels, NodeId, NodeTypeId, TypeRegistry};
use crate::wire::{self, BlockArena, EDGE_BYTES};
use std::sync::Arc;

/// The graph's two `u32` offset tables checked in one place: the
/// out-table counts edges, the block arena counts [`EDGE_BYTES`] slots
/// (one per node plus one per edge end). Returns `(|E|, |V| + 2·|E|)`.
///
/// # Panics
///
/// If either count does not fit in `u32`: the graph is too large for the
/// layout.
fn offset_widths(nodes: usize, edges: usize) -> (u32, u32) {
    let narrow = |count: Option<usize>, what: &str| {
        count
            .and_then(|c| u32::try_from(c).ok())
            .unwrap_or_else(|| panic!("graph too large: its {what} exceed the u32 offset tables"))
    };
    let slots = edges.checked_mul(2).and_then(|e| e.checked_add(nodes));
    (narrow(Some(edges), "edges"), narrow(slots, "arena slots"))
}

/// Incrementally constructs a graph; see module docs.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    types: TypeRegistry,
    node_types: Vec<NodeTypeId>,
    labels: Labels,
    edges: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty builder with node/edge capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            types: TypeRegistry::new(),
            node_types: Vec::with_capacity(nodes),
            labels: Labels::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Register (or look up) a node-type name.
    pub fn register_type(&mut self, name: &str) -> NodeTypeId {
        self.types.register(name)
    }

    /// Read-only access to the type registry being built.
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    /// Add a node of the given type with an empty label.
    pub fn add_node(&mut self, ty: NodeTypeId) -> NodeId {
        self.add_labeled_node(ty, "")
    }

    /// Add a node of the given type with a human-readable label
    /// (used by the illustrative-ranking outputs, paper Figs. 6–7).
    pub fn add_labeled_node(&mut self, ty: NodeTypeId, label: &str) -> NodeId {
        assert!(ty.index() < self.types.len().max(1), "unregistered type");
        let id = NodeId::from_index(self.node_types.len());
        self.node_types.push(ty);
        self.labels.push(label);
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_types.len()
    }

    /// Add a directed edge `src -> dst` with positive weight.
    ///
    /// Parallel edges are allowed and merged at build time: their weights
    /// are summed left to right in the order they were added, so the merged
    /// weight is the same for every build of the same edge sequence.
    /// Self-loops are allowed; the paper's toy example has none but nothing
    /// in the model forbids them.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f64) {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "edge weight must be positive and finite, got {weight}"
        );
        assert!(src.index() < self.node_types.len(), "unknown source node");
        assert!(dst.index() < self.node_types.len(), "unknown target node");
        self.edges.push((src.0, dst.0, weight));
    }

    /// Add an undirected edge: per the paper (Sect. I), "an undirected edge
    /// is treated as bidirectional", i.e. two directed edges of equal weight.
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId, weight: f64) {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight);
    }

    /// Freeze into an immutable [`Graph`], dropping the raw weights; see
    /// [`GraphBuilder::build_with_weights`].
    ///
    /// # Panics
    ///
    /// As [`GraphBuilder::build_with_weights`].
    pub fn build(self) -> Graph {
        self.build_with_weights().0
    }

    /// Freeze into an immutable [`Graph`] plus the merged raw weights,
    /// aligned with its out-table rows.
    ///
    /// `O(V + E)` counting passes plus a sort of each row by destination:
    /// 1. scatter the records into per-source rows, keeping insertion order;
    ///    sort each row by destination (stably) and merge parallel edges;
    /// 2. split the rows into the cold out-table and the weight column;
    /// 3. drop the records;
    /// 4. write every node's block into an exactly-sized arena. Sources are
    ///    scanned in ascending order, so each in-part fills ascending too.
    ///
    /// Apart from the records and their rows, the only scratch is one `u32`
    /// per node: the build leaves no dead buffers behind in the heap.
    ///
    /// # Panics
    ///
    /// If some node's out-edge weights sum past `f64`'s range (the message
    /// names the node): its merged weights or its row total would be
    /// infinite, and its transition probabilities NaN or zero. Also if the
    /// graph has more than `u32::MAX` edges or more than `u32::MAX` arena
    /// slots (|V| + 2·|E|).
    pub fn build_with_weights(self) -> (Graph, EdgeWeights) {
        self.try_build_with_weights()
            .unwrap_or_else(|v| panic!("out-edge weights of node {v} sum past f64's range"))
    }

    /// [`GraphBuilder::build_with_weights`], but a row whose weights sum
    /// past `f64`'s range is returned as `Err` with its node.
    pub(crate) fn try_build_with_weights(self) -> Result<(Graph, EdgeWeights), NodeId> {
        let GraphBuilder {
            types,
            node_types,
            mut labels,
            edges,
        } = self;
        labels.shrink_to_fit();
        let n = node_types.len();

        // 1. Rows. Counts go to `out_offsets[s + 2]`, so after the prefix
        // sum `out_offsets[s + 1]` is where row `s` starts; scattering
        // advances it to where row `s` ends. Then row `v` is
        // `rows[out_offsets[v]..out_offsets[v + 1]]`, in insertion order.
        let mut out_offsets = vec![0usize; n + 2];
        for &(s, _, _) in &edges {
            out_offsets[s as usize + 2] += 1;
        }
        for i in 2..n + 2 {
            out_offsets[i] += out_offsets[i - 1];
        }
        let mut rows = vec![(0u32, 0.0f64); edges.len()];
        for (s, d, w) in edges {
            let at = &mut out_offsets[s as usize + 1];
            rows[*at] = (d, w);
            *at += 1;
        }
        // Sort each row by destination and merge parallel edges in place,
        // moving the row bounds down to the merged rows as they shrink.
        let (mut m, mut lo) = (0, 0);
        for v in 0..n {
            let hi = out_offsets[v + 1];
            rows[lo..hi].sort_by_key(|&(d, _)| d);
            let row = m;
            for r in lo..hi {
                let (d, w) = rows[r];
                match rows[row..m].last_mut() {
                    Some(last) if last.0 == d => last.1 += w,
                    _ => {
                        rows[m] = (d, w);
                        m += 1;
                    }
                }
            }
            out_offsets[v + 1] = m;
            lo = hi;
        }
        rows.truncate(m);
        let (_, slots) = offset_widths(n, m);

        // 2. The cold out-table and the weights; 3. the records go. Every
        // offset is at most `m`, which fits.
        let out_offsets: Vec<u32> = {
            let wide = out_offsets;
            wide[..=n].iter().map(|&o| o as u32).collect()
        };
        let out_targets: Vec<NodeId> = rows.iter().map(|&(d, _)| NodeId(d)).collect();
        let out_weights: Vec<f64> = rows.iter().map(|&(_, w)| w).collect();
        drop(rows);
        let out_row = |v: usize| out_offsets[v] as usize..out_offsets[v + 1] as usize;
        // Summed in ascending destination order, as
        // `EdgeWeights::weighted_out_degree` sums it. A row with an edge
        // has a positive total (weights are); a finite one keeps every
        // merged weight finite too.
        let totals = |v: usize| -> f64 { out_weights[out_row(v)].iter().sum() };
        if let Some(v) = (0..n).find(|&v| !totals(v).is_finite()) {
            return Err(NodeId(v as u32));
        }

        // 4. The arena, sized from the degrees. Collected from exact-size
        // iterators, both shared parts are single allocations written in
        // place — never copies of finished buffers. `in_filled` holds the
        // in-degrees until the offsets are known, then how many in-edges
        // each block has received so far.
        let mut in_filled = vec![0u32; n];
        for d in &out_targets {
            in_filled[d.index()] += 1;
        }
        // Offsets count `EDGE_BYTES` slots: one for the header, one per
        // edge. They sum to `slots`, which fits.
        let mut end = 0u32;
        let block_offsets: Arc<[u32]> = (0..=n)
            .map(|v| {
                let at = end;
                if v < n {
                    end += 1 + out_row(v).len() as u32 + in_filled[v];
                }
                at
            })
            .collect();
        debug_assert_eq!(end, slots);
        in_filled.fill(0);
        let at = |v: usize| block_offsets[v] as usize * EDGE_BYTES;
        let mut arena: Arc<[u8]> = std::iter::repeat_n(0, at(n)).collect();
        // invariant: the Arc was created on the line above; nothing else
        // holds it yet.
        let bytes = Arc::get_mut(&mut arena).expect("fresh arena is unshared");
        for v in 0..n {
            wire::put_header(
                &mut bytes[at(v)..at(v + 1)],
                NodeId(v as u32),
                out_row(v).len(),
            );
            let total = totals(v);
            for (i, e) in out_row(v).enumerate() {
                let prob = out_weights[e] / total;
                let slot = at(v) + wire::out_edge_at(i);
                bytes[slot..slot + EDGE_BYTES]
                    .copy_from_slice(&wire::edge_bytes(out_targets[e], prob));
                let d = out_targets[e].index();
                let slot = at(d) + wire::in_edge_at(out_row(d).len(), in_filled[d] as usize);
                bytes[slot..slot + EDGE_BYTES]
                    .copy_from_slice(&wire::edge_bytes(NodeId(v as u32), prob));
                in_filled[d] += 1;
            }
        }

        let g = Graph::from_parts(
            types,
            node_types,
            labels,
            BlockArena::from_parts(arena, block_offsets),
            out_offsets,
            out_targets,
        );
        let weights = EdgeWeights::new(g.epoch(), out_weights);
        Ok((g, weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("node");
        let nodes: Vec<_> = (0..4).map(|_| b.add_node(ty)).collect();
        b.add_edge(nodes[0], nodes[1], 1.0);
        b.add_edge(nodes[0], nodes[2], 3.0);
        b.add_edge(nodes[1], nodes[2], 2.0);
        b.add_undirected_edge(nodes[2], nodes[3], 5.0);
        (b.build(), nodes)
    }

    #[test]
    fn build_counts() {
        let (g, _) = tiny();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5); // 3 directed + 1 undirected (=2)
    }

    #[test]
    fn out_probabilities_are_weight_normalized() {
        let (g, n) = tiny();
        let edges: Vec<_> = g.out_edges(n[0]).collect();
        assert_eq!(edges.len(), 2);
        // weights 1.0 and 3.0 -> probs 0.25 and 0.75 in dst order (n1 < n2)
        assert_eq!(edges[0].0, n[1]);
        assert!((edges[0].1 - 0.25).abs() < 1e-12);
        assert_eq!(edges[1].0, n[2]);
        assert!((edges[1].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_merge_by_summed_weight() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let a = b.add_node(ty);
        let c = b.add_node(ty);
        let d = b.add_node(ty);
        // Two click records phrase->url, as in QLog edge weighting.
        b.add_edge(a, c, 1.0);
        b.add_edge(a, c, 1.0);
        b.add_edge(a, d, 2.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        let probs: Vec<f64> = g.out_edges(a).map(|(_, p)| p).collect();
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_sum_left_to_right_in_insertion_order() {
        // 1 + 1 + 1e16 and 1e16 + 1 + 1 round differently, so a merge that
        // depended on how a sort happened to order equal keys would show.
        let orders: [[f64; 3]; 2] = [[1.0, 1.0, 1e16], [1e16, 1.0, 1.0]];
        let folds = orders.map(|ws| ws.iter().fold(0.0, |acc, w| acc + w));
        assert_ne!(folds[0].to_bits(), folds[1].to_bits());
        for (weights, want) in orders.iter().zip(folds) {
            let mut b = GraphBuilder::new();
            let ty = b.register_type("n");
            let n: Vec<_> = (0..3).map(|_| b.add_node(ty)).collect();
            // Other records of the same row and column interleave with the
            // parallel ones.
            for &w in weights {
                b.add_edge(n[0], n[2], 0.5);
                b.add_edge(n[0], n[1], w);
                b.add_edge(n[2], n[1], 0.25);
            }
            let (g, weights) = b.build_with_weights();
            let merged: Vec<_> = weights.out_edges(&g, n[0]).collect();
            assert_eq!(merged.len(), 2);
            assert_eq!((merged[0].0, merged[0].1.to_bits()), (n[1], want.to_bits()));
            assert_eq!(merged[1].1, 1.5);
            assert_eq!(
                weights.weighted_out_degree(&g, n[0]).to_bits(),
                (want + 1.5).to_bits()
            );
        }
    }

    #[test]
    fn in_edges_mirror_out_probabilities() {
        let (g, n) = tiny();
        // in-edges of n2: from n0 (prob .75), n1 (prob 1.0), n3 (prob 1.0)
        let ins: Vec<_> = g.in_edges(n[2]).collect();
        assert_eq!(ins.len(), 3);
        let from0 = ins.iter().find(|(s, _)| *s == n[0]).unwrap();
        assert!((from0.1 - 0.75).abs() < 1e-12);
        let from3 = ins.iter().find(|(s, _)| *s == n[3]).unwrap();
        assert!((from3.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dangling_node_has_no_out_edges() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let a = b.add_node(ty);
        let c = b.add_node(ty);
        b.add_edge(a, c, 1.0);
        let g = b.build();
        assert_eq!(g.out_degree(c), 0);
        assert!(g.is_dangling(c));
        assert!(!g.is_dangling(a));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let a = b.add_node(ty);
        let c = b.add_node(ty);
        b.add_edge(a, c, 0.0);
    }

    /// Node 1's out-edges: `(0, 1e308)` twice then `(2, 1e308)`, or
    /// `(0, 1e308)` and `(2, 1e308)` once each.
    fn overflowing_row(parallel: bool) -> GraphBuilder {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let n: Vec<_> = (0..3).map(|_| b.add_node(ty)).collect();
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[1], n[0], 1e308);
        if parallel {
            b.add_edge(n[1], n[0], 1e308);
        }
        b.add_edge(n[1], n[2], 1e308);
        b
    }

    #[test]
    #[should_panic(expected = "out-edge weights of node 1 sum past f64's range")]
    fn parallel_weights_merging_past_f64_range_are_refused() {
        // Built, the row read `[(0, NaN), (2, 0.0)]`.
        overflowing_row(true).build();
    }

    #[test]
    #[should_panic(expected = "out-edge weights of node 1 sum past f64's range")]
    fn a_row_total_past_f64_range_is_refused() {
        // Built, the row read zeros.
        overflowing_row(false).build_with_weights();
    }

    #[test]
    fn one_row_short_of_overflow_builds() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let n: Vec<_> = (0..3).map(|_| b.add_node(ty)).collect();
        b.add_edge(n[0], n[1], f64::MAX / 2.0);
        b.add_edge(n[0], n[2], f64::MAX / 2.0);
        let g = b.build();
        let probs: Vec<f64> = g.out_edges(n[0]).map(|(_, p)| p).collect();
        assert_eq!(probs, [0.5, 0.5]);
    }

    #[test]
    fn offset_widths_admit_exactly_the_u32_layouts() {
        let max = u32::MAX as usize;
        assert_eq!(offset_widths(0, 0), (0, 0));
        assert_eq!(offset_widths(3, 5), (5, 13));
        // The arena's slot count is the binding limit: |V| + 2·|E|.
        assert_eq!(offset_widths(1, max / 2), (u32::MAX / 2, u32::MAX));
        assert_eq!(offset_widths(max, 0), (0, u32::MAX));
    }

    fn refusal(nodes: usize, edges: usize) -> String {
        let err = std::panic::catch_unwind(|| offset_widths(nodes, edges)).unwrap_err();
        // invariant: `offset_widths` panics with a formatted message.
        err.downcast::<String>()
            .map(|m| *m)
            .expect("a formatted message")
    }

    #[test]
    fn offset_widths_refuse_past_either_limit() {
        let max = u32::MAX as usize;
        assert!(refusal(2, max / 2).contains("arena slots"));
        assert!(refusal(max + 1, 0).contains("arena slots"));
        assert!(refusal(0, max + 1).contains("its edges"));
        assert!(refusal(0, usize::MAX).contains("its edges"));
        // |V| + 2·|E| overflowing usize itself is refused, not wrapped.
        assert!(refusal(usize::MAX, 1).contains("graph too large"));
    }

    #[test]
    #[should_panic(expected = "unknown target")]
    fn edge_to_unknown_node_rejected() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let a = b.add_node(ty);
        b.add_edge(a, NodeId(99), 1.0);
    }

    #[test]
    fn self_loop_allowed_and_normalized() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let a = b.add_node(ty);
        let c = b.add_node(ty);
        b.add_edge(a, a, 1.0);
        b.add_edge(a, c, 1.0);
        let g = b.build();
        let probs: Vec<f64> = g.out_edges(a).map(|(_, p)| p).collect();
        assert_eq!(probs.len(), 2);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn labels_survive_build() {
        // Empty, multi-byte and repeated labels, past the capacity hint.
        let names = ["VLDB", "", "Zürich · 東京", "VLDB", ""];
        let mut b = GraphBuilder::with_capacity(2, 0);
        let ty = b.register_type("venue");
        let ids: Vec<_> = names.iter().map(|l| b.add_labeled_node(ty, l)).collect();
        b.add_edge(ids[0], ids[2], 1.0);
        let g = b.build();
        for (&v, name) in ids.iter().zip(names) {
            assert_eq!(g.label(v), name);
        }
        // The first of equal labels wins.
        assert_eq!(g.find_by_label("VLDB"), Some(ids[0]));
        assert_eq!(g.find_by_label(""), Some(ids[1]));
        assert_eq!(g.find_by_label("東京"), None);
        assert_eq!(GraphBuilder::new().build().find_by_label(""), None);
    }
}
