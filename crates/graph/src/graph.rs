//! The frozen graph — one block arena for the engines plus a narrow out-table
//! of neighbour ids — and [`EdgeWeights`], the builder's raw weights, which
//! only the offline transforms (subgraphs, repair, text I/O, evaluation
//! tasks) read and which a serving process never holds.
//!
//! Immutable after construction; all per-query algorithms treat it as shared
//! read-only state (it is `Send + Sync`), which is what lets the distributed
//! layer stripe it across graph processors without locks or copies.

use crate::node::{Labels, NodeId, NodeTypeId, TypeRegistry};
use crate::wire::{self, BlockArena};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide epoch source. Every constructed [`Graph`] draws a fresh,
/// strictly increasing epoch from here, so two graphs built in the same
/// process — even byte-identical ones — never share an epoch. Caches key
/// results by `(query, epoch, …)` and thereby invalidate stale entries by
/// key alone, without scanning, when the graph they were computed against
/// is replaced.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    // ordering: Relaxed — epochs only need to be unique; the epoch value
    // reaches other threads through the Graph handoff (Arc/channel), not
    // through this atomic.
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A directed, weighted, typed graph.
///
/// Stores, per directed edge `s -> d` (after merging parallel edges), the
/// forward transition probability `M[s][d] = w(s,d) / Σ_d' w(s,d')`. The
/// raw weights `w(s,d)` are not part of the graph: the builder hands them
/// out as an [`EdgeWeights`] column for the offline transforms that
/// renormalise from them.
///
/// The adjacency the engines read is a [`BlockArena`]: node `v`'s
/// [`wire`] block holds its out-edges `(d, M[v][d])` followed by its
/// in-edges `(s, M[s][v])` — the quantity F-Rank's update (paper Eq. 5)
/// sums over — both ascending by neighbour id. A graph processor serves
/// its stripe from the same (shared) arena. A cold out-table (`u32`
/// `out_offsets`, `out_targets`) keeps plain neighbour-id rows for
/// [`Graph::out_neighbors`], subgraphs, text I/O and SCCs; of it the
/// engines read only `out_offsets`, as out-degrees. Labels share one text
/// arena.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    types: TypeRegistry,
    node_types: Vec<NodeTypeId>,
    labels: Labels,

    blocks: BlockArena,

    /// Row `v` of `out_targets` is `out_offsets[v]..out_offsets[v + 1]`;
    /// `u32` because the builder refuses more than `u32::MAX` edges.
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,

    has_self_loops: bool,
    // Never serialized: the epoch is process-unique by construction, and a
    // stored stamp could collide with a live graph's after a round trip. A
    // deserialized graph is new content to this process, so it draws a
    // fresh epoch — cached results never bleed across the boundary.
    #[serde(skip, default = "fresh_epoch")]
    epoch: u64,
}

impl Graph {
    /// Assemble from pre-built parts. Intended for [`crate::GraphBuilder`];
    /// invariants are debug-asserted.
    pub(crate) fn from_parts(
        types: TypeRegistry,
        node_types: Vec<NodeTypeId>,
        labels: Labels,
        blocks: BlockArena,
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
    ) -> Self {
        let n = node_types.len();
        debug_assert_eq!(labels.len(), n);
        debug_assert_eq!(blocks.len(), n);
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(out_offsets[n] as usize, out_targets.len());
        let has_self_loops = (0..n).any(|v| {
            let (lo, hi) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
            out_targets[lo..hi].binary_search(&NodeId(v as u32)).is_ok()
        });
        Self {
            types,
            node_types,
            labels,
            blocks,
            out_offsets,
            out_targets,
            has_self_loops,
            epoch: fresh_epoch(),
        }
    }

    // ------------------------------------------------------------------
    // Sizes and identity
    // ------------------------------------------------------------------

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_types.len()
    }

    /// Number of distinct directed edges `|E|` (parallel edges merged).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterate over all node ids `0..|V|`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// This graph's epoch: a process-unique, monotonically increasing stamp
    /// assigned at construction. Two graphs built at different times always
    /// carry different epochs (a clone keeps its source's — identical
    /// content, identical answers), so any cache keying results by
    /// `(query, epoch, …)` is invalidated automatically when a new graph
    /// replaces an old one: stale entries simply stop being addressable.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The type registry.
    pub fn types(&self) -> &TypeRegistry {
        &self.types
    }

    /// Type of a node.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.node_types[v.index()]
    }

    /// Human-readable label of a node (may be empty).
    #[inline]
    pub fn label(&self, v: NodeId) -> &str {
        self.labels.get(v.index())
    }

    /// All nodes of a given type.
    pub fn nodes_of_type(&self, ty: NodeTypeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&v| self.node_type(v) == ty)
    }

    /// Find a node by exact label (linear scan; intended for examples/tests).
    /// Of several nodes with the label, the lowest id wins.
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels.position(label).map(NodeId::from_index)
    }

    // ------------------------------------------------------------------
    // Degrees
    // ------------------------------------------------------------------

    /// Out-degree (number of distinct out-edges).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_row(v).len()
    }

    /// In-degree (number of distinct in-edges).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.blocks.total_degree(v) - self.out_degree(v)
    }

    /// Total degree (in + out); for undirected edges this counts both
    /// directions, matching the "node degree" heuristics in Hristidis et al.
    #[inline]
    pub fn total_degree(&self, v: NodeId) -> usize {
        self.blocks.total_degree(v)
    }

    /// `true` if any node has an edge to itself. Several bounds (notably the
    /// paper's Prop. 4) rely on a returning walk taking at least two steps,
    /// which self-loops violate; consumers check this flag to fall back to
    /// safe bounds.
    #[inline]
    pub fn has_self_loops(&self) -> bool {
        self.has_self_loops
    }

    /// `true` if the node has no out-edges, i.e. a random walk dies here.
    /// The paper assumes irreducible graphs (Sect. III-B); use
    /// [`crate::scc::IrreducibilityRepair`] to repair.
    #[inline]
    pub fn is_dangling(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    // ------------------------------------------------------------------
    // Adjacency
    // ------------------------------------------------------------------

    /// The arena holding every node's block; a graph processor serving a
    /// stripe of this graph shares it.
    pub fn blocks(&self) -> &BlockArena {
        &self.blocks
    }

    /// Out-edges of `v` as `(target, M[v][target])`, ascending by target id.
    ///
    /// The out-degree comes from the cold out-table's offsets, so the edge
    /// list is found from index loads that do not wait on each other, and
    /// no length field of the block is read first.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> wire::Edges<'_> {
        self.blocks.out_edges(v, self.out_degree(v))
    }

    /// The same edges as [`Graph::out_edges`]: `(target, M[v][target])`,
    /// transition probabilities and not raw weights, which the graph does
    /// not keep (see [`EdgeWeights::out_edges`]). Kept for callers outside
    /// this workspace that rebuild a graph from its rows: a row of
    /// probabilities renormalises to the same probabilities up to rounding.
    #[inline]
    pub fn out_edges_weighted(&self, v: NodeId) -> wire::Edges<'_> {
        self.out_edges(v)
    }

    /// In-edges of `v` as `(source, M[source][v])`, ascending by source id.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> wire::Edges<'_> {
        self.blocks.in_edges(v, self.out_degree(v))
    }

    /// Hint both offset-table entries of `v` the edge reads start from:
    /// its cold out-table offset (the out-degree) and its block offset.
    #[inline]
    pub(crate) fn prefetch_index(&self, v: NodeId) {
        if let Some(entry) = self.out_offsets.get(v.index()) {
            wire::prefetch_ptr(entry);
        }
        self.blocks.prefetch_index(v);
    }

    /// Range of `v`'s row in the cold out-table, which [`EdgeWeights`]
    /// shares.
    #[inline]
    fn out_row(&self, v: NodeId) -> Range<usize> {
        self.out_offsets[v.index()] as usize..self.out_offsets[v.index() + 1] as usize
    }

    /// Out-neighbor ids only (no probabilities), ascending.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.out_targets[self.out_row(v)]
    }

    /// In-neighbor ids only (no probabilities), ascending.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.in_edges(v).map(|(s, _)| s)
    }

    /// Transition probability `M[s][d]`, or 0 if no edge (binary search).
    pub fn transition_prob(&self, s: NodeId, d: NodeId) -> f64 {
        match self.out_neighbors(s).binary_search(&d) {
            Ok(pos) => self.out_edges(s).nth(pos).map_or(0.0, |(_, p)| p),
            Err(_) => 0.0,
        }
    }

    /// `true` if the directed edge `s -> d` exists.
    pub fn has_edge(&self, s: NodeId, d: NodeId) -> bool {
        self.out_neighbors(s).binary_search(&d).is_ok()
    }

    /// Undirected neighbor set (union of in- and out-neighbors), deduplicated
    /// and ascending — a merge of the two sorted rows, nothing allocated.
    /// Needed by AdamicAdar and the common-neighbor baselines.
    pub fn undirected_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut outs = self.out_neighbors(v).iter().copied().peekable();
        let mut ins = self.in_neighbors(v).peekable();
        std::iter::from_fn(move || match (outs.peek(), ins.peek()) {
            (Some(&o), Some(&i)) if o > i => ins.next(),
            (Some(&o), Some(&i)) if o == i => {
                ins.next();
                outs.next()
            }
            (Some(_), _) => outs.next(),
            (None, _) => ins.next(),
        })
    }

    // ------------------------------------------------------------------
    // Memory accounting (paper Fig. 12 reports active-set bytes)
    // ------------------------------------------------------------------

    /// Resident bytes of everything the graph holds per node and per edge
    /// (excludes labels and the type registry, which the query algorithms
    /// never touch): the block arena with its offsets, the cold out-table
    /// and node types. This mirrors the paper's "snapshot size" metric.
    /// An [`EdgeWeights`] column is not the graph's and is not counted.
    pub fn memory_bytes(&self) -> usize {
        // Every part of `resident_bytes` but the last, the labels.
        self.resident_bytes()[..3]
            .iter()
            .map(|&(_, bytes)| bytes)
            .sum()
    }

    /// Resident bytes by part, as `(part, bytes)`: `adjacency` (the block
    /// arena with its offsets), `cold_table` (the cold out-table's offsets
    /// and neighbour ids),
    /// `node_types` and `labels` (the label text with its end offsets).
    /// The type registry (a few names) is left out.
    pub fn resident_bytes(&self) -> [(&'static str, usize); 4] {
        use std::mem::size_of_val;
        [
            ("adjacency", self.blocks.memory_bytes()),
            (
                "cold_table",
                size_of_val(self.out_offsets.as_slice()) + size_of_val(self.out_targets.as_slice()),
            ),
            ("node_types", size_of_val(self.node_types.as_slice())),
            ("labels", self.labels.memory_bytes()),
        ]
    }

    /// Per-node resident bytes if this node and its edges were copied into an
    /// active set: id + type + its out- and in-edge entries.
    pub fn node_footprint_bytes(&self, v: NodeId) -> usize {
        wire::footprint_bytes(self.out_degree(v), self.in_degree(v))
    }

    /// Average (unweighted) out-degree `D̄ = |E| / |V|`, the quantity the
    /// paper's growth analysis (Sect. V-B1) is phrased in.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.node_count() as f64
        }
    }
}

/// The builder's raw out-edge weights `w(s,d)` (parallel edges merged),
/// one `f64` per edge, aligned with the graph's out-table rows: the `i`-th
/// weight of `v`'s row belongs to the `i`-th edge of
/// [`Graph::out_neighbors`]`(v)`.
///
/// Handed out by [`crate::GraphBuilder::build_with_weights`] for the
/// offline transforms that renormalise rows from raw weights — induced
/// subgraphs, the irreducibility repair, text I/O, the evaluation tasks.
/// The graph itself keeps only the transition probabilities, so a serving
/// process never holds this column. A column belongs to the graph it was
/// built with (and that graph's clones); every read checks so.
#[derive(Clone, Debug)]
pub struct EdgeWeights {
    epoch: u64,
    weights: Vec<f64>,
}

impl EdgeWeights {
    /// Wrap the builder's merged weights of the graph with this epoch.
    pub(crate) fn new(epoch: u64, weights: Vec<f64>) -> Self {
        Self { epoch, weights }
    }

    /// Number of weights: the graph's [`Graph::edge_count`].
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the column holds no weight (the graph has no edge).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Raw weights of `v`'s out-edges, ascending by destination id. Panics
    /// if `g` is not the graph this column was built with, or a clone of it.
    pub(crate) fn row(&self, g: &Graph, v: NodeId) -> &[f64] {
        assert_eq!(self.epoch, g.epoch(), "edge weights of another graph");
        &self.weights[g.out_row(v)]
    }

    /// Out-edges of `v` as `(target, raw weight)`, ascending by target id.
    /// Panics if `g` is not the graph this column was built with, or a
    /// clone of it.
    pub fn out_edges<'a>(
        &'a self,
        g: &'a Graph,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, f64)> + 'a {
        g.out_neighbors(v)
            .iter()
            .copied()
            .zip(self.row(g, v).iter().copied())
    }

    /// Sum of raw out-edge weights of `v`, summed in ascending destination
    /// order: the sum the builder normalised the row's transition
    /// probabilities by, bit for bit. Panics as [`EdgeWeights::out_edges`]
    /// does.
    pub fn weighted_out_degree(&self, g: &Graph, v: NodeId) -> f64 {
        self.row(g, v).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::node::NodeId;
    use crate::toy::fig2_toy;

    #[test]
    fn fig2_degrees_match_paper() {
        let (g, ids) = fig2_toy();
        // t1 has degree 5 (p1..p5): the paper computes 1/5 steps from t1.
        assert_eq!(g.out_degree(ids.t1), 5);
        // p1 has degree 2 (t1, v1): paper uses 1/2.
        assert_eq!(g.out_degree(ids.p[0]), 2);
        // v1 has degree 4 (p1,p2,p6,p7): paper uses 1/4.
        assert_eq!(g.out_degree(ids.v1), 4);
        assert_eq!(g.out_degree(ids.v2), 2);
        assert_eq!(g.out_degree(ids.v3), 1);
    }

    #[test]
    fn fig2_round_trip_probability_by_hand() {
        // p(t1 -> p1 -> v1 -> p1 -> t1) = 1/5 * 1/2 * 1/4 * 1/2 = 0.0125 (paper Fig. 4)
        let (g, ids) = fig2_toy();
        let p = g.transition_prob(ids.t1, ids.p[0])
            * g.transition_prob(ids.p[0], ids.v1)
            * g.transition_prob(ids.v1, ids.p[0])
            * g.transition_prob(ids.p[0], ids.t1);
        assert!((p - 0.0125).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn transition_rows_are_stochastic_or_zero() {
        let (g, _) = fig2_toy();
        for v in g.nodes() {
            let s: f64 = g.out_edges(v).map(|(_, p)| p).sum();
            if g.is_dangling(v) {
                assert_eq!(s, 0.0);
            } else {
                assert!((s - 1.0).abs() < 1e-9, "row {v:?} sums to {s}");
            }
        }
    }

    #[test]
    fn transition_prob_missing_edge_is_zero() {
        let (g, ids) = fig2_toy();
        assert_eq!(g.transition_prob(ids.t1, ids.v1), 0.0);
        assert!(!g.has_edge(ids.t1, ids.v1));
        assert!(g.has_edge(ids.t1, ids.p[0]));
    }

    #[test]
    fn nodes_of_type_filters() {
        let (g, _) = fig2_toy();
        let venue_ty = g.types().get("venue").unwrap();
        assert_eq!(g.nodes_of_type(venue_ty).count(), 3);
        let paper_ty = g.types().get("paper").unwrap();
        assert_eq!(g.nodes_of_type(paper_ty).count(), 7);
    }

    #[test]
    fn undirected_neighbors_dedup() {
        let (g, ids) = fig2_toy();
        // All fig2 edges are bidirectional so union == out-neighbors.
        let ns: Vec<_> = g.undirected_neighbors(ids.v1).collect();
        assert_eq!(ns, g.out_neighbors(ids.v1));
        // A one-way edge shows up once, from whichever side it is seen.
        let mut b = crate::GraphBuilder::new();
        let ty = b.register_type("n");
        let n: Vec<_> = (0..4).map(|_| b.add_node(ty)).collect();
        b.add_edge(n[1], n[0], 1.0);
        b.add_edge(n[1], n[2], 1.0);
        b.add_edge(n[2], n[1], 1.0);
        b.add_edge(n[3], n[1], 1.0);
        let g = b.build();
        let ns: Vec<_> = g.undirected_neighbors(n[1]).collect();
        assert_eq!(ns, vec![n[0], n[2], n[3]]);
        assert_eq!(g.undirected_neighbors(n[0]).collect::<Vec<_>>(), [n[1]]);
    }

    #[test]
    fn find_by_label_works() {
        let (g, ids) = fig2_toy();
        assert_eq!(g.find_by_label("v2:ACM-GIS-like"), Some(ids.v2));
        assert_eq!(g.find_by_label("nope"), None);
    }

    #[test]
    fn memory_accounting_positive_and_monotone() {
        let (g, ids) = fig2_toy();
        assert!(g.memory_bytes() > 0);
        // Higher-degree nodes have larger footprints.
        assert!(g.node_footprint_bytes(ids.v1) > g.node_footprint_bytes(ids.v3));
    }

    #[test]
    fn memory_bytes_is_the_sum_of_the_layout() {
        use crate::node::NodeTypeId;
        use std::mem::size_of;
        let (g, _) = fig2_toy();
        let (n, m) = (g.node_count(), g.edge_count());
        // One 12-byte header per node and each edge twice (out and in part).
        let arena = 12 * n + 24 * m;
        assert_eq!(g.blocks().as_bytes().len(), arena);
        let offsets = (n + 1) * size_of::<u32>();
        let cold_edges = m * size_of::<NodeId>();
        let types = n * size_of::<NodeTypeId>();
        let text: usize = g.nodes().map(|v| g.label(v).len()).sum();
        assert_eq!(
            g.resident_bytes(),
            [
                ("adjacency", arena + offsets),
                ("cold_table", offsets + cold_edges),
                ("node_types", types),
                ("labels", text + 4 * n),
            ]
        );
        assert_eq!(g.memory_bytes(), arena + 2 * offsets + cold_edges + types);
    }

    #[test]
    #[should_panic(expected = "edge weights of another graph")]
    fn edge_weights_serve_only_their_own_graph() {
        let (g, weights, ids) = crate::toy::fig2_toy_with_weights();
        // A clone is the same graph: its rows line up with the column.
        let row: Vec<_> = weights.out_edges(&g.clone(), ids.t1).collect();
        assert_eq!(row.len(), 5);
        let (other, _) = fig2_toy();
        weights.weighted_out_degree(&other, ids.t1);
    }

    #[test]
    fn epochs_are_unique_and_monotone() {
        let (a, _) = fig2_toy();
        let (b, _) = fig2_toy();
        assert!(a.epoch() > 0);
        assert!(b.epoch() > a.epoch(), "later build gets a later epoch");
        // A clone is the same content, so it keeps the same epoch: cached
        // answers computed against the original stay valid for the clone.
        assert_eq!(a.clone().epoch(), a.epoch());
    }

    #[test]
    fn average_degree() {
        let (g, _) = fig2_toy();
        let d = g.average_degree();
        assert!((d - g.edge_count() as f64 / g.node_count() as f64).abs() < 1e-12);
    }
}
