//! The shared adjacency-access abstraction the bound engines run on.
//!
//! The paper's AP/GP architecture (Sect. V-B) runs the *same* 2SBound
//! algorithm whether the graph is local or striped across graph processors;
//! only the way adjacency is materialized differs. [`AdjacencyAccess`]
//! captures exactly that seam: the read surface the engines need
//! (`out_edges` / `in_edges` / degrees / footprints) plus one write-side
//! hook, [`AdjacencyAccess::ensure`], through which an engine announces the
//! nodes whose adjacency it is about to read, and two cache hints that
//! the engines' node walks issue a fixed distance ahead of their reads.
//!
//! * For an in-memory [`Graph`] (implemented on `&Graph`), `ensure` is a
//!   no-op, every read slices the node's block in the graph's arena, and
//!   the hints pull that block and its offsets towards the cache.
//! * For a distributed active graph, `ensure` is where demand paging
//!   lives; reads then parse the query's own copy of the same block, and
//!   the hints stay no-ops. Out-degrees alone come from a table of every
//!   node's, so ranking a BCA frontier by benefit fetches nothing: the
//!   ensured nodes are exactly the query's active set.
//!
//! Both yield [`wire::Edges`] over the same bytes, so the two
//! implementations differ in `ensure` and the hints and nothing else.
//!
//! Because the *one* generic engine implementation runs over both, local /
//! distributed bit-identity is true by construction: there is no second
//! copy of the algorithm to drift.

use crate::graph::Graph;
use crate::node::NodeId;
use crate::wire;

/// Failure to materialize adjacency from a remote source.
///
/// An in-memory graph never fails; a distributed implementation surfaces
/// e.g. a dead graph-processor thread here, with `detail` naming the
/// processor so the failure is diagnosable at the serving layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdjacencyError {
    /// The backing adjacency source cannot serve blocks any more.
    SourceUnavailable {
        /// Human-readable description naming the failed component.
        detail: String,
    },
}

impl std::fmt::Display for AdjacencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdjacencyError::SourceUnavailable { detail } => {
                write!(f, "adjacency source unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for AdjacencyError {}

/// Uniform adjacency access for the bound engines.
///
/// The contract the engines rely on:
///
/// * Edge iterators yield `(neighbor, transition probability)` in ascending
///   neighbor-id order — the same order for every implementation, which is
///   what makes engine runs bit-identical across backends.
/// * [`out_degree`](AdjacencyAccess::out_degree) is valid for every node.
/// * The other reads (`out_edges`, `in_edges`, `in_degree`, footprints)
///   are only valid for nodes previously passed to
///   [`ensure`](AdjacencyAccess::ensure) (an in-memory graph accepts any
///   node; a paged implementation may panic on an un-ensured node).
/// * `ensure` is idempotent and order-insensitive; callers pass node ids
///   sorted ascending so implementations behave deterministically.
pub trait AdjacencyAccess {
    /// Concrete edge iterator type; yields `(neighbor, probability)`.
    type Edges<'a>: Iterator<Item = (NodeId, f64)>
    where
        Self: 'a;

    /// Number of nodes `|V|` of the underlying graph.
    fn node_count(&self) -> usize;

    /// `true` if any node of the underlying graph has a self-loop (the
    /// bound engines fall back from Prop. 4 to the first-arrival bound).
    fn has_self_loops(&self) -> bool;

    /// Out-degree of `v`, for any node, ensured or not.
    fn out_degree(&self, v: NodeId) -> usize;

    /// In-degree of `v`.
    fn in_degree(&self, v: NodeId) -> usize;

    /// Resident bytes if `v` and its edges were copied into an active set.
    fn node_footprint_bytes(&self, v: NodeId) -> usize;

    /// Out-edges of `v` as `(target, M[v][target])`, ascending by target id.
    fn out_edges(&self, v: NodeId) -> Self::Edges<'_>;

    /// In-edges of `v` as `(source, M[source][v])`, ascending by source id.
    fn in_edges(&self, v: NodeId) -> Self::Edges<'_>;

    /// Make the adjacency of `ids` (sorted ascending, deduplicated)
    /// readable. A no-op for in-memory graphs; a paged implementation
    /// fetches whatever is missing, and nothing else.
    fn ensure(&mut self, ids: &[u32]) -> Result<(), AdjacencyError>;

    /// Hint that `v`'s adjacency is read soon. It changes no value and
    /// ignores an id that is not a node. A no-op by default.
    #[inline]
    fn prefetch(&self, _v: NodeId) {}

    /// Hint the index entries that locate `v`'s adjacency, which
    /// [`prefetch`](AdjacencyAccess::prefetch) and every read load first,
    /// so issue it about twice as far ahead. A no-op by default.
    #[inline]
    fn prefetch_index(&self, _v: NodeId) {}
}

/// The in-memory graph, owned and borrowed, with one body. The borrowed
/// form is what the engines' generic entry points take for local
/// execution, since callers hold `&Graph` (never `&mut Graph`) and the
/// `ensure` no-op needs no real mutability.
macro_rules! graph_adjacency {
    ($($graph:ty),*) => {$(
        impl AdjacencyAccess for $graph {
            type Edges<'a>
                = wire::Edges<'a>
            where
                Self: 'a;

            #[inline]
            fn node_count(&self) -> usize {
                Graph::node_count(self)
            }

            #[inline]
            fn has_self_loops(&self) -> bool {
                Graph::has_self_loops(self)
            }

            #[inline]
            fn out_degree(&self, v: NodeId) -> usize {
                Graph::out_degree(self, v)
            }

            #[inline]
            fn in_degree(&self, v: NodeId) -> usize {
                Graph::in_degree(self, v)
            }

            #[inline]
            fn node_footprint_bytes(&self, v: NodeId) -> usize {
                Graph::node_footprint_bytes(self, v)
            }

            #[inline]
            fn out_edges(&self, v: NodeId) -> Self::Edges<'_> {
                Graph::out_edges(self, v)
            }

            #[inline]
            fn in_edges(&self, v: NodeId) -> Self::Edges<'_> {
                Graph::in_edges(self, v)
            }

            /// Everything is always resident in an in-memory graph.
            #[inline]
            fn ensure(&mut self, _ids: &[u32]) -> Result<(), AdjacencyError> {
                Ok(())
            }

            #[inline]
            fn prefetch(&self, v: NodeId) {
                self.blocks().prefetch(v);
            }

            #[inline]
            fn prefetch_index(&self, v: NodeId) {
                Graph::prefetch_index(self, v);
            }
        }
    )*};
}

graph_adjacency!(Graph, &Graph);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::fig2_toy;
    use crate::GraphBuilder;

    #[test]
    fn graph_impl_matches_inherent_accessors() {
        let (g, _) = fig2_toy();
        let mut a = &g;
        a.ensure(&[0, 1, 2]).unwrap();
        assert_eq!(AdjacencyAccess::node_count(&a), g.node_count());
        assert_eq!(AdjacencyAccess::has_self_loops(&a), g.has_self_loops());
        for v in g.nodes() {
            assert_eq!(AdjacencyAccess::out_degree(&a, v), g.out_degree(v));
            assert_eq!(AdjacencyAccess::in_degree(&a, v), g.in_degree(v));
            assert_eq!(
                AdjacencyAccess::node_footprint_bytes(&a, v),
                g.node_footprint_bytes(v)
            );
            let trait_out: Vec<_> = AdjacencyAccess::out_edges(&a, v).collect();
            let inherent_out: Vec<_> = g.out_edges(v).collect();
            assert_eq!(trait_out, inherent_out);
            let trait_in: Vec<_> = AdjacencyAccess::in_edges(&a, v).collect();
            let inherent_in: Vec<_> = g.in_edges(v).collect();
            assert_eq!(trait_in, inherent_in);
        }
    }

    #[test]
    fn prefetch_hints_are_total_and_inert() {
        // The toy graph, the empty graph and random graphs from a fixed
        // LCG, with dangling nodes and self-loops.
        let mut graphs = vec![fig2_toy().0, GraphBuilder::new().build()];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        for _ in 0..6 {
            let mut b = GraphBuilder::new();
            let ty = b.register_type("n");
            let n = 1 + next(40);
            let nodes: Vec<_> = (0..n).map(|_| b.add_node(ty)).collect();
            for _ in 0..next(4 * n) {
                b.add_edge(nodes[next(n)], nodes[next(n)], 1.0 + next(3) as f64);
            }
            graphs.push(b.build());
        }
        let edges = |g: &Graph| -> Vec<Vec<(NodeId, f64)>> {
            g.nodes()
                .map(|v| g.out_edges(v).chain(g.in_edges(v)).collect())
                .collect()
        };
        for g in &graphs {
            let before = edges(g);
            let n = g.node_count() as u32;
            for v in (0..n + 70).chain([u32::MAX - 1, u32::MAX]).map(NodeId) {
                AdjacencyAccess::prefetch(g, v);
                AdjacencyAccess::prefetch_index(g, v);
                AdjacencyAccess::prefetch(&g, v);
                AdjacencyAccess::prefetch_index(&g, v);
            }
            assert_eq!(edges(g), before);
        }
    }

    #[test]
    fn error_display_names_the_source() {
        let e = AdjacencyError::SourceUnavailable {
            detail: "graph processor 3 is not running".into(),
        };
        assert!(e.to_string().contains("graph processor 3"));
    }
}
