//! The paper's running toy example (Fig. 2): a tiny bibliographic network
//! with two terms, seven papers and three venues.
//!
//! Exposed publicly because the core crate's exact round-trip enumeration
//! (paper Fig. 4) and several integration tests validate against the numbers
//! the paper computes by hand on this graph.

use crate::builder::GraphBuilder;
use crate::graph::{EdgeWeights, Graph};
use crate::node::{NodeId, NodeLabels};

/// Node handles for the Fig. 2 toy graph.
pub struct Fig2Ids {
    /// Query term `t1` ("spatio").
    pub t1: NodeId,
    /// Off-topic term `t2` ("transaction").
    pub t2: NodeId,
    /// Papers `p1..p7` (index 0 = p1).
    pub p: Vec<NodeId>,
    /// Venue `v1`: important but unspecific (accepts p1, p2, p6, p7).
    pub v1: NodeId,
    /// Venue `v2`: balanced (accepts p3, p4 — both on-topic).
    pub v2: NodeId,
    /// Venue `v3`: specific but less important (accepts p5 only).
    pub v3: NodeId,
}

/// Build the toy bibliographic network of paper Fig. 2.
///
/// All edges are undirected with weight 1, matching the paper's by-hand
/// round-trip probabilities in Fig. 4 (e.g.
/// `p(t1→p1→v1→p1→t1) = 1/5 · 1/2 · 1/4 · 1/2 = 0.0125`).
pub fn fig2_toy() -> (Graph, Fig2Ids) {
    let (g, _, _, ids) = fig2_toy_with_columns();
    (g, ids)
}

/// [`fig2_toy`] plus its raw edge weights and labels, for the transforms
/// that read them (subgraphs, repair, text output) and for printing.
pub fn fig2_toy_with_columns() -> (Graph, EdgeWeights, NodeLabels, Fig2Ids) {
    let mut b = GraphBuilder::new();
    let term = b.register_type("term");
    let paper = b.register_type("paper");
    let venue = b.register_type("venue");
    let t1 = b.add_labeled_node(term, "t1:spatio");
    let t2 = b.add_labeled_node(term, "t2:transaction");
    let p: Vec<_> = (1..=7)
        .map(|i| b.add_labeled_node(paper, &format!("p{i}")))
        .collect();
    let v1 = b.add_labeled_node(venue, "v1:VLDB-like");
    let v2 = b.add_labeled_node(venue, "v2:ACM-GIS-like");
    let v3 = b.add_labeled_node(venue, "v3:STDB-like");
    // t1 connects to p1..p5 (papers about t1).
    for paper_node in p.iter().take(5) {
        b.add_undirected_edge(t1, *paper_node, 1.0);
    }
    // t2 connects to p6, p7 (off-topic papers).
    b.add_undirected_edge(t2, p[5], 1.0);
    b.add_undirected_edge(t2, p[6], 1.0);
    // v1 accepts p1, p2 (on-topic) plus p6, p7 (off-topic).
    for &i in &[0usize, 1, 5, 6] {
        b.add_undirected_edge(v1, p[i], 1.0);
    }
    // v2 accepts p3, p4 (on-topic only).
    b.add_undirected_edge(v2, p[2], 1.0);
    b.add_undirected_edge(v2, p[3], 1.0);
    // v3 accepts p5 only.
    b.add_undirected_edge(v3, p[4], 1.0);
    let ids = Fig2Ids {
        t1,
        t2,
        p,
        v1,
        v2,
        v3,
    };
    let (g, weights, labels) = b.build_with_columns();
    (g, weights, labels, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_is_strongly_connected_ranking_component() {
        let (g, ids) = fig2_toy();
        assert_eq!(g.node_count(), 12);
        // Every node reaches t1 and is reached from t1 (all edges undirected).
        assert!(!g.is_dangling(ids.v3));
    }

    #[test]
    fn toy_paper_degrees() {
        let (g, ids) = fig2_toy();
        assert_eq!(g.out_degree(ids.t1), 5);
        assert_eq!(g.out_degree(ids.p[0]), 2);
        assert_eq!(g.out_degree(ids.v1), 4);
        assert_eq!(g.out_degree(ids.v2), 2);
        assert_eq!(g.out_degree(ids.v3), 1);
    }
}
