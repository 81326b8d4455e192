//! Induced subgraphs and cumulative growth snapshots.
//!
//! Two uses in the reproduction, both from the paper's evaluation:
//!
//! 1. **Effectiveness subgraphs** (Sect. VI-A): "we use smaller subgraphs for
//!    the effectiveness evaluation" — BibNet restricted to 28 major venues,
//!    QLog expanded three hops from 200 random nodes. [`Subgraph`] induces a
//!    graph on a node subset, renormalizing transition rows from raw weights,
//!    and [`khop_neighborhood`] implements the hop expansion.
//! 2. **Scalability snapshots** (Sect. VI-B2): "we model their growth by
//!    taking five snapshots at different timestamps... all snapshots are
//!    cumulative". [`GrowthSchedule`] produces cumulative node prefixes.

use crate::builder::GraphBuilder;
use crate::graph::{EdgeWeights, Graph};
use crate::node::NodeId;
use std::collections::VecDeque;

/// An induced subgraph: the result of restricting a graph to a node subset.
///
/// Keeps the mapping back to the parent graph so experiment code can relate
/// subgraph rankings to parent-graph identities.
pub struct Subgraph {
    /// The induced graph (fresh compact node ids).
    pub graph: Graph,
    /// `to_parent[new_id] = old_id`.
    pub to_parent: Vec<NodeId>,
    /// Sparse inverse map: `to_sub(old_id) -> Option<new_id>`.
    to_sub: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl Subgraph {
    /// Induce the subgraph of `g` on `keep` (duplicates ignored).
    ///
    /// Edge weights are the parent's *raw* weights, `weights` (its column
    /// from [`GraphBuilder::build_with_weights`]); transition probabilities
    /// are renormalized over the surviving edges, exactly as if the subgraph
    /// had been the original dataset.
    pub fn induce(g: &Graph, weights: &EdgeWeights, keep: &[NodeId]) -> Self {
        let mut to_sub = vec![ABSENT; g.node_count()];
        let mut to_parent = Vec::with_capacity(keep.len());
        for &v in keep {
            if to_sub[v.index()] == ABSENT {
                to_sub[v.index()] = to_parent.len() as u32;
                to_parent.push(v);
            }
        }
        let mut b = GraphBuilder::with_capacity(to_parent.len(), 0);
        for (_, name) in g.types().iter() {
            b.register_type(name);
        }
        for &old in &to_parent {
            b.add_labeled_node(g.node_type(old), g.label(old));
        }
        for (new_src, &old_src) in to_parent.iter().enumerate() {
            for (old_dst, w) in weights.out_edges(g, old_src) {
                let new_dst = to_sub[old_dst.index()];
                if new_dst != ABSENT {
                    b.add_edge(NodeId(new_src as u32), NodeId(new_dst), w);
                }
            }
        }
        Subgraph {
            graph: b.build(),
            to_parent,
            to_sub,
        }
    }

    /// Map a parent node id into the subgraph, if present.
    pub fn to_sub(&self, parent: NodeId) -> Option<NodeId> {
        match self.to_sub[parent.index()] {
            ABSENT => None,
            s => Some(NodeId(s)),
        }
    }

    /// Map a subgraph node id back to the parent graph.
    pub fn to_parent(&self, sub: NodeId) -> NodeId {
        self.to_parent[sub.index()]
    }
}

/// Breadth-first k-hop neighborhood (undirected reachability) around seeds —
/// the QLog subgraph protocol: "we start with 200 random nodes, and expand to
/// their neighbors for three hops" (Sect. VI-A).
pub fn khop_neighborhood(g: &Graph, seeds: &[NodeId], hops: usize) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut out = Vec::new();
    let mut frontier: VecDeque<(NodeId, usize)> = VecDeque::new();
    for &s in seeds {
        if !seen[s.index()] {
            seen[s.index()] = true;
            out.push(s);
            frontier.push_back((s, 0));
        }
    }
    while let Some((v, d)) = frontier.pop_front() {
        if d == hops {
            continue;
        }
        for n in g.out_neighbors(v).iter().copied().chain(g.in_neighbors(v)) {
            if !seen[n.index()] {
                seen[n.index()] = true;
                out.push(n);
                frontier.push_back((n, d + 1));
            }
        }
    }
    out
}

/// Produces cumulative snapshot node sets for the growth study (Fig. 12–13).
///
/// Nodes are assumed to carry an implicit arrival order (our generators
/// create them chronologically); snapshot `i` is the prefix containing
/// `fractions[i]` of all nodes.
#[derive(Clone, Debug)]
pub struct GrowthSchedule {
    /// Monotone fractions in `(0, 1]`, one per snapshot.
    pub fractions: Vec<f64>,
}

impl GrowthSchedule {
    /// The paper's five-snapshot schedule, sized so later snapshots grow by
    /// roughly the BibNet factors (snapshot 5 ≈ 7× snapshot 1).
    pub fn paper_default() -> Self {
        Self {
            fractions: vec![0.135, 0.24, 0.41, 0.74, 1.0],
        }
    }

    /// Build all snapshots of `g` as induced prefix subgraphs, renormalised
    /// from `g`'s raw `weights`.
    pub fn snapshots(&self, g: &Graph, weights: &EdgeWeights) -> Vec<Subgraph> {
        assert!(
            self.fractions.windows(2).all(|w| w[0] < w[1]),
            "fractions must be strictly increasing"
        );
        assert!(
            self.fractions.iter().all(|&f| f > 0.0 && f <= 1.0),
            "fractions must lie in (0, 1]"
        );
        self.fractions
            .iter()
            .map(|&f| {
                let k = ((g.node_count() as f64) * f).round().max(1.0) as usize;
                let keep: Vec<NodeId> =
                    (0..k.min(g.node_count())).map(NodeId::from_index).collect();
                Subgraph::induce(g, weights, &keep)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{fig2_toy, fig2_toy_with_weights};

    #[test]
    fn induce_keeps_internal_edges_only() {
        let (g, w, ids) = fig2_toy_with_weights();
        // Keep t1 and its papers p1..p5: edges t1<->p_i survive, paper<->venue don't.
        let mut keep = vec![ids.t1];
        keep.extend(ids.p.iter().take(5).copied());
        let sub = Subgraph::induce(&g, &w, &keep);
        assert_eq!(sub.graph.node_count(), 6);
        assert_eq!(sub.graph.edge_count(), 10); // 5 undirected edges
    }

    #[test]
    fn induce_renormalizes_rows() {
        let (g, w, ids) = fig2_toy_with_weights();
        let keep = vec![ids.t1, ids.p[0], ids.p[1]];
        let sub = Subgraph::induce(&g, &w, &keep);
        let t1 = sub.to_sub(ids.t1).unwrap();
        let probs: Vec<f64> = sub.graph.out_edges(t1).map(|(_, p)| p).collect();
        // t1 kept only 2 of its 5 papers; row renormalizes to 1/2 each.
        assert_eq!(probs.len(), 2);
        assert!(probs.iter().all(|&p| (p - 0.5).abs() < 1e-12));
    }

    #[test]
    fn mapping_roundtrip() {
        let (g, w, ids) = fig2_toy_with_weights();
        let keep = vec![ids.v1, ids.v2];
        let sub = Subgraph::induce(&g, &w, &keep);
        for new in sub.graph.nodes() {
            let old = sub.to_parent(new);
            assert_eq!(sub.to_sub(old), Some(new));
        }
        assert_eq!(sub.to_sub(ids.t1), None);
    }

    #[test]
    fn induce_relabels_from_the_parent() {
        let (g, w, ids) = fig2_toy_with_weights();
        // Out of id order, so the subgraph's label arena is refilled in a
        // new order.
        let keep = vec![ids.v3, ids.t1, ids.p[6], ids.v1];
        let sub = Subgraph::induce(&g, &w, &keep);
        for new in sub.graph.nodes() {
            assert_eq!(sub.graph.label(new), g.label(sub.to_parent(new)));
        }
        assert_eq!(sub.graph.find_by_label("t1:spatio"), Some(NodeId(1)));
        assert_eq!(sub.graph.find_by_label("v2:ACM-GIS-like"), None);
    }

    #[test]
    fn induce_dedups_keep_list() {
        let (g, w, ids) = fig2_toy_with_weights();
        let keep = vec![ids.v1, ids.v1, ids.v2];
        let sub = Subgraph::induce(&g, &w, &keep);
        assert_eq!(sub.graph.node_count(), 2);
    }

    #[test]
    fn khop_zero_is_seeds() {
        let (g, ids) = fig2_toy();
        let hood = khop_neighborhood(&g, &[ids.t1], 0);
        assert_eq!(hood, vec![ids.t1]);
    }

    #[test]
    fn khop_expands_by_hops() {
        let (g, ids) = fig2_toy();
        let h1 = khop_neighborhood(&g, &[ids.t1], 1);
        assert_eq!(h1.len(), 6); // t1 + p1..p5
        let h2 = khop_neighborhood(&g, &[ids.t1], 2);
        assert_eq!(h2.len(), 9); // + v1, v2, v3
        let h3 = khop_neighborhood(&g, &[ids.t1], 3);
        assert_eq!(h3.len(), 11); // + p6, p7
        let h4 = khop_neighborhood(&g, &[ids.t1], 4);
        assert_eq!(h4.len(), 12); // + t2 = whole graph
    }

    #[test]
    fn growth_snapshots_are_cumulative() {
        let (g, w, _) = fig2_toy_with_weights();
        let snaps = GrowthSchedule::paper_default().snapshots(&g, &w);
        assert_eq!(snaps.len(), 5);
        for w in snaps.windows(2) {
            assert!(w[0].graph.node_count() <= w[1].graph.node_count());
            // Cumulative: earlier snapshot's nodes are a prefix of later's.
            assert!(w[1].graph.node_count() >= w[0].graph.node_count());
        }
        assert_eq!(snaps.last().unwrap().graph.node_count(), g.node_count());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn growth_rejects_non_monotone() {
        let (g, w, _) = fig2_toy_with_weights();
        GrowthSchedule {
            fractions: vec![0.5, 0.2],
        }
        .snapshots(&g, &w);
    }
}
