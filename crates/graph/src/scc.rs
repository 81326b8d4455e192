//! Strongly-connected components and irreducibility repair.
//!
//! RoundTripRank needs walks both from and to the query; on a graph that is
//! not strongly connected, `t(q,v) = 0` can zero out arbitrarily important
//! nodes. The paper's remedy (Sect. III-B): *"In practice, we can always make
//! a graph irreducible by adding some dummy edges"* (citing Haveliwala \[18\]).
//!
//! [`IrreducibilityRepair`] implements exactly that: it computes the SCC
//! condensation (iterative Tarjan, no recursion so million-node graphs don't
//! blow the stack) and, if there is more than one component, threads a cycle
//! of low-weight dummy edges through representatives of every component,
//! guaranteeing strong connectivity while perturbing transition probabilities
//! by at most the chosen dummy weight fraction.

use crate::builder::GraphBuilder;
use crate::graph::{EdgeWeights, Graph};
use crate::node::NodeId;

/// Result of Tarjan's algorithm: a component id per node, components numbered
/// in reverse topological order of the condensation (Tarjan's natural output).
#[derive(Clone, Debug)]
pub struct SccResult {
    /// `comp[v]` = component index of node `v`.
    pub comp: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl SccResult {
    /// Size of each component.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.comp {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Whether the graph is strongly connected (single component) —
    /// "irreducible" in the paper's Markov-chain vocabulary.
    pub fn is_strongly_connected(&self) -> bool {
        self.count <= 1
    }
}

/// Iterative Tarjan SCC over the graph's out-adjacency.
pub fn tarjan_scc(g: &Graph) -> SccResult {
    let n = g.node_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Explicit DFS frames: (node, next child offset).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let neighbors = g.out_neighbors(NodeId(v));
            if *child < neighbors.len() {
                let w = neighbors[*child].0;
                *child += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is an SCC root: pop its component.
                    loop {
                        // invariant: an SCC root is always on the Tarjan
                        // stack when its component is popped.
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }

    SccResult {
        comp,
        count: comp_count as usize,
    }
}

/// Dummy-edge irreducibility repair (paper Sect. III-B).
#[derive(Clone, Copy, Debug)]
pub struct IrreducibilityRepair {
    /// Weight of each dummy edge as a *fraction of the source node's current
    /// weighted out-degree* (or this absolute value if the node is dangling).
    /// Small values keep the ranking perturbation negligible; the paper's
    /// rankings are reported stable for a wide range of damping, so the
    /// default of 1e-3 is safely below measurement noise.
    pub dummy_weight_fraction: f64,
}

impl Default for IrreducibilityRepair {
    fn default() -> Self {
        Self {
            dummy_weight_fraction: 1e-3,
        }
    }
}

impl IrreducibilityRepair {
    /// Repair `g` into a strongly connected graph.
    ///
    /// Picks one representative node per SCC and threads dummy edges
    /// `rep[0] -> rep[1] -> ... -> rep[k-1] -> rep[0]`. Any directed cycle
    /// through all components of the condensation makes the union strongly
    /// connected. Returns the repaired graph and the number of dummy edges
    /// added (0 if already irreducible — in that case the graph is rebuilt
    /// unchanged).
    ///
    /// `weights` is `g`'s raw weight column (from
    /// [`crate::GraphBuilder::build_with_weights`]): the repaired graph is
    /// rebuilt from them, and each dummy edge is sized from its source's
    /// row sum.
    pub fn repair(&self, g: &Graph, weights: &EdgeWeights) -> (Graph, usize) {
        let scc = tarjan_scc(g);
        if scc.is_strongly_connected() {
            return (g.clone(), 0);
        }
        // Representative = first node seen per component.
        let mut rep: Vec<Option<NodeId>> = vec![None; scc.count];
        for v in g.nodes() {
            let c = scc.comp[v.index()] as usize;
            if rep[c].is_none() {
                rep[c] = Some(v);
            }
        }
        // invariant: comp ids are dense — every component indexed by
        // comp[] contains at least the node that named it.
        let reps: Vec<NodeId> = rep.into_iter().map(|r| r.expect("non-empty SCC")).collect();

        // Rebuild through a builder, re-adding all original raw weights.
        let mut b = GraphBuilder::with_capacity(g.node_count(), g.edge_count() + reps.len());
        for (_, name) in g.types().iter() {
            b.register_type(name);
        }
        for v in g.nodes() {
            b.add_labeled_node(g.node_type(v), g.label(v));
        }
        for v in g.nodes() {
            for (d, w) in weights.out_edges(g, v) {
                b.add_edge(v, d, w);
            }
        }
        let mut added = 0usize;
        for i in 0..reps.len() {
            let src = reps[i];
            let dst = reps[(i + 1) % reps.len()];
            if src == dst {
                continue;
            }
            let base = weights.weighted_out_degree(g, src);
            let w = if base > 0.0 {
                base * self.dummy_weight_fraction
            } else {
                self.dummy_weight_fraction
            };
            b.add_edge(src, dst, w);
            added += 1;
        }
        (b.build(), added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::toy::{fig2_toy, fig2_toy_with_weights};

    fn line_graph(n: usize) -> (Graph, EdgeWeights) {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(ty)).collect();
        for i in 0..n - 1 {
            b.add_edge(nodes[i], nodes[i + 1], 1.0);
        }
        b.build_with_weights()
    }

    #[test]
    fn toy_graph_is_strongly_connected() {
        let (g, _) = fig2_toy();
        let scc = tarjan_scc(&g);
        assert!(scc.is_strongly_connected(), "{} components", scc.count);
    }

    #[test]
    fn line_graph_has_n_components() {
        let (g, _) = line_graph(5);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 5);
        assert_eq!(scc.component_sizes(), vec![1; 5]);
    }

    #[test]
    fn two_cycles_bridged_one_way() {
        // cycle {0,1} -> cycle {2,3}: two SCCs.
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let n: Vec<_> = (0..4).map(|_| b.add_node(ty)).collect();
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[1], n[0], 1.0);
        b.add_edge(n[2], n[3], 1.0);
        b.add_edge(n[3], n[2], 1.0);
        b.add_edge(n[1], n[2], 1.0);
        let g = b.build();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 2);
        // Same component for 0,1 and for 2,3.
        assert_eq!(scc.comp[0], scc.comp[1]);
        assert_eq!(scc.comp[2], scc.comp[3]);
        assert_ne!(scc.comp[0], scc.comp[2]);
    }

    #[test]
    fn repair_makes_line_strongly_connected() {
        let (g, w) = line_graph(6);
        let (fixed, added) = IrreducibilityRepair::default().repair(&g, &w);
        assert!(added > 0);
        let scc = tarjan_scc(&fixed);
        assert!(scc.is_strongly_connected());
        assert_eq!(fixed.node_count(), g.node_count());
    }

    #[test]
    fn repair_noop_on_connected_graph() {
        let (g, w, _) = fig2_toy_with_weights();
        let (fixed, added) = IrreducibilityRepair::default().repair(&g, &w);
        assert_eq!(added, 0);
        assert_eq!(fixed.edge_count(), g.edge_count());
    }

    #[test]
    fn repair_preserves_ranking_scale() {
        // Dummy edges must perturb transition rows only slightly.
        let (g, w) = line_graph(4);
        let (fixed, _) = IrreducibilityRepair::default().repair(&g, &w);
        let n0 = NodeId(0);
        // Node 0's original single edge keeps nearly all its mass.
        let main_prob = fixed
            .out_edges(n0)
            .find(|(d, _)| *d == NodeId(1))
            .map(|(_, p)| p);
        if let Some(p) = main_prob {
            assert!(p > 0.99, "main edge prob diluted to {p}");
        }
    }

    #[test]
    fn repair_keeps_every_label() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let names = ["a", "", "ß→∞", "a"];
        let n: Vec<_> = names.iter().map(|l| b.add_labeled_node(ty, l)).collect();
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[2], n[3], 1.0);
        let (g, w) = b.build_with_weights();
        let (fixed, added) = IrreducibilityRepair::default().repair(&g, &w);
        assert!(added > 0);
        for (&v, name) in n.iter().zip(names) {
            assert_eq!(fixed.label(v), name);
        }
        assert_eq!(fixed.find_by_label("a"), Some(n[0]));
    }

    #[test]
    fn repair_handles_dangling_nodes() {
        let (g, w) = line_graph(3); // node 2 dangling
        assert!(g.is_dangling(NodeId(2)));
        let (fixed, _) = IrreducibilityRepair::default().repair(&g, &w);
        for v in fixed.nodes() {
            assert!(!fixed.is_dangling(v), "{v:?} still dangling");
        }
    }

    #[test]
    fn empty_graph_scc() {
        let b = GraphBuilder::new();
        let g = b.build();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 0);
        assert!(scc.is_strongly_connected());
    }

    #[test]
    fn singleton_self_loop() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let v = b.add_node(ty);
        b.add_edge(v, v, 1.0);
        let scc = tarjan_scc(&b.build());
        assert_eq!(scc.count, 1);
    }

    #[test]
    fn figure_eight_is_one_component() {
        // Two cycles sharing node 0: {0,1,2} and {0,3,4}. Every node reaches
        // every other through the shared waist, so one SCC.
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let n: Vec<_> = (0..5).map(|_| b.add_node(ty)).collect();
        for &(s, d) in &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)] {
            b.add_edge(n[s], n[d], 1.0);
        }
        let scc = tarjan_scc(&b.build());
        assert_eq!(scc.count, 1);
    }

    #[test]
    fn condensation_is_reverse_topological() {
        // Chain of three 2-cycles: {0,1} -> {2,3} -> {4,5}. Tarjan numbers
        // components in reverse topological order of the condensation, so
        // every edge crossing components must go from a higher component id
        // to a lower one.
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let n: Vec<_> = (0..6).map(|_| b.add_node(ty)).collect();
        for &(s, d) in &[
            (0, 1),
            (1, 0),
            (2, 3),
            (3, 2),
            (4, 5),
            (5, 4),
            (1, 2),
            (3, 4),
        ] {
            b.add_edge(n[s], n[d], 1.0);
        }
        let g = b.build();
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 3);
        for v in g.nodes() {
            for (d, _) in g.out_edges(v) {
                let (cs, cd) = (scc.comp[v.index()], scc.comp[d.index()]);
                assert!(cs >= cd, "edge {v:?}->{d:?} goes {cs} -> {cd}");
            }
        }
    }

    #[test]
    fn deep_line_does_not_overflow_stack() {
        // The iterative Tarjan must survive a DFS path the recursive version
        // could not (100k frames would overflow a default thread stack).
        let (g, w) = line_graph(100_000);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count, 100_000);
        let (fixed, added) = IrreducibilityRepair::default().repair(&g, &w);
        assert!(added > 0);
        assert!(tarjan_scc(&fixed).is_strongly_connected());
    }

    #[test]
    fn isolated_nodes_each_their_own_component() {
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        for _ in 0..4 {
            b.add_node(ty);
        }
        let scc = tarjan_scc(&b.build());
        assert_eq!(scc.count, 4);
        assert_eq!(scc.component_sizes(), vec![1; 4]);
    }
}
