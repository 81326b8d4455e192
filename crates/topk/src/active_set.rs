//! Active-set accounting.
//!
//! The paper's distributed analysis (Sect. V-B1) measures the *active set* —
//! "the minimum working set that must reside in the main memory": the nodes
//! of the f- and t-neighborhoods plus their adjacency. Fig. 12 reports its
//! byte size against graph snapshots; this module computes the same
//! quantity.

use rtr_graph::{AdjacencyAccess, Graph, NodeId, NodeSet};

/// Size statistics of one query's active set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActiveSetStats {
    /// Nodes in the f-neighborhood `S_f`.
    pub f_nodes: usize,
    /// Nodes in the t-neighborhood `S_t`.
    pub t_nodes: usize,
    /// Distinct active nodes (`S_f ∪ S_t`).
    pub active_nodes: usize,
    /// Directed edges incident to active nodes (each counted once per
    /// direction stored, matching a node block's out- and in-part).
    pub active_edges: usize,
    /// Estimated resident bytes of the active set.
    pub bytes: usize,
}

impl ActiveSetStats {
    /// Measure the active set induced by the two neighborhoods.
    pub fn measure<I, J>(g: &Graph, f_nodes: I, t_nodes: J) -> Self
    where
        I: IntoIterator<Item = NodeId>,
        J: IntoIterator<Item = NodeId>,
    {
        Self::measure_in_access(&mut NodeSet::new(), g, f_nodes, t_nodes)
    }

    /// [`ActiveSetStats::measure`] over any [`AdjacencyAccess`] source,
    /// reusing `union` as the scratch set (it is cleared first and sized to
    /// the graph), so per-query serving performs no allocation here. The
    /// generic engines measure through the same trait they ran on, so a
    /// paged source reports the same numbers as the in-memory graph. Every
    /// measured node must be resident.
    pub fn measure_in_access<A, I, J>(union: &mut NodeSet, a: &A, f_nodes: I, t_nodes: J) -> Self
    where
        A: AdjacencyAccess,
        I: IntoIterator<Item = NodeId>,
        J: IntoIterator<Item = NodeId>,
    {
        union.ensure_capacity(a.node_count());
        union.clear();
        let mut f_count = 0usize;
        let mut t_count = 0usize;
        for v in f_nodes {
            f_count += 1;
            union.insert(v.0);
        }
        for v in t_nodes {
            t_count += 1;
            union.insert(v.0);
        }
        let mut edges = 0usize;
        let mut bytes = 0usize;
        for v in union.iter() {
            let v = NodeId(v);
            edges += a.out_degree(v) + a.in_degree(v);
            bytes += a.node_footprint_bytes(v);
        }
        ActiveSetStats {
            f_nodes: f_count,
            t_nodes: t_count,
            active_nodes: union.len(),
            active_edges: edges,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn union_deduplicates() {
        let (g, ids) = fig2_toy();
        let stats = ActiveSetStats::measure(&g, vec![ids.t1, ids.v1], vec![ids.t1, ids.v2]);
        assert_eq!(stats.f_nodes, 2);
        assert_eq!(stats.t_nodes, 2);
        assert_eq!(stats.active_nodes, 3); // t1 shared
        assert!(stats.bytes > 0);
    }

    #[test]
    fn active_set_smaller_than_graph() {
        let (g, ids) = fig2_toy();
        let stats = ActiveSetStats::measure(&g, vec![ids.t1], vec![ids.t1]);
        assert!(stats.bytes < g.memory_bytes());
    }

    #[test]
    fn empty_sets() {
        let (g, _) = fig2_toy();
        let stats = ActiveSetStats::measure(&g, vec![], vec![]);
        assert_eq!(stats, ActiveSetStats::default());
    }
}
