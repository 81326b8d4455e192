//! Active-set accounting.
//!
//! The paper's distributed analysis (Sect. V-B1) measures the *active set* —
//! "the minimum working set that must reside in the main memory": the nodes
//! of the f- and t-neighborhoods plus their adjacency. Fig. 12 reports its
//! byte size against graph snapshots; this module computes the same
//! quantity.

use rtr_graph::{AdjacencyAccess, NodeId};

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
    /// Measure one query node's active set with no set over the graph:
    /// each side lists its members once and `in_t` tells `S_t`'s, so the
    /// union is `S_t ∪ (S_f \ S_t)`. A lone side passes the other empty
    /// (lone F with an `in_t` false everywhere); an exact answer passes
    /// `g.nodes()` twice with an `in_t` true everywhere. Measures through
    /// any [`AdjacencyAccess`] source, so a paged one reports what the
    /// in-memory graph does; every measured node must be resident.
    pub fn measure_pair<A, I, J>(
        a: &A,
        f_nodes: I,
        t_nodes: J,
        in_t: impl Fn(NodeId) -> bool,
    ) -> Self
    where
        A: AdjacencyAccess,
        I: IntoIterator<Item = NodeId>,
        J: IntoIterator<Item = NodeId>,
    {
        let (mut f_count, mut t_count) = (0, 0);
        let t_side = t_nodes.into_iter().inspect(|_| t_count += 1);
        let f_only = f_nodes.into_iter().inspect(|_| f_count += 1);
        let stats = t_side
            .chain(f_only.filter(|&v| !in_t(v)))
            .fold(Self::default(), |s, v| ActiveSetStats {
                active_nodes: s.active_nodes + 1,
                active_edges: s.active_edges + a.out_degree(v) + a.in_degree(v),
                bytes: s.bytes + a.node_footprint_bytes(v),
                ..s
            });
        ActiveSetStats {
            f_nodes: f_count,
            t_nodes: t_count,
            ..stats
        }
    }

    /// Measure the active set of any member lists, duplicates allowed (a
    /// multi-node query's): their union is sorted and deduplicated in
    /// `scratch`, so a serving worker allocates nothing here.
    pub fn measure<A, I, J>(scratch: &mut Vec<u32>, a: &A, f_nodes: I, t_nodes: J) -> Self
    where
        A: AdjacencyAccess,
        I: IntoIterator<Item = NodeId>,
        J: IntoIterator<Item = NodeId>,
    {
        scratch.clear();
        scratch.extend(f_nodes.into_iter().map(|v| v.0));
        let f_nodes = scratch.len();
        scratch.extend(t_nodes.into_iter().map(|v| v.0));
        let t_nodes = scratch.len() - f_nodes;
        scratch.sort_unstable();
        scratch.dedup();
        let union = scratch.iter().map(|&v| NodeId(v));
        ActiveSetStats {
            f_nodes,
            t_nodes,
            ..Self::measure_pair(a, union, [], |_| false)
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
        let (f, t) = (vec![ids.t1, ids.v1], vec![ids.t1, ids.v2]);
        let stats = ActiveSetStats::measure(&mut Vec::new(), &g, f.clone(), t.clone());
        assert_eq!(stats.f_nodes, 2);
        assert_eq!(stats.t_nodes, 2);
        assert_eq!(stats.active_nodes, 3); // t1 shared
        assert!(stats.bytes > 0);
        let pair = ActiveSetStats::measure_pair(&g, f, t.clone(), |v| t.contains(&v));
        assert_eq!(pair, stats);
    }

    #[test]
    fn active_set_smaller_than_graph() {
        let (g, ids) = fig2_toy();
        let stats = ActiveSetStats::measure_pair(&g, [ids.t1], [ids.t1], |v| v == ids.t1);
        assert_eq!(stats.active_nodes, 1);
        assert!(stats.bytes < g.memory_bytes());
    }

    #[test]
    fn empty_sets() {
        let (g, _) = fig2_toy();
        let none = std::iter::empty::<NodeId>;
        let stats = ActiveSetStats::measure(&mut Vec::new(), &g, none(), none());
        assert_eq!(stats, ActiveSetStats::default());
        let stats = ActiveSetStats::measure_pair(&g, none(), none(), |_| false);
        assert_eq!(stats, ActiveSetStats::default());
    }
}
