//! Reusable per-query workspaces for the top-K machinery.
//!
//! One 2SBound query touches four sparse structures — BCA's `ρ`/`µ` maps,
//! the f- and t-neighborhood bounds maps — plus the t-neighborhood's
//! active-set-local layout (local CSR, outside mass, border counts) and a
//! handful of scratch vectors (the f sweep order, border selection, the
//! r-neighborhood member list, the active-set union). [`TopKWorkspace`]
//! owns all of them so a serving worker can run query after query against
//! a shared graph with zero steady-state allocation: every buffer is
//! cleared in O(touched) and re-used.
//!
//! The workspace is deliberately *not* tied to a graph: capacities grow on
//! first use (and when a larger graph appears) and are retained after.

use crate::bounds::Bounds;
use rtr_core::BcaWorkspace;
use rtr_graph::{NodeSet, SparseMap};

/// Reusable state for one [`crate::fbound::FNeighborhood`]: the underlying
/// BCA workspace, the bounds map over `S_f`, and the Stage-II sweep order.
#[derive(Clone, Debug, Default)]
pub struct FWorkspace {
    pub(crate) bca: BcaWorkspace,
    pub(crate) bounds: SparseMap<Bounds>,
    pub(crate) order: Vec<u32>,
}

impl FWorkspace {
    pub(crate) fn with_capacity(n: usize) -> Self {
        FWorkspace {
            bca: BcaWorkspace::with_capacity(n),
            bounds: SparseMap::with_capacity(n),
            order: Vec::new(),
        }
    }
}

/// Reusable state for one [`crate::tbound::TNeighborhood`]: the bounds map
/// over `S_t` and the active-set-local layout Stage II sweeps.
///
/// A member's dense position in `bounds` is its local id (the query is
/// position 0). Indexed by position: a local CSR (`row_start` / `cols` /
/// `probs`) of the member's out-edges into `S_t`, `outside_mass` with the
/// summed probability of its out-edges leaving `S_t`, and `outside_in`
/// counting its in-edges from outside `S_t`. `border` lists the members
/// with a non-zero count as `(node id, position)`, ascending by id. The
/// rest is scratch: `ids` (sorted id lists announced to the adjacency
/// source), `select` (border selection), `grown` and `cursor` (edges that
/// move into old members' rows when their target is absorbed).
///
/// Rows exist for positions `0..outside_mass.len()`; members beyond that
/// were inserted but not laid out yet.
#[derive(Clone, Debug, Default)]
pub struct TWorkspace {
    pub(crate) bounds: SparseMap<Bounds>,
    pub(crate) row_start: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) probs: Vec<f64>,
    pub(crate) outside_mass: Vec<f64>,
    pub(crate) outside_in: Vec<u32>,
    pub(crate) border: Vec<(u32, u32)>,
    pub(crate) ids: Vec<u32>,
    pub(crate) select: Vec<(u32, f64)>,
    pub(crate) grown: Vec<(u32, u32, f64)>,
    pub(crate) cursor: Vec<u32>,
}

/// Everything one [`crate::two_sbound::TwoSBound`] query needs, bundled for
/// per-worker reuse; pass to [`crate::two_sbound::TwoSBound::run_with`].
///
/// ```
/// use rtr_graph::toy::fig2_toy;
/// use rtr_core::prelude::*;
/// use rtr_topk::prelude::*;
///
/// let (g, ids) = fig2_toy();
/// let engine = TwoSBound::new(RankParams::default(), TopKConfig::toy());
/// let mut ws = TopKWorkspace::default();
/// for q in [ids.t1, ids.t2] {
///     // Bit-identical to `engine.run(&g, q)`, without its allocations.
///     let result = engine.run_with(&g, q, &mut ws).unwrap();
///     assert_eq!(result.ranking[0], q);
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopKWorkspace {
    /// One neighborhood pair per query node. A multi-node query grows the
    /// pairs past the first for its own run; only the first is kept.
    pub(crate) pairs: Vec<(FWorkspace, TWorkspace)>,
    pub(crate) members: Vec<(rtr_graph::NodeId, Bounds)>,
    pub(crate) active: NodeSet,
}

impl TWorkspace {
    pub(crate) fn with_capacity(n: usize) -> Self {
        TWorkspace {
            bounds: SparseMap::with_capacity(n),
            ..Self::default()
        }
    }

    /// Empty every buffer (capacities stay) for a graph of `n` nodes.
    pub(crate) fn reset(&mut self, n: usize) {
        self.bounds.ensure_capacity(n);
        self.bounds.clear();
        self.row_start.clear();
        self.row_start.push(0);
        self.cols.clear();
        self.probs.clear();
        self.outside_mass.clear();
        self.outside_in.clear();
        self.border.clear();
    }
}

impl TopKWorkspace {
    /// A workspace (all buffers empty) ready for any graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace with its sparse-set index arrays pre-sized for a graph
    /// of `n` nodes, so a serving worker's *first* query does not pay the
    /// O(n) dense-array allocations that [`TopKWorkspace::new`] defers to
    /// first use. Only the first neighborhood pair is pre-sized: the pairs
    /// of a multi-node query's further nodes grow when one arrives.
    /// Capacities still grow on demand if a larger graph appears; results
    /// are identical either way.
    pub fn with_capacity(n: usize) -> Self {
        TopKWorkspace {
            pairs: vec![(FWorkspace::with_capacity(n), TWorkspace::with_capacity(n))],
            members: Vec::new(),
            active: NodeSet::with_capacity(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopKConfig, TwoSBound};
    use rtr_core::RankParams;
    use rtr_graph::toy::fig2_toy;

    /// Capacities of every flat buffer of the t-neighborhood layout.
    fn t_capacities(ws: &TopKWorkspace) -> [usize; 10] {
        let t = &ws.pairs[0].1;
        [
            t.row_start.capacity(),
            t.cols.capacity(),
            t.probs.capacity(),
            t.outside_mass.capacity(),
            t.outside_in.capacity(),
            t.border.capacity(),
            t.ids.capacity(),
            t.select.capacity(),
            t.grown.capacity(),
            t.cursor.capacity(),
        ]
    }

    #[test]
    fn warm_workspace_keeps_layout_capacities() {
        // No steady-state regrowth: once a workspace has served a set of
        // queries, serving them again allocates nothing in the layout.
        let (g, ids) = fig2_toy();
        let engine = TwoSBound::new(RankParams::default(), TopKConfig::toy());
        let mut ws = TopKWorkspace::default();
        let queries = [ids.t1, ids.v1, ids.p[0], ids.t2];
        for q in queries {
            engine.run_with(&g, q, &mut ws).unwrap();
        }
        let warm = t_capacities(&ws);
        assert!(warm.iter().all(|&c| c > 0), "{warm:?}");
        for q in queries {
            engine.run_with(&g, q, &mut ws).unwrap();
            assert_eq!(t_capacities(&ws), warm, "regrew serving {q:?}");
        }
    }
}
