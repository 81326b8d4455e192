//! Reusable per-query workspaces for the top-K machinery.
//!
//! One 2SBound query touches BCA's `ρ` map and dense `µ` residuals (with
//! their frontier bitset), the f- and t-neighborhood bounds, the
//! t-neighborhood's active-set-local layout (local CSR, outside mass,
//! border counts) and a handful of scratch vectors. [`TopKWorkspace`] owns
//! all of them so a serving worker can run query after query against a
//! shared graph with zero steady-state allocation: every buffer is cleared
//! in O(touched) and re-used.
//!
//! Only three buffers are indexed by node id, 16 B per node together: the
//! sparse indexes of `ρ` and of `S_t`, and `µ` with its frontier bits.
//! Every other table is indexed by a member's position in `ρ` (F's bounds)
//! or in `S_t` (T's layout), and no buffer holds a set of node ids: a
//! single node's active set is counted with `S_t`'s membership test, a
//! multi-node query's by sorting its member list.
//!
//! The workspace is deliberately *not* tied to a graph: capacities grow on
//! first use (and when a larger graph appears) and are retained after.

use crate::bounds::Bounds;
use rtr_core::BcaWorkspace;
use rtr_graph::SparseMap;

/// Reusable state for one [`crate::fbound::FNeighborhood`]: the underlying
/// BCA workspace, the bounds over `S_f` (indexed by `ρ`'s positions), and
/// the Stage-II sweep order.
#[derive(Clone, Debug, Default)]
pub struct FWorkspace {
    pub(crate) bca: BcaWorkspace,
    pub(crate) bounds: Vec<Bounds>,
    pub(crate) order: Vec<(u32, u32)>,
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
    /// A multi-node query's active-set members, sorted and deduplicated.
    pub(crate) union: Vec<u32>,
}

impl TWorkspace {
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

    /// A workspace with its node-indexed arrays pre-sized for a graph of
    /// `n` nodes, so a serving worker's *first* query does not pay the
    /// O(n) dense-array allocations that [`TopKWorkspace::new`] defers to
    /// first use. Only the first neighborhood pair is pre-sized: the pairs
    /// of a multi-node query's further nodes grow when one arrives.
    /// Capacities still grow on demand if a larger graph appears; results
    /// are identical either way.
    pub fn with_capacity(n: usize) -> Self {
        let (mut f, mut t) = (FWorkspace::default(), TWorkspace::default());
        f.bca = BcaWorkspace::with_capacity(n);
        t.bounds = SparseMap::with_capacity(n);
        TopKWorkspace {
            pairs: vec![(f, t)],
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopKConfig, TwoSBound};
    use rtr_core::{Measure, Query, RankParams};
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::{Graph, GraphBuilder, NodeId};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// The system allocator, counting per thread the live heap blocks of
    /// at least `LARGE` bytes.
    struct Probe;

    #[global_allocator]
    static PROBE: Probe = Probe;

    thread_local! {
        static LARGE: Cell<usize> = const { Cell::new(usize::MAX) };
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    fn note(size: usize, delta: isize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let large = LARGE.try_with(Cell::get).unwrap_or(usize::MAX);
        if size >= large {
            let _ = LIVE.try_with(|live| live.set(live.get() + delta));
        }
    }

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged, so `System` upholds the contract; the counting
    // only reads sizes and allocates nothing.
    unsafe impl GlobalAlloc for Probe {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: `layout` is the caller's, valid per `alloc`'s contract.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                note(layout.size(), 1);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: as in `alloc`.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                note(layout.size(), 1);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            note(layout.size(), -1);
            // SAFETY: `ptr` came from `System` through this allocator, with
            // this `layout`, per `dealloc`'s contract.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: as in `dealloc`, and `new_size` is valid per
            // `realloc`'s contract.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                note(layout.size(), -1);
                note(new_size, 1);
            }
            p
        }
    }

    /// `2^16` nodes in strongly connected 8-node components: every
    /// neighborhood stays within 8 nodes, so only a buffer indexed by node
    /// id reaches `|V|` bytes.
    fn components() -> Graph {
        let n = 1 << 16;
        let mut b = GraphBuilder::with_capacity(n, 2 * n);
        let ty = b.register_type("n");
        for _ in 0..n {
            b.add_node(ty);
        }
        for v in 0..n as u32 {
            let base = v & !7;
            b.add_edge(NodeId(v), NodeId(base + (v + 1) % 8), 1.0);
            b.add_edge(NodeId(v), NodeId(base + (v + 3) % 8), 2.0);
        }
        b.build()
    }

    #[test]
    fn a_warm_workspace_holds_three_node_indexed_arrays() {
        // ρ's sparse index (4 B per node), S_t's sparse index (4 B) and µ
        // (8 B, with its frontier bits at 1/8 B). A further buffer of one
        // entry per node is a decision to make here, not a side effect.
        let g = components();
        let n = g.node_count();
        let config = TopKConfig {
            k: 3,
            epsilon: 0.01,
            ..TopKConfig::default()
        };
        let measures = [
            Measure::Rtr,
            Measure::F,
            Measure::T,
            Measure::RtrPlus { beta: 0.3 },
        ];
        let queries = [
            Query::single(NodeId(8)),
            Query::weighted(&[(NodeId(16), 0.5), (NodeId(4_100), 0.5)]).unwrap(),
            Query::weighted(&[(NodeId(1), 1.0), (NodeId(9), 1.0), (NodeId(65_535), 2.0)]).unwrap(),
            Query::single(NodeId(40_000)),
        ];
        for presized in [false, true] {
            LARGE.with(|large| large.set(n));
            let before = LIVE.with(Cell::get);
            let mut ws = if presized {
                TopKWorkspace::with_capacity(n)
            } else {
                TopKWorkspace::new()
            };
            for measure in measures {
                let engine =
                    TwoSBound::for_measure(RankParams::default(), config, measure).unwrap();
                for query in &queries {
                    let result = engine.run_query_with(&g, query, &mut ws).unwrap();
                    assert!(result.converged, "{measure:?} {query:?}");
                    assert_eq!(LIVE.with(Cell::get) - before, 3, "{measure:?} {query:?}");
                }
            }
            drop(ws);
            assert_eq!(LIVE.with(Cell::get), before);
            LARGE.with(|large| large.set(usize::MAX));
        }
    }

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
