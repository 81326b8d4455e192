//! T-Rank realization of the two-stage bounds-updating framework
//! (paper Sect. V-A3, "Realization of T-Rank").
//!
//! The t-neighborhood `S_t` grows backward from the query along in-edges.
//! Its Stage I hinges on **border nodes** (after Sarkar et al. [14, 20]):
//! a border node of `S_t` has at least one in-neighbor outside `S_t`, so any
//! walk from an unseen node must enter `S_t` through a border node, and
//! because the geometric walk is memoryless,
//!
//! ```text
//! t̂(q) = (1-α) · max_{u ∈ ∂(S_t)} t̂(q,u)        (Eq. 22)
//! ```
//!
//! (the `1-α` factor: reaching the border costs at least one surviving
//! step). One expansion picks the `m` border nodes with the largest upper
//! bounds and absorbs all their in-neighbors, deleting them from the border
//! and thus driving the unseen bound down.
//!
//! Stage II sweeps Eq. 17–18 over `S_t`, gathering over **out**-neighbors,
//! to convergence, refreshing the unseen bound each sweep. The *Sarkar*
//! variant (efficiency baseline) performs a single sweep per expansion
//! instead of iterating to convergence.
//!
//! # Active-set-local layout
//!
//! Stage II runs tens of sweeps per expansion, so it must not touch the
//! graph. Every member is addressed by its dense position in the bounds
//! map (the query is position 0, newcomers take the next positions in
//! absorption order) and the [`TWorkspace`] keeps, per position:
//!
//! * a row of a small **local CSR** holding the member's out-edges *into*
//!   `S_t` as `(position, probability)`,
//! * one scalar with the probability mass of its out-edges *leaving* `S_t`
//!   (each of those contributes `prob · t̂(q)` to the upper bound, so only
//!   their sum matters),
//! * the number of its in-edges that come from *outside* `S_t`; a member is
//!   a border node while that count is non-zero, and it only ever falls.
//!
//! All three grow at absorption inside [`TNeighborhood::expand`]: a
//! newcomer's row and outside mass come from one scan of its out-edges, its
//! border count and the `old member → newcomer` edges (which move mass from
//! the old member's scalar into its row) from one scan of its in-edges.
//! Every global edge of a member is therefore read once per query, not once
//! per sweep; a sweep is a linear scan of flat arrays in position order —
//! the query first, then its in-neighbors, and so on outward, which is the
//! direction Eq. 17–18 propagate in — and Eq. 22 is a maximum over a flat
//! border list.

use crate::bounds::Bounds;
use crate::workspace::TWorkspace;
use rtr_core::{CoreError, RankParams};
use rtr_graph::{AdjacencyAccess, AdjacencyError, NodeId};

/// How far [`prefetch_ahead`] hints ahead of an in-edge walk: the index
/// entries twice as far as the blocks they locate ("Memory latency" in
/// ARCHITECTURE.md).
const INDEX_AHEAD: usize = 16;
const BLOCK_AHEAD: usize = 8;

#[inline]
fn prefetch_ahead<A: AdjacencyAccess>(a: &A, ids: impl Fn(usize) -> Option<u32>, i: usize) {
    if let Some(w) = ids(i + INDEX_AHEAD) {
        a.prefetch_index(NodeId(w));
    }
    if let Some(w) = ids(i + BLOCK_AHEAD) {
        a.prefetch(NodeId(w));
    }
}

/// Which Stage-II realization the t-neighborhood uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TBoundMode {
    /// The paper's full realization: refine to convergence.
    TwoStage,
    /// Sarkar et al. baseline: one refinement sweep per expansion.
    Sarkar,
}

/// The t-neighborhood with its bounds.
///
/// Per-query state lives in a [`TWorkspace`]; [`TNeighborhood::new`]
/// allocates a fresh one, [`TNeighborhood::with_workspace`] reuses a
/// worker's buffers.
///
/// The graph is not captured: expansion takes the [`AdjacencyAccess`] it
/// runs against, so the same neighborhood drives the in-memory graph and
/// the distributed active graph alike; refinement reads only the local
/// layout `expand` built.
pub struct TNeighborhood {
    alpha: f64,
    mode: TBoundMode,
    unseen_upper: f64,
    ws: TWorkspace,
}

impl TNeighborhood {
    /// Initialize with the paper's first expansion: `S_t = {q}`,
    /// `ť(q,q) = α`, `t̂(q,q) = 1`, `t̂(q) = 1-α`.
    pub fn new<A: AdjacencyAccess>(
        a: &A,
        q: NodeId,
        params: &RankParams,
        mode: TBoundMode,
    ) -> Result<Self, CoreError> {
        Self::with_workspace(a, q, params, mode, TWorkspace::default())
    }

    /// Initialize like [`TNeighborhood::new`] but reusing `ws`'s buffers
    /// (cleared in O(previous query's touched entries)). Recover the
    /// workspace with [`TNeighborhood::into_workspace`]. Touches no
    /// adjacency — a paged source fetches nothing until the first
    /// expansion, which is also when the query's own row is laid out.
    pub fn with_workspace<A: AdjacencyAccess>(
        a: &A,
        q: NodeId,
        params: &RankParams,
        mode: TBoundMode,
        mut ws: TWorkspace,
    ) -> Result<Self, CoreError> {
        params.validate()?;
        if q.index() >= a.node_count() {
            return Err(CoreError::NodeOutOfRange {
                node: q,
                node_count: a.node_count(),
            });
        }
        ws.reset(a.node_count());
        ws.bounds.insert(
            q.0,
            Bounds {
                lower: params.alpha,
                upper: 1.0,
            },
        );
        Ok(TNeighborhood {
            alpha: params.alpha,
            mode,
            unseen_upper: 1.0 - params.alpha,
            ws,
        })
    }

    /// Dissolve into the workspace so its buffers serve the next query.
    pub fn into_workspace(self) -> TWorkspace {
        self.ws
    }

    /// Current border nodes `∂(S_t)`, ascending by node id. Members
    /// [`TNeighborhood::expand`] has not laid out yet (the query, before
    /// the first expansion) are not listed.
    pub fn border(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ws.border.iter().map(|&(id, _)| NodeId(id))
    }

    /// Eq. 22 over the flat border list. Monotone: the unseen bound never
    /// loosens.
    fn refresh_unseen_upper(&mut self) {
        let vals = self.ws.bounds.value_slice();
        let max_border = self
            .ws
            .border
            .iter()
            .map(|&(_, pos)| vals[pos as usize].upper)
            .fold(f64::NEG_INFINITY, f64::max);
        let fresh = if max_border.is_finite() {
            (1.0 - self.alpha) * max_border
        } else {
            0.0 // no border: every remaining node is unreachable-to-q
        };
        if fresh < self.unseen_upper {
            self.unseen_upper = fresh;
        }
    }

    /// Stage I: absorb the in-neighbors of up to `m` highest-upper border
    /// nodes; initialize newcomers to `[0, previous unseen bound]`; extend
    /// the local layout by them; refresh the unseen bound. Returns the
    /// number of newly added nodes.
    ///
    /// After an `Err` the neighborhood is half-grown and must be dropped
    /// (its workspace stays reusable).
    pub fn expand<A: AdjacencyAccess>(
        &mut self,
        a: &mut A,
        m: usize,
    ) -> Result<usize, AdjacencyError> {
        // Round 1 lays out the query's own row, so it announces {q} first.
        // Every later member is announced as it is absorbed, so the border
        // whose in-edges are read below is always resident already.
        let ws = &mut self.ws;
        if ws.outside_mass.is_empty() {
            ws.ids.clear();
            ws.ids.extend(ws.bounds.keys());
            a.ensure(&ws.ids)?;
            ws.absorb(&*a);
        }
        if ws.border.is_empty() {
            self.refresh_unseen_upper();
            return Ok(0);
        }
        let vals = ws.bounds.value_slice();
        ws.select.clear();
        ws.select.extend(
            ws.border
                .iter()
                .map(|&(id, pos)| (id, vals[pos as usize].upper)),
        );
        let take = m.min(ws.select.len()).max(1);
        // Ties break by node id for run-to-run reproducibility.
        ws.select
            .select_nth_unstable_by(take - 1, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        let newcomer = Bounds::unseen(self.unseen_upper);
        ws.ids.clear();
        let picked = &ws.select[..take];
        for (i, &(u, _)) in picked.iter().enumerate() {
            prefetch_ahead(&*a, |j| picked.get(j).map(|&(w, _)| w), i);
            for (src, _) in a.in_edges(NodeId(u)) {
                if ws.bounds.insert_if_vacant(src.0, newcomer) {
                    ws.ids.push(src.0);
                }
            }
        }
        let added = ws.ids.len();
        ws.ids.sort_unstable();
        a.ensure(&ws.ids)?;
        ws.absorb(&*a);
        self.refresh_unseen_upper();
        Ok(added)
    }

    /// Stage II: refine all bounds over `S_t` (out-neighbor recurrence),
    /// refreshing the unseen bound each sweep. In Sarkar mode only one sweep
    /// is performed. Returns the number of sweeps. Reads only the local
    /// layout [`TNeighborhood::expand`] built; `_a` is unused and stays for
    /// the call shape it shares with [`crate::fbound::FNeighborhood::refine`].
    pub fn refine<A: AdjacencyAccess>(
        &mut self,
        _a: &A,
        tolerance: f64,
        max_sweeps: usize,
    ) -> usize {
        let sweeps_cap = match self.mode {
            TBoundMode::TwoStage => max_sweeps,
            TBoundMode::Sarkar => 1,
        };
        let keep = 1.0 - self.alpha;
        for sweep in 1..=sweeps_cap {
            let ws = &mut self.ws;
            let vals = ws.bounds.value_slice_mut();
            let unseen = self.unseen_upper;
            let mut max_change = 0.0f64;
            // Gauss-Seidel in position order; the query is position 0.
            let mut indicator = self.alpha;
            for (pos, row) in ws.row_start.windows(2).enumerate() {
                let (lo, hi) = (row[0] as usize, row[1] as usize);
                let mut lo_acc = 0.0;
                let mut hi_acc = 0.0;
                for (&dst, &prob) in ws.cols[lo..hi].iter().zip(&ws.probs[lo..hi]) {
                    let b = vals[dst as usize];
                    lo_acc += prob * b.lower;
                    hi_acc += prob * b.upper;
                }
                hi_acc += ws.outside_mass[pos] * unseen;
                let b = &mut vals[pos];
                max_change = max_change.max(b.tighten_lower(indicator + keep * lo_acc));
                max_change = max_change.max(b.tighten_upper(indicator + keep * hi_acc));
                indicator = 0.0;
            }
            self.refresh_unseen_upper();
            if max_change < tolerance {
                return sweep;
            }
        }
        sweeps_cap
    }

    /// The current unseen upper bound `t̂(q)`.
    pub fn unseen_upper(&self) -> f64 {
        self.unseen_upper
    }

    /// Bounds of a seen node, if seen.
    pub fn bounds(&self, v: NodeId) -> Option<Bounds> {
        self.ws.bounds.get(v.0)
    }

    /// Effective bounds of *any* node (unseen ⇒ `[0, t̂(q)]`).
    pub fn effective_bounds(&self, v: NodeId) -> Bounds {
        self.bounds(v)
            .unwrap_or_else(|| Bounds::unseen(self.unseen_upper))
    }

    /// Whether `v` is in `S_t`.
    pub fn contains(&self, v: NodeId) -> bool {
        self.ws.bounds.contains(v.0)
    }

    /// Iterate over seen nodes and their bounds.
    pub fn seen(&self) -> impl Iterator<Item = (NodeId, Bounds)> + '_ {
        self.ws.bounds.iter().map(|(v, b)| (NodeId(v), b))
    }

    /// `|S_t|`.
    pub fn len(&self) -> usize {
        self.ws.bounds.len()
    }

    /// Whether no node (not even the query) has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.ws.bounds.is_empty()
    }
}

impl TWorkspace {
    /// Extend the local layout by the members that have no row yet
    /// (positions `outside_mass.len()..bounds.len()`; their ids, ascending,
    /// are in `ids` and their adjacency is resident in `a`).
    fn absorb<A: AdjacencyAccess>(&mut self, a: &A) {
        let first_new = self.outside_mass.len();
        let members = self.bounds.len();

        // Newcomers' in-edges, hinted ahead: how many come from outside (the
        // border count), and which come from old members — those edges
        // leave the old member's outside mass and join its row.
        self.grown.clear();
        let keys = self.bounds.key_slice();
        for pos in first_new..members {
            prefetch_ahead(a, |j| keys.get(j).copied(), pos);
            let v = NodeId(keys[pos]);
            let mut outside = 0u32;
            for (src, prob) in a.in_edges(v) {
                match self.bounds.position(src.0) {
                    Some(src_pos) if src_pos < first_new => {
                        self.grown.push((src_pos as u32, pos as u32, prob));
                    }
                    Some(_) => {} // newcomer → newcomer: laid out with the source's row
                    None => outside += 1,
                }
            }
            self.outside_in.push(outside);
        }
        self.grow_old_rows(first_new);

        // Newcomers' rows, from their out-edges; an edge into an old member
        // is one outside in-edge less for that member.
        for pos in first_new..members {
            let v = NodeId(self.bounds.key_slice()[pos]);
            let mut outside = 0.0;
            for (dst, prob) in a.out_edges(v) {
                match self.bounds.position(dst.0) {
                    Some(dst_pos) => {
                        self.cols.push(dst_pos as u32);
                        self.probs.push(prob);
                        if dst_pos < first_new {
                            self.outside_in[dst_pos] -= 1;
                        }
                    }
                    None => outside += prob,
                }
            }
            self.outside_mass.push(outside);
            self.row_start.push(self.cols.len() as u32);
        }

        // Border: drop the members whose last outside in-edge just went,
        // merge in the newcomers that have one. Both runs ascend by id, so
        // the merge fills the grown list from its end.
        let outside_in = &self.outside_in;
        self.border.retain(|&(_, pos)| outside_in[pos as usize] > 0);
        let bounds = &self.bounds;
        let fresh = |&id: &u32| {
            let pos = bounds.position(id)?;
            (outside_in[pos] > 0).then_some((id, pos as u32))
        };
        let mut old = self.border.len();
        let mut write = old + self.ids.iter().filter_map(fresh).count();
        self.border.resize(write, (0, 0));
        for entry in self.ids.iter().rev().filter_map(fresh) {
            while old > 0 && self.border[old - 1].0 > entry.0 {
                write -= 1;
                old -= 1;
                self.border[write] = self.border[old];
            }
            write -= 1;
            self.border[write] = entry;
        }
    }

    /// Move the `grown` edges (`old member → newcomer`, gathered from the
    /// newcomers' in-edges) out of the old members' outside mass and into
    /// their rows: rows shift right in place, last row first, by the number
    /// of edges grown into the rows before them.
    fn grow_old_rows(&mut self, first_new: usize) {
        if self.grown.is_empty() {
            return;
        }
        // `cursor[p]`: first the number of edges row `p` gains, then the
        // slot its next gained edge goes to.
        self.cursor.clear();
        self.cursor.resize(first_new, 0);
        for &(src, _, _) in &self.grown {
            self.cursor[src as usize] += 1;
        }
        let old_total = self.cols.len();
        let total = old_total + self.grown.len();
        self.cols.resize(total, 0);
        self.probs.resize(total, 0.0);
        let mut shift = self.grown.len();
        let mut old_end = old_total;
        for p in (0..first_new).rev() {
            let old_start = self.row_start[p] as usize;
            shift -= self.cursor[p] as usize;
            let start = old_start + shift;
            self.cols.copy_within(old_start..old_end, start);
            self.probs.copy_within(old_start..old_end, start);
            self.cursor[p] = (start + old_end - old_start) as u32;
            self.row_start[p] = start as u32;
            old_end = old_start;
            if shift == 0 {
                break; // earlier rows neither move nor grow
            }
        }
        self.row_start[first_new] = total as u32;
        for &(src, dst, prob) in &self.grown {
            let slot = &mut self.cursor[src as usize];
            self.cols[*slot as usize] = dst;
            self.probs[*slot as usize] = prob;
            *slot += 1;
            // Clamped: the sum was accumulated in another order than it is
            // taken apart, so it may end a rounding error below zero.
            let mass = &mut self.outside_mass[src as usize];
            *mass = (*mass - prob).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::prelude::*;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::Graph;

    fn exact_trank(g: &Graph, q: NodeId) -> ScoreVec {
        TRank::new(RankParams::default())
            .compute(g, &Query::single(q))
            .unwrap()
    }

    #[test]
    fn initial_state_matches_paper() {
        let (g, ids) = fig2_toy();
        let nb =
            TNeighborhood::new(&g, ids.t1, &RankParams::default(), TBoundMode::TwoStage).unwrap();
        assert_eq!(nb.len(), 1);
        let b = nb.bounds(ids.t1).unwrap();
        assert_eq!(b.lower, 0.25);
        assert_eq!(b.upper, 1.0);
        assert!((nb.unseen_upper() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bounds_always_sandwich_exact() {
        let (g, ids) = fig2_toy();
        let exact = exact_trank(&g, ids.t1);
        let mut nb =
            TNeighborhood::new(&g, ids.t1, &RankParams::default(), TBoundMode::TwoStage).unwrap();
        for round in 0..10 {
            nb.expand(&mut &g, 2).unwrap();
            nb.refine(&g, 1e-12, 50);
            for v in g.nodes() {
                let b = nb.effective_bounds(v);
                assert!(
                    b.contains(exact.score(v), 1e-9),
                    "round {round}, {v:?}: exact {} outside [{}, {}]",
                    exact.score(v),
                    b.lower,
                    b.upper
                );
            }
        }
    }

    #[test]
    fn expansion_absorbs_in_neighbors() {
        let (g, ids) = fig2_toy();
        let mut nb =
            TNeighborhood::new(&g, ids.t1, &RankParams::default(), TBoundMode::TwoStage).unwrap();
        let added = nb.expand(&mut &g, 1).unwrap();
        // t1's in-neighbors are its 5 papers.
        assert_eq!(added, 5);
        for p in ids.p.iter().take(5) {
            assert!(nb.contains(*p));
        }
    }

    #[test]
    fn unseen_upper_never_increases() {
        let (g, ids) = fig2_toy();
        let mut nb =
            TNeighborhood::new(&g, ids.t1, &RankParams::default(), TBoundMode::TwoStage).unwrap();
        let mut prev = nb.unseen_upper();
        for _ in 0..10 {
            nb.expand(&mut &g, 2).unwrap();
            nb.refine(&g, 1e-12, 50);
            let cur = nb.unseen_upper();
            assert!(cur <= prev + 1e-12, "unseen bound rose {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn full_absorption_zeroes_unseen_bound_monotonically() {
        // Once St covers the whole (strongly connected) toy graph there is
        // no border, so the unseen bound collapses to 0.
        let (g, ids) = fig2_toy();
        let mut nb =
            TNeighborhood::new(&g, ids.t1, &RankParams::default(), TBoundMode::TwoStage).unwrap();
        for _ in 0..30 {
            nb.expand(&mut &g, 10).unwrap();
            nb.refine(&g, 1e-12, 50);
        }
        assert_eq!(nb.len(), g.node_count());
        assert_eq!(nb.unseen_upper(), 0.0);
    }

    #[test]
    fn two_stage_tighter_than_sarkar() {
        let (g, ids) = fig2_toy();
        let p = RankParams::default();
        let mut ours = TNeighborhood::new(&g, ids.t1, &p, TBoundMode::TwoStage).unwrap();
        let mut sarkar = TNeighborhood::new(&g, ids.t1, &p, TBoundMode::Sarkar).unwrap();
        for _ in 0..4 {
            ours.expand(&mut &g, 2).unwrap();
            ours.refine(&g, 1e-12, 50);
            sarkar.expand(&mut &g, 2).unwrap();
            sarkar.refine(&g, 1e-12, 50);
        }
        let ours_width: f64 = ours.seen().map(|(_, b)| b.width()).sum();
        let sarkar_width: f64 = sarkar.seen().map(|(_, b)| b.width()).sum();
        assert!(
            ours_width < sarkar_width,
            "two-stage {ours_width} not tighter than sarkar {sarkar_width}"
        );
    }

    #[test]
    fn sarkar_bounds_still_valid() {
        let (g, ids) = fig2_toy();
        let exact = exact_trank(&g, ids.t1);
        let mut nb =
            TNeighborhood::new(&g, ids.t1, &RankParams::default(), TBoundMode::Sarkar).unwrap();
        for _ in 0..10 {
            nb.expand(&mut &g, 2).unwrap();
            nb.refine(&g, 1e-12, 50);
            for v in g.nodes() {
                assert!(nb.effective_bounds(v).contains(exact.score(v), 1e-9));
            }
        }
    }

    #[test]
    fn bounds_converge_to_exact() {
        let (g, ids) = fig2_toy();
        let exact = exact_trank(&g, ids.t1);
        let mut nb =
            TNeighborhood::new(&g, ids.t1, &RankParams::default(), TBoundMode::TwoStage).unwrap();
        for _ in 0..40 {
            nb.expand(&mut &g, 10).unwrap();
            nb.refine(&g, 1e-14, 200);
        }
        for v in g.nodes() {
            let b = nb.effective_bounds(v);
            assert!(
                b.width() < 1e-6,
                "{v:?} width {} too wide after convergence",
                b.width()
            );
            assert!(b.contains(exact.score(v), 1e-6));
        }
    }

    #[test]
    fn unreachable_region_gets_zero_bound() {
        // x -> q but nothing leads from y-to-q: once the border empties,
        // unseen nodes (y) are correctly bounded by 0.
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let q = b.add_node(ty);
        let x = b.add_node(ty);
        let y = b.add_node(ty);
        b.add_edge(x, q, 1.0);
        b.add_edge(q, x, 1.0);
        b.add_edge(q, y, 1.0); // y has no out-edges back
        let g = b.build();
        let mut nb =
            TNeighborhood::new(&g, q, &RankParams::default(), TBoundMode::TwoStage).unwrap();
        for _ in 0..5 {
            nb.expand(&mut &g, 5).unwrap();
            nb.refine(&g, 1e-12, 50);
        }
        assert_eq!(nb.unseen_upper(), 0.0);
        assert_eq!(nb.effective_bounds(y).upper, 0.0);
    }

    /// A pseudo-random graph: 0–4 weighted out-edges per node, so dangling
    /// nodes, sources, self-loops and unreachable regions all occur.
    fn scrambled_graph(n: u32, seed: u64) -> Graph {
        let mut state = seed;
        let mut next = move |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % bound
        };
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(ty)).collect();
        for &v in &nodes {
            for _ in 0..next(5) {
                b.add_edge(v, nodes[next(n) as usize], 1.0 + next(4) as f64);
            }
        }
        b.build()
    }

    /// The local layout against a from-scratch reading of the graph.
    fn assert_layout_matches(nb: &TNeighborhood, g: &Graph) {
        let ws = &nb.ws;
        let keys = ws.bounds.key_slice();
        assert_eq!(ws.outside_mass.len(), keys.len(), "every member laid out");
        assert_eq!(ws.row_start.len(), keys.len() + 1);
        let mut border = Vec::new();
        for (pos, &v) in keys.iter().enumerate() {
            let (lo, hi) = (ws.row_start[pos] as usize, ws.row_start[pos + 1] as usize);
            let mut row: Vec<(u32, u64)> = ws.cols[lo..hi]
                .iter()
                .zip(&ws.probs[lo..hi])
                .map(|(&c, &p)| (keys[c as usize], p.to_bits()))
                .collect();
            row.sort_unstable();
            let mut want = Vec::new();
            let mut outside = 0.0;
            for (dst, p) in g.out_edges(NodeId(v)) {
                if nb.contains(dst) {
                    want.push((dst.0, p.to_bits()));
                } else {
                    outside += p;
                }
            }
            assert_eq!(row, want, "row of node {v}");
            assert!(
                (ws.outside_mass[pos] - outside).abs() < 1e-12 && ws.outside_mass[pos] >= 0.0,
                "outside mass of node {v}: {} vs {outside}",
                ws.outside_mass[pos]
            );
            let outside_in = g
                .in_edges(NodeId(v))
                .filter(|&(src, _)| !nb.contains(src))
                .count();
            assert_eq!(ws.outside_in[pos] as usize, outside_in, "node {v}");
            if outside_in > 0 {
                border.push(NodeId(v));
            }
        }
        border.sort_unstable();
        assert_eq!(nb.border().collect::<Vec<_>>(), border);
    }

    #[test]
    fn local_layout_tracks_the_graph_through_every_expansion() {
        for seed in 0..8 {
            let g = scrambled_graph(400, seed);
            let exact = exact_trank(&g, NodeId(0));
            let mut nb =
                TNeighborhood::new(&g, NodeId(0), &RankParams::default(), TBoundMode::TwoStage)
                    .unwrap();
            for round in 0..400 {
                let added = nb.expand(&mut &g, 1 + seed as usize % 3).unwrap();
                assert_layout_matches(&nb, &g);
                nb.refine(&g, 1e-12, 50);
                for v in g.nodes() {
                    let b = nb.effective_bounds(v);
                    assert!(
                        b.contains(exact.score(v), 1e-9),
                        "seed {seed} round {round} {v:?}: {} outside [{}, {}]",
                        exact.score(v),
                        b.lower,
                        b.upper
                    );
                }
                if added == 0 && nb.border().next().is_none() {
                    break;
                }
            }
            assert_eq!(nb.unseen_upper(), 0.0, "seed {seed}: border must empty");
        }
    }

    #[test]
    fn out_of_range_query_rejected() {
        let (g, _) = fig2_toy();
        assert!(TNeighborhood::new(
            &g,
            NodeId(999),
            &RankParams::default(),
            TBoundMode::TwoStage
        )
        .is_err());
    }
}
