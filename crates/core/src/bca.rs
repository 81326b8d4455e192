//! Bookmark-Coloring Algorithm (BCA) with residual tracking.
//!
//! BCA [Berkhin 2006, ref. 19 in the paper] computes PPR by spreading one
//! unit of *residual* from the query over the graph: processing a node moves
//! an α fraction of its residual into its PPR estimate `ρ` and pushes the
//! remaining `1-α` to its out-neighbors. The invariant
//!
//! ```text
//! f(q,v) = ρ(q,v) + Σ_u µ(q,u) · f(u,v)      (for every v)
//! ```
//!
//! makes `ρ(q,v)` a lower bound at all times, and the total residual an
//! upper-bound budget. Stage I of 2SBound's F-Rank realization (paper
//! Sect. V-A3) is BCA with two extensions implemented here:
//!
//! * **batched expansion** — instead of the single max-residual node, pick up
//!   to `m` nodes by *benefit* `µ(q,v)/|Out(v)|` (the paper's criterion
//!   balancing residual reduction against processing cost; `m = 100` in the
//!   paper's experiments). Ranking needs only out-degrees, which every
//!   [`AdjacencyAccess`] serves for any node, so a batch announces just its
//!   picks to [`ensure`](AdjacencyAccess::ensure): a paged adjacency
//!   fetches the nodes BCA processes and none of the frontier it passed
//!   over;
//! * **the improved unseen upper bound of Prop. 4** —
//!   `f̂(q) = α/(2-α)·max_u µ(q,u) + (1-α)/(2-α)·Σ_u µ(q,u)`, which accounts
//!   for residual repeatedly returning to a node, vs. the weaker
//!   first-arrival bound of Gupta et al. \[16\] (also provided, for the
//!   `Gupta`/`G+S` baseline schemes of Fig. 11a).

use crate::error::CoreError;
use crate::params::RankParams;
use crate::workspace::BcaWorkspace;
use rtr_graph::{AdjacencyAccess, AdjacencyError, NodeId};

/// How far ahead the frontier ranking hints index entries and the pushes
/// hint blocks ("Memory latency" in ARCHITECTURE.md).
const INDEX_AHEAD: usize = 16;
const BLOCK_AHEAD: usize = 4;

/// BCA state for one query node.
///
/// The per-query `ρ` map and `µ` residuals live in a [`BcaWorkspace`]
/// (O(touched) clearing). [`Bca::new`] allocates a fresh one; a serving
/// worker instead threads one workspace through [`Bca::with_workspace`] /
/// [`Bca::into_workspace`] so steady-state queries allocate nothing.
///
/// The graph is not captured: every processing step takes the
/// [`AdjacencyAccess`] it runs against, so the *same* BCA drives both the
/// in-memory graph and the distributed active graph. Each batch ranks the
/// residual frontier by out-degree alone and announces only its picks via
/// [`ensure`](AdjacencyAccess::ensure), which is where a paged adjacency
/// fetches the blocks it is missing.
///
/// One pass over the frontier bitset at the end of every batch (and at
/// initialization) yields both `max_u µ(q,u)` for Prop. 4 and the
/// ascending frontier the next batch selects from: only a batch changes
/// `µ`.
#[derive(Clone, Debug)]
pub struct Bca {
    alpha: f64,
    /// Captured at init: whether the graph has self-loops (Prop. 4 check).
    loops: bool,
    /// The `ρ` / `µ` state and selection scratch.
    ws: BcaWorkspace,
    /// Incrementally maintained `Σ_u µ(q,u)`.
    total_residual: f64,
    /// Number of node-processing operations performed.
    processed: usize,
    /// `max_u µ(q,u)`, taken by the last frontier pass.
    max_residual: f64,
}

impl Bca {
    /// Initialize for query node `q`: one unit of residual at `q`, all
    /// estimates zero (the precondition of the original BCA). Allocates a
    /// fresh workspace; see [`Bca::with_workspace`] for the reusing variant.
    pub fn new<A: AdjacencyAccess>(
        a: &A,
        q: NodeId,
        params: &RankParams,
    ) -> Result<Self, CoreError> {
        Self::with_workspace(a, q, params, BcaWorkspace::default())
    }

    /// Initialize like [`Bca::new`] but reusing `ws`'s buffers (cleared in
    /// O(entries touched by the previous query)). Recover the workspace with
    /// [`Bca::into_workspace`] when the run is over. Touches no adjacency —
    /// a paged source fetches nothing until the first batch runs.
    pub fn with_workspace<A: AdjacencyAccess>(
        a: &A,
        q: NodeId,
        params: &RankParams,
        mut ws: BcaWorkspace,
    ) -> Result<Self, CoreError> {
        params.validate()?;
        if q.index() >= a.node_count() {
            return Err(CoreError::NodeOutOfRange {
                node: q,
                node_count: a.node_count(),
            });
        }
        ws.reset(a.node_count());
        ws.mu.add(q.0, 1.0);
        let mut bca = Bca {
            alpha: params.alpha,
            loops: a.has_self_loops(),
            ws,
            total_residual: 1.0,
            processed: 0,
            max_residual: 0.0,
        };
        bca.scan_frontier();
        Ok(bca)
    }

    /// Dissolve into the workspace so its buffers serve the next query.
    pub fn into_workspace(self) -> BcaWorkspace {
        self.ws
    }

    /// Current estimate `ρ(q,v)` (a lower bound on `f(q,v)`).
    pub fn rho(&self, v: NodeId) -> f64 {
        self.ws.rho.score(v.0)
    }

    /// Current residual `µ(q,v)`.
    pub fn mu(&self, v: NodeId) -> f64 {
        self.ws.mu.get(v.0)
    }

    /// `Σ_u µ(q,u)` — the remaining residual budget.
    pub fn total_residual(&self) -> f64 {
        self.total_residual.max(0.0)
    }

    /// `max_u µ(q,u)` (0 when no residual remains).
    pub fn max_residual(&self) -> f64 {
        self.max_residual
    }

    /// Number of processing operations performed so far.
    pub fn processed_count(&self) -> usize {
        self.processed
    }

    /// `ρ(q,v)` if `v` is in the f-neighborhood, else `None`.
    pub fn seen_rho(&self, v: NodeId) -> Option<f64> {
        self.ws.rho.get(v.0)
    }

    /// `v`'s position in [`Bca::seen`]'s order, if `v` is in the
    /// f-neighborhood. Positions never change during a run (`S_f` only
    /// grows), so a caller can index per-member state of its own by them.
    #[inline]
    pub fn seen_position(&self, v: NodeId) -> Option<usize> {
        self.ws.rho.position(v.0)
    }

    /// Nodes with non-zero estimated PPR — the paper's f-neighborhood
    /// `S_f = {v : ρ(q,v) > 0}`.
    pub fn seen(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.ws.rho.iter().map(|(v, r)| (NodeId(v), r))
    }

    /// Number of seen nodes `|S_f|`.
    pub fn seen_count(&self) -> usize {
        self.ws.rho.len()
    }

    /// Apply BCA processing to one node (paper Sect. V-A3):
    /// α·µ moves into ρ, (1-α)·µ spreads to out-neighbors, µ resets to 0.
    ///
    /// On a dangling node the (1-α) portion has nowhere to go and is lost —
    /// consistent with the substochastic F-Rank a dangling graph defines.
    ///
    /// `v`'s adjacency must be resident in `a`: the batch loop announces
    /// its picks first, and rescans the frontier once it has processed
    /// them.
    #[inline]
    fn push<A: AdjacencyAccess>(&mut self, a: &A, v: NodeId) {
        let residual = self.ws.mu.take(v.0);
        if residual <= 0.0 {
            return;
        }
        self.processed += 1;
        self.ws.rho.add(v.0, self.alpha * residual);
        let spread = (1.0 - self.alpha) * residual;
        let mut spread_out = 0.0;
        for (dst, prob) in a.out_edges(v) {
            let amt = spread * prob;
            self.ws.mu.add(dst.0, amt);
            spread_out += amt;
        }
        // total -= consumed-by-rho + lost-on-dangling
        self.total_residual -= residual - spread_out;
    }

    /// The frontier pass: refill `ws.ensure_ids` with the nodes holding
    /// residual, ascending by id, and take `max_u µ(q,u)` on the way.
    fn scan_frontier(&mut self) {
        let (ids, mut max) = (&mut self.ws.ensure_ids, 0.0f64);
        ids.clear();
        self.ws.mu.for_each(|v, r| {
            max = max.max(r);
            if r > 0.0 {
                ids.push(v);
            }
        });
        self.max_residual = max;
    }

    /// One Stage-I expansion: pick up to `m` nodes with the largest non-zero
    /// *benefit* `µ(q,v)/|Out(v)|` and process them. Returns the processed
    /// nodes (the first expansion returns just the query node, matching the
    /// paper's observation). Allocation-free serving paths use
    /// [`Bca::process_batch_count`] instead.
    pub fn process_batch<A: AdjacencyAccess>(
        &mut self,
        a: &mut A,
        m: usize,
    ) -> Result<Vec<NodeId>, AdjacencyError> {
        let picked = self.process_batch_count(a, m)?;
        Ok(self.ws.candidates[..picked]
            .iter()
            .map(|&(v, _)| NodeId(v))
            .collect())
    }

    /// [`Bca::process_batch`] without materializing the picked nodes:
    /// returns only how many were processed. The selection scratch lives in
    /// the workspace, so this performs no allocation in steady state.
    ///
    /// The frontier comes from the last frontier pass (ascending by id,
    /// `µ > 0`), so it is ranked without a sort; the picks, still
    /// ascending, are announced to `ensure` and processed, and one more
    /// pass prepares the next batch's frontier.
    pub fn process_batch_count<A: AdjacencyAccess>(
        &mut self,
        a: &mut A,
        m: usize,
    ) -> Result<usize, AdjacencyError> {
        self.ws.candidates.clear();
        if m == 0 || self.ws.ensure_ids.is_empty() {
            return Ok(0);
        }
        // Candidates in ascending id order: the order they are processed
        // in, so state evolution is independent of selection order. Their
        // out-degrees need no resident block; the walk hints the index
        // entries ahead of it, which the picks' pushes read again.
        for (i, &v) in self.ws.ensure_ids.iter().enumerate() {
            if let Some(&w) = self.ws.ensure_ids.get(i + INDEX_AHEAD) {
                a.prefetch_index(NodeId(w));
            }
            let out = a.out_degree(NodeId(v)).max(1);
            self.ws.candidates.push((v, self.ws.mu.get(v) / out as f64));
        }
        let take = m.min(self.ws.candidates.len());
        if take < self.ws.candidates.len() {
            // The top-m benefits, ties broken by node id so the selected
            // set is unique: find the m-th best benefit in a scratch copy,
            // then keep, in ascending id order, every candidate above it
            // and the lowest ids among those equal to it.
            let ranked = &mut self.ws.ranked;
            ranked.clear();
            ranked.extend(self.ws.candidates.iter().map(|&(_, benefit)| benefit));
            let (above, &mut mth, _) = ranked.select_nth_unstable_by(take - 1, |a, b| {
                // invariant: benefits are products of finite probabilities
                // and scores — never NaN.
                b.partial_cmp(a).expect("NaN benefit")
            });
            let mut ties = take - above.iter().filter(|&&b| b > mth).count();
            self.ws.candidates.retain(|&(_, benefit)| {
                if benefit == mth && ties > 0 {
                    ties -= 1;
                    return true;
                }
                benefit > mth
            });
            let (ids, picks) = (&mut self.ws.ensure_ids, &self.ws.candidates);
            ids.clear();
            ids.extend(picks.iter().map(|&(v, _)| v));
        }
        // `ensure_ids` now lists the picks (the whole frontier when every
        // candidate is picked), the only nodes whose edges the batch reads:
        // a paged adjacency demand-fetches the missing blocks here; the
        // in-memory graph does nothing, and its blocks are hinted ahead.
        a.ensure(&self.ws.ensure_ids)?;
        for i in 0..take {
            if let Some(&w) = self.ws.ensure_ids[..take].get(i + BLOCK_AHEAD) {
                a.prefetch(NodeId(w));
            }
            let v = NodeId(self.ws.ensure_ids[i]);
            self.push(a, v);
        }
        self.scan_frontier();
        Ok(take)
    }

    /// Run batched processing until the total residual drops to `eps`
    /// (asymptotic termination of the original BCA, truncated at `eps`).
    pub fn run_to_residual<A: AdjacencyAccess>(
        &mut self,
        a: &mut A,
        eps: f64,
        m: usize,
    ) -> Result<(), AdjacencyError> {
        while self.total_residual() > eps {
            if self.process_batch_count(a, m)? == 0 {
                break; // no residual left anywhere (all dangling-lost)
            }
        }
        Ok(())
    }

    /// The paper's improved unseen upper bound (Prop. 4, Eq. 19):
    /// `f̂(q) = α/(2-α)·max_u µ(q,u) + (1-α)/(2-α)·Σ_u µ(q,u)`.
    ///
    /// Valid for *any* node: `f(q,v) ≤ ρ(q,v) + f̂(q)` (Eq. 21), and in
    /// particular `f(q,v) ≤ f̂(q)` for unseen nodes (ρ = 0).
    pub fn unseen_upper_bound(&self) -> f64 {
        if self.loops {
            // Prop. 4's derivation assumes a returning walk needs at least
            // two steps (damping (1-α)² per revisit); a self-loop returns
            // residual in one step and the 1/(2-α) factor becomes unsound.
            // Fall back to the always-valid first-arrival bound.
            return self.gupta_upper_bound();
        }
        let a = self.alpha;
        a / (2.0 - a) * self.max_residual() + (1.0 - a) / (2.0 - a) * self.total_residual()
    }

    /// The weaker first-arrival bound in the style of Gupta et al. \[16\]:
    /// all remaining residual could, in the limit, deposit onto one node, so
    /// `f(q,v) ≤ ρ(q,v) + Σ_u µ(q,u)`. Used by the `Gupta` and `G+S`
    /// baseline schemes of the efficiency study (Fig. 11a).
    pub fn gupta_upper_bound(&self) -> f64 {
        self.total_residual()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frank::FRank;
    use crate::query::Query;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::Graph;

    fn exact_frank(g: &Graph, q: NodeId) -> crate::scores::ScoreVec {
        FRank::new(RankParams::default())
            .compute(g, &Query::single(q))
            .unwrap()
    }

    #[test]
    fn first_batch_processes_query_only() {
        let (g, ids) = fig2_toy();
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        let picked = bca.process_batch(&mut &g, 100).unwrap();
        assert_eq!(picked, vec![ids.t1]);
        assert!((bca.rho(ids.t1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn residual_decreases_monotonically() {
        let (g, ids) = fig2_toy();
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        let mut prev = bca.total_residual();
        for _ in 0..20 {
            bca.process_batch(&mut &g, 10).unwrap();
            let cur = bca.total_residual();
            assert!(cur <= prev + 1e-12, "residual increased {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn converges_to_exact_frank() {
        let (g, ids) = fig2_toy();
        let exact = exact_frank(&g, ids.t1);
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        bca.run_to_residual(&mut &g, 1e-9, 50).unwrap();
        for v in g.nodes() {
            assert!(
                (bca.rho(v) - exact.score(v)).abs() < 1e-7,
                "{v:?}: bca {} vs exact {}",
                bca.rho(v),
                exact.score(v)
            );
        }
    }

    #[test]
    fn rho_is_always_a_lower_bound() {
        let (g, ids) = fig2_toy();
        let exact = exact_frank(&g, ids.t1);
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        for _ in 0..30 {
            bca.process_batch(&mut &g, 3).unwrap();
            for v in g.nodes() {
                assert!(
                    bca.rho(v) <= exact.score(v) + 1e-12,
                    "ρ exceeded exact at {v:?}"
                );
            }
        }
    }

    #[test]
    fn prop4_bound_is_valid_and_tighter_than_gupta() {
        let (g, ids) = fig2_toy();
        let exact = exact_frank(&g, ids.t1);
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        for _ in 0..15 {
            bca.process_batch(&mut &g, 2).unwrap();
            let ub = bca.unseen_upper_bound();
            let gupta = bca.gupta_upper_bound();
            // Prop. 4 must still be an upper bound...
            for v in g.nodes() {
                assert!(
                    exact.score(v) <= bca.rho(v) + ub + 1e-12,
                    "bound violated at {v:?}"
                );
            }
            // ...and strictly tighter than the first-arrival bound
            // (while residual remains).
            if bca.total_residual() > 1e-12 {
                assert!(ub < gupta, "Prop.4 {ub} not tighter than Gupta {gupta}");
            }
        }
    }

    #[test]
    fn mass_conservation() {
        // ρ total + residual total = 1 on a dangling-free graph.
        let (g, ids) = fig2_toy();
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        for _ in 0..10 {
            bca.process_batch(&mut &g, 5).unwrap();
            let rho_total: f64 = bca.seen().map(|(_, r)| r).sum();
            assert!(
                (rho_total + bca.total_residual() - 1.0).abs() < 1e-9,
                "mass leaked: ρ={rho_total}, µ={}",
                bca.total_residual()
            );
        }
    }

    #[test]
    fn dangling_node_loses_mass() {
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let q = b.add_node(ty);
        let x = b.add_node(ty);
        b.add_edge(q, x, 1.0); // x dangling
        let g = b.build();
        let mut bca = Bca::new(&g, q, &RankParams::default()).unwrap();
        bca.run_to_residual(&mut &g, 1e-12, 10).unwrap();
        let rho_total: f64 = bca.seen().map(|(_, r)| r).sum();
        assert!(rho_total < 1.0, "dangling graph must be substochastic");
        // ρ(q) = α, ρ(x) = (1-α)·α.
        assert!((bca.rho(q) - 0.25).abs() < 1e-12);
        assert!((bca.rho(x) - 0.75 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn processing_node_without_residual_is_noop() {
        let (g, ids) = fig2_toy();
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        bca.push(&g, ids.v1); // v1 has no residual yet
        assert_eq!(bca.processed_count(), 0);
        assert_eq!(bca.rho(ids.v1), 0.0);
        assert_eq!(bca.total_residual(), 1.0);
    }

    #[test]
    fn benefit_prefers_cheap_high_residual_nodes() {
        // After the first expansion, residual sits on t1's 5 papers equally;
        // each paper has out-degree 2, so all have equal benefit, and a batch
        // of size 2 should pick exactly 2 of them.
        let (g, ids) = fig2_toy();
        let mut bca = Bca::new(&g, ids.t1, &RankParams::default()).unwrap();
        bca.process_batch(&mut &g, 1).unwrap();
        let picked = bca.process_batch(&mut &g, 2).unwrap();
        assert_eq!(picked.len(), 2);
        for v in picked {
            assert!(ids.p.contains(&v), "expected a paper, got {v:?}");
        }
    }

    #[test]
    fn out_of_range_query_rejected() {
        let (g, _) = fig2_toy();
        assert!(matches!(
            Bca::new(&g, NodeId(999), &RankParams::default()),
            Err(CoreError::NodeOutOfRange { .. })
        ));
    }
}
