//! F-Rank realization of the two-stage bounds-updating framework
//! (paper Sect. V-A3, "Realization of F-Rank").
//!
//! Stage I rides on BCA: the f-neighborhood is
//! `S_f = {v : ρ(q,v) > 0}`; one expansion processes up to `m` nodes chosen
//! by benefit `µ(q,v)/|Out(v)|`, after which bounds are initialized from the
//! current BCA state via Prop. 4:
//!
//! ```text
//! f̂(q)     = α/(2-α)·max_u µ(q,u) + (1-α)/(2-α)·Σ_u µ(q,u)    (Eq. 19)
//! f̌⁰(q,v) = ρ(q,v)                                              (Eq. 20)
//! f̂⁰(q,v) = ρ(q,v) + f̂(q)                                      (Eq. 21)
//! ```
//!
//! Stage II sweeps the refinement recurrences (Eq. 17–18) over `S_f`,
//! gathering over **in**-neighbors, until the bounds stop moving. Unlike
//! the t-neighborhood (see [`crate::tbound`]) it gathers straight from the
//! adjacency source, in ascending node-id order: for RoundTripRank on the
//! 1M-node benchmark graph `S_f` holds a few hundred nodes against the
//! thousands of `S_t` and converges in under half the sweeps, so its
//! Stage II is ~6 % of a cold query (0.15 of 2.4 ms, measured before
//! rounds moved only the binding side) and a local layout would not pay
//! for itself.
//!
//! F-Rank ranked alone is the other extreme: its only bound on unseen
//! nodes is the BCA residual, which at ε = 0.01 has to fall to ≈ 0.03, so
//! `S_f` spreads over nearly every node of the 26k-node benchmark graph.
//! The search skips Stage II for it, and since F moves alone every round
//! its batch doubles every round (see [`crate::two_sbound`]). Without
//! Stage II a member's bounds are just Eq. 20–21 of the current round, so
//! such a neighborhood keeps no per-member bounds at all: a round costs
//! its Stage-I pushes, and [`FNeighborhood::bounds`] derives
//! `[ρ, ρ + f̂(q)]` from `ρ` when asked. Inside a two-sided search F's
//! batch doubles the same way while its Eq. 16 term alone binds, but each
//! such round keeps Stage II and so the per-member bounds it refines.
//!
//! The *Gupta* variant (efficiency baseline, Fig. 11a) replaces Prop. 4 with
//! the weaker first-arrival bound `f̂(q) = Σ_u µ(q,u)` and skips Stage II.

use crate::bounds::Bounds;
use crate::workspace::FWorkspace;
use rtr_core::bca::Bca;
use rtr_core::{CoreError, RankParams};
use rtr_graph::{AdjacencyAccess, AdjacencyError, NodeId};

/// Which Stage-I/II realization the f-neighborhood uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FBoundMode {
    /// The paper's full realization: Prop. 4 bound + Stage II refinement.
    TwoStage,
    /// Gupta et al. \[16\] baseline: first-arrival bound, no Stage II.
    Gupta,
}

/// The f-neighborhood with its bounds.
///
/// Per-query state lives in an [`FWorkspace`]; [`FNeighborhood::new`]
/// allocates a fresh one, [`FNeighborhood::with_workspace`] reuses a
/// worker's buffers.
///
/// The graph is not captured: expansion and refinement take the
/// [`AdjacencyAccess`] they run against, so the same neighborhood drives
/// the in-memory graph and the distributed active graph alike.
pub struct FNeighborhood {
    q: NodeId,
    alpha: f64,
    mode: FBoundMode,
    bca: Bca,
    /// Member bounds, indexed by the member's position in `ρ`.
    bounds: Vec<Bounds>,
    /// Stage II's sweep order: `(node id, position)`, ascending by id.
    order: Vec<(u32, u32)>,
    unseen_upper: f64,
    /// Whether Stage I (re)initializes `bounds`; without, a member's
    /// bounds are derived from `ρ` when asked.
    member_bounds: bool,
}

impl FNeighborhood {
    /// Initialize for query `q` (empty neighborhood, one unit of residual
    /// at the query, unseen bound from the initial residual state).
    pub fn new<A: AdjacencyAccess>(
        a: &A,
        q: NodeId,
        params: &RankParams,
        mode: FBoundMode,
    ) -> Result<Self, CoreError> {
        Self::with_workspace(a, q, params, mode, FWorkspace::default())
    }

    /// Initialize like [`FNeighborhood::new`] but reusing `ws`'s buffers
    /// (cleared in O(previous query's touched entries)). Recover the
    /// workspace with [`FNeighborhood::into_workspace`]. Touches no
    /// adjacency — a paged source fetches nothing until the first
    /// expansion.
    pub fn with_workspace<A: AdjacencyAccess>(
        a: &A,
        q: NodeId,
        params: &RankParams,
        mode: FBoundMode,
        ws: FWorkspace,
    ) -> Result<Self, CoreError> {
        let FWorkspace {
            bca: bca_ws,
            mut bounds,
            mut order,
        } = ws;
        let bca = Bca::with_workspace(a, q, params, bca_ws)?;
        bounds.clear();
        order.clear();
        let mut nb = FNeighborhood {
            q,
            alpha: params.alpha,
            mode,
            bca,
            bounds,
            order,
            unseen_upper: 1.0,
            member_bounds: true,
        };
        nb.unseen_upper = nb.fresh_unseen_upper();
        Ok(nb)
    }

    /// Dissolve into the workspace so its buffers serve the next query.
    pub fn into_workspace(self) -> FWorkspace {
        FWorkspace {
            bca: self.bca.into_workspace(),
            bounds: self.bounds,
            order: self.order,
        }
    }

    /// Keep no per-member bounds: Stage I only processes nodes, and a
    /// member's bounds are Eq. 20–21 of the current round, `[ρ, ρ + f̂(q)]`.
    /// For a neighborhood that never runs Stage II (a lone F search); the
    /// upper bounds are then no longer the tightest over past rounds.
    pub(crate) fn without_member_bounds(mut self) -> Self {
        self.member_bounds = false;
        self
    }

    fn fresh_unseen_upper(&self) -> f64 {
        match self.mode {
            FBoundMode::TwoStage => self.bca.unseen_upper_bound(),
            FBoundMode::Gupta => self.bca.gupta_upper_bound(),
        }
    }

    /// Stage I: expand by up to `m` nodes and (re)initialize bounds (unless
    /// the neighborhood keeps none). Returns the number of nodes processed.
    pub fn expand<A: AdjacencyAccess>(
        &mut self,
        a: &mut A,
        m: usize,
    ) -> Result<usize, AdjacencyError> {
        let picked = self.bca.process_batch_count(a, m)?;
        self.unseen_upper = self.fresh_unseen_upper();
        if !self.member_bounds {
            return Ok(picked);
        }
        // (Re)initialize: ρ is a valid lower bound, ρ + f̂(q) an upper bound.
        // Previous expansions' refined bounds are kept when tighter
        // (monotone tightening only). `ρ` only grows, so the batch's
        // newcomers hold the positions past the bounds kept so far.
        let unseen = self.unseen_upper;
        let fresh = self.bca.seen_count() - self.bounds.len();
        self.bounds
            .extend(std::iter::repeat_n(Bounds::unseen(1.0), fresh));
        for (entry, (_, rho)) in self.bounds.iter_mut().zip(self.bca.seen()) {
            entry.tighten_lower(rho);
            entry.tighten_upper(rho + unseen);
        }
        Ok(picked)
    }

    /// Stage II: iteratively refine all seen bounds over `S_f` using the
    /// in-neighbor recurrence, until convergence (no-op in Gupta mode and
    /// without per-member bounds).
    /// Returns the number of sweeps performed. Touches only members'
    /// adjacency, which [`FNeighborhood::expand`] already made resident.
    pub fn refine<A: AdjacencyAccess>(
        &mut self,
        a: &A,
        tolerance: f64,
        max_sweeps: usize,
    ) -> usize {
        if self.mode == FBoundMode::Gupta || !self.member_bounds {
            return 0;
        }
        self.order.clear();
        let members = self.bca.seen().enumerate();
        self.order
            .extend(members.map(|(pos, (v, _))| (v.0, pos as u32)));
        self.order.sort_unstable(); // deterministic Gauss-Seidel sweep order
        for sweep in 1..=max_sweeps {
            let mut max_change = 0.0f64;
            for i in 0..self.order.len() {
                let (vid, pos) = self.order[i];
                let v = NodeId(vid);
                let indicator = if v == self.q { self.alpha } else { 0.0 };
                let mut lo_acc = 0.0;
                let mut hi_acc = 0.0;
                for (src, prob) in a.in_edges(v) {
                    match self.bca.seen_position(src) {
                        Some(p) => {
                            let b = self.bounds[p];
                            lo_acc += prob * b.lower;
                            hi_acc += prob * b.upper;
                        }
                        None => {
                            // Unseen neighbor: lower 0, upper = unseen bound.
                            hi_acc += prob * self.unseen_upper;
                        }
                    }
                }
                let cand_lo = indicator + (1.0 - self.alpha) * lo_acc;
                let cand_hi = indicator + (1.0 - self.alpha) * hi_acc;
                let b = &mut self.bounds[pos as usize];
                max_change = max_change.max(b.tighten_lower(cand_lo));
                max_change = max_change.max(b.tighten_upper(cand_hi));
            }
            if max_change < tolerance {
                return sweep;
            }
        }
        max_sweeps
    }

    /// The current unseen upper bound `f̂(q)`.
    pub fn unseen_upper(&self) -> f64 {
        self.unseen_upper
    }

    /// Bounds of a seen node, if seen.
    pub fn bounds(&self, v: NodeId) -> Option<Bounds> {
        if self.member_bounds {
            self.bca.seen_position(v).map(|p| self.bounds[p])
        } else {
            self.bca.seen_rho(v).map(|rho| self.rho_bounds(rho))
        }
    }

    /// Eq. 20–21 of the current round for a member with estimate `rho`.
    fn rho_bounds(&self, rho: f64) -> Bounds {
        Bounds {
            lower: rho,
            upper: rho + self.unseen_upper,
        }
    }

    /// Effective bounds of *any* node (unseen ⇒ `[0, f̂(q)]`).
    pub fn effective_bounds(&self, v: NodeId) -> Bounds {
        self.bounds(v)
            .unwrap_or_else(|| Bounds::unseen(self.unseen_upper))
    }

    /// Whether `v` is in `S_f`.
    pub fn contains(&self, v: NodeId) -> bool {
        self.bca.seen_rho(v).is_some()
    }

    /// Iterate over seen nodes and their bounds, in the order they joined
    /// `S_f`.
    pub fn seen(&self) -> impl Iterator<Item = (NodeId, Bounds)> + '_ {
        self.bca.seen().enumerate().map(|(pos, (v, rho))| {
            let kept = self.member_bounds.then(|| self.bounds[pos]);
            (v, kept.unwrap_or_else(|| self.rho_bounds(rho)))
        })
    }

    /// `|S_f|`.
    pub fn len(&self) -> usize {
        self.bca.seen_count()
    }

    /// Whether the neighborhood is still empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining BCA residual (0 ⇒ bounds can no longer improve via Stage I).
    pub fn residual(&self) -> f64 {
        self.bca.total_residual()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::prelude::*;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::Graph;

    fn exact_frank(g: &Graph, q: NodeId) -> ScoreVec {
        FRank::new(RankParams::default())
            .compute(g, &Query::single(q))
            .unwrap()
    }

    #[test]
    fn bounds_always_sandwich_exact() {
        let (g, ids) = fig2_toy();
        let exact = exact_frank(&g, ids.t1);
        let mut nb =
            FNeighborhood::new(&g, ids.t1, &RankParams::default(), FBoundMode::TwoStage).unwrap();
        for round in 0..12 {
            nb.expand(&mut &g, 3).unwrap();
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
    fn refinement_tightens_bounds() {
        let (g, ids) = fig2_toy();
        let mut nb =
            FNeighborhood::new(&g, ids.t1, &RankParams::default(), FBoundMode::TwoStage).unwrap();
        nb.expand(&mut &g, 4).unwrap();
        let before: f64 = nb.seen().map(|(_, b)| b.width()).sum();
        nb.refine(&g, 1e-12, 50);
        let after: f64 = nb.seen().map(|(_, b)| b.width()).sum();
        assert!(after <= before + 1e-12, "refinement widened bounds");
    }

    #[test]
    fn two_stage_tighter_than_gupta() {
        let (g, ids) = fig2_toy();
        let p = RankParams::default();
        let mut ours = FNeighborhood::new(&g, ids.t1, &p, FBoundMode::TwoStage).unwrap();
        let mut gupta = FNeighborhood::new(&g, ids.t1, &p, FBoundMode::Gupta).unwrap();
        for _ in 0..5 {
            ours.expand(&mut &g, 3).unwrap();
            ours.refine(&g, 1e-12, 50);
            gupta.expand(&mut &g, 3).unwrap();
            gupta.refine(&g, 1e-12, 50);
        }
        assert!(
            ours.unseen_upper() < gupta.unseen_upper(),
            "Prop.4 {} not tighter than Gupta {}",
            ours.unseen_upper(),
            gupta.unseen_upper()
        );
        // Same seen set (same BCA schedule), tighter average width.
        let ours_width: f64 = ours.seen().map(|(_, b)| b.width()).sum();
        let gupta_width: f64 = gupta.seen().map(|(_, b)| b.width()).sum();
        assert!(ours_width < gupta_width);
    }

    #[test]
    fn gupta_bounds_still_valid() {
        let (g, ids) = fig2_toy();
        let exact = exact_frank(&g, ids.t1);
        let mut nb =
            FNeighborhood::new(&g, ids.t1, &RankParams::default(), FBoundMode::Gupta).unwrap();
        for _ in 0..10 {
            nb.expand(&mut &g, 3).unwrap();
            for v in g.nodes() {
                let b = nb.effective_bounds(v);
                assert!(b.contains(exact.score(v), 1e-9));
            }
        }
    }

    #[test]
    fn unseen_upper_shrinks_with_expansion() {
        let (g, ids) = fig2_toy();
        let mut nb =
            FNeighborhood::new(&g, ids.t1, &RankParams::default(), FBoundMode::TwoStage).unwrap();
        let mut prev = nb.unseen_upper();
        for _ in 0..8 {
            nb.expand(&mut &g, 5).unwrap();
            let cur = nb.unseen_upper();
            assert!(cur <= prev + 1e-12);
            prev = cur;
        }
        assert!(prev < 0.1, "unseen bound should collapse, got {prev}");
    }

    #[test]
    fn bounds_converge_to_exact() {
        let (g, ids) = fig2_toy();
        let exact = exact_frank(&g, ids.t1);
        let mut nb =
            FNeighborhood::new(&g, ids.t1, &RankParams::default(), FBoundMode::TwoStage).unwrap();
        for _ in 0..60 {
            nb.expand(&mut &g, 10).unwrap();
            nb.refine(&g, 1e-14, 100);
            if nb.residual() < 1e-10 {
                break;
            }
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
    fn first_expansion_brings_query() {
        let (g, ids) = fig2_toy();
        let mut nb =
            FNeighborhood::new(&g, ids.t1, &RankParams::default(), FBoundMode::TwoStage).unwrap();
        assert!(nb.is_empty());
        nb.expand(&mut &g, 100).unwrap();
        assert_eq!(nb.len(), 1);
        assert!(nb.contains(ids.t1));
    }
}
