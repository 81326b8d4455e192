//! The 2SBound algorithm (paper Algorithm 1).
//!
//! ```text
//! S ← ∅
//! repeat
//!     Stage I:  expand S and initialize bounds Δ
//!     Stage II: iteratively refine Δ over S
//!     TK ← current top-K by lower bounds
//! until TK satisfies the top-K conditions (Eq. 13–14)
//! ```
//!
//! The r-neighborhood is `S = S_f ∩ S_t` (bounds decomposition, Sect. V-A2):
//! nodes must be seen by *both* neighborhoods before their RoundTripRank can
//! be bounded away from the unseen mass.

use crate::active_set::ActiveSetStats;
use crate::bounds::Bounds;
use crate::config::TopKConfig;
use crate::fbound::FNeighborhood;
use crate::schemes::Scheme;
use crate::tbound::TNeighborhood;
use crate::workspace::TopKWorkspace;
use rtr_core::{CoreError, RankParams};
use rtr_graph::{AdjacencyAccess, AdjacencyError, Graph, NodeId};

/// Tolerance used to break *exact* score ties once bounds have converged:
/// the paper's strict inequalities (Eq. 13–14) can never separate two nodes
/// with identical RoundTripRank, so we accept candidates whose bounds agree
/// to within this hair.
const TIE_EPS: f64 = 1e-12;

/// Result of a top-K run.
#[derive(Clone, Debug)]
pub struct TopKResult {
    /// The (approximate) top-K nodes, best first.
    pub ranking: Vec<NodeId>,
    /// `[lower, upper]` RoundTripRank bounds aligned with `ranking`.
    pub bounds: Vec<(f64, f64)>,
    /// Expansion rounds performed.
    pub expansions: usize,
    /// `true` if the top-K conditions were met (vs. hitting the expansion
    /// cap and returning the best effort).
    pub converged: bool,
    /// Active-set statistics at termination (paper Fig. 12).
    pub active: ActiveSetStats,
}

/// Two-Stage Bounding top-K processor.
#[derive(Clone, Copy, Debug)]
pub struct TwoSBound {
    params: RankParams,
    config: TopKConfig,
    scheme: Scheme,
}

impl TwoSBound {
    /// The paper's full scheme (Prop. 4 bound + two-stage refinement on both
    /// neighborhoods).
    pub fn new(params: RankParams, config: TopKConfig) -> Self {
        TwoSBound {
            params,
            config,
            scheme: Scheme::TwoSBound,
        }
    }

    /// A weakened scheme for the efficiency ablations of Fig. 11a.
    pub fn with_scheme(params: RankParams, config: TopKConfig, scheme: Scheme) -> Self {
        TwoSBound {
            params,
            config,
            scheme,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TopKConfig {
        &self.config
    }

    /// Run the top-K search for query node `q`, allocating fresh per-query
    /// state. Serving paths use [`TwoSBound::run_with`] instead.
    pub fn run(&self, g: &Graph, q: NodeId) -> Result<TopKResult, CoreError> {
        self.run_with(g, q, &mut TopKWorkspace::default())
    }

    /// Run the top-K search for query node `q` reusing `ws`'s buffers.
    ///
    /// Results are bit-identical to [`TwoSBound::run`] (the determinism
    /// suite in `tests/` enforces this); the difference is purely that the
    /// sparse maps, sweep orders, and selection scratch survive between
    /// queries, so a long-lived worker allocates nothing on the hot path.
    pub fn run_with(
        &self,
        g: &Graph,
        q: NodeId,
        ws: &mut TopKWorkspace,
    ) -> Result<TopKResult, CoreError> {
        let mut a = g;
        self.run_on(&mut a, q, ws)
    }

    /// Run the top-K search over any [`AdjacencyAccess`] source.
    ///
    /// This is the *one* implementation of Algorithm 1: [`TwoSBound::run`] /
    /// [`TwoSBound::run_with`] call it with the in-memory graph, the
    /// distributed executor calls it with a paged active graph, and the two
    /// produce bit-identical results because they are the same code path.
    /// A mid-run adjacency failure (e.g. a dead graph processor) restores
    /// `ws`'s buffers before returning the error, so the worker survives.
    pub fn run_on<A: AdjacencyAccess>(
        &self,
        a: &mut A,
        q: NodeId,
        ws: &mut TopKWorkspace,
    ) -> Result<TopKResult, CoreError> {
        let cfg = &self.config;
        // Validate before borrowing any workspace buffer: a rejected query
        // (bad α, out-of-range node) must not cost the worker its buffers.
        self.params.validate()?;
        if q.index() >= a.node_count() {
            return Err(CoreError::NodeOutOfRange {
                node: q,
                node_count: a.node_count(),
            });
        }
        let f_ws = std::mem::take(&mut ws.f);
        let mut f =
            FNeighborhood::with_workspace(&*a, q, &self.params, self.scheme.f_mode(), f_ws)?;
        let t_ws = std::mem::take(&mut ws.t);
        let mut t =
            match TNeighborhood::with_workspace(&*a, q, &self.params, self.scheme.t_mode(), t_ws) {
                Ok(t) => t,
                Err(e) => {
                    ws.f = f.into_workspace();
                    return Err(e);
                }
            };
        let k = cfg.k.min(a.node_count());
        if k == 0 {
            // K = 0 (or an empty graph) has a trivial answer.
            ws.f = f.into_workspace();
            ws.t = t.into_workspace();
            return Ok(TopKResult {
                ranking: Vec::new(),
                bounds: Vec::new(),
                expansions: 0,
                converged: true,
                active: ActiveSetStats::default(),
            });
        }
        // Stage II only needs bounds tight relative to the slack: refining
        // far past ε wastes sweeps without changing the stopping decision.
        let refine_tol = cfg.refine_tolerance.max(cfg.epsilon * 1e-2);
        let result = self.search(a, &mut f, &mut t, ws, k, refine_tol);
        ws.f = f.into_workspace();
        ws.t = t.into_workspace();
        result.map_err(CoreError::from)
    }

    /// The expansion / refinement / stopping loop of Algorithm 1, factored
    /// out so [`TwoSBound::run_on`] has a single workspace-restore point
    /// covering both the success and the error path.
    fn search<A: AdjacencyAccess>(
        &self,
        a: &mut A,
        f: &mut FNeighborhood,
        t: &mut TNeighborhood,
        ws: &mut TopKWorkspace,
        k: usize,
        refine_tol: f64,
    ) -> Result<TopKResult, AdjacencyError> {
        let cfg = &self.config;
        let members = &mut ws.members;
        let mut expansions = 0usize;
        loop {
            expansions += 1;
            // Two-stage bounds updating (Stage I + Stage II), per neighborhood.
            f.expand(&mut *a, cfg.m_f)?;
            f.refine(&*a, refine_tol, cfg.refine_max_sweeps);
            t.expand(&mut *a, cfg.m_t)?;
            t.refine(&*a, refine_tol, cfg.refine_max_sweeps);

            // r-neighborhood S = S_f ∩ S_t with product bounds (Eq. 15).
            members.clear();
            members.extend(
                f.seen()
                    .filter_map(|(v, fb)| t.bounds(v).map(|tb| (v, fb.product(&tb)))),
            );
            rank_members(members);

            // Unseen upper bound (Eq. 16).
            let r_unseen = self.unseen_upper(f, t);

            let done = top_k_decided(members, k, cfg.epsilon, r_unseen);
            // Bounds can no longer improve once the residual is exhausted
            // and the border has emptied; return whatever we have.
            let exhausted = f.residual() < 1e-15 && t.unseen_upper() == 0.0;
            if done || exhausted || expansions >= cfg.max_expansions {
                let active = ActiveSetStats::measure_in_access(
                    &mut ws.active,
                    &*a,
                    f.seen().map(|(v, _)| v),
                    t.seen().map(|(v, _)| v),
                );
                members.truncate(k);
                return Ok(TopKResult {
                    ranking: members.iter().map(|&(v, _)| v).collect(),
                    bounds: members.iter().map(|&(_, b)| (b.lower, b.upper)).collect(),
                    expansions,
                    converged: done,
                    active,
                });
            }
        }
    }

    /// Eq. 16: `r̂(q) = max{f̂(q)·t̂(q), max_{v∈Sf\S} f̂(q,v)·t̂(q),
    /// max_{v∈St\S} f̂(q)·t̂(q,v)}`.
    fn unseen_upper(&self, f: &FNeighborhood, t: &TNeighborhood) -> f64 {
        let f_unseen = f.unseen_upper();
        let t_unseen = t.unseen_upper();
        let mut r_unseen = f_unseen * t_unseen;
        for (v, fb) in f.seen() {
            if !t.contains(v) {
                r_unseen = r_unseen.max(fb.upper * t_unseen);
            }
        }
        for (v, tb) in t.seen() {
            if !f.contains(v) {
                r_unseen = r_unseen.max(f_unseen * tb.upper);
            }
        }
        r_unseen
    }
}

/// Order the r-neighborhood best lower bound first, ties by node id.
pub(crate) fn rank_members(members: &mut [(NodeId, Bounds)]) {
    members.sort_by(|a, b| b.1.lower.total_cmp(&a.1.lower).then(a.0.cmp(&b.0)));
}

/// The stopping decision over the ranked r-neighborhood: the top-K
/// conditions (Eq. 13–14) with slack ε, shared with
/// [`crate::plus::TwoSBoundPlus`].
///
/// With fewer than `k` members the search normally has to go on — unless the
/// unseen bound (Eq. 16) is exactly 0: then no node outside the members can
/// score at all, the members are the full support of the ranking, and the
/// answer is decided as soon as their order is (Eq. 14). A dangling query
/// node is the case in point: its F-Rank mass dies at the query, so its
/// ranking is `[q]` however large the component leading into it.
pub(crate) fn top_k_decided(
    members: &[(NodeId, Bounds)],
    k: usize,
    epsilon: f64,
    r_unseen: f64,
) -> bool {
    if members.len() < k && r_unseen != 0.0 {
        return false;
    }
    let (top, rest) = members.split_at(k.min(members.len()));
    let Some(kth) = top.last() else {
        return true; // nothing can score: the empty ranking is complete
    };
    // Eq. 13: the K-th lower bound beats every other upper bound.
    let max_other_upper = rest.iter().map(|&(_, b)| b.upper).fold(r_unseen, f64::max);
    if kth.1.lower <= max_other_upper - epsilon - TIE_EPS {
        return false;
    }
    // Eq. 14: consecutive order within the top K is certain.
    top.windows(2)
        .all(|w| w[0].1.lower > w[1].1.upper - epsilon - TIE_EPS)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rtr_core::prelude::*;
    use rtr_graph::toy::fig2_toy;

    fn exact_rtr(g: &Graph, q: NodeId) -> ScoreVec {
        RoundTripRank::new(RankParams::default())
            .compute(g, &Query::single(q))
            .unwrap()
    }

    #[test]
    fn exact_topk_at_zero_slack() {
        let (g, ids) = fig2_toy();
        let exact = exact_rtr(&g, ids.t1);
        let cfg = TopKConfig {
            k: 4,
            epsilon: 0.0,
            ..TopKConfig::toy()
        };
        let result = TwoSBound::new(RankParams::default(), cfg)
            .run(&g, ids.t1)
            .unwrap();
        assert!(result.converged, "should meet top-K conditions");
        let expected = exact.top_k(4);
        // Scores, not identities, must match (exact ties are interchangeable).
        for (got, want) in result.ranking.iter().zip(&expected) {
            assert!(
                (exact.score(*got) - exact.score(*want)).abs() < 1e-9,
                "rank mismatch: got {got:?} ({}) want {want:?} ({})",
                exact.score(*got),
                exact.score(*want)
            );
        }
    }

    #[test]
    fn bounds_contain_exact_scores() {
        let (g, ids) = fig2_toy();
        let exact = exact_rtr(&g, ids.t1);
        let result = TwoSBound::new(RankParams::default(), TopKConfig::toy())
            .run(&g, ids.t1)
            .unwrap();
        for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
            let score = exact.score(*v);
            assert!(
                score >= lo - 1e-9 && score <= hi + 1e-9,
                "{v:?}: {score} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn query_node_ranks_first() {
        let (g, ids) = fig2_toy();
        let result = TwoSBound::new(RankParams::default(), TopKConfig::toy())
            .run(&g, ids.t1)
            .unwrap();
        assert_eq!(result.ranking[0], ids.t1);
    }

    #[test]
    fn larger_slack_terminates_no_later() {
        let (g, ids) = fig2_toy();
        let tight = TwoSBound::new(
            RankParams::default(),
            TopKConfig {
                epsilon: 0.0,
                ..TopKConfig::toy()
            },
        )
        .run(&g, ids.t1)
        .unwrap();
        let loose = TwoSBound::new(
            RankParams::default(),
            TopKConfig {
                epsilon: 0.05,
                ..TopKConfig::toy()
            },
        )
        .run(&g, ids.t1)
        .unwrap();
        assert!(loose.expansions <= tight.expansions);
    }

    #[test]
    fn epsilon_guarantee_holds() {
        // ε-approximation: no returned node's score may fall more than ε
        // below any excluded node's score.
        let (g, ids) = fig2_toy();
        let exact = exact_rtr(&g, ids.t1);
        let eps = 0.02;
        let cfg = TopKConfig {
            k: 4,
            epsilon: eps,
            ..TopKConfig::toy()
        };
        let result = TwoSBound::new(RankParams::default(), cfg)
            .run(&g, ids.t1)
            .unwrap();
        let kth_score = exact.score(*result.ranking.last().unwrap());
        for v in g.nodes() {
            if !result.ranking.contains(&v) {
                assert!(
                    exact.score(v) <= kth_score + eps + 1e-9,
                    "{v:?} ({}) exceeds K-th ({kth_score}) by more than ε",
                    exact.score(v)
                );
            }
        }
    }

    #[test]
    fn k_larger_than_graph_returns_everything_seen() {
        let (g, ids) = fig2_toy();
        let cfg = TopKConfig {
            k: 100,
            epsilon: 0.0,
            ..TopKConfig::toy()
        };
        let result = TwoSBound::new(RankParams::default(), cfg)
            .run(&g, ids.t1)
            .unwrap();
        assert!(result.ranking.len() <= g.node_count());
        assert!(!result.ranking.is_empty());
    }

    #[test]
    fn active_set_reported() {
        let (g, ids) = fig2_toy();
        let result = TwoSBound::new(RankParams::default(), TopKConfig::toy())
            .run(&g, ids.t1)
            .unwrap();
        assert!(result.active.active_nodes > 0);
        assert!(result.active.bytes > 0);
        assert!(result.active.f_nodes > 0);
        assert!(result.active.t_nodes > 0);
    }

    #[test]
    fn all_schemes_agree_on_topk_scores() {
        let (g, ids) = fig2_toy();
        let exact = exact_rtr(&g, ids.t1);
        let expected: Vec<f64> = exact.top_k(3).iter().map(|&v| exact.score(v)).collect();
        for scheme in [
            Scheme::TwoSBound,
            Scheme::GPlusS,
            Scheme::Gupta,
            Scheme::Sarkar,
        ] {
            let cfg = TopKConfig {
                k: 3,
                epsilon: 0.0,
                ..TopKConfig::toy()
            };
            let result = TwoSBound::with_scheme(RankParams::default(), cfg, scheme)
                .run(&g, ids.t1)
                .unwrap();
            let got: Vec<f64> = result.ranking.iter().map(|&v| exact.score(v)).collect();
            for (a, b) in got.iter().zip(&expected) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{scheme:?}: scores {got:?} != {expected:?}"
                );
            }
        }
    }

    #[test]
    fn self_loop_graph_stays_sound() {
        // Regression: Prop. 4's unseen bound assumes a returning walk takes
        // ≥ 2 steps; a heavy self-loop violates that and once produced
        // bounds that excluded the exact score. The BCA now falls back to
        // the first-arrival bound on self-loop graphs.
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<_> = (0..9).map(|_| b.add_node(ty)).collect();
        for i in 0..9 {
            b.add_edge(nodes[i], nodes[(i + 1) % 9], 1.0);
        }
        b.add_edge(nodes[1], nodes[1], 5.0); // heavy self-loop
        let g = b.build();
        assert!(g.has_self_loops());
        let exact = exact_rtr(&g, nodes[0]);
        let cfg = TopKConfig {
            k: 5,
            epsilon: 0.0,
            m_f: 8,
            m_t: 3,
            max_expansions: 20_000,
            ..TopKConfig::default()
        };
        let result = TwoSBound::new(RankParams::default(), cfg)
            .run(&g, nodes[0])
            .unwrap();
        for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
            let s = exact.score(*v);
            assert!(
                s >= lo - 1e-9 && s <= hi + 1e-9,
                "{v:?}: {s} outside [{lo}, {hi}]"
            );
        }
        let want = exact.top_k(result.ranking.len());
        for (got, want) in result.ranking.iter().zip(&want) {
            assert!((exact.score(*got) - exact.score(*want)).abs() < 1e-9);
        }
    }

    /// A dangling query node (no out-edges) whose in-component is the whole
    /// graph: node `i` points at its binary-tree parent `i / 2` (the query
    /// is the root, node 0) and at one pseudo-random other non-query node.
    pub(crate) fn dangling_sink(n: u32) -> (Graph, NodeId) {
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(ty)).collect();
        for i in 1..n {
            b.add_edge(nodes[i as usize], nodes[(i / 2) as usize], 1.0);
            let other = 1 + (i.wrapping_mul(7919) + 3) % (n - 1);
            if other != i {
                b.add_edge(nodes[i as usize], nodes[other as usize], 1.0);
            }
        }
        (b.build(), nodes[0])
    }

    #[test]
    fn dangling_query_converges_at_once() {
        // Regression: F-Rank mass dies at a dangling query, so S_f ∩ S_t
        // stays {q} and never reaches K members; the search used to grind
        // through `max_expansions` rounds of the in-component (a minute on
        // a 200k-node graph) and then report `converged: false`.
        let (g, q) = dangling_sink(20_000);
        assert!(g.is_dangling(q));
        let started = std::time::Instant::now();
        let result = TwoSBound::new(RankParams::default(), TopKConfig::default())
            .run(&g, q)
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(result.ranking, vec![q]);
        assert!(result.converged);
        assert!(result.expansions <= 3, "{} expansions", result.expansions);
        assert!(elapsed.as_millis() < 50, "took {elapsed:?}");
        let alpha = RankParams::default().alpha;
        let (lo, hi) = result.bounds[0];
        assert!(lo <= alpha * alpha + 1e-12 && alpha * alpha <= hi + 1e-12);
    }

    #[test]
    fn fewer_than_k_members_stop_only_on_a_zero_unseen_bound() {
        let b = |lower, upper| Bounds { lower, upper };
        let members = [(NodeId(4), b(0.5, 0.6)), (NodeId(2), b(0.1, 0.2))];
        assert!(top_k_decided(&members, 10, 0.0, 0.0));
        assert!(!top_k_decided(&members, 10, 0.0, 1e-300));
        // Eq. 14 still has to hold over the members.
        let tangled = [(NodeId(4), b(0.5, 0.6)), (NodeId(2), b(0.1, 0.55))];
        assert!(!top_k_decided(&tangled, 10, 0.0, 0.0));
        assert!(top_k_decided(&tangled, 10, 0.1, 0.0));
        assert!(top_k_decided(&[], 10, 0.0, 0.0));
    }

    #[test]
    fn weaker_schemes_need_at_least_as_many_expansions() {
        let (g, ids) = fig2_toy();
        let cfg = TopKConfig {
            k: 3,
            epsilon: 0.0,
            ..TopKConfig::toy()
        };
        let full = TwoSBound::with_scheme(RankParams::default(), cfg, Scheme::TwoSBound)
            .run(&g, ids.t1)
            .unwrap();
        let gs = TwoSBound::with_scheme(RankParams::default(), cfg, Scheme::GPlusS)
            .run(&g, ids.t1)
            .unwrap();
        assert!(
            full.expansions <= gs.expansions,
            "2SBound {} > G+S {}",
            full.expansions,
            gs.expansions
        );
    }
}
