//! The 2SBound algorithm (paper Algorithm 1), one loop for every measure.
//!
//! ```text
//! S ← ∅; round 1 moves both sides
//! repeat
//!     Stage I:  expand the moving sides of S and initialize their bounds Δ
//!     Stage II: iteratively refine Δ over the moving sides
//!     TK ← current top-K by lower bounds
//!     the next round moves the side(s) whose expansion lowers the term
//!     attaining the unseen bound (Eq. 16)
//! until TK satisfies the top-K conditions (Eq. 13–14)
//! ```
//!
//! The measures differ only in how a node's f- and t-bounds combine into
//! its score bounds (`Combine`):
//!
//! * `Combine::Product` — RoundTripRank. The r-neighborhood is
//!   `S = S_f ∩ S_t` (bounds decomposition, Sect. V-A2): nodes must be seen
//!   by *both* neighborhoods before their score can be bounded away from
//!   the unseen mass. Member bounds are Eq. 15, the unseen bound Eq. 16.
//! * `Combine::Power` — RoundTripRank+ (see [`crate::plus`]): the same
//!   with `f^(1-β) · t^β` in place of `f · t`.
//! * `Combine::One` — F-Rank or T-Rank alone. The other neighborhood is
//!   inert: never expanded or refined. The live side's `S_f` / `S_t` is
//!   ranked against its own unseen bound — Eq. 19 / Prop. 4 for F, Eq. 22
//!   for T.
//!
//! **Which side moves.** Eq. 16 bounds every node outside `S` by the
//! largest of three terms: `f̂·t̂`, which either side's expansion lowers;
//! `max_{v∈S_f\S} f̂(v)·t̂`, which only T's lowers; and
//! `max_{v∈S_t\S} f̂·t̂(v)`, which only F's lowers. Each round a pair
//! expands and refines only the side its binding term names (both on the
//! first term or a tie); a named side that can tighten no more hands the
//! round to the other. F's batch doubles after every round F moves alone
//! and starts over at `m_f` in a round that moves both; T's stays `m_t`.
//! Bounds only tighten, so they stay valid under any order and batch:
//! the policy moves counts, never soundness. A lone side is the same rule
//! with the other side inert — lone F moves alone every round, so its
//! batch runs `m_f`, `2·m_f`, `4·m_f`, ….
//!
//! A multi-node query holds one neighborhood pair per query node. Every
//! measure is linear in the query (the Linearity Theorem, Sect. III-A), so
//! a node's bounds are `Σ_q w_q · combine(f_q, t_q)`, a side that has not
//! seen the node counting as `[0, unseen_q]`. The r-neighborhood is the
//! union of the per-node ones and the unseen bound is `Σ_q w_q · r̂_q`.

use crate::active_set::ActiveSetStats;
use crate::bounds::Bounds;
use crate::config::TopKConfig;
use crate::fbound::FNeighborhood;
use crate::schemes::Scheme;
use crate::tbound::TNeighborhood;
use crate::workspace::TopKWorkspace;
use rtr_core::{CoreError, Measure, Query, RankParams, ScoreVec};
use rtr_graph::{AdjacencyAccess, AdjacencyError, Graph, NodeId};
use std::mem::take;

/// Tolerance used to break *exact* score ties once bounds have converged:
/// the paper's strict inequalities (Eq. 13–14) can never separate two nodes
/// with identical scores, so we accept candidates whose bounds agree to
/// within this hair.
const TIE_EPS: f64 = 1e-12;

/// Result of a top-K run.
#[derive(Clone, Debug)]
pub struct TopKResult {
    /// The (approximate) top-K nodes, best first.
    pub ranking: Vec<NodeId>,
    /// `[lower, upper]` score bounds aligned with `ranking`.
    pub bounds: Vec<(f64, f64)>,
    /// Expansion rounds performed.
    pub expansions: usize,
    /// `true` if the top-K conditions were met (vs. hitting the expansion
    /// cap and returning the best effort).
    pub converged: bool,
    /// Active-set statistics at termination (paper Fig. 12).
    pub active: ActiveSetStats,
    /// What the search did to get there. Deterministic for a given graph
    /// and request, but not part of the answer: the wire codecs leave it
    /// out and decode it as the default.
    pub work: TopKWork,
}

impl TopKResult {
    /// An exact answer in the search's result shape: the top `k` of
    /// `scores` with zero-width bounds, no expansion rounds, converged.
    /// The caller reports the nodes it touched as `active` and what the
    /// scoring cost as `work`.
    pub fn exact(scores: &ScoreVec, k: usize, active: ActiveSetStats, work: TopKWork) -> Self {
        let ranking = scores.top_k(k);
        let bounds = ranking
            .iter()
            .map(|&v| (scores.score(v), scores.score(v)))
            .collect();
        TopKResult {
            ranking,
            bounds,
            expansions: 0,
            converged: true,
            active,
            work,
        }
    }
}

/// The work a top-K search did, in counts (summed over query nodes
/// unless stated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopKWork {
    /// Rounds in which some f-neighborhood expanded.
    pub f_rounds: usize,
    /// Rounds in which some t-neighborhood expanded.
    pub t_rounds: usize,
    /// Nodes BCA processed (F's Stage I pushes).
    pub bca_pushes: usize,
    /// Nodes the t-neighborhoods absorbed (T's Stage I).
    pub t_absorbed: usize,
    /// Stage II sweeps over the f-neighborhoods.
    pub f_sweeps: usize,
    /// Stage II sweeps over the t-neighborhoods.
    pub t_sweeps: usize,
    /// Rounds × query nodes in which Eq. 16's `f̂·t̂` term (or a tie)
    /// attained the unseen bound: a term both sides lower.
    pub bound_both: usize,
    /// Rounds × query nodes in which `max_{v∈S_t\S} f̂·t̂(v)` did: a term
    /// only F's expansion lowers.
    pub bound_f: usize,
    /// Rounds × query nodes in which `max_{v∈S_f\S} f̂(v)·t̂` did: a term
    /// only T's expansion lowers.
    pub bound_t: usize,
}

/// One side of the round trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// F-Rank, reachability *from* the query: the f-neighborhood.
    F,
    /// T-Rank, reachability *to* the query: the t-neighborhood.
    T,
}

/// How a node's f- and t-bounds combine into its score bounds. Every
/// combination is monotone in both arguments over non-negative scores, so
/// combining the bounds bounds the combination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Combine {
    /// RoundTripRank: `f · t` (Eq. 15–16).
    Product,
    /// RoundTripRank+: `f^(1-β) · t^β`.
    Power {
        /// The specificity bias β ∈ [0, 1].
        beta: f64,
    },
    /// F-Rank or T-Rank alone; the other side stays inert.
    One(Side),
}

impl Combine {
    /// The combination that ranks by `measure`. RoundTripRank+ at β = 0
    /// *is* F-Rank (`f^1 · t^0 = f`, bit for bit) and at β = 1 T-Rank, so
    /// the endpoints run one side: as a [`Combine::Power`] a node the other
    /// side never sees (at β = 0, one that cannot reach the query) would
    /// hold the Eq. 16 bound up for good.
    fn of(measure: Measure) -> Self {
        match measure {
            Measure::F | Measure::RtrPlus { beta: 0.0 } => Combine::One(Side::F),
            Measure::T | Measure::RtrPlus { beta: 1.0 } => Combine::One(Side::T),
            Measure::Rtr => Combine::Product,
            Measure::RtrPlus { beta } => Combine::Power { beta },
        }
    }

    /// Whether the search expands and refines `side`.
    fn live(self, side: Side) -> bool {
        !matches!(self, Combine::One(only) if only != side)
    }

    #[inline]
    fn score(self, f: f64, t: f64) -> f64 {
        match self {
            Combine::Product => f * t,
            Combine::Power { beta } => f.powf(1.0 - beta) * t.powf(beta),
            Combine::One(Side::F) => f,
            Combine::One(Side::T) => t,
        }
    }

    #[inline]
    fn bounds(self, f: Bounds, t: Bounds) -> Bounds {
        Bounds {
            lower: self.score(f.lower, t.lower),
            upper: self.score(f.upper, t.upper),
        }
    }
}

/// Two-Stage Bounding top-K processor.
#[derive(Clone, Copy, Debug)]
pub struct TwoSBound {
    params: RankParams,
    config: TopKConfig,
    /// The Fig. 11a scheme; [`crate::TwoSBoundPlus::with_scheme`] swaps it
    /// into a β search.
    pub(crate) scheme: Scheme,
    combine: Combine,
}

impl TwoSBound {
    /// RoundTripRank with the paper's full scheme (Prop. 4 bound + two-stage
    /// refinement on both neighborhoods).
    pub fn new(params: RankParams, config: TopKConfig) -> Self {
        Self::with_scheme(params, config, Scheme::TwoSBound)
    }

    /// RoundTripRank with a weakened scheme for the efficiency ablations of
    /// Fig. 11a.
    pub fn with_scheme(params: RankParams, config: TopKConfig, scheme: Scheme) -> Self {
        TwoSBound {
            params,
            config,
            scheme,
            combine: Combine::Product,
        }
    }

    /// The search that ranks by `measure` under the paper's full scheme
    /// (β is validated for RoundTripRank+).
    pub fn for_measure(
        params: RankParams,
        config: TopKConfig,
        measure: Measure,
    ) -> Result<Self, CoreError> {
        measure.validate()?;
        Ok(TwoSBound {
            combine: Combine::of(measure),
            ..Self::new(params, config)
        })
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
        self.search_on(&mut a, &[q], &[1.0], ws)
    }

    /// Run the top-K search for a (weighted, multi-node) `query` reusing
    /// `ws`'s buffers.
    pub fn run_query_with(
        &self,
        g: &Graph,
        query: &Query,
        ws: &mut TopKWorkspace,
    ) -> Result<TopKResult, CoreError> {
        let mut a = g;
        self.run_query_on(&mut a, query, ws)
    }

    /// Run the top-K search for `query` over any [`AdjacencyAccess`] source.
    ///
    /// This is the *one* implementation of Algorithm 1: the other entry
    /// points call it with the in-memory graph, the distributed executor
    /// calls it with a paged active graph, and the two produce bit-identical
    /// results because they are the same code path. A mid-run adjacency
    /// failure (e.g. a dead graph processor) restores `ws`'s buffers before
    /// returning the error, so the worker survives.
    pub fn run_query_on<A: AdjacencyAccess>(
        &self,
        a: &mut A,
        query: &Query,
        ws: &mut TopKWorkspace,
    ) -> Result<TopKResult, CoreError> {
        self.search_on(a, query.nodes(), query.weights(), ws)
    }

    fn search_on<A: AdjacencyAccess>(
        &self,
        a: &mut A,
        nodes: &[NodeId],
        weights: &[f64],
        ws: &mut TopKWorkspace,
    ) -> Result<TopKResult, CoreError> {
        // Validate before borrowing any workspace buffer: a rejected query
        // (bad α, out-of-range node) must not cost the worker its buffers.
        self.params.validate()?;
        if nodes.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        let n = a.node_count();
        if let Some(&node) = nodes.iter().find(|q| q.index() >= n) {
            return Err(CoreError::NodeOutOfRange {
                node,
                node_count: n,
            });
        }
        if ws.pairs.len() < nodes.len() {
            ws.pairs.resize_with(nodes.len(), Default::default);
        }
        let mut pairs = Vec::with_capacity(nodes.len());
        for ((&q, &weight), (f_ws, t_ws)) in nodes.iter().zip(weights).zip(&mut ws.pairs) {
            // Neither constructor can fail: α and `q` were validated above.
            let (scheme, params) = (self.scheme, &self.params);
            let mut f = FNeighborhood::with_workspace(&*a, q, params, scheme.f_mode(), take(f_ws))?;
            if self.combine == Combine::One(Side::F) {
                // F-Rank alone is bounded only by the BCA residual (Prop.
                // 4), and on a well-mixed graph that mass leaks across
                // nearly every node. So a lone F side runs no Stage II,
                // which would sweep that whole neighborhood every round,
                // and keeps no per-member bounds: Eq. 20–21 of the current
                // round bound each member. (It moves alone every round, so
                // its batch doubles every round; fixed batches take
                // hundreds of rounds.)
                f = f.without_member_bounds();
            }
            let t = TNeighborhood::with_workspace(&*a, q, params, scheme.t_mode(), take(t_ws))?;
            let (moves, m_f) = (None, self.config.m_f);
            pairs.push(Pair {
                weight,
                f,
                t,
                moves,
                m_f,
            });
        }
        let k = self.config.k.min(n);
        let result = if k == 0 {
            // K = 0 has a trivial answer.
            Ok(TopKResult {
                ranking: Vec::new(),
                bounds: Vec::new(),
                expansions: 0,
                converged: true,
                active: ActiveSetStats::default(),
                work: TopKWork::default(),
            })
        } else {
            self.search(a, &mut pairs, &mut ws.members, &mut ws.union, k)
        };
        for (slot, p) in ws.pairs.iter_mut().zip(pairs) {
            *slot = (p.f.into_workspace(), p.t.into_workspace());
        }
        // Every pair holds three node-indexed arrays, 16 B per node: `ρ`'s
        // and `S_t`'s sparse indexes and `µ`. A worker keeps only the first
        // warm, so one four-node query does not pin 48 B per node more for
        // good.
        ws.pairs.truncate(1);
        result.map_err(CoreError::from)
    }

    /// The expansion / refinement / stopping loop of Algorithm 1, factored
    /// out so [`TwoSBound::search_on`] has a single workspace-restore point
    /// covering both the success and the error path.
    fn search<A: AdjacencyAccess>(
        &self,
        a: &mut A,
        pairs: &mut [Pair],
        members: &mut Vec<(NodeId, Bounds)>,
        union: &mut Vec<u32>,
        k: usize,
    ) -> Result<TopKResult, AdjacencyError> {
        let (cfg, combine) = (&self.config, self.combine);
        // Stage II only needs bounds tight relative to the slack: refining
        // far past ε wastes sweeps without changing the stopping decision.
        let refine_tol = cfg.refine_tolerance.max(cfg.epsilon * 1e-2);
        let mut expansions = 0usize;
        let mut work = TopKWork::default();
        loop {
            expansions += 1;
            // Two-stage bounds updating (Stage I + Stage II) of the live
            // neighborhoods whose side lowers the term that bound last round.
            let (mut f_moved, mut t_moved) = (false, false);
            for p in pairs.iter_mut() {
                let (f, t) = p.sides(combine);
                if f {
                    // F's batch doubles after each round F moves alone and
                    // starts over at `m_f` in a round that moves both sides.
                    let m_f = if t { cfg.m_f } else { p.m_f };
                    work.bca_pushes += p.f.expand(&mut *a, m_f)?;
                    work.f_sweeps += p.f.refine(&*a, refine_tol, cfg.refine_max_sweeps);
                    p.m_f = if t { cfg.m_f } else { m_f.saturating_mul(2) };
                }
                if t {
                    work.t_absorbed += p.t.expand(&mut *a, cfg.m_t)?;
                    work.t_sweeps += p.t.refine(&*a, refine_tol, cfg.refine_max_sweeps);
                }
                (f_moved, t_moved) = (f_moved | f, t_moved | t);
            }
            work.f_rounds += f_moved as usize;
            work.t_rounds += t_moved as usize;

            let mut r_unseen = 0.0;
            for p in pairs.iter_mut() {
                let (r, binds) = p.unseen_upper(combine);
                p.moves = binds;
                r_unseen += p.weight * r;
                if !matches!(combine, Combine::One(_)) {
                    *match binds {
                        None => &mut work.bound_both,
                        Some(Side::F) => &mut work.bound_f,
                        Some(Side::T) => &mut work.bound_t,
                    } += 1;
                }
            }
            // Bounds can no longer improve once every live neighborhood is
            // exhausted; return whatever we have.
            let exhausted = pairs.iter().all(|p| p.exhausted(combine));
            let last = exhausted || expansions >= cfg.max_expansions;
            if combine == Combine::One(Side::F) && pairs.len() == 1 {
                // Every member of a single-node lone F search is bounded
                // `[ρ, ρ + f̂]`, so upper bounds order like lower ones and
                // the K + 1 best members decide Eq. 13–14: one pass over ρ.
                top_members(pairs[0].f.seen(), k + 1, members);
            } else {
                members.clear();
                for p in pairs.iter() {
                    p.push_members(combine, members);
                }
                if pairs.len() > 1 {
                    // The union of the per-node r-neighborhoods, each
                    // member bounded over every query node.
                    members.sort_unstable_by_key(|&(v, _)| v);
                    members.dedup_by_key(|&mut (v, _)| v);
                    for (v, b) in members.iter_mut() {
                        *b = pairs.iter().fold(Bounds::exact(0.0), |acc, p| {
                            let pb =
                                combine.bounds(p.f.effective_bounds(*v), p.t.effective_bounds(*v));
                            Bounds {
                                lower: acc.lower + p.weight * pb.lower,
                                upper: acc.upper + p.weight * pb.upper,
                            }
                        });
                    }
                }
                // Eq. 13 needs min(k, |S|) members whose lower bounds
                // clear r̂ − ε: count them before ranking.
                let floor = r_unseen - cfg.epsilon - TIE_EPS;
                let lowers = members.iter().map(|&(_, b)| b.lower);
                if !last && !may_decide(lowers, k, floor) {
                    continue;
                }
                rank_members(members, k);
            }
            let done = top_k_decided(members, k, cfg.epsilon, r_unseen);
            if done || last {
                let live = |side| pairs.iter().filter(move |_| combine.live(side));
                let f_nodes = live(Side::F).flat_map(|p| p.f.seen().map(|(v, _)| v));
                let t_nodes = live(Side::T).flat_map(|p| p.t.seen().map(|(v, _)| v));
                let active = match &*pairs {
                    // One query node: each side lists its members once.
                    [p] => ActiveSetStats::measure_pair(&*a, f_nodes, t_nodes, |v| {
                        combine.live(Side::T) && p.t.contains(v)
                    }),
                    _ => ActiveSetStats::measure(union, &*a, f_nodes, t_nodes),
                };
                members.truncate(k);
                return Ok(TopKResult {
                    ranking: members.iter().map(|&(v, _)| v).collect(),
                    bounds: members.iter().map(|&(_, b)| (b.lower, b.upper)).collect(),
                    expansions,
                    converged: done,
                    active,
                    work,
                });
            }
        }
    }
}

/// One query node's weight and neighborhood pair.
struct Pair {
    weight: f64,
    f: FNeighborhood,
    t: TNeighborhood,
    /// The side the next round moves (`None`: both), named by the term
    /// that attained this pair's unseen bound in the last round.
    moves: Option<Side>,
    /// F's next batch.
    m_f: usize,
}

impl Pair {
    /// Append this node's r-neighborhood with each member's bounds.
    fn push_members(&self, combine: Combine, out: &mut Vec<(NodeId, Bounds)>) {
        match combine {
            Combine::One(Side::F) => out.extend(self.f.seen()),
            Combine::One(Side::T) => out.extend(self.t.seen()),
            _ => out.extend(
                self.f
                    .seen()
                    .filter_map(|(v, fb)| self.t.bounds(v).map(|tb| (v, combine.bounds(fb, tb)))),
            ),
        }
    }

    /// The best score a node outside this node's r-neighborhood can have,
    /// and the side whose expansion lowers the term attaining it (`None`:
    /// both). For a single side that is the live side's own unseen bound,
    /// else Eq. 16, `r̂(q) = max{f̂(q)·t̂(q), max_{v∈Sf\S} f̂(q,v)·t̂(q),
    /// max_{v∈St\S} f̂(q)·t̂(q,v)}` with `combine` for the product: the
    /// first term falls with either side, the second only with T's
    /// expansion, the third only with F's. A tie names both.
    fn unseen_upper(&self, combine: Combine) -> (f64, Option<Side>) {
        let (f_unseen, t_unseen) = (self.f.unseen_upper(), self.t.unseen_upper());
        if let Combine::One(side) = combine {
            return (
                if side == Side::F { f_unseen } else { t_unseen },
                Some(side),
            );
        }
        let both = combine.score(f_unseen, t_unseen);
        let (mut t_term, mut f_term) = (0.0f64, 0.0f64);
        for (v, fb) in self.f.seen() {
            if !self.t.contains(v) {
                t_term = t_term.max(combine.score(fb.upper, t_unseen));
            }
        }
        for (v, tb) in self.t.seen() {
            if !self.f.contains(v) {
                f_term = f_term.max(combine.score(f_unseen, tb.upper));
            }
        }
        let r_unseen = both.max(t_term).max(f_term);
        let binds = if f_term > both.max(t_term) {
            Some(Side::F)
        } else if t_term > both.max(f_term) {
            Some(Side::T)
        } else {
            None
        };
        (r_unseen, binds)
    }

    /// Whether this round moves (F, T): the live sides the last round's
    /// binding term named. A named side that can tighten no more hands the
    /// round to the other (moves exactly the sides `!= named`), so the
    /// search cannot stall short of the cap.
    fn sides(&self, combine: Combine) -> (bool, bool) {
        let moves = |side| {
            combine.live(side)
                && self
                    .moves
                    .is_none_or(|named| (named == side) != self.spent(named))
        };
        (moves(Side::F), moves(Side::T))
    }

    /// Whether `side` can tighten no more: the F residual is spent, the T
    /// border empty.
    fn spent(&self, side: Side) -> bool {
        match side {
            Side::F => self.f.residual() < 1e-15,
            Side::T => self.t.unseen_upper() == 0.0,
        }
    }

    /// Whether no live neighborhood can tighten any more.
    fn exhausted(&self, combine: Combine) -> bool {
        let spent = |side| !combine.live(side) || self.spent(side);
        spent(Side::F) && spent(Side::T)
    }
}

/// The ranking order of members: best lower bound first, ties by node id.
fn rank_order(a: &(NodeId, Bounds), b: &(NodeId, Bounds)) -> std::cmp::Ordering {
    b.1.lower.total_cmp(&a.1.lower).then(a.0.cmp(&b.0))
}

/// Bring the r-neighborhood's `k` best members to the front in
/// [`rank_order`]; the rest stay in no particular order.
fn rank_members(members: &mut [(NodeId, Bounds)], k: usize) {
    if k < members.len() {
        members.select_nth_unstable_by(k, rank_order);
    }
    let top = k.min(members.len());
    members[..top].sort_unstable_by(rank_order);
}

/// Fill `out` with the `keep` best of `members` in [`rank_order`] — what
/// [`rank_members`] brings to the front, in one pass and O(`keep`) space.
fn top_members(
    members: impl Iterator<Item = (NodeId, Bounds)>,
    keep: usize,
    out: &mut Vec<(NodeId, Bounds)>,
) {
    out.clear();
    for m in members {
        if out.len() == keep {
            if !out
                .last()
                .is_some_and(|worst| rank_order(&m, worst).is_lt())
            {
                continue;
            }
            out.pop();
        }
        let at = out.partition_point(|x| rank_order(x, &m).is_lt());
        out.insert(at, m);
    }
}

/// Whether Eq. 13 can hold at all over members with these lower bounds:
/// it needs the K-th best lower bound (or, with fewer than `k` members,
/// the last) above `floor = r̂ − ε − TIE_EPS`, since the largest upper
/// bound it has to beat is at least `r̂`. `false` is final for the round;
/// `true` leaves the decision to [`top_k_decided`] over the ranked members.
fn may_decide(lowers: impl Iterator<Item = f64>, k: usize, floor: f64) -> bool {
    let (mut members, mut cleared) = (0usize, 0usize);
    for lower in lowers {
        members += 1;
        cleared += (lower > floor) as usize;
        if cleared >= k {
            return true;
        }
    }
    cleared >= k.min(members)
}

/// The stopping decision over the ranked r-neighborhood: the top-K
/// conditions (Eq. 13–14) with slack ε.
///
/// With fewer than `k` members the search normally has to go on — unless the
/// unseen bound (Eq. 16) is exactly 0: then no node outside the members can
/// score at all, the members are the full support of the ranking, and the
/// answer is decided as soon as their order is (Eq. 14). A dangling query
/// node is the case in point: its F-Rank mass dies at the query, so its
/// ranking is `[q]` however large the component leading into it.
fn top_k_decided(members: &[(NodeId, Bounds)], k: usize, epsilon: f64, r_unseen: f64) -> bool {
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

    fn exact(g: &Graph, query: &Query, measure: Measure) -> ScoreVec {
        let p = RankParams::default();
        match measure {
            Measure::F => FRank::new(p).compute(g, query),
            Measure::T => TRank::new(p).compute(g, query),
            Measure::Rtr => RoundTripRank::new(p).compute(g, query),
            Measure::RtrPlus { beta } => {
                RoundTripRankPlus::new(p, beta).and_then(|m| m.compute(g, query))
            }
        }
        .unwrap()
    }

    #[test]
    fn every_measure_and_arity_matches_the_exact_top_k() {
        let (g, ids) = fig2_toy();
        let cfg = TopKConfig {
            k: 6,
            ..TopKConfig::toy()
        };
        let queries = [
            Query::single(ids.t1),
            Query::weighted(&[(ids.t1, 3.0), (ids.t2, 1.0)]).unwrap(),
            Query::uniform(&[ids.t1, ids.v3, ids.p[6]]),
        ];
        let measures = [
            Measure::F,
            Measure::T,
            Measure::Rtr,
            Measure::RtrPlus { beta: 0.3 },
        ];
        let mut ws = TopKWorkspace::default();
        for query in &queries {
            for measure in measures {
                let exact = exact(&g, query, measure);
                let result = TwoSBound::for_measure(RankParams::default(), cfg, measure)
                    .unwrap()
                    .run_query_with(&g, query, &mut ws)
                    .unwrap();
                assert!(result.converged, "{measure} {query:?}");
                let want = exact.top_k(result.ranking.len());
                for (i, (v, &(lo, hi))) in result.ranking.iter().zip(&result.bounds).enumerate() {
                    let s = exact.score(*v);
                    assert!(
                        s >= lo - 1e-9 && s <= hi + 1e-9,
                        "{measure} {query:?}: {v:?} {s} outside [{lo}, {hi}]"
                    );
                    assert!(
                        (s - exact.score(want[i])).abs() < 1e-9,
                        "{measure} {query:?}: rank {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_side_never_touches_the_inert_neighborhood() {
        // The neighborhoods hand their buffers back unchanged, so the
        // workspace shows what each side touched: the inert f-neighborhood
        // never bounds a node, the inert t-neighborhood holds only the
        // query it starts from and has laid out no rows. A lone F side
        // grows ρ (S_f, as the active set counts it) but, keeping no
        // per-member bounds, leaves its bounds map empty too.
        let (g, ids) = fig2_toy();
        for measure in [Measure::F, Measure::T] {
            let engine =
                TwoSBound::for_measure(RankParams::default(), TopKConfig::toy(), measure).unwrap();
            let mut ws = TopKWorkspace::default();
            let result = engine.run_with(&g, ids.t1, &mut ws).unwrap();
            let (f_ws, t_ws) = &ws.pairs[0];
            let (f_bounded, t_seen) = (f_ws.bounds.len(), t_ws.bounds.len());
            assert_eq!(f_bounded, 0, "{measure}");
            if measure == Measure::F {
                let rho = result.active.f_nodes;
                assert!(rho > 1, "{measure}: {rho}");
                assert_eq!(t_seen, 1, "{measure}");
                assert!(t_ws.outside_mass.is_empty(), "{measure}");
            } else {
                assert!(t_seen > 1, "{measure}: {t_seen}");
            }
        }
    }

    #[test]
    fn a_wide_query_leaves_one_pair_in_the_workspace() {
        // Each query node holds a neighborhood pair with O(|V|) index
        // arrays; after the query only the first stays warm, and the next
        // query runs as it would from a fresh workspace.
        let (g, ids) = fig2_toy();
        let engine = TwoSBound::new(RankParams::default(), TopKConfig::toy());
        let wide = Query::uniform(&g.nodes().take(10).collect::<Vec<_>>());
        let mut ws = TopKWorkspace::default();
        let result = engine.run_query_with(&g, &wide, &mut ws).unwrap();
        assert!(result.converged);
        assert_eq!(ws.pairs.len(), 1);
        let warm = engine.run_with(&g, ids.t1, &mut ws).unwrap();
        let fresh = engine.run(&g, ids.t1).unwrap();
        assert_eq!(warm.ranking, fresh.ranking);
        assert_eq!(warm.bounds, fresh.bounds);
    }

    #[test]
    fn t_rank_from_a_large_in_component_converges_in_few_expansions() {
        // The dangling root of a 20k-node tree: every node reaches it, so
        // the t-neighborhood could absorb the whole graph — but T-Rank
        // decays by a factor ≈ (1-α)/2 per level, so the unseen bound
        // (Eq. 22) falls below the K-th score within a few levels.
        let (g, q) = dangling_sink(20_000);
        let started = std::time::Instant::now();
        let result =
            TwoSBound::for_measure(RankParams::default(), TopKConfig::default(), Measure::T)
                .unwrap()
                .run(&g, q)
                .unwrap();
        let elapsed = started.elapsed();
        assert!(result.converged);
        assert_eq!(result.ranking[0], q);
        assert_eq!(result.ranking.len(), 10);
        assert!(result.expansions <= 5, "{} expansions", result.expansions);
        assert!(elapsed.as_millis() < 50, "took {elapsed:?}");
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

    /// SplitMix64: a deterministic stream for the randomized properties.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A value on a coarse grid in `[0, 1)`, so ties and near-ties
        /// between bounds are common.
        fn grid(&mut self) -> f64 {
            self.below(40) as f64 / 40.0
        }
    }

    #[test]
    fn the_count_pre_check_never_skips_a_decided_round() {
        // Random member bounds, k ∈ 1..=12, ε ∈ {0, 0.01, 0.05} and an
        // unseen bound that is 0 a quarter of the time: whenever too few
        // lower bounds clear r̂ − ε for Eq. 13, the full test agrees.
        let mut rng = SplitMix(2013);
        let (mut skipped, mut decided) = (0, 0);
        for case in 0..20_000 {
            let n = rng.below(24);
            let mut members: Vec<(NodeId, Bounds)> = (0..n)
                .map(|i| {
                    let lower = rng.grid() * 0.5;
                    let upper = lower + rng.below(4) as f64 * 0.01;
                    (NodeId(i as u32), Bounds { lower, upper })
                })
                .collect();
            let k = 1 + rng.below(12);
            let epsilon = [0.0, 0.01, 0.05][rng.below(3)];
            let r_unseen = if rng.below(4) == 0 {
                0.0
            } else {
                rng.grid() * 0.5
            };
            let floor = r_unseen - epsilon - TIE_EPS;
            let may = may_decide(members.iter().map(|&(_, b)| b.lower), k, floor);
            rank_members(&mut members, k);
            let done = top_k_decided(&members, k, epsilon, r_unseen);
            assert!(
                may || !done,
                "case {case}: skipped a decided round (k {k}, ε {epsilon}, r̂ {r_unseen}, {members:?})"
            );
            skipped += !may as usize;
            decided += done as usize;
        }
        // Both outcomes occur often, so the property is not vacuous.
        assert!(skipped > 1_000 && decided > 1_000, "{skipped} / {decided}");
    }

    #[test]
    fn a_lone_f_search_cut_at_the_cap_still_returns_its_top_k() {
        // Two rounds cannot decide the toy's F-Rank top 4, and the last
        // round must still rank and return the best effort rather than
        // skip ahead.
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        let cfg = TopKConfig {
            k: 4,
            epsilon: 0.0,
            m_f: 2,
            max_expansions: 2,
            ..TopKConfig::toy()
        };
        let result = TwoSBound::for_measure(params, cfg, Measure::F)
            .unwrap()
            .run(&g, ids.t1)
            .unwrap();
        assert!(!result.converged);
        assert_eq!(result.expansions, 2);
        // The same two Stage-I rounds by hand (a lone F side doubles its
        // batch and skips Stage II): the answer is ρ's top 4, each bounded
        // `[ρ, ρ + f̂]` with this round's f̂. The per-member bounds kept
        // here have lower bound ρ.
        let mode = crate::fbound::FBoundMode::TwoStage;
        let mut f = FNeighborhood::new(&g, ids.t1, &params, mode).unwrap();
        f.expand(&mut &g, 2).unwrap();
        f.expand(&mut &g, 4).unwrap();
        let unseen = f.unseen_upper();
        assert!(!may_decide(
            f.seen().map(|(_, b)| b.lower),
            4,
            unseen - TIE_EPS
        ));
        let mut want: Vec<(NodeId, Bounds)> = f.seen().collect();
        assert!(want.len() > 4);
        rank_members(&mut want, 4);
        want.truncate(4);
        assert_eq!(
            result.ranking,
            want.iter().map(|&(v, _)| v).collect::<Vec<_>>()
        );
        let bounds: Vec<(f64, f64)> = want
            .iter()
            .map(|&(_, b)| (b.lower, b.lower + unseen))
            .collect();
        assert_eq!(result.bounds, bounds);
    }

    #[test]
    fn the_top_members_pass_agrees_with_ranking_every_member() {
        // Random member bounds on a coarse grid (ties common), shuffled
        // ids, k ∈ 0..=12: the one-pass top-(k + 1) is exactly the first
        // k + 1 members `rank_members` ranks.
        let mut rng = SplitMix(2026);
        let mut kept = Vec::new();
        for case in 0..20_000 {
            let n = rng.below(24);
            let mut members: Vec<(NodeId, Bounds)> = (0..n)
                .map(|i| {
                    let lower = rng.grid() * 0.5;
                    let id = (i * 7 + case) % 24;
                    (NodeId(id as u32), Bounds::exact(lower))
                })
                .collect();
            let keep = 1 + rng.below(13);
            top_members(members.iter().copied(), keep, &mut kept);
            rank_members(&mut members, keep);
            members.truncate(keep);
            assert_eq!(kept, members, "case {case}: keep {keep}");
        }
    }

    #[test]
    fn lone_f_ranks_like_the_per_member_bounds_search() {
        // The single-node lone F search as it ran while it kept per-member
        // bounds (minimum upper bound over rounds) — doubling batches, no
        // Stage II, Eq. 13–14 over every member — from every query node of
        // the toy graphs, at several k and ε: rankings, expansions, pushes
        // and lower bounds agree bit for bit, and no upper bound is below
        // the kept one.
        let params = RankParams::default();
        let mode = crate::fbound::FBoundMode::TwoStage;
        let (toy, _) = fig2_toy();
        let (sink, _) = dangling_sink(64);
        for g in [&toy, &sink] {
            for q in g.nodes() {
                for (k, epsilon) in [(1, 0.0), (3, 0.01), (5, 0.0), (6, 0.05), (40, 0.0)] {
                    let cfg = TopKConfig {
                        k,
                        epsilon,
                        ..TopKConfig::toy()
                    };
                    let got = TwoSBound::for_measure(params, cfg, Measure::F)
                        .unwrap()
                        .run(g, q)
                        .unwrap();
                    let k = k.min(g.node_count());
                    let mut f = FNeighborhood::new(g, q, &params, mode).unwrap();
                    let (mut m_f, mut pushes, mut members) = (cfg.m_f, 0, Vec::new());
                    let (expansions, converged) = (1..)
                        .find_map(|round| {
                            pushes += f.expand(&mut &*g, m_f).unwrap();
                            m_f = m_f.saturating_mul(2);
                            members = f.seen().collect();
                            rank_members(&mut members, k);
                            let done = top_k_decided(&members, k, epsilon, f.unseen_upper());
                            let last = f.residual() < 1e-15 || round >= cfg.max_expansions;
                            (done || last).then_some((round, done))
                        })
                        .unwrap();
                    members.truncate(k);
                    let case = format!("{q:?} k {k} ε {epsilon}");
                    assert_eq!(got.expansions, expansions, "{case}");
                    assert_eq!(got.converged, converged, "{case}");
                    assert_eq!(got.work.bca_pushes, pushes, "{case}");
                    let ranking: Vec<NodeId> = members.iter().map(|&(v, _)| v).collect();
                    assert_eq!(got.ranking, ranking, "{case}");
                    for (&(lo, hi), (_, b)) in got.bounds.iter().zip(&members) {
                        assert_eq!(lo.to_bits(), b.lower.to_bits(), "{case}");
                        assert!(hi >= b.upper, "{case}: {hi} < {}", b.upper);
                    }
                }
            }
        }
    }

    #[test]
    fn only_the_side_the_binding_term_names_moves_next_round() {
        // Every toy query, cut after 1, 2, 3 and 4 rounds: where F's term
        // (max over S_t \ S of f̂·t̂(v)) bound in round r, round r + 1 leaves
        // S_t as it was; where T's term did, S_f.
        let (g, _) = fig2_toy();
        let capped = |q, rounds| {
            let cfg = TopKConfig {
                max_expansions: rounds,
                ..TopKConfig::toy()
            };
            TwoSBound::new(RankParams::default(), cfg)
                .run(&g, q)
                .unwrap()
        };
        let (mut f_binds, mut t_binds) = (0, 0);
        for q in g.nodes() {
            let runs: Vec<TopKResult> = (1..=4).map(|r| capped(q, r)).collect();
            let first = runs[0].work;
            assert_eq!((first.f_rounds, first.t_rounds), (1, 1), "{q:?}");
            let mut before = TopKWork::default();
            for pair in runs.windows(2) {
                let (now, next) = (&pair[0], &pair[1]);
                if now.converged {
                    break;
                }
                let (w, n) = (now.work, next.work);
                if w.bound_f > before.bound_f {
                    f_binds += 1;
                    assert_eq!(n.t_rounds, w.t_rounds, "{q:?}");
                    assert_eq!((n.t_absorbed, n.t_sweeps), (w.t_absorbed, w.t_sweeps));
                    assert_eq!(next.active.t_nodes, now.active.t_nodes, "{q:?}");
                    assert_eq!(n.f_rounds, w.f_rounds + 1, "{q:?}");
                }
                if w.bound_t > before.bound_t {
                    t_binds += 1;
                    assert_eq!(n.f_rounds, w.f_rounds, "{q:?}");
                    assert_eq!((n.bca_pushes, n.f_sweeps), (w.bca_pushes, w.f_sweeps));
                    assert_eq!(next.active.f_nodes, now.active.f_nodes, "{q:?}");
                    assert_eq!(n.t_rounds, w.t_rounds + 1, "{q:?}");
                }
                before = w;
            }
        }
        assert!(f_binds > 0 && t_binds > 0, "{f_binds} / {t_binds}");
    }

    #[test]
    fn a_spent_named_side_hands_the_round_to_the_other() {
        // A dangling query's F-Rank mass dies at the query: after one
        // expansion F can tighten no more, so a round that names F moves
        // T instead. T is never spent here (the whole tree leads into the
        // query), so naming T moves T.
        let (g, q) = dangling_sink(64);
        let params = RankParams::default();
        let f = FNeighborhood::new(&g, q, &params, crate::fbound::FBoundMode::TwoStage).unwrap();
        let t = TNeighborhood::new(&g, q, &params, crate::tbound::TBoundMode::TwoStage).unwrap();
        let mut p = Pair {
            weight: 1.0,
            f,
            t,
            moves: None,
            m_f: 4,
        };
        assert_eq!(p.sides(Combine::Product), (true, true));
        p.f.expand(&mut &g, 4).unwrap();
        assert!(p.spent(Side::F) && !p.spent(Side::T));
        p.moves = Some(Side::F);
        assert_eq!(p.sides(Combine::Product), (false, true));
        p.moves = Some(Side::T);
        assert_eq!(p.sides(Combine::Product), (false, true));
        // An inert side never moves, handed the round or not.
        p.moves = Some(Side::F);
        assert_eq!(p.sides(Combine::One(Side::F)), (false, false));
    }

    #[test]
    fn a_lone_f_batch_doubles_from_m_f_every_round() {
        // Round r's batch is m_f·2^(r-1): 100, 200, 400, 800. The query
        // points at 2 000 leaves and each leaf back at it, so round 1's
        // batch finds only the query and every later one a frontier wider
        // than itself: the BCA pushes count each later batch in full.
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let q = b.add_node(ty);
        for _ in 0..2_000 {
            let leaf = b.add_node(ty);
            b.add_edge(q, leaf, 1.0);
            b.add_edge(leaf, q, 1.0);
        }
        let g = b.build();
        let pushes: Vec<usize> = (1..=4)
            .map(|rounds| {
                let cfg = TopKConfig {
                    k: 10,
                    epsilon: 0.0,
                    m_f: 100,
                    max_expansions: rounds,
                    ..TopKConfig::default()
                };
                let result = TwoSBound::for_measure(RankParams::default(), cfg, Measure::F)
                    .unwrap()
                    .run(&g, q)
                    .unwrap();
                assert!(!result.converged);
                assert_eq!(result.work.f_rounds, rounds);
                assert_eq!(result.work.f_sweeps, 0, "lone F skips Stage II");
                result.work.bca_pushes
            })
            .collect();
        assert_eq!(pushes, [1, 1 + 200, 1 + 200 + 400, 1 + 200 + 400 + 800]);
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
