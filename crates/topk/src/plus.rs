//! 2SBound for RoundTripRank+ — the extension the paper declares
//! straightforward (Sect. V: "Our discussion only covers RoundTripRank, but
//! extending to RoundTripRank+ is straightforward") and leaves to the
//! reader; here it is.
//!
//! The only change from the base algorithm is the combination of the f- and
//! t-bounds. Since `x ↦ x^c` is monotone for `c ≥ 0` and all scores are
//! non-negative, the product bounds of Eq. 15 generalize to
//!
//! ```text
//! ř_β(q,v) = f̌(q,v)^(1-β) · ť(q,v)^β
//! r̂_β(q,v) = f̂(q,v)^(1-β) · t̂(q,v)^β
//! ```
//!
//! and the unseen bound of Eq. 16 generalizes the same way. At β = 0.5 the
//! ranking (and the stopping behaviour up to the monotone square root)
//! coincides with the base 2SBound.

use crate::active_set::ActiveSetStats;
use crate::bounds::Bounds;
use crate::config::TopKConfig;
use crate::fbound::FNeighborhood;
use crate::schemes::Scheme;
use crate::tbound::TNeighborhood;
use crate::two_sbound::{rank_members, top_k_decided, TopKResult};
use crate::workspace::TopKWorkspace;
use rtr_core::{CoreError, RankParams};
use rtr_graph::{AdjacencyAccess, AdjacencyError, Graph, NodeId};

/// Online top-K for RoundTripRank+ with specificity bias β.
#[derive(Clone, Copy, Debug)]
pub struct TwoSBoundPlus {
    params: RankParams,
    config: TopKConfig,
    scheme: Scheme,
    beta: f64,
}

impl TwoSBoundPlus {
    /// Create for a given β ∈ [0, 1] (the paper's full scheme).
    pub fn new(params: RankParams, config: TopKConfig, beta: f64) -> Result<Self, CoreError> {
        Self::with_scheme(params, config, Scheme::TwoSBound, beta)
    }

    /// Create with an explicit computational scheme (the Fig. 11a
    /// ablations, generalized to β exponents exactly like the bounds).
    pub fn with_scheme(
        params: RankParams,
        config: TopKConfig,
        scheme: Scheme,
        beta: f64,
    ) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&beta) || beta.is_nan() {
            return Err(CoreError::InvalidBeta(beta));
        }
        Ok(TwoSBoundPlus {
            params,
            config,
            scheme,
            beta,
        })
    }

    /// The specificity bias in use.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The configuration in use.
    pub fn config(&self) -> &TopKConfig {
        &self.config
    }

    #[inline]
    fn blend(&self, f: &Bounds, t: &Bounds) -> Bounds {
        let (a, b) = (1.0 - self.beta, self.beta);
        Bounds {
            lower: f.lower.powf(a) * t.lower.powf(b),
            upper: f.upper.powf(a) * t.upper.powf(b),
        }
    }

    /// Run the β-weighted top-K search for query node `q`, allocating
    /// fresh per-query state. Serving paths use
    /// [`TwoSBoundPlus::run_with`] instead.
    pub fn run(&self, g: &Graph, q: NodeId) -> Result<TopKResult, CoreError> {
        self.run_with(g, q, &mut TopKWorkspace::default())
    }

    /// Run the β-weighted top-K search for query node `q` reusing `ws`'s
    /// buffers. Results are bit-identical to [`TwoSBoundPlus::run`]; the
    /// sparse maps and scratch vectors survive between queries, mirroring
    /// [`crate::TwoSBound::run_with`].
    pub fn run_with(
        &self,
        g: &Graph,
        q: NodeId,
        ws: &mut TopKWorkspace,
    ) -> Result<TopKResult, CoreError> {
        let mut a = g;
        self.run_on(&mut a, q, ws)
    }

    /// Run the β-weighted top-K search over any [`AdjacencyAccess`] source —
    /// the single implementation behind both the local and the distributed
    /// executors, mirroring [`crate::TwoSBound::run_on`]. A mid-run
    /// adjacency failure restores `ws`'s buffers before returning the error.
    pub fn run_on<A: AdjacencyAccess>(
        &self,
        a: &mut A,
        q: NodeId,
        ws: &mut TopKWorkspace,
    ) -> Result<TopKResult, CoreError> {
        let cfg = &self.config;
        // Validate before borrowing any workspace buffer: a rejected query
        // must not cost the worker its buffers.
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
        let refine_tol = cfg.refine_tolerance.max(cfg.epsilon * 1e-2);
        let result = self.search(a, &mut f, &mut t, ws, k, refine_tol);
        ws.f = f.into_workspace();
        ws.t = t.into_workspace();
        result.map_err(CoreError::from)
    }

    /// The expansion / refinement / stopping loop, factored out so
    /// [`TwoSBoundPlus::run_on`] has a single workspace-restore point
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
        let (wa, wb) = (1.0 - self.beta, self.beta);
        let members = &mut ws.members;
        let mut expansions = 0usize;
        loop {
            expansions += 1;
            f.expand(&mut *a, cfg.m_f)?;
            f.refine(&*a, refine_tol, cfg.refine_max_sweeps);
            t.expand(&mut *a, cfg.m_t)?;
            t.refine(&*a, refine_tol, cfg.refine_max_sweeps);

            members.clear();
            members.extend(
                f.seen()
                    .filter_map(|(v, fb)| t.bounds(v).map(|tb| (v, self.blend(&fb, &tb)))),
            );
            rank_members(members);

            // Eq. 16 with β exponents.
            let f_unseen = f.unseen_upper();
            let t_unseen = t.unseen_upper();
            let mut r_unseen = f_unseen.powf(wa) * t_unseen.powf(wb);
            for (v, fb) in f.seen() {
                if !t.contains(v) {
                    r_unseen = r_unseen.max(fb.upper.powf(wa) * t_unseen.powf(wb));
                }
            }
            for (v, tb) in t.seen() {
                if !f.contains(v) {
                    r_unseen = r_unseen.max(f_unseen.powf(wa) * tb.upper.powf(wb));
                }
            }

            let done = top_k_decided(members, k, cfg.epsilon, r_unseen);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::prelude::*;
    use rtr_graph::toy::fig2_toy;

    fn exact_plus(g: &Graph, q: NodeId, beta: f64) -> ScoreVec {
        RoundTripRankPlus::new(RankParams::default(), beta)
            .unwrap()
            .compute(g, &Query::single(q))
            .unwrap()
    }

    fn toy_cfg(k: usize) -> TopKConfig {
        TopKConfig {
            k,
            epsilon: 0.0,
            m_f: 4,
            m_t: 2,
            max_expansions: 2_000,
            ..TopKConfig::default()
        }
    }

    #[test]
    fn rejects_invalid_beta() {
        let p = RankParams::default();
        assert!(TwoSBoundPlus::new(p, toy_cfg(3), -0.1).is_err());
        assert!(TwoSBoundPlus::new(p, toy_cfg(3), 1.5).is_err());
        assert!(TwoSBoundPlus::new(p, toy_cfg(3), f64::NAN).is_err());
    }

    #[test]
    fn matches_exact_rtr_plus_across_betas() {
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        for beta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let exact = exact_plus(&g, ids.t1, beta);
            let result = TwoSBoundPlus::new(params, toy_cfg(4), beta)
                .unwrap()
                .run(&g, ids.t1)
                .unwrap();
            let want = exact.top_k(result.ranking.len());
            for (got, want) in result.ranking.iter().zip(&want) {
                assert!(
                    (exact.score(*got) - exact.score(*want)).abs() < 1e-9,
                    "β={beta}: got {got:?} ({}) want {want:?} ({})",
                    exact.score(*got),
                    exact.score(*want)
                );
            }
        }
    }

    #[test]
    fn bounds_sandwich_exact_scores() {
        let (g, ids) = fig2_toy();
        let beta = 0.3;
        let exact = exact_plus(&g, ids.t1, beta);
        let result = TwoSBoundPlus::new(RankParams::default(), toy_cfg(5), beta)
            .unwrap()
            .run(&g, ids.t1)
            .unwrap();
        for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
            let s = exact.score(*v);
            assert!(
                s >= lo - 1e-9 && s <= hi + 1e-9,
                "{v:?}: {s} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn beta_extremes_change_the_winner_set() {
        // β = 1 (specificity): v3 must appear among venues before v1.
        let (g, ids) = fig2_toy();
        let result = TwoSBoundPlus::new(RankParams::default(), toy_cfg(12), 1.0)
            .unwrap()
            .run(&g, ids.t1)
            .unwrap();
        let pos = |v: NodeId| result.ranking.iter().position(|&x| x == v);
        let (p_v3, p_v1) = (pos(ids.v3), pos(ids.v1));
        if let (Some(a), Some(b)) = (p_v3, p_v1) {
            assert!(a < b, "specificity should favor v3 over v1");
        }
    }

    #[test]
    fn run_with_is_bit_identical_to_run_across_betas() {
        // Workspace reuse must leave no residue: a long-lived workspace fed
        // a β sweep must reproduce the allocating path exactly.
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        let mut ws = crate::workspace::TopKWorkspace::default();
        for beta in [0.0, 0.3, 0.5, 0.8, 1.0] {
            for q in [ids.t1, ids.v1, ids.p[0]] {
                let engine = TwoSBoundPlus::new(params, toy_cfg(4), beta).unwrap();
                let fresh = engine.run(&g, q).unwrap();
                let reused = engine.run_with(&g, q, &mut ws).unwrap();
                assert_eq!(fresh.ranking, reused.ranking, "β={beta} {q:?}");
                assert_eq!(fresh.bounds, reused.bounds, "β={beta} {q:?}");
                assert_eq!(fresh.expansions, reused.expansions);
                assert_eq!(fresh.active, reused.active);
            }
        }
    }

    #[test]
    fn ablation_schemes_agree_on_plus_scores() {
        let (g, ids) = fig2_toy();
        let beta = 0.3;
        let exact = exact_plus(&g, ids.t1, beta);
        let expected: Vec<f64> = exact.top_k(3).iter().map(|&v| exact.score(v)).collect();
        for scheme in Scheme::all() {
            let result =
                TwoSBoundPlus::with_scheme(RankParams::default(), toy_cfg(3), scheme, beta)
                    .unwrap()
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
    fn rejected_query_keeps_workspace_usable() {
        let (g, ids) = fig2_toy();
        let engine = TwoSBoundPlus::new(RankParams::default(), toy_cfg(4), 0.4).unwrap();
        let mut ws = crate::workspace::TopKWorkspace::default();
        let clean = engine.run_with(&g, ids.t1, &mut ws).unwrap();
        assert!(engine.run_with(&g, NodeId(9999), &mut ws).is_err());
        let after = engine.run_with(&g, ids.t1, &mut ws).unwrap();
        assert_eq!(clean.bounds, after.bounds);
    }

    #[test]
    fn dangling_query_converges_at_once() {
        // The RTR+ loop shares the stopping decision: for any β < 1 the
        // F-side exponent is positive, the unseen bound is exactly 0 after
        // the first expansion, and the answer is `[q]`.
        let (g, q) = crate::two_sbound::tests::dangling_sink(20_000);
        for beta in [0.3, 0.45, 0.7] {
            let started = std::time::Instant::now();
            let result = TwoSBoundPlus::new(RankParams::default(), TopKConfig::default(), beta)
                .unwrap()
                .run(&g, q)
                .unwrap();
            let elapsed = started.elapsed();
            assert_eq!(result.ranking, vec![q], "β={beta}");
            assert!(result.converged, "β={beta}");
            assert!(result.expansions <= 3, "β={beta}: {}", result.expansions);
            assert!(elapsed.as_millis() < 50, "β={beta}: took {elapsed:?}");
        }
    }

    #[test]
    fn half_beta_rank_matches_base_two_sbound() {
        use crate::two_sbound::TwoSBound;
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        let base = TwoSBound::new(params, toy_cfg(4)).run(&g, ids.t1).unwrap();
        let plus = TwoSBoundPlus::new(params, toy_cfg(4), 0.5)
            .unwrap()
            .run(&g, ids.t1)
            .unwrap();
        // r_0.5 = sqrt(r): same ranking.
        let exact = exact_plus(&g, ids.t1, 0.5);
        for (a, b) in base.ranking.iter().zip(&plus.ranking) {
            assert!((exact.score(*a) - exact.score(*b)).abs() < 1e-9);
        }
    }
}
