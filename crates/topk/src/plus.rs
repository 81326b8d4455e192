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
//! coincides with the base 2SBound. The loop is [`TwoSBound`]'s own, run
//! with `Combine::Power`.

use crate::config::TopKConfig;
use crate::schemes::Scheme;
use crate::two_sbound::TwoSBound;
use rtr_core::{CoreError, Measure, RankParams};

/// Constructors of the online top-K search for RoundTripRank+ with
/// specificity bias β: a [`TwoSBound`] that blends its bounds as
/// `f^(1-β) · t^β`.
#[derive(Clone, Copy, Debug)]
pub struct TwoSBoundPlus;

impl TwoSBoundPlus {
    /// Create for a given β ∈ [0, 1] (the paper's full scheme).
    #[allow(clippy::new_ret_no_self)] // a constructor of the one search loop
    pub fn new(params: RankParams, config: TopKConfig, beta: f64) -> Result<TwoSBound, CoreError> {
        TwoSBound::for_measure(params, config, Measure::RtrPlus { beta })
    }

    /// Create with an explicit computational scheme (the Fig. 11a
    /// ablations, generalized to β exponents exactly like the bounds).
    pub fn with_scheme(
        params: RankParams,
        config: TopKConfig,
        scheme: Scheme,
        beta: f64,
    ) -> Result<TwoSBound, CoreError> {
        let mut search = Self::new(params, config, beta)?;
        search.scheme = scheme;
        Ok(search)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::prelude::*;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::{Graph, NodeId};

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
