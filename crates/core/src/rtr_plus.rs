//! RoundTripRank+: customizable importance/specificity trade-off via hybrid
//! random surfers.
//!
//! The paper's Def. 3 posits a population Ω of surfers in three groups:
//! Ω11 (regular round trips, both senses), Ω10 (shortcut the return leg —
//! importance only), Ω01 (shortcut the outgoing leg — specificity only).
//! Prop. 3 collapses the composition into a single *specificity bias*
//!
//! ```text
//! β = (|Ω11| + |Ω01|) / (|Ω| + |Ω11|)   ∈ [0, 1]
//! r_β(q,v) ∝ f(q,v)^(1-β) · t(q,v)^β       (Eq. 12)
//! ```
//!
//! Special cases: β=0 ≡ F-Rank, β=1 ≡ T-Rank, β=0.5 rank-equivalent to
//! RoundTripRank. The paper's default fallback is β = 0.5.

use crate::error::CoreError;
use crate::iterative::IterationStats;
use crate::params::RankParams;
use crate::query::Query;
use crate::rtr::RoundTripRank;
use crate::scores::ScoreVec;
use rtr_graph::Graph;

/// A concrete composition of hybrid random surfers (paper Sect. IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridSurfers {
    /// Surfers taking regular round trips (balanced).
    pub balanced: usize,
    /// Surfers shortcutting the return leg (importance-seeking, Ω10).
    pub importance: usize,
    /// Surfers shortcutting the outgoing leg (specificity-seeking, Ω01).
    pub specificity: usize,
}

impl HybridSurfers {
    /// The specificity bias β this composition induces (paper Eq. 11–12):
    /// `β = (|Ω11| + |Ω01|) / (|Ω| + |Ω11|)`.
    pub fn beta(&self) -> f64 {
        let total = self.balanced + self.importance + self.specificity;
        assert!(total > 0, "surfer population must be non-empty");
        (self.balanced + self.specificity) as f64 / (total + self.balanced) as f64
    }
}

/// RoundTripRank+ with specificity bias β.
#[derive(Clone, Copy, Debug)]
pub struct RoundTripRankPlus {
    params: RankParams,
    beta: f64,
}

impl RoundTripRankPlus {
    /// Create with explicit β ∈ [0, 1].
    pub fn new(params: RankParams, beta: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&beta) || beta.is_nan() {
            return Err(CoreError::InvalidBeta(beta));
        }
        Ok(RoundTripRankPlus { params, beta })
    }

    /// The paper's default fallback β = 0.5 ("which outperforms the extreme
    /// cases of β = 0 or 1 in our experiments").
    pub fn balanced(params: RankParams) -> Self {
        RoundTripRankPlus { params, beta: 0.5 }
    }

    /// The specificity bias in use.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The parameters in use.
    pub fn params(&self) -> &RankParams {
        &self.params
    }

    /// Compute `r_β(q, ·)` for all nodes.
    ///
    /// Multi-node queries follow the same linear reduction as RoundTripRank:
    /// per-query-node blends combined by query weight.
    pub fn compute(&self, g: &Graph, query: &Query) -> Result<ScoreVec, CoreError> {
        Ok(self.compute_with_stats(g, query)?.0)
    }

    /// Compute `r_β(q, ·)`, also returning the iteration statistics of its
    /// F and T fixed points (`[f, t]`), each summed over the query nodes.
    pub fn compute_with_stats(
        &self,
        g: &Graph,
        query: &Query,
    ) -> Result<(ScoreVec, [IterationStats; 2]), CoreError> {
        query.validate(g)?;
        let rtr = RoundTripRank::new(self.params);
        if query.len() == 1 {
            let (parts, stats) = rtr.parts_with_stats(g, query)?;
            return Ok((parts.f.geometric_blend(&parts.t, self.beta), stats));
        }
        let mut acc = ScoreVec::zeros(g.node_count());
        let mut stats = [IterationStats::NONE; 2];
        for (node, w) in query.iter() {
            let (parts, [f, t]) = rtr.parts_with_stats(g, &Query::single(node))?;
            stats = [stats[0].then(f), stats[1].then(t)];
            acc.accumulate(&parts.f.geometric_blend(&parts.t, self.beta), w);
        }
        Ok((acc, stats))
    }

    /// Compute `r_β` reusing precomputed `f` and `t` vectors (the β-sweep of
    /// Fig. 8 evaluates many β per query; `f`/`t` are computed once).
    pub fn blend(&self, f: &ScoreVec, t: &ScoreVec) -> ScoreVec {
        f.geometric_blend(t, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frank::FRank;
    use crate::trank::TRank;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn beta_zero_rank_matches_frank() {
        let (g, ids) = fig2_toy();
        let q = Query::single(ids.t1);
        let p = RankParams::default();
        let plus = RoundTripRankPlus::new(p, 0.0).unwrap();
        let r0 = plus.compute(&g, &q).unwrap();
        let f = FRank::new(p).compute(&g, &q).unwrap();
        assert!(r0.rank_equivalent(&f), "β=0 must reduce to F-Rank");
    }

    #[test]
    fn beta_one_rank_matches_trank() {
        let (g, ids) = fig2_toy();
        let q = Query::single(ids.t1);
        let p = RankParams::default();
        let plus = RoundTripRankPlus::new(p, 1.0).unwrap();
        let r1 = plus.compute(&g, &q).unwrap();
        let t = TRank::new(p).compute(&g, &q).unwrap();
        assert!(r1.rank_equivalent(&t), "β=1 must reduce to T-Rank");
    }

    #[test]
    fn beta_half_rank_matches_rtr() {
        let (g, ids) = fig2_toy();
        let q = Query::single(ids.t1);
        let p = RankParams::default();
        let half = RoundTripRankPlus::balanced(p).compute(&g, &q).unwrap();
        let rtr = RoundTripRank::new(p).compute(&g, &q).unwrap();
        assert!(half.rank_equivalent(&rtr), "β=0.5 must rank like RTR");
    }

    #[test]
    fn invalid_beta_rejected() {
        let p = RankParams::default();
        assert!(RoundTripRankPlus::new(p, -0.1).is_err());
        assert!(RoundTripRankPlus::new(p, 1.1).is_err());
        assert!(RoundTripRankPlus::new(p, f64::NAN).is_err());
    }

    #[test]
    fn surfer_composition_betas() {
        // Ω = Ω11 only: β = |Ω11| / (|Ω| + |Ω11|) = n / 2n = 0.5.
        let balanced = HybridSurfers {
            balanced: 10,
            importance: 0,
            specificity: 0,
        };
        assert!((balanced.beta() - 0.5).abs() < 1e-12);
        // Ω = Ω10 only: β = 0 (pure importance).
        let imp = HybridSurfers {
            balanced: 0,
            importance: 5,
            specificity: 0,
        };
        assert_eq!(imp.beta(), 0.0);
        // Ω = Ω01 only: β = 1 (pure specificity).
        let spec = HybridSurfers {
            balanced: 0,
            importance: 0,
            specificity: 5,
        };
        assert_eq!(spec.beta(), 1.0);
        // Mixed: 2 balanced, 1 importance, 1 specificity:
        // β = (2+1)/(4+2) = 0.5.
        let mixed = HybridSurfers {
            balanced: 2,
            importance: 1,
            specificity: 1,
        };
        assert!((mixed.beta() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn beta_slides_between_senses() {
        // As β grows, the specific venue v3 must overtake the important v1.
        let (g, ids) = fig2_toy();
        let q = Query::single(ids.t1);
        let p = RankParams::default();
        let f = FRank::new(p).compute(&g, &q).unwrap();
        let t = TRank::new(p).compute(&g, &q).unwrap();
        let low = RoundTripRankPlus::new(p, 0.05).unwrap().blend(&f, &t);
        let high = RoundTripRankPlus::new(p, 0.95).unwrap().blend(&f, &t);
        assert!(low.score(ids.v1) > low.score(ids.v3), "low β favors v1");
        assert!(high.score(ids.v3) > high.score(ids.v1), "high β favors v3");
    }

    #[test]
    fn blend_matches_compute() {
        let (g, ids) = fig2_toy();
        let q = Query::single(ids.t1);
        let p = RankParams::default();
        let plus = RoundTripRankPlus::new(p, 0.3).unwrap();
        let via_compute = plus.compute(&g, &q).unwrap();
        let f = FRank::new(p).compute(&g, &q).unwrap();
        let t = TRank::new(p).compute(&g, &q).unwrap();
        let via_blend = plus.blend(&f, &t);
        assert!(via_compute.linf_distance(&via_blend) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_surfer_population_panics() {
        HybridSurfers {
            balanced: 0,
            importance: 0,
            specificity: 0,
        }
        .beta();
    }
}
