//! RoundTripRank: importance and specificity in one round trip.
//!
//! Definition (paper Def. 2): given that a surfer starting at `q` completes a
//! round trip of `L + L'` steps (`W_0 = W_{L+L'} = q`), RoundTripRank of `v`
//! is the probability that the round trip's *target* (the node after the
//! first `L` steps) is `v`.
//!
//! By Prop. 2 the exponential space of round trips decomposes into two
//! independently computable units with rank equivalence:
//!
//! ```text
//! r(q,v) ∝ f(q,v) · t(q,v)
//! ```
//!
//! This module computes exactly that product; the exponential enumeration is
//! only ever materialized by [`crate::enumerate`] on toy graphs to validate
//! the decomposition.

use crate::error::CoreError;
use crate::frank::FRank;
use crate::params::RankParams;
use crate::query::Query;
use crate::scores::ScoreVec;
use crate::trank::TRank;
use rtr_graph::Graph;

/// The dual-sensed RoundTripRank measure.
#[derive(Clone, Copy, Debug)]
pub struct RoundTripRank {
    params: RankParams,
}

/// The three score vectors of one RoundTripRank evaluation; exposing `f` and
/// `t` lets callers reuse them (the evaluation harness feeds the same `f,t`
/// into the mean-combination baselines).
#[derive(Clone, Debug)]
pub struct RtrParts {
    /// F-Rank `f(q,·)` (importance).
    pub f: ScoreVec,
    /// T-Rank `t(q,·)` (specificity).
    pub t: ScoreVec,
    /// RoundTripRank `r(q,·) ∝ f ⊙ t`.
    pub r: ScoreVec,
}

impl RoundTripRank {
    /// Create with the given parameters.
    pub fn new(params: RankParams) -> Self {
        RoundTripRank { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &RankParams {
        &self.params
    }

    /// Compute `r(q, ·)` for all nodes.
    pub fn compute(&self, g: &Graph, query: &Query) -> Result<ScoreVec, CoreError> {
        Ok(self.compute_parts(g, query)?.r)
    }

    /// Compute `r` along with the `f` and `t` factors.
    ///
    /// For a multi-node query, the paper reduces RoundTripRank to a linear
    /// function of single-node RoundTripRank (Sect. III-A); accordingly we
    /// return `r = Σ_q w_q · f(q,·) ⊙ t(q,·)` and the query-weighted `f`, `t`
    /// (whose product equals `r` exactly in the single-node case).
    pub fn compute_parts(&self, g: &Graph, query: &Query) -> Result<RtrParts, CoreError> {
        query.validate(g)?;
        let frank = FRank::new(self.params);
        let trank = TRank::new(self.params);
        if query.len() == 1 {
            let f = frank.compute(g, query)?;
            let t = trank.compute(g, query)?;
            let r = f.hadamard(&t);
            return Ok(RtrParts { f, t, r });
        }
        let n = g.node_count();
        let mut f_acc = ScoreVec::zeros(n);
        let mut t_acc = ScoreVec::zeros(n);
        let mut r_acc = ScoreVec::zeros(n);
        for (node, w) in query.iter() {
            let single = Query::single(node);
            let f = frank.compute(g, &single)?;
            let t = trank.compute(g, &single)?;
            r_acc.accumulate(&f.hadamard(&t), w);
            f_acc.accumulate(&f, w);
            t_acc.accumulate(&t, w);
        }
        Ok(RtrParts {
            f: f_acc,
            t: t_acc,
            r: r_acc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn toy_ordering_matches_paper_analysis() {
        // Paper Sect. III-A: v2 beats both v1 (more specific) and v3 (more
        // important); t1 itself has the largest score (self-proximity).
        let (g, ids) = fig2_toy();
        let r = RoundTripRank::new(RankParams::default())
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        assert!(r.score(ids.v2) > r.score(ids.v1));
        assert!(r.score(ids.v2) > r.score(ids.v3));
        let top = r.top_k(1);
        assert_eq!(top[0], ids.t1, "self-proximity should rank first");
    }

    #[test]
    fn rtr_is_product_of_parts() {
        let (g, ids) = fig2_toy();
        let parts = RoundTripRank::new(RankParams::default())
            .compute_parts(&g, &Query::single(ids.t1))
            .unwrap();
        let prod = parts.f.hadamard(&parts.t);
        assert!(parts.r.linf_distance(&prod) < 1e-15);
    }

    #[test]
    fn multi_node_is_linear_in_single_node_rtr() {
        let (g, ids) = fig2_toy();
        let measure = RoundTripRank::new(RankParams::default());
        let r1 = measure.compute(&g, &Query::single(ids.t1)).unwrap();
        let r2 = measure.compute(&g, &Query::single(ids.t2)).unwrap();
        let rq = measure
            .compute(&g, &Query::uniform(&[ids.t1, ids.t2]))
            .unwrap();
        let expected = r1.linear_blend(&r2, 0.5, 0.5);
        assert!(rq.linf_distance(&expected) < 1e-12);
    }

    #[test]
    fn weighted_multi_node_respects_weights() {
        let (g, ids) = fig2_toy();
        let measure = RoundTripRank::new(RankParams::default());
        let r1 = measure.compute(&g, &Query::single(ids.t1)).unwrap();
        let r2 = measure.compute(&g, &Query::single(ids.t2)).unwrap();
        let q = Query::weighted(&[(ids.t1, 3.0), (ids.t2, 1.0)]).unwrap();
        let rq = measure.compute(&g, &q).unwrap();
        let expected = r1.linear_blend(&r2, 0.75, 0.25);
        assert!(rq.linf_distance(&expected) < 1e-12);
    }

    #[test]
    fn zero_trank_zeroes_rtr() {
        // The "minor caveat": unreachable-back nodes get r = 0.
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let q = b.add_node(ty);
        let x = b.add_node(ty);
        b.add_edge(q, x, 1.0);
        b.add_edge(x, x, 1.0);
        let g = b.build();
        let parts = RoundTripRank::new(RankParams::default())
            .compute_parts(&g, &Query::single(q))
            .unwrap();
        assert!(parts.f.score(x) > 0.0);
        assert_eq!(parts.t.score(x), 0.0);
        assert_eq!(parts.r.score(x), 0.0);
    }
}
