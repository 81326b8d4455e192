//! Dense score vectors and ranking utilities.

use rtr_graph::{Graph, NodeId, NodeTypeId};
use serde::{Deserialize, Serialize};

/// A dense per-node score vector produced by a proximity measure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoreVec {
    values: Vec<f64>,
}

impl ScoreVec {
    /// All-zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        ScoreVec {
            values: vec![0.0; n],
        }
    }

    /// Wrap an existing vector.
    pub fn from_vec(values: Vec<f64>) -> Self {
        ScoreVec { values }
    }

    /// Length (graph node count).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Score of a node.
    #[inline]
    pub fn score(&self, v: NodeId) -> f64 {
        self.values[v.index()]
    }

    /// Mutable score of a node.
    #[inline]
    pub fn score_mut(&mut self, v: NodeId) -> &mut f64 {
        &mut self.values[v.index()]
    }

    /// Raw slice access.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Sum of all scores (for probability vectors this is ≤ 1 on
    /// substochastic graphs, = 1 on irreducible ones).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Element-wise product — the basic computational model of
    /// RoundTripRank: `r ∝ f ⊙ t` (paper Eq. 7).
    pub fn hadamard(&self, other: &ScoreVec) -> ScoreVec {
        assert_eq!(self.len(), other.len(), "score length mismatch");
        ScoreVec {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Weighted geometric combination `self^(1-β) ⊙ other^β`
    /// (RoundTripRank+, paper Eq. 12).
    pub fn geometric_blend(&self, other: &ScoreVec, beta: f64) -> ScoreVec {
        assert_eq!(self.len(), other.len(), "score length mismatch");
        ScoreVec {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| a.powf(1.0 - beta) * b.powf(beta))
                .collect(),
        }
    }

    /// Linear combination `w1·self + w2·other` (multi-node queries;
    /// arithmetic-mean baseline).
    pub fn linear_blend(&self, other: &ScoreVec, w1: f64, w2: f64) -> ScoreVec {
        assert_eq!(self.len(), other.len(), "score length mismatch");
        ScoreVec {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| w1 * a + w2 * b)
                .collect(),
        }
    }

    /// Add `w · other` into `self` in place.
    pub fn accumulate(&mut self, other: &ScoreVec, w: f64) {
        assert_eq!(self.len(), other.len(), "score length mismatch");
        for (a, &b) in self.values.iter_mut().zip(&other.values) {
            *a += w * b;
        }
    }

    /// Full ranking: node ids sorted by descending score, ties broken by
    /// ascending node id for determinism.
    pub fn ranking(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..self.values.len() as u32).map(NodeId).collect();
        ids.sort_by(|&a, &b| {
            self.values[b.index()]
                .partial_cmp(&self.values[a.index()])
                // invariant: scores are sums/products of finite inputs
                // (validated at query parse time) — never NaN.
                .expect("NaN score")
                .then(a.cmp(&b))
        });
        ids
    }

    /// Top-k node ids by descending score (deterministic tie-break).
    pub fn top_k(&self, k: usize) -> Vec<NodeId> {
        let mut ranking = self.ranking();
        ranking.truncate(k);
        ranking
    }

    /// Ranking restricted to nodes of a given type, excluding a set of
    /// excluded nodes (the paper's evaluation filters: "we filter out the
    /// query node itself and nodes not of the target type", Sect. VI-A).
    pub fn filtered_ranking(
        &self,
        g: &Graph,
        target_type: NodeTypeId,
        exclude: &[NodeId],
    ) -> Vec<NodeId> {
        self.ranking()
            .into_iter()
            .filter(|&v| g.node_type(v) == target_type && !exclude.contains(&v))
            .collect()
    }

    /// L∞ distance to another score vector (convergence checks in tests).
    pub fn linf_distance(&self, other: &ScoreVec) -> f64 {
        assert_eq!(self.len(), other.len(), "score length mismatch");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` if the two vectors induce the same ranking over all nodes.
    pub fn rank_equivalent(&self, other: &ScoreVec) -> bool {
        self.ranking() == other.ranking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn ranking_descending_deterministic() {
        let s = ScoreVec::from_vec(vec![0.1, 0.5, 0.5, 0.0]);
        let r = s.ranking();
        assert_eq!(r, vec![NodeId(1), NodeId(2), NodeId(0), NodeId(3)]);
        assert_eq!(s.top_k(2), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn hadamard_is_elementwise_product() {
        let a = ScoreVec::from_vec(vec![0.5, 2.0]);
        let b = ScoreVec::from_vec(vec![4.0, 0.25]);
        assert_eq!(a.hadamard(&b).as_slice(), &[2.0, 0.5]);
    }

    #[test]
    fn geometric_blend_special_cases() {
        let a = ScoreVec::from_vec(vec![0.5, 2.0, 1.0]);
        let b = ScoreVec::from_vec(vec![4.0, 0.25, 1.0]);
        assert_eq!(a.geometric_blend(&b, 0.0).as_slice(), a.as_slice());
        assert_eq!(a.geometric_blend(&b, 1.0).as_slice(), b.as_slice());
        // β = 0.5 is the geometric mean, rank-equivalent to hadamard.
        let g = a.geometric_blend(&b, 0.5);
        let h = a.hadamard(&b);
        assert!(g.rank_equivalent(&h));
    }

    #[test]
    fn linear_blend_and_accumulate_agree() {
        let a = ScoreVec::from_vec(vec![1.0, 2.0]);
        let b = ScoreVec::from_vec(vec![3.0, 5.0]);
        let blended = a.linear_blend(&b, 0.25, 0.75);
        let mut acc = ScoreVec::zeros(2);
        acc.accumulate(&a, 0.25);
        acc.accumulate(&b, 0.75);
        assert!(blended.linf_distance(&acc) < 1e-15);
    }

    #[test]
    fn filtered_ranking_respects_type_and_exclusion() {
        let (g, ids) = fig2_toy();
        let mut s = ScoreVec::zeros(g.node_count());
        *s.score_mut(ids.v1) = 0.3;
        *s.score_mut(ids.v2) = 0.9;
        *s.score_mut(ids.v3) = 0.5;
        *s.score_mut(ids.p[0]) = 1.0; // highest, but wrong type
        let venue_ty = g.types().get("venue").unwrap();
        let r = s.filtered_ranking(&g, venue_ty, &[ids.v3]);
        assert_eq!(r, vec![ids.v2, ids.v1]);
    }

    #[test]
    fn linf_distance() {
        let a = ScoreVec::from_vec(vec![0.0, 1.0]);
        let b = ScoreVec::from_vec(vec![0.5, 0.75]);
        assert!((a.linf_distance(&b) - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hadamard_length_mismatch_panics() {
        let a = ScoreVec::zeros(2);
        let b = ScoreVec::zeros(3);
        let _ = a.hadamard(&b);
    }
}
