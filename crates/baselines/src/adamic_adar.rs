//! AdamicAdar [Adamic & Adar 2003] — a "closeness" baseline with no finer
//! importance/specificity interpretation (paper Sect. II):
//!
//! ```text
//! AA(q,v) = Σ_{z ∈ Γ(q) ∩ Γ(v)}  1 / log |Γ(z)|
//! ```
//!
//! where `Γ(·)` is the undirected neighbor set. Scores all nodes in
//! `O(Σ_{z∈Γ(q)} |Γ(z)|)` by scattering each shared neighbor's weight.
//! Its poor showing on Task 3 in the paper (NDCG ≈ 0) comes from the
//! bipartite click graph: a phrase and a URL never share a neighbor type,
//! which our implementation faithfully reproduces.

use crate::measure::{per_node_linear, ProximityMeasure};
use rtr_core::{CoreError, Query, ScoreVec};
use rtr_graph::Graph;

/// The AdamicAdar common-neighbor measure.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdamicAdar;

impl AdamicAdar {
    /// Create the measure (parameter-free).
    pub fn new() -> Self {
        AdamicAdar
    }

    fn compute_single(g: &Graph, q: rtr_graph::NodeId) -> ScoreVec {
        let mut scores = ScoreVec::zeros(g.node_count());
        for z in g.undirected_neighbors(q) {
            let degree = g.undirected_neighbors(z).count();
            if degree < 2 {
                // log(1) = 0 would divide by zero; a degree-1 neighbor is
                // only connected to q anyway and witnesses nothing.
                continue;
            }
            let w = 1.0 / (degree as f64).ln();
            for v in g.undirected_neighbors(z) {
                if v != q {
                    *scores.score_mut(v) += w;
                }
            }
        }
        scores
    }
}

impl ProximityMeasure for AdamicAdar {
    fn name(&self) -> String {
        "AdamicAdar".into()
    }

    fn compute(&self, g: &Graph, query: &Query) -> Result<ScoreVec, CoreError> {
        per_node_linear(g, query, |g, n| Ok(Self::compute_single(g, n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn shared_neighbor_scores() {
        let (g, ids) = fig2_toy();
        let s = AdamicAdar::new()
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        // t1's neighbors are p1..p5; venues share those papers with t1:
        // v1 shares p1,p2 (deg 2 each): 2/ln2; v2 shares p3,p4: 2/ln2;
        // v3 shares p5: 1/ln2.
        let expected_v1 = 2.0 / 2.0f64.ln();
        assert!((s.score(ids.v1) - expected_v1).abs() < 1e-12);
        assert!((s.score(ids.v2) - expected_v1).abs() < 1e-12);
        assert!((s.score(ids.v3) - 1.0 / 2.0f64.ln()).abs() < 1e-12);
        // t2 shares no neighbors with t1.
        assert_eq!(s.score(ids.t2), 0.0);
    }

    #[test]
    fn no_score_beyond_two_hops() {
        let (g, ids) = fig2_toy();
        let s = AdamicAdar::new()
            .compute(&g, &Query::single(ids.v3))
            .unwrap();
        // v3's only neighbor is p5 (degree 2): witnesses t1.
        assert!(s.score(ids.t1) > 0.0);
        assert_eq!(s.score(ids.v1), 0.0, "3 hops away");
    }

    #[test]
    fn symmetric_on_undirected_graphs() {
        let (g, ids) = fig2_toy();
        let from_v1 = AdamicAdar::new()
            .compute(&g, &Query::single(ids.v1))
            .unwrap();
        let from_v2 = AdamicAdar::new()
            .compute(&g, &Query::single(ids.v2))
            .unwrap();
        assert!((from_v1.score(ids.v2) - from_v2.score(ids.v1)).abs() < 1e-12);
    }

    #[test]
    fn degree_one_witness_ignored() {
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let a = b.add_node(ty);
        let z = b.add_node(ty);
        b.add_undirected_edge(a, z, 1.0);
        let g = b.build();
        let s = AdamicAdar::new().compute(&g, &Query::single(a)).unwrap();
        // z's only neighbor is a; no division by log(1) = 0.
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
    }
}
