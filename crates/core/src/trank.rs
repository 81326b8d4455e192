//! T-Rank: rank by reachability **to** the query (specificity).
//!
//! `t(q,v) ≜ p(W_L' = q | W_0 = v)` with `L' ~ Geo(α)` (paper Sect. III-B).
//! A node is specific to the query when walks started *at the node* find
//! their way back to the query easily — a focused venue's papers all lead
//! back to the query topic, while a broad venue leaks walks to off-topic
//! regions. Computed by the symmetric iteration of paper Eq. 8 (gather over
//! out-neighbors), one dense vector for all `v` simultaneously.

use crate::error::CoreError;
use crate::iterative::{iterate, Direction};
use crate::params::RankParams;
use crate::query::Query;
use crate::scores::ScoreVec;
use rtr_graph::Graph;

/// Specificity-based proximity: T-Rank (a.k.a. backward random walk /
/// Inverse-ObjectRank-style reachability to the query).
#[derive(Clone, Copy, Debug)]
pub struct TRank {
    params: RankParams,
}

impl TRank {
    /// Create with the given parameters.
    pub fn new(params: RankParams) -> Self {
        TRank { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &RankParams {
        &self.params
    }

    /// Compute `t(q, ·)` for all nodes.
    pub fn compute(&self, g: &Graph, query: &Query) -> Result<ScoreVec, CoreError> {
        Ok(iterate(g, query, &self.params, Direction::Backward)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::NodeId;

    /// Monte-Carlo T-Rank: from each start node, simulate geometric-length
    /// walks and count how often they end exactly at q.
    fn monte_carlo_trank(
        g: &rtr_graph::Graph,
        q: NodeId,
        start: NodeId,
        alpha: f64,
        trips: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut hits = 0usize;
        for _ in 0..trips {
            let mut cur = start;
            loop {
                if rng.gen_bool(alpha) {
                    break;
                }
                let edges: Vec<(NodeId, f64)> = g.out_edges(cur).collect();
                if edges.is_empty() {
                    // Dangling: the walk cannot complete; it never "ends at"
                    // any node under the substochastic convention.
                    cur = NodeId(u32::MAX);
                    break;
                }
                let r: f64 = rng.gen();
                let mut acc = 0.0;
                let mut chosen = edges[edges.len() - 1].0;
                for (dst, p) in &edges {
                    acc += p;
                    if r < acc {
                        chosen = *dst;
                        break;
                    }
                }
                cur = chosen;
            }
            if cur == q {
                hits += 1;
            }
        }
        hits as f64 / trips as f64
    }

    #[test]
    fn iterative_matches_monte_carlo() {
        let (g, ids) = fig2_toy();
        let exact = TRank::new(RankParams::default())
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        for &v in &[ids.v1, ids.v2, ids.v3] {
            let mc = monte_carlo_trank(&g, ids.t1, v, 0.25, 200_000, 13);
            assert!(
                (exact.score(v) - mc).abs() < 0.01,
                "{v:?}: exact {} vs mc {mc}",
                exact.score(v)
            );
        }
    }

    #[test]
    fn trank_favors_focused_venue() {
        let (g, ids) = fig2_toy();
        let t = TRank::new(RankParams::default())
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        // v1 accepts off-topic papers p6, p7 so walks from v1 leak away.
        assert!(t.score(ids.v2) > t.score(ids.v1));
        assert!(t.score(ids.v3) > t.score(ids.v1));
    }

    #[test]
    fn trank_zero_when_query_unreachable() {
        // a -> q exists, but x has no path to q: t(q, x) = 0 while f(q, x)
        // may be positive — the "minor caveat" of paper Sect. III-B.
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let q = b.add_node(ty);
        let a = b.add_node(ty);
        let x = b.add_node(ty);
        b.add_edge(a, q, 1.0);
        b.add_edge(q, x, 1.0); // reachable from q...
        b.add_edge(x, x, 1.0); // ...but x never returns
        let g = b.build();
        let t = TRank::new(RankParams::default())
            .compute(&g, &Query::single(q))
            .unwrap();
        assert!(t.score(a) > 0.0);
        assert_eq!(t.score(x), 0.0);
    }

    #[test]
    fn trank_self_score_includes_teleport_mass() {
        let (g, ids) = fig2_toy();
        let t = TRank::new(RankParams::default())
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        // Zero-length return trip has probability α.
        assert!(t.score(ids.t1) >= 0.25);
    }
}
