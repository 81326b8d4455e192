//! F-Rank: rank by reachability **from** the query (importance).
//!
//! `f(q,v) ≜ p(W_L = v | W_0 = q)` with `L ~ Geo(α)` (paper Eq. 1). By
//! Prop. 1 (from Fogaras et al.) this equals Personalized PageRank with
//! teleport probability α, so [`FRank`] doubles as the paper's PPR baseline
//! in the effectiveness study (Fig. 5 row "F-Rank/PPR").

use crate::error::CoreError;
use crate::iterative::{iterate, Direction};
use crate::params::RankParams;
use crate::query::Query;
use crate::scores::ScoreVec;
use rtr_graph::Graph;

/// Importance-based proximity: Personalized PageRank / F-Rank.
#[derive(Clone, Copy, Debug)]
pub struct FRank {
    params: RankParams,
}

impl FRank {
    /// Create with the given parameters.
    pub fn new(params: RankParams) -> Self {
        FRank { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &RankParams {
        &self.params
    }

    /// Compute `f(q, ·)` for all nodes.
    pub fn compute(&self, g: &Graph, query: &Query) -> Result<ScoreVec, CoreError> {
        Ok(iterate(g, query, &self.params, Direction::Forward)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::NodeId;

    /// Monte-Carlo PPR: simulate trips with geometric length and count
    /// endpoint frequencies. Validates Prop. 1 (F-Rank ≡ PPR) empirically.
    fn monte_carlo_frank(
        g: &rtr_graph::Graph,
        q: NodeId,
        alpha: f64,
        trips: usize,
        seed: u64,
    ) -> ScoreVec {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut counts = vec![0usize; g.node_count()];
        for _ in 0..trips {
            let mut cur = q;
            // Walk until the geometric coin says stop (p = alpha each step).
            loop {
                if rng.gen_bool(alpha) {
                    break;
                }
                let edges: Vec<(NodeId, f64)> = g.out_edges(cur).collect();
                if edges.is_empty() {
                    break; // dangling: walk dies (substochastic)
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
            counts[cur.index()] += 1;
        }
        ScoreVec::from_vec(
            counts
                .into_iter()
                .map(|c| c as f64 / trips as f64)
                .collect(),
        )
    }

    #[test]
    fn iterative_matches_monte_carlo() {
        let (g, ids) = fig2_toy();
        let exact = FRank::new(RankParams::default())
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        let mc = monte_carlo_frank(&g, ids.t1, 0.25, 200_000, 7);
        // 200k trips give ~2-3 decimal places of accuracy.
        assert!(
            exact.linf_distance(&mc) < 0.01,
            "L∞ = {}",
            exact.linf_distance(&mc)
        );
    }

    #[test]
    fn frank_favors_better_connected_venue() {
        let (g, ids) = fig2_toy();
        let f = FRank::new(RankParams::default())
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        // v1, v2 each have two papers on t1; v3 has one.
        assert!(f.score(ids.v1) > f.score(ids.v3));
        assert!(f.score(ids.v2) > f.score(ids.v3));
        // Multi-hop paths through the off-topic papers p6, p7 feed extra
        // mass back into the hub v1, so importance slightly favors v1 —
        // exactly the popularity effect the paper criticizes F-Rank for.
        assert!(f.score(ids.v1) > f.score(ids.v2));
    }

    #[test]
    fn scores_are_probabilities() {
        let (g, ids) = fig2_toy();
        let f = FRank::new(RankParams::default())
            .compute(&g, &Query::single(ids.t1))
            .unwrap();
        for v in g.nodes() {
            let s = f.score(v);
            assert!((0.0..=1.0).contains(&s), "{v:?}: {s}");
        }
        assert!((f.total() - 1.0).abs() < 1e-6);
    }
}
