//! SimRank [Jeh & Widom 2002] — structural-context similarity, used as a
//! mono-sensed "closeness" baseline (paper Fig. 5, C = 0.85 "as recommended,
//! which we find robust").
//!
//! Two computation paths:
//!
//! * [`SimRank::compute_exact_matrix`] — the classic all-pairs iteration
//!   `s(a,b) = C/(|I(a)||I(b)|) Σ_{i,j} s(I_i(a), I_j(b))`, `O(n²·d²)` per
//!   iteration. The paper itself notes SimRank is "very expensive to compute
//!   exactly on the full graphs" and evaluates on subgraphs; we additionally
//!   cap the exact path at tiny graphs and use it to validate the estimator.
//! * Monte-Carlo single-source estimation (the default [`ProximityMeasure`]
//!   path): `s(a,b) = E[C^τ]` where `τ` is the first meeting time of two
//!   coupled reverse random walks [Fogaras & Rácz 2005]. `R` walk pairs of
//!   length `T` give all-node scores in `O(n·R·T)`.

use crate::measure::{per_node_linear, ProximityMeasure};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::{CoreError, Query, ScoreVec};
use rtr_graph::{Graph, NodeId};

/// SimRank with decay `C`, Monte-Carlo estimated.
#[derive(Clone, Copy, Debug)]
pub struct SimRank {
    /// Decay constant C (paper uses 0.85).
    pub c: f64,
    /// Number of sampled reverse-walk pairs per node.
    pub walks: usize,
    /// Walk truncation length.
    pub horizon: usize,
    /// RNG seed (the estimator is deterministic given the seed).
    pub seed: u64,
}

impl SimRank {
    /// The paper's setting: C = 0.85.
    pub fn new(seed: u64) -> Self {
        SimRank {
            c: 0.85,
            walks: 150,
            horizon: 8,
            seed,
        }
    }

    /// Exact all-pairs SimRank for validation on tiny graphs.
    ///
    /// Returns the full `n × n` matrix after `iterations` rounds. Reverse
    /// walks step to a uniformly random in-neighbor (the classic unweighted
    /// formulation).
    pub fn compute_exact_matrix(&self, g: &Graph, iterations: usize) -> Vec<Vec<f64>> {
        let n = g.node_count();
        assert!(n <= 2_000, "exact SimRank is for tiny graphs only");
        let mut cur = vec![vec![0.0f64; n]; n];
        for (i, row) in cur.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        let ins: Vec<Vec<NodeId>> = g.nodes().map(|v| g.in_neighbors(v).collect()).collect();
        for _ in 0..iterations {
            let mut next = vec![vec![0.0f64; n]; n];
            // Symmetric triangular update writes next[a][b] and next[b][a].
            #[allow(clippy::needless_range_loop)]
            for a in 0..n {
                next[a][a] = 1.0;
                for b in (a + 1)..n {
                    let (ia, ib) = (&ins[a], &ins[b]);
                    if ia.is_empty() || ib.is_empty() {
                        continue;
                    }
                    let mut acc = 0.0;
                    for &x in ia {
                        for &y in ib {
                            acc += cur[x.index()][y.index()];
                        }
                    }
                    let s = self.c * acc / (ia.len() * ib.len()) as f64;
                    next[a][b] = s;
                    next[b][a] = s;
                }
            }
            cur = next;
        }
        cur
    }

    /// Reverse-walk position table: `walks × (horizon+1)` positions starting
    /// at `start`, stepping to uniform in-neighbors (`None` once stuck).
    fn sample_walks(
        &self,
        g: &Graph,
        start: NodeId,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Vec<Option<NodeId>>> {
        (0..self.walks)
            .map(|_| {
                let mut pos = Some(start);
                let mut track = Vec::with_capacity(self.horizon + 1);
                track.push(pos);
                for _ in 0..self.horizon {
                    pos = pos.and_then(|p| match g.in_degree(p) {
                        0 => None,
                        d => g.in_neighbors(p).nth(rng.gen_range(0..d)),
                    });
                    track.push(pos);
                }
                track
            })
            .collect()
    }

    fn compute_single(&self, g: &Graph, q: NodeId) -> ScoreVec {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (q.0 as u64) << 20);
        let q_walks = self.sample_walks(g, q, &mut rng);
        let mut scores = ScoreVec::zeros(g.node_count());
        // Reverse walks of length `horizon` can only meet if the two nodes
        // are within 2·horizon undirected hops; everything farther scores 0
        // exactly, so restrict the candidate set (large-graph optimization).
        let candidates = rtr_graph::view::khop_neighborhood(g, &[q], 2 * self.horizon);
        for v in candidates {
            if v == q {
                *scores.score_mut(v) = 1.0;
                continue;
            }
            let v_walks = self.sample_walks(g, v, &mut rng);
            let mut acc = 0.0;
            for (qw, vw) in q_walks.iter().zip(&v_walks) {
                // First same-step meeting of the coupled reverse walks.
                for step in 1..=self.horizon {
                    match (qw[step], vw[step]) {
                        (Some(a), Some(b)) if a == b => {
                            acc += self.c.powi(step as i32);
                            break;
                        }
                        (None, _) | (_, None) => break,
                        _ => {}
                    }
                }
            }
            *scores.score_mut(v) = acc / self.walks as f64;
        }
        scores
    }
}

impl ProximityMeasure for SimRank {
    fn name(&self) -> String {
        "SimRank".into()
    }

    fn compute(&self, g: &Graph, query: &Query) -> Result<ScoreVec, CoreError> {
        per_node_linear(g, query, |g, n| Ok(self.compute_single(g, n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn exact_matrix_properties() {
        let (g, _) = fig2_toy();
        let sr = SimRank::new(0);
        let m = sr.compute_exact_matrix(&g, 8);
        let n = g.node_count();
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0, "s(a,a) must be 1");
            for j in 0..n {
                assert!((0.0..=1.0 + 1e-12).contains(&row[j]));
                assert!((row[j] - m[j][i]).abs() < 1e-12, "symmetry");
            }
        }
    }

    #[test]
    fn exact_toy_structure() {
        // Papers attached to the same venue+term are more SimRank-similar
        // than papers attached to different venues.
        let (g, ids) = fig2_toy();
        let m = SimRank::new(0).compute_exact_matrix(&g, 10);
        let s_same = m[ids.p[2].index()][ids.p[3].index()]; // p3, p4 share t1 AND v2
        let s_diff = m[ids.p[2].index()][ids.p[4].index()]; // p3, p5 share only t1
        assert!(s_same > s_diff, "{s_same} <= {s_diff}");
    }

    #[test]
    fn monte_carlo_tracks_exact() {
        let (g, ids) = fig2_toy();
        let sr = SimRank {
            walks: 3_000,
            ..SimRank::new(11)
        };
        let exact = sr.compute_exact_matrix(&g, 12);
        let est = sr.compute(&g, &Query::single(ids.t1)).unwrap();
        for v in g.nodes() {
            let want = exact[ids.t1.index()][v.index()];
            let got = est.score(v);
            assert!((want - got).abs() < 0.08, "{v:?}: exact {want} vs MC {got}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (g, ids) = fig2_toy();
        let a = SimRank::new(5).compute(&g, &Query::single(ids.t1)).unwrap();
        let b = SimRank::new(5).compute(&g, &Query::single(ids.t1)).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn self_similarity_is_one() {
        let (g, ids) = fig2_toy();
        let s = SimRank::new(1).compute(&g, &Query::single(ids.v1)).unwrap();
        assert_eq!(s.score(ids.v1), 1.0);
    }

    #[test]
    #[should_panic(expected = "tiny graphs")]
    fn exact_refuses_large_graphs() {
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<_> = (0..2_001).map(|_| b.add_node(ty)).collect();
        b.add_edge(nodes[0], nodes[1], 1.0);
        SimRank::new(0).compute_exact_matrix(&b.build(), 1);
    }
}
