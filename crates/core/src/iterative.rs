//! The exact fixed-point iterations of paper Eq. 5 (F-Rank) and Eq. 8
//! (T-Rank) — the "Naive" computational scheme of the efficiency study
//! (Sect. VI-B): "One simple method applies iterative computation, which is
//! linear in the number of nodes and edges."
//!
//! Each iteration is one `O(|V| + |E|)` pass; convergence is geometric with
//! rate `1-α` on any graph (the iteration map is a contraction in L∞),
//! irreducible or not, so the default tolerance of 1e-10 converges in well
//! under 100 passes at α = 0.25.

use crate::error::CoreError;
use crate::params::RankParams;
use crate::query::Query;
use crate::scores::ScoreVec;
use rtr_graph::Graph;

/// Statistics of an iterative computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final L∞ change between consecutive iterates.
    pub final_residual: f64,
}

/// Which direction the fixed point walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// F-Rank: gather over **in**-neighbors with `M[v'][v]` (paper Eq. 5).
    Forward,
    /// T-Rank: gather over **out**-neighbors with `M[v][v']` (paper Eq. 8).
    Backward,
}

/// Run the fixed-point iteration to convergence.
///
/// The start distribution generalizes the indicator `I(q,v)` of Eq. 5/8 to a
/// weighted multi-node query (Linearity Theorem): `s(v) = w_v` for query
/// nodes, 0 elsewhere.
pub fn iterate(
    g: &Graph,
    query: &Query,
    params: &RankParams,
    direction: Direction,
) -> Result<(ScoreVec, IterationStats), CoreError> {
    params.validate()?;
    query.validate(g)?;

    let n = g.node_count();
    let alpha = params.alpha;
    let (mut start, mut cur, mut next) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for (node, w) in query.iter() {
        start[node.index()] += w;
    }

    let mut stats = IterationStats {
        iterations: 0,
        final_residual: f64::INFINITY,
    };

    for it in 1..=params.max_iterations {
        match direction {
            Direction::Forward => {
                // next[v] = α·s(v) + (1-α) Σ_{v' ∈ In(v)} M[v'][v] · cur[v']
                for v in g.nodes() {
                    let mut acc = 0.0;
                    for (src, prob) in g.in_edges(v) {
                        acc += prob * cur[src.index()];
                    }
                    next[v.index()] = alpha * start[v.index()] + (1.0 - alpha) * acc;
                }
            }
            Direction::Backward => {
                // next[v] = α·s(v) + (1-α) Σ_{v' ∈ Out(v)} M[v][v'] · cur[v']
                for v in g.nodes() {
                    let mut acc = 0.0;
                    for (dst, prob) in g.out_edges(v) {
                        acc += prob * cur[dst.index()];
                    }
                    next[v.index()] = alpha * start[v.index()] + (1.0 - alpha) * acc;
                }
            }
        }
        let residual = cur
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut cur, &mut next);
        stats.iterations = it;
        stats.final_residual = residual;
        if residual < params.tolerance {
            return Ok((ScoreVec::from_vec(cur), stats));
        }
    }
    Err(CoreError::NoConvergence {
        iterations: stats.iterations,
        residual: stats.final_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::{GraphBuilder, NodeId};

    #[test]
    fn frank_converges_on_toy() {
        let (g, ids) = fig2_toy();
        let (f, stats) = iterate(
            &g,
            &Query::single(ids.t1),
            &RankParams::default(),
            Direction::Forward,
        )
        .unwrap();
        assert!(stats.iterations < 200);
        // Probability mass: on a strongly connected graph f sums to 1.
        assert!((f.total() - 1.0).abs() < 1e-6, "total = {}", f.total());
        // The query node itself has at least the teleport mass α.
        assert!(f.score(ids.t1) >= 0.25);
    }

    #[test]
    fn trank_converges_on_toy() {
        let (g, ids) = fig2_toy();
        let (t, _) = iterate(
            &g,
            &Query::single(ids.t1),
            &RankParams::default(),
            Direction::Backward,
        )
        .unwrap();
        // t(q, q) ≥ α (zero-step trip).
        assert!(t.score(ids.t1) >= 0.25);
        // Every node reaches t1 on this connected graph.
        for v in g.nodes() {
            assert!(t.score(v) > 0.0, "{v:?} has zero T-Rank");
        }
    }

    #[test]
    fn frank_importance_ordering_matches_paper() {
        // "from q it is easier to reach v1 or v2 than v3" (Sect. III-A).
        let (g, ids) = fig2_toy();
        let (f, _) = iterate(
            &g,
            &Query::single(ids.t1),
            &RankParams::default(),
            Direction::Forward,
        )
        .unwrap();
        assert!(f.score(ids.v1) > f.score(ids.v3));
        assert!(f.score(ids.v2) > f.score(ids.v3));
    }

    #[test]
    fn trank_specificity_ordering_matches_paper() {
        // "it is more likely to reach t1 from v2 or v3 than from v1".
        let (g, ids) = fig2_toy();
        let (t, _) = iterate(
            &g,
            &Query::single(ids.t1),
            &RankParams::default(),
            Direction::Backward,
        )
        .unwrap();
        assert!(t.score(ids.v2) > t.score(ids.v1));
        assert!(t.score(ids.v3) > t.score(ids.v1));
    }

    #[test]
    fn frank_and_trank_coincide_on_symmetric_graph() {
        // On an undirected (symmetric-weight) regular cycle, reaching v from q
        // and q from v are mirror events, so f and t agree.
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<_> = (0..6).map(|_| b.add_node(ty)).collect();
        for i in 0..6 {
            b.add_undirected_edge(nodes[i], nodes[(i + 1) % 6], 1.0);
        }
        let g = b.build();
        let q = Query::single(nodes[0]);
        let p = RankParams::default();
        let (f, _) = iterate(&g, &q, &p, Direction::Forward).unwrap();
        let (t, _) = iterate(&g, &q, &p, Direction::Backward).unwrap();
        assert!(f.linf_distance(&t) < 1e-8);
    }

    #[test]
    fn dangling_graph_is_substochastic() {
        // a -> b, b dangling: forward mass leaks but iteration still converges.
        let mut b = GraphBuilder::new();
        let ty = b.register_type("n");
        let a = b.add_node(ty);
        let c = b.add_node(ty);
        b.add_edge(a, c, 1.0);
        let g = b.build();
        let (f, _) = iterate(
            &g,
            &Query::single(a),
            &RankParams::default(),
            Direction::Forward,
        )
        .unwrap();
        assert!(f.total() < 1.0);
        assert!(f.score(c) > 0.0);
    }

    #[test]
    fn multi_node_query_is_linear() {
        // Linearity: f(Q, ·) with uniform Q equals the average of per-node f.
        let (g, ids) = fig2_toy();
        let p = RankParams::default();
        let (fa, _) = iterate(&g, &Query::single(ids.t1), &p, Direction::Forward).unwrap();
        let (fb, _) = iterate(&g, &Query::single(ids.t2), &p, Direction::Forward).unwrap();
        let (fq, _) = iterate(
            &g,
            &Query::uniform(&[ids.t1, ids.t2]),
            &p,
            Direction::Forward,
        )
        .unwrap();
        let expected = fa.linear_blend(&fb, 0.5, 0.5);
        assert!(fq.linf_distance(&expected) < 1e-8);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let (g, ids) = fig2_toy();
        let err = iterate(
            &g,
            &Query::single(ids.t1),
            &RankParams::with_alpha(0.0),
            Direction::Forward,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidAlpha(_)));
    }

    #[test]
    fn out_of_range_query_rejected() {
        let (g, _) = fig2_toy();
        let err = iterate(
            &g,
            &Query::single(NodeId(1000)),
            &RankParams::default(),
            Direction::Forward,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NodeOutOfRange { .. }));
    }

    #[test]
    fn no_convergence_with_tiny_cap() {
        let (g, ids) = fig2_toy();
        let params = RankParams {
            max_iterations: 1,
            tolerance: 1e-15,
            ..RankParams::default()
        };
        let err = iterate(&g, &Query::single(ids.t1), &params, Direction::Forward).unwrap_err();
        assert!(matches!(err, CoreError::NoConvergence { .. }));
    }

    #[test]
    fn alpha_sensitivity_is_smooth() {
        // Rankings should be stable for a wide α range (paper: 0.1–0.5).
        let (g, ids) = fig2_toy();
        let mut prev_rank: Option<Vec<NodeId>> = None;
        for &alpha in &[0.1, 0.25, 0.5] {
            let (f, _) = iterate(
                &g,
                &Query::single(ids.t1),
                &RankParams::with_alpha(alpha),
                Direction::Forward,
            )
            .unwrap();
            let venues = vec![
                (ids.v1, f.score(ids.v1)),
                (ids.v2, f.score(ids.v2)),
                (ids.v3, f.score(ids.v3)),
            ];
            let mut order: Vec<NodeId> = {
                let mut vs = venues.clone();
                vs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                vs.into_iter().map(|(v, _)| v).collect()
            };
            // v1 and v2 tie exactly by symmetry; normalize the tie order.
            if order[0] == ids.v2 && order[1] == ids.v1 {
                order.swap(0, 1);
            }
            if let Some(prev) = &prev_rank {
                assert_eq!(prev, &order, "venue order changed at α={alpha}");
            }
            prev_rank = Some(order);
        }
    }
}
