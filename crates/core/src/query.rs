//! Query specification: one node or a weighted set of nodes.
//!
//! The paper (Sect. III-A): "More generally, a query can consist of multiple
//! nodes, and the round trip can start from any of them. Similar to the
//! Linearity Theorem for PPR, RoundTripRank for a multi-node query can be
//! equivalently expressed as a linear function of RoundTripRank for each node
//! in the query." The venue-ranking queries of Figs. 6–7 are exactly such
//! multi-term queries ("spatio temporal data" = three term nodes).

use crate::error::CoreError;
use rtr_graph::{Graph, NodeId};

/// A ranking query: one or more graph nodes with normalized weights.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    nodes: Vec<NodeId>,
    weights: Vec<f64>,
}

impl Query {
    /// A single-node query.
    pub fn single(q: NodeId) -> Self {
        Query {
            nodes: vec![q],
            weights: vec![1.0],
        }
    }

    /// A uniform multi-node query (each node weighted `1/|Q|`).
    pub fn uniform(nodes: &[NodeId]) -> Self {
        let w = 1.0 / nodes.len().max(1) as f64;
        Query {
            nodes: nodes.to_vec(),
            weights: vec![w; nodes.len()],
        }
    }

    /// A weighted multi-node query; weights are normalized to sum to 1.
    ///
    /// The normalization total is summed in a canonical (sorted) order, so
    /// two permutations of one pair list normalize to bit-identical
    /// weights — which is what lets [`Query::canonicalize`] map them to
    /// the *same* query (f64 addition is not order-independent; summing in
    /// input order would leave an ulp of permutation residue).
    pub fn weighted(pairs: &[(NodeId, f64)]) -> Result<Self, CoreError> {
        if pairs.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        let total: f64 = {
            let mut ws: Vec<f64> = pairs.iter().map(|&(_, w)| w).collect();
            ws.sort_by(f64::total_cmp);
            ws.iter().sum()
        };
        // NaN weights must be rejected, so test for the valid case and negate.
        let weights_valid = pairs.iter().all(|&(_, w)| w.is_finite() && w >= 0.0);
        if !weights_valid || total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CoreError::BadQueryWeights(
                "weights must be non-negative, finite, and sum to > 0".into(),
            ));
        }
        Ok(Query {
            nodes: pairs.iter().map(|&(n, _)| n).collect(),
            weights: pairs.iter().map(|&(_, w)| w / total).collect(),
        })
    }

    /// Reconstruct a query from pairs whose weights are **already
    /// normalized** (they sum to 1), preserving the weight bits exactly.
    ///
    /// This is the wire-codec constructor: [`Query::weighted`] re-divides
    /// by the pair total, and dividing an already-normalized weight set by
    /// its ~1.0 sum perturbs the low bits — enough to break the serving
    /// layer's bit-identity contract across an encode/decode round trip.
    /// Weights are validated (finite, non-negative, summing to 1 within an
    /// ulp-scale tolerance) but never rescaled.
    pub fn from_normalized(pairs: &[(NodeId, f64)]) -> Result<Self, CoreError> {
        if pairs.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        if !pairs.iter().all(|&(_, w)| w.is_finite() && w >= 0.0) {
            return Err(CoreError::BadQueryWeights(
                "weights must be non-negative and finite".into(),
            ));
        }
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        // Tolerance: canonical weights come from one division per pair, so
        // any legitimate sum sits within a few ulps of 1; 1e-9 is far
        // beyond that while still rejecting un-normalized input.
        if (total - 1.0).abs() > 1e-9 {
            return Err(CoreError::BadQueryWeights(format!(
                "weights must already sum to 1 (got {total})"
            )));
        }
        Ok(Query {
            nodes: pairs.iter().map(|&(n, _)| n).collect(),
            weights: pairs.iter().map(|&(_, w)| w).collect(),
        })
    }

    /// The query nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The normalized weights (same order as [`Self::nodes`], sums to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `(node, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.nodes.iter().copied().zip(self.weights.iter().copied())
    }

    /// Number of query nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the query has no nodes (invalid; constructors prevent this
    /// except `uniform(&[])`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether a node belongs to the query (used by result filtering: "we
    /// filter out the query node itself", paper Sect. VI-A).
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// The canonical form of this query: pairs sorted by node id (weight
    /// bits as tie-break), duplicate nodes merged by summing their weights
    /// in that order.
    ///
    /// Two queries with the same node/weight multiset canonicalize to the
    /// *same* pair sequence, so computing the canonical form is the same
    /// computation bit for bit — which is what lets a result cache treat
    /// order-permuted multi-node queries as one entry. The serving layer
    /// canonicalizes every request at construction; weights are **not**
    /// re-normalized (they already sum to 1, and dividing by ~1.0 would
    /// perturb the bits).
    pub fn canonicalize(&self) -> Query {
        let mut pairs: Vec<(NodeId, f64)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut nodes: Vec<NodeId> = Vec::with_capacity(pairs.len());
        let mut weights: Vec<f64> = Vec::with_capacity(pairs.len());
        for (n, w) in pairs {
            if nodes.last() == Some(&n) {
                // invariant: nodes and weights are pushed in lockstep, so
                // a non-empty nodes means a non-empty weights.
                *weights.last_mut().expect("nodes and weights align") += w;
            } else {
                nodes.push(n);
                weights.push(w);
            }
        }
        Query { nodes, weights }
    }

    /// Validate the query against a graph.
    pub fn validate(&self, g: &Graph) -> Result<(), CoreError> {
        if self.nodes.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        for &n in &self.nodes {
            if n.index() >= g.node_count() {
                return Err(CoreError::NodeOutOfRange {
                    node: n,
                    node_count: g.node_count(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn canonicalize_sorts_and_merges() {
        let q = Query::weighted(&[(NodeId(5), 1.0), (NodeId(2), 2.0), (NodeId(5), 1.0)]).unwrap();
        let c = q.canonicalize();
        assert_eq!(c.nodes(), &[NodeId(2), NodeId(5)]);
        assert!((c.weights()[0] - 0.5).abs() < 1e-12);
        assert!((c.weights()[1] - 0.5).abs() < 1e-12);
        // Weight mass is preserved exactly, not re-normalized.
        assert_eq!(c.weights().iter().sum::<f64>(), q.weights().iter().sum());
    }

    #[test]
    fn single_query() {
        let q = Query::single(NodeId(3));
        assert_eq!(q.len(), 1);
        assert_eq!(q.weights(), &[1.0]);
        assert!(q.contains(NodeId(3)));
        assert!(!q.contains(NodeId(4)));
    }

    #[test]
    fn uniform_query_weights() {
        let q = Query::uniform(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(q.len(), 3);
        for &w in q.weights() {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_query_normalizes() {
        let q = Query::weighted(&[(NodeId(0), 2.0), (NodeId(1), 6.0)]).unwrap();
        assert!((q.weights()[0] - 0.25).abs() < 1e-12);
        assert!((q.weights()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn weighted_rejects_bad_weights() {
        assert!(Query::weighted(&[]).is_err());
        assert!(Query::weighted(&[(NodeId(0), -1.0)]).is_err());
        assert!(Query::weighted(&[(NodeId(0), 0.0)]).is_err());
        assert!(Query::weighted(&[(NodeId(0), f64::NAN)]).is_err());
    }

    #[test]
    fn from_normalized_preserves_weight_bits() {
        let q = Query::weighted(&[(NodeId(1), 1.0), (NodeId(2), 1.0), (NodeId(3), 1.0)]).unwrap();
        let pairs: Vec<(NodeId, f64)> = q.iter().collect();
        let back = Query::from_normalized(&pairs).unwrap();
        assert_eq!(back, q, "round trip is bit-exact, no re-normalization");
        // Query::weighted would perturb the bits: 3×(1/3) sums to
        // 0.999…; from_normalized must not divide by that.
        assert_eq!(back.weights(), q.weights());
    }

    #[test]
    fn from_normalized_rejects_bad_weights() {
        assert!(Query::from_normalized(&[]).is_err());
        assert!(Query::from_normalized(&[(NodeId(0), 0.4)]).is_err());
        assert!(Query::from_normalized(&[(NodeId(0), f64::NAN)]).is_err());
        assert!(Query::from_normalized(&[(NodeId(0), -0.5), (NodeId(1), 1.5)]).is_err());
        assert!(Query::from_normalized(&[(NodeId(0), 1.0)]).is_ok());
    }

    #[test]
    fn validate_against_graph() {
        let (g, ids) = fig2_toy();
        assert!(Query::single(ids.t1).validate(&g).is_ok());
        let bad = Query::single(NodeId(999));
        assert!(matches!(
            bad.validate(&g),
            Err(CoreError::NodeOutOfRange { .. })
        ));
        assert_eq!(Query::uniform(&[]).validate(&g), Err(CoreError::EmptyQuery));
    }
}
