//! The result-cache key: everything that determines a served answer.
//!
//! A cached ranking may be served in place of a fresh engine run only when
//! *every* input that could change the output matches: the query (single
//! node or weighted multi-node set, in canonical order), the proximity
//! measure (including the RTR+ β bit pattern), the graph (via its
//! construction epoch — see [`rtr_graph::Graph::epoch`]), the random-walk
//! parameters, and the top-K configuration. Folding the epoch into the key is what makes invalidation free: when a
//! new graph replaces an old one, entries computed against the old epoch
//! simply stop being addressable, are never hit again, and age out as
//! their shard's eviction clock passes them.
//!
//! Since PR 4 the key covers the full per-request parameter space, so one
//! cache stays bit-correct across heterogeneous traffic: an F-Rank top-5
//! and an RTR+β top-10 for the same node never collide, and two
//! order-permuted copies of one multi-node query share an entry *provided
//! the caller canonicalizes the query first* ([`rtr_core::Query::canonicalize`]
//! — the serving layer does this at request construction).

use crate::cache::{EvictionCost, ShardedCache};
use rtr_core::{Measure, MeasureKey, Query, QueryCacheKey, RankParams, RankParamsKey};
use rtr_graph::NodeId;
use rtr_topk::{TopKCacheKey, TopKConfig, TopKResult};
use std::sync::Arc;

/// Identity of one served computation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    query: QueryCacheKey,
    measure: MeasureKey,
    epoch: u64,
    topk: TopKCacheKey,
    params: RankParamsKey,
}

impl CacheKey {
    /// Key for ranking `query` under `measure` on a graph stamped `epoch`
    /// with the given parameters and configuration.
    ///
    /// The query's pair order is keyed as-is: multi-node engines accumulate
    /// in query order, so permutations are not bit-equivalent in general.
    /// Canonicalize the query first when permutations should share an
    /// entry.
    pub fn new(
        query: &Query,
        measure: Measure,
        epoch: u64,
        params: &RankParams,
        config: &TopKConfig,
    ) -> Self {
        CacheKey {
            query: query.cache_key(),
            measure: measure.cache_key(),
            epoch,
            topk: config.cache_key(),
            params: params.cache_key(),
        }
    }

    /// Convenience for the pre-PR-4 key shape: a single-node RoundTripRank
    /// query.
    pub fn single(node: NodeId, epoch: u64, params: &RankParams, config: &TopKConfig) -> Self {
        Self::new(&Query::single(node), Measure::Rtr, epoch, params, config)
    }

    /// The graph epoch this key is valid for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A search costs the nodes it processed: BCA pushes on the F side plus
/// absorptions on the T side (an exact answer counts the graph once per
/// sweep of the fixed points it ran).
impl EvictionCost for TopKResult {
    fn eviction_cost(&self) -> u64 {
        (self.work.bca_pushes + self.work.t_absorbed) as u64
    }
}

/// The serving layer's cache type: results are shared as `Arc`s so a hit
/// never clones the ranking vectors under the shard lock.
pub type ResultCache = ShardedCache<CacheKey, Arc<TopKResult>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CacheKey {
        CacheKey::single(NodeId(3), 7, &RankParams::default(), &TopKConfig::default())
    }

    #[test]
    fn identical_inputs_identical_keys() {
        assert_eq!(base(), base());
    }

    #[test]
    fn every_component_separates_keys() {
        let b = base();
        let params = RankParams::default();
        let config = TopKConfig::default();
        let variants = [
            CacheKey::single(NodeId(4), 7, &params, &config),
            CacheKey::single(NodeId(3), 8, &params, &config),
            CacheKey::single(NodeId(3), 7, &RankParams::with_alpha(0.5), &config),
            CacheKey::single(NodeId(3), 7, &params, &TopKConfig { k: 3, ..config }),
            CacheKey::single(
                NodeId(3),
                7,
                &RankParams {
                    max_iterations: 5,
                    ..params
                },
                &config,
            ),
        ];
        for v in variants {
            assert_ne!(v, b, "{v:?} collided with base");
        }
    }

    #[test]
    fn measures_never_share_entries() {
        let params = RankParams::default();
        let config = TopKConfig::default();
        let q = Query::single(NodeId(3));
        let keys = [
            CacheKey::new(&q, Measure::F, 7, &params, &config),
            CacheKey::new(&q, Measure::T, 7, &params, &config),
            CacheKey::new(&q, Measure::Rtr, 7, &params, &config),
            CacheKey::new(&q, Measure::RtrPlus { beta: 0.3 }, 7, &params, &config),
            CacheKey::new(&q, Measure::RtrPlus { beta: 0.7 }, 7, &params, &config),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "distinct measures must have distinct keys");
            }
        }
        // β = 0.5 RTR+ is rank-equivalent to RTR but not bit-equivalent
        // (different bound arithmetic): still a distinct key.
        assert_ne!(
            CacheKey::new(&q, Measure::RtrPlus { beta: 0.5 }, 7, &params, &config),
            CacheKey::new(&q, Measure::Rtr, 7, &params, &config)
        );
    }

    #[test]
    fn canonicalized_multi_node_queries_share_entries() {
        let params = RankParams::default();
        let config = TopKConfig::default();
        let a = Query::weighted(&[(NodeId(1), 1.0), (NodeId(4), 3.0)]).unwrap();
        let b = Query::weighted(&[(NodeId(4), 3.0), (NodeId(1), 1.0)]).unwrap();
        let key = |q: &Query| CacheKey::new(q, Measure::Rtr, 7, &params, &config);
        // Raw order is part of the key...
        assert_ne!(key(&a), key(&b));
        // ...the canonical forms collapse to one entry.
        assert_eq!(key(&a.canonicalize()), key(&b.canonicalize()));
        // Different weights stay distinct.
        let c = Query::weighted(&[(NodeId(1), 2.0), (NodeId(4), 3.0)]).unwrap();
        assert_ne!(key(&a.canonicalize()), key(&c.canonicalize()));
    }

    #[test]
    fn accessors_expose_epoch() {
        assert_eq!(base().epoch(), 7);
    }

    #[test]
    fn single_is_a_rtr_single_node_key() {
        let params = RankParams::default();
        let config = TopKConfig::default();
        let via_single = CacheKey::single(NodeId(3), 7, &params, &config);
        let via_new = CacheKey::new(&Query::single(NodeId(3)), Measure::Rtr, 7, &params, &config);
        assert_eq!(via_single, via_new);
    }
}
