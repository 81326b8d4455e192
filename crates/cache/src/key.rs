//! The result-cache key: everything that determines a served answer.
//!
//! A cached ranking may be served in place of a fresh engine run only when
//! *every* input that could change the output matches: the query (single
//! node or weighted multi-node set, in canonical order), the proximity
//! measure (including the RTR+ β bit pattern), the graph (via its
//! construction epoch — see [`rtr_graph::Graph::epoch`]), the random-walk
//! parameters, and the top-K configuration. Every top-K field counts, not
//! just k and ε: the expansion granularities and refinement knobs shift
//! where the search stops, and so which ε-valid ranking it returns.
//! Folding the epoch into the key is what makes invalidation free: when a
//! new graph replaces an old one, entries computed against the old epoch
//! simply stop being addressable, are never hit again, and age out as
//! their shard's eviction clock passes them.
//!
//! Floats are keyed by their IEEE-754 bits, so two keys compare equal
//! exactly when runs under them are bit-identical (`-0.0` and `0.0` key
//! apart, which is merely a missed dedup, never a wrong answer). An
//! F-Rank top-5 and an RTR+β top-10 for the same node never collide, and
//! two order-permuted copies of one multi-node query share an entry
//! *provided the caller canonicalizes the query first*
//! ([`rtr_core::Query::canonicalize`] — the serving layer does this at
//! request construction).

use crate::cache::{EvictionCost, ShardedCache};
use rtr_core::{Measure, MeasureKey, Query, RankParams};
use rtr_topk::{TopKConfig, TopKResult};
use std::sync::Arc;

/// Identity of one served computation: every field of every input that can
/// change a run's output, floats as their bits.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    query: QueryKey,
    measure: MeasureKey,
    epoch: u64,
    k: usize,
    epsilon_bits: u64,
    m_f: usize,
    m_t: usize,
    refine_tolerance_bits: u64,
    refine_max_sweeps: usize,
    max_expansions: usize,
    alpha_bits: u64,
    tolerance_bits: u64,
    max_iterations: usize,
}

/// The query's `(node, weight-bits)` pairs in their given order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum QueryKey {
    /// One pair, held inline: the hot single-node serving path builds and
    /// clones keys without touching the heap.
    Single(u32, u64),
    Multi(Vec<(u32, u64)>),
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
        // Exhaustive destructuring: a new field in either struct does not
        // compile until the key covers it.
        let TopKConfig {
            k,
            epsilon,
            m_f,
            m_t,
            refine_tolerance,
            refine_max_sweeps,
            max_expansions,
        } = *config;
        let RankParams {
            alpha,
            tolerance,
            max_iterations,
        } = *params;
        let query = match (query.nodes(), query.weights()) {
            ([n], [w]) => QueryKey::Single(n.0, w.to_bits()),
            _ => QueryKey::Multi(query.iter().map(|(n, w)| (n.0, w.to_bits())).collect()),
        };
        CacheKey {
            query,
            measure: measure.cache_key(),
            epoch,
            k,
            epsilon_bits: epsilon.to_bits(),
            m_f,
            m_t,
            refine_tolerance_bits: refine_tolerance.to_bits(),
            refine_max_sweeps,
            max_expansions,
            alpha_bits: alpha.to_bits(),
            tolerance_bits: tolerance.to_bits(),
            max_iterations,
        }
    }

    /// The graph epoch this key is valid for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A search costs the nodes it processed: BCA pushes on the F side plus
/// absorptions on the T side.
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
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::NodeId;

    fn key(query: &Query, measure: Measure, epoch: u64, p: RankParams, c: TopKConfig) -> CacheKey {
        CacheKey::new(query, measure, epoch, &p, &c)
    }

    #[test]
    fn every_component_separates_keys() {
        // One row per input: the base key with exactly that input changed.
        let q = Query::single(NodeId(3));
        let (p, c) = (RankParams::default(), TopKConfig::default());
        let base = key(&q, Measure::Rtr, 7, p, c);
        assert_eq!(base, key(&q, Measure::Rtr, 7, p, c));
        assert_eq!(base.epoch(), 7);
        let pair = |other| Query::weighted(&[(NodeId(3), 1.0), (NodeId(other), 1.0)]).unwrap();
        let plus = |beta| key(&q, Measure::RtrPlus { beta }, 7, p, c);
        let mut params = [p; 3];
        params[0].alpha = 0.5;
        params[1].tolerance = 1e-9;
        params[2].max_iterations = 5;
        let mut configs = [c; 7];
        configs[0].k = 11;
        configs[1].epsilon = 0.02;
        configs[2].m_f = 99;
        configs[3].m_t = 6;
        configs[4].refine_tolerance = 1e-11;
        configs[5].refine_max_sweeps = 49;
        configs[6].max_expansions = 9_999;
        let mut rows = vec![
            base,
            key(&Query::single(NodeId(4)), Measure::Rtr, 7, p, c),
            key(&pair(4), Measure::Rtr, 7, p, c),
            key(&pair(5), Measure::Rtr, 7, p, c),
            key(&q, Measure::F, 7, p, c),
            key(&q, Measure::T, 7, p, c),
            key(&q, Measure::Rtr, 8, p, c),
            // β = 0.5 ranks like RTR but is not bit-equivalent.
            plus(0.5),
            plus(0.3),
            plus(0.7),
            plus(0.0),
            plus(-0.0),
        ];
        rows.extend(params.map(|p| key(&q, Measure::Rtr, 7, p, c)));
        rows.extend(configs.map(|c| key(&q, Measure::Rtr, 7, p, c)));
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                assert_ne!(a, b, "two inputs share a key");
            }
        }
    }

    #[test]
    fn single_node_keys_are_inline_and_construction_independent() {
        // A one-pair weighted query normalizes to weight 1.0 and keys like
        // Query::single, through the inline variant.
        let (p, c) = (RankParams::default(), TopKConfig::default());
        let a = key(&Query::single(NodeId(7)), Measure::Rtr, 1, p, c);
        let b = key(
            &Query::weighted(&[(NodeId(7), 5.0)]).unwrap(),
            Measure::Rtr,
            1,
            p,
            c,
        );
        assert_eq!(a, b);
        assert_eq!(a.query, QueryKey::Single(7, 1.0f64.to_bits()));
    }

    #[test]
    fn canonicalized_multi_node_queries_share_entries() {
        let (p, c) = (RankParams::default(), TopKConfig::default());
        let a = Query::weighted(&[(NodeId(1), 1.0), (NodeId(4), 3.0)]).unwrap();
        let b = Query::weighted(&[(NodeId(4), 3.0), (NodeId(1), 1.0)]).unwrap();
        let k = |q: &Query| key(q, Measure::Rtr, 7, p, c);
        // Raw order is part of the key...
        assert_ne!(k(&a), k(&b));
        // ...the canonical forms collapse to one entry.
        assert_eq!(k(&a.canonicalize()), k(&b.canonicalize()));
        // Different weights stay distinct.
        let w = Query::weighted(&[(NodeId(1), 2.0), (NodeId(4), 3.0)]).unwrap();
        assert_ne!(k(&a.canonicalize()), k(&w.canonicalize()));
    }

    #[test]
    fn graph_epoch_separates_cache_entries() {
        // Two byte-identical graphs have different epochs, so an engine
        // over the second never sees entries computed on the first; a clone
        // is the same graph content and keeps the epoch.
        let (g1, _) = fig2_toy();
        let (g2, _) = fig2_toy();
        assert_ne!(g1.epoch(), g2.epoch());
        assert_eq!(g1.clone().epoch(), g1.epoch());
        let (p, c) = (RankParams::default(), TopKConfig::toy());
        let q = Query::single(NodeId(0));
        assert_ne!(
            key(&q, Measure::Rtr, g1.epoch(), p, c),
            key(&q, Measure::Rtr, g2.epoch(), p, c)
        );
    }
}
