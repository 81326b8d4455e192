//! Self-describing query requests.
//!
//! The paper's point is that *one* graph answers many kinds of proximity
//! queries — F-Rank (importance), T-Rank (specificity), RoundTripRank, and
//! RoundTripRank+ with a per-query bias β, over single- and multi-node
//! query sets. [`QueryRequest`] makes all of that per-request state: a
//! query (canonicalized at construction), a [`Measure`], an optional `k`,
//! and optional [`RankParams`] / [`TopKConfig`] overrides that fall back to
//! the engine's [`crate::ServeConfig`] defaults. One worker pool therefore
//! serves the whole measure/β/k space, and the result cache stays
//! bit-correct because every one of these inputs is part of the cache key.
//! A request says *what* to rank, never *how*: every request runs the
//! paper's full 2SBound (the Fig. 11a ablation schemes are a benchmark,
//! not a serving option) on the backend the engine was built with.
//!
//! **One engine path.** [`ResolvedRequest::execute`] runs every request it
//! serves through the one bound search, [`TwoSBound`] (the paper's online
//! algorithm), combining f- and t-bounds per measure and summing them over
//! a multi-node query — on the engine's [`GpCluster`] when it has one, on
//! the shared graph otherwise. Its answers carry `[lower, upper]` bounds
//! and `expansions` counts its expansion rounds. Both reuse the worker's
//! persistent [`TopKWorkspace`](rtr_topk::TopKWorkspace) (the `topk` of
//! its [`DistributedWorkspace`]).
//!
//! Two request shapes are refused before any engine runs, with a typed
//! [`ServeError::Refused`] naming the limit and the request's value: a
//! full ranking (k ≥ \|V\|), which leaves a bound search nothing to prune,
//! and a query of more than `MAX_BOUNDED_NODES` nodes, whose neighborhoods
//! would grow a worker's memory with the query. The whole-graph fixed
//! points of `rtr_core` (F-Rank, T-Rank, RoundTripRank, RoundTripRank+)
//! stay offline references, never a serving path.

use crate::backend::ExecOutcome;
use crate::config::ServeConfig;
use crate::engine::ServeError;
use rtr_cache::CacheKey;
use rtr_core::{Measure, Query, RankParams};
use rtr_distributed::{DistributedTwoSBound, DistributedWorkspace, GpCluster};
use rtr_graph::{Graph, NodeId};
use rtr_topk::{TopKConfig, TwoSBound};
use std::sync::Arc;

/// The widest query the bound search serves. It holds one neighborhood
/// pair per query node, each with ≈ 16 B of index arrays per graph node,
/// so a wider query is refused: no request can make a worker allocate more
/// than a small multiple of \|V\|.
pub(crate) const MAX_BOUNDED_NODES: usize = 4;

/// One self-describing query: what to rank, by which measure, and under
/// which (optionally overridden) parameters.
///
/// ```
/// use rtr_core::Measure;
/// use rtr_graph::NodeId;
/// use rtr_serve::QueryRequest;
///
/// // Default: single-node RoundTripRank with the engine's defaults.
/// let r = QueryRequest::node(NodeId(3));
/// assert_eq!(r.measure(), Measure::Rtr);
///
/// // Per-request measure, β, and k.
/// let r = QueryRequest::node(NodeId(3))
///     .with_measure(Measure::RtrPlus { beta: 0.7 })
///     .with_k(5);
/// assert_eq!(r.k(), Some(5));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    query: Query,
    measure: Measure,
    k: Option<usize>,
    params: Option<RankParams>,
    topk: Option<TopKConfig>,
}

impl QueryRequest {
    /// A request for `query`, canonicalized ([`Query::canonicalize`]) so
    /// that order-permuted copies of one weighted node set are the same
    /// request — same computation, same cache entry. Defaults to
    /// RoundTripRank with every parameter inherited from the engine.
    pub fn new(query: Query) -> Self {
        QueryRequest {
            query: query.canonicalize(),
            measure: Measure::Rtr,
            k: None,
            params: None,
            topk: None,
        }
    }

    /// A single-node request.
    pub fn node(node: NodeId) -> Self {
        Self::new(Query::single(node))
    }

    /// A uniform multi-node request (each node weighted `1/|Q|`).
    pub fn nodes(nodes: &[NodeId]) -> Self {
        Self::new(Query::uniform(nodes))
    }

    /// This request ranked by `measure`.
    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// This request with a per-query `k` (overrides the engine's
    /// `TopKConfig::k`, and any [`QueryRequest::with_topk`] override's).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// This request with its own random-walk parameters.
    pub fn with_params(mut self, params: RankParams) -> Self {
        self.params = Some(params);
        self
    }

    /// This request with its own top-K search configuration.
    pub fn with_topk(mut self, topk: TopKConfig) -> Self {
        self.topk = Some(topk);
        self
    }

    /// The (canonicalized) query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The requested measure.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// The per-query `k` override, if any.
    pub fn k(&self) -> Option<usize> {
        self.k
    }

    /// The per-query random-walk parameter override, if any.
    pub fn params(&self) -> Option<RankParams> {
        self.params
    }

    /// The per-query top-K configuration override, if any (the separate
    /// [`QueryRequest::k`] override is *not* folded in here; resolution
    /// applies it on top).
    pub fn topk(&self) -> Option<TopKConfig> {
        self.topk
    }

    /// Fill every unset field from `defaults`, producing the exact
    /// parameter set a worker will run (and a response will report).
    pub fn resolve(&self, defaults: &ServeConfig) -> ResolvedRequest {
        let mut topk = self.topk.unwrap_or(defaults.topk);
        if let Some(k) = self.k {
            topk.k = k;
        }
        ResolvedRequest {
            query: self.query.clone(),
            measure: self.measure,
            params: self.params.unwrap_or(defaults.params),
            topk,
        }
    }
}

/// A [`QueryRequest`] with every fallback applied: exactly what ran.
/// Responses carry this so callers see the params actually used.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedRequest {
    /// The canonicalized query.
    pub query: Query,
    /// The measure ranked by.
    pub measure: Measure,
    /// The random-walk parameters used.
    pub params: RankParams,
    /// The top-K configuration used (per-request `k` already applied).
    pub topk: TopKConfig,
}

impl ResolvedRequest {
    /// The result-cache identity of this request on a graph stamped
    /// `epoch`. Covers every output-relevant input, so heterogeneous
    /// traffic through one cache can never alias.
    pub fn cache_key(&self, epoch: u64) -> CacheKey {
        CacheKey::new(&self.query, self.measure, epoch, &self.params, &self.topk)
    }

    /// Run this request on `g`, reusing the worker's buffers in `ws` (see
    /// the [module docs](self)): on `cluster` when the engine has one — the
    /// worker acting as the paper's active processor, paging node blocks
    /// from the graph processors — and on `g` otherwise. Both run the same
    /// engine on the same `ws.topk`, so only the outcome's wire cost
    /// differs. A full ranking or a query wider than `MAX_BOUNDED_NODES`
    /// is [`ServeError::Refused`] before any engine runs.
    pub fn execute(
        &self,
        g: &Graph,
        cluster: Option<&GpCluster>,
        ws: &mut DistributedWorkspace,
    ) -> Result<ExecOutcome, ServeError> {
        let (k, n, width) = (self.topk.k, g.node_count(), self.query.len());
        if k >= n {
            let why = format!("k = {k} is not below |V| = {n}: full rankings are not served");
            return Err(ServeError::Refused(why));
        }
        if width > MAX_BOUNDED_NODES {
            let why = format!("{width} query nodes exceed MAX_BOUNDED_NODES = {MAX_BOUNDED_NODES}");
            return Err(ServeError::Refused(why));
        }
        let search = TwoSBound::for_measure(self.params, self.topk, self.measure)?;
        let (result, distributed) = match cluster {
            None => (search.run_query_with(g, &self.query, &mut ws.topk)?, None),
            Some(cluster) => {
                let (result, stats) =
                    DistributedTwoSBound::from(search).run_query_with(cluster, &self.query, ws)?;
                (result, Some(stats))
            }
        };
        Ok(ExecOutcome {
            result: Arc::new(result),
            distributed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::prelude::*;
    use rtr_graph::toy::fig2_toy;
    use rtr_topk::{TopKResult, TopKWorkspace};

    fn toy_defaults() -> ServeConfig {
        ServeConfig::default().with_topk(TopKConfig::toy())
    }

    #[test]
    fn defaults_fall_back_to_engine_config() {
        let defaults = toy_defaults();
        let r = QueryRequest::node(NodeId(1)).resolve(&defaults);
        assert_eq!(r.measure, Measure::Rtr);
        assert_eq!(r.params, defaults.params);
        assert_eq!(r.topk, defaults.topk);
    }

    #[test]
    fn overrides_apply_and_k_wins_over_topk_override() {
        let defaults = toy_defaults();
        let own = TopKConfig {
            k: 7,
            epsilon: 0.5,
            ..TopKConfig::default()
        };
        let r = QueryRequest::node(NodeId(1))
            .with_measure(Measure::T)
            .with_topk(own)
            .with_k(3)
            .with_params(RankParams::with_alpha(0.4))
            .resolve(&defaults);
        assert_eq!(r.measure, Measure::T);
        assert_eq!(r.topk.k, 3, "with_k overrides the topk override's k");
        assert_eq!(r.topk.epsilon, 0.5);
        assert_eq!(r.params.alpha, 0.4);
    }

    #[test]
    fn construction_canonicalizes_the_query() {
        let a = QueryRequest::new(Query::weighted(&[(NodeId(4), 3.0), (NodeId(1), 1.0)]).unwrap());
        let b = QueryRequest::new(Query::weighted(&[(NodeId(1), 1.0), (NodeId(4), 3.0)]).unwrap());
        assert_eq!(a, b, "order-permuted requests are the same request");
        assert_eq!(a.query().nodes(), &[NodeId(1), NodeId(4)]);
    }

    #[test]
    fn permuted_requests_share_one_cache_key() {
        let defaults = toy_defaults();
        let a = QueryRequest::new(Query::weighted(&[(NodeId(4), 3.0), (NodeId(1), 1.0)]).unwrap());
        let b = QueryRequest::new(Query::weighted(&[(NodeId(1), 1.0), (NodeId(4), 3.0)]).unwrap());
        assert_eq!(
            a.resolve(&defaults).cache_key(9),
            b.resolve(&defaults).cache_key(9)
        );
        // β bit pattern separates keys.
        let c = a.clone().with_measure(Measure::RtrPlus { beta: 0.3 });
        let d = a.with_measure(Measure::RtrPlus { beta: 0.7 });
        assert_ne!(
            c.resolve(&defaults).cache_key(9),
            d.resolve(&defaults).cache_key(9)
        );
    }

    #[test]
    fn single_node_rtr_matches_direct_two_sbound() {
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let resolved = QueryRequest::node(ids.t1).resolve(&defaults);
        let served = resolved
            .execute(&g, None, &mut DistributedWorkspace::new())
            .unwrap()
            .result;
        let direct = TwoSBound::new(defaults.params, defaults.topk)
            .run(&g, ids.t1)
            .unwrap();
        assert_eq!(served.ranking, direct.ranking);
        assert_eq!(served.bounds, direct.bounds);
        assert_eq!(served.expansions, direct.expansions);
    }

    /// The ε-contract of a converged answer against exact `scores`: bounds
    /// bracket the scores, no node left out beats the K-th by more than ε,
    /// and no adjacent pair is swapped by more than ε.
    fn assert_epsilon_contract(g: &Graph, result: &TopKResult, scores: &ScoreVec, eps: f64) {
        assert!(result.converged);
        for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
            let s = scores.score(*v);
            assert!(
                s >= lo - 1e-9 && s <= hi + 1e-9,
                "{v:?}: {s} outside [{lo}, {hi}]"
            );
        }
        let kth = scores.score(*result.ranking.last().expect("non-empty answer"));
        for v in g.nodes().filter(|v| !result.ranking.contains(v)) {
            assert!(scores.score(v) <= kth + eps + 1e-9, "missed {v:?}");
        }
        for w in result.ranking.windows(2) {
            assert!(scores.score(w[0]) >= scores.score(w[1]) - eps - 1e-9);
        }
    }

    #[test]
    fn exact_measures_match_direct_engines() {
        // F and T run the bound search on their own neighborhood: the
        // answer is the direct search's bit for bit and keeps the
        // ε-contract against the exact fixed point.
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let q = Query::single(ids.t1);
        let mut ws = DistributedWorkspace::new();
        let exact_f = FRank::new(defaults.params).compute(&g, &q).unwrap();
        let exact_t = TRank::new(defaults.params).compute(&g, &q).unwrap();
        for (measure, exact) in [(Measure::F, exact_f), (Measure::T, exact_t)] {
            let served = QueryRequest::node(ids.t1)
                .with_measure(measure)
                .resolve(&defaults)
                .execute(&g, None, &mut ws)
                .unwrap()
                .result;
            let direct = TwoSBound::for_measure(defaults.params, defaults.topk, measure)
                .unwrap()
                .run(&g, ids.t1)
                .unwrap();
            assert_eq!(served.ranking, direct.ranking, "{measure}");
            assert_eq!(served.bounds, direct.bounds, "{measure}");
            assert_eq!(served.ranking.len(), defaults.topk.k, "{measure}");
            assert!(
                served.expansions > 0,
                "{measure}: expansion rounds are reported"
            );
            assert_epsilon_contract(&g, &served, &exact, defaults.topk.epsilon);
        }
    }

    #[test]
    fn multi_node_rtr_uses_the_linearity_reduction() {
        // A two-node request bounds Σ_q w_q · r(q, ·), the linearity
        // reduction the exact engine computes.
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let request = QueryRequest::nodes(&[ids.t1, ids.t2]).with_k(6);
        let served = request
            .resolve(&defaults)
            .execute(&g, None, &mut DistributedWorkspace::new())
            .unwrap()
            .result;
        let direct = RoundTripRank::new(defaults.params)
            .compute(&g, request.query())
            .unwrap();
        assert_eq!(served.ranking.len(), 6);
        assert_epsilon_contract(&g, &served, &direct, defaults.topk.epsilon);
        let search = TwoSBound::new(
            defaults.params,
            TopKConfig {
                k: 6,
                ..defaults.topk
            },
        )
        .run_query_with(&g, request.query(), &mut TopKWorkspace::default())
        .unwrap();
        assert_eq!(served.ranking, search.ranking);
        assert_eq!(served.bounds, search.bounds);
    }

    /// Every measure's request for `query` with `k`, run on `g`.
    fn every_measure(
        g: &Graph,
        query: &Query,
        k: Option<usize>,
    ) -> Vec<Result<ExecOutcome, ServeError>> {
        let defaults = toy_defaults();
        let mut ws = DistributedWorkspace::new();
        [
            Measure::F,
            Measure::T,
            Measure::Rtr,
            Measure::RtrPlus { beta: 0.7 },
        ]
        .into_iter()
        .map(|measure| {
            let mut request = QueryRequest::new(query.clone()).with_measure(measure);
            if let Some(k) = k {
                request = request.with_k(k);
            }
            request.resolve(&defaults).execute(g, None, &mut ws)
        })
        .collect()
    }

    #[test]
    fn full_rankings_are_refused() {
        // k ≥ |V| gives a bound search nothing to prune: refused under
        // every measure, naming the limit and the request's k.
        let (g, ids) = fig2_toy();
        let n = g.node_count();
        let q = Query::uniform(&[ids.t1, ids.v2]);
        for k in [n - 1, n, n + 3] {
            for outcome in every_measure(&g, &q, Some(k)) {
                match outcome {
                    Ok(_) if k < n => {}
                    Err(ServeError::Refused(why)) if k >= n => {
                        assert!(why.contains(&format!("k = {k}")), "{why}");
                        assert!(why.contains(&format!("|V| = {n}")), "{why}");
                    }
                    other => panic!("k = {k}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn wide_queries_are_refused() {
        // Up to MAX_BOUNDED_NODES query nodes the bound search runs; one
        // node more and the request is refused under every measure.
        let (g, _) = fig2_toy();
        let nodes: Vec<NodeId> = g.nodes().take(MAX_BOUNDED_NODES + 1).collect();
        let widest = Query::uniform(&nodes[..MAX_BOUNDED_NODES]);
        for outcome in every_measure(&g, &widest, None) {
            assert!(outcome.unwrap().result.expansions > 0);
        }
        for outcome in every_measure(&g, &Query::uniform(&nodes), None) {
            match outcome {
                Err(ServeError::Refused(why)) => {
                    assert!(why.contains("5 query nodes"), "{why}");
                    assert!(why.contains("MAX_BOUNDED_NODES = 4"), "{why}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn invalid_beta_is_a_per_request_error() {
        let (g, ids) = fig2_toy();
        let resolved = QueryRequest::node(ids.t1)
            .with_measure(Measure::RtrPlus { beta: 1.5 })
            .resolve(&toy_defaults());
        assert!(matches!(
            resolved.execute(&g, None, &mut DistributedWorkspace::new()),
            Err(ServeError::Query(CoreError::InvalidBeta(_)))
        ));
    }

    #[test]
    fn empty_query_is_a_per_request_error() {
        let (g, _) = fig2_toy();
        let resolved = QueryRequest::nodes(&[]).resolve(&toy_defaults());
        assert!(matches!(
            resolved.execute(&g, None, &mut DistributedWorkspace::new()),
            Err(ServeError::Query(CoreError::EmptyQuery))
        ));
    }
}
