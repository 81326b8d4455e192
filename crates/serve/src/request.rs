//! Self-describing query requests.
//!
//! The paper's point is that *one* graph answers many kinds of proximity
//! queries — F-Rank (importance), T-Rank (specificity), RoundTripRank, and
//! RoundTripRank+ with a per-query bias β, over single- and multi-node
//! query sets. [`QueryRequest`] makes all of that per-request state: a
//! query (canonicalized at construction), a [`Measure`], an optional `k`,
//! and optional [`RankParams`] / [`TopKConfig`] / [`Scheme`] overrides
//! that fall back to the engine's [`crate::ServeConfig`] defaults. One
//! worker pool therefore serves the whole measure/β/k/scheme space, and
//! the result cache stays bit-correct because every one of these inputs is
//! part of the cache key.
//!
//! **Dispatch.** [`ResolvedRequest::run`] picks the engine path by
//! measure, query arity, and k:
//!
//! | measure | single-node, k < \|V\| | multi-node, or k ≥ \|V\| |
//! |---|---|---|
//! | `Rtr` | [`TwoSBound`] bound search (the paper's online algorithm) | exact linearity reduction ([`RoundTripRank`]) |
//! | `RtrPlus{β}` | [`TwoSBoundPlus`] bound search | exact linearity reduction ([`RoundTripRankPlus`]) |
//! | `F` / `T` | exact fixed-point iteration | exact fixed-point iteration (weighted start vector) |
//!
//! (A full ranking — k ≥ \|V\| — gives a bound search nothing to prune,
//! so those requests run the exact engine: cheaper *and* zero-width
//! bounds.)
//!
//! The bound paths reuse the worker's persistent [`TopKWorkspace`]; the
//! exact paths reuse its [`IterWorkspace`] dense vectors. Exact paths
//! return a [`TopKResult`] whose bounds collapse to the exact scores
//! (`lower == upper`), whose `expansions` counts fixed-point iterations
//! where the engine surfaces them (0 for the product measures), and whose
//! active set is empty — they touch the whole graph, so there is no
//! neighborhood to report.

use crate::backend::BackendKind;
use crate::config::ServeConfig;
use rtr_cache::CacheKey;
use rtr_core::iterative::{iterate_with, Direction};
use rtr_core::prelude::*;
use rtr_core::IterWorkspace;
use rtr_distributed::{BlockCache, DistributedWorkspace};
use rtr_graph::{Graph, NodeId};
use rtr_topk::{
    ActiveSetStats, Scheme, TopKConfig, TopKResult, TopKWorkspace, TwoSBound, TwoSBoundPlus,
};

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
    scheme: Option<Scheme>,
    backend: Option<BackendKind>,
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
            scheme: None,
            backend: None,
        }
    }

    /// A single-node request (the pre-PR-4 API's query shape).
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

    /// This request with its own computational scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// This request routed to a specific execution backend, overriding the
    /// engine's default. Routing never changes the answer (backends are
    /// bit-identical and an unavailable backend falls back to local,
    /// recorded in the response) and is **not** part of the cache key —
    /// local and distributed traffic share entries.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
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

    /// The per-query backend routing override, if any.
    pub fn backend(&self) -> Option<BackendKind> {
        self.backend
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

    /// The per-query scheme override, if any.
    pub fn scheme(&self) -> Option<Scheme> {
        self.scheme
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
            scheme: self.scheme.unwrap_or(defaults.scheme),
            route: self.backend,
        }
    }
}

/// A [`QueryRequest`] with every fallback applied: exactly what ran.
/// Responses carry this so callers see the scheme/params actually used.
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
    /// The computational scheme used (bound paths only; exact paths are
    /// scheme-independent).
    pub scheme: Scheme,
    /// The requested backend routing override (`None` = the engine's
    /// default backend). Deliberately **not** part of the cache key:
    /// backends return bit-identical rankings, so where a result was
    /// computed never determines whether it may be reused.
    pub route: Option<BackendKind>,
}

impl ResolvedRequest {
    /// The result-cache identity of this request on a graph stamped
    /// `epoch`. Covers every output-relevant input, so heterogeneous
    /// traffic through one cache can never alias.
    pub fn cache_key(&self, epoch: u64) -> CacheKey {
        CacheKey::new(
            &self.query,
            self.measure,
            epoch,
            &self.params,
            &self.topk,
            self.scheme,
        )
    }

    /// Run this request on the **local** execution path, reusing `ws`'s
    /// buffers, dispatching on measure and query arity (see the
    /// [module docs](self)). This is what [`crate::LocalBackend`] executes
    /// (and what a distributed backend falls back to); routed serving goes
    /// through [`crate::ExecBackend`] instead.
    pub fn run(&self, g: &Graph, ws: &mut ServeWorkspace) -> Result<TopKResult, CoreError> {
        self.measure.validate()?;
        // A bound search can only win by *pruning*; a full ranking
        // (k ≥ |V|) prunes nothing, so exact scoring is both cheaper and
        // tight. Only sub-|V| single-node requests take the bound engines.
        let bound_query = match self.query.nodes() {
            [q] if self.topk.k < g.node_count() => Some(*q),
            _ => None,
        };
        match self.measure {
            Measure::F => self.run_exact_iteration(g, ws, Direction::Forward),
            Measure::T => self.run_exact_iteration(g, ws, Direction::Backward),
            Measure::Rtr => {
                if let Some(q) = bound_query {
                    TwoSBound::with_scheme(self.params, self.topk, self.scheme).run_with(
                        g,
                        q,
                        &mut ws.topk,
                    )
                } else {
                    let scores = RoundTripRank::new(self.params).compute(g, &self.query)?;
                    Ok(exact_to_topk(&scores, self.topk.k, 0))
                }
            }
            Measure::RtrPlus { beta } => {
                if let Some(q) = bound_query {
                    TwoSBoundPlus::with_scheme(self.params, self.topk, self.scheme, beta)?.run_with(
                        g,
                        q,
                        &mut ws.topk,
                    )
                } else {
                    let scores =
                        RoundTripRankPlus::new(self.params, beta)?.compute(g, &self.query)?;
                    Ok(exact_to_topk(&scores, self.topk.k, 0))
                }
            }
        }
    }

    fn run_exact_iteration(
        &self,
        g: &Graph,
        ws: &mut ServeWorkspace,
        direction: Direction,
    ) -> Result<TopKResult, CoreError> {
        let (scores, stats) = iterate_with(&mut ws.iter, g, &self.query, &self.params, direction)?;
        Ok(exact_to_topk(&scores, self.topk.k, stats.iterations))
    }
}

/// Everything one worker needs to serve any request: the sparse top-K
/// workspace for the bound engines and the dense iteration workspace for
/// the exact ones. Both survive between queries, so steady-state serving
/// stays allocation-free on the bound paths and down to one unavoidable
/// `|V|`-sized allocation (the returned score vector) on the exact ones.
#[derive(Debug, Default)]
pub struct ServeWorkspace {
    /// Sparse per-query state for [`TwoSBound`] / [`TwoSBoundPlus`].
    pub topk: TopKWorkspace,
    /// Dense per-query state for the exact fixed-point iterations.
    pub iter: IterWorkspace,
    /// AP-side state for the distributed bound engines (untouched while
    /// serving on the local backend).
    pub dist: DistributedWorkspace,
}

impl ServeWorkspace {
    /// A workspace (all buffers empty) ready for any graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for a graph of `n` nodes. The sparse top-K
    /// buffers and dense iteration vectors are allocated up front, so a
    /// worker's first query is served from warm buffers instead of paying
    /// the O(n) index-array allocations mid-request. Results are identical
    /// to a lazily grown workspace; only the first-query latency changes.
    pub fn with_capacity(n: usize) -> Self {
        ServeWorkspace {
            topk: TopKWorkspace::with_capacity(n),
            iter: IterWorkspace::with_capacity(n),
            dist: DistributedWorkspace::default(),
        }
    }

    /// A workspace pre-sized like [`ServeWorkspace::with_capacity`] whose
    /// AP-side block cache runs with the engine-configured limits
    /// ([`ServeConfig::block_prefetch_limit`] /
    /// [`ServeConfig::block_cache_bytes`]) instead of the crate defaults.
    /// This is how every pool worker builds its workspace; local backends
    /// never touch `dist`, so the knobs are inert for them.
    pub fn for_engine(n: usize, config: &ServeConfig) -> Self {
        ServeWorkspace {
            topk: TopKWorkspace::with_capacity(n),
            iter: IterWorkspace::with_capacity(n),
            dist: DistributedWorkspace::with_cache(BlockCache::with_limits(
                config.block_prefetch_limit,
                config.block_cache_bytes,
            )),
        }
    }
}

/// Collapse an exact score vector into the serving result shape: top-k
/// ranking, zero-width bounds, empty active set.
fn exact_to_topk(scores: &ScoreVec, k: usize, expansions: usize) -> TopKResult {
    let ranking = scores.top_k(k);
    let bounds = ranking
        .iter()
        .map(|&v| (scores.score(v), scores.score(v)))
        .collect();
    TopKResult {
        ranking,
        bounds,
        expansions,
        converged: true,
        active: ActiveSetStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

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
        assert_eq!(r.scheme, defaults.scheme);
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
            .with_scheme(Scheme::Gupta)
            .resolve(&defaults);
        assert_eq!(r.measure, Measure::T);
        assert_eq!(r.topk.k, 3, "with_k overrides the topk override's k");
        assert_eq!(r.topk.epsilon, 0.5);
        assert_eq!(r.params.alpha, 0.4);
        assert_eq!(r.scheme, Scheme::Gupta);
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
        let served = resolved.run(&g, &mut ServeWorkspace::new()).unwrap();
        let direct = TwoSBound::new(defaults.params, defaults.topk)
            .run(&g, ids.t1)
            .unwrap();
        assert_eq!(served.ranking, direct.ranking);
        assert_eq!(served.bounds, direct.bounds);
        assert_eq!(served.expansions, direct.expansions);
    }

    #[test]
    fn exact_measures_match_direct_engines() {
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let k = defaults.topk.k;
        let q = Query::single(ids.t1);
        let mut ws = ServeWorkspace::new();

        let f = QueryRequest::node(ids.t1)
            .with_measure(Measure::F)
            .resolve(&defaults)
            .run(&g, &mut ws)
            .unwrap();
        let direct_f = FRank::new(defaults.params).compute(&g, &q).unwrap();
        assert_eq!(f.ranking, direct_f.top_k(k));
        for (v, &(lo, hi)) in f.ranking.iter().zip(&f.bounds) {
            assert_eq!(lo, direct_f.score(*v));
            assert_eq!(hi, lo, "exact bounds have zero width");
        }
        assert!(f.expansions > 0, "exact paths report iteration counts");

        let t = QueryRequest::node(ids.t1)
            .with_measure(Measure::T)
            .resolve(&defaults)
            .run(&g, &mut ws)
            .unwrap();
        let direct_t = TRank::new(defaults.params).compute(&g, &q).unwrap();
        assert_eq!(t.ranking, direct_t.top_k(k));
    }

    #[test]
    fn multi_node_rtr_uses_the_linearity_reduction() {
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let request = QueryRequest::nodes(&[ids.t1, ids.t2]).with_k(6);
        let served = request
            .resolve(&defaults)
            .run(&g, &mut ServeWorkspace::new())
            .unwrap();
        let direct = RoundTripRank::new(defaults.params)
            .compute(&g, request.query())
            .unwrap();
        assert_eq!(served.ranking, direct.top_k(6));
        for (v, &(lo, hi)) in served.ranking.iter().zip(&served.bounds) {
            assert_eq!(lo, direct.score(*v));
            assert_eq!(hi, lo);
        }
    }

    #[test]
    fn full_ranking_requests_run_the_exact_engine() {
        // k ≥ |V| gives a bound search nothing to prune; the dispatch must
        // take the exact path — zero-width bounds over the whole graph.
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let mut ws = ServeWorkspace::new();
        for measure in [Measure::Rtr, Measure::RtrPlus { beta: 0.7 }] {
            let served = QueryRequest::node(ids.t1)
                .with_measure(measure)
                .with_k(g.node_count())
                .resolve(&defaults)
                .run(&g, &mut ws)
                .unwrap();
            let exact = match measure {
                Measure::Rtr => RoundTripRank::new(defaults.params)
                    .compute(&g, &Query::single(ids.t1))
                    .unwrap(),
                _ => RoundTripRankPlus::new(defaults.params, 0.7)
                    .unwrap()
                    .compute(&g, &Query::single(ids.t1))
                    .unwrap(),
            };
            assert_eq!(served.ranking, exact.top_k(g.node_count()));
            for (v, &(lo, hi)) in served.ranking.iter().zip(&served.bounds) {
                assert_eq!(lo, exact.score(*v));
                assert_eq!(hi, lo, "full rankings come from the exact engine");
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
            resolved.run(&g, &mut ServeWorkspace::new()),
            Err(CoreError::InvalidBeta(_))
        ));
    }

    #[test]
    fn empty_query_is_a_per_request_error() {
        let (g, _) = fig2_toy();
        let resolved = QueryRequest::nodes(&[]).resolve(&toy_defaults());
        assert!(matches!(
            resolved.run(&g, &mut ServeWorkspace::new()),
            Err(CoreError::EmptyQuery)
        ));
    }
}
