//! Distributed 2SBound: the paper's Algorithm 1 running on the AP, with
//! every adjacency access served from the incrementally assembled active
//! set (paper Sect. V-B2).
//!
//! There is **no distributed fork of the algorithm**. The AP runs the
//! single-machine engine's `run_query_on` entry point — the *same* code path
//! as [`TwoSBound::run`](rtr_topk::TwoSBound::run), for every measure and
//! query arity — against an
//! [`ActiveGraph`], which implements the shared
//! [`AdjacencyAccess`](rtr_graph::AdjacencyAccess) trait by paging node
//! blocks from the [`GpCluster`]. Local/distributed bit-identity (ranking,
//! bounds, expansions, active-set statistics) is therefore true by
//! construction: there is only one implementation to be identical to. That
//! is what lets a serving cache share entries between local and distributed
//! backends — the answers are interchangeable, only the wire cost differs.
//!
//! The distributed-only machinery lives below the trait: the cluster's
//! out-degree table, the per-query [`BlockCache`] behind the `ensure`
//! calls the engines make, and the reusable GP reply channel
//! ([`ReplySlot`]). [`DistributedStats`] meters all of it per query. Every
//! query starts with no block and pays its own active set on the wire, so
//! `blocks_fetched == active_nodes` always holds and the Fig. 12 active-set
//! numbers are exact.
//!
//! Like the local engines, the distributed processors honor the full
//! [`TopKConfig`] and whatever search they wrap (a Fig. 11a ablation is a
//! `TwoSBound::with_scheme(..).into()`), and expose workspace-reusing
//! `run_with` entry points so a pooled worker serves query after query
//! without reallocating its AP-side state.

use crate::active::{ActiveGraph, BlockCache};
use crate::gp::{GpCluster, ReplySlot};
use rtr_core::{CoreError, Query, RankParams};
use rtr_graph::NodeId;
use rtr_topk::config::TopKConfig;
use rtr_topk::two_sbound::{TopKResult, TwoSBound};
use rtr_topk::workspace::TopKWorkspace;

/// Network-level statistics of one distributed query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistributedStats {
    /// Batched fetch rounds the AP issued.
    pub fetch_requests: usize,
    /// Node blocks the query demanded and received over the wire.
    pub blocks_fetched: usize,
    /// Always 0: the AP fetches nothing on speculation. Kept so the wire
    /// format of a response and the readers of this field stay as they
    /// are.
    pub blocks_prefetched: usize,
    /// Always 0: no block outlives its query, so none is served without
    /// a fetch. Kept so the wire format of a response and the readers of
    /// this field stay as they are.
    pub blocks_from_cache: usize,
    /// Payload bytes received.
    pub bytes_transferred: usize,
    /// Nodes this query made part of its working set (every block it
    /// demanded) — always `blocks_fetched`, and equal to the result's
    /// `active.active_nodes`: the engines demand exactly the nodes of
    /// `S_f ∪ S_t`.
    pub active_nodes: usize,
    /// Directed edges (both stored directions) of the touched nodes.
    pub active_edges: usize,
    /// Wire-encoding bytes of the touched nodes' blocks (paper Fig. 12
    /// "Active set size").
    pub active_bytes: usize,
}

/// Reusable AP-side state for distributed serving: the engine workspace
/// (the same [`TopKWorkspace`] the local engines reuse), the per-query
/// block store, and the GP reply channel with its buffers. Once these have
/// grown to the largest query's size, a long-lived worker's block path
/// allocates nothing.
#[derive(Debug, Default)]
pub struct DistributedWorkspace {
    /// Engine buffers (BCA maps, bounds maps, scratch vectors).
    pub topk: TopKWorkspace,
    /// The running query's blocks, cleared when the next query starts.
    pub cache: BlockCache,
    /// Reusable reply channel for GP fetches.
    pub slot: ReplySlot,
    /// Per-query trace to stamp [`rtr_obs::TraceStage::FetchRound`]
    /// events into, when the caller is tracing this query. The serving
    /// layer parks the request's trace here around `run_with` and takes
    /// it back afterwards; `None` (the default) records nothing.
    pub trace: Option<Box<rtr_obs::QueryTrace>>,
}

impl DistributedWorkspace {
    /// A workspace (all buffers empty) ready for any cluster.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Distributed 2SBound: [`TwoSBound`] — for any measure and query arity —
/// run against a [`GpCluster`]-paged active graph.
#[derive(Clone, Copy, Debug)]
pub struct DistributedTwoSBound {
    engine: TwoSBound,
}

impl From<TwoSBound> for DistributedTwoSBound {
    /// Run `engine` (e.g. a [`TwoSBound::for_measure`] search) on the AP.
    fn from(engine: TwoSBound) -> Self {
        DistributedTwoSBound { engine }
    }
}

impl DistributedTwoSBound {
    /// RoundTripRank with the paper's full scheme.
    pub fn new(params: RankParams, config: TopKConfig) -> Self {
        TwoSBound::new(params, config).into()
    }

    /// The configuration in use.
    pub fn config(&self) -> &TopKConfig {
        self.engine.config()
    }

    /// Run the query against a GP cluster, allocating fresh AP state.
    /// Serving paths use [`DistributedTwoSBound::run_with`] instead.
    pub fn run(
        &self,
        cluster: &GpCluster,
        q: NodeId,
    ) -> Result<(TopKResult, DistributedStats), CoreError> {
        self.run_with(cluster, q, &mut DistributedWorkspace::default())
    }

    /// Run the query reusing `ws`'s buffers. The result and the
    /// [`DistributedStats`] are bit-identical to
    /// [`DistributedTwoSBound::run`]'s, and the [`TopKResult`] to the local
    /// `TwoSBound::run_with`'s under the same parameters.
    pub fn run_with(
        &self,
        cluster: &GpCluster,
        q: NodeId,
        ws: &mut DistributedWorkspace,
    ) -> Result<(TopKResult, DistributedStats), CoreError> {
        self.run_query_with(cluster, &Query::single(q), ws)
    }

    /// Run a (weighted, multi-node) `query` like
    /// [`DistributedTwoSBound::run_with`]; bit-identical to the local
    /// `TwoSBound::run_query_with`.
    pub fn run_query_with(
        &self,
        cluster: &GpCluster,
        query: &Query,
        ws: &mut DistributedWorkspace,
    ) -> Result<(TopKResult, DistributedStats), CoreError> {
        let mut active = ActiveGraph::with_trace(
            cluster,
            &mut ws.cache,
            &mut ws.slot,
            ws.trace.as_deref_mut(),
        );
        let result = self.engine.run_query_on(&mut active, query, &mut ws.topk)?;
        let stats = DistributedStats {
            fetch_requests: active.fetch_requests(),
            blocks_fetched: active.blocks_fetched(),
            blocks_prefetched: 0,
            blocks_from_cache: 0,
            bytes_transferred: active.bytes_transferred(),
            active_nodes: active.touched_nodes(),
            active_edges: active.touched_edges(),
            active_bytes: active.touched_bytes(),
        };
        Ok((result, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::Measure;
    use rtr_graph::toy::fig2_toy;
    use rtr_topk::Scheme;
    use rtr_topk::TwoSBoundPlus;

    fn toy_config() -> TopKConfig {
        TopKConfig {
            k: 4,
            epsilon: 0.0,
            m_f: 4,
            m_t: 2,
            max_expansions: 500,
            ..TopKConfig::default()
        }
    }

    /// The acceptance clause, at unit scale: the distributed run is
    /// bit-identical to the local engine — ranking, bounds, expansions,
    /// and active-set statistics.
    #[test]
    fn distributed_is_bit_identical_to_local() {
        let (g, _) = fig2_toy();
        let params = RankParams::default();
        let cluster = GpCluster::spawn(&g, 3);
        for q in g.nodes() {
            let local = TwoSBound::new(params, toy_config()).run(&g, q).unwrap();
            let (dist, stats) = DistributedTwoSBound::new(params, toy_config())
                .run(&cluster, q)
                .unwrap();
            assert_eq!(local.ranking, dist.ranking, "query {q:?}");
            assert_eq!(local.bounds, dist.bounds, "query {q:?}");
            assert_eq!(local.expansions, dist.expansions, "query {q:?}");
            assert_eq!(local.converged, dist.converged, "query {q:?}");
            assert_eq!(local.active, dist.active, "query {q:?}");
            assert!(stats.bytes_transferred > 0);
            // The AP fetched exactly the active set, nothing speculative.
            assert_eq!(stats.active_nodes, dist.active.active_nodes, "query {q:?}");
            assert_eq!(stats.blocks_fetched, stats.active_nodes, "query {q:?}");
            assert_eq!(stats.blocks_prefetched, 0, "query {q:?}");
        }
    }

    #[test]
    fn every_scheme_is_bit_identical_to_local() {
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        let cluster = GpCluster::spawn(&g, 2);
        for scheme in Scheme::all() {
            let local = TwoSBound::with_scheme(params, toy_config(), scheme)
                .run(&g, ids.t1)
                .unwrap();
            let (dist, _) =
                DistributedTwoSBound::from(TwoSBound::with_scheme(params, toy_config(), scheme))
                    .run(&cluster, ids.t1)
                    .unwrap();
            assert_eq!(local.ranking, dist.ranking, "{scheme:?}");
            assert_eq!(local.bounds, dist.bounds, "{scheme:?}");
            assert_eq!(local.expansions, dist.expansions, "{scheme:?}");
            assert_eq!(local.active, dist.active, "{scheme:?}");
        }
    }

    #[test]
    fn plus_is_bit_identical_to_local_across_betas() {
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        let cluster = GpCluster::spawn(&g, 3);
        for beta in [0.0, 0.3, 0.5, 0.7, 1.0] {
            let engine = TwoSBoundPlus::new(params, toy_config(), beta).unwrap();
            let local = engine.run(&g, ids.t1).unwrap();
            let (dist, _) = DistributedTwoSBound::from(engine)
                .run(&cluster, ids.t1)
                .unwrap();
            assert_eq!(local.ranking, dist.ranking, "β={beta}");
            assert_eq!(local.bounds, dist.bounds, "β={beta}");
            assert_eq!(local.expansions, dist.expansions, "β={beta}");
            assert_eq!(local.active, dist.active, "β={beta}");
        }
    }

    /// Workspace reuse changes nothing: result and wire cost are those of
    /// a fresh workspace, query after query, repeats included.
    #[test]
    fn run_with_reuses_workspace_bit_identically() {
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        let cluster = GpCluster::spawn(&g, 2);
        let engine = DistributedTwoSBound::new(params, toy_config());
        let mut ws = DistributedWorkspace::new();
        for q in [ids.t1, ids.v1, ids.t2, ids.t1] {
            let (fresh, fresh_stats) = engine.run(&cluster, q).unwrap();
            let (reused, reused_stats) = engine.run_with(&cluster, q, &mut ws).unwrap();
            assert_eq!(fresh.ranking, reused.ranking, "{q:?}");
            assert_eq!(fresh.bounds, reused.bounds, "{q:?}");
            assert_eq!(fresh.expansions, reused.expansions, "{q:?}");
            assert_eq!(fresh.active, reused.active, "{q:?}");
            assert_eq!(fresh_stats, reused_stats, "{q:?}");
            assert_eq!(reused_stats.blocks_fetched, reused_stats.active_nodes);
            assert_eq!(reused_stats.blocks_from_cache, 0);
        }
    }

    /// A repeat of a query fetches its active set again, round for round
    /// and byte for byte.
    #[test]
    fn a_repeat_query_pays_its_wire_cost_again() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let engine = DistributedTwoSBound::new(RankParams::default(), toy_config());
        let mut ws = DistributedWorkspace::new();
        let (_, first) = engine.run_with(&cluster, ids.t1, &mut ws).unwrap();
        assert!(first.bytes_transferred > 0);
        let (_, again) = engine.run_with(&cluster, ids.t1, &mut ws).unwrap();
        assert_eq!(again, first);
    }

    #[test]
    fn rejected_query_keeps_workspace_usable() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let engine = DistributedTwoSBound::new(RankParams::default(), toy_config());
        let mut ws = DistributedWorkspace::new();
        let (clean, _) = engine.run_with(&cluster, ids.t1, &mut ws).unwrap();
        assert!(engine.run_with(&cluster, NodeId(9999), &mut ws).is_err());
        let (after, _) = engine.run_with(&cluster, ids.t1, &mut ws).unwrap();
        assert_eq!(clean.bounds, after.bounds);
    }

    #[test]
    fn gp_count_does_not_change_results() {
        let (g, ids) = fig2_toy();
        let params = RankParams::default();
        let mut rankings = Vec::new();
        for gps in [1, 2, 5] {
            let cluster = GpCluster::spawn(&g, gps);
            let (res, _) = DistributedTwoSBound::new(params, toy_config())
                .run(&cluster, ids.t1)
                .unwrap();
            rankings.push(res.ranking);
        }
        assert_eq!(rankings[0], rankings[1]);
        assert_eq!(rankings[1], rankings[2]);
    }

    #[test]
    fn active_set_is_fraction_of_graph() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let (_, stats) = DistributedTwoSBound::new(RankParams::default(), toy_config())
            .run(&cluster, ids.t1)
            .unwrap();
        assert!(stats.active_nodes <= g.node_count());
        assert!(stats.active_bytes > 0);
        assert!(stats.fetch_requests > 0);
        assert!(stats.blocks_fetched <= g.node_count());
        assert_eq!(stats.blocks_fetched, stats.active_nodes);
    }

    #[test]
    fn converges_on_toy() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let (res, _) = DistributedTwoSBound::new(RankParams::default(), toy_config())
            .run(&cluster, ids.t1)
            .unwrap();
        assert!(res.converged);
        assert_eq!(res.ranking[0], ids.t1);
    }

    #[test]
    fn k_zero_is_trivially_empty() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let cfg = TopKConfig {
            k: 0,
            ..toy_config()
        };
        let (res, stats) = DistributedTwoSBound::new(RankParams::default(), cfg)
            .run(&cluster, ids.t1)
            .unwrap();
        assert!(res.ranking.is_empty());
        assert!(res.converged);
        assert_eq!(res.expansions, 0);
        assert_eq!(stats, DistributedStats::default());
    }

    #[test]
    fn out_of_range_query_rejected() {
        let (g, _) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let err = DistributedTwoSBound::new(RankParams::default(), toy_config())
            .run(&cluster, NodeId(999))
            .unwrap_err();
        assert!(matches!(err, CoreError::NodeOutOfRange { .. }));
    }

    #[test]
    fn plus_rejects_invalid_beta() {
        let p = RankParams::default();
        for beta in [-0.1, 1.5, f64::NAN] {
            let engine = TwoSBound::for_measure(p, toy_config(), Measure::RtrPlus { beta });
            assert!(matches!(
                engine.map(DistributedTwoSBound::from),
                Err(CoreError::InvalidBeta(_))
            ));
        }
    }
}
