//! Where a request ran, and what running it produced.
//!
//! A worker answers every request with one function,
//! [`ResolvedRequest::execute`](crate::ResolvedRequest::execute), which
//! decides once whether the bound search serves the request and, when it
//! does, runs it on the engine's
//! [`GpCluster`](rtr_distributed::GpCluster) if the engine has one. That
//! is the paper's AP/GP architecture (Sect. V-B): the worker acts as an
//! active processor running the same 2SBound as a local engine, paging
//! node blocks from graph-processor threads instead of reading the shared
//! graph. Full rankings (k ≥ \|V\|) and queries of more than four nodes
//! run the exact engines in-process on either kind of engine, and the
//! outcome records that they ran locally.
//!
//! Because the active processor runs the *same* engine code as the local
//! path through the shared `rtr_graph::AdjacencyAccess` trait (see
//! `rtr_distributed::dtopk`), both return the same rankings, bounds and
//! expansion counts for every request — which is why the result cache can
//! stay backend-agnostic: an entry computed on either answers both. What
//! differs is the *observability*: a distributed run reports the wire cost
//! it paid ([`DistributedStats`] — bytes transferred, blocks fetched,
//! resident active-set size, the paper's Fig. 12 quantities) in its
//! [`ExecOutcome`].

use rtr_cache::EvictionCost;
use rtr_distributed::DistributedStats;
use rtr_topk::TopKResult;
use std::fmt;
use std::sync::Arc;

/// Which execution backend a request ran on (its provenance, reported in
/// [`crate::QueryResponse::backend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-process workspace engines over the shared graph.
    Local,
    /// AP/GP distributed 2SBound over a
    /// [`GpCluster`](rtr_distributed::GpCluster).
    Distributed,
}

impl BackendKind {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Local => "local",
            BackendKind::Distributed => "distributed",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Backend construction for a [`crate::ServeConfig`]: which execution
/// substrate the engine builds at pool start and runs every request on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Serve everything with the in-process engines (the default).
    #[default]
    Local,
    /// Stripe the graph across `gps` graph-processor threads at pool start
    /// and run the bound searches through distributed 2SBound.
    Distributed {
        /// Number of graph processors to spawn (clamped to at least 1).
        gps: usize,
    },
}

impl Backend {
    /// The kind of backend this construction builds.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Local => BackendKind::Local,
            Backend::Distributed { .. } => BackendKind::Distributed,
        }
    }
}

/// What one execution produced: the ranking plus provenance — which
/// backend actually ran (a distributed engine's exact runs record
/// [`BackendKind::Local`] here) and, for genuinely distributed runs, the
/// wire cost.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The top-K result (bit-identical across backends for the same
    /// resolved request). Shared as an `Arc` so a cached outcome is served
    /// by reference count, never by deep-cloning the ranking vectors.
    pub result: Arc<TopKResult>,
    /// The backend that actually executed the request.
    pub backend: BackendKind,
    /// Network-level statistics of a distributed execution (`None` for
    /// local runs, including recorded fallbacks).
    pub distributed: Option<DistributedStats>,
}

/// An outcome costs what its ranking cost to compute; where it ran does
/// not matter, since either backend can recompute it.
impl EvictionCost for ExecOutcome {
    fn eviction_cost(&self) -> u64 {
        self.result.eviction_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::request::{QueryRequest, MAX_BOUNDED_NODES};
    use rtr_core::{CoreError, Measure, Query};
    use rtr_distributed::{DistributedWorkspace, GpCluster};
    use rtr_graph::toy::fig2_toy;
    use rtr_topk::TopKConfig;

    fn toy_defaults() -> ServeConfig {
        ServeConfig::default().with_topk(TopKConfig::toy())
    }

    #[test]
    fn backend_kinds_and_names() {
        assert_eq!(Backend::Local.kind(), BackendKind::Local);
        assert_eq!(
            Backend::Distributed { gps: 3 }.kind(),
            BackendKind::Distributed
        );
        assert_eq!(BackendKind::Local.name(), "local");
        assert_eq!(format!("{}", BackendKind::Distributed), "distributed");
        assert_eq!(Backend::default(), Backend::Local);
    }

    #[test]
    fn local_and_distributed_agree_bit_for_bit() {
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let cluster = GpCluster::spawn(&g, 3);
        let mut ws = DistributedWorkspace::new();
        for request in [
            QueryRequest::node(ids.t1),
            QueryRequest::node(ids.v1).with_measure(Measure::RtrPlus { beta: 0.7 }),
            QueryRequest::node(ids.t1).with_measure(Measure::F),
            QueryRequest::node(ids.v2).with_measure(Measure::T),
            QueryRequest::nodes(&[ids.t1, ids.t2]),
            QueryRequest::new(Query::weighted(&[(ids.t1, 3.0), (ids.v3, 1.0)]).unwrap())
                .with_measure(Measure::T),
        ] {
            let resolved = request.resolve(&defaults);
            let local = resolved.execute(&g, None, &mut ws).unwrap();
            let remote = resolved.execute(&g, Some(&cluster), &mut ws).unwrap();
            assert_eq!(local.backend, BackendKind::Local);
            assert_eq!(remote.backend, BackendKind::Distributed);
            assert_eq!(local.result.ranking, remote.result.ranking);
            assert_eq!(local.result.bounds, remote.result.bounds);
            assert_eq!(local.result.expansions, remote.result.expansions);
            assert_eq!(local.result.active, remote.result.active);
            assert!(local.distributed.is_none());
            // Every query fetches exactly its own active set.
            let stats = remote.distributed.unwrap();
            assert!(stats.active_nodes > 0);
            assert!(stats.bytes_transferred > 0);
            assert_eq!(stats.blocks_fetched, stats.active_nodes);
            assert_eq!(stats.blocks_from_cache, 0);
        }
    }

    #[test]
    fn uncovered_shapes_fall_back_to_local_and_record_it() {
        // Only full rankings and queries wider than the bound search
        // serves run locally on a cluster, whatever the measure.
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let cluster = GpCluster::spawn(&g, 2);
        let mut ws = DistributedWorkspace::new();
        let n = g.node_count();
        let wide: Vec<_> = g.nodes().take(MAX_BOUNDED_NODES + 1).collect();
        let fallbacks = [
            QueryRequest::nodes(&wide).with_measure(Measure::F),
            QueryRequest::node(ids.t1).with_k(n),
            QueryRequest::node(ids.t1)
                .with_measure(Measure::F)
                .with_k(n),
            QueryRequest::nodes(&[ids.t1, ids.t2])
                .with_measure(Measure::T)
                .with_k(n + 3),
        ];
        for request in fallbacks {
            let resolved = request.resolve(&defaults);
            let outcome = resolved.execute(&g, Some(&cluster), &mut ws).unwrap();
            assert_eq!(outcome.backend, BackendKind::Local, "{resolved:?}");
            assert!(outcome.distributed.is_none());
            let local = resolved.execute(&g, None, &mut ws).unwrap();
            assert_eq!(outcome.result.ranking, local.result.ranking);
            assert_eq!(outcome.result.bounds, local.result.bounds);
        }
    }

    #[test]
    fn distributed_backend_surfaces_engine_errors() {
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let cluster = GpCluster::spawn(&g, 2);
        let mut ws = DistributedWorkspace::new();
        let bad_beta = QueryRequest::node(ids.t1)
            .with_measure(Measure::RtrPlus { beta: 1.5 })
            .resolve(&defaults);
        assert!(matches!(
            bad_beta.execute(&g, Some(&cluster), &mut ws),
            Err(CoreError::InvalidBeta(_))
        ));
        let bad_node = QueryRequest::node(rtr_graph::NodeId(9999)).resolve(&defaults);
        assert!(matches!(
            bad_node.execute(&g, Some(&cluster), &mut ws),
            Err(CoreError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_gps_clamps_to_one() {
        let (g, ids) = fig2_toy();
        let config = toy_defaults()
            .with_workers(1)
            .with_backend(Backend::Distributed { gps: 0 });
        let engine = crate::ServeEngine::start(Arc::new(g), config);
        assert_eq!(engine.cluster().expect("distributed engine").gps(), 1);
        let outcome = engine.submit(QueryRequest::node(ids.t1)).wait();
        assert!(outcome.result.is_ok());
        assert_eq!(outcome.backend, BackendKind::Distributed);
    }
}
