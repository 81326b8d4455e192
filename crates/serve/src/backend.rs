//! Pluggable execution backends.
//!
//! The serving layer's dispatch is a trait, not a hardcoded code path:
//! an [`ExecBackend`] turns one resolved request into a ranking, and the
//! engine neither knows nor cares *where* the computation happened. Two
//! first-class implementations ship:
//!
//! * [`LocalBackend`] — the measure-dispatched workspace engines running
//!   in-process against the shared graph (exactly
//!   [`ResolvedRequest::run`]);
//! * [`DistributedBackend`] — the paper's AP/GP architecture (Sect. V-B):
//!   the worker acts as an active processor driving distributed 2SBound
//!   against graph-processor threads, fetching node blocks on demand. It
//!   runs the bound search for every measure, and takes a **recorded,
//!   deterministic fallback** to local execution for what the exact
//!   engines answer — full rankings (k ≥ \|V\|) and queries of more than
//!   four nodes — so every request shape is servable on either backend.
//!
//! Because the distributed processors run the *same* engine code as the
//! local backend through the shared `rtr_graph::AdjacencyAccess` trait
//! (see `rtr_distributed::dtopk`), the two backends return the same
//! rankings, bounds, and expansion counts for every request —
//! which is why the result cache can stay backend-agnostic: an entry
//! computed by either backend answers both. What differs is the
//! *observability*: a distributed run reports the wire cost it paid
//! ([`DistributedStats`] — bytes transferred, blocks fetched, resident
//! active-set size, the paper's Fig. 12 quantities) in its
//! [`ExecOutcome`].

use crate::request::{ResolvedRequest, ServeWorkspace};
use rtr_cache::EvictionCost;
use rtr_core::CoreError;
use rtr_distributed::{DistributedStats, DistributedTwoSBound, GpCluster};
use rtr_graph::Graph;
use rtr_topk::TopKResult;
use std::fmt;
use std::sync::Arc;

/// Which execution backend a request ran on (its provenance, reported in
/// [`crate::QueryResponse::backend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-process workspace engines over the shared graph.
    Local,
    /// AP/GP distributed 2SBound over a [`GpCluster`].
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

/// What one backend execution produced: the ranking plus provenance —
/// which backend actually ran (a [`DistributedBackend`] records its local
/// fallbacks here) and, for genuinely distributed runs, the wire cost.
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

/// One execution substrate: turns a resolved request into a ranking using
/// the worker's reusable buffers. Implementations must be shareable across
/// the whole pool (`Send + Sync`) and deterministic — the serving layer's
/// bit-identity contract (pool ≡ serial, cached ≡ uncached, distributed ≡
/// local) rests on it.
pub trait ExecBackend: Send + Sync {
    /// Which kind of backend this is (reported as provenance).
    fn kind(&self) -> BackendKind;

    /// Execute `request` against `g`, reusing `ws`'s buffers.
    fn execute(
        &self,
        g: &Graph,
        request: &ResolvedRequest,
        ws: &mut ServeWorkspace,
    ) -> Result<ExecOutcome, CoreError>;
}

/// The in-process backend: the bound search for k < \|V\| and the exact
/// engines for full rankings — see [`ResolvedRequest::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalBackend;

impl ExecBackend for LocalBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Local
    }

    fn execute(
        &self,
        g: &Graph,
        request: &ResolvedRequest,
        ws: &mut ServeWorkspace,
    ) -> Result<ExecOutcome, CoreError> {
        Ok(ExecOutcome {
            result: Arc::new(request.run(g, ws)?),
            backend: BackendKind::Local,
            distributed: None,
        })
    }
}

/// The AP/GP backend: a [`GpCluster`] shared by every worker, each worker
/// acting as an active processor with its own reusable AP-side workspace.
///
/// Routing table (the fallback row is recorded in the outcome's `backend`
/// field):
///
/// | request shape | execution |
/// |---|---|
/// | any measure, k < \|V\|, at most four query nodes | `DistributedTwoSBound` (AP/GP) |
/// | k ≥ \|V\| (full ranking, nothing to prune), or a wider query | local fallback |
pub struct DistributedBackend {
    cluster: GpCluster,
    local: LocalBackend,
}

impl DistributedBackend {
    /// Wrap an already-running cluster.
    pub fn new(cluster: GpCluster) -> Self {
        DistributedBackend {
            cluster,
            local: LocalBackend,
        }
    }

    /// Stripe `g` across `gps` graph processors (clamped to at least 1)
    /// and start their threads.
    pub fn spawn(g: &Graph, gps: usize) -> Self {
        Self::new(GpCluster::spawn(g, gps.max(1)))
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &GpCluster {
        &self.cluster
    }
}

impl ExecBackend for DistributedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Distributed
    }

    fn execute(
        &self,
        g: &Graph,
        request: &ResolvedRequest,
        ws: &mut ServeWorkspace,
    ) -> Result<ExecOutcome, CoreError> {
        // The same rule as the local dispatch: a full ranking or a wide
        // query runs the local exact engines — deterministically (the same
        // request always takes the same path) and recorded (the outcome
        // says local ran).
        let search = request.search()?;
        if !request.bounded(g) {
            return self.local.execute(g, request, ws);
        }
        let (result, stats) = DistributedTwoSBound::from(search).run_query_with(
            &self.cluster,
            &request.query,
            &mut ws.dist,
        )?;
        Ok(ExecOutcome {
            result: Arc::new(result),
            backend: BackendKind::Distributed,
            distributed: Some(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::request::{QueryRequest, MAX_BOUNDED_NODES};
    use rtr_core::{Measure, Query};
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
        let dist = DistributedBackend::spawn(&g, 3);
        let mut ws = ServeWorkspace::new();
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
            let local = LocalBackend.execute(&g, &resolved, &mut ws).unwrap();
            let remote = dist.execute(&g, &resolved, &mut ws).unwrap();
            assert_eq!(local.backend, BackendKind::Local);
            assert_eq!(remote.backend, BackendKind::Distributed);
            assert_eq!(local.result.ranking, remote.result.ranking);
            assert_eq!(local.result.bounds, remote.result.bounds);
            assert_eq!(local.result.expansions, remote.result.expansions);
            assert_eq!(local.result.active, remote.result.active);
            assert!(local.distributed.is_none());
            // The worker's block cache may already be warm (it survives
            // across queries), so wire bytes can be zero — the touched-set
            // accounting must hold regardless.
            let stats = remote.distributed.unwrap();
            assert!(stats.active_nodes > 0);
            assert_eq!(
                stats.blocks_fetched + stats.blocks_from_cache,
                stats.active_nodes
            );
        }
    }

    #[test]
    fn uncovered_shapes_fall_back_to_local_and_record_it() {
        // Only full rankings and queries wider than the bound search
        // serves fall back, whatever the measure.
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let dist = DistributedBackend::spawn(&g, 2);
        let mut ws = ServeWorkspace::new();
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
            let outcome = dist.execute(&g, &resolved, &mut ws).unwrap();
            assert_eq!(outcome.backend, BackendKind::Local, "{resolved:?}");
            assert!(outcome.distributed.is_none());
            let local = LocalBackend.execute(&g, &resolved, &mut ws).unwrap();
            assert_eq!(outcome.result.ranking, local.result.ranking);
            assert_eq!(outcome.result.bounds, local.result.bounds);
        }
    }

    #[test]
    fn distributed_backend_surfaces_engine_errors() {
        let (g, ids) = fig2_toy();
        let defaults = toy_defaults();
        let dist = DistributedBackend::spawn(&g, 2);
        let mut ws = ServeWorkspace::new();
        let bad_beta = QueryRequest::node(ids.t1)
            .with_measure(Measure::RtrPlus { beta: 1.5 })
            .resolve(&defaults);
        assert!(matches!(
            dist.execute(&g, &bad_beta, &mut ws),
            Err(CoreError::InvalidBeta(_))
        ));
        let bad_node = QueryRequest::node(rtr_graph::NodeId(9999)).resolve(&defaults);
        assert!(matches!(
            dist.execute(&g, &bad_node, &mut ws),
            Err(CoreError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_gps_clamps_to_one() {
        let (g, ids) = fig2_toy();
        let dist = DistributedBackend::spawn(&g, 0);
        assert_eq!(dist.cluster().gps(), 1);
        let resolved = QueryRequest::node(ids.t1).resolve(&toy_defaults());
        let outcome = dist
            .execute(&g, &resolved, &mut ServeWorkspace::new())
            .unwrap();
        assert_eq!(outcome.backend, BackendKind::Distributed);
    }
}
