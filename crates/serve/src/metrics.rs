//! The engine's metric catalog: every instrument the serving layer
//! records into, registered once at pool start.
//!
//! [`ServeMetrics`] holds pre-fetched `Arc` handles into the engine's
//! [`Registry`], so the hot path never touches the registry lock — a
//! recorded event is one or two relaxed atomic adds. The whole surface is
//! gated on [`crate::ServeConfig::metrics`]: the catalog is registered
//! either way (so [`crate::ServeEngine::metrics_snapshot`] always renders
//! a complete, if zeroed, exposition), but with metrics off every
//! recording method returns after one branch.
//!
//! See `docs/OBSERVABILITY.md` for the full metric catalog and naming
//! conventions.

use crate::config::ServeConfig;
use crate::engine::ServeError;
use rtr_cache::EvictionCost;
use rtr_core::Measure;
use rtr_distributed::DistributedStats;
use rtr_graph::Graph;
use rtr_obs::{Counter, Gauge, Histogram, Registry, Unit};
use rtr_topk::TopKResult;
use std::sync::Arc;
use std::time::Duration;

/// The measures a response can carry, as stable label values. Index order
/// matches [`measure_idx`].
pub(crate) const MEASURE_LABELS: [&str; 4] = ["f", "t", "rtr", "rtr_plus"];

/// Dense index of a measure into per-measure instrument arrays.
pub(crate) fn measure_idx(measure: Measure) -> usize {
    match measure {
        Measure::F => 0,
        Measure::T => 1,
        Measure::Rtr => 2,
        Measure::RtrPlus { .. } => 3,
    }
}

/// Pre-registered handles for everything the job queue and serving paths
/// record. Cheap to clone into worker closures (`Arc`s all the way down).
pub(crate) struct ServeMetrics {
    /// Mirror of [`ServeConfig::metrics`]: when false, recording is a
    /// single branch and nothing is touched.
    pub(crate) enabled: bool,
    responses: [Arc<Counter>; 4],
    latency: [Arc<Histogram>; 4],
    queue_wait: Arc<Histogram>,
    compute: Arc<Histogram>,
    err_query: Arc<Counter>,
    err_backend: Arc<Counter>,
    err_panicked: Arc<Counter>,
    err_refused: Arc<Counter>,
    fast_path: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) cache_enabled: Arc<Gauge>,
    wire_bytes: Arc<Counter>,
    fetch_rounds: Arc<Counter>,
    blocks_fetched: Arc<Counter>,
    /// `[f, t]`: rounds in which the side expanded.
    side_expansions: [Arc<Counter>; 2],
    /// `[f, t]`: Stage II sweeps over the side's neighborhoods.
    refine_sweeps: [Arc<Counter>; 2],
    miss_cost: Arc<Counter>,
}

impl ServeMetrics {
    /// Register the full catalog in `registry` and capture handles.
    /// Histograms are sharded for `workers` recorders plus the submitting
    /// thread (the fast path records inline). The graph's resident bytes
    /// are set here, once: the graph never changes under an engine.
    pub(crate) fn new(registry: &Registry, config: &ServeConfig, graph: &Graph) -> ServeMetrics {
        for (part, bytes) in graph.resident_bytes() {
            let gauge = registry.gauge_with(
                "rtr_graph_bytes",
                &[("part", part)],
                "Resident bytes of the served graph, by part.",
            );
            if config.metrics {
                gauge.set(bytes as i64);
            }
        }
        let shards = config.workers.max(1) + 1;
        let hist = |name: &str, label: &str, help: &str| {
            registry.histogram_with(name, &[("measure", label)], help, Unit::Nanoseconds, shards)
        };
        ServeMetrics {
            enabled: config.metrics,
            responses: MEASURE_LABELS.map(|m| {
                registry.counter_with(
                    "rtr_serve_responses_total",
                    &[("measure", m)],
                    "Responses sent, by measure (errors included).",
                )
            }),
            latency: MEASURE_LABELS.map(|m| {
                hist(
                    "rtr_serve_latency_seconds",
                    m,
                    "End-to-end latency (queue wait + compute), by measure.",
                )
            }),
            queue_wait: registry.histogram_with(
                "rtr_serve_queue_wait_seconds",
                &[],
                "Time between submission and a worker picking the request up.",
                Unit::Nanoseconds,
                shards,
            ),
            compute: registry.histogram_with(
                "rtr_serve_compute_seconds",
                &[],
                "Time spent serving a picked-up request (cache lookups included).",
                Unit::Nanoseconds,
                shards,
            ),
            err_query: registry.counter_with(
                "rtr_serve_errors_total",
                &[("kind", "query")],
                "Requests that failed, by error kind.",
            ),
            err_backend: registry.counter_with(
                "rtr_serve_errors_total",
                &[("kind", "backend")],
                "Requests that failed, by error kind.",
            ),
            err_panicked: registry.counter_with(
                "rtr_serve_errors_total",
                &[("kind", "panicked")],
                "Requests that failed, by error kind.",
            ),
            err_refused: registry.counter_with(
                "rtr_serve_errors_total",
                &[("kind", "refused")],
                "Requests that failed, by error kind.",
            ),
            fast_path: registry.counter(
                "rtr_serve_fast_path_total",
                "Requests completed inline on the submitting thread.",
            ),
            queue_depth: registry.gauge(
                "rtr_serve_queue_depth",
                "Jobs waiting in the job queue (polled at snapshot).",
            ),
            cache_enabled: registry.gauge(
                "rtr_serve_cache_enabled",
                "1 when the result cache is configured, 0 when disabled \
                 (distinguishes a disabled cache from an idle one).",
            ),
            wire_bytes: registry.counter(
                "rtr_dist_wire_bytes_total",
                "Payload bytes received over the AP/GP wire.",
            ),
            fetch_rounds: registry.counter(
                "rtr_dist_fetch_rounds_total",
                "Batched AP/GP fetch rounds issued.",
            ),
            blocks_fetched: registry.counter(
                "rtr_dist_blocks_fetched_total",
                "Demanded node blocks received over the wire.",
            ),
            side_expansions: ["f", "t"].map(|side| {
                registry.counter_with(
                    "rtr_topk_side_expansions_total",
                    &[("side", side)],
                    "Bound-search rounds in which the side's neighborhood expanded.",
                )
            }),
            refine_sweeps: ["f", "t"].map(|side| {
                registry.counter_with(
                    "rtr_topk_refine_sweeps_total",
                    &[("side", side)],
                    "Stage II refinement sweeps over the side's neighborhoods.",
                )
            }),
            miss_cost: registry.counter(
                "rtr_serve_miss_cost_total",
                "Eviction cost (BCA pushes + T absorptions) of the responses that were computed, not served from cache.",
            ),
        }
    }

    /// Record one sent response: per-measure count and latency split,
    /// error/fast-path counters, and — for a response that *computed*
    /// (`!from_cache`; cached responses replay the original run's
    /// counts) — the bound search's work, its eviction cost and, on the
    /// distributed backend, the wire cost.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_response(
        &self,
        measure: Measure,
        queue_wait: Duration,
        compute: Duration,
        error: Option<&ServeError>,
        result: Option<&TopKResult>,
        distributed: Option<&DistributedStats>,
        fast_path: bool,
        from_cache: bool,
    ) {
        if !self.enabled {
            return;
        }
        let i = measure_idx(measure);
        self.responses[i].inc();
        self.latency[i].record_duration(queue_wait + compute);
        self.queue_wait.record_duration(queue_wait);
        self.compute.record_duration(compute);
        if fast_path {
            self.fast_path.inc();
        }
        match error {
            Some(ServeError::Query(_)) => self.err_query.inc(),
            Some(ServeError::Backend(_)) => self.err_backend.inc(),
            Some(ServeError::Panicked(_)) => self.err_panicked.inc(),
            Some(ServeError::Refused(_)) => self.err_refused.inc(),
            None => {}
        }
        if !from_cache {
            if let Some(r) = result {
                let w = &r.work;
                self.side_expansions[0].add(w.f_rounds as u64);
                self.side_expansions[1].add(w.t_rounds as u64);
                self.refine_sweeps[0].add(w.f_sweeps as u64);
                self.refine_sweeps[1].add(w.t_sweeps as u64);
                self.miss_cost.add(r.eviction_cost());
            }
            if let Some(stats) = distributed {
                self.wire_bytes.add(stats.bytes_transferred as u64);
                self.fetch_rounds.add(stats.fetch_requests as u64);
                self.blocks_fetched.add(stats.blocks_fetched as u64);
            }
        }
    }
}
