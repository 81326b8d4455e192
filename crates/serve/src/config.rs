//! Serving configuration.

use crate::backend::Backend;
use rtr_core::RankParams;
use rtr_topk::TopKConfig;

/// Configuration of a [`crate::ServeEngine`]: pool size, the execution
/// backend, plus the default parameters a [`crate::QueryRequest`] falls
/// back to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Number of worker threads (clamped to at least 1 at pool start).
    pub workers: usize,
    /// Which execution backend the engine constructs at pool start and
    /// runs every request on ([`Backend::Local`] unless configured
    /// otherwise). Backends are bit-identical, so this knob changes
    /// *where* work happens — and what the responses can observe about
    /// it — never the answers.
    pub backend: Backend,
    /// Random-walk parameters shared by all queries.
    pub params: RankParams,
    /// Top-K search configuration shared by all queries.
    pub topk: TopKConfig,
    /// Total entry budget of the shared result cache; **0 disables the
    /// cache entirely** (the default), in which case serving behaves
    /// bit-for-bit as it did before the cache existed — every query is
    /// computed, nothing is remembered, no key is ever built. With the
    /// cache on, a worker inserts before it takes its next job, so M
    /// concurrent identical requests run the engine at most once per
    /// worker while the entry stays resident.
    pub cache_capacity: usize,
    /// Shard count of the result cache (only read when the cache is on).
    /// More shards, less lock contention; 16 is plenty for CPU-sized pools.
    pub cache_shards: usize,
    /// Record serving metrics (scheduler counters, per-measure latency
    /// histograms, distributed wire counters) into the engine's
    /// [`rtr_obs::Registry`], rendered by
    /// [`crate::ServeEngine::metrics_snapshot`]. Off by default; when off,
    /// the catalog is still registered (snapshots render, all zeros) but
    /// the hot path records nothing — one branch per event.
    pub metrics: bool,
    /// Attach a per-query [`rtr_obs::QueryTrace`] to every
    /// [`crate::QueryResponse`] (timestamped submit → fast-path/enqueue →
    /// dequeue → compute → respond stages, with per-fetch-round
    /// events on the distributed path). Off by default; when off, no trace
    /// is ever allocated and responses carry `None`.
    pub tracing: bool,
}

impl Default for ServeConfig {
    /// Paper defaults (α = 0.25, K = 10, ε = 0.01) with one worker per
    /// available CPU.
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            backend: Backend::Local,
            params: RankParams::default(),
            topk: TopKConfig::default(),
            cache_capacity: 0,
            cache_shards: 16,
            metrics: false,
            tracing: false,
        }
    }
}

impl ServeConfig {
    /// This configuration with `workers` threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// This configuration with the given execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// This configuration with the given top-K settings.
    pub fn with_topk(mut self, topk: TopKConfig) -> Self {
        self.topk = topk;
        self
    }

    /// This configuration with a result cache of `capacity` total entries
    /// (0 turns caching off).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// This configuration with `shards` cache shards.
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// This configuration with metrics recording on or off.
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// This configuration with per-query tracing on or off.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Whether the result cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache_capacity > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_two_sbound() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert_eq!(c.backend, Backend::Local);
        assert_eq!(c.topk.k, 10);
        // The cache ships off by default: the pre-cache serving behavior is
        // the default behavior.
        assert!(!c.cache_enabled());
        assert_eq!(c.cache_capacity, 0);
        assert!(c.cache_shards >= 1);
        // Observability ships off by default: zero-cost unless asked for.
        assert!(!c.metrics);
        assert!(!c.tracing);
    }

    #[test]
    fn observability_builders_apply() {
        let c = ServeConfig::default().with_metrics(true).with_tracing(true);
        assert!(c.metrics && c.tracing);
    }

    #[test]
    fn cache_builders_apply() {
        let c = ServeConfig::default()
            .with_cache_capacity(1024)
            .with_cache_shards(4);
        assert!(c.cache_enabled());
        assert_eq!(c.cache_capacity, 1024);
        assert_eq!(c.cache_shards, 4);
    }

    #[test]
    fn builders_apply() {
        let c = ServeConfig::default()
            .with_workers(3)
            .with_topk(TopKConfig::toy());
        assert_eq!(c.workers, 3);
        assert_eq!(c.topk.k, TopKConfig::toy().k);
    }

    #[test]
    fn backend_builders_apply() {
        let c = ServeConfig::default().with_backend(Backend::Distributed { gps: 4 });
        assert_eq!(c.backend, Backend::Distributed { gps: 4 });
        assert_eq!(c.backend.kind(), crate::BackendKind::Distributed);
    }
}
