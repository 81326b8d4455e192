//! Serving configuration.

use crate::backend::Backend;
use rtr_core::RankParams;
use rtr_distributed::DEFAULT_CACHE_BYTES;
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
    /// cache on, single-flight deduplication is on too: M concurrent
    /// identical requests compute once and share the result, the M−1
    /// duplicates attaching to the owner's in-flight entry instead of
    /// occupying workers.
    pub cache_capacity: usize,
    /// Shard count of the result cache (only read when the cache is on).
    /// More shards, less lock contention; 16 is plenty for CPU-sized pools.
    pub cache_shards: usize,
    /// Cross-query residency budget (in bytes) of each worker's AP-side
    /// [`rtr_distributed::BlockCache`]: between queries the cache drops its
    /// older generation once the younger has passed half of this, so blocks
    /// that keep being touched stay and 0 means no block survives its
    /// query. Only read by distributed backends.
    pub block_cache_bytes: usize,
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
            block_cache_bytes: DEFAULT_CACHE_BYTES,
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

    /// This configuration with a per-worker block-cache budget of
    /// `budget_bytes` for distributed backends (see
    /// [`ServeConfig::block_cache_bytes`]). A pure performance knob —
    /// answers stay bit-identical at any setting.
    pub fn with_block_cache_bytes(mut self, budget_bytes: usize) -> Self {
        self.block_cache_bytes = budget_bytes;
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

    /// A validating builder seeded with the defaults, so callers set only
    /// what they care about and get shape errors at build time instead of
    /// silent clamping at pool start.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// Why a [`ServeConfigBuilder`] refused to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `workers` was 0 — a pool needs at least one thread.
    ZeroWorkers,
    /// The cache was enabled with a shard count of 0 — entries would have
    /// nowhere to live.
    ZeroCacheShards,
    /// A distributed backend was requested with 0 graph processors — there
    /// would be no stripe to fetch from.
    ZeroGps,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ServeConfigError::ZeroCacheShards => {
                write!(f, "cache_shards must be at least 1 when the cache is on")
            }
            ServeConfigError::ZeroGps => {
                write!(f, "a distributed backend needs at least 1 graph processor")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Builder for [`ServeConfig`] (see [`ServeConfig::builder`]): every field
/// starts at its default, and [`ServeConfigBuilder::build`] validates the
/// shape.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl Default for ServeConfigBuilder {
    fn default() -> Self {
        ServeConfig::builder()
    }
}

impl ServeConfigBuilder {
    /// Number of worker threads (validated ≥ 1 at build).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Execution backend (a distributed backend's GP count is validated
    /// ≥ 1 at build).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Default random-walk parameters (requests may override per query).
    pub fn params(mut self, params: RankParams) -> Self {
        self.config.params = params;
        self
    }

    /// Default top-K configuration (requests may override per query).
    pub fn topk(mut self, topk: TopKConfig) -> Self {
        self.config.topk = topk;
        self
    }

    /// Result-cache entry budget (0 keeps the cache off).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Result-cache shard count (validated ≥ 1 at build when the cache is
    /// on).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.config.cache_shards = shards;
        self
    }

    /// Per-worker block-cache budget for distributed backends (see
    /// [`ServeConfig::with_block_cache_bytes`]).
    pub fn block_cache_bytes(mut self, budget_bytes: usize) -> Self {
        self.config.block_cache_bytes = budget_bytes;
        self
    }

    /// Metrics recording on or off (see [`ServeConfig::metrics`]).
    pub fn metrics(mut self, metrics: bool) -> Self {
        self.config.metrics = metrics;
        self
    }

    /// Per-query tracing on or off (see [`ServeConfig::tracing`]).
    pub fn tracing(mut self, tracing: bool) -> Self {
        self.config.tracing = tracing;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        if self.config.workers == 0 {
            return Err(ServeConfigError::ZeroWorkers);
        }
        if self.config.cache_enabled() && self.config.cache_shards == 0 {
            return Err(ServeConfigError::ZeroCacheShards);
        }
        if self.config.backend == (Backend::Distributed { gps: 0 }) {
            return Err(ServeConfigError::ZeroGps);
        }
        Ok(self.config)
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
        let c = ServeConfig::builder()
            .metrics(true)
            .tracing(true)
            .build()
            .unwrap();
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
    fn validating_builder_defaults_match_default() {
        let built = ServeConfig::builder().build().unwrap();
        let default = ServeConfig::default();
        assert_eq!(built, default);
    }

    #[test]
    fn validating_builder_sets_every_field() {
        let c = ServeConfig::builder()
            .workers(3)
            .params(RankParams::with_alpha(0.4))
            .topk(TopKConfig::toy())
            .cache_capacity(512)
            .cache_shards(4)
            .build()
            .unwrap();
        assert_eq!(c.workers, 3);
        assert_eq!(c.params.alpha, 0.4);
        assert_eq!(c.topk.k, TopKConfig::toy().k);
        assert_eq!(c.cache_capacity, 512);
        assert_eq!(c.cache_shards, 4);
    }

    #[test]
    fn validating_builder_rejects_bad_shapes() {
        assert_eq!(
            ServeConfig::builder().workers(0).build(),
            Err(ServeConfigError::ZeroWorkers)
        );
        assert_eq!(
            ServeConfig::builder()
                .cache_capacity(64)
                .cache_shards(0)
                .build(),
            Err(ServeConfigError::ZeroCacheShards)
        );
        // Zero shards with the cache off is harmless: nothing reads them.
        assert!(ServeConfig::builder().cache_shards(0).build().is_ok());
        assert_eq!(
            ServeConfig::builder()
                .backend(Backend::Distributed { gps: 0 })
                .build(),
            Err(ServeConfigError::ZeroGps)
        );
    }

    #[test]
    fn block_cache_builders_apply() {
        let d = ServeConfig::default();
        assert_eq!(d.block_cache_bytes, DEFAULT_CACHE_BYTES);
        let c = ServeConfig::default().with_block_cache_bytes(1024);
        assert_eq!(c.block_cache_bytes, 1024);
        let c = ServeConfig::builder().block_cache_bytes(0).build().unwrap();
        assert_eq!(
            c.block_cache_bytes, 0,
            "0 = no cross-query residency, valid"
        );
    }

    #[test]
    fn backend_builders_apply() {
        let c = ServeConfig::default().with_backend(Backend::Distributed { gps: 4 });
        assert_eq!(c.backend, Backend::Distributed { gps: 4 });
        let c = ServeConfig::builder()
            .backend(Backend::Distributed { gps: 2 })
            .build()
            .unwrap();
        assert_eq!(c.backend.kind(), crate::BackendKind::Distributed);
    }
}
