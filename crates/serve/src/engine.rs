//! The worker pool and its job queue.
//!
//! One [`ServeEngine`] owns `workers` long-lived threads. Each worker pulls
//! jobs off one shared FIFO channel, resolves nothing (requests arrive
//! pre-resolved against the engine defaults), runs the request with
//! [`ResolvedRequest::execute`] (on the engine's [`GpCluster`] when it has
//! one), and sends a [`QueryResponse`] down the request's reply channel.
//! Every worker owns one persistent [`DistributedWorkspace`]: the sparse
//! top-K buffers of the bound search, which both the local and the AP/GP
//! path run on, pre-sized to the graph at spawn for the first query node
//! (so even a worker's *first* single-node query pays no O(|V|)
//! allocations), plus the AP-side store of the running query's blocks.
//! The buffers are wiped in O(touched) between queries and never freed
//! while the worker lives: steady-state serving allocates no per-query
//! index arrays, and keeps no block past its query.
//!
//! **Scheduling** never changes answers, only who runs a request and how
//! long it queues:
//!
//! * **fast path** — submission first probes the result cache on the
//!   submitting thread; a hit completes inline with zero queue wait and
//!   `worker: None`. Nothing is ever *computed* on the submitting thread.
//! * **one job queue** — everything else is one `send` on an unbounded
//!   MPMC channel that every worker `recv`s from. Each job is a whole
//!   bound search (milliseconds), so one short lock per job is noise
//!   next to it.
//! * **duplicates** — a worker runs one job at a time and inserts its
//!   result before it takes the next, so a burst of identical misses runs
//!   the engine at most once per worker while the entry stays resident;
//!   later copies hit, on a worker or on the fast path. Errors are never
//!   cached: each failing copy computes on its own.
//!
//! The engine holds the only `Sender`. Shutdown drops it: each worker's
//! `recv` keeps returning queued jobs until the channel is empty and only
//! then fails, so every job submitted before shutdown is answered; the
//! engine then joins the threads.

use crate::backend::{Backend, BackendKind, ExecOutcome};
use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::request::{QueryRequest, ResolvedRequest};
use crate::response::{QueryResponse, QueryTicket};
use crate::rtr_sync::atomic::{AtomicU64, Ordering};
use crossbeam::channel::{self, Sender};
use rtr_cache::{CacheConfig, CacheKey, CacheStats, ShardedCache};
use rtr_core::CoreError;
use rtr_distributed::{DistributedWorkspace, GpCluster};
use rtr_graph::Graph;
use rtr_obs::{MetricsSnapshot, QueryTrace, Registry, TraceStage};
use rtr_topk::TopKWorkspace;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The engine's result cache: full execution outcomes (ranking + wire
/// cost), shared as `Arc`s so a hit never clones vectors under the shard
/// lock. Keys stay backend-agnostic — backends are bit-identical, so the
/// same key answers on either.
type OutcomeCache = ShardedCache<CacheKey, Arc<ExecOutcome>>;

/// Why a served query produced no result. Workers survive *any* failing
/// query — including one that panics inside the engine — so a bad query
/// can never hang or poison the rest of its batch.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The engine rejected or failed the query (e.g. an out-of-range node
    /// id, an invalid β).
    Query(CoreError),
    /// The execution backend failed *underneath* a valid query — e.g. a
    /// dead graph processor. The detail names the failed component
    /// ("graph processor 2 is not running"), so an operator can tell a bad
    /// request from a sick backend at a glance. The worker's buffers
    /// survive; it keeps serving.
    Backend(String),
    /// The query panicked inside the engine; the worker caught it,
    /// rebuilt its (possibly mid-mutation) workspace as at spawn, and kept
    /// serving.
    Panicked(String),
    /// A valid request of a shape the bound search does not serve — a
    /// full ranking (k ≥ \|V\|) or a query wider than the search's node
    /// limit — refused before any engine ran. The message names the limit
    /// and the request's value.
    Refused(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::Backend(msg) => write!(f, "backend failed: {msg}"),
            ServeError::Panicked(msg) => write!(f, "query panicked: {msg}"),
            ServeError::Refused(msg) => write!(f, "request refused: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        match e {
            // An adjacency-source failure is the backend's fault, not the
            // request's: surface it distinctly, naming the component.
            CoreError::Adjacency(a) => ServeError::Backend(a.to_string()),
            e => ServeError::Query(e),
        }
    }
}

/// Human-readable payload of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A unit of work: which request to run and where to send the response.
struct Job {
    id: usize,
    request: ResolvedRequest,
    enqueued: Instant,
    reply: Sender<QueryResponse>,
    /// The request's trace, carried with the job from submission to
    /// response so each stage stamps into the same timeline. `None`
    /// unless the engine runs with [`ServeConfig::tracing`].
    trace: Option<Box<QueryTrace>>,
}

/// State every worker shares: the graph and (when caching is on) the
/// result cache, and the computation counter the duplicate-request tests
/// assert on.
struct Shared {
    graph: Arc<Graph>,
    config: ServeConfig,
    /// The graph processors, spawned at pool start when the config says
    /// [`Backend::Distributed`]; without them every request runs on the
    /// shared graph.
    cluster: Option<GpCluster>,
    cache: Option<OutcomeCache>,
    /// Queries that actually ran an engine (as opposed to being answered
    /// from the cache).
    computed: AtomicU64,
    /// The engine's metric registry; [`ServeEngine::metrics_snapshot`]
    /// renders it. The catalog is registered even with metrics off, so a
    /// snapshot is always complete (if zeroed).
    registry: Registry,
    /// Pre-fetched recording handles; every `m.on_*` call is a no-op
    /// branch unless [`ServeConfig::metrics`] is set.
    m: ServeMetrics,
}

impl Shared {
    /// The workspace a worker serves with, built at spawn and again after
    /// a caught panic: the top-K buffers pre-sized to the graph, so even a
    /// worker's first query pays no O(|V|) allocation, and an empty block
    /// store that each distributed query clears when it starts.
    fn workspace(&self) -> DistributedWorkspace {
        DistributedWorkspace {
            topk: TopKWorkspace::with_capacity(self.graph.node_count()),
            ..DistributedWorkspace::new()
        }
    }

    /// Run one job's request, recycling `ws`. Catches panics so a bad
    /// query can never kill the worker, and counts the computation. The
    /// job's trace (if any) is parked in the workspace for the duration of
    /// the run, so the distributed engine can stamp per-fetch-round events
    /// into the same timeline.
    fn compute(
        &self,
        job: &mut Job,
        ws: &mut DistributedWorkspace,
    ) -> Result<Arc<ExecOutcome>, ServeError> {
        // ordering: Relaxed — computed_queries() is a telemetry read; the
        // duplicate-request tests that assert on it only read after join().
        self.computed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = job.trace.as_deref_mut() {
            t.record(TraceStage::ComputeStart);
        }
        ws.trace = job.trace.take();
        let request = &job.request;
        let result = self.caught(ws, |ws| {
            request.execute(&self.graph, self.cluster.as_ref(), ws)
        });
        // The trace survives a panic: a rebuilt workspace keeps it.
        job.trace = ws.trace.take();
        if let Some(t) = job.trace.as_deref_mut() {
            t.record(TraceStage::ComputeEnd);
        }
        result.map(Arc::new)
    }

    /// Run `exec` on the worker's workspace. A panic is caught and
    /// reported, and since the workspace may have been mid-mutation when
    /// it unwound, the worker's is rebuilt as at spawn (its trace kept).
    fn caught(
        &self,
        ws: &mut DistributedWorkspace,
        exec: impl FnOnce(&mut DistributedWorkspace) -> Result<ExecOutcome, ServeError>,
    ) -> Result<ExecOutcome, ServeError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec(ws))) {
            Ok(r) => r,
            Err(panic) => {
                let trace = ws.trace.take();
                *ws = self.workspace();
                ws.trace = trace;
                Err(ServeError::Panicked(panic_message(&*panic)))
            }
        }
    }

    /// The worker's serving path for one dequeued job: cache lookup,
    /// compute, insert (on success), respond. With the cache off this is
    /// exactly one [`Shared::compute`] call — the uncached behavior.
    fn handle(&self, mut job: Job, worker: usize, ws: &mut DistributedWorkspace) {
        let picked = Instant::now();
        let queue_wait = picked.duration_since(job.enqueued);
        let Some(cache) = &self.cache else {
            let served = self.compute(&mut job, ws);
            self.respond(job, Some(worker), served, false, queue_wait, picked);
            return;
        };
        let key = job.request.cache_key(self.graph.epoch());
        if let Some(hit) = cache.get(&key) {
            // Backends are deterministic and bit-identical, and every
            // output-relevant input is in the (backend-agnostic) key, so
            // the cached ranking is bit-identical to what a fresh run on
            // *either* backend would produce. The stored outcome keeps the
            // original computation's wire cost — and serving it is a
            // refcount bump, not a deep clone.
            self.respond(job, Some(worker), Ok(hit), true, queue_wait, picked);
            return;
        }
        let served = self.compute(&mut job, ws);
        // Failed queries are not cached (and are cheap to redo).
        if let Ok(outcome) = &served {
            cache.insert(key, Arc::clone(outcome));
            if let Some(t) = job.trace.as_deref_mut() {
                t.record(TraceStage::CacheInsert);
            }
        }
        self.respond(job, Some(worker), served, false, queue_wait, picked);
    }

    /// The fast path, run on the *submitting* thread: one cache probe. A
    /// hit is answered inline (`worker: None`, zero queue wait); a miss
    /// hands the job back (`Some(job)`) for queueing. The probe is
    /// `recheck`, which counts a hit but not a miss — the worker that picks
    /// a missed job up looks it up again with `get`, and that is where the
    /// miss is counted. Never computes, and never blocks on another
    /// thread's computation.
    fn try_fast_serve(&self, job: Job) -> Option<Job> {
        let Some(cache) = &self.cache else {
            return Some(job);
        };
        let key = job.request.cache_key(self.graph.epoch());
        let Some(hit) = cache.recheck(&key) else {
            return Some(job);
        };
        let submitted = job.enqueued;
        self.respond(job, None, Ok(hit), true, Duration::ZERO, submitted);
        None
    }

    /// Build and send the response for one served job. Every response —
    /// fast-pathed, queued, errored — passes through here
    /// exactly once, which makes this the engine's single metrics and
    /// trace-finalization point.
    fn respond(
        &self,
        mut job: Job,
        worker: Option<usize>,
        served: Result<Arc<ExecOutcome>, ServeError>,
        from_cache: bool,
        queue_wait: Duration,
        picked: Instant,
    ) {
        let compute = picked.elapsed();
        let (result, distributed) = match served {
            Ok(outcome) => (Ok(Arc::clone(&outcome.result)), outcome.distributed),
            Err(e) => (Err(e), None),
        };
        self.m.on_response(
            job.request.measure,
            queue_wait,
            compute,
            result.as_ref().err(),
            result.as_ref().ok().map(|r| &**r),
            distributed.as_ref(),
            worker.is_none(),
            from_cache,
        );
        let mut trace = job.trace.take();
        if let Some(t) = trace.as_deref_mut() {
            if worker.is_none() {
                // Completed inline on the submitting thread: no worker
                // ever touched it.
                t.record(TraceStage::FastPath);
            }
            t.record(TraceStage::Respond);
        }
        let response = QueryResponse {
            id: job.id,
            request: job.request,
            result,
            backend: self.config.backend.kind(),
            distributed,
            from_cache,
            queue_wait,
            compute,
            worker,
            trace,
        };
        // A dropped reply receiver means the caller gave up; keep serving
        // other traffic.
        let _ = job.reply.send(response);
    }
}

/// A fixed pool of query workers over a shared read-only graph, serving
/// self-describing [`QueryRequest`]s.
///
/// See the [crate docs](crate) for an end-to-end example. Requests and
/// batches may be submitted from multiple threads concurrently; each batch
/// collects only its own responses.
pub struct ServeEngine {
    shared: Arc<Shared>,
    /// The job queue's only sender; `None` once shutdown has dropped it.
    jobs: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Start `config.workers` (at least 1) worker threads over `graph`. A
    /// [`Backend::Distributed`] config stripes the graph across its GP
    /// threads (at least 1) here, once, shared by every worker.
    ///
    /// Every worker's reusable workspace is pre-sized to the graph here,
    /// at spawn — a worker's *first* query pays no O(|V|) allocation burst,
    /// which would otherwise show up as a one-off tail-latency spike in
    /// load benchmarks.
    pub fn start(graph: Arc<Graph>, config: ServeConfig) -> Self {
        let workers = config.workers.max(1);
        let cluster = match config.backend {
            Backend::Local => None,
            Backend::Distributed { gps } => Some(GpCluster::spawn(&graph, gps.max(1))),
        };
        let registry = Registry::new();
        let m = ServeMetrics::new(&registry, &config, &graph);
        let shared = Arc::new(Shared {
            cluster,
            cache: config.cache_enabled().then(|| {
                OutcomeCache::new(CacheConfig {
                    capacity: config.cache_capacity,
                    shards: config.cache_shards,
                })
            }),
            computed: AtomicU64::new(0),
            graph,
            config,
            registry,
            m,
        });
        shared.m.cache_enabled.set(shared.cache.is_some() as i64);
        let (jobs, queue) = channel::unbounded::<Job>();
        let handles = (0..workers)
            .map(|idx| {
                let queue = queue.clone();
                let shared = Arc::clone(&shared);
                // Built on the thread that starts the engine: glibc gives
                // each thread a malloc arena of its own, and this thread's
                // heap holds what the graph's set-up freed (the label text
                // among it), which the pre-sized workspace then reuses
                // instead of growing the worker's arena.
                let mut ws = shared.workspace();
                // Panics inside a query are caught in Shared::compute; a
                // dead worker would strand the jobs still queued and hang
                // their batches.
                std::thread::spawn(move || {
                    while let Ok(mut job) = queue.recv() {
                        if let Some(t) = job.trace.as_deref_mut() {
                            t.record(TraceStage::Dequeue);
                        }
                        shared.handle(job, idx, &mut ws);
                    }
                })
            })
            .collect();
        ServeEngine {
            shared,
            jobs: Some(jobs),
            handles,
        }
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.shared.graph
    }

    /// The kind of backend every request runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.shared.config.backend.kind()
    }

    /// The graph processors, when this engine was started with
    /// [`Backend::Distributed`].
    pub fn cluster(&self) -> Option<&GpCluster> {
        self.shared.cluster.as_ref()
    }

    /// Result-cache traffic counters, or `None` when the cache is off.
    ///
    /// The `Option` distinguishes **disabled** from **idle**: `None`
    /// means the engine was started without a cache
    /// ([`ServeConfig::cache_capacity`] = 0) and no amount of traffic
    /// will ever produce stats; `Some(CacheStats::default())` (all
    /// zeros) means the cache exists but has seen no traffic yet. The
    /// same distinction is visible in [`ServeEngine::metrics_snapshot`]
    /// as the `rtr_serve_cache_enabled` gauge (1/0) — a scraper can
    /// tell "cache off" from "zero hits" without the `Option`.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.shared.cache.as_ref().map(|c| c.stats())
    }

    /// One coherent snapshot of every metric the engine registers —
    /// serving counters, latency histograms, result-cache and
    /// distributed wire telemetry. Render it with
    /// [`MetricsSnapshot::to_prometheus`].
    ///
    /// The full catalog is present (zeroed) even when the engine runs
    /// with [`ServeConfig::metrics`] off, so scrapers see a stable schema
    /// either way. Point-in-time gauges (job-queue depth, cache occupancy)
    /// are polled here, at snapshot time.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let depth = self.jobs.as_ref().map_or(0, Sender::len);
        self.shared.m.queue_depth.set(depth as i64);
        self.shared
            .m
            .cache_enabled
            .set(self.shared.cache.is_some() as i64);
        if let Some(cache) = &self.shared.cache {
            cache.export_metrics(&self.shared.registry);
        }
        self.shared.registry.snapshot()
    }

    /// The engine's metric registry, for callers that want to register
    /// their own instruments alongside the engine's (one exposition for
    /// the whole process) or hold pre-fetched handles.
    pub fn metrics_registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Entries currently resident in the result cache (0 when off).
    pub fn cache_len(&self) -> usize {
        self.shared.cache.as_ref().map_or(0, |c| c.len())
    }

    /// How many queries actually ran an engine, as opposed to being served
    /// from the cache. With the cache on, a worker inserts its result
    /// before it takes its next job, so a batch of M copies of one (new)
    /// request advances this by at most the worker count while the entry
    /// stays resident — the `duplicate_requests` suite pins that.
    pub fn computed_queries(&self) -> u64 {
        // ordering: Relaxed — telemetry; callers that need exactness
        // (the stress tests) only read after the batch has joined.
        self.shared.computed.load(Ordering::Relaxed)
    }

    /// The serving configuration (the per-request fallback defaults).
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Number of live worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submit one request to the pool without blocking: the returned
    /// [`QueryTicket`] joins the response whenever the caller is ready.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use rtr_core::Measure;
    /// use rtr_graph::toy::fig2_toy;
    /// use rtr_serve::{QueryRequest, ServeConfig, ServeEngine};
    ///
    /// let (g, ids) = fig2_toy();
    /// let engine = ServeEngine::start(Arc::new(g), ServeConfig::default().with_workers(2));
    /// let ticket = engine.submit(
    ///     QueryRequest::node(ids.t1).with_measure(Measure::RtrPlus { beta: 0.7 }).with_k(3),
    /// );
    /// let response = ticket.wait();
    /// assert_eq!(response.result.unwrap().ranking.len(), 3);
    /// ```
    pub fn submit(&self, request: QueryRequest) -> QueryTicket {
        let (reply_tx, reply_rx) = channel::unbounded::<QueryResponse>();
        self.enqueue(0, request, reply_tx);
        QueryTicket { reply: reply_rx }
    }

    fn enqueue(&self, id: usize, request: QueryRequest, reply: Sender<QueryResponse>) {
        let job = Job {
            id,
            request: request.resolve(&self.shared.config),
            enqueued: Instant::now(),
            reply,
            trace: self
                .shared
                .config
                .tracing
                .then(|| Box::new(QueryTrace::begin())),
        };
        // Cache hits complete right here on the submitting thread;
        // everything else queues.
        let Some(mut job) = self.shared.try_fast_serve(job) else {
            return;
        };
        if let Some(t) = job.trace.as_deref_mut() {
            t.record(TraceStage::Enqueue);
        }
        // invariant: `jobs` is only taken by shutdown, which consumes or
        // drops the engine, so no `&self` method can run after it.
        let jobs = self.jobs.as_ref().expect("job queue open until shutdown");
        // Fails only if every worker thread is gone; the job (and with it
        // the reply sender) is then dropped, so its ticket sees a hangup.
        let _ = jobs.send(job);
    }

    /// Execute a batch of heterogeneous requests across the pool and
    /// return the responses in input order. Blocks until the whole batch
    /// is done.
    ///
    /// Response values are bit-identical to [`run_serial_requests`] at any
    /// worker count: requests are independent and every engine path is
    /// deterministic.
    pub fn run_requests(&self, requests: &[QueryRequest]) -> Vec<QueryResponse> {
        let (reply_tx, reply_rx) = channel::unbounded::<QueryResponse>();
        for (id, request) in requests.iter().enumerate() {
            self.enqueue(id, request.clone(), reply_tx.clone());
        }
        // Drop our handle so the reply stream ends once every job replied.
        drop(reply_tx);
        let mut responses: Vec<QueryResponse> = reply_rx.iter().collect();
        assert_eq!(
            responses.len(),
            requests.len(),
            "worker died mid-batch (panicked query?)"
        );
        responses.sort_unstable_by_key(|r| r.id);
        responses
    }

    /// Stop the pool: let the workers drain the job queue, then join them.
    /// Called automatically on drop; explicit form for callers that want
    /// to observe the join.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Dropping the only sender disconnects the channel; `recv` fails
        // only once it is also empty, so every job enqueued before this
        // point still completes.
        self.jobs = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The serial reference executor for heterogeneous requests: the same
/// dispatch and workspace reuse as a single pool worker, on the caller's
/// thread, **always the local backend**, cache off. Batch serving at any
/// worker count, cache on or off, on *either* backend must be
/// bit-identical to this — the distributed bound engines mirror the local
/// ones operation for operation, so one serial reference anchors the whole
/// backend matrix.
pub fn run_serial_requests(
    g: &Graph,
    config: &ServeConfig,
    requests: &[QueryRequest],
) -> Vec<QueryResponse> {
    let mut ws = DistributedWorkspace::new();
    requests
        .iter()
        .enumerate()
        .map(|(id, request)| {
            let resolved = request.resolve(config);
            let started = Instant::now();
            let result = resolved
                .execute(g, None, &mut ws)
                .map(|outcome| outcome.result);
            QueryResponse {
                id,
                request: resolved,
                result,
                backend: BackendKind::Local,
                distributed: None,
                from_cache: false,
                worker: None,
                queue_wait: Duration::ZERO,
                compute: started.elapsed(),
                trace: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::Measure;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::NodeId;
    use rtr_topk::TopKConfig;

    fn toy_engine(workers: usize) -> (ServeEngine, rtr_graph::toy::Fig2Ids) {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(workers)
            .with_topk(TopKConfig::toy());
        (ServeEngine::start(Arc::new(g), config), ids)
    }

    /// Single-node RoundTripRank requests under the engine defaults.
    fn nodes(queries: &[NodeId]) -> Vec<QueryRequest> {
        queries.iter().map(|&q| QueryRequest::node(q)).collect()
    }

    #[test]
    fn batch_outputs_align_with_inputs() {
        let (engine, ids) = toy_engine(3);
        let queries = vec![ids.t1, ids.v1, ids.t2, ids.v2];
        let outputs = engine.run_requests(&nodes(&queries));
        assert_eq!(outputs.len(), queries.len());
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.id, i);
            assert_eq!(out.request.query.nodes(), [queries[i]]);
            assert_eq!(out.result.as_ref().unwrap().ranking[0], queries[i]);
        }
    }

    #[test]
    fn pool_matches_serial_bit_for_bit() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(4)
            .with_topk(TopKConfig::toy());
        let requests: Vec<QueryRequest> = g.nodes().map(QueryRequest::node).collect();
        let serial = run_serial_requests(&g, &config, &requests);
        let engine = ServeEngine::start(Arc::new(g), config);
        let pooled = engine.run_requests(&requests);
        let _ = ids;
        for (s, p) in serial.iter().zip(&pooled) {
            let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(s.ranking, p.ranking);
            assert_eq!(s.bounds, p.bounds); // exact f64 equality
            assert_eq!(s.expansions, p.expansions);
        }
    }

    #[test]
    fn submit_ticket_joins_one_request() {
        let (engine, ids) = toy_engine(2);
        let ticket = engine.submit(QueryRequest::node(ids.t1).with_k(3));
        let response = ticket.wait();
        assert_eq!(response.id, 0);
        assert_eq!(response.request.topk.k, 3);
        assert!(!response.from_cache);
        let result = response.result.unwrap();
        assert_eq!(result.ranking.len(), 3);
        assert_eq!(result.ranking[0], ids.t1);
    }

    #[test]
    fn try_wait_eventually_yields_the_response() {
        let (engine, ids) = toy_engine(1);
        let mut ticket = engine.submit(QueryRequest::node(ids.t1));
        let response = loop {
            match ticket.try_wait() {
                Ok(response) => break response,
                Err(t) => {
                    ticket = t;
                    std::thread::yield_now();
                }
            }
        };
        assert!(response.result.is_ok());
    }

    #[test]
    fn heterogeneous_batch_reports_what_ran() {
        let (engine, ids) = toy_engine(2);
        let requests = vec![
            QueryRequest::node(ids.t1),
            QueryRequest::node(ids.t1)
                .with_measure(Measure::F)
                .with_k(2),
            QueryRequest::nodes(&[ids.t1, ids.t2]).with_measure(Measure::RtrPlus { beta: 0.7 }),
        ];
        let responses = engine.run_requests(&requests);
        assert_eq!(responses[0].request.measure, Measure::Rtr);
        assert_eq!(responses[1].request.measure, Measure::F);
        assert_eq!(responses[1].request.topk.k, 2);
        assert_eq!(responses[1].result.as_ref().unwrap().ranking.len(), 2);
        assert_eq!(responses[2].request.query.len(), 2);
        for r in &responses {
            assert!(r.result.is_ok());
        }
    }

    #[test]
    fn engine_survives_many_batches() {
        let (engine, ids) = toy_engine(2);
        let first = engine.run_requests(&nodes(&[ids.t1]));
        for _ in 0..5 {
            let again = engine.run_requests(&nodes(&[ids.t1]));
            assert_eq!(
                first[0].result.as_ref().unwrap().ranking,
                again[0].result.as_ref().unwrap().ranking
            );
        }
    }

    #[test]
    fn bad_query_reports_error_without_poisoning_batch() {
        let (engine, ids) = toy_engine(2);
        let outputs = engine.run_requests(&nodes(&[ids.t1, NodeId(9999), ids.t2]));
        assert!(outputs[0].result.is_ok());
        assert!(matches!(
            outputs[1].result,
            Err(ServeError::Query(CoreError::NodeOutOfRange { .. }))
        ));
        assert!(outputs[2].result.is_ok());
    }

    #[test]
    fn bad_query_does_not_cost_the_worker_its_buffers() {
        // A rejected query must be answered from the same recycled
        // workspace path as a good one: running bad-good-bad-good serially
        // with one workspace must equal a fresh run of the good queries.
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy());
        let mixed = run_serial_requests(
            &g,
            &config,
            &nodes(&[ids.t1, NodeId(9999), ids.t2, NodeId(8888)]),
        );
        let clean = run_serial_requests(&g, &config, &nodes(&[ids.t1, ids.t2]));
        assert_eq!(
            mixed[0].result.as_ref().unwrap().bounds,
            clean[0].result.as_ref().unwrap().bounds
        );
        assert_eq!(
            mixed[2].result.as_ref().unwrap().bounds,
            clean[1].result.as_ref().unwrap().bounds
        );
        assert!(mixed[1].result.is_err() && mixed[3].result.is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let (engine, _) = toy_engine(2);
        assert!(engine.run_requests(&[]).is_empty());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let (engine, ids) = toy_engine(0);
        assert_eq!(engine.workers(), 1);
        let outputs = engine.run_requests(&nodes(&[ids.t1]));
        assert!(outputs[0].result.is_ok());
    }

    #[test]
    fn explicit_shutdown_joins() {
        let (engine, ids) = toy_engine(2);
        let _ = engine.run_requests(&nodes(&[ids.t1]));
        engine.shutdown(); // must not hang
    }

    #[test]
    fn shutdown_answers_every_queued_request() {
        // One worker, no cache: shutting down straight after submitting
        // leaves most jobs still queued, and each must still be answered.
        let (g, _) = fig2_toy();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy());
        let engine = ServeEngine::start(Arc::new(g), config);
        let tickets: Vec<QueryTicket> = (0..32)
            .map(|i| {
                let node = nodes[i % nodes.len()];
                engine.submit(QueryRequest::node(node).with_k(1 + i / nodes.len()))
            })
            .collect();
        engine.shutdown();
        for ticket in tickets {
            assert!(ticket.wait().result.is_ok());
        }
    }

    #[test]
    fn duplicate_queries_in_one_batch_all_answered_identically() {
        // The same query node several times in one batch must yield one
        // output per occurrence, aligned by position, all bit-identical —
        // through the pool path, cache off and cache on.
        for capacity in [0usize, 64] {
            let (g, ids) = fig2_toy();
            let config = ServeConfig::default()
                .with_workers(4)
                .with_topk(TopKConfig::toy())
                .with_cache_capacity(capacity);
            let engine = ServeEngine::start(Arc::new(g), config);
            let queries = vec![ids.t1, ids.v1, ids.t1, ids.t1, ids.v1];
            let outputs = engine.run_requests(&nodes(&queries));
            assert_eq!(outputs.len(), queries.len());
            let first = outputs[0].result.as_ref().unwrap();
            for dup in [2, 3] {
                let r = outputs[dup].result.as_ref().unwrap();
                assert_eq!(outputs[dup].request.query.nodes(), [ids.t1]);
                assert_eq!(r.ranking, first.ranking, "capacity {capacity}");
                assert_eq!(r.bounds, first.bounds, "capacity {capacity}");
            }
            assert_eq!(
                outputs[4].result.as_ref().unwrap().ranking,
                outputs[1].result.as_ref().unwrap().ranking
            );
        }
    }

    #[test]
    fn k_zero_queries_through_the_pool() {
        // K = 0 short-circuits inside the engine; the pool (and the cache
        // path) must carry the empty result through unchanged.
        for capacity in [0usize, 64] {
            let (g, ids) = fig2_toy();
            let config = ServeConfig::default()
                .with_workers(3)
                .with_topk(TopKConfig {
                    k: 0,
                    ..TopKConfig::toy()
                })
                .with_cache_capacity(capacity);
            let engine = ServeEngine::start(Arc::new(g), config);
            let outputs = engine.run_requests(&nodes(&[ids.t1, ids.v1, ids.t1]));
            for out in &outputs {
                let r = out.result.as_ref().unwrap();
                assert!(r.ranking.is_empty(), "capacity {capacity}");
                assert!(r.bounds.is_empty());
                assert!(r.converged);
            }
        }
    }

    #[test]
    fn cache_off_reports_no_stats_and_counts_every_computation() {
        let (engine, ids) = toy_engine(2);
        assert!(engine.cache_stats().is_none());
        let n = engine.run_requests(&nodes(&[ids.t1, ids.t1, ids.t2])).len() as u64;
        assert_eq!(engine.computed_queries(), n);
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn cache_hits_repeated_batches_and_reports_from_cache() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(128);
        let engine = ServeEngine::start(Arc::new(g), config);
        let requests = nodes(&[ids.t1, ids.t2, ids.v1]);
        let cold = engine.run_requests(&requests);
        let warm = engine.run_requests(&requests);
        let stats = engine.cache_stats().expect("cache on");
        assert_eq!(stats.inserts, 3);
        assert!(stats.hits >= 3, "warm batch must hit, got {stats:?}");
        assert_eq!(engine.computed_queries(), 3);
        assert_eq!(engine.cache_len(), 3);
        for (c, w) in cold.iter().zip(&warm) {
            assert!(w.from_cache, "warm responses must be flagged cached");
            let (c, w) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
            assert_eq!(c.ranking, w.ranking);
            assert_eq!(c.bounds, w.bounds); // exact f64 equality
        }
    }

    #[test]
    fn distinct_measures_never_share_cache_entries() {
        // The same node under four measures: four cache entries, four
        // computations, no cross-measure aliasing even on a warm cache.
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(128);
        let engine = ServeEngine::start(Arc::new(g), config);
        let requests: Vec<QueryRequest> = [
            Measure::Rtr,
            Measure::F,
            Measure::T,
            Measure::RtrPlus { beta: 0.5 },
        ]
        .into_iter()
        .map(|m| QueryRequest::node(ids.t1).with_measure(m))
        .collect();
        let cold = engine.run_requests(&requests);
        let warm = engine.run_requests(&requests);
        assert_eq!(engine.computed_queries(), 4);
        assert_eq!(engine.cache_len(), 4);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(
                c.result.as_ref().unwrap().ranking,
                w.result.as_ref().unwrap().ranking
            );
        }
        // RTR and RTR+(0.5) rank alike but bound differently: both were
        // computed, not aliased.
        assert_ne!(
            cold[0].result.as_ref().unwrap().bounds,
            cold[3].result.as_ref().unwrap().bounds
        );
    }

    #[test]
    fn distributed_engine_matches_local_engine_bit_for_bit() {
        let (g, _) = fig2_toy();
        let g = Arc::new(g);
        let base = ServeConfig::default()
            .with_workers(3)
            .with_topk(TopKConfig::toy());
        let requests: Vec<QueryRequest> = g
            .nodes()
            .map(QueryRequest::node)
            .chain([
                QueryRequest::node(NodeId(0)).with_measure(Measure::F),
                QueryRequest::node(NodeId(1)).with_measure(Measure::RtrPlus { beta: 0.7 }),
                QueryRequest::nodes(&[NodeId(0), NodeId(3)]),
                QueryRequest::node(NodeId(2)).with_k(g.node_count()),
            ])
            .collect();
        let local = ServeEngine::start(Arc::clone(&g), base);
        let dist = ServeEngine::start(
            Arc::clone(&g),
            base.with_backend(Backend::Distributed { gps: 3 }),
        );
        assert_eq!(local.backend_kind(), BackendKind::Local);
        assert_eq!(dist.backend_kind(), BackendKind::Distributed);
        assert!(dist.cluster().is_some());
        let a = local.run_requests(&requests);
        let b = dist.run_requests(&requests);
        for (l, d) in a.iter().zip(&b) {
            assert_eq!(l.backend, BackendKind::Local);
            assert_eq!(d.backend, BackendKind::Distributed);
            let (lr, dr) = match (&l.result, &d.result) {
                (Ok(lr), Ok(dr)) => (lr, dr),
                // The full ranking is refused alike on both backends.
                (Err(le), Err(de)) => {
                    assert!(matches!(le, ServeError::Refused(_)), "{le:?}");
                    assert_eq!(le, de);
                    assert!(d.distributed.is_none());
                    continue;
                }
                other => panic!("outcomes differ: {other:?}"),
            };
            assert_eq!(lr.ranking, dr.ranking);
            assert_eq!(lr.bounds, dr.bounds);
            assert_eq!(lr.expansions, dr.expansions);
            // Every query fetches exactly its own active set.
            let stats = d.distributed.unwrap();
            assert!(stats.active_nodes > 0);
            assert!(stats.bytes_transferred > 0);
            assert_eq!(stats.blocks_fetched, stats.active_nodes);
            assert_eq!(stats.blocks_from_cache, 0);
        }
    }

    #[test]
    fn cache_preserves_backend_provenance_across_routes() {
        // One engine on the distributed backend with a cache, and the two
        // routes a request takes: a bounded request runs distributed, and a
        // hit on its entry keeps the wire cost the computation paid; a full
        // ranking (k ≥ |V|) is refused, never cached, and refused again.
        let (g, ids) = fig2_toy();
        let n = g.node_count();
        let config = ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig::toy())
            .with_backend(Backend::Distributed { gps: 2 })
            .with_cache_capacity(64);
        let engine = ServeEngine::start(Arc::new(g), config);
        let request = QueryRequest::node(ids.t1);
        let cold = engine.submit(request.clone()).wait();
        let warm = engine.submit(request).wait();
        assert!(!cold.from_cache);
        assert!(warm.from_cache, "the repeat must hit the entry");
        assert!(cold.distributed.is_some());
        assert_eq!(warm.distributed, cold.distributed);
        assert_eq!(cold.result.unwrap().ranking, warm.result.unwrap().ranking);
        for _ in 0..2 {
            let refused = engine.submit(QueryRequest::node(ids.t1).with_k(n)).wait();
            assert!(!refused.from_cache);
            assert!(matches!(refused.result, Err(ServeError::Refused(_))));
            assert!(refused.distributed.is_none());
            assert_eq!(refused.backend, BackendKind::Distributed);
        }
        assert_eq!(engine.cache_len(), 1);
        assert_eq!(engine.computed_queries(), 3);
    }

    #[test]
    fn failed_queries_report_routed_backend() {
        let (g, _) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy())
            .with_backend(Backend::Distributed { gps: 2 });
        let engine = ServeEngine::start(Arc::new(g), config);
        let response = engine.submit(QueryRequest::node(NodeId(9999))).wait();
        assert!(response.result.is_err());
        assert_eq!(response.backend, BackendKind::Distributed);
        assert!(response.distributed.is_none());
    }

    #[test]
    fn dead_gp_surfaces_as_backend_error_naming_it() {
        // Two cycles, one per parity: on two GPs the even nodes' cycle
        // lives on GP 0's stripe and the odd nodes' on GP 1's.
        let mut b = rtr_graph::GraphBuilder::new();
        let ty = b.register_type("n");
        let nodes: Vec<NodeId> = (0..16).map(|_| b.add_node(ty)).collect();
        for v in 0..16 {
            b.add_edge(nodes[v], nodes[(v + 2) % 16], 1.0);
            b.add_edge(nodes[v], nodes[(v + 4) % 16], 2.0);
        }
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy())
            .with_backend(Backend::Distributed { gps: 2 });
        let engine = ServeEngine::start(Arc::new(b.build()), config);
        engine.cluster().expect("distributed engine").kill_gp(1);
        // An odd query node's frontier lies on the dead GP's stripe: the
        // query fails as a *backend* error naming it, not a query error.
        let response = engine.submit(QueryRequest::node(nodes[1])).wait();
        match &response.result {
            Err(ServeError::Backend(msg)) => {
                assert!(msg.contains("graph processor 1"), "got: {msg}");
            }
            other => panic!("expected a backend error, got {other:?}"),
        }
        // The worker survived with usable buffers: a query on the healthy
        // stripe still serves, distributed.
        let ok = engine.submit(QueryRequest::node(nodes[0])).wait();
        assert!(ok.result.is_ok(), "{:?}", ok.result);
        assert!(ok.distributed.is_some());
        // Engine drop (GpCluster drop with a dead GP) must not hang.
        engine.shutdown();
    }

    #[test]
    fn failed_queries_are_not_cached() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(128);
        let engine = ServeEngine::start(Arc::new(g), config);
        let bad = NodeId(9999);
        let outputs = engine.run_requests(&nodes(&[bad, ids.t1, bad]));
        assert!(outputs[0].result.is_err());
        assert!(outputs[1].result.is_ok());
        assert!(outputs[2].result.is_err());
        assert_eq!(engine.cache_len(), 1, "only the good query is cached");
        // Both bad occurrences computed (errors are never served stale).
        assert_eq!(engine.computed_queries(), 3);
    }

    #[test]
    fn cache_hits_serve_inline_on_the_submitting_thread() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(64);
        let engine = ServeEngine::start(Arc::new(g), config);
        let first = engine.submit(QueryRequest::node(ids.t1).with_k(3)).wait();
        assert!(first.worker.is_some(), "a cold miss goes through a worker");
        let hit = engine.submit(QueryRequest::node(ids.t1).with_k(3)).wait();
        assert!(hit.from_cache);
        assert_eq!(hit.worker, None, "a cache hit never queues");
        assert_eq!(hit.queue_wait, Duration::ZERO);
        assert_eq!(
            first.result.unwrap().ranking,
            hit.result.unwrap().ranking,
            "fast path serves the identical shared result"
        );
    }

    #[test]
    fn k_zero_without_a_cache_is_answered_by_a_worker() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(0);
        let engine = ServeEngine::start(Arc::new(g), config);
        let response = engine.submit(QueryRequest::node(ids.t1).with_k(0)).wait();
        assert!(
            response.worker.is_some(),
            "nothing computes on the submitter"
        );
        assert!(!response.from_cache);
        let r = response.result.unwrap();
        assert!(r.ranking.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn metrics_snapshot_counts_responses_and_renders_prometheus() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig::toy())
            .with_metrics(true);
        let engine = ServeEngine::start(Arc::new(g), config);
        let n = engine.run_requests(&nodes(&[ids.t1, ids.t2, ids.v1])).len();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter_total("rtr_serve_responses_total"), n as u64);
        assert_eq!(
            snap.histogram_total("rtr_serve_latency_seconds").count(),
            n as u64,
            "every response lands in the latency histogram"
        );
        let text = snap.to_prometheus();
        for name in [
            "rtr_serve_responses_total",
            "rtr_serve_errors_total",
            "rtr_serve_latency_seconds_bucket",
            "rtr_serve_queue_depth",
            "rtr_serve_cache_enabled",
            "rtr_dist_wire_bytes_total",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn metrics_off_still_snapshots_a_zeroed_catalog() {
        let (engine, ids) = toy_engine(2);
        let _ = engine.run_requests(&nodes(&[ids.t1]));
        let snap = engine.metrics_snapshot();
        // Catalog present, nothing recorded.
        assert_eq!(snap.counter_total("rtr_serve_responses_total"), 0);
        assert!(snap.to_prometheus().contains("rtr_serve_responses_total"));
    }

    #[test]
    fn error_counters_record() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy())
            .with_metrics(true);
        let engine = ServeEngine::start(Arc::new(g), config);
        let bad = engine.submit(QueryRequest::node(NodeId(9999))).wait();
        assert!(bad.result.is_err());
        let n = engine.graph().node_count();
        let refused = engine.submit(QueryRequest::node(ids.t1).with_k(n)).wait();
        assert!(matches!(refused.result, Err(ServeError::Refused(_))));
        let ok = engine.submit(QueryRequest::node(ids.t1)).wait();
        assert!(ok.result.is_ok());
        let snap = engine.metrics_snapshot();
        for kind in ["query", "refused"] {
            assert_eq!(
                snap.counter_value("rtr_serve_errors_total", &[("kind", kind)]),
                Some(1),
                "only the failed request counts, by its kind"
            );
        }
    }

    #[test]
    fn tracing_off_attaches_no_trace() {
        let (engine, ids) = toy_engine(2);
        let response = engine.submit(QueryRequest::node(ids.t1)).wait();
        assert!(response.trace.is_none());
    }

    #[test]
    fn tracing_records_a_monotone_queued_timeline() {
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(64)
            .with_tracing(true);
        let engine = ServeEngine::start(Arc::new(g), config);
        let cold = engine.submit(QueryRequest::node(ids.t1).with_k(3)).wait();
        let trace = cold.trace.expect("tracing on");
        let stages: Vec<TraceStage> = trace.events().iter().map(|e| e.stage).collect();
        assert_eq!(stages.first(), Some(&TraceStage::Submit));
        assert_eq!(stages.last(), Some(&TraceStage::Respond));
        for need in [
            TraceStage::Enqueue,
            TraceStage::Dequeue,
            TraceStage::ComputeStart,
            TraceStage::CacheInsert,
            TraceStage::ComputeEnd,
        ] {
            assert!(stages.contains(&need), "missing {need:?} in {stages:?}");
        }
        assert!(!stages.contains(&TraceStage::FastPath), "cold miss queued");
        for pair in trace.events().windows(2) {
            assert!(pair[0].at <= pair[1].at, "stages must be monotone");
        }
        // A warm hit completes inline and says so.
        let warm = engine.submit(QueryRequest::node(ids.t1).with_k(3)).wait();
        let trace = warm.trace.expect("tracing on");
        let stages: Vec<TraceStage> = trace.events().iter().map(|e| e.stage).collect();
        assert!(stages.contains(&TraceStage::FastPath));
        assert_eq!(stages.last(), Some(&TraceStage::Respond));
    }

    #[test]
    fn cache_stats_distinguishes_disabled_from_idle() {
        // Disabled: no cache was constructed; None forever.
        let (off, ids) = toy_engine(1);
        assert!(off.cache_stats().is_none());
        assert_eq!(
            off.metrics_snapshot()
                .gauge_value("rtr_serve_cache_enabled", &[]),
            Some(0)
        );
        // Enabled but idle: stats exist and are all zero — not None.
        let (g, _) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(16);
        let idle = ServeEngine::start(Arc::new(g), config);
        let stats = idle.cache_stats().expect("cache exists before traffic");
        assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 0, 0));
        assert_eq!(
            idle.metrics_snapshot()
                .gauge_value("rtr_serve_cache_enabled", &[]),
            Some(1)
        );
        let _ = ids;
    }

    #[test]
    fn skewed_burst_matches_serial() {
        // One hot query plus a long tail, submitted in one burst: whatever
        // interleaving of queueing, worker-side hits and fast-path serving
        // happens, every response must match the serial reference.
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(4)
            .with_topk(TopKConfig::toy())
            .with_cache_capacity(256);
        let mut requests = Vec::new();
        for round in 0..16 {
            requests.push(QueryRequest::node(ids.t1).with_k(3));
            if round % 2 == 0 {
                requests.push(QueryRequest::node(ids.v1).with_k(round % 5));
            }
        }
        let serial = run_serial_requests(
            &g,
            &ServeConfig::default().with_topk(TopKConfig::toy()),
            &requests,
        );
        let engine = ServeEngine::start(Arc::new(g), config);
        let pooled = engine.run_requests(&requests);
        for (s, p) in serial.iter().zip(&pooled) {
            let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(s.ranking, p.ranking);
            assert_eq!(s.bounds, p.bounds);
        }
    }

    #[test]
    fn a_caught_panic_rebuilds_the_workspace_as_at_spawn() {
        // The panic strikes after a query filled the block store; the
        // rebuilt workspace holds no block and answers the next queries
        // exactly as a fresh one does.
        let (g, ids) = fig2_toy();
        let config = ServeConfig::default()
            .with_workers(1)
            .with_topk(TopKConfig::toy())
            .with_backend(Backend::Distributed { gps: 2 });
        let engine = ServeEngine::start(Arc::new(g), config);
        let shared = &engine.shared;
        let request = QueryRequest::node(ids.t1).resolve(&config);
        let run = |ws: &mut DistributedWorkspace| {
            shared
                .caught(ws, |ws| {
                    request.execute(&shared.graph, shared.cluster.as_ref(), ws)
                })
                .unwrap()
        };
        let fresh = run(&mut shared.workspace());
        let mut ws = shared.workspace();
        let panicked = shared.caught(&mut ws, |ws| {
            request.execute(&shared.graph, shared.cluster.as_ref(), ws)?;
            assert!(!ws.cache.is_empty());
            panic!("injected")
        });
        assert_eq!(
            panicked.err(),
            Some(ServeError::Panicked("injected".into()))
        );
        assert!(ws.cache.is_empty(), "rebuilt as at spawn");
        for _ in 0..3 {
            let outcome = run(&mut ws);
            assert_eq!(outcome.result.bounds, fresh.result.bounds);
            assert_eq!(outcome.distributed, fresh.distributed);
            let stats = outcome.distributed.unwrap();
            assert_eq!(stats.blocks_from_cache, 0);
            assert_eq!(stats.blocks_fetched, stats.active_nodes);
        }
    }

    mod worker_memory {
        use super::*;
        use rtr_core::Query;
        use rtr_graph::GraphBuilder;
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        /// The system allocator, counting per thread the live blocks of at
        /// least `LARGE` bytes and the most of them ever live at once.
        struct Probe;

        #[global_allocator]
        static PROBE: Probe = Probe;

        thread_local! {
            static LARGE: Cell<usize> = const { Cell::new(usize::MAX) };
            static LIVE: Cell<isize> = const { Cell::new(0) };
            static PEAK: Cell<isize> = const { Cell::new(0) };
        }

        fn note(size: usize, delta: isize) {
            // `try_with`: the allocator also runs while a thread's locals
            // are being torn down.
            let large = LARGE.try_with(Cell::get).unwrap_or(usize::MAX);
            if size >= large {
                let _ = LIVE.try_with(|live| {
                    live.set(live.get() + delta);
                    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
                });
            }
        }

        // SAFETY: every method forwards to `System` with the caller's
        // arguments unchanged, so `System` upholds the contract; the
        // counting only reads sizes and allocates nothing.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                // SAFETY: `layout` is the caller's, valid per `alloc`'s
                // contract.
                let p = unsafe { System.alloc(layout) };
                if !p.is_null() {
                    note(layout.size(), 1);
                }
                p
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                // SAFETY: as in `alloc`.
                let p = unsafe { System.alloc_zeroed(layout) };
                if !p.is_null() {
                    note(layout.size(), 1);
                }
                p
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                note(layout.size(), -1);
                // SAFETY: `ptr` came from `System` through this allocator,
                // with this `layout`, per `dealloc`'s contract.
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                // SAFETY: as in `dealloc`, and `new_size` is valid per
                // `realloc`'s contract.
                let p = unsafe { System.realloc(ptr, layout, new_size) };
                if !p.is_null() {
                    note(layout.size(), -1);
                    note(new_size, 1);
                }
                p
            }
        }

        /// `2^16` nodes in strongly connected 8-node components: every
        /// neighborhood, and every GP reply, stays within 8 nodes, so only
        /// a buffer indexed by node id reaches `|V|` bytes.
        fn components() -> Graph {
            let n = 1 << 16;
            let mut b = GraphBuilder::with_capacity(n, 2 * n);
            let ty = b.register_type("n");
            for _ in 0..n {
                b.add_node(ty);
            }
            for v in 0..n as u32 {
                let base = v & !7;
                b.add_edge(NodeId(v), NodeId(base + (v + 1) % 8), 1.0);
                b.add_edge(NodeId(v), NodeId(base + (v + 3) % 8), 2.0);
            }
            b.build()
        }

        #[test]
        fn a_distributed_worker_holds_one_trio_of_node_indexed_arrays() {
            // The top-K trio (ρ's and S_t's sparse indexes, µ) that both
            // paths share, plus the block store's one: the sparse index of
            // its node → offset map.
            const ARRAYS: isize = 3 + 1;
            let config = ServeConfig::default()
                .with_workers(1)
                .with_topk(TopKConfig {
                    k: 3,
                    epsilon: 0.01,
                    ..TopKConfig::default()
                })
                .with_backend(Backend::Distributed { gps: 2 });
            let engine = ServeEngine::start(Arc::new(components()), config);
            let shared = &engine.shared;
            let n = shared.graph.node_count();
            let queries = [
                Query::single(NodeId(8)),
                Query::weighted(&[(NodeId(16), 0.5), (NodeId(4_100), 0.5)]).unwrap(),
                Query::weighted(&[(NodeId(1), 1.0), (NodeId(9), 1.0), (NodeId(65_535), 2.0)])
                    .unwrap(),
                Query::single(NodeId(40_000)),
            ];
            LARGE.with(|large| large.set(n));
            let before = LIVE.with(Cell::get);
            let mut ws = shared.workspace();
            for measure in [
                Measure::Rtr,
                Measure::F,
                Measure::T,
                Measure::RtrPlus { beta: 0.3 },
            ] {
                for query in &queries {
                    let outcome = QueryRequest::new(query.clone())
                        .with_measure(measure)
                        .resolve(&config)
                        .execute(&shared.graph, shared.cluster.as_ref(), &mut ws)
                        .unwrap();
                    assert!(outcome.distributed.is_some());
                    assert!(outcome.result.converged, "{measure:?} {query:?}");
                    let live = LIVE.with(Cell::get) - before;
                    assert_eq!(live, ARRAYS, "{measure:?} {query:?}");
                }
                // The shapes the search does not serve are refused before
                // any engine could allocate a dense |V|-sized vector: no
                // node-indexed block joins the workspace's, even for a
                // moment.
                PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
                let wide: Vec<NodeId> = (0..5).map(|v| NodeId(8 * v)).collect();
                for request in [
                    QueryRequest::node(NodeId(8)).with_k(n),
                    QueryRequest::nodes(&wide),
                ] {
                    let refused = request.with_measure(measure).resolve(&config).execute(
                        &shared.graph,
                        shared.cluster.as_ref(),
                        &mut ws,
                    );
                    assert!(matches!(refused, Err(ServeError::Refused(_))));
                }
                assert_eq!(PEAK.with(Cell::get) - before, ARRAYS, "{measure:?}");
            }
            drop(ws);
            assert_eq!(LIVE.with(Cell::get), before);
            LARGE.with(|large| large.set(usize::MAX));
        }
    }
}
