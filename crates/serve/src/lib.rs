//! # rtr-serve — concurrent query serving for every RoundTripRank measure
//!
//! The paper builds 2SBound so that top-K RoundTripRank queries are cheap
//! enough for *online* use; this crate is the layer that actually serves
//! them online — and not just RoundTripRank: one engine serves the full
//! measure space (F-Rank, T-Rank, RTR, RTR+β), with per-request k and
//! parameters. It pairs
//!
//! * **self-describing requests** ([`QueryRequest`]: single- or weighted
//!   multi-node query, [`rtr_core::Measure`], optional k /
//!   [`rtr_core::RankParams`] / [`rtr_topk::TopKConfig`] overrides falling
//!   back to the engine's [`ServeConfig`] defaults — what to rank, never
//!   how), all answered by one bound search (2SBound, combining the f-
//!   and t-bounds per measure and summing them over a multi-node query;
//!   the exact engines only for full rankings, k ≥ |V|, and queries of
//!   more than four nodes), executed by
//! * a **pluggable execution backend** ([`ExecBackend`]):
//!   [`LocalBackend`] runs the in-process workspace engines;
//!   [`DistributedBackend`] runs the paper's AP/GP architecture — the
//!   graph striped across GP threads, each worker an active processor
//!   fetching node blocks on demand — with a recorded, deterministic
//!   local fallback for the requests the exact engines answer. Backends
//!   are bit-identical mirrors, so the choice ([`ServeConfig::backend`],
//!   one per engine) changes where work happens and what the response can
//!   observe ([`QueryResponse::backend`], [`DistributedStats`] wire
//!   costs) — never the answers — over
//! * a **shared read-only graph** (`Arc<Graph>` — the frozen block arena
//!   is `Send + Sync`, so queries need no locks), served by
//! * a **fixed pool of worker threads**, each owning one reusable
//!   [`ServeWorkspace`] so that steady-state serving performs zero
//!   per-query allocation on the bound paths, fed through
//! * **one job queue** (an unbounded MPMC channel every worker receives
//!   from; see [`engine`]) and a reply channel per submission, so
//!   concurrent batches never interleave results.
//!
//! Submission is non-blocking: [`ServeEngine::submit`] returns a
//! [`QueryTicket`] to join later, and [`ServeEngine::run_requests`] is the
//! blocking batch form. Every [`QueryResponse`] reports the request as it
//! actually ran, a `from_cache` flag, and its latency split into
//! queue-wait and compute.
//!
//! Concurrency never changes answers: every request is independent and
//! every engine path deterministic, so a batch executed at any worker
//! count is bit-identical to the serial reference
//! ([`run_serial_requests`]) — the `serve_determinism` and
//! `serve_requests` integration suites enforce this at 1, 2, and 8
//! workers, for heterogeneous measure mixes.
//!
//! **Caching.** Real traffic is Zipf-skewed, so the engine can optionally
//! front the pool with an `rtr-cache` sharded result cache
//! ([`ServeConfig::cache_capacity`] > 0): the submitting thread answers a
//! hit inline, workers look up the full request identity — canonicalized
//! query, measure (β bits included), graph epoch, params, top-K config —
//! before dispatch and insert on completion, and **single-flight
//! deduplication** (always on with the cache) collapses M concurrent
//! identical requests into one computation whose result all M share.
//! Because every output-relevant input is part of the cache key and the
//! engines are deterministic, cached serving stays bit-identical to
//! [`run_serial_requests`] even under heterogeneous traffic — the
//! `serve_cache_determinism` suite enforces that too. The key is
//! **backend-agnostic** (where a result was computed is not identity),
//! and a hit preserves the computing run's provenance and wire cost. With the cache off (the default) the engine
//! behaves exactly as an uncached pool.
//!
//! ```
//! use std::sync::Arc;
//! use rtr_core::Measure;
//! use rtr_graph::toy::fig2_toy;
//! use rtr_serve::{QueryRequest, ServeConfig, ServeEngine};
//!
//! let (g, ids) = fig2_toy();
//! let engine = ServeEngine::start(Arc::new(g), ServeConfig::default().with_workers(2));
//! // One pool, four kinds of proximity query.
//! let responses = engine.run_requests(&[
//!     QueryRequest::node(ids.t1),                                        // RoundTripRank
//!     QueryRequest::node(ids.t1).with_measure(Measure::F).with_k(3),     // importance, top-3
//!     QueryRequest::node(ids.t2).with_measure(Measure::RtrPlus { beta: 0.8 }),
//!     QueryRequest::nodes(&[ids.t1, ids.t2]),                            // multi-node query
//! ]);
//! assert_eq!(responses.len(), 4);
//! // Responses come back in request order and say what actually ran.
//! assert_eq!(responses[1].request.topk.k, 3);
//! assert_eq!(responses[0].result.as_ref().unwrap().ranking[0], ids.t1);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod config;
pub mod engine;
mod flight;
mod metrics;
pub mod request;
pub mod response;
mod rtr_sync;

/// Internals re-exported for the `rtr-check` model suites — only under
/// the `rtr_check` feature, which production builds never enable.
///
/// Exposes the two hot protocols the engine relies on:
/// [`check_api::InFlight`] (single-flight attach/claim/finish) and
/// [`check_api::channel`] (the job queue's MPMC channel — the crossbeam
/// shim's, which this crate already depends on), both built on
/// [`loom_shim`]-instrumented primitives so a model run can drive every
/// interleaving.
#[cfg(feature = "rtr_check")]
pub mod check_api {
    pub use crate::flight::InFlight;
    pub use crossbeam::channel;
}

pub use backend::{
    Backend, BackendKind, DistributedBackend, ExecBackend, ExecOutcome, LocalBackend,
};
pub use config::{ServeConfig, ServeConfigBuilder, ServeConfigError};
pub use engine::{run_serial_requests, ServeEngine, ServeError};
pub use request::{QueryRequest, ResolvedRequest, ServeWorkspace};
pub use response::{QueryResponse, QueryTicket};
// Re-exported so callers reading `ServeEngine::cache_stats`, building
// requests, or inspecting distributed wire costs need no direct
// rtr-cache / rtr-core / rtr-distributed dependency.
pub use rtr_cache::CacheStats;
pub use rtr_core::Measure;
pub use rtr_distributed::DistributedStats;
// Observability types surfaced by the engine: `metrics_snapshot()`
// returns a `MetricsSnapshot`, traced responses carry a `QueryTrace`.
pub use rtr_obs::{MetricsSnapshot, QueryTrace, Registry, TraceEvent, TraceStage};
