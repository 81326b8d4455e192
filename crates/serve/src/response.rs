//! Responses and the non-blocking submission handle.
//!
//! A [`QueryResponse`] reports not just the ranking but the request as it
//! actually ran ([`ResolvedRequest`]: measure, params, effective k), its
//! **backend provenance** — which execution backend produced the ranking
//! (a distributed engine records its local fallbacks here) plus, for
//! genuinely distributed answers, the wire cost paid
//! ([`DistributedStats`]: bytes transferred, fetch rounds, resident
//! active-set size — the paper's Fig. 12 measurements) — whether it was
//! served from the result cache, and the latency split into queue-wait
//! (submission → a worker picked it up) and compute (the worker's serving
//! time, cache lookups included). The split is what makes saturation
//! visible: under load, queue-wait grows while compute stays flat.

use crate::backend::BackendKind;
use crate::engine::ServeError;
use crate::request::ResolvedRequest;
use crossbeam::channel::Receiver;
use rtr_distributed::DistributedStats;
use rtr_obs::QueryTrace;
use rtr_topk::TopKResult;
use std::sync::Arc;
use std::time::Duration;

/// One served request's outcome.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Position of the request in its batch (batch APIs return responses
    /// sorted by this; [`crate::ServeEngine::submit`] always uses 0).
    pub id: usize,
    /// The request exactly as it ran: canonical query, measure, and the
    /// params/topk actually used after fallback resolution.
    pub request: ResolvedRequest,
    /// The ranking, or the per-request error. The result is shared
    /// (`Arc`): a cache hit hands out another reference to the stored
    /// ranking instead of deep-cloning its vectors.
    pub result: Result<Arc<TopKResult>, ServeError>,
    /// Which backend produced the ranking. For a cache hit this is the
    /// backend that originally computed the entry (backends are
    /// bit-identical, so entries are shared across them — provenance is
    /// preserved with the cached value); for a failed request, the engine's
    /// backend.
    pub backend: BackendKind,
    /// Wire cost of a genuinely distributed execution (`None` for local
    /// runs, recorded fallbacks, and failed requests). Preserved through
    /// the cache: a hit reports the cost the original computation paid —
    /// the serving of the hit itself crossed no wire.
    pub distributed: Option<DistributedStats>,
    /// Whether the ranking came out of the result cache rather than an
    /// engine run of this request.
    pub from_cache: bool,
    /// Index of the worker thread that picked this request off the queue,
    /// or `None` when it never queued at all — a cache hit served inline
    /// on the submitting thread by the fast path, or a response of the
    /// serial reference executor. Lets load benches split queued from
    /// fast-pathed traffic and attribute per-worker latency effects.
    pub worker: Option<usize>,
    /// Time between submission and a worker picking the request up.
    pub queue_wait: Duration,
    /// Time the worker spent serving it (cache lookup + engine run).
    pub compute: Duration,
    /// The request's life story, when the engine ran with
    /// [`crate::ServeConfig::tracing`] enabled: timestamped
    /// [`rtr_obs::TraceStage`] events from submission to response. `None`
    /// with tracing off (the default) — disabled tracing allocates
    /// nothing and records nothing.
    pub trace: Option<Box<QueryTrace>>,
}

impl QueryResponse {
    /// End-to-end latency: queue-wait plus compute.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.compute
    }
}

/// A non-blocking handle to one submitted request.
///
/// Returned by [`crate::ServeEngine::submit`]; the worker pool computes in
/// the background while the caller holds the ticket. Join with
/// [`QueryTicket::wait`], or poll with [`QueryTicket::try_wait`].
#[derive(Debug)]
pub struct QueryTicket {
    pub(crate) reply: Receiver<QueryResponse>,
}

impl QueryTicket {
    /// Block until the response is ready.
    ///
    /// # Panics
    /// If the engine was torn down so abruptly that the request can never
    /// complete (cannot happen through the public API: shutdown drains the
    /// job queue first).
    pub fn wait(self) -> QueryResponse {
        self.reply
            .recv()
            // invariant: shutdown drains the queue before workers exit
            // (see Panics above) — the reply outlives its sender.
            .expect("serve worker dropped a submitted request")
    }

    /// The response if it is already ready, else the ticket back.
    pub fn try_wait(self) -> Result<QueryResponse, QueryTicket> {
        match self.reply.try_recv() {
            Ok(response) => Ok(response),
            Err(_) => Err(self),
        }
    }
}
