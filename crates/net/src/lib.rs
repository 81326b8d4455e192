#![deny(missing_docs)]
//! # rtr-net — the network front door
//!
//! Everything the serving stack can do in-process (per-request measures,
//! the shared job queue, the result cache, distributed execution,
//! metrics) becomes reachable over a real socket here, with the
//! production-serving concerns that implies:
//!
//! * **Wire protocol** ([`frame`], [`codec`], [`json`]) — length-prefixed
//!   binary frames with a versioned header (magic, version, type, flags,
//!   tenant id, request id), encoding [`rtr_serve::QueryRequest`] /
//!   [`rtr_serve::QueryResponse`] — provenance, latency split, and
//!   [`rtr_distributed::DistributedStats`] included — in the workspace's
//!   little-endian `bytes` idiom, plus a JSON payload mode (one header
//!   flag) for human debugging. Decoding is total: truncated, corrupted,
//!   or oversized input returns a typed [`WireError`], never a panic, and
//!   never allocates more than the declared (and capped) payload length.
//!   The protocol is transport-agnostic — frames don't know about TCP —
//!   and `docs/PROTOCOL.md` is the normative layout/versioning spec.
//! * **Server runtime** ([`server`]) — no async runtime (the workspace
//!   builds offline; there is no tokio): a thread-per-connection acceptor
//!   where the reader thread decodes frames and drives the engine's
//!   non-blocking [`rtr_serve::ServeEngine::submit`] tickets, so a slow
//!   client never holds an engine worker. Responses flow through a
//!   **bounded** per-connection write queue (`WriteQueue`): when a
//!   client stops reading, new requests are rejected with a typed
//!   [`ErrorCode::Overloaded`] frame instead of buffering without bound.
//! * **Admission control** ([`admission`]) — per-tenant token buckets
//!   keyed by the frame header's tenant id; a tenant exceeding its rate
//!   gets `Overloaded` rejections (with a retry-after hint) while other
//!   tenants are untouched.
//! * **Graceful shutdown** — [`NetServer::shutdown`] stops accepting,
//!   lets every already-accepted request finish (tickets drain through
//!   the write queues), sends each connection a `Goodbye` frame, and
//!   joins every thread. No accepted request is ever dropped; the
//!   write-queue and drain protocols are model-checked in `crates/check`.
//! * **Observability** — connection/frame/tenant counters registered in
//!   the engine's [`rtr_obs::Registry`], and a `MetricsRequest` frame
//!   that answers with the Prometheus text rendering (the `/metrics`
//!   endpoint, one frame type instead of one HTTP route).
//!
//! [`NetClient`] is the matching blocking client (used by the e2e tests,
//! `examples/network_serving.rs`, and the wire workloads of `benchmark/`).
//!
//! ```no_run
//! use rtr_graph::NodeId;
//! use rtr_net::{NetClient, NetServer, NetServerConfig};
//! use rtr_serve::{QueryRequest, ServeConfig, ServeEngine};
//! use std::sync::Arc;
//!
//! # fn demo(graph: Arc<rtr_graph::Graph>) -> std::io::Result<()> {
//! let engine = Arc::new(ServeEngine::start(graph, ServeConfig::default()));
//! let server = NetServer::start(engine, NetServerConfig::default())?;
//! let mut client = NetClient::connect(server.local_addr())?;
//! let response = client.call(&QueryRequest::node(NodeId(3)))?.expect("admitted");
//! println!("top-1: {:?}", response.result.unwrap().ranking.first());
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(rust_2018_idioms)]

pub mod admission;
pub mod codec;
pub mod frame;
pub mod json;
mod queue;
mod rtr_sync;
pub mod server;

mod client;

pub use admission::{AdmissionConfig, AdmissionDecision, TenantPolicy};
pub use client::{NetClient, NetError};
pub use codec::{decode_reject, decode_request, decode_response, encode_request, encode_response};
pub use codec::{ErrorCode, Reject};
pub use frame::{Frame, FrameType, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD, PROTOCOL_VERSION};
pub use server::{NetServer, NetServerConfig};

/// Model-checking surface: the real connection write-queue protocol,
/// compiled against the loom-shim sync facade so `rtr-check` can explore
/// its schedules. Production builds never see this module (the
/// `rtr_check` feature is only enabled by `crates/check`, which is not a
/// default workspace member).
#[cfg(feature = "rtr_check")]
pub mod check_api {
    pub use crate::queue::{PopOutcome, PushOutcome, WriteQueue};
}

pub(crate) use queue::{PopOutcome, PushOutcome, WriteQueue};
