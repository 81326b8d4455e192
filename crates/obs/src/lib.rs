//! # rtr-obs — lock-free metrics and per-query tracing
//!
//! The single observability surface of the RoundTripRank serving stack:
//! every layer (`rtr-serve`'s job queue, `rtr-cache`'s result cache,
//! `rtr-distributed`'s wire protocol) records into one [`Registry`], and
//! one [`MetricsSnapshot`] renders the whole system's state in the
//! Prometheus text exposition format.
//!
//! Three instruments, all designed for a hot serving path:
//!
//! * [`Counter`] / [`Gauge`] — one relaxed atomic word each; recording is
//!   wait-free.
//! * [`Histogram`] — fixed-bucket log-linear ([`SUB`] = 32 linear buckets
//!   per power-of-two octave, [`BUCKETS`] = 1920 slots covering all of
//!   `u64`), **shard-per-worker** so concurrent recorders never contend,
//!   and mergeable bucket-wise — `merge(a, b)` is exactly the histogram
//!   of the union of the samples. Quantiles carry a bounded relative
//!   error of `1/SUB` (3.125%).
//!
//! Plus one request-scoped record: [`QueryTrace`], a timestamped list of
//! [`TraceStage`]s (submit → fast-path/enqueue → dequeue → compute,
//! with per-fetch-round events on the distributed path → respond). It is
//! allocated only when tracing is enabled; a disabled trace is a `None`
//! and costs one branch.
//!
//! ```
//! use rtr_obs::{Registry, Unit};
//!
//! let registry = Registry::new();
//! let served = registry.counter("requests_total", "Requests served.");
//! let latency = registry.histogram_with(
//!     "latency_seconds", &[], "End-to-end latency.", Unit::Nanoseconds, 4,
//! );
//! served.inc();
//! latency.record(1_250_000); // 1.25 ms, recorded as ns
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter_value("requests_total", &[]), Some(1));
//! assert!(snap.to_prometheus().contains("# TYPE latency_seconds histogram"));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod histogram;
mod metrics;
mod registry;
mod rtr_sync;
mod snapshot;
mod trace;

pub use histogram::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS, SUB, SUB_BITS,
};
pub use metrics::{Counter, Gauge};
pub use registry::Registry;
pub use snapshot::{MetricFamily, MetricKind, MetricsSnapshot, Sample, SampleValue, Unit};
pub use trace::{QueryTrace, TraceEvent, TraceStage};
