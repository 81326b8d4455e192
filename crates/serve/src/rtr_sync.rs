//! Synchronization-primitive facade for this crate's hot concurrency
//! protocols (single-flight, stat atomics).
//!
//! Production builds (`rtr_check` off, the default and the only
//! configuration tier-1 ever builds) re-export plain `std::sync` — zero
//! overhead, byte-identical behavior. Under the `rtr_check` feature the
//! same names resolve to `loom_shim`'s instrumented types, so
//! `rtr-check` model suites can exhaustively explore every interleaving
//! of these protocols. Code in this crate imports sync primitives from
//! here, never from `std::sync` directly (enforced by convention; the
//! modeled module is `flight` — the engine's job queue is the crossbeam
//! shim's channel, instrumented under the same feature).

#[cfg(feature = "rtr_check")]
pub(crate) use loom_shim::sync::Mutex;
#[cfg(not(feature = "rtr_check"))]
pub(crate) use std::sync::Mutex;

/// Atomic types routed through the facade; `Ordering` is always the real
/// `std` enum (loom-shim re-exports it unchanged).
pub(crate) mod atomic {
    #[cfg(feature = "rtr_check")]
    pub(crate) use loom_shim::sync::atomic::AtomicU64;
    #[cfg(not(feature = "rtr_check"))]
    pub(crate) use std::sync::atomic::AtomicU64;

    pub(crate) use std::sync::atomic::Ordering;
}
