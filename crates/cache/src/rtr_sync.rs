//! Synchronization-primitive facade: plain `std::sync` in production
//! builds, `loom_shim`'s instrumented types under the `rtr_check`
//! feature so the `rtr-check` model suites can exhaustively explore the
//! shard locking and stats-counter protocols. Code in this crate
//! imports sync primitives from here, never from `std::sync` directly.

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
