//! Per-query tracing: a timestamped record of the stages one request
//! passed through on its way to a response.
//!
//! A [`QueryTrace`] is a small `Vec` of `(stage, offset)` events measured
//! against one origin [`Instant`] (the moment the request entered the
//! engine). It is **opt-in per engine**: when tracing is off, no trace is
//! allocated at all — the serving hot path carries an `Option<Box<_>>`
//! that stays `None`, so the disabled cost is one branch, zero bytes.
//!
//! Offsets are monotone by construction (each `record` stamps
//! `origin.elapsed()`), the first event is always
//! [`TraceStage::Submit`] at offset zero, and the last event of a
//! completed request is [`TraceStage::Respond`] — whose offset is the
//! request's end-to-end latency as the trace saw it. The
//! `obs_trace` integration suite pins all three invariants.

use std::time::{Duration, Instant};

/// A point in a request's life the engine stamps into its trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceStage {
    /// The request entered the engine (always the first event, offset 0).
    Submit,
    /// The submit-side fast path answered it inline (a cache hit); no
    /// queueing happened.
    FastPath,
    /// The request was sent to the engine's job queue.
    Enqueue,
    /// A worker received it from the job queue.
    Dequeue,
    /// Never recorded: the engine has one shared job queue and nothing to
    /// steal from. Kept only because the benchmark's stage table names it.
    Steal,
    /// An execution backend started computing it.
    ComputeStart,
    /// One distributed fetch round crossed the wire (AP/GP backend only;
    /// repeats once per round).
    FetchRound,
    /// The execution backend finished.
    ComputeEnd,
    /// Its result was inserted into the result cache.
    CacheInsert,
    /// The response was built and sent (always the last event).
    Respond,
}

impl TraceStage {
    /// Stable lowercase name (used in rendered traces and docs).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Submit => "submit",
            TraceStage::FastPath => "fast_path",
            TraceStage::Enqueue => "enqueue",
            TraceStage::Dequeue => "dequeue",
            TraceStage::Steal => "steal",
            TraceStage::ComputeStart => "compute_start",
            TraceStage::FetchRound => "fetch_round",
            TraceStage::ComputeEnd => "compute_end",
            TraceStage::CacheInsert => "cache_insert",
            TraceStage::Respond => "respond",
        }
    }
}

/// One stamped stage: what happened and when, as an offset from the
/// trace's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The stage.
    pub stage: TraceStage,
    /// Time since the trace's origin (the submit instant).
    pub at: Duration,
}

/// The timestamped stage record of one request.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    origin: Instant,
    events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// Start a trace now: the origin is captured and
    /// [`TraceStage::Submit`] is recorded at offset zero.
    pub fn begin() -> QueryTrace {
        let mut events = Vec::with_capacity(8);
        events.push(TraceEvent {
            stage: TraceStage::Submit,
            at: Duration::ZERO,
        });
        QueryTrace {
            origin: Instant::now(),
            events,
        }
    }

    /// Stamp `stage` at the current offset from the origin.
    #[inline]
    pub fn record(&mut self, stage: TraceStage) {
        self.events.push(TraceEvent {
            stage,
            at: self.origin.elapsed(),
        });
    }

    /// The moment the trace began (the submit instant).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Every recorded event, in recording (= chronological) order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Offset of the first occurrence of `stage`, if it was recorded.
    pub fn stage_at(&self, stage: TraceStage) -> Option<Duration> {
        self.events.iter().find(|e| e.stage == stage).map(|e| e.at)
    }

    /// How many times `stage` was recorded (e.g. fetch rounds).
    pub fn count(&self, stage: TraceStage) -> usize {
        self.events.iter().filter(|e| e.stage == stage).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begins_with_submit_at_zero() {
        let t = QueryTrace::begin();
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].stage, TraceStage::Submit);
        assert_eq!(t.events()[0].at, Duration::ZERO);
    }

    #[test]
    fn offsets_are_monotone() {
        let mut t = QueryTrace::begin();
        t.record(TraceStage::Enqueue);
        t.record(TraceStage::Dequeue);
        t.record(TraceStage::ComputeStart);
        t.record(TraceStage::ComputeEnd);
        t.record(TraceStage::Respond);
        for pair in t.events().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert_eq!(t.stage_at(TraceStage::Submit), Some(Duration::ZERO));
        assert!(t.stage_at(TraceStage::Respond).is_some());
        assert_eq!(t.stage_at(TraceStage::FastPath), None);
    }

    #[test]
    fn counts_repeated_stages() {
        let mut t = QueryTrace::begin();
        t.record(TraceStage::FetchRound);
        t.record(TraceStage::FetchRound);
        t.record(TraceStage::FetchRound);
        assert_eq!(t.count(TraceStage::FetchRound), 3);
        assert_eq!(t.count(TraceStage::Steal), 0);
    }
}
