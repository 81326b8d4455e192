//! Per-query trace invariants through a live `ServeEngine`: with
//! [`ServeConfig::tracing`] on, every response carries a timeline whose
//! events are monotone in time, begin at `Submit` (t = 0), end at
//! `Respond`, and whose span agrees with the response's own
//! queue-wait + compute split; with tracing off (the default), no
//! response allocates a trace.

use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::NodeId;
use rtr_integration_tests::{node_requests, SEED};
use rtr_serve::{QueryRequest, ServeConfig, ServeEngine, TraceStage};
use rtr_topk::TopKConfig;
use std::sync::Arc;
use std::time::Duration;

/// Generous slack for comparing two independently clocked spans (the
/// trace's own origin vs the engine's latency split). The points being
/// bridged are microseconds apart in practice; the slack only has to
/// absorb a preempted thread on a loaded CI box.
const CLOCK_SLACK: Duration = Duration::from_millis(250);

fn engine(tracing: bool, workers: usize) -> (ServeEngine, Vec<NodeId>) {
    let log = QLog::generate(&QLogConfig::tiny(), SEED);
    let queries: Vec<NodeId> = log
        .phrases
        .iter()
        .copied()
        .filter(|&v| !log.graph.is_dangling(v))
        .take(24)
        .collect();
    let config = ServeConfig {
        workers,
        topk: TopKConfig {
            k: 5,
            epsilon: 0.01,
            ..TopKConfig::default()
        },
        ..ServeConfig::default()
    }
    .with_tracing(tracing)
    .with_metrics(tracing);
    (ServeEngine::start(Arc::new(log.graph), config), queries)
}

#[test]
fn traced_timelines_are_monotone_and_bracket_the_latency_split() {
    let (engine, queries) = engine(true, 2);
    let requests: Vec<QueryRequest> = queries.iter().map(|&q| QueryRequest::node(q)).collect();
    let responses = engine.run_requests(&requests);
    assert_eq!(responses.len(), requests.len());
    for r in &responses {
        let trace = r.trace.as_ref().expect("tracing on must attach a trace");
        let events = trace.events();
        assert!(events.len() >= 2, "at least Submit and Respond");
        assert_eq!(events.first().unwrap().stage, TraceStage::Submit);
        assert_eq!(events.first().unwrap().at, Duration::ZERO);
        assert_eq!(events.last().unwrap().stage, TraceStage::Respond);
        for pair in events.windows(2) {
            assert!(
                pair[0].at <= pair[1].at,
                "stages out of order: {:?} at {:?} then {:?} at {:?}",
                pair[0].stage,
                pair[0].at,
                pair[1].stage,
                pair[1].at
            );
        }
        // The trace spans submit → respond; the response's split measures
        // the same interval on its own clock. They must agree up to slack.
        let span = events.last().unwrap().at;
        let split = r.queue_wait + r.compute;
        assert!(
            span + CLOCK_SLACK >= split && split + CLOCK_SLACK >= span,
            "trace span {span:?} disagrees with queue+compute {split:?}"
        );
        // The stage durations partition the span: each consecutive gap is
        // non-negative (monotonicity above) and they sum to exactly the
        // end-to-end trace latency.
        let summed: Duration = events.windows(2).map(|pair| pair[1].at - pair[0].at).sum();
        assert_eq!(summed, span, "stage gaps must sum to the trace span");
        // Compute is bracketed by its trace stages.
        let start = trace.stage_at(TraceStage::ComputeStart);
        let end = trace.stage_at(TraceStage::ComputeEnd);
        if let (Some(start), Some(end)) = (start, end) {
            assert!(end >= start);
            assert!(
                end - start <= r.compute + CLOCK_SLACK,
                "traced compute {:?} exceeds measured compute {:?}",
                end - start,
                r.compute
            );
        }
    }
}

#[test]
fn queued_requests_record_a_scheduler_stage() {
    let (engine, queries) = engine(true, 2);
    // The submit-side fast path answers cache hits only, and this engine
    // has no cache: every request — the k = 0 one included — queued, and
    // must show Enqueue followed by exactly one Dequeue, and no Steal (there
    // is one shared queue and nothing to steal from).
    let mut requests = node_requests(&queries);
    requests.push(QueryRequest::node(queries[0]).with_k(0));
    for r in engine.run_requests(&requests) {
        let trace = r.trace.as_ref().expect("trace");
        assert!(r.worker.is_some(), "a miss is served by a worker");
        assert_eq!(trace.count(TraceStage::Enqueue), 1);
        assert_eq!(
            trace.count(TraceStage::Dequeue),
            1,
            "a queued request is picked up exactly once"
        );
        assert_eq!(trace.count(TraceStage::Steal), 0, "Steal is never recorded");
        assert_eq!(trace.count(TraceStage::FastPath), 0);
    }
}

#[test]
fn tracing_off_attaches_nothing() {
    let (engine, queries) = engine(false, 2);
    let requests: Vec<QueryRequest> = queries.iter().map(|&q| QueryRequest::node(q)).collect();
    for r in engine.run_requests(&requests) {
        assert!(r.trace.is_none(), "tracing off must not allocate traces");
    }
}
