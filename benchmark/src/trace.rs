//! Benchmark-side spans of the traced segment, and the layer readings
//! that come from the workload itself (response fields, engine counters,
//! `QueryTrace` stage events). Nothing here adds tracing inside a crate.
//!
//! Span tree of one request:
//!
//! ```text
//! client.call                      send/submit → response in hand
//! ├── serve.queue_wait             response.queue_wait
//! └── serve.compute                response.compute
//! ```
//!
//! A layer's self time is its span minus its children, so the three self
//! times partition `client.call` and their shares sum to 1. In process the
//! children are anchored at the engine's own `Respond` stamp (where
//! `serve.compute` ends); over the wire the codec drops the trace, so only
//! the durations are known and the children are centred in the call.

use crate::harness::{Run, Sample};
use crate::run::Report;
use crate::stats::{percentile, percentile_of};
use rtr_serve::{CacheStats, QueryTrace, ServeEngine, TraceStage};
use std::fmt::Write as _;
use std::time::Instant;

/// Cumulative engine counters; two readings bracket the traced segment.
#[derive(Clone, Copy, Default)]
pub struct EngineCounters {
    cache: CacheStats,
    responses: u64,
    attached: u64,
    steals: u64,
    parks: u64,
}

impl EngineCounters {
    pub fn read(engine: &ServeEngine) -> EngineCounters {
        let snapshot = engine.metrics_snapshot();
        EngineCounters {
            cache: engine.cache_stats().unwrap_or_default(),
            responses: snapshot.counter_total("rtr_serve_responses_total"),
            attached: snapshot.counter_total("rtr_serve_attached_total"),
            steals: snapshot.counter_total("rtr_serve_steals_total"),
            parks: snapshot.counter_total("rtr_serve_parks_total"),
        }
    }

    /// Counts between `self` (earlier) and `later`.
    pub fn delta(&self, later: &EngineCounters) -> EngineCounters {
        EngineCounters {
            cache: later.cache.since(&self.cache),
            responses: later.responses - self.responses,
            attached: later.attached - self.attached,
            steals: later.steals - self.steals,
            parks: later.parks - self.parks,
        }
    }
}

/// One request's spans, in nanoseconds from the segment origin.
struct RequestSpans {
    idx: usize,
    call: (u64, u64),
    queue_wait: (u64, u64),
    compute: (u64, u64),
    /// `(stage, at)` events of the engine's own trace (in process only).
    events: Vec<(&'static str, u64)>,
}

pub struct Spans {
    requests: Vec<RequestSpans>,
    anchor: &'static str,
    /// Requests whose children do not fit inside their call span.
    escaped: usize,
    /// Stage-to-stage gaps in microseconds, from the engine's traces.
    stage_gaps: [Vec<f64>; 5],
}

/// Spans written to the file; all of them feed the aggregates.
const WRITTEN: usize = 2000;

fn span_of(sample: &Sample, trace: Option<&QueryTrace>, origin: Instant) -> RequestSpans {
    let call = (sample.start_ns, sample.start_ns + sample.latency_ns);
    // The trace's own clock, as nanoseconds from the segment origin.
    let stamped = |t: &QueryTrace, at: std::time::Duration| {
        (t.origin().duration_since(origin) + at).as_nanos() as u64
    };
    let compute_end = match trace.and_then(|t| Some(stamped(t, t.stage_at(TraceStage::Respond)?))) {
        Some(respond) => respond,
        None => {
            let served = sample.queue_ns + sample.compute_ns;
            call.1 - sample.latency_ns.saturating_sub(served) / 2
        }
    };
    let compute = (compute_end.saturating_sub(sample.compute_ns), compute_end);
    let events = trace.map_or(Vec::new(), |t| {
        t.events()
            .iter()
            .map(|e| (e.stage.name(), stamped(t, e.at)))
            .collect()
    });
    RequestSpans {
        idx: sample.idx,
        call,
        queue_wait: (compute.0.saturating_sub(sample.queue_ns), compute.0),
        compute,
        events,
    }
}

/// Gap in µs from the first `from` event to the first of `to` after it.
fn gap(trace: &QueryTrace, from: &[TraceStage], to: &[TraceStage]) -> Option<f64> {
    let events = trace.events();
    let start = events.iter().position(|e| from.contains(&e.stage))?;
    let end = events[start + 1..].iter().find(|e| to.contains(&e.stage))?;
    Some((end.at - events[start].at).as_secs_f64() * 1e6)
}

impl Spans {
    pub fn collect(runs: &[Run], origin: Instant) -> Spans {
        use TraceStage::*;
        let mut spans = Spans {
            requests: Vec::new(),
            anchor: "centred",
            escaped: 0,
            stage_gaps: Default::default(),
        };
        for run in runs {
            // `kept` and `samples` are both sorted by stream position.
            let mut kept = run.kept.iter().peekable();
            for sample in &run.samples {
                while kept.peek().is_some_and(|(pos, _)| *pos < sample.idx) {
                    kept.next();
                }
                let trace = kept
                    .peek()
                    .filter(|(pos, _)| *pos == sample.idx)
                    .and_then(|(_, r)| r.trace.as_deref());
                if let Some(t) = trace {
                    spans.anchor = "engine-trace";
                    let pairs: [(&[TraceStage], &[TraceStage]); 4] = [
                        (&[Enqueue], &[Dequeue, Steal]),
                        (&[Dequeue, Steal], &[ComputeStart]),
                        (&[ComputeStart], &[ComputeEnd]),
                        (&[ComputeEnd], &[Respond]),
                    ];
                    for (slot, (from, to)) in pairs.iter().enumerate() {
                        spans.stage_gaps[slot].extend(gap(t, from, to));
                    }
                    // A fetch round is stamped when it starts; it ends no
                    // later than the next stamp.
                    for pair in t.events().windows(2) {
                        if pair[0].stage == FetchRound {
                            spans.stage_gaps[4].push((pair[1].at - pair[0].at).as_secs_f64() * 1e6);
                        }
                    }
                }
                let s = span_of(sample, trace, origin);
                if s.queue_wait.0 < s.call.0 || s.compute.1 > s.call.1 {
                    spans.escaped += 1;
                }
                spans.requests.push(s);
            }
        }
        spans
    }

    /// `(client.call self, serve.queue_wait, serve.compute)` shares of the
    /// total `client.call` time.
    fn shares(&self) -> [f64; 3] {
        let mut total = [0u64; 3];
        for r in &self.requests {
            let (call, queue, compute) = (
                r.call.1 - r.call.0,
                r.queue_wait.1 - r.queue_wait.0,
                r.compute.1 - r.compute.0,
            );
            total[0] += call.saturating_sub(queue + compute);
            total[1] += queue;
            total[2] += compute;
        }
        let sum = total.iter().sum::<u64>().max(1) as f64;
        total.map(|t| t as f64 / sum)
    }

    /// Write `benchmark/out/trace-<workload>.json` and note each layer's
    /// share of the span time in the report.
    pub fn write(&self, workload: &str, report: &mut Report) -> std::io::Result<String> {
        let shares = self.shares();
        report.note(format!(
            "span time shares over {} requests: client.call(self) {:.4}, serve.queue_wait {:.4}, serve.compute {:.4} (sum {:.4})",
            self.requests.len(),
            shares[0],
            shares[1],
            shares[2],
            shares.iter().sum::<f64>()
        ));
        report.guard(self.escaped == 0, || {
            format!(
                "{} requests have a child span outside client.call",
                self.escaped
            )
        });
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"anchor\": \"{}\", \"requests_traced\": {}, \"requests_written\": {}, \"self_time_shares\": {{\"client.call\": {:?}, \"serve.queue_wait\": {:?}, \"serve.compute\": {:?}}}, \"requests\": [",
            self.anchor,
            self.requests.len(),
            self.requests.len().min(WRITTEN),
            shares[0],
            shares[1],
            shares[2]
        );
        for (n, r) in self.requests.iter().take(WRITTEN).enumerate() {
            let sep = if n == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n{{\"request\": {}, \"spans\": [", r.idx);
            let span = |name: &str, (start, end): (u64, u64), parent: &str| {
                format!("{{\"name\": \"{name}\", \"start\": {start}, \"end\": {end}, \"parent\": {parent}}}")
            };
            let _ = write!(
                out,
                "{}, {}, {}], \"events\": [",
                span("client.call", r.call, "null"),
                span("serve.queue_wait", r.queue_wait, "\"client.call\""),
                span("serve.compute", r.compute, "\"client.call\"")
            );
            for (m, (stage, at)) in r.events.iter().enumerate() {
                let sep = if m == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{{\"stage\": \"{stage}\", \"at\": {at}}}");
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/trace-{workload}.json");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Layer readings that only the workload itself can give.
pub fn workload_metrics(
    runs: &[Run],
    spans: &Spans,
    counters: &EngineCounters,
    report: &mut Report,
) {
    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let n = samples.len().max(1) as f64;
    let sorted_ms = |f: &dyn Fn(&Sample) -> u64| {
        let mut v: Vec<f64> = samples.iter().map(|s| f(s) as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let queue = sorted_ms(&|s| s.queue_ns);
    let compute = sorted_ms(&|s| s.compute_ns);
    report.set("serve.queue_wait_ms_p50", percentile(&queue, 50.0));
    report.set("serve.queue_wait_ms_p99", percentile(&queue, 99.0));
    report.set("serve.compute_ms_p50", percentile(&compute, 50.0));
    report.set("serve.compute_ms_p99", percentile(&compute, 99.0));
    report.set(
        "serve.fast_path_fraction",
        samples.iter().filter(|s| s.inline).count() as f64 / n,
    );
    let per_kquery = |count: u64| count as f64 * 1000.0 / counters.responses.max(1) as f64;
    report.set(
        "serve.attached_fraction",
        counters.attached as f64 / counters.responses.max(1) as f64,
    );
    report.set("serve.steals_per_kquery", per_kquery(counters.steals));
    report.set("serve.parks_per_kquery", per_kquery(counters.parks));
    report.set("cache.hit_rate", counters.cache.hit_rate());
    report.set(
        "cache.evictions_per_kquery",
        per_kquery(counters.cache.evictions),
    );
    report.set(
        "net.rejects",
        runs.iter().map(|r| r.rejects).sum::<u64>() as f64,
    );
    for (name, gaps) in [
        "serve.stage.enqueue_to_dequeue_us_p50",
        "serve.stage.dequeue_to_compute_us_p50",
        "serve.stage.compute_us_p50",
        "serve.stage.compute_to_respond_us_p50",
        "serve.stage.fetch_round_us_p50",
    ]
    .into_iter()
    .zip(&spans.stage_gaps)
    {
        report.set(name, percentile_of(gaps.clone(), 50.0));
    }
}
