//! End-to-end reconciliation of `ServeEngine::metrics_snapshot()` against
//! ground truth the responses themselves carry: a mixed-measure run on the
//! distributed backend (cache off, so every response computes) must
//! produce a snapshot whose counters and histograms agree exactly with the
//! per-response stats, and whose Prometheus rendering is structurally
//! valid and covers the scheduler, cache, and distributed layers.

use rtr_cache::EvictionCost;
use rtr_datagen::{BibNet, BibNetConfig};
use rtr_graph::{Graph, NodeId};
use rtr_integration_tests::SEED;
use rtr_serve::{Backend, Measure, QueryRequest, ServeConfig, ServeEngine, TraceStage};
use rtr_topk::{TopKConfig, TopKWork};
use std::sync::Arc;

fn test_graph() -> (Arc<Graph>, Vec<NodeId>) {
    let net = BibNet::generate(&BibNetConfig::tiny(), SEED);
    let queries: Vec<NodeId> = net
        .graph
        .nodes()
        .filter(|&v| !net.graph.is_dangling(v))
        .take(10)
        .collect();
    (Arc::new(net.graph), queries)
}

/// Every measure through one pool, all run genuinely distributed.
fn mixed_requests(queries: &[NodeId]) -> Vec<QueryRequest> {
    queries
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let r = QueryRequest::node(q).with_k(4);
            match i % 4 {
                0 => r.with_measure(Measure::F),
                1 => r.with_measure(Measure::T),
                2 => r.with_measure(Measure::RtrPlus { beta: 0.5 }),
                _ => r, // RoundTripRank
            }
        })
        .collect()
}

fn base_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        topk: TopKConfig {
            k: 4,
            epsilon: 0.01,
            ..TopKConfig::default()
        },
        ..ServeConfig::default()
    }
    .with_backend(Backend::Distributed { gps: 2 })
    .with_metrics(true)
    .with_tracing(true)
}

#[test]
fn snapshot_reconciles_with_per_response_stats() {
    let (g, queries) = test_graph();
    let requests = mixed_requests(&queries);
    let engine = ServeEngine::start(g, base_config());
    let responses = engine.run_requests(&requests);
    let snap = engine.metrics_snapshot();

    // Cache off: every response is a fresh computation.
    assert!(responses.iter().all(|r| !r.from_cache));
    for r in &responses {
        r.result.as_ref().expect("mixed request failed");
    }

    // Responses served == latency samples recorded, in total and by
    // measure label.
    let n = responses.len() as u64;
    assert_eq!(snap.counter_total("rtr_serve_responses_total"), n);
    assert_eq!(snap.histogram_total("rtr_serve_latency_seconds").count(), n);
    let f_served = responses
        .iter()
        .filter(|r| r.request.measure == Measure::F)
        .count() as u64;
    assert_eq!(
        snap.counter_value("rtr_serve_responses_total", &[("measure", "f")]),
        Some(f_served)
    );

    // Wire cost: the registry's totals are exactly the per-response
    // DistributedStats, summed (fallback responses carry none and add
    // nothing).
    let stats: Vec<_> = responses.iter().filter_map(|r| r.distributed).collect();
    assert!(!stats.is_empty(), "RTR/RTR+ must run genuinely distributed");
    let wire_bytes: u64 = stats.iter().map(|s| s.bytes_transferred as u64).sum();
    let rounds: u64 = stats.iter().map(|s| s.fetch_requests as u64).sum();
    assert_eq!(snap.counter_total("rtr_dist_wire_bytes_total"), wire_bytes);
    assert_eq!(snap.counter_total("rtr_dist_fetch_rounds_total"), rounds);

    // Search work: the per-side counters are the responses' work counts,
    // summed.
    let works: Vec<TopKWork> = responses
        .iter()
        .map(|r| r.result.as_ref().expect("served").work)
        .collect();
    let sum = |count: fn(&TopKWork) -> usize| Some(works.iter().map(|w| count(w) as u64).sum());
    let side = |side| [("side", side)];
    let expanded = |s| snap.counter_value("rtr_topk_side_expansions_total", &side(s));
    let swept = |s| snap.counter_value("rtr_topk_refine_sweeps_total", &side(s));
    assert_eq!(expanded("f"), sum(|w| w.f_rounds));
    assert_eq!(expanded("t"), sum(|w| w.t_rounds));
    assert_eq!(swept("f"), sum(|w| w.f_sweeps));
    assert_eq!(swept("t"), sum(|w| w.t_sweeps));
    assert!(expanded("f") > Some(0) && expanded("t") > Some(0));

    // Miss cost: every response computed, so the counter is the sum of
    // their eviction costs.
    let cost: u64 = responses
        .iter()
        .map(|r| r.result.as_ref().expect("served").eviction_cost())
        .sum();
    assert!(cost > 0);
    assert_eq!(
        snap.counter_value("rtr_serve_miss_cost_total", &[]),
        Some(cost)
    );

    // The trace agrees with the stats response by response: one FetchRound
    // event per wire round.
    for r in &responses {
        if let Some(s) = r.distributed {
            let trace = r.trace.as_ref().expect("tracing on");
            assert_eq!(
                trace.count(TraceStage::FetchRound),
                s.fetch_requests,
                "trace rounds vs stats for {:?}",
                r.request.query.nodes()
            );
        }
    }

    // No errors on this workload.
    assert_eq!(snap.counter_total("rtr_serve_errors_total"), 0);
}

/// Minimal structural validation of the Prometheus exposition text:
/// every family leads with `# HELP` then `# TYPE`, every sample line
/// carries a finite numeric value, and each histogram series' cumulative
/// buckets are non-decreasing with the trailing `le="+Inf"` bucket equal
/// to its `_count` line. Relies on the renderer's documented order —
/// buckets, then `_sum`, then `_count`, per series.
fn validate_prometheus(text: &str) {
    use std::collections::{HashMap, HashSet};
    let mut helped: HashSet<&str> = HashSet::new();
    let mut typed: HashMap<&str, &str> = HashMap::new();
    // Cumulative buckets of the histogram series currently being walked
    // (the renderer emits each series as one contiguous block).
    let mut bucket_prefix = String::new();
    let mut bucket_vals: Vec<f64> = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split_whitespace().next().expect("HELP name"));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name");
            let kind = it.next().expect("TYPE kind");
            assert!(helped.contains(name), "TYPE before HELP for {name}");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind} for {name}"
            );
            typed.insert(name, kind);
            continue;
        }
        // Sample line: `name{labels} value` or `name value`.
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value in: {line}"));
        assert!(value.is_finite(), "non-finite sample: {line}");
        let name = series.split('{').next().expect("series name");
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_count")
            .trim_end_matches("_sum");
        assert!(typed.contains_key(family), "sample {name} has no TYPE");
        if name.ends_with("_bucket") {
            // Everything before the `le=...` label identifies the series.
            let prefix = series
                .split("le=")
                .next()
                .expect("bucket series")
                .to_owned();
            if prefix != bucket_prefix {
                assert!(
                    bucket_vals.is_empty(),
                    "series {bucket_prefix} ended without a _count line"
                );
                bucket_prefix = prefix;
            }
            if let Some(&prev) = bucket_vals.last() {
                assert!(prev <= value, "cumulative buckets decrease in {series}");
            }
            bucket_vals.push(value);
        } else if name.ends_with("_count") {
            let inf = bucket_vals.last().copied().expect("count without buckets");
            assert_eq!(inf, value, "le=\"+Inf\" bucket != count for {series}");
            bucket_vals.clear();
        }
    }
    assert!(bucket_vals.is_empty(), "trailing buckets without a _count");
    assert!(!typed.is_empty(), "no TYPE lines rendered");
}

#[test]
fn prometheus_rendering_is_valid_and_covers_every_layer() {
    let (g, queries) = test_graph();
    let requests = mixed_requests(&queries);
    let engine = ServeEngine::start(g, base_config().with_cache_capacity(64));
    let mut responses = engine.run_requests(&requests);
    // A second pass so the result cache has hits to report.
    responses.extend(engine.run_requests(&requests));
    let snap = engine.metrics_snapshot();
    // Hits replay a result and add no miss cost.
    assert!(responses.iter().any(|r| r.from_cache));
    let miss_cost: u64 = responses
        .iter()
        .filter(|r| !r.from_cache)
        .map(|r| r.result.as_ref().expect("served").eviction_cost())
        .sum();
    assert_eq!(
        snap.counter_value("rtr_serve_miss_cost_total", &[]),
        Some(miss_cost)
    );
    let text = snap.to_prometheus();
    validate_prometheus(&text);
    // One catalog spanning all three wired layers: every family the
    // engine registers (docs/OBSERVABILITY.md; `rtr_net_*` needs a server).
    for name in [
        "rtr_serve_responses_total",
        "rtr_serve_latency_seconds",
        "rtr_serve_queue_wait_seconds",
        "rtr_serve_compute_seconds",
        "rtr_serve_errors_total",
        "rtr_serve_fast_path_total",
        "rtr_serve_queue_depth",
        "rtr_serve_cache_enabled",
        "rtr_serve_miss_cost_total",
        "rtr_cache_hits_total",
        "rtr_cache_misses_total",
        "rtr_cache_inserts_total",
        "rtr_cache_evictions_total",
        "rtr_cache_capacity_entries",
        "rtr_cache_entries",
        "rtr_cache_shard_entries",
        "rtr_dist_wire_bytes_total",
        "rtr_dist_fetch_rounds_total",
        "rtr_dist_blocks_fetched_total",
        "rtr_topk_side_expansions_total",
        "rtr_topk_refine_sweeps_total",
        "rtr_graph_bytes",
    ] {
        assert!(
            text.contains(&format!("# TYPE {name}")),
            "Prometheus text missing {name}"
        );
    }
}

#[test]
fn graph_bytes_are_set_once_at_start_when_metrics_are_on() {
    let (g, _) = test_graph();
    let parts = g.resident_bytes();
    let on = ServeEngine::start(Arc::clone(&g), base_config()).metrics_snapshot();
    let off =
        ServeEngine::start(Arc::clone(&g), base_config().with_metrics(false)).metrics_snapshot();
    for (part, bytes) in parts {
        assert!(bytes > 0, "{part}");
        let gauge = |snap: &rtr_obs::MetricsSnapshot| {
            snap.gauge_value("rtr_graph_bytes", &[("part", part)])
        };
        assert_eq!(gauge(&on), Some(bytes as i64), "{part}");
        // Off, the catalog still lists the family, zeroed.
        assert_eq!(gauge(&off), Some(0), "{part}");
    }
    // The parts are the graph's `memory_bytes`, all of it.
    let all: usize = parts.iter().map(|p| p.1).sum();
    assert_eq!(all, g.memory_bytes());
}

#[test]
fn snapshot_distinguishes_cache_disabled_from_idle() {
    let (g, _) = test_graph();
    // Cache disabled: stats are None forever, and the snapshot says so.
    let disabled = ServeEngine::start(Arc::clone(&g), base_config());
    assert!(disabled.cache_stats().is_none());
    assert_eq!(
        disabled
            .metrics_snapshot()
            .gauge_value("rtr_serve_cache_enabled", &[]),
        Some(0)
    );
    // Cache enabled but idle: zeroed stats, and the snapshot's gauge flips.
    let idle = ServeEngine::start(g, base_config().with_cache_capacity(16));
    let stats = idle.cache_stats().expect("enabled cache reports stats");
    assert_eq!(stats.hits + stats.misses, 0, "idle cache saw no traffic");
    assert_eq!(
        idle.metrics_snapshot()
            .gauge_value("rtr_serve_cache_enabled", &[]),
        Some(1)
    );
}
