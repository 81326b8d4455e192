//! The benchmark's fixed vocabulary: the four workloads and every metric
//! name, unit and direction. `BENCHMARK.json` at the repository root
//! carries the same names (a unit test holds the two together).

use crate::inputs::{Mix, Tier};
use rtr_serve::Backend;

/// How the load reaches the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `clients` threads, each in a blocking `submit().wait()` loop.
    InProc { clients: usize },
    /// `connections` loopback TCP connections to a `NetServer`, one
    /// client thread each.
    Wire { connections: usize },
}

/// One way of driving the transport inside a measured segment. A segment
/// runs its phases back to back, an equal share of the segment each.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Requests each client keeps in flight (1 = blocking call).
    pub window: usize,
    /// Whether `latency_p50_ms` is taken from this phase.
    pub median_latency: bool,
    /// Whether `latency_p99_ms` is taken from this phase.
    pub tail_latency: bool,
    /// Whether `throughput_qps` is taken from this phase.
    pub throughput: bool,
}

/// Blocking callers; latency and throughput from the same loop.
const CLOSED: [Phase; 1] = [Phase {
    window: 1,
    median_latency: true,
    tail_latency: true,
    throughput: true,
}];

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub tier: Tier,
    pub mix: Mix,
    pub backend: Backend,
    pub workers: usize,
    pub cache_capacity: usize,
    pub transport: Transport,
    pub phases: &'static [Phase],
    /// Requests served and discarded before the measured segments.
    pub warmup: usize,
    /// Measured segments of a gated run; each timing metric is a quartile
    /// of the per-segment values (see `run::favourable_quartile`). More
    /// and shorter segments where a second holds thousands of latency
    /// samples, fewer and longer where it holds fifty.
    pub segments: usize,
    /// Every `verify_stride`-th measured response is kept and compared
    /// with the serial reference.
    pub verify_stride: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_local",
        why: "1M-node graph, cache off, distinct single-node RTR: topk + core::bca + graph adjacency do all the work",
        tier: Tier::Qlog1m,
        mix: Mix::UniformDistinct,
        backend: Backend::Local,
        workers: 2,
        cache_capacity: 0,
        transport: Transport::InProc { clients: 2 },
        phases: &CLOSED,
        warmup: 300,
        segments: 5,
        verify_stride: 8,
    },
    Workload {
        name: "dist_cold",
        why: "the cold_local queries on the AP/GP backend (2 GPs, 1 worker): distributed fetch + graph::wire are the extra work",
        tier: Tier::Qlog1m,
        mix: Mix::UniformDistinct,
        backend: Backend::Distributed { gps: 2 },
        workers: 1,
        cache_capacity: 0,
        transport: Transport::InProc { clients: 1 },
        phases: &CLOSED,
        warmup: 100,
        segments: 5,
        verify_stride: 3,
    },
    Workload {
        name: "wire_hot",
        why: "26k-node graph, every request a cache hit over loopback TCP: net framing/codec/queues dominate, engines idle",
        tier: Tier::Qlog26k,
        mix: Mix::HotPool { identities: 256 },
        backend: Backend::Local,
        workers: 2,
        cache_capacity: 4096,
        transport: Transport::Wire { connections: 2 },
        phases: &[
            // The blocking call gives the median. Above its 75th percentile
            // a 16 µs loopback call on two shared cores measures the
            // scheduler (its p99 spread by 11-27 % over ten runs in a calm
            // half hour), so the tail is the one a client sees that keeps
            // its connection full.
            Phase {
                window: 1,
                median_latency: true,
                tail_latency: false,
                throughput: false,
            },
            Phase {
                window: 32,
                median_latency: false,
                tail_latency: true,
                throughput: true,
            },
        ],
        warmup: 20_000,
        segments: 15,
        verify_stride: 1024,
    },
    Workload {
        name: "wire_mixed",
        why: "Zipf mix of RTR/RTR+/F/T over 2048 identities against a 512-entry cache over TCP: every layer participates",
        tier: Tier::Qlog26k,
        mix: Mix::ZipfMixed {
            identities: 2048,
            s: 1.0,
        },
        backend: Backend::Local,
        workers: 2,
        cache_capacity: 512,
        transport: Transport::Wire { connections: 2 },
        phases: &[Phase {
            window: 8,
            median_latency: true,
            tail_latency: true,
            throughput: true,
        }],
        warmup: 1000,
        segments: 5,
        verify_stride: 7,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of a metric.
pub type MetricName = (&'static str, &'static str);

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricName; 6] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Single-layer readings of the traced run, prefix = crate.
pub const PER_LAYER: [MetricName; 83] = [
    ("datagen.generate_s", "s"),
    ("graph.build_s", "s"),
    ("graph.bytes_per_edge", "B"),
    ("graph.out_scan_ns_per_edge", "ns"),
    ("graph.in_scan_ns_per_edge", "ns"),
    ("graph.block_extract_ns", "ns"),
    ("graph.block_encode_ns", "ns"),
    ("graph.block_decode_ns", "ns"),
    ("graph.block_bytes_mean", "B"),
    ("core.bca_push_ns", "ns"),
    ("core.bca_pushes_per_query", "count"),
    ("core.iter_f_ms_p50", "ms"),
    ("core.iter_t_ms_p50", "ms"),
    ("core.iter_sweeps_per_query", "count"),
    ("topk.query_ms_p50", "ms"),
    ("topk.query_ms_p99", "ms"),
    ("topk.expansions_per_query", "count"),
    ("topk.active_nodes_p50", "count"),
    ("topk.active_nodes_p99", "count"),
    ("topk.active_bytes_p50", "B"),
    ("topk.converged_fraction", "share"),
    ("topk.us_per_expansion", "us"),
    ("topk.f_expand_us", "us"),
    ("topk.f_refine_us", "us"),
    ("topk.t_expand_us", "us"),
    ("topk.t_refine_us", "us"),
    ("topk.plus_b07_ms_p50", "ms"),
    ("topk.plus_b045_ms_p50", "ms"),
    ("topk.plus_b045_expansions", "count"),
    ("topk.precision_at_k", "share"),
    ("cache.key_build_ns", "ns"),
    ("cache.get_hit_ns", "ns"),
    ("cache.get_miss_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("cache.hit_rate", "share"),
    ("cache.evictions_per_kquery", "count"),
    ("serve.resolve_ns", "ns"),
    ("serve.hit_submit_wait_ns", "ns"),
    ("serve.hop_us_p50", "us"),
    ("serve.hop_us_p99", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.compute_ms_p99", "ms"),
    ("serve.overhead_us_p50", "us"),
    ("serve.fast_path_fraction", "share"),
    ("serve.attached_fraction", "share"),
    ("serve.steals_per_kquery", "count"),
    ("serve.parks_per_kquery", "count"),
    ("serve.stage.enqueue_to_dequeue_us_p50", "us"),
    ("serve.stage.dequeue_to_compute_us_p50", "us"),
    ("serve.stage.compute_us_p50", "us"),
    ("serve.stage.compute_to_respond_us_p50", "us"),
    ("serve.stage.fetch_round_us_p50", "us"),
    ("dist.cluster_spawn_s", "s"),
    ("dist.bytes_per_query", "B"),
    ("dist.fetch_rounds_per_query", "count"),
    ("dist.blocks_cold_per_query", "count"),
    ("dist.blocks_prefetched_per_query", "count"),
    ("dist.blocks_resident_per_query", "count"),
    ("dist.block_hit_rate", "share"),
    ("dist.block_cache_invalidations", "count"),
    ("dist.fetch_round_us_p50", "us"),
    ("dist.overhead_ratio", "ratio"),
    ("net.encode_request_ns", "ns"),
    ("net.decode_request_ns", "ns"),
    ("net.encode_response_ns", "ns"),
    ("net.decode_response_ns", "ns"),
    ("net.json_encode_response_ns", "ns"),
    ("net.json_decode_response_ns", "ns"),
    ("net.frame_parse_ns", "ns"),
    ("net.request_frame_bytes", "B"),
    ("net.response_frame_bytes", "B"),
    ("net.admit_ns", "ns"),
    ("net.ping_rtt_us_p50", "us"),
    ("net.ping_rtt_us_p99", "us"),
    ("net.self_us_p50", "us"),
    ("net.call_minus_inproc_us_p50", "us"),
    ("net.pipeline_speedup", "ratio"),
    ("net.rejects", "count"),
    ("obs.trace_overhead_fraction", "share"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.snapshot_ms", "ms"),
];

/// What `--list` prints: workload names, then end-to-end metric names,
/// then per-layer metric names, one per line under a heading each.
pub fn listing() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {} - {}\n", w.name, w.why));
    }
    out.push_str("end_to_end:\n");
    for (name, unit) in END_TO_END {
        out.push_str(&format!("  {name} [{unit}]\n"));
    }
    out.push_str("per_layer:\n");
    for (name, unit) in PER_LAYER {
        out.push_str(&format!("  {name} [{unit}]\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<value>"` in the manifest, in file order.
    fn manifest_names(text: &str) -> Vec<&str> {
        text.split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1))
            .collect()
    }

    #[test]
    fn list_prints_exactly_the_names_in_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let listed: Vec<String> = listing()
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(|l| l.trim().split(' ').next().unwrap_or("").to_string())
            .collect();
        assert_eq!(manifest_names(manifest), listed);
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0));
        for name in &all {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate name");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
