//! Direct-call layer probes: each times one crate's public functions on
//! inputs taken from the workload's own graph and query pool, from
//! outside the crate. Every probe owns its fixtures (engine, cluster,
//! server), so the same probes run unchanged after any workload.
//!
//! Probes whose counts must repeat exactly for a seed (`topk.*` counts,
//! `dist.*` per-query counts, frame sizes) run a fixed number of queries;
//! the rest run until a small time budget is spent, at least once.

use crate::harness::{base_config, Detail, Plan, Run, Sample, System};
use crate::inputs::{Mix, Stream, WHALE_BETA};
use crate::run::Report;
use crate::spec::{workload, Phase, Workload};
use crate::stats::{mean, ns, percentile, percentile_of};
use bytes::BytesMut;
use rtr_cache::{CacheConfig, ResultCache};
use rtr_core::bca::Bca;
use rtr_core::iterative::{iterate, Direction};
use rtr_core::prelude::Query;
use rtr_core::RankParams;
use rtr_distributed::{
    BlockCacheMetrics, DistributedTwoSBound, DistributedWorkspace, GpCluster, ReplySlot,
};
use rtr_graph::wire::NodeBlock;
use rtr_graph::{Graph, GraphBuilder, NodeId};
use rtr_net::admission::Admission;
use rtr_net::{
    AdmissionConfig, Frame, FrameType, NetClient, NetServer, NetServerConfig, TenantPolicy,
    MAX_PAYLOAD,
};
use rtr_serve::{Measure, QueryRequest, QueryResponse, ServeConfig, ServeEngine};
use rtr_topk::fbound::FNeighborhood;
use rtr_topk::tbound::TNeighborhood;
use rtr_topk::{Scheme, TopKResult, TopKWorkspace, TwoSBound, TwoSBoundPlus};
use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries of the fixed-count probes.
const TOPK_QUERIES: usize = 200;
const DIST_QUERIES: usize = 40;
/// Wall-time budget of a budgeted probe.
const BUDGET: Duration = Duration::from_millis(600);

/// Mean nanoseconds per call of `op` over `iters` calls.
fn ns_per_call<T>(iters: usize, mut op: impl FnMut(usize) -> T) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        black_box(op(i));
    }
    ns(started.elapsed()) / iters as f64
}

/// Call `op` until [`BUDGET`] is spent (at least once, at most `cap`
/// times); the per-call times in milliseconds, sorted.
fn budgeted_ms(cap: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < cap && (times.is_empty() || started.elapsed() < BUDGET) {
        let t = Instant::now();
        op(times.len());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    times
}

pub fn run_all(graph: &Arc<Graph>, stream: &Stream, report: &mut Report) {
    // Probe queries come from the far end of the pool, away from the
    // prefix the workload itself just ran (and may have left in caches).
    let pool: Vec<NodeId> = stream.pool().iter().rev().copied().collect();
    let config = base_config().with_workers(2).with_metrics(true);
    graph_probes(graph, &pool, report);
    let sample = topk_probes(graph, &pool, &config, report);
    core_probes(graph, &pool, &config, report);
    cache_probes(graph, &pool, &config, &sample, report);
    serve_probes(graph, &pool, &config, report);
    dist_probes(graph, &pool, &config, report);
    net_probes(graph, &pool, &config, report);
    obs_probes(graph, &config, report);
}

/// `graph` and `graph::wire`: CSR rebuild, adjacency sweeps over the
/// two-hop surroundings of pool nodes (one cold pass, like a query's
/// first touch), and node-block extract/encode/decode.
fn graph_probes(g: &Graph, pool: &[NodeId], report: &mut Report) {
    let started = Instant::now();
    let mut b = GraphBuilder::with_capacity(g.node_count(), g.edge_count());
    let ty = b.register_type("node");
    for _ in g.nodes() {
        b.add_node(ty);
    }
    for v in g.nodes() {
        for (dst, w) in g.out_edges_weighted(v) {
            b.add_edge(v, dst, w);
        }
    }
    let feeding = started.elapsed();
    let started = Instant::now();
    let rebuilt = b.build();
    report.set("graph.build_s", started.elapsed().as_secs_f64());
    report.note(format!(
        "graph.build_s excludes {:.3} s of feeding {} edges to the builder",
        feeding.as_secs_f64(),
        rebuilt.edge_count()
    ));
    drop(rebuilt);
    report.set(
        "graph.bytes_per_edge",
        g.memory_bytes() as f64 / g.edge_count().max(1) as f64,
    );

    let mut active: Vec<NodeId> = Vec::new();
    for &q in &pool[..pool.len().min(256)] {
        active.push(q);
        for &u in g.out_neighbors(q) {
            active.push(u);
            active.extend(g.out_neighbors(u).iter().take(64));
        }
    }
    let sweep = |edges: &dyn Fn(NodeId) -> f64| {
        let started = Instant::now();
        let mut acc = 0.0;
        for &v in &active {
            acc += edges(v);
        }
        black_box(acc);
        ns(started.elapsed())
    };
    let out_edges: usize = active.iter().map(|&v| g.out_degree(v)).sum();
    let in_edges: usize = active.iter().map(|&v| g.in_degree(v)).sum();
    let out_ns = sweep(&|v| g.out_edges(v).map(|(_, p)| p).sum());
    let in_ns = sweep(&|v| g.in_edges(v).map(|(_, p)| p).sum());
    report.set(
        "graph.out_scan_ns_per_edge",
        out_ns / out_edges.max(1) as f64,
    );
    report.set("graph.in_scan_ns_per_edge", in_ns / in_edges.max(1) as f64);

    let nodes = &active[..active.len().min(4096)];
    report.set(
        "graph.block_extract_ns",
        ns_per_call(nodes.len(), |i| NodeBlock::extract(g, nodes[i])),
    );
    let blocks: Vec<NodeBlock> = nodes.iter().map(|&v| NodeBlock::extract(g, v)).collect();
    let mut buf = BytesMut::new();
    report.set(
        "graph.block_encode_ns",
        ns_per_call(blocks.len(), |i| {
            buf.clear();
            blocks[i].encode(&mut buf);
            buf.len()
        }),
    );
    let encoded: Vec<bytes::Bytes> = blocks
        .iter()
        .map(|b| {
            let mut buf = BytesMut::new();
            b.encode(&mut buf);
            buf.freeze()
        })
        .collect();
    report.set(
        "graph.block_decode_ns",
        ns_per_call(encoded.len(), |i| {
            NodeBlock::decode(&mut encoded[i].clone())
        }),
    );
    report.set(
        "graph.block_bytes_mean",
        mean(&encoded.iter().map(|e| e.len() as f64).collect::<Vec<_>>()),
    );
}

/// `topk`: direct `TwoSBound::run_with` on one thread over a fixed query
/// set, the same queries replayed through `FNeighborhood` /
/// `TNeighborhood::{expand, refine}` for the per-stage costs, and the
/// RTR+ engine at both β. Returns one result for the cache probes.
fn topk_probes(
    g: &Graph,
    pool: &[NodeId],
    config: &ServeConfig,
    report: &mut Report,
) -> Arc<TopKResult> {
    let (params, topk) = (config.params, config.topk);
    let engine = TwoSBound::new(params, topk);
    let mut ws = TopKWorkspace::with_capacity(g.node_count());
    let queries = &pool[..pool.len().min(TOPK_QUERIES)];
    let mut times = Vec::new();
    let mut results = Vec::new();
    for &q in queries {
        let t = Instant::now();
        let result = engine.run_with(g, q, &mut ws).expect("probe query");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        results.push(result);
    }
    let total_ms: f64 = times.iter().sum();
    times.sort_by(f64::total_cmp);
    let expansions: usize = results.iter().map(|r| r.expansions).sum();
    let sorted = |f: &dyn Fn(&TopKResult) -> usize| {
        let mut v: Vec<f64> = results.iter().map(|r| f(r) as f64).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let nodes = sorted(&|r| r.active.active_nodes);
    report.set("topk.query_ms_p50", percentile(&times, 50.0));
    report.set("topk.query_ms_p99", percentile(&times, 99.0));
    report.set(
        "topk.expansions_per_query",
        expansions as f64 / results.len() as f64,
    );
    report.set("topk.active_nodes_p50", percentile(&nodes, 50.0));
    report.set("topk.active_nodes_p99", percentile(&nodes, 99.0));
    report.set(
        "topk.active_bytes_p50",
        percentile(&sorted(&|r| r.active.bytes), 50.0),
    );
    report.set(
        "topk.converged_fraction",
        results.iter().filter(|r| r.converged).count() as f64 / results.len() as f64,
    );
    report.set(
        "topk.us_per_expansion",
        total_ms * 1e3 / expansions.max(1) as f64,
    );

    // The stages of Algorithm 1, driven from outside for exactly as many
    // rounds as the real query took.
    let scheme = Scheme::TwoSBound;
    let refine_tol = topk.refine_tolerance.max(topk.epsilon * 1e-2);
    let mut stage = [Duration::ZERO; 4];
    let mut a = g;
    for (&q, result) in queries.iter().zip(&results).take(64) {
        let mut f = FNeighborhood::new(&a, q, &params, scheme.f_mode()).expect("probe query");
        let mut t = TNeighborhood::new(&a, q, &params, scheme.t_mode()).expect("probe query");
        for _ in 0..result.expansions {
            let t0 = Instant::now();
            f.expand(&mut a, topk.m_f).expect("in-memory graph");
            let t1 = Instant::now();
            f.refine(&a, refine_tol, topk.refine_max_sweeps);
            let t2 = Instant::now();
            t.expand(&mut a, topk.m_t).expect("in-memory graph");
            let t3 = Instant::now();
            t.refine(&a, refine_tol, topk.refine_max_sweeps);
            let t4 = Instant::now();
            for (slot, d) in [t1 - t0, t2 - t1, t3 - t2, t4 - t3].into_iter().enumerate() {
                stage[slot] += d;
            }
        }
    }
    let rounds: usize = results.iter().take(64).map(|r| r.expansions).sum();
    for (name, d) in [
        "topk.f_expand_us",
        "topk.f_refine_us",
        "topk.t_expand_us",
        "topk.t_refine_us",
    ]
    .into_iter()
    .zip(stage)
    {
        report.set(name, d.as_secs_f64() * 1e6 / rounds.max(1) as f64);
    }

    let mut plus = |beta: f64| {
        let engine = TwoSBoundPlus::new(params, topk, beta).expect("valid beta");
        let mut expansions = Vec::new();
        let times = budgeted_ms(queries.len(), |i| {
            let r = engine
                .run_with(g, queries[i], &mut ws)
                .expect("probe query");
            expansions.push(r.expansions as f64);
        });
        (percentile(&times, 50.0), mean(&expansions))
    };
    report.set("topk.plus_b07_ms_p50", plus(0.7).0);
    let (whale_ms, whale_expansions) = plus(WHALE_BETA);
    report.set("topk.plus_b045_ms_p50", whale_ms);
    report.set("topk.plus_b045_expansions", whale_expansions);
    Arc::new(results.swap_remove(0))
}

/// `core`: BCA pushes at the real queries' batch size, and the exact
/// fixed-point engines the F/T requests run on. (A multi-node request is
/// one F and one T iteration per query node by linearity, so it has no
/// reading of its own.)
fn core_probes(g: &Graph, pool: &[NodeId], config: &ServeConfig, report: &mut Report) {
    let params: RankParams = config.params;
    let engine = TwoSBound::new(params, config.topk);
    let mut ws = TopKWorkspace::with_capacity(g.node_count());
    let (mut pushes, mut spent, mut queries) = (0usize, Duration::ZERO, 0usize);
    let mut a = g;
    for &q in &pool[..pool.len().min(64)] {
        let rounds = engine
            .run_with(g, q, &mut ws)
            .expect("probe query")
            .expansions;
        let mut bca = Bca::new(&a, q, &params).expect("probe query");
        let started = Instant::now();
        for _ in 0..rounds {
            bca.process_batch_count(&mut a, config.topk.m_f)
                .expect("in-memory graph");
        }
        spent += started.elapsed();
        pushes += bca.processed_count();
        queries += 1;
    }
    report.set("core.bca_push_ns", ns(spent) / pushes.max(1) as f64);
    report.set(
        "core.bca_pushes_per_query",
        pushes as f64 / queries.max(1) as f64,
    );

    let mut sweeps = Vec::new();
    let mut exact = |direction: Direction| {
        let times = budgeted_ms(pool.len().min(32), |i| {
            let (_, stats) =
                iterate(g, &Query::single(pool[i]), &params, direction).expect("probe query");
            sweeps.push(stats.iterations as f64);
        });
        percentile(&times, 50.0)
    };
    report.set("core.iter_f_ms_p50", exact(Direction::Forward));
    report.set("core.iter_t_ms_p50", exact(Direction::Backward));
    report.set("core.iter_sweeps_per_query", mean(&sweeps));
}

/// `cache`: key construction and the hit / miss / insert-with-eviction
/// paths of the result cache, single-threaded.
fn cache_probes(
    g: &Graph,
    pool: &[NodeId],
    config: &ServeConfig,
    value: &Arc<TopKResult>,
    report: &mut Report,
) {
    const CAPACITY: usize = 512;
    let resolved: Vec<_> = pool[..pool.len().min(4 * CAPACITY)]
        .iter()
        .map(|&v| QueryRequest::node(v).resolve(config))
        .collect();
    let n = resolved.len();
    report.set(
        "cache.key_build_ns",
        ns_per_call(20_000, |i| resolved[i % n].cache_key(g.epoch())),
    );
    let keys: Vec<_> = resolved.iter().map(|r| r.cache_key(g.epoch())).collect();
    let cache = ResultCache::new(CacheConfig {
        capacity: CAPACITY,
        shards: config.cache_shards,
    });
    let resident = CAPACITY / 2;
    for key in &keys[..resident] {
        cache.insert(key.clone(), Arc::clone(value));
    }
    report.set(
        "cache.get_hit_ns",
        ns_per_call(50_000, |i| cache.get(&keys[i % resident])),
    );
    report.set(
        "cache.get_miss_ns",
        ns_per_call(50_000, |i| cache.get(&keys[resident + i % (n - resident)])),
    );
    // Cycling through four times the capacity keeps every shard full, so
    // each insert evicts.
    report.set(
        "cache.insert_evict_ns",
        ns_per_call(50_000, |i| {
            cache.insert(keys[i % n].clone(), Arc::clone(value))
        }),
    );
}

fn submit_wait(engine: &ServeEngine, request: QueryRequest) -> (Duration, QueryResponse) {
    let sent = Instant::now();
    let response = engine.submit(request).wait();
    (sent.elapsed(), response)
}

/// `serve`: request resolution, the inline hit path, and the scheduler
/// hop of a miss on an otherwise idle engine.
fn serve_probes(graph: &Arc<Graph>, pool: &[NodeId], config: &ServeConfig, report: &mut Report) {
    let request = QueryRequest::node(pool[0]);
    report.set(
        "serve.resolve_ns",
        ns_per_call(20_000, |_| request.resolve(config)),
    );
    let engine = ServeEngine::start(Arc::clone(graph), config.with_cache_capacity(64));
    submit_wait(&engine, request.clone());
    report.set(
        "serve.hit_submit_wait_ns",
        ns_per_call(20_000, |_| engine.submit(request.clone()).wait()),
    );
    let (mut hop, mut overhead) = (Vec::new(), Vec::new());
    for &q in &pool[1..pool.len().min(101)] {
        let (latency, response) = submit_wait(&engine, QueryRequest::node(q));
        hop.push(response.queue_wait.as_secs_f64() * 1e6);
        overhead.push(
            (latency.saturating_sub(response.queue_wait + response.compute)).as_secs_f64() * 1e6,
        );
    }
    hop.sort_by(f64::total_cmp);
    report.set("serve.hop_us_p50", percentile(&hop, 50.0));
    report.set("serve.hop_us_p99", percentile(&hop, 99.0));
    report.set("serve.overhead_us_p50", percentile_of(overhead, 50.0));
    engine.shutdown();
}

/// `distributed`: the AP/GP path driven directly (one AP, two GPs) on a
/// fixed query set, against the local engine on the same queries.
fn dist_probes(g: &Graph, pool: &[NodeId], config: &ServeConfig, report: &mut Report) {
    let started = Instant::now();
    let cluster = GpCluster::spawn(g, 2);
    report.set("dist.cluster_spawn_s", started.elapsed().as_secs_f64());

    let queries = &pool[..pool.len().min(DIST_QUERIES)];
    let local = TwoSBound::new(config.params, config.topk);
    let remote = DistributedTwoSBound::new(config.params, config.topk);
    let mut local_ws = TopKWorkspace::with_capacity(g.node_count());
    let mut ws = DistributedWorkspace::new();
    let meters = BlockCacheMetrics::default();
    ws.cache.set_metrics(meters.clone());
    let (mut local_ms, mut remote_ms) = (Vec::new(), Vec::new());
    let mut sum = rtr_distributed::DistributedStats::default();
    for &q in queries {
        let t = Instant::now();
        let here = local.run_with(g, q, &mut local_ws).expect("probe query");
        local_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let (there, stats) = remote.run_with(&cluster, q, &mut ws).expect("probe query");
        remote_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.guard(crate::verify::same_result(&here, &there), || {
            format!("distributed and local engines disagree on {q:?}")
        });
        sum.fetch_requests += stats.fetch_requests;
        sum.blocks_fetched += stats.blocks_fetched;
        sum.blocks_prefetched += stats.blocks_prefetched;
        sum.blocks_from_cache += stats.blocks_from_cache;
        sum.bytes_transferred += stats.bytes_transferred;
    }
    let per_query = |count: usize| count as f64 / queries.len().max(1) as f64;
    report.set("dist.bytes_per_query", per_query(sum.bytes_transferred));
    report.set("dist.fetch_rounds_per_query", per_query(sum.fetch_requests));
    report.set("dist.blocks_cold_per_query", per_query(sum.blocks_fetched));
    report.set(
        "dist.blocks_prefetched_per_query",
        per_query(sum.blocks_prefetched),
    );
    report.set(
        "dist.blocks_resident_per_query",
        per_query(sum.blocks_from_cache),
    );
    report.set(
        "dist.block_hit_rate",
        sum.blocks_from_cache as f64 / (sum.blocks_from_cache + sum.blocks_fetched).max(1) as f64,
    );
    report.set(
        "dist.block_cache_invalidations",
        (meters.evictions.get() + meters.invalidations.get()) as f64,
    );
    report.set(
        "dist.overhead_ratio",
        percentile_of(remote_ms, 50.0) / percentile_of(local_ms, 50.0),
    );

    let mut slot = ReplySlot::new();
    let mut rounds = Vec::new();
    for ids in pool[DIST_QUERIES.min(pool.len())..]
        .chunks_exact(64)
        .take(50)
    {
        let t = Instant::now();
        black_box(cluster.fetch(ids, &mut slot).expect("live cluster"));
        rounds.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.set("dist.fetch_round_us_p50", percentile_of(rounds, 50.0));
}

/// `net`: codec, framing and admission by direct call; then a loopback
/// server on an idle engine for ping, the blocking hit call against the
/// same hit in process, and pipelining on one connection.
fn net_probes(graph: &Arc<Graph>, pool: &[NodeId], config: &ServeConfig, report: &mut Report) {
    let request = QueryRequest::node(pool[0]).with_measure(Measure::Rtr);
    let engine = Arc::new(ServeEngine::start(
        Arc::clone(graph),
        config.with_cache_capacity(64),
    ));
    let response = engine.submit(request.clone()).wait();

    let mut buf = BytesMut::new();
    report.set(
        "net.encode_request_ns",
        ns_per_call(20_000, |_| {
            buf.clear();
            rtr_net::encode_request(&request, &mut buf);
        }),
    );
    let request_payload = buf.clone().freeze();
    report.set(
        "net.decode_request_ns",
        ns_per_call(20_000, |_| {
            rtr_net::decode_request(request_payload.as_slice())
        }),
    );
    report.set(
        "net.encode_response_ns",
        ns_per_call(20_000, |_| {
            buf.clear();
            rtr_net::encode_response(&response, &mut buf);
        }),
    );
    let response_payload = buf.clone().freeze();
    report.set(
        "net.decode_response_ns",
        ns_per_call(20_000, |_| {
            rtr_net::decode_response(response_payload.as_slice())
        }),
    );
    report.set(
        "net.json_encode_response_ns",
        ns_per_call(5_000, |_| rtr_net::json::response_to_json(&response)),
    );
    let json = rtr_net::json::response_to_json(&response);
    report.set(
        "net.json_decode_response_ns",
        ns_per_call(5_000, |_| rtr_net::json::response_from_json(&json)),
    );
    let frame = |frame_type, payload| Frame {
        frame_type,
        json: false,
        tenant: 0,
        request_id: 1,
        payload,
    };
    let request_frame = frame(FrameType::Request, request_payload).to_bytes();
    let response_frame = frame(FrameType::Response, response_payload).to_bytes();
    report.set("net.request_frame_bytes", request_frame.len() as f64);
    report.set("net.response_frame_bytes", response_frame.len() as f64);
    report.set(
        "net.frame_parse_ns",
        ns_per_call(20_000, |_| {
            Frame::parse(response_frame.as_slice(), MAX_PAYLOAD)
        }),
    );
    // A bucket that refills faster than the probe drains it: the admit
    // path with its arithmetic, never the reject path.
    let admission =
        Admission::new(AdmissionConfig::unlimited().with_default(TenantPolicy::per_second(1e12)));
    report.set(
        "net.admit_ns",
        ns_per_call(50_000, |i| admission.admit_at(0, i as u64 * 1_000)),
    );

    let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default())
        .expect("bind a loopback port");
    let mut client = NetClient::connect(server.local_addr()).expect("connect to loopback");
    let mut pings = Vec::new();
    for _ in 0..2_000 {
        let t = Instant::now();
        client.ping().expect("ping");
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    pings.sort_by(f64::total_cmp);
    report.set("net.ping_rtt_us_p50", percentile(&pings, 50.0));
    report.set("net.ping_rtt_us_p99", percentile(&pings, 99.0));
    drop(client);
    server.shutdown();

    // The same hit under load: `wire_hot` in miniature on this graph (its
    // two connections, its blocking-call and pipelined phases, a smaller
    // hot pool), against the same hit served in process.
    let mut in_proc_us = Vec::new();
    for _ in 0..20_000 {
        in_proc_us.push(submit_wait(&engine, request.clone()).0.as_secs_f64() * 1e6);
    }
    let hot = Workload {
        mix: Mix::HotPool { identities: 32 },
        ..*workload("wire_hot").expect("a listed workload")
    };
    let stream = Stream::new(hot.mix, pool.to_vec(), 0);
    let mut system = System::start(&hot, Arc::clone(graph), false, stream.identities());
    let cursor = AtomicUsize::new(0);
    let mut phase = |phase: &Phase| {
        let plan = Plan {
            cursor: &cursor,
            end: usize::MAX,
            deadline: Instant::now() + BUDGET,
            window: phase.window,
            origin: Instant::now(),
            detail: if phase.median_latency {
                Detail::Spans
            } else {
                Detail::Count
            },
            keep_stride: 0,
        };
        system.drive(&stream, &plan)
    };
    let (calls, pipelined) = (phase(&hot.phases[0]), phase(&hot.phases[1]));
    system.shutdown();
    let qps = |run: &Run| run.completed as f64 / run.wall.as_secs_f64();
    let us = |f: &dyn Fn(&Sample) -> u64| -> Vec<f64> {
        calls.samples.iter().map(|s| f(s) as f64 / 1e3).collect()
    };
    report.set(
        "net.self_us_p50",
        percentile_of(
            us(&|s| s.latency_ns.saturating_sub(s.queue_ns + s.compute_ns)),
            50.0,
        ),
    );
    report.set(
        "net.call_minus_inproc_us_p50",
        percentile_of(us(&|s| s.latency_ns), 50.0) - percentile_of(in_proc_us, 50.0),
    );
    report.set("net.pipeline_speedup", qps(&pipelined) / qps(&calls));
    report.guard(calls.failed + pipelined.failed == 0, || {
        "a net probe request failed".into()
    });
}

/// `obs`: one histogram record, and a full metrics snapshot of an engine
/// that has served traffic.
fn obs_probes(graph: &Arc<Graph>, config: &ServeConfig, report: &mut Report) {
    let histogram = rtr_obs::Histogram::new(1);
    report.set(
        "obs.histogram_record_ns",
        ns_per_call(200_000, |i| histogram.record(1_000 + i as u64)),
    );
    let engine = ServeEngine::start(Arc::clone(graph), *config);
    let snapshots = budgeted_ms(200, |_| {
        black_box(engine.metrics_snapshot());
    });
    report.set("obs.snapshot_ms", percentile(&snapshots, 50.0));
    engine.shutdown();
}
