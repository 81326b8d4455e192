//! Serving through the AP/GP execution backend (paper Sect. V-B): one
//! `ServeEngine` whose workers act as active processors against a 4-GP
//! cluster, answering a heterogeneous request mix — and reporting, per
//! response, which backend actually ran and what the answer cost on the
//! wire.
//!
//! Every bound search — any measure, up to four query nodes — runs
//! genuinely distributed (the AP fetches node blocks on demand and
//! assembles the active set); full rankings (k ≥ |V|) and wider queries
//! take the recorded local fallback. Either way the rankings are bit-identical to local execution
//! — the sample below verifies that against the serial reference.
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example distributed_serving
//! ```

use rtr_core::Measure;
use rtr_datagen::{BibNet, BibNetConfig};
use rtr_serve::{
    run_serial_requests, Backend, BackendKind, QueryRequest, ServeConfig, ServeEngine,
};
use rtr_topk::TopKConfig;
use std::sync::Arc;

fn main() {
    // A bibliographic network: venues, papers, terms.
    let net = BibNet::generate(&BibNetConfig::tiny(), 2013);
    let g = Arc::new(net.graph);
    println!(
        "graph: {} nodes / {} edges, striped across 4 GPs",
        g.node_count(),
        g.edge_count()
    );

    // Start the pool on the distributed backend: the graph is striped
    // across 4 graph-processor threads at engine start; every worker
    // drives distributed 2SBound against them. The result cache is shared
    // and backend-agnostic.
    let config = ServeConfig::default()
        .with_workers(4)
        .with_backend(Backend::Distributed { gps: 4 })
        .with_topk(TopKConfig {
            k: 8,
            ..TopKConfig::default()
        })
        .with_cache_capacity(1024);
    let engine = ServeEngine::start(Arc::clone(&g), config);

    // A heterogeneous mix over a few well-connected nodes, every one a
    // distributed bound search.
    let mut seeds = g.nodes().filter(|&v| g.out_degree(v) >= 3);
    let (a, b, c) = (
        seeds.next().expect("node"),
        seeds.next().expect("node"),
        seeds.next().expect("node"),
    );
    let requests = vec![
        QueryRequest::node(a),
        QueryRequest::node(b).with_measure(Measure::RtrPlus { beta: 0.7 }),
        QueryRequest::node(c).with_measure(Measure::F),
        QueryRequest::node(a).with_measure(Measure::T),
        QueryRequest::nodes(&[a, b]),
        QueryRequest::node(a), // duplicate: served from the shared cache
    ];

    let responses = engine.run_requests(&requests);
    println!(
        "\n{:<28} {:>12} {:>7} {:>12} {:>9}",
        "request", "backend", "cached", "wire KB", "fetches"
    );
    for r in &responses {
        let req = &r.request;
        let label = format!(
            "{:?} {}",
            req.measure,
            if req.query.len() > 1 {
                format!("{} nodes", req.query.len())
            } else {
                net.labels.label(&g, req.query.nodes()[0]).to_owned()
            }
        );
        let (wire, fetches) = r
            .distributed
            .map(|s| {
                (
                    format!("{:.2}", s.bytes_transferred as f64 / 1024.0),
                    s.fetch_requests.to_string(),
                )
            })
            .unwrap_or_else(|| ("-".to_owned(), "-".to_owned()));
        println!(
            "{:<28} {:>12} {:>7} {:>12} {:>9}",
            label,
            r.backend.name(),
            if r.from_cache { "yes" } else { "no" },
            wire,
            fetches
        );
    }

    // Total transfer volume: what this batch cost the (simulated) network.
    let total_bytes: usize = responses
        .iter()
        .filter(|r| !r.from_cache)
        .filter_map(|r| r.distributed.map(|s| s.bytes_transferred))
        .sum();
    println!(
        "\ntotal transfer volume (fresh distributed runs): {:.2} KB",
        total_bytes as f64 / 1024.0
    );

    // Both backends run the same engine code through the shared
    // `AdjacencyAccess` trait, so answers are bit-identical by
    // construction: verify against the serial local reference.
    let serial = run_serial_requests(&g, engine.config(), &requests);
    for (got, want) in responses.iter().zip(&serial) {
        let (got_r, want_r) = (
            got.result.as_ref().expect("served"),
            want.result.as_ref().expect("serial"),
        );
        assert_eq!(got_r.ranking, want_r.ranking);
        assert_eq!(got_r.bounds, want_r.bounds);
    }
    let distributed_runs = responses
        .iter()
        .filter(|r| r.backend == BackendKind::Distributed && !r.from_cache)
        .count();
    println!(
        "verified: all {} responses bit-identical to serial local execution \
         ({distributed_runs} served by the AP/GP cluster)",
        responses.len()
    );
}
