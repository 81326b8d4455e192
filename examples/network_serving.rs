//! Serving over a real socket: the `rtr-net` front door in one sitting.
//!
//! Starts a `ServeEngine`, puts a `NetServer` in front of it on a
//! loopback TCP listener, and walks the whole client surface of
//! `docs/PROTOCOL.md`:
//!
//! * binary-framed query round trips (`NetClient::call`), bit-identical
//!   to serial in-process execution,
//! * pipelined `send`/`recv` with positional response pairing,
//! * per-tenant token-bucket admission — a throttled tenant collects
//!   typed `Overloaded` rejections with a retry-after hint while an
//!   unthrottled neighbour on the same server is untouched,
//! * `Ping` liveness and the Prometheus text rendering over a
//!   `MetricsRequest` frame,
//! * graceful shutdown: every accepted request drains, then `Goodbye`.
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example network_serving
//! ```

use rtr_datagen::{BibNet, BibNetConfig};
use rtr_net::{AdmissionConfig, NetClient, NetServer, NetServerConfig, TenantPolicy};
use rtr_serve::{run_serial_requests, QueryRequest, ServeConfig, ServeEngine};
use rtr_topk::TopKConfig;
use std::sync::Arc;

fn main() {
    // A bibliographic network and an engine: 2 workers, shared cache.
    let net = BibNet::generate(&BibNetConfig::tiny(), 2013);
    let g = Arc::new(net.graph);
    println!("graph: {} nodes / {} edges", g.node_count(), g.edge_count());

    let config = ServeConfig::default()
        .with_workers(2)
        .with_topk(TopKConfig {
            k: 5,
            ..TopKConfig::default()
        })
        .with_cache_capacity(256);
    let engine = Arc::new(ServeEngine::start(Arc::clone(&g), config));

    // The front door: loopback listener, and a tight token bucket for
    // tenant 7 (2 requests, then ~1 QPS) so the admission demo below has
    // something to bounce off. Tenant 0 stays unlimited.
    let server = NetServer::start(
        Arc::clone(&engine),
        NetServerConfig::default().with_admission(AdmissionConfig::unlimited().with_tenant(
            7,
            TenantPolicy {
                rate_qps: 1.0,
                burst: 2.0,
            },
        )),
    )
    .expect("bind loopback listener");
    let addr = server.local_addr();
    println!("serving on {addr}\n");

    // --- Plain round trips, verified against serial execution. ---------
    let mut seeds = g.nodes().filter(|&v| g.out_degree(v) >= 3);
    let (a, b) = (seeds.next().expect("node"), seeds.next().expect("node"));
    let requests = vec![
        QueryRequest::node(a),
        QueryRequest::node(b),
        QueryRequest::nodes(&[a, b]),
    ];

    let mut client = NetClient::connect(addr).expect("connect");
    println!("{:<16} {:>20} {:>12}", "request", "top-1", "latency ms");
    let mut responses = Vec::new();
    for req in &requests {
        let resp = client.call(req).expect("call").expect("admitted");
        let result = resp.result.as_ref().expect("ranked");
        let top = *result.ranking.first().expect("non-empty top-k");
        println!(
            "{:<16} {:>20} {:>12.3}",
            format!("{} source(s)", req.query().len()),
            net.labels.label(&g, top),
            resp.latency().as_secs_f64() * 1e3
        );
        responses.push(resp);
    }
    let serial = run_serial_requests(&g, engine.config(), &requests);
    for (got, want) in responses.iter().zip(&serial) {
        let (got_r, want_r) = (
            got.result.as_ref().expect("served"),
            want.result.as_ref().expect("serial"),
        );
        assert_eq!(got_r.ranking, want_r.ranking);
        assert_eq!(got_r.bounds, want_r.bounds);
    }
    println!("verified: wire responses bit-identical to serial execution\n");

    // --- Pipelining: send the whole batch, then drain in order. --------
    let ids: Vec<u64> = requests
        .iter()
        .map(|r| client.send(r).expect("send"))
        .collect();
    for want_id in ids {
        let (id, outcome) = client.recv().expect("recv");
        assert_eq!(id, want_id, "per-connection FIFO pairing");
        outcome.expect("admitted");
    }
    println!(
        "pipelined: {} in flight, replies in send order",
        requests.len()
    );

    // --- Admission: tenant 7's bucket holds 2; the rest bounce. --------
    let mut throttled = NetClient::connect(addr).expect("connect").with_tenant(7);
    let (mut admitted, mut overloaded) = (0u32, 0u32);
    for _ in 0..6 {
        match throttled.call(&QueryRequest::node(a)).expect("call") {
            Ok(_) => admitted += 1,
            Err(reject) => {
                assert_eq!(reject.code, rtr_net::ErrorCode::Overloaded);
                assert!(reject.retry_after_ms > 0);
                overloaded += 1;
            }
        }
    }
    // The unthrottled tenant is untouched by its neighbour's rejections.
    client
        .call(&QueryRequest::node(b))
        .expect("call")
        .expect("tenant 0 admitted");
    println!(
        "tenant 7 (1 QPS, burst 2): {admitted} admitted, {overloaded} Overloaded \
         with retry-after; tenant 0 unaffected"
    );

    // --- Liveness and metrics frames. -----------------------------------
    client.ping().expect("pong");
    let metrics = client.metrics().expect("metrics");
    let line = metrics
        .lines()
        .find(|l| l.starts_with("rtr_net_requests_admitted_total"))
        .expect("net counters in the registry");
    println!("ping: pong; metrics frame says `{line}`");

    // --- Graceful shutdown: drain, Goodbye, join. -----------------------
    client.goodbye().expect("goodbye");
    throttled.goodbye().expect("goodbye");
    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
