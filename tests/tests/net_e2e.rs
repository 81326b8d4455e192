//! End-to-end suite for the network front door (PR-10 acceptance):
//!
//! * N concurrent connections over loopback, mixed-measure traffic —
//!   every wire response bit-identical to `run_serial_requests`;
//! * graceful shutdown drains every accepted request before `Goodbye`;
//! * a tenant exceeding its token bucket gets typed `Overloaded` while
//!   another tenant's p99 stays inside the SLO;
//! * write-queue backpressure surfaces as `Overloaded`, not unbounded
//!   buffering;
//! * the refusal of the retired JSON flag bit, the metrics frame, ping,
//!   and hostile-bytes handling, all over a real socket.

use rtr_core::{Measure, Query, RankParams};
use rtr_datagen::{QLog, QLogConfig};
use rtr_graph::toy::fig2_toy;
use rtr_graph::NodeId;
use rtr_integration_tests::assert_same_answer;
use rtr_net::{
    AdmissionConfig, ErrorCode, NetClient, NetError, NetServer, NetServerConfig, Reject,
    TenantPolicy,
};
use rtr_serve::{run_serial_requests, QueryRequest, QueryResponse, ServeConfig, ServeEngine};
use rtr_topk::TopKConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mixed_requests(nodes: &[NodeId]) -> Vec<QueryRequest> {
    let mut requests = Vec::new();
    for (i, &q) in nodes.iter().enumerate() {
        requests.push(QueryRequest::node(q));
        requests.push(QueryRequest::node(q).with_measure(Measure::F).with_k(3));
        requests.push(QueryRequest::node(q).with_measure(Measure::T).with_k(8));
        requests.push(QueryRequest::node(q).with_measure(Measure::RtrPlus { beta: 0.3 }));
        if i + 1 < nodes.len() {
            requests.push(QueryRequest::nodes(&[q, nodes[i + 1]]).with_k(6));
            requests.push(
                QueryRequest::new(Query::weighted(&[(q, 3.0), (nodes[i + 1], 1.0)]).unwrap())
                    .with_measure(Measure::F),
            );
        }
        requests.push(QueryRequest::node(q).with_params(RankParams::with_alpha(0.35)));
    }
    requests
}

fn toy_config() -> ServeConfig {
    ServeConfig::default().with_topk(TopKConfig {
        k: 5,
        epsilon: 0.0,
        m_f: 4,
        m_t: 2,
        max_expansions: 500,
        ..TopKConfig::default()
    })
}

/// Acceptance clause 1: four concurrent connections each replay the full
/// mixed-measure workload (pipelined); every response is bit-identical
/// to the serial in-process reference.
#[test]
fn concurrent_connections_are_bit_identical_to_serial() {
    let (g, ids) = fig2_toy();
    let config = toy_config();
    let requests = mixed_requests(&[ids.t1, ids.t2, ids.v1, ids.p[0]]);
    let serial = run_serial_requests(&g, &config, &requests);

    let engine = Arc::new(ServeEngine::start(Arc::new(g), config.with_workers(4)));
    let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let requests = requests.clone();
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap().with_tenant(c);
                // Pipelined: all sends first, then all receives, so the
                // four connections genuinely overlap inside the server.
                let ids: Vec<u64> = requests.iter().map(|r| client.send(r).unwrap()).collect();
                let outcomes: Vec<(u64, QueryResponse)> = ids
                    .iter()
                    .map(|_| {
                        let (id, outcome) = client.recv().unwrap();
                        (id, outcome.expect("request unexpectedly rejected"))
                    })
                    .collect();
                client.goodbye().unwrap();
                outcomes
            })
        })
        .collect();

    for (c, handle) in clients.into_iter().enumerate() {
        let outcomes = handle.join().unwrap();
        assert_eq!(outcomes.len(), serial.len());
        for (i, ((echoed, wire), reference)) in outcomes.iter().zip(&serial).enumerate() {
            assert_eq!(*echoed, i as u64, "request ids echo in order");
            assert_same_answer(&format!("client {c}, request {i}"), wire, reference);
        }
    }
    server.shutdown();
}

/// Acceptance clause 2: shutdown while requests are in flight. Every
/// request the server admitted produces a response before the `Goodbye`;
/// `shutdown()` returning means every thread was joined.
#[test]
fn graceful_shutdown_drains_every_accepted_request() {
    const IN_FLIGHT: usize = 32;
    let (g, ids) = fig2_toy();
    // One worker so a backlog genuinely exists when shutdown lands.
    let engine = Arc::new(ServeEngine::start(
        Arc::new(g),
        toy_config().with_workers(1),
    ));
    let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let client = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap();
        for i in 0..IN_FLIGHT {
            let node = [ids.t1, ids.t2, ids.v1][i % 3];
            client.send(&QueryRequest::node(node)).unwrap();
        }
        let mut delivered = 0;
        loop {
            match client.recv() {
                Ok((_, Ok(_))) => delivered += 1,
                Ok((_, Err(reject))) => panic!("unexpected rejection: {reject}"),
                Err(NetError::ServerClosed) => return delivered,
                Err(e) => panic!("transport error: {e}"),
            }
        }
    });

    // Wait until the server has admitted the full pipeline, then yank it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let admitted = engine
            .metrics_snapshot()
            .counter_value("rtr_net_requests_admitted_total", &[])
            .unwrap_or(0);
        if admitted as usize == IN_FLIGHT {
            break;
        }
        assert!(Instant::now() < deadline, "server never admitted the batch");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();

    let delivered = client.join().unwrap();
    assert_eq!(
        delivered, IN_FLIGHT,
        "an accepted request was dropped by shutdown"
    );
}

/// Acceptance clause 3: tenant 7 exceeds its token bucket and collects
/// typed `Overloaded` rejections with retry hints; tenant 8, running
/// concurrently under no limit, sees every call succeed with p99 inside
/// the SLO.
#[test]
fn rate_limited_tenant_rejects_while_neighbor_stays_in_slo() {
    const SLO: Duration = Duration::from_millis(500);
    let (g, ids) = fig2_toy();
    let admission = AdmissionConfig::unlimited().with_tenant(
        7,
        TenantPolicy {
            rate_qps: 5.0,
            burst: 2.0,
        },
    );
    let engine = Arc::new(ServeEngine::start(
        Arc::new(g),
        toy_config().with_workers(2),
    ));
    let server = NetServer::start(
        Arc::clone(&engine),
        NetServerConfig::default().with_admission(admission),
    )
    .unwrap();
    let addr = server.local_addr();

    let noisy = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap().with_tenant(7);
        let mut ok = 0usize;
        let mut rejects: Vec<Reject> = Vec::new();
        for _ in 0..20 {
            match client.call(&QueryRequest::node(ids.t1)).unwrap() {
                Ok(_) => ok += 1,
                Err(reject) => rejects.push(reject),
            }
        }
        (ok, rejects)
    });
    let polite = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap().with_tenant(8);
        let mut latencies = Vec::new();
        for i in 0..50 {
            let node = [ids.t1, ids.t2, ids.v1][i % 3];
            let begin = Instant::now();
            let outcome = client.call(&QueryRequest::node(node)).unwrap();
            latencies.push(begin.elapsed());
            assert!(outcome.is_ok(), "the polite tenant must never be rejected");
        }
        latencies
    });

    let (ok, rejects) = noisy.join().unwrap();
    // Burst of 2 admits at least two instantly; 20 back-to-back calls at
    // 5 qps must overflow the bucket.
    assert!(ok >= 2, "burst capacity must admit, got {ok}");
    assert!(!rejects.is_empty(), "the noisy tenant was never throttled");
    for reject in &rejects {
        assert_eq!(reject.code, ErrorCode::Overloaded, "typed Overloaded");
        assert!(reject.retry_after_ms > 0, "retry hint present");
    }

    let mut latencies = polite.join().unwrap();
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    assert!(
        p99 < SLO,
        "neighbor p99 {p99:?} blew the {SLO:?} SLO while tenant 7 was throttled"
    );
    server.shutdown();
}

/// Backpressure: with a depth-1 write queue and a slow query at the head
/// of the pipeline, the flood behind it is refused with typed
/// `Overloaded` — never buffered without bound, never dropped silently.
/// A client that keeps flooding past the reserved control lane is
/// disconnected, and the admitted prefix still completes through the
/// drain.
#[test]
fn write_queue_backpressure_rejects_with_typed_overloaded() {
    const FLOOD: usize = 64;
    const CONTROL_DEPTH: usize = 8;
    let log = QLog::generate(&QLogConfig::tiny(), 2013);
    let nodes = log.phrases.clone();
    let engine = Arc::new(ServeEngine::start(
        Arc::new(log.graph.clone()),
        ServeConfig::default().with_workers(1),
    ));
    let server = NetServer::start(
        Arc::clone(&engine),
        NetServerConfig::default().with_queue_depths(1, CONTROL_DEPTH),
    )
    .unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    // Head-of-line: the single engine worker is pre-loaded with a dozen
    // distinct expensive exact sweeps (~45ms each on this graph), so the
    // wire request's ticket wait — which is what holds the writer — spans
    // ~500ms while the reader races through the flood in microseconds.
    // The margin keeps the window deterministic even when the whole suite
    // runs in parallel on a small box.
    let expensive = |q: &[NodeId], k: usize| {
        QueryRequest::nodes(q).with_topk(TopKConfig {
            k,
            epsilon: 0.0,
            max_expansions: 1_000_000,
            ..TopKConfig::default()
        })
    };
    let _junk: Vec<_> = (0..12)
        .map(|i| engine.submit(expensive(&nodes[i..nodes.len().min(i + 8)], 40 + i)))
        .collect();
    let slow = expensive(&nodes[..nodes.len().min(8)], 50);
    client.send(&slow).unwrap();
    for i in 0..FLOOD {
        client
            .send(&QueryRequest::node(nodes[i % nodes.len()]))
            .unwrap();
    }
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    let disconnected = loop {
        match client.recv() {
            Ok((_, Ok(_))) => ok += 1,
            Ok((_, Err(reject))) => {
                assert_eq!(reject.code, ErrorCode::Overloaded, "typed backpressure");
                assert!(reject.retry_after_ms > 0, "retry hint present");
                overloaded += 1;
            }
            Err(NetError::ServerClosed) => break true,
            Err(e) => panic!("transport error: {e}"),
        }
        if ok + overloaded == FLOOD + 1 {
            break false;
        }
    };
    assert!(ok >= 1, "the slow head-of-line request must complete");
    assert!(
        overloaded > 0,
        "a depth-1 queue under a {FLOOD}-deep flood must backpressure"
    );
    assert!(
        overloaded <= CONTROL_DEPTH,
        "rejections beyond the control lane must not be buffered"
    );
    // The flood overran even the reserved error lane, so the server hung
    // up rather than buffer or go silent — the bounded-memory guarantee.
    assert!(disconnected, "an overrunning flood must be disconnected");
    assert!(
        ok + overloaded < FLOOD + 1,
        "the cut tail proves nothing was buffered beyond the two lanes"
    );
    server.shutdown();
}

/// Flag bit 0 once selected the JSON payload mode and is reserved now. A
/// request frame that sets it is a framing error: exactly one `Error`
/// frame coded `Malformed` comes back, then the server's `Goodbye` and
/// the close. A binary request on a fresh connection is still answered.
#[test]
fn retired_json_flag_gets_one_malformed_error_then_a_close() {
    use std::io::{Read, Write};
    let (g, ids) = fig2_toy();
    let config = toy_config();
    let request = QueryRequest::node(ids.t1);
    let reference = run_serial_requests(&g, &config, std::slice::from_ref(&request)).remove(0);
    let engine = Arc::new(ServeEngine::start(Arc::new(g), config));
    let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default()).unwrap();

    let mut payload = bytes::BytesMut::new();
    rtr_net::encode_request(&request, &mut payload);
    let mut wire = rtr_net::Frame {
        frame_type: rtr_net::FrameType::Request,
        json: false,
        tenant: 0,
        request_id: 1,
        payload: payload.freeze(),
    }
    .to_bytes()
    .as_slice()
    .to_vec();
    wire[4] = 0b0000_0001;
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&wire).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // the server closes after its replies
    let mut frames = Vec::new();
    let mut rest = reply.as_slice();
    while !rest.is_empty() {
        let (frame, used) = rtr_net::Frame::parse(rest, rtr_net::MAX_PAYLOAD).unwrap();
        frames.push(frame);
        rest = &rest[used..];
    }
    let types: Vec<_> = frames.iter().map(|f| f.frame_type).collect();
    assert_eq!(
        types,
        [rtr_net::FrameType::Error, rtr_net::FrameType::Goodbye]
    );
    let reject = rtr_net::decode_reject(frames[0].payload.as_slice()).unwrap();
    assert_eq!(reject.code, ErrorCode::Malformed, "{reject:?}");
    assert!(reject.message.contains("flag"), "{reject:?}");

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let answer = client.call(&request).unwrap().expect("admitted");
    assert_same_answer("binary after the refusal", &answer, &reference);
    server.shutdown();
}

/// Ping, the metrics frame, and net-layer counters showing up in the
/// same Prometheus text as the engine's.
#[test]
fn ping_and_metrics_frame_expose_net_counters() {
    let (g, ids) = fig2_toy();
    let engine = Arc::new(ServeEngine::start(Arc::new(g), toy_config()));
    let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default()).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    client.call(&QueryRequest::node(ids.t1)).unwrap().unwrap();
    let text = client.metrics().unwrap();
    for needle in [
        "rtr_net_connections_opened_total",
        "rtr_net_frames_received_total",
        "rtr_net_requests_admitted_total",
    ] {
        assert!(text.contains(needle), "metrics text missing {needle}");
    }
    // One registry: the serving engine's own metrics ride along.
    assert!(
        text.contains("rtr_serve"),
        "engine metrics missing from the wire metrics frame"
    );
    server.shutdown();
}

/// Read one whole frame off a raw socket.
fn read_frame(stream: &mut std::net::TcpStream) -> rtr_net::Frame {
    use std::io::Read;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match rtr_net::Frame::parse(&buf, rtr_net::MAX_PAYLOAD) {
            Ok((frame, _)) => return frame,
            Err(rtr_net::WireError::Truncated { .. }) => {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "connection closed mid-frame");
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) => panic!("unparseable reply: {e:?}"),
        }
    }
}

/// Hostile bytes on a fresh connection: a typed `Error` frame comes
/// back (Malformed — framing lost), then the server hangs up; the
/// server survives and keeps serving other connections. A well-framed
/// request that still sets the retired scheme-present byte (what a peer
/// asking for the Gupta ablation used to send) is a payload error: a
/// typed `Malformed` rejection, and the same connection keeps serving.
#[test]
fn garbage_bytes_get_a_typed_error_and_the_server_survives() {
    use std::io::{Read, Write};
    let (g, ids) = fig2_toy();
    let engine = Arc::new(ServeEngine::start(Arc::new(g), toy_config()));
    let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let frame = |request_id: u64, payload: Vec<u8>| {
        rtr_net::Frame {
            frame_type: rtr_net::FrameType::Request,
            json: false,
            tenant: 0,
            request_id,
            payload: payload.into(),
        }
        .to_bytes()
    };
    let mut payload = bytes::BytesMut::new();
    rtr_net::encode_request(&QueryRequest::node(ids.t1), &mut payload);
    let good = payload.as_slice().to_vec();
    let mut old_scheme = good.clone();
    let n = old_scheme.len();
    old_scheme[n - 2] = 1; // scheme present ...
    old_scheme.insert(n - 1, 2); // ... Scheme::Gupta's old tag
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(frame(1, old_scheme).as_slice()).unwrap();
    let reply = read_frame(&mut raw);
    assert_eq!(reply.frame_type, rtr_net::FrameType::Error);
    assert_eq!(reply.request_id, 1);
    let reject = rtr_net::decode_reject(reply.payload.as_slice()).unwrap();
    assert_eq!(reject.code, ErrorCode::Malformed, "{reject:?}");
    raw.write_all(frame(2, good).as_slice()).unwrap();
    let reply = read_frame(&mut raw);
    assert_eq!(reply.frame_type, rtr_net::FrameType::Response);
    assert_eq!(reply.request_id, 2);
    let response = rtr_net::decode_response(reply.payload.as_slice()).unwrap();
    assert!(response.result.is_ok(), "the connection keeps serving");

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server sends Error then EOF
    let (frame, _) = rtr_net::Frame::parse(&reply, rtr_net::MAX_PAYLOAD).unwrap();
    assert_eq!(frame.frame_type, rtr_net::FrameType::Error);
    let reject = rtr_net::decode_reject(frame.payload.as_slice()).unwrap();
    assert_eq!(reject.code, ErrorCode::Malformed);

    // The front door is unfazed.
    let mut client = NetClient::connect(addr).unwrap();
    assert!(client.call(&QueryRequest::node(ids.t1)).unwrap().is_ok());
    server.shutdown();
}
