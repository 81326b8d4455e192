//! The system under test and the closed-loop clients that drive it.
//!
//! Only the serving API the ROADMAP deletion round keeps is used:
//! `QueryRequest`, `ServeEngine::{start, submit}`, `NetServer`,
//! `NetClient::{send, recv}`. Latency is what the caller observes: the
//! clock starts before `submit`/`send` and stops when the response is in
//! hand, read by the same thread in request order. There is no shared
//! ticket collector, which would bill one request's head-of-line wait to
//! another.

use crate::inputs::Stream;
use crate::spec::{Transport, Workload};
use rtr_core::RankParams;
use rtr_graph::Graph;
use rtr_net::{NetClient, NetServer, NetServerConfig};
use rtr_serve::{QueryRequest, QueryResponse, ServeConfig, ServeEngine};
use rtr_topk::TopKConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serving defaults every workload and the serial reference share:
/// the paper's α = 0.25, k = 10, ε = 0.01, stated here rather than
/// inherited, so a change of the crates' defaults cannot move the
/// benchmark silently.
pub fn base_config() -> ServeConfig {
    ServeConfig {
        params: RankParams::default(),
        topk: TopKConfig {
            k: 10,
            epsilon: 0.01,
            ..TopKConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// [`base_config`] shaped for workload `w`, with the engine's metrics and
/// tracing on when `observed`.
pub fn serve_config(w: &Workload, observed: bool) -> ServeConfig {
    ServeConfig {
        workers: w.workers,
        backend: w.backend,
        cache_capacity: w.cache_capacity,
        metrics: observed,
        tracing: observed,
        ..base_config()
    }
}

/// A running engine, with a loopback server and connected clients in
/// front of it for the wire workloads.
pub struct System {
    pub engine: Arc<ServeEngine>,
    server: Option<NetServer>,
    clients: Vec<NetClient>,
    in_proc_clients: usize,
}

impl System {
    /// Start the engine (and cluster, server, connections) for `w` over
    /// `graph`, and pre-warm the result cache with `prewarm`.
    pub fn start(
        w: &Workload,
        graph: Arc<Graph>,
        observed: bool,
        prewarm: &[QueryRequest],
    ) -> System {
        let engine = Arc::new(ServeEngine::start(graph, serve_config(w, observed)));
        for request in prewarm {
            let response = engine.submit(request.clone()).wait();
            assert!(response.result.is_ok(), "pre-warm request failed");
        }
        let (server, clients, in_proc_clients) = match w.transport {
            Transport::InProc { clients } => (None, Vec::new(), clients),
            Transport::Wire { connections } => {
                let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default())
                    .expect("bind a loopback port");
                let clients = (0..connections)
                    .map(|_| NetClient::connect(server.local_addr()).expect("connect to loopback"))
                    .collect();
                (Some(server), clients, 0)
            }
        };
        System {
            engine,
            server,
            clients,
            in_proc_clients,
        }
    }

    /// Drive requests `[cursor, end)` of `stream` through the system from
    /// every client until `deadline` passes or the range is exhausted.
    pub fn drive(&mut self, stream: &Stream, plan: &Plan<'_>) -> Run {
        let started = Instant::now();
        let parts: Vec<Run> = std::thread::scope(|scope| {
            let handles: Vec<_> = if self.clients.is_empty() {
                (0..self.in_proc_clients)
                    .map(|_| {
                        let engine = &self.engine;
                        scope.spawn(move || in_proc_client(engine, stream, plan))
                    })
                    .collect()
            } else {
                self.clients
                    .iter_mut()
                    .map(|client| scope.spawn(move || wire_client(client, stream, plan)))
                    .collect()
            };
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut run = Run::default();
        for part in parts {
            run.completed += part.completed;
            run.hits += part.hits;
            run.latencies_ns.extend(part.latencies_ns);
            run.samples.extend(part.samples);
            run.kept.extend(part.kept);
            run.failed += part.failed;
            run.rejects += part.rejects;
        }
        run.wall = started.elapsed();
        run.samples.sort_unstable_by_key(|s| s.idx);
        run.kept.sort_unstable_by_key(|k| k.0);
        run
    }

    /// Stop the server (draining it), close the connections, and join
    /// the engine's workers.
    pub fn shutdown(self) {
        drop(self.clients);
        if let Some(server) = self.server {
            server.shutdown();
        }
        if let Ok(engine) = Arc::try_unwrap(self.engine) {
            engine.shutdown();
        }
    }
}

/// What one call of [`System::drive`] runs.
pub struct Plan<'a> {
    /// Next stream position to claim; shared by all clients.
    pub cursor: &'a AtomicUsize,
    /// First stream position not to run.
    pub end: usize,
    /// Stop claiming new requests after this instant.
    pub deadline: Instant,
    pub window: usize,
    /// Clock origin of [`Sample::start_ns`].
    pub origin: Instant,
    /// What to remember of each request.
    pub detail: Detail,
    /// Keep the full response of every `keep_stride`-th position (0 keeps
    /// none) for verification. Responses that carry an engine trace are
    /// always kept.
    pub keep_stride: usize,
}

impl Plan<'_> {
    fn claim(&self) -> Option<usize> {
        if Instant::now() >= self.deadline {
            return None;
        }
        // ordering: Relaxed — the counter hands out positions; no other
        // data is published through it.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }

    fn keeps(&self, i: usize) -> bool {
        self.keep_stride > 0 && i.is_multiple_of(self.keep_stride)
    }
}

/// How much a run remembers per request. The harness shares the process
/// (and so `peak_rss_mb`) with the system under test, so a gated run
/// keeps four bytes per request where latency is reported and nothing
/// where it is not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detail {
    /// Count completions, hits and failures only.
    Count,
    /// Also the caller-observed latency.
    Latency,
    /// Also a [`Sample`] (what the spans of a traced run are built from).
    Spans,
}

/// One request as its caller saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub idx: usize,
    pub start_ns: u64,
    pub latency_ns: u64,
    pub queue_ns: u64,
    pub compute_ns: u64,
    /// Served on the submitting thread (never queued for a worker).
    pub inline: bool,
}

#[derive(Default)]
pub struct Run {
    /// Requests answered with a result, and how many of those came from
    /// the result cache.
    pub completed: u64,
    pub hits: u64,
    /// Caller-observed latencies in nanoseconds (saturating at 4.29 s),
    /// from [`Detail::Latency`] up.
    pub latencies_ns: Vec<u32>,
    /// One per completed request under [`Detail::Spans`].
    pub samples: Vec<Sample>,
    /// `(stream position, response)` of the kept responses.
    pub kept: Vec<(usize, QueryResponse)>,
    /// Requests that came back as an engine error or a server reject.
    pub failed: u64,
    /// The server rejects among them.
    pub rejects: u64,
    pub wall: Duration,
}

impl Run {
    fn record(&mut self, plan: &Plan<'_>, idx: usize, sent: Instant, response: QueryResponse) {
        let latency = sent.elapsed();
        if response.result.is_err() {
            self.failed += 1;
            return;
        }
        self.completed += 1;
        self.hits += response.from_cache as u64;
        if plan.detail != Detail::Count {
            self.latencies_ns
                .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
        }
        if plan.detail == Detail::Spans {
            self.samples.push(Sample {
                idx,
                start_ns: sent.duration_since(plan.origin).as_nanos() as u64,
                latency_ns: latency.as_nanos() as u64,
                queue_ns: response.queue_wait.as_nanos() as u64,
                compute_ns: response.compute.as_nanos() as u64,
                inline: response.worker.is_none(),
            });
        }
        if plan.keeps(idx) || response.trace.is_some() {
            self.kept.push((idx, response));
        }
    }
}

fn in_proc_client(engine: &ServeEngine, stream: &Stream, plan: &Plan<'_>) -> Run {
    let mut run = Run::default();
    while let Some(i) = plan.claim() {
        let request = stream.request(i).into_owned();
        let sent = Instant::now();
        let response = engine.submit(request).wait();
        run.record(plan, i, sent, response);
    }
    run
}

/// One connection's loop: keep up to `plan.window` requests in flight,
/// reading responses in send order. With a window of 1 this is exactly a
/// blocking `NetClient::call`.
fn wire_client(client: &mut NetClient, stream: &Stream, plan: &Plan<'_>) -> Run {
    let mut run = Run::default();
    let mut in_flight: VecDeque<(usize, u64, Instant)> = VecDeque::with_capacity(plan.window);
    let mut open = true;
    loop {
        while open && in_flight.len() < plan.window {
            match plan.claim() {
                Some(i) => {
                    let sent = Instant::now();
                    let id = client.send(&stream.request(i)).expect("send on loopback");
                    in_flight.push_back((i, id, sent));
                }
                None => open = false,
            }
        }
        let Some((i, id, sent)) = in_flight.pop_front() else {
            return run;
        };
        let (got, outcome) = client.recv().expect("receive on loopback");
        assert_eq!(got, id, "responses arrive in request order");
        match outcome {
            Ok(response) => run.record(plan, i, sent, response),
            Err(_reject) => {
                run.failed += 1;
                run.rejects += 1;
            }
        }
    }
}
