//! The network front door: a threaded TCP server over [`ServeEngine`].
//!
//! There is no async runtime in this workspace (the build is offline and
//! vendored — no tokio), and none is needed: the engine already has a
//! non-blocking submission API. Each connection gets two cheap threads —
//!
//! * a **reader** that decodes frames, runs admission control, and calls
//!   [`ServeEngine::submit`] — which returns a ticket immediately, so the
//!   reader keeps decoding while the engine's worker pool computes;
//! * a **writer** that pops the connection's bounded `WriteQueue` in
//!   request order, waits each ticket, and writes response frames.
//!
//! The split is what keeps a slow client harmless: engine workers never
//! write to sockets, the writer is the only thread that can stall on a
//! dead peer, and when its queue fills, new requests get typed
//! `Overloaded` rejections *before* touching the engine.
//!
//! The acceptor thread polls a non-blocking listener so shutdown never
//! hangs in `accept()`. [`NetServer::shutdown`] flips one flag; readers
//! notice within one read-timeout tick, stop accepting work, queue a
//! `Goodbye`, and close their queues; writers drain every accepted
//! ticket before exiting; the acceptor joins everything. No accepted
//! request is dropped — `tests/tests/net_e2e.rs` asserts exactly that.

use crate::admission::{Admission, AdmissionConfig, AdmissionDecision};
use crate::codec::{encode_reject, encode_response, ErrorCode, Reject};
use crate::frame::{Frame, FrameType, WireError, MAX_PAYLOAD};
use crate::{PopOutcome, PushOutcome, WriteQueue};
use bytes::{Bytes, BytesMut};
use rtr_obs::{Counter, Gauge};
use rtr_serve::{QueryTicket, ServeEngine};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`NetServer`]. `Default` binds an ephemeral loopback
/// port with admission disabled — the configuration the tests and the
/// load generator start from.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Address to bind. Port 0 picks an ephemeral port (read it back
    /// with [`NetServer::local_addr`]).
    pub addr: SocketAddr,
    /// Concurrent-connection cap; connections beyond it are greeted with
    /// an `Overloaded` error frame and closed.
    pub max_connections: usize,
    /// Per-connection write-queue depth (responses in flight to one
    /// client). The backpressure bound.
    pub write_queue_depth: usize,
    /// Reserved write-queue slots for rejections/control frames. A
    /// client that overruns even this lane (it keeps flooding after
    /// `write_queue_depth + control_queue_depth` unanswered frames) is
    /// disconnected: the server never drops a reply silently and never
    /// buffers without bound.
    pub control_queue_depth: usize,
    /// Per-tenant token-bucket admission policy.
    pub admission: AdmissionConfig,
    /// Largest accepted request payload in bytes (clamped to
    /// [`MAX_PAYLOAD`]).
    pub max_payload: usize,
    /// Reader poll interval: how long a blocked `read` waits before
    /// re-checking the shutdown flag. Bounds shutdown latency.
    pub read_poll: Duration,
    /// Socket write timeout; a peer that stays unwritable this long is
    /// treated as dead.
    pub write_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            // invariant: a literal loopback address always parses.
            addr: "127.0.0.1:0".parse().expect("loopback literal"),
            max_connections: 64,
            write_queue_depth: 128,
            control_queue_depth: 16,
            admission: AdmissionConfig::unlimited(),
            max_payload: MAX_PAYLOAD,
            read_poll: Duration::from_millis(25),
            write_timeout: Duration::from_secs(5),
        }
    }
}

impl NetServerConfig {
    /// Set the write-queue depths (data lane, reserved control lane).
    pub fn with_queue_depths(mut self, data: usize, control: usize) -> Self {
        self.write_queue_depth = data;
        self.control_queue_depth = control;
        self
    }

    /// Set the admission policy.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// Connection/frame/rejection counters, registered in the engine's
/// metrics [`rtr_obs::Registry`] so the net layer shows up in the same
/// Prometheus text as everything else.
struct NetMetrics {
    connections_opened: Arc<Counter>,
    connections_open: Arc<Gauge>,
    frames_received: Arc<Counter>,
    frames_sent: Arc<Counter>,
    requests_admitted: Arc<Counter>,
    reject_rate_limit: Arc<Counter>,
    reject_backpressure: Arc<Counter>,
    reject_malformed: Arc<Counter>,
    reject_shutdown: Arc<Counter>,
    reject_capacity: Arc<Counter>,
}

impl NetMetrics {
    fn register(engine: &ServeEngine) -> NetMetrics {
        let reg = engine.metrics_registry();
        let reject = |reason: &str| {
            reg.counter_with(
                "rtr_net_rejects_total",
                &[("reason", reason)],
                "Requests rejected by the network front door, by reason.",
            )
        };
        NetMetrics {
            connections_opened: reg.counter(
                "rtr_net_connections_opened_total",
                "TCP connections accepted by the net server.",
            ),
            connections_open: reg.gauge(
                "rtr_net_connections_open",
                "TCP connections currently being served.",
            ),
            frames_received: reg.counter(
                "rtr_net_frames_received_total",
                "Frames decoded from clients.",
            ),
            frames_sent: reg.counter("rtr_net_frames_sent_total", "Frames written to clients."),
            requests_admitted: reg.counter(
                "rtr_net_requests_admitted_total",
                "Requests admitted past rate limiting and backpressure.",
            ),
            reject_rate_limit: reject("rate_limit"),
            reject_backpressure: reject("backpressure"),
            reject_malformed: reject("malformed"),
            reject_shutdown: reject("shutting_down"),
            reject_capacity: reject("capacity"),
        }
    }
}

/// State shared by the acceptor and every connection thread.
struct Shared {
    engine: Arc<ServeEngine>,
    config: NetServerConfig,
    admission: Admission,
    shutdown: AtomicBool,
    started: Instant,
    metrics: NetMetrics,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn shutting_down(&self) -> bool {
        // ordering: Relaxed suffices — the flag is a latch polled in a
        // loop; no data is published under it.
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// What a connection's reader hands its writer. Tickets carry the
/// engine's promise of a response; everything else is pre-rendered.
enum WriteItem {
    /// An admitted request: wait the ticket, encode, send `Response`.
    Ticket {
        ticket: QueryTicket,
        tenant: u32,
        request_id: u64,
    },
    /// A typed rejection (`Error` frame).
    Reject {
        reject: Reject,
        tenant: u32,
        request_id: u64,
    },
    /// Reply to a `Ping`.
    Pong { tenant: u32, request_id: u64 },
    /// Prometheus text for a `MetricsRequest`.
    Metrics {
        text: String,
        tenant: u32,
        request_id: u64,
    },
    /// Farewell before the server closes the connection.
    Goodbye,
}

/// A running network front door. Dropping it shuts it down; prefer the
/// explicit [`NetServer::shutdown`] in non-test code.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `config.addr` and start serving `engine`. The engine stays
    /// caller-owned: shutting the server down does not shut the engine
    /// down.
    pub fn start(engine: Arc<ServeEngine>, config: NetServerConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics = NetMetrics::register(&engine);
        let shared = Arc::new(Shared {
            admission: Admission::new(config.admission.clone()),
            engine,
            config,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            metrics,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rtr-net-acceptor".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(NetServer {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (the real port when `addr` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting connections and new requests,
    /// drain every already-accepted request through its write queue,
    /// send each connection a `Goodbye`, and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // ordering: Relaxed — latch only; readers/acceptor poll it.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            // invariant: the acceptor never panics (all I/O errors are
            // handled); a join failure would be a server bug.
            acceptor.join().expect("acceptor panicked");
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                connections.retain(|h| !h.is_finished());
                if connections.len() >= shared.config.max_connections {
                    shared.metrics.reject_capacity.inc();
                    refuse_connection(stream);
                    continue;
                }
                shared.metrics.connections_opened.inc();
                shared.metrics.connections_open.add(1);
                let for_conn = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("rtr-net-conn".into())
                    .spawn(move || {
                        run_connection(&for_conn, stream);
                        for_conn.metrics.connections_open.add(-1);
                    });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(_) => shared.metrics.connections_open.add(-1),
                }
            }
            // WouldBlock is the idle case; other errors (EMFILE, peer
            // reset mid-accept) are transient — retry after the nap.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for handle in connections {
        // invariant: connection threads never panic; they report errors
        // by closing the connection.
        handle.join().expect("connection thread panicked");
    }
}

/// Over the connection cap: say why, then hang up.
fn refuse_connection(mut stream: TcpStream) {
    let reject = Reject {
        code: ErrorCode::Overloaded,
        message: "connection limit reached".into(),
        retry_after_ms: 100,
    };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(reject_frame(&reject, 0, 0).to_bytes().as_slice());
    let _ = stream.shutdown(Shutdown::Both);
}

/// The `Error` frame carrying `reject`.
fn reject_frame(reject: &Reject, tenant: u32, request_id: u64) -> Frame {
    let mut payload = BytesMut::new();
    encode_reject(reject, &mut payload);
    Frame {
        frame_type: FrameType::Error,
        json: false,
        tenant,
        request_id,
        payload: payload.freeze(),
    }
}

fn run_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let config = &shared.config;
    if stream.set_read_timeout(Some(config.read_poll)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let queue = Arc::new(WriteQueue::new(
        config.write_queue_depth,
        config.control_queue_depth,
    ));
    let writer = {
        let shared = Arc::clone(shared);
        let queue = Arc::clone(&queue);
        std::thread::Builder::new()
            .name("rtr-net-writer".into())
            .spawn(move || write_loop(&shared, write_half, &queue))
    };
    let Ok(writer) = writer else {
        return;
    };
    read_loop(shared, &mut stream, &queue);
    // Best-effort farewell, then release the writer. If even the control
    // lane is full the client just sees EOF — Goodbye is advisory.
    let _ = queue.push_control(WriteItem::Goodbye);
    queue.close();
    // invariant: the writer thread never panics.
    writer.join().expect("writer thread panicked");
    linger_drain(&mut stream);
}

/// Bounded lingering close. The reader can quit with client bytes still
/// unread in the kernel buffer (disconnect-on-overrun, a fatal framing
/// error) — closing the socket then would RST the connection, and an RST
/// discards the very replies the writer just flushed before the client
/// can read them. The writer has already sent FIN (`shutdown(Write)`
/// after the drain); here we discard remaining input until the client
/// reacts to that FIN with EOF, or the linger budget runs out.
fn linger_drain(stream: &mut TcpStream) {
    const LINGER: Duration = Duration::from_secs(1);
    let start = Instant::now();
    let mut scratch = [0u8; 64 * 1024];
    while start.elapsed() < LINGER {
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(_) => {}
            // The read timeout set at accept keeps this loop polling the
            // linger budget instead of blocking past it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

fn read_loop(shared: &Arc<Shared>, stream: &mut TcpStream, queue: &WriteQueue<WriteItem>) {
    let max_payload = shared.config.max_payload;
    let mut buffered: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        // Drain every complete frame already buffered.
        loop {
            match Frame::parse(&buffered, max_payload) {
                Ok((frame, consumed)) => {
                    buffered.drain(..consumed);
                    shared.metrics.frames_received.inc();
                    if !handle_frame(shared, queue, frame) {
                        return;
                    }
                }
                // Truncated is the streaming "need more bytes" signal.
                Err(WireError::Truncated { .. }) => break,
                Err(fatal) => {
                    // Framing is lost — reject and hang up; resyncing an
                    // unframed byte stream is guesswork.
                    shared.metrics.reject_malformed.inc();
                    let _ = queue.push_control(WriteItem::Reject {
                        reject: Reject {
                            code: reject_code_for(&fatal),
                            message: fatal.to_string(),
                            retry_after_ms: 0,
                        },
                        tenant: 0,
                        request_id: 0,
                    });
                    return;
                }
            }
        }
        if shared.shutting_down() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF: client hung up.
            Ok(n) => buffered.extend_from_slice(&chunk[..n]),
            // The read timeout is the shutdown-poll tick.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

fn reject_code_for(error: &WireError) -> ErrorCode {
    match error {
        WireError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        _ => ErrorCode::Malformed,
    }
}

/// Queue a reply on the reserved control lane; `false` ends the
/// connection. A full control lane means the server cannot even *report*
/// errors to this client anymore — the bounded-memory answer is to hang
/// up (the drain still delivers everything previously accepted), not to
/// drop replies silently (the client would wait forever) or buffer
/// without bound (the thing the queue exists to prevent).
fn push_reply(queue: &WriteQueue<WriteItem>, item: WriteItem) -> bool {
    matches!(queue.push_control(item), PushOutcome::Pushed)
}

/// Dispatch one decoded frame; `false` ends the connection.
fn handle_frame(shared: &Arc<Shared>, queue: &WriteQueue<WriteItem>, frame: Frame) -> bool {
    let (tenant, request_id) = (frame.tenant, frame.request_id);
    let reject = |code: ErrorCode, message: String, retry_after_ms: u64| WriteItem::Reject {
        reject: Reject {
            code,
            message,
            retry_after_ms,
        },
        tenant,
        request_id,
    };
    match frame.frame_type {
        FrameType::Request => {
            if shared.shutting_down() {
                shared.metrics.reject_shutdown.inc();
                return push_reply(
                    queue,
                    reject(ErrorCode::ShuttingDown, "server is draining".into(), 1_000),
                );
            }
            match shared.admission.admit_at(tenant, shared.now_ns()) {
                AdmissionDecision::Admit => {}
                AdmissionDecision::Reject { retry_after_ms } => {
                    shared.metrics.reject_rate_limit.inc();
                    return push_reply(
                        queue,
                        reject(
                            ErrorCode::Overloaded,
                            format!("tenant {tenant} over rate limit"),
                            retry_after_ms,
                        ),
                    );
                }
            }
            // Backpressure check BEFORE decode/submit: the reader is the
            // queue's only producer, so this is a guarantee, not a race,
            // and a stalled client costs zero engine work.
            if !queue.has_data_capacity() {
                shared.metrics.reject_backpressure.inc();
                return push_reply(
                    queue,
                    reject(
                        ErrorCode::Overloaded,
                        "write queue full (slow client)".into(),
                        50,
                    ),
                );
            }
            let request = match crate::codec::decode_request(frame.payload.as_slice()) {
                Ok(request) => request,
                Err(e) => {
                    // Payload-level garbage doesn't lose framing; the
                    // connection survives.
                    shared.metrics.reject_malformed.inc();
                    return push_reply(queue, reject(ErrorCode::Malformed, e.to_string(), 0));
                }
            };
            let ticket = shared.engine.submit(request);
            shared.metrics.requests_admitted.inc();
            match queue.push_data(WriteItem::Ticket {
                ticket,
                tenant,
                request_id,
            }) {
                PushOutcome::Pushed => true,
                // has_data_capacity() held and we are the only producer,
                // but stay total anyway: surface it as backpressure.
                PushOutcome::Rejected => {
                    shared.metrics.reject_backpressure.inc();
                    push_reply(
                        queue,
                        reject(
                            ErrorCode::Overloaded,
                            "write queue full (slow client)".into(),
                            50,
                        ),
                    )
                }
                PushOutcome::Closed => false,
            }
        }
        FrameType::Ping => push_reply(queue, WriteItem::Pong { tenant, request_id }),
        FrameType::MetricsRequest => {
            let text = shared.engine.metrics_snapshot().to_prometheus();
            push_reply(
                queue,
                WriteItem::Metrics {
                    text,
                    tenant,
                    request_id,
                },
            )
        }
        FrameType::Goodbye => false,
        // Server-to-client frame types arriving at the server are a
        // protocol violation.
        FrameType::Response | FrameType::Error | FrameType::Pong | FrameType::MetricsResponse => {
            shared.metrics.reject_malformed.inc();
            let _ = queue.push_control(reject(
                ErrorCode::Malformed,
                format!("unexpected frame type {:?}", frame.frame_type),
                0,
            ));
            false
        }
    }
}

fn write_loop(shared: &Arc<Shared>, mut stream: TcpStream, queue: &WriteQueue<WriteItem>) {
    // Once the peer is unwritable we stop writing but keep draining: every
    // accepted ticket is still waited so engine work completes and the
    // drain invariant ("queue empties, then the writer exits") holds no
    // matter what the client does.
    let mut peer_dead = false;
    loop {
        let item = match queue.pop() {
            PopOutcome::Item(item) => item,
            PopOutcome::Drained => break,
        };
        let frame = match item {
            WriteItem::Ticket {
                ticket,
                tenant,
                request_id,
            } => {
                let response = ticket.wait();
                if peer_dead {
                    continue;
                }
                let mut payload = BytesMut::new();
                encode_response(&response, &mut payload);
                Frame {
                    frame_type: FrameType::Response,
                    json: false,
                    tenant,
                    request_id,
                    payload: payload.freeze(),
                }
            }
            WriteItem::Reject {
                reject,
                tenant,
                request_id,
            } => {
                if peer_dead {
                    continue;
                }
                reject_frame(&reject, tenant, request_id)
            }
            WriteItem::Pong { tenant, request_id } => {
                if peer_dead {
                    continue;
                }
                Frame::control(FrameType::Pong, tenant, request_id)
            }
            WriteItem::Metrics {
                text,
                tenant,
                request_id,
            } => {
                if peer_dead {
                    continue;
                }
                Frame {
                    frame_type: FrameType::MetricsResponse,
                    json: false,
                    tenant,
                    request_id,
                    payload: Bytes::from(text.into_bytes()),
                }
            }
            WriteItem::Goodbye => {
                if peer_dead {
                    continue;
                }
                Frame::control(FrameType::Goodbye, 0, 0)
            }
        };
        if stream.write_all(frame.to_bytes().as_slice()).is_ok() {
            shared.metrics.frames_sent.inc();
        } else {
            // Write timeout or reset: the peer is gone (or too slow for
            // the configured SLO). Stop writing, keep draining.
            peer_dead = true;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}
