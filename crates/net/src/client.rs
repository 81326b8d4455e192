//! Blocking wire-protocol client.
//!
//! [`NetClient`] is the reference implementation of the client side of
//! `docs/PROTOCOL.md`, used by the e2e tests, the example, and the wire
//! workloads of `benchmark/`. One TCP connection, synchronous
//! [`NetClient::call`] for the common case, and a split
//! [`NetClient::send`] / [`NetClient::recv`] pair so a load generator can
//! keep several requests in flight without one thread per request.
//!
//! Responses arrive in request order (the server's per-connection write
//! queue is FIFO), so `send`/`recv` pairing is positional: the `k`-th
//! `recv` returns the `k`-th successfully sent request's outcome, with
//! the echoed request id to prove it.

use crate::codec::{decode_reject, decode_response, encode_request, Reject};
use crate::frame::{Frame, FrameType, WireError, MAX_PAYLOAD};
use crate::json;
use bytes::{Bytes, BytesMut};
use rtr_serve::{QueryRequest, QueryResponse};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

/// Client-side failure: transport, wire, or protocol trouble. Tenant
/// rejections are *not* errors — they are the `Err(Reject)` arm of a
/// successful [`NetClient::call`].
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that don't decode.
    Wire(WireError),
    /// The server said `Goodbye` (graceful shutdown) or closed the
    /// stream.
    ServerClosed,
    /// The server broke the protocol (unexpected frame type or id).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::ServerClosed => write!(f, "server closed the connection"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<NetError> for std::io::Error {
    fn from(e: NetError) -> Self {
        match e {
            NetError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// A blocking connection to a [`crate::NetServer`].
pub struct NetClient {
    stream: TcpStream,
    buffered: Vec<u8>,
    tenant: u32,
    json: bool,
    next_request_id: u64,
}

impl NetClient {
    /// Connect to a server (e.g. `server.local_addr()`); tenant 0,
    /// binary payloads.
    pub fn connect(addr: SocketAddr) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            buffered: Vec::new(),
            tenant: 0,
            json: false,
            next_request_id: 0,
        })
    }

    /// Stamp subsequent frames with this tenant id (admission-control
    /// identity).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Switch request/response payloads to JSON mode (the debug
    /// encoding).
    pub fn with_json(mut self, json: bool) -> Self {
        self.json = json;
        self
    }

    /// Send a request and wait for its outcome: `Ok(response)` if
    /// admitted and executed, `Err(reject)` if the server refused it
    /// (rate limit, backpressure, draining, malformed).
    pub fn call(
        &mut self,
        request: &QueryRequest,
    ) -> Result<Result<QueryResponse, Reject>, NetError> {
        let sent_id = self.send(request)?;
        let (id, outcome) = self.recv()?;
        if id != sent_id {
            return Err(NetError::Protocol(format!(
                "response id {id} for request id {sent_id}"
            )));
        }
        Ok(outcome)
    }

    /// Pipelined send: write the request frame and return its request
    /// id without waiting. Pair each send with one [`NetClient::recv`].
    pub fn send(&mut self, request: &QueryRequest) -> Result<u64, NetError> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        send_request(
            &mut self.stream,
            self.tenant,
            self.json,
            request_id,
            request,
        )?;
        Ok(request_id)
    }

    /// Pipelined receive: block for the next request outcome, returning
    /// the echoed request id alongside it.
    pub fn recv(&mut self) -> Result<(u64, Result<QueryResponse, Reject>), NetError> {
        decode_outcome(self.read_frame()?)
    }

    /// Split into independently owned send and receive halves, so a load
    /// generator can pace sends on one thread while another thread drains
    /// responses concurrently — pipelining bounded only by the server's
    /// write queue, with no lock between the two directions. Positional
    /// pairing still holds per connection: the k-th receive is the k-th
    /// send (including sends made before the split).
    pub fn split(self) -> std::io::Result<(WireSender, WireReceiver)> {
        let read_half = self.stream.try_clone()?;
        Ok((
            WireSender {
                stream: self.stream,
                tenant: self.tenant,
                json: self.json,
                next_request_id: self.next_request_id,
            },
            WireReceiver {
                stream: read_half,
                buffered: self.buffered,
            },
        ))
    }

    /// Liveness probe: round-trip a `Ping`. Don't interleave with
    /// outstanding pipelined sends (the reply would be mis-paired).
    pub fn ping(&mut self) -> Result<(), NetError> {
        let frame = Frame::control(FrameType::Ping, self.tenant, self.next_request_id);
        self.next_request_id += 1;
        self.stream.write_all(frame.to_bytes().as_slice())?;
        match self.read_frame()?.frame_type {
            FrameType::Pong => Ok(()),
            FrameType::Goodbye => Err(NetError::ServerClosed),
            other => Err(NetError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Fetch the server's Prometheus metrics text (the `/metrics`
    /// equivalent). Same interleaving caveat as [`NetClient::ping`].
    pub fn metrics(&mut self) -> Result<String, NetError> {
        let frame = Frame::control(FrameType::MetricsRequest, self.tenant, self.next_request_id);
        self.next_request_id += 1;
        self.stream.write_all(frame.to_bytes().as_slice())?;
        let reply = self.read_frame()?;
        match reply.frame_type {
            FrameType::MetricsResponse => String::from_utf8(reply.payload.as_slice().to_vec())
                .map_err(|_| NetError::Protocol("metrics text is not UTF-8".into())),
            FrameType::Goodbye => Err(NetError::ServerClosed),
            other => Err(NetError::Protocol(format!(
                "expected MetricsResponse, got {other:?}"
            ))),
        }
    }

    /// Announce departure and close the socket. Dropping without this is
    /// fine — the server treats EOF the same way, just without the
    /// pleasantries.
    pub fn goodbye(mut self) -> Result<(), NetError> {
        let frame = Frame::control(FrameType::Goodbye, self.tenant, self.next_request_id);
        self.stream.write_all(frame.to_bytes().as_slice())?;
        let _ = self.stream.shutdown(Shutdown::Both);
        Ok(())
    }

    /// Read exactly one frame, buffering partial reads.
    fn read_frame(&mut self) -> Result<Frame, NetError> {
        read_frame_from(&mut self.stream, &mut self.buffered)
    }
}

/// The sending half of a split [`NetClient`] (see [`NetClient::split`]).
pub struct WireSender {
    stream: TcpStream,
    tenant: u32,
    json: bool,
    next_request_id: u64,
}

impl WireSender {
    /// [`NetClient::send`] on the sending half.
    pub fn send(&mut self, request: &QueryRequest) -> Result<u64, NetError> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        send_request(
            &mut self.stream,
            self.tenant,
            self.json,
            request_id,
            request,
        )?;
        Ok(request_id)
    }
}

/// The receiving half of a split [`NetClient`] (see [`NetClient::split`]).
pub struct WireReceiver {
    stream: TcpStream,
    buffered: Vec<u8>,
}

impl WireReceiver {
    /// [`NetClient::recv`] on the receiving half.
    pub fn recv(&mut self) -> Result<(u64, Result<QueryResponse, Reject>), NetError> {
        decode_outcome(read_frame_from(&mut self.stream, &mut self.buffered)?)
    }
}

/// Encode and write one request frame.
fn send_request(
    stream: &mut TcpStream,
    tenant: u32,
    json: bool,
    request_id: u64,
    request: &QueryRequest,
) -> Result<(), NetError> {
    let payload = if json {
        Bytes::from(crate::json::request_to_json(request).into_bytes())
    } else {
        let mut buf = BytesMut::new();
        encode_request(request, &mut buf);
        buf.freeze()
    };
    let frame = Frame {
        frame_type: FrameType::Request,
        json,
        tenant,
        request_id,
        payload,
    };
    stream.write_all(frame.to_bytes().as_slice())?;
    Ok(())
}

/// Interpret a server frame as a request outcome.
fn decode_outcome(frame: Frame) -> Result<(u64, Result<QueryResponse, Reject>), NetError> {
    match frame.frame_type {
        FrameType::Response => {
            let response = if frame.json {
                let text = std::str::from_utf8(frame.payload.as_slice())
                    .map_err(|_| NetError::Protocol("response is not UTF-8".into()))?;
                json::response_from_json(text)?
            } else {
                decode_response(frame.payload.as_slice())?
            };
            Ok((frame.request_id, Ok(response)))
        }
        FrameType::Error => {
            let reject = if frame.json {
                let text = std::str::from_utf8(frame.payload.as_slice())
                    .map_err(|_| NetError::Protocol("rejection is not UTF-8".into()))?;
                json::reject_from_json(text)?
            } else {
                decode_reject(frame.payload.as_slice())?
            };
            Ok((frame.request_id, Err(reject)))
        }
        FrameType::Goodbye => Err(NetError::ServerClosed),
        other => Err(NetError::Protocol(format!(
            "unexpected frame type {other:?} while awaiting a response"
        ))),
    }
}

/// Read exactly one frame from `stream`, buffering partial reads.
fn read_frame_from(stream: &mut TcpStream, buffered: &mut Vec<u8>) -> Result<Frame, NetError> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match Frame::parse(buffered, MAX_PAYLOAD) {
            Ok((frame, consumed)) => {
                buffered.drain(..consumed);
                return Ok(frame);
            }
            Err(WireError::Truncated { .. }) => {}
            Err(fatal) => return Err(NetError::Wire(fatal)),
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(NetError::ServerClosed);
        }
        buffered.extend_from_slice(&chunk[..n]);
    }
}
