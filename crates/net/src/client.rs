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
use bytes::BytesMut;
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
    next_request_id: u64,
}

impl NetClient {
    /// Connect to a server (e.g. `server.local_addr()`); tenant 0.
    pub fn connect(addr: SocketAddr) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            buffered: Vec::new(),
            tenant: 0,
            next_request_id: 0,
        })
    }

    /// Stamp subsequent frames with this tenant id (admission-control
    /// identity).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
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
        let mut payload = BytesMut::new();
        encode_request(request, &mut payload);
        let frame = Frame {
            frame_type: FrameType::Request,
            json: false,
            tenant: self.tenant,
            request_id,
            payload: payload.freeze(),
        };
        self.stream.write_all(frame.to_bytes().as_slice())?;
        Ok(request_id)
    }

    /// Pipelined receive: block for the next request outcome, returning
    /// the echoed request id alongside it.
    pub fn recv(&mut self) -> Result<(u64, Result<QueryResponse, Reject>), NetError> {
        decode_outcome(self.read_frame()?)
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
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match Frame::parse(&self.buffered, MAX_PAYLOAD) {
                Ok((frame, consumed)) => {
                    self.buffered.drain(..consumed);
                    return Ok(frame);
                }
                Err(WireError::Truncated { .. }) => {}
                Err(fatal) => return Err(NetError::Wire(fatal)),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(NetError::ServerClosed);
            }
            self.buffered.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Interpret a server frame as a request outcome.
fn decode_outcome(frame: Frame) -> Result<(u64, Result<QueryResponse, Reject>), NetError> {
    match frame.frame_type {
        FrameType::Response => Ok((
            frame.request_id,
            Ok(decode_response(frame.payload.as_slice())?),
        )),
        FrameType::Error => Ok((
            frame.request_id,
            Err(decode_reject(frame.payload.as_slice())?),
        )),
        FrameType::Goodbye => Err(NetError::ServerClosed),
        other => Err(NetError::Protocol(format!(
            "unexpected frame type {other:?} while awaiting a response"
        ))),
    }
}
