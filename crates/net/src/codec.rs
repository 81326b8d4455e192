//! Binary payload codec: [`QueryRequest`] / [`QueryResponse`] / [`Reject`]
//! in the workspace's little-endian `bytes` idiom.
//!
//! The codec is **value-exact**: `decode(encode(x))` reproduces `x` bit
//! for bit — including f64 query weights and bound values, which is what
//! lets the e2e suite assert that responses served over a socket are
//! bit-identical to [`rtr_serve::run_serial_requests`]. (Query weights
//! are reconstructed with [`Query::from_normalized`], which never
//! re-normalizes; [`rtr_serve::QueryResponse::trace`] is the one field
//! deliberately not carried — traces are a debugging instrument, not part
//! of the answer, and decoded responses carry `None`.)
//!
//! Decoding is total: every read is bounds-checked (`Reader`), every
//! enum tag, flag byte and reserved byte is validated, list lengths are
//! checked against the bytes actually present *before* any buffer is sized
//! from them, and trailing bytes are rejected. Malformed input yields a typed
//! [`WireError`], never a panic or an oversized allocation.

use crate::frame::WireError;
use bytes::{BufMut, BytesMut};
use rtr_core::{CoreError, Measure, Query, RankParams};
use rtr_distributed::DistributedStats;
use rtr_graph::NodeId;
use rtr_serve::{BackendKind, QueryRequest, QueryResponse, ResolvedRequest, ServeError};
use rtr_topk::{ActiveSetStats, TopKConfig, TopKResult, TopKWork};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Why the server refused a request without running it. The discriminant
/// is the on-wire code byte of an `Error` frame's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// Backpressure: the tenant exceeded its token-bucket rate, or the
    /// connection's bounded write queue is full (the message says which).
    /// Retry after the hinted delay; the request was never admitted.
    Overloaded = 1,
    /// The frame or payload failed to decode; the message carries the
    /// [`WireError`] rendering.
    Malformed = 2,
    /// The frame's version byte is a revision this server does not speak.
    UnsupportedVersion = 3,
    /// The server is draining for shutdown and admits no new requests
    /// (already-accepted requests still complete).
    ShuttingDown = 4,
    /// The server failed internally before the engine produced a
    /// response (should not happen; the message is diagnostic).
    Internal = 5,
}

impl ErrorCode {
    fn from_wire(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::UnsupportedVersion,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed rejection: the payload of an `Error` frame. The request id of
/// the enclosing frame says which request was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reject {
    /// Why the request was refused.
    pub code: ErrorCode,
    /// Human-readable detail (safe to log; never echoes payload bytes).
    pub message: String,
    /// Backpressure hint: retry no sooner than this (0 = no hint).
    pub retry_after_ms: u64,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)?;
        if self.retry_after_ms > 0 {
            write!(f, " (retry after {} ms)", self.retry_after_ms)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Checked reader
// ---------------------------------------------------------------------------

/// Bounds-checked cursor: the decode-side counterpart of [`BufMut`]. The
/// `bytes` shim's `Buf` panics on underflow (correct for trusted,
/// length-prefixed graph snapshots); wire input is untrusted, so every
/// read here returns [`WireError::Truncated`] instead.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: self.pos + n,
                available: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize64(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::Malformed("u64 count exceeds usize".into()))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!(
                "flag byte must be 0/1, got {b}"
            ))),
        }
    }

    /// A reserved byte (`docs/PROTOCOL.md` §5): written as 0, and any
    /// other value is `Malformed`, so a field v1 no longer carries is never
    /// silently misread.
    fn reserved(&mut self, field: &str) -> Result<(), WireError> {
        match self.u8()? {
            0 => Ok(()),
            b => Err(WireError::Malformed(format!(
                "reserved byte ({field}) must be 0, got {b}"
            ))),
        }
    }

    /// A `u32` element count, validated against the bytes still present
    /// (each element occupies at least `min_elem_bytes`), so a hostile
    /// count can never size an allocation beyond the payload itself.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(WireError::Malformed(format!(
                "declared {n} elements need ≥{floor} bytes, only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_string(out: &mut BytesMut, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

fn put_query(out: &mut BytesMut, q: &Query) {
    out.put_u32_le(q.len() as u32);
    for (n, w) in q.iter() {
        out.put_u32_le(n.0);
        out.put_f64_le(w);
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<Query, WireError> {
    let n = r.len(12)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let node = NodeId(r.u32()?);
        let w = r.f64()?;
        pairs.push((node, w));
    }
    Query::from_normalized(&pairs).map_err(|e| WireError::Malformed(format!("invalid query: {e}")))
}

fn put_measure(out: &mut BytesMut, m: Measure) {
    match m {
        Measure::F => out.put_u8(0),
        Measure::T => out.put_u8(1),
        Measure::Rtr => out.put_u8(2),
        Measure::RtrPlus { beta } => {
            out.put_u8(3);
            out.put_f64_le(beta);
        }
    }
}

fn get_measure(r: &mut Reader<'_>) -> Result<Measure, WireError> {
    Ok(match r.u8()? {
        0 => Measure::F,
        1 => Measure::T,
        2 => Measure::Rtr,
        3 => Measure::RtrPlus { beta: r.f64()? },
        t => return Err(WireError::Malformed(format!("unknown measure tag {t}"))),
    })
}

fn put_params(out: &mut BytesMut, p: &RankParams) {
    out.put_f64_le(p.alpha);
    out.put_f64_le(p.tolerance);
    out.put_u64_le(p.max_iterations as u64);
}

fn get_params(r: &mut Reader<'_>) -> Result<RankParams, WireError> {
    Ok(RankParams {
        alpha: r.f64()?,
        tolerance: r.f64()?,
        max_iterations: r.usize64()?,
    })
}

fn put_topk(out: &mut BytesMut, t: &TopKConfig) {
    out.put_u64_le(t.k as u64);
    out.put_f64_le(t.epsilon);
    out.put_u64_le(t.m_f as u64);
    out.put_u64_le(t.m_t as u64);
    out.put_f64_le(t.refine_tolerance);
    out.put_u64_le(t.refine_max_sweeps as u64);
    out.put_u64_le(t.max_expansions as u64);
}

fn get_topk(r: &mut Reader<'_>) -> Result<TopKConfig, WireError> {
    Ok(TopKConfig {
        k: r.usize64()?,
        epsilon: r.f64()?,
        m_f: r.usize64()?,
        m_t: r.usize64()?,
        refine_tolerance: r.f64()?,
        refine_max_sweeps: r.usize64()?,
        max_expansions: r.usize64()?,
    })
}

fn backend_tag(b: BackendKind) -> u8 {
    match b {
        BackendKind::Local => 0,
        BackendKind::Distributed => 1,
    }
}

fn get_backend(r: &mut Reader<'_>) -> Result<BackendKind, WireError> {
    Ok(match r.u8()? {
        0 => BackendKind::Local,
        1 => BackendKind::Distributed,
        t => return Err(WireError::Malformed(format!("unknown backend tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encode a request as a `Request` frame's binary payload.
pub fn encode_request(request: &QueryRequest, out: &mut BytesMut) {
    put_query(out, request.query());
    put_measure(out, request.measure());
    match request.k() {
        Some(k) => {
            out.put_u8(1);
            out.put_u64_le(k as u64);
        }
        None => out.put_u8(0),
    }
    match request.params() {
        Some(p) => {
            out.put_u8(1);
            put_params(out, &p);
        }
        None => out.put_u8(0),
    }
    match request.topk() {
        Some(t) => {
            out.put_u8(1);
            put_topk(out, &t);
        }
        None => out.put_u8(0),
    }
    // Two reserved bytes (docs/PROTOCOL.md §5).
    out.put_u8(0);
    out.put_u8(0);
}

/// Decode a `Request` frame's binary payload.
pub fn decode_request(payload: &[u8]) -> Result<QueryRequest, WireError> {
    let mut r = Reader::new(payload);
    let query = get_query(&mut r)?;
    let measure = get_measure(&mut r)?;
    // The decoded query is already canonical (the encoder serialized a
    // canonicalized request), so QueryRequest::new's re-canonicalization
    // is a bit-exact identity.
    let mut request = QueryRequest::new(query).with_measure(measure);
    if r.bool()? {
        request = request.with_k(r.usize64()?);
    }
    if r.bool()? {
        request = request.with_params(get_params(&mut r)?);
    }
    if r.bool()? {
        request = request.with_topk(get_topk(&mut r)?);
    }
    r.reserved("scheme present")?;
    r.reserved("backend present")?;
    r.finish()?;
    Ok(request)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn put_resolved(out: &mut BytesMut, r: &ResolvedRequest) {
    put_query(out, &r.query);
    put_measure(out, r.measure);
    put_params(out, &r.params);
    put_topk(out, &r.topk);
    // Two reserved bytes (docs/PROTOCOL.md §5).
    out.put_u8(0);
    out.put_u8(0);
}

fn get_resolved(r: &mut Reader<'_>) -> Result<ResolvedRequest, WireError> {
    let resolved = ResolvedRequest {
        query: get_query(r)?,
        measure: get_measure(r)?,
        params: get_params(r)?,
        topk: get_topk(r)?,
    };
    r.reserved("resolved scheme")?;
    r.reserved("route")?;
    Ok(resolved)
}

fn put_topk_result(out: &mut BytesMut, t: &TopKResult) {
    out.put_u32_le(t.ranking.len() as u32);
    for v in &t.ranking {
        out.put_u32_le(v.0);
    }
    out.put_u32_le(t.bounds.len() as u32);
    for &(lo, hi) in &t.bounds {
        out.put_f64_le(lo);
        out.put_f64_le(hi);
    }
    out.put_u64_le(t.expansions as u64);
    out.put_u8(t.converged as u8);
    for v in [
        t.active.f_nodes,
        t.active.t_nodes,
        t.active.active_nodes,
        t.active.active_edges,
        t.active.bytes,
    ] {
        out.put_u64_le(v as u64);
    }
}

fn get_topk_result(r: &mut Reader<'_>) -> Result<TopKResult, WireError> {
    let n = r.len(4)?;
    let mut ranking = Vec::with_capacity(n);
    for _ in 0..n {
        ranking.push(NodeId(r.u32()?));
    }
    let n = r.len(16)?;
    let mut bounds = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = r.f64()?;
        let hi = r.f64()?;
        bounds.push((lo, hi));
    }
    let expansions = r.usize64()?;
    let converged = r.bool()?;
    let active = ActiveSetStats {
        f_nodes: r.usize64()?,
        t_nodes: r.usize64()?,
        active_nodes: r.usize64()?,
        active_edges: r.usize64()?,
        bytes: r.usize64()?,
    };
    Ok(TopKResult {
        ranking,
        bounds,
        expansions,
        converged,
        active,
        // Work counts are not on the wire.
        work: TopKWork::default(),
    })
}

fn put_serve_error(out: &mut BytesMut, e: &ServeError) {
    match e {
        ServeError::Query(core) => match core {
            // An adjacency failure is backend-shaped; it also never
            // reaches responses as Query (the engine re-maps it), so the
            // wire form folds it the same way instead of encoding the
            // nested adjacency taxonomy.
            CoreError::Adjacency(a) => {
                out.put_u8(1);
                put_string(out, &a.to_string());
            }
            CoreError::NodeOutOfRange { node, node_count } => {
                out.put_u8(0);
                out.put_u8(0);
                out.put_u32_le(node.0);
                out.put_u64_le(*node_count as u64);
            }
            CoreError::EmptyQuery => {
                out.put_u8(0);
                out.put_u8(1);
            }
            CoreError::BadQueryWeights(msg) => {
                out.put_u8(0);
                out.put_u8(2);
                put_string(out, msg);
            }
            CoreError::InvalidAlpha(a) => {
                out.put_u8(0);
                out.put_u8(3);
                out.put_f64_le(*a);
            }
            CoreError::InvalidBeta(b) => {
                out.put_u8(0);
                out.put_u8(4);
                out.put_f64_le(*b);
            }
            CoreError::NoConvergence {
                iterations,
                residual,
            } => {
                out.put_u8(0);
                out.put_u8(5);
                out.put_u64_le(*iterations as u64);
                out.put_f64_le(*residual);
            }
        },
        ServeError::Backend(msg) => {
            out.put_u8(1);
            put_string(out, msg);
        }
        ServeError::Panicked(msg) => {
            out.put_u8(2);
            put_string(out, msg);
        }
    }
}

fn get_serve_error(r: &mut Reader<'_>) -> Result<ServeError, WireError> {
    Ok(match r.u8()? {
        0 => ServeError::Query(match r.u8()? {
            0 => CoreError::NodeOutOfRange {
                node: NodeId(r.u32()?),
                node_count: r.usize64()?,
            },
            1 => CoreError::EmptyQuery,
            2 => CoreError::BadQueryWeights(r.string()?),
            3 => CoreError::InvalidAlpha(r.f64()?),
            4 => CoreError::InvalidBeta(r.f64()?),
            5 => CoreError::NoConvergence {
                iterations: r.usize64()?,
                residual: r.f64()?,
            },
            t => return Err(WireError::Malformed(format!("unknown query-error tag {t}"))),
        }),
        1 => ServeError::Backend(r.string()?),
        2 => ServeError::Panicked(r.string()?),
        t => return Err(WireError::Malformed(format!("unknown error kind {t}"))),
    })
}

/// Encode a served response as a `Response` frame's binary payload.
/// Everything observable crosses the wire — resolved request, result or
/// typed error, backend provenance, `DistributedStats`, cache flag, and
/// the queue-wait/compute latency split — except the optional debug
/// trace (see the [module docs](self)).
pub fn encode_response(response: &QueryResponse, out: &mut BytesMut) {
    out.put_u64_le(response.id as u64);
    put_resolved(out, &response.request);
    match &response.result {
        Ok(result) => {
            out.put_u8(1);
            put_topk_result(out, result);
        }
        Err(e) => {
            out.put_u8(0);
            put_serve_error(out, e);
        }
    }
    out.put_u8(backend_tag(response.backend));
    out.put_u8(0); // reserved (docs/PROTOCOL.md §5)
    match &response.distributed {
        Some(d) => {
            out.put_u8(1);
            for v in [
                d.fetch_requests,
                d.blocks_fetched,
                d.blocks_prefetched,
                d.blocks_from_cache,
                d.bytes_transferred,
                d.active_nodes,
                d.active_edges,
                d.active_bytes,
            ] {
                out.put_u64_le(v as u64);
            }
        }
        None => out.put_u8(0),
    }
    out.put_u8(response.from_cache as u8);
    match response.worker {
        Some(w) => {
            out.put_u8(1);
            out.put_u64_le(w as u64);
        }
        None => out.put_u8(0),
    }
    out.put_u64_le(response.queue_wait.as_nanos() as u64);
    out.put_u64_le(response.compute.as_nanos() as u64);
}

/// Decode a `Response` frame's binary payload. The decoded response's
/// `trace` is always `None` (traces don't cross the wire).
pub fn decode_response(payload: &[u8]) -> Result<QueryResponse, WireError> {
    let mut r = Reader::new(payload);
    let id = r.usize64()?;
    let request = get_resolved(&mut r)?;
    let result = if r.bool()? {
        Ok(Arc::new(get_topk_result(&mut r)?))
    } else {
        Err(get_serve_error(&mut r)?)
    };
    let backend = get_backend(&mut r)?;
    r.reserved("routed_fallback")?;
    let distributed = if r.bool()? {
        Some(DistributedStats {
            fetch_requests: r.usize64()?,
            blocks_fetched: r.usize64()?,
            blocks_prefetched: r.usize64()?,
            blocks_from_cache: r.usize64()?,
            bytes_transferred: r.usize64()?,
            active_nodes: r.usize64()?,
            active_edges: r.usize64()?,
            active_bytes: r.usize64()?,
        })
    } else {
        None
    };
    let from_cache = r.bool()?;
    let worker = if r.bool()? { Some(r.usize64()?) } else { None };
    let queue_wait = Duration::from_nanos(r.u64()?);
    let compute = Duration::from_nanos(r.u64()?);
    r.finish()?;
    Ok(QueryResponse {
        id,
        request,
        result,
        backend,
        distributed,
        from_cache,
        worker,
        queue_wait,
        compute,
        trace: None,
    })
}

// ---------------------------------------------------------------------------
// Rejections
// ---------------------------------------------------------------------------

/// Encode a rejection as an `Error` frame's payload.
pub fn encode_reject(reject: &Reject, out: &mut BytesMut) {
    out.put_u8(reject.code as u8);
    out.put_u64_le(reject.retry_after_ms);
    put_string(out, &reject.message);
}

/// Decode an `Error` frame's payload.
pub fn decode_reject(payload: &[u8]) -> Result<Reject, WireError> {
    let mut r = Reader::new(payload);
    let code = r.u8()?;
    let code = ErrorCode::from_wire(code)
        .ok_or(WireError::Malformed(format!("unknown error code {code}")))?;
    let retry_after_ms = r.u64()?;
    let message = r.string()?;
    r.finish()?;
    Ok(Reject {
        code,
        message,
        retry_after_ms,
    })
}

/// Shared fixture requests exercising every optional field, used by the
/// codec, JSON, and integration round-trip tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    pub(crate) fn sample_requests() -> Vec<QueryRequest> {
        vec![
            QueryRequest::node(NodeId(3)),
            QueryRequest::nodes(&[NodeId(0), NodeId(1), NodeId(2)])
                .with_measure(Measure::RtrPlus { beta: 0.7 })
                .with_k(5),
            QueryRequest::new(Query::weighted(&[(NodeId(5), 2.0), (NodeId(1), 1.0)]).unwrap())
                .with_measure(Measure::T)
                .with_params(RankParams {
                    alpha: 0.3,
                    tolerance: 1e-8,
                    max_iterations: 64,
                })
                .with_topk(TopKConfig::toy()),
            QueryRequest::node(NodeId(0)).with_measure(Measure::F),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::sample_requests;
    use super::*;
    use rtr_serve::{run_serial_requests, ServeConfig};

    #[test]
    fn request_round_trip_is_exact() {
        for request in sample_requests() {
            let mut buf = BytesMut::new();
            encode_request(&request, &mut buf);
            let back = decode_request(buf.as_slice()).unwrap();
            assert_eq!(back, request);
            // Weight bits survive: the decoded request resolves to the
            // same cache key, the engine-facing identity.
            let cfg = ServeConfig::default();
            assert_eq!(
                back.resolve(&cfg).cache_key(1),
                request.resolve(&cfg).cache_key(1)
            );
        }
    }

    #[test]
    fn response_round_trip_is_exact() {
        let (g, _) = rtr_graph::toy::fig2_toy();
        let cfg = ServeConfig::default().with_topk(TopKConfig::toy());
        let requests = sample_requests();
        for response in run_serial_requests(&g, &cfg, &requests) {
            let mut buf = BytesMut::new();
            encode_response(&response, &mut buf);
            let back = decode_response(buf.as_slice()).unwrap();
            assert_eq!(back.id, response.id);
            assert_eq!(back.request, response.request);
            assert_eq!(back.backend, response.backend);
            assert_eq!(back.distributed, response.distributed);
            assert_eq!(back.from_cache, response.from_cache);
            assert_eq!(back.worker, response.worker);
            assert_eq!(back.queue_wait, response.queue_wait);
            assert_eq!(back.compute, response.compute);
            match (&back.result, &response.result) {
                (Ok(b), Ok(r)) => {
                    assert_eq!(b.ranking, r.ranking);
                    assert_eq!(b.bounds, r.bounds);
                    assert_eq!(b.expansions, r.expansions);
                    assert_eq!(b.converged, r.converged);
                    assert_eq!(b.active, r.active);
                }
                (b, r) => panic!("result mismatch: {b:?} vs {r:?}"),
            }
        }
    }

    #[test]
    fn error_results_round_trip() {
        let resolved = sample_requests()[0].resolve(&ServeConfig::default());
        for err in [
            ServeError::Query(CoreError::InvalidBeta(1.5)),
            ServeError::Query(CoreError::NodeOutOfRange {
                node: NodeId(99),
                node_count: 7,
            }),
            ServeError::Query(CoreError::NoConvergence {
                iterations: 100,
                residual: 0.5,
            }),
            ServeError::Query(CoreError::EmptyQuery),
            ServeError::Query(CoreError::BadQueryWeights("negative".into())),
            ServeError::Query(CoreError::InvalidAlpha(2.0)),
            ServeError::Backend("graph processor 2 is not running".into()),
            ServeError::Panicked("boom".into()),
        ] {
            let response = QueryResponse {
                id: 9,
                request: resolved.clone(),
                result: Err(err.clone()),
                backend: BackendKind::Distributed,
                distributed: None,
                from_cache: false,
                worker: Some(2),
                queue_wait: Duration::from_micros(15),
                compute: Duration::from_micros(40),
                trace: None,
            };
            let mut buf = BytesMut::new();
            encode_response(&response, &mut buf);
            let back = decode_response(buf.as_slice()).unwrap();
            assert_eq!(back.result.unwrap_err(), err);
        }
    }

    #[test]
    fn reject_round_trip() {
        let reject = Reject {
            code: ErrorCode::Overloaded,
            message: "tenant 7 exceeded 100 qps".into(),
            retry_after_ms: 12,
        };
        let mut buf = BytesMut::new();
        encode_reject(&reject, &mut buf);
        assert_eq!(decode_reject(buf.as_slice()).unwrap(), reject);
    }

    #[test]
    fn corrupted_payloads_are_typed_not_panics() {
        let mut buf = BytesMut::new();
        encode_request(&sample_requests()[2], &mut buf);
        let wire = buf.as_slice();
        // Every strict prefix is Truncated or Malformed, never a panic.
        for cut in 0..wire.len() {
            assert!(
                decode_request(&wire[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        // Bad enum tags and flag bytes are Malformed.
        let mut bad = wire.to_vec();
        let measure_at = 4 + 2 * 12; // after the 2-pair query
        bad[measure_at] = 9;
        assert!(matches!(decode_request(&bad), Err(WireError::Malformed(_))));
        // Trailing garbage is rejected.
        let mut long = wire.to_vec();
        long.push(0);
        assert!(matches!(
            decode_request(&long),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_element_counts_never_allocate_past_the_payload() {
        // A query claiming u32::MAX pairs in a 12-byte payload must be
        // rejected by the pre-allocation length check.
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(1);
        buf.put_f64_le(1.0);
        match decode_request(buf.as_slice()) {
            Err(WireError::Malformed(msg)) => assert!(msg.contains("elements")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
