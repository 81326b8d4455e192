//! Property-based fuzzing of the wire protocol (PR-10 satellite): the
//! decoder must be *total*. For every input — well-formed, truncated at
//! any byte, bit-flipped anywhere, or adversarially sized — decoding
//! returns `Ok` or a typed [`WireError`]; it never panics and never
//! allocates beyond the declared (and capped) payload length. For every
//! encodable request, decode ∘ encode is the identity, bit for bit. Every
//! flags byte but 0 is refused from the header alone: bit 0 once selected
//! a JSON payload and is reserved now. The five reserved payload bytes
//! (`docs/PROTOCOL.md` §5) are pinned case by case at the bottom.

use proptest::prelude::*;
use rtr_core::{Measure, Query, RankParams};
use rtr_graph::NodeId;
use rtr_net::{
    decode_reject, decode_request, decode_response, encode_request, encode_response, Frame,
    FrameType, WireError, HEADER_LEN, MAX_PAYLOAD,
};
use rtr_serve::{run_serial_requests, QueryRequest, ServeConfig};
use rtr_topk::TopKConfig;

/// Strategy: a request with a random normalized multi-node query and a
/// random subset of the optional override fields.
fn arb_request() -> impl Strategy<Value = QueryRequest> {
    (
        proptest::collection::vec((0..500u32, 0.05..1.0f64), 1..6),
        0..5u8,        // measure tag (4 = "leave default")
        0.05..0.95f64, // beta, when RtrPlus
        0..8u8,        // presence bitmask for k/params/topk
    )
        .prop_map(|(pairs, measure_tag, beta, presence)| {
            let total: f64 = pairs.iter().map(|(_, w)| w).sum();
            let normalized: Vec<(NodeId, f64)> =
                pairs.iter().map(|&(n, w)| (NodeId(n), w / total)).collect();
            let query = Query::from_normalized(&normalized).expect("normalized by construction");
            let mut request = QueryRequest::new(query);
            request = match measure_tag {
                0 => request.with_measure(Measure::F),
                1 => request.with_measure(Measure::T),
                2 => request.with_measure(Measure::Rtr),
                3 => request.with_measure(Measure::RtrPlus { beta }),
                _ => request,
            };
            if presence & 1 != 0 {
                request = request.with_k(1 + (presence as usize % 7));
            }
            if presence & 2 != 0 {
                request = request.with_params(RankParams {
                    alpha: 0.2 + beta / 10.0,
                    tolerance: 1e-7,
                    max_iterations: 50 + presence as usize,
                });
            }
            if presence & 4 != 0 {
                request = request.with_topk(TopKConfig::toy());
            }
            request
        })
}

fn encode_payload(request: &QueryRequest) -> Vec<u8> {
    let mut buf = bytes::BytesMut::new();
    encode_request(request, &mut buf);
    buf.as_slice().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // decode ∘ encode = identity for the binary codec, including the
    // f64 query-weight bits.
    #[test]
    fn binary_round_trip_is_identity(request in arb_request()) {
        let payload = encode_payload(&request);
        let back = decode_request(&payload);
        prop_assert!(back.is_ok(), "round trip failed: {:?}", back.err());
        prop_assert_eq!(back.unwrap(), request);
    }

    // A non-zero flags byte (bit 0 was the retired JSON payload mode;
    // bits 1–7 never had a meaning) is refused as `UnknownFlags` by the
    // header check: every prefix that holds the flags byte is condemned,
    // so no payload byte is ever read.
    #[test]
    fn nonzero_flags_are_refused_before_any_payload_byte(
        request in arb_request(),
        flags in 1..=255u8,
    ) {
        let frame = Frame {
            frame_type: FrameType::Request,
            json: false,
            tenant: 42,
            request_id: 7,
            payload: bytes::Bytes::from(&encode_payload(&request)[..]),
        };
        let mut wire = frame.to_bytes().as_slice().to_vec();
        wire[4] = flags;
        for cut in (5..=HEADER_LEN).chain([wire.len()]) {
            let parsed = Frame::parse(&wire[..cut], MAX_PAYLOAD);
            prop_assert!(
                parsed == Err(WireError::UnknownFlags(flags)),
                "cut at {cut}: {parsed:?}"
            );
        }
    }

    // Every truncation of a valid frame is `Truncated` (the streaming
    // "need more" signal) with honest byte accounting, and every
    // truncation of the bare payload is a typed error, never a panic.
    #[test]
    fn every_truncation_is_typed(request in arb_request(), frac in 0.0..1.0f64) {
        let payload = encode_payload(&request);
        let frame = Frame {
            frame_type: FrameType::Request,
            json: false,
            tenant: 42,
            request_id: 7,
            payload: bytes::Bytes::from(&payload[..]),
        };
        let wire = frame.to_bytes();
        let cut = ((wire.len() as f64) * frac) as usize; // in [0, len)
        match Frame::parse(&wire.as_slice()[..cut], MAX_PAYLOAD) {
            Err(WireError::Truncated { needed, available }) => {
                prop_assert_eq!(available, cut);
                prop_assert!(needed > cut);
                prop_assert!(needed <= wire.len());
            }
            other => prop_assert!(false, "cut at {cut}: {other:?}"),
        }
        let pcut = ((payload.len() as f64) * frac) as usize;
        prop_assert!(decode_request(&payload[..pcut]).is_err());
    }

    // Single bit flips anywhere in the payload: the decoder stays total
    // (Ok or typed Err — flips in low mantissa bits of a weight can
    // legitimately still decode).
    #[test]
    fn bit_flips_never_panic(request in arb_request(), pos in 0..4096usize, bit in 0..8u8) {
        let mut payload = encode_payload(&request);
        let n = payload.len();
        payload[pos % n] ^= 1 << bit;
        let _ = decode_request(&payload);
        // The same bytes thrown at the *other* decoders must also be
        // handled: a confused peer is a typed error, not a crash.
        let _ = decode_response(&payload);
        let _ = decode_reject(&payload);
    }

    // Arbitrary byte soup into the frame parser and all payload
    // decoders: total, typed, no panic, no over-allocation.
    #[test]
    fn random_bytes_are_handled(noise in proptest::collection::vec(0..=255u8, 0..(HEADER_LEN * 4))) {
        let _ = Frame::parse(&noise, MAX_PAYLOAD);
        let _ = decode_request(&noise);
        let _ = decode_response(&noise);
        let _ = decode_reject(&noise);
    }

    // A hostile declared length (up to the full u32 range) must be
    // rejected by header validation — `Oversized` against the
    // acceptor's cap — before any buffer is sized from it.
    #[test]
    fn hostile_lengths_are_rejected_before_allocation(
        declared in (MAX_PAYLOAD as u32 + 1)..u32::MAX,
        cap in 1024..65536usize,
    ) {
        let mut wire = Vec::with_capacity(HEADER_LEN);
        wire.extend_from_slice(b"RT");
        wire.push(1); // version
        wire.push(1); // Request
        wire.extend_from_slice(&[0; 4]); // flags + reserved
        wire.extend_from_slice(&9u32.to_le_bytes()); // tenant
        wire.extend_from_slice(&77u64.to_le_bytes()); // request id
        wire.extend_from_slice(&declared.to_le_bytes());
        match Frame::parse(&wire, cap) {
            Err(WireError::Oversized { len, max }) => {
                prop_assert_eq!(len, declared as usize);
                prop_assert_eq!(max, cap);
            }
            other => prop_assert!(false, "declared {declared}: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Reserved payload bytes: each must be refused, never misread.
// ---------------------------------------------------------------------------

/// `payload` with byte `at` set to `value` must decode to `Malformed`
/// (and decode unchanged, so the byte really is the reserved one).
fn assert_reserved(
    label: &str,
    payload: &[u8],
    at: usize,
    decode: impl Fn(&[u8]) -> Result<(), WireError>,
) {
    assert_eq!(payload[at], 0, "{label}: reserved bytes are written as 0");
    assert!(
        decode(payload).is_ok(),
        "{label}: the untouched payload decodes"
    );
    for value in [1, 2, 0xFF] {
        let mut bad = payload.to_vec();
        bad[at] = value;
        assert!(
            matches!(decode(&bad), Err(WireError::Malformed(_))),
            "{label} = {value} must be Malformed"
        );
    }
}

/// A request payload ends with its two reserved bytes: the former
/// scheme-present byte, then the former backend-present byte.
fn request_payload() -> Vec<u8> {
    encode_payload(&QueryRequest::node(NodeId(3)))
}

fn decode_request_ok(payload: &[u8]) -> Result<(), WireError> {
    decode_request(payload).map(drop)
}

#[test]
fn request_reserved_scheme_byte_is_malformed() {
    let payload = request_payload();
    assert_reserved(
        "scheme present",
        &payload,
        payload.len() - 2,
        decode_request_ok,
    );
}

#[test]
fn request_reserved_backend_byte_is_malformed() {
    let payload = request_payload();
    assert_reserved(
        "backend present",
        &payload,
        payload.len() - 1,
        decode_request_ok,
    );
}

/// A served single-node RoundTripRank response and the offsets of its
/// three reserved bytes. The id (8), query (4 + 12), measure (1), params
/// (24) and top-K config (56) are followed by the former resolved-scheme
/// and route bytes. The former `routed_fallback` byte follows the
/// provenance byte; behind it come the distributed-stats tag (1, none
/// here), the cache flag (1), the worker tag (1, none for the serial
/// reference) and the two latencies (16).
fn response_payload() -> (Vec<u8>, [usize; 3]) {
    let (g, _) = rtr_graph::toy::fig2_toy();
    let config = ServeConfig::default().with_topk(TopKConfig::toy());
    let response = run_serial_requests(&g, &config, &[QueryRequest::node(NodeId(3))]).remove(0);
    assert!(response.distributed.is_none() && response.worker.is_none());
    let mut buf = bytes::BytesMut::new();
    encode_response(&response, &mut buf);
    let payload = buf.as_slice().to_vec();
    let scheme = 8 + 16 + 1 + 24 + 56;
    let fallback = payload.len() - (1 + 1 + 1 + 16) - 1;
    (payload, [scheme, scheme + 1, fallback])
}

fn decode_response_ok(payload: &[u8]) -> Result<(), WireError> {
    decode_response(payload).map(drop)
}

#[test]
fn response_reserved_scheme_byte_is_malformed() {
    let (payload, [at, _, _]) = response_payload();
    assert_reserved("resolved scheme", &payload, at, decode_response_ok);
}

#[test]
fn response_reserved_route_byte_is_malformed() {
    let (payload, [_, at, _]) = response_payload();
    assert_reserved("route", &payload, at, decode_response_ok);
}

#[test]
fn response_reserved_fallback_byte_is_malformed() {
    let (payload, [_, _, at]) = response_payload();
    assert_reserved("routed_fallback", &payload, at, decode_response_ok);
}
