//! Length-prefixed, versioned frame layer — the transport-agnostic unit
//! of the wire protocol.
//!
//! A frame is a fixed 24-byte header followed by `payload_len` payload
//! bytes (layout below and, normatively, in `docs/PROTOCOL.md`):
//!
//! ```text
//! offset size field
//! 0      2    magic       b"RT"
//! 2      1    version     PROTOCOL_VERSION (1)
//! 3      1    frame type  FrameType discriminant
//! 4      1    flags       reserved (0)
//! 5      3    reserved    must be zero
//! 8      4    tenant id   u32 LE (admission-control identity)
//! 12     8    request id  u64 LE (client-chosen correlation id)
//! 20     4    payload len u32 LE (bytes following the header)
//! 24     …    payload
//! ```
//!
//! All integers are little-endian, matching `rtr_graph::wire`.
//! **Versioning rules:** the magic and the first three header bytes never
//! move; an incompatible layout change bumps `version` and a v1 decoder
//! rejects it as [`WireError::UnsupportedVersion`]. Reserved bits/bytes
//! must be zero on the wire — v1 decoders reject nonzero values
//! ([`WireError::UnknownFlags`] / [`WireError::Malformed`]), which is what
//! lets a future version assign them meaning without silent misreads.
//!
//! Decoding is **total and allocation-bounded**: any byte sequence either
//! parses or returns a typed [`WireError`]; a declared payload length is
//! validated against [`MAX_PAYLOAD`] (and any stricter transport cap)
//! *before* any buffer is sized from it, so a hostile 4 GiB length prefix
//! costs 24 bytes of reading, not 4 GiB of allocation.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"RT";

/// The protocol version this crate speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;

/// Hard protocol-level payload cap (16 MiB). Transports may impose a
/// stricter limit; nothing may accept more.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// What a frame carries. Discriminants are the on-wire type byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: one encoded [`rtr_serve::QueryRequest`].
    Request = 1,
    /// Server → client: the matching encoded [`rtr_serve::QueryResponse`].
    Response = 2,
    /// Server → client: a typed rejection ([`crate::Reject`]) — the
    /// request never reached the engine (overload, rate limit, malformed
    /// payload, shutdown).
    Error = 3,
    /// Client → server: liveness probe (empty payload).
    Ping = 4,
    /// Server → client: answer to a `Ping` (empty payload, echoes the
    /// request id).
    Pong = 5,
    /// Client → server: ask for the engine + server metrics snapshot
    /// (empty payload).
    MetricsRequest = 6,
    /// Server → client: Prometheus text exposition of the metrics
    /// snapshot (UTF-8 payload).
    MetricsResponse = 7,
    /// Server → client: the connection is closing after this frame (sent
    /// on graceful shutdown once every accepted request has been
    /// answered). Client → server: the client is done submitting.
    Goodbye = 8,
}

impl FrameType {
    fn from_wire(b: u8) -> Option<FrameType> {
        Some(match b {
            1 => FrameType::Request,
            2 => FrameType::Response,
            3 => FrameType::Error,
            4 => FrameType::Ping,
            5 => FrameType::Pong,
            6 => FrameType::MetricsRequest,
            7 => FrameType::MetricsResponse,
            8 => FrameType::Goodbye,
            _ => return None,
        })
    }
}

/// Why a byte sequence failed to decode. The taxonomy is part of the
/// protocol contract: every malformed input maps to exactly one of these
/// — never a panic, never an unbounded allocation.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// More bytes are needed than are available (also the streaming
    /// "frame incomplete, keep reading" signal).
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The first two bytes are not [`MAGIC`] — this is not our protocol.
    BadMagic([u8; 2]),
    /// The version byte names a protocol revision this decoder does not
    /// speak.
    UnsupportedVersion(u8),
    /// The frame-type byte is not a known [`FrameType`].
    UnknownFrameType(u8),
    /// Flag bits reserved in this version were set.
    UnknownFlags(u8),
    /// The declared payload length exceeds the acceptor's cap.
    Oversized {
        /// The declared payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The frame parsed but its payload is structurally invalid (bad
    /// enum tag, length mismatch, non-UTF-8 string, semantic violation).
    Malformed(String),
    /// A JSON document handed to [`crate::json::response_from_json`]
    /// failed to parse or had the wrong shape. No socket path produces
    /// it: frames carry only the binary codec.
    BadJson(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated: need {needed} bytes, have {available}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:?} (expected b\"RT\")"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::UnknownFlags(bits) => {
                write!(f, "reserved flag bits set: {bits:#010b}")
            }
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "declared payload of {len} bytes exceeds the {max}-byte cap"
                )
            }
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::BadJson(msg) => write!(f, "bad JSON: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame: the header fields plus the raw payload (decoded
/// further by [`crate::codec`] according to [`Frame::frame_type`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// What the payload is.
    pub frame_type: FrameType,
    /// Always `false`. Flag bit 0 once selected a JSON payload; it is
    /// reserved now, so [`Frame::parse`] never yields `true` and
    /// [`Frame::encode`] refuses it.
    pub json: bool,
    /// Tenant identity for admission control (0 = the default tenant).
    pub tenant: u32,
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub request_id: u64,
    /// The payload bytes (`payload.len()` is the on-wire length).
    pub payload: Bytes,
}

impl Frame {
    /// A frame with an empty payload (control frames).
    pub fn control(frame_type: FrameType, tenant: u32, request_id: u64) -> Frame {
        Frame {
            frame_type,
            json: false,
            tenant,
            request_id,
            payload: Bytes::new(),
        }
    }

    /// Append this frame's wire form (header + payload) to `out`.
    ///
    /// # Panics
    /// If the payload exceeds [`MAX_PAYLOAD`] or [`Frame::json`] is set —
    /// encoders construct frames, so either is a caller bug, not wire
    /// input.
    pub fn encode(&self, out: &mut BytesMut) {
        assert!(!self.json, "flag bit 0 (the JSON payload mode) is reserved");
        assert!(
            self.payload.len() <= MAX_PAYLOAD,
            "frame payload {} exceeds MAX_PAYLOAD",
            self.payload.len()
        );
        out.reserve(HEADER_LEN + self.payload.len());
        out.put_slice(&MAGIC);
        out.put_u8(PROTOCOL_VERSION);
        out.put_u8(self.frame_type as u8);
        out.put_slice(&[0u8; 4]);
        out.put_u32_le(self.tenant);
        out.put_u64_le(self.request_id);
        out.put_u32_le(self.payload.len() as u32);
        out.put_slice(self.payload.as_slice());
    }

    /// This frame as a standalone byte vector.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(HEADER_LEN + self.payload.len());
        self.encode(&mut out);
        out.freeze()
    }

    /// Parse one frame from the front of `input`, returning it with the
    /// number of bytes consumed. [`WireError::Truncated`] doubles as the
    /// streaming "need more bytes" signal; every other error is fatal for
    /// the connection. `max_payload` is the acceptor's cap (clamped to
    /// [`MAX_PAYLOAD`]); the check runs before anything is sized from the
    /// declared length.
    pub fn parse(input: &[u8], max_payload: usize) -> Result<(Frame, usize), WireError> {
        let header = parse_header(input, max_payload)?;
        let total = HEADER_LEN + header.payload_len;
        if input.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                available: input.len(),
            });
        }
        Ok((
            Frame {
                frame_type: header.frame_type,
                json: false,
                tenant: header.tenant,
                request_id: header.request_id,
                payload: Bytes::from(&input[HEADER_LEN..total]),
            },
            total,
        ))
    }
}

/// A validated header: what [`parse_header`] yields before the payload
/// bytes exist (the server reads headers and payloads separately).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload will be.
    pub frame_type: FrameType,
    /// Tenant identity.
    pub tenant: u32,
    /// Correlation id.
    pub request_id: u64,
    /// Declared payload length (validated ≤ the cap).
    pub payload_len: usize,
}

/// Validate the fixed 24-byte header at the front of `input` without
/// touching payload bytes. `max_payload` is the acceptor's payload cap
/// (clamped to [`MAX_PAYLOAD`]).
pub fn parse_header(input: &[u8], max_payload: usize) -> Result<FrameHeader, WireError> {
    // Validate whatever prefix has already arrived BEFORE asking for more
    // bytes: a peer speaking the wrong protocol (bad magic at byte 0) is
    // rejected immediately instead of the parser reporting `Truncated`
    // and the connection stalling until more garbage shows up.
    if input.len() >= 2 && input[0..2] != MAGIC {
        return Err(WireError::BadMagic([input[0], input[1]]));
    }
    if input.len() >= 3 && input[2] != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(input[2]));
    }
    if input.len() >= 4 && FrameType::from_wire(input[3]).is_none() {
        return Err(WireError::UnknownFrameType(input[3]));
    }
    if input.len() >= 5 && input[4] != 0 {
        return Err(WireError::UnknownFlags(input[4]));
    }
    if input.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            available: input.len(),
        });
    }
    // invariant: byte 3 was validated above once 4 bytes were available.
    let frame_type = FrameType::from_wire(input[3]).expect("validated frame type");
    if input[5..8] != [0, 0, 0] {
        return Err(WireError::Malformed(format!(
            "reserved header bytes must be zero, got {:?}",
            &input[5..8]
        )));
    }
    let le32 =
        |at: usize| u32::from_le_bytes([input[at], input[at + 1], input[at + 2], input[at + 3]]);
    let tenant = le32(8);
    let request_id = u64::from_le_bytes([
        input[12], input[13], input[14], input[15], input[16], input[17], input[18], input[19],
    ]);
    let payload_len = le32(20) as usize;
    let cap = max_payload.min(MAX_PAYLOAD);
    if payload_len > cap {
        return Err(WireError::Oversized {
            len: payload_len,
            max: cap,
        });
    }
    Ok(FrameHeader {
        frame_type,
        tenant,
        request_id,
        payload_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            frame_type: FrameType::Request,
            json: false,
            tenant: 42,
            request_id: 0xDEAD_BEEF_0BAD_CAFE,
            payload: Bytes::from(vec![1, 2, 3, 4, 5]),
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let wire = f.to_bytes();
        assert_eq!(wire.len(), HEADER_LEN + 5);
        let (back, used) = Frame::parse(wire.as_slice(), MAX_PAYLOAD).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(back, f);
    }

    #[test]
    fn every_truncation_is_a_typed_truncated_error() {
        let wire = sample().to_bytes();
        for cut in 0..wire.len() {
            match Frame::parse(&wire.as_slice()[..cut], MAX_PAYLOAD) {
                Err(WireError::Truncated { needed, available }) => {
                    assert_eq!(available, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_field_corruption_is_typed() {
        let wire = sample().to_bytes();
        let mut bad = wire.as_slice().to_vec();
        bad[0] = b'X';
        assert!(matches!(
            Frame::parse(&bad, MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = wire.as_slice().to_vec();
        bad[2] = 99;
        assert_eq!(
            Frame::parse(&bad, MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion(99))
        );

        let mut bad = wire.as_slice().to_vec();
        bad[3] = 0;
        assert_eq!(
            Frame::parse(&bad, MAX_PAYLOAD),
            Err(WireError::UnknownFrameType(0))
        );

        // Bit 0 (the retired JSON payload mode) is as reserved as the rest.
        for flags in [0b0000_0001, 0b1000_0001] {
            let mut bad = wire.as_slice().to_vec();
            bad[4] = flags;
            assert_eq!(
                Frame::parse(&bad, MAX_PAYLOAD),
                Err(WireError::UnknownFlags(flags))
            );
        }

        let mut bad = wire.as_slice().to_vec();
        bad[6] = 7;
        assert!(matches!(
            Frame::parse(&bad, MAX_PAYLOAD),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn encoding_the_json_flag_panics() {
        let mut frame = sample();
        frame.json = true;
        frame.to_bytes();
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_any_allocation() {
        let mut wire = sample().to_bytes().as_slice().to_vec();
        wire[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::parse(&wire, MAX_PAYLOAD),
            Err(WireError::Oversized {
                len: u32::MAX as usize,
                max: MAX_PAYLOAD,
            })
        );
        // A stricter transport cap wins over the protocol cap.
        let ok = sample().to_bytes();
        assert_eq!(
            Frame::parse(ok.as_slice(), 4),
            Err(WireError::Oversized { len: 5, max: 4 })
        );
    }

    #[test]
    fn parse_consumes_exactly_one_frame() {
        let mut two = sample().to_bytes().as_slice().to_vec();
        let second = Frame::control(FrameType::Ping, 7, 9);
        two.extend_from_slice(second.to_bytes().as_slice());
        let (first, used) = Frame::parse(&two, MAX_PAYLOAD).unwrap();
        assert_eq!(first, sample());
        let (next, used2) = Frame::parse(&two[used..], MAX_PAYLOAD).unwrap();
        assert_eq!(next, second);
        assert_eq!(used + used2, two.len());
    }
}
