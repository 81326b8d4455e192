//! JSON rendering of a [`QueryResponse`]: a debugging aid, not a wire
//! encoding.
//!
//! Frames carry only the binary codec ([`crate::codec`]); nothing on a
//! socket reads or writes JSON. [`response_to_json`] renders a response
//! as a JSON object with the binary codec's fields, field for field, and
//! [`response_from_json`] parses that object back, which is how the
//! rendering is checked to lose nothing.
//!
//! The workspace's vendored `serde` shim carries no JSON format, so this
//! module hand-rolls a small total JSON reader/writer. Numbers keep
//! full fidelity across a round trip: integers ride as u64, and floats
//! are printed with Rust's shortest-round-trip formatting — so even the
//! f64 query weights survive JSON bit for bit.

use crate::frame::WireError;
use rtr_core::{CoreError, Measure, Query, RankParams};
use rtr_distributed::DistributedStats;
use rtr_graph::NodeId;
use rtr_serve::{BackendKind, QueryResponse, ResolvedRequest, ServeError};
use rtr_topk::{ActiveSetStats, TopKConfig, TopKResult, TopKWork};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// A parsed JSON value. Object members keep insertion order (encode
/// output is deterministic).
#[derive(Debug, PartialEq)]
enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`/exponent) — kept exact.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

fn bad(msg: impl Into<String>) -> WireError {
    WireError::BadJson(msg.into())
}

impl Json {
    /// Parse a complete JSON document (rejects trailing input).
    fn parse(text: &str) -> Result<Json, WireError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(bad(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Serialize to compact JSON text.
    fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(members) => members
                .iter()
                .find_map(|(k, v)| (k == key && *v != Json::Null).then_some(v)),
            _ => None,
        }
    }

    fn require<'a>(&'a self, key: &str) -> Result<&'a Json, WireError> {
        self.get(key)
            .ok_or_else(|| bad(format!("missing field '{key}'")))
    }

    fn as_u64(&self) -> Result<u64, WireError> {
        match self {
            Json::Int(v) => Ok(*v),
            _ => Err(bad("expected a non-negative integer")),
        }
    }

    fn as_usize(&self) -> Result<usize, WireError> {
        usize::try_from(self.as_u64()?).map_err(|_| bad("integer exceeds usize"))
    }

    fn as_f64(&self) -> Result<f64, WireError> {
        match self {
            Json::Int(v) => Ok(*v as f64),
            Json::Num(v) => Ok(*v),
            _ => Err(bad("expected a number")),
        }
    }

    fn as_bool(&self) -> Result<bool, WireError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(bad("expected a boolean")),
        }
    }

    fn as_str(&self) -> Result<&str, WireError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(bad("expected a string")),
        }
    }

    fn as_arr(&self) -> Result<&[Json], WireError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(bad("expected an array")),
        }
    }
}

/// Shortest-round-trip float formatting: Rust's `{}` for f64 prints the
/// shortest decimal that parses back to the same bits, which is exactly
/// the fidelity the codec contract needs. (Non-finite values can't occur:
/// scores, weights, and parameters are finite by construction.)
fn write_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "non-finite f64 in JSON output");
    let _ = write!(out, "{v}");
    // "1" would re-parse as Int; that's fine — Int-vs-Num is a parsing
    // distinction, both re-read to the same f64 bits via as_f64().
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(bad(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, WireError> {
        if self.depth >= MAX_DEPTH {
            return Err(bad("nesting deeper than 64 levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(bad(format!("unexpected byte {b:#04x} at {}", self.pos))),
            None => Err(bad("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(bad(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn object(&mut self) -> Result<Json, WireError> {
        self.eat(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(bad(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
        self.depth -= 1;
        Ok(Json::Obj(members))
    }

    fn array(&mut self) -> Result<Json, WireError> {
        self.eat(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(bad(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(bad("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| bad("bad \\u escape"))?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| bad("bad \\u escape"))?;
                            // Surrogates are not assembled — control
                            // characters are all this writer emits.
                            out.push(char::from_u32(code).ok_or_else(|| bad("bad \\u escape"))?);
                            self.pos += 4;
                        }
                        _ => return Err(bad(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input arrived as &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| bad("invalid UTF-8"))?;
                    // invariant: peek() returned Some, so rest is non-empty.
                    let c = rest.chars().next().expect("non-empty remainder");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(bad("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| bad("invalid number"))?;
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| bad(format!("invalid number '{text}'")))
    }
}

// ---------------------------------------------------------------------------
// Domain encoding
// ---------------------------------------------------------------------------

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn query_to_json(q: &Query) -> Json {
    Json::Arr(
        q.iter()
            .map(|(n, w)| Json::Arr(vec![Json::Int(n.0 as u64), Json::Num(w)]))
            .collect(),
    )
}

fn query_from_json(v: &Json) -> Result<Query, WireError> {
    let mut pairs = Vec::new();
    for item in v.as_arr()? {
        let pair = item.as_arr()?;
        if pair.len() != 2 {
            return Err(bad("query pairs are [node, weight]"));
        }
        let node = u32::try_from(pair[0].as_u64()?).map_err(|_| bad("node id exceeds u32"))?;
        pairs.push((NodeId(node), pair[1].as_f64()?));
    }
    Query::from_normalized(&pairs).map_err(|e| bad(format!("invalid query: {e}")))
}

fn measure_to_json(m: Measure) -> Json {
    match m {
        Measure::F => Json::Str("f".into()),
        Measure::T => Json::Str("t".into()),
        Measure::Rtr => Json::Str("rtr".into()),
        Measure::RtrPlus { beta } => obj(vec![("rtr_plus", obj(vec![("beta", Json::Num(beta))]))]),
    }
}

fn measure_from_json(v: &Json) -> Result<Measure, WireError> {
    match v {
        Json::Str(s) => match s.as_str() {
            "f" => Ok(Measure::F),
            "t" => Ok(Measure::T),
            "rtr" => Ok(Measure::Rtr),
            other => Err(bad(format!("unknown measure '{other}'"))),
        },
        Json::Obj(_) => {
            let inner = v.require("rtr_plus")?;
            Ok(Measure::RtrPlus {
                beta: inner.require("beta")?.as_f64()?,
            })
        }
        _ => Err(bad("measure is a string or {\"rtr_plus\": {...}}")),
    }
}

fn params_to_json(p: &RankParams) -> Json {
    obj(vec![
        ("alpha", Json::Num(p.alpha)),
        ("tolerance", Json::Num(p.tolerance)),
        ("max_iterations", Json::Int(p.max_iterations as u64)),
    ])
}

fn params_from_json(v: &Json) -> Result<RankParams, WireError> {
    Ok(RankParams {
        alpha: v.require("alpha")?.as_f64()?,
        tolerance: v.require("tolerance")?.as_f64()?,
        max_iterations: v.require("max_iterations")?.as_usize()?,
    })
}

fn topk_to_json(t: &TopKConfig) -> Json {
    obj(vec![
        ("k", Json::Int(t.k as u64)),
        ("epsilon", Json::Num(t.epsilon)),
        ("m_f", Json::Int(t.m_f as u64)),
        ("m_t", Json::Int(t.m_t as u64)),
        ("refine_tolerance", Json::Num(t.refine_tolerance)),
        ("refine_max_sweeps", Json::Int(t.refine_max_sweeps as u64)),
        ("max_expansions", Json::Int(t.max_expansions as u64)),
    ])
}

fn topk_from_json(v: &Json) -> Result<TopKConfig, WireError> {
    Ok(TopKConfig {
        k: v.require("k")?.as_usize()?,
        epsilon: v.require("epsilon")?.as_f64()?,
        m_f: v.require("m_f")?.as_usize()?,
        m_t: v.require("m_t")?.as_usize()?,
        refine_tolerance: v.require("refine_tolerance")?.as_f64()?,
        refine_max_sweeps: v.require("refine_max_sweeps")?.as_usize()?,
        max_expansions: v.require("max_expansions")?.as_usize()?,
    })
}

fn backend_slug(b: BackendKind) -> &'static str {
    match b {
        BackendKind::Local => "local",
        BackendKind::Distributed => "distributed",
    }
}

fn backend_from_json(v: &Json) -> Result<BackendKind, WireError> {
    match v.as_str()? {
        "local" => Ok(BackendKind::Local),
        "distributed" => Ok(BackendKind::Distributed),
        other => Err(bad(format!("unknown backend '{other}'"))),
    }
}

fn resolved_to_json(r: &ResolvedRequest) -> Json {
    obj(vec![
        ("query", query_to_json(&r.query)),
        ("measure", measure_to_json(r.measure)),
        ("params", params_to_json(&r.params)),
        ("topk", topk_to_json(&r.topk)),
    ])
}

fn resolved_from_json(v: &Json) -> Result<ResolvedRequest, WireError> {
    Ok(ResolvedRequest {
        query: query_from_json(v.require("query")?)?,
        measure: measure_from_json(v.require("measure")?)?,
        params: params_from_json(v.require("params")?)?,
        topk: topk_from_json(v.require("topk")?)?,
    })
}

fn result_to_json(t: &TopKResult) -> Json {
    obj(vec![
        (
            "ranking",
            Json::Arr(t.ranking.iter().map(|v| Json::Int(v.0 as u64)).collect()),
        ),
        (
            "bounds",
            Json::Arr(
                t.bounds
                    .iter()
                    .map(|&(lo, hi)| Json::Arr(vec![Json::Num(lo), Json::Num(hi)]))
                    .collect(),
            ),
        ),
        ("expansions", Json::Int(t.expansions as u64)),
        ("converged", Json::Bool(t.converged)),
        (
            "active",
            obj(vec![
                ("f_nodes", Json::Int(t.active.f_nodes as u64)),
                ("t_nodes", Json::Int(t.active.t_nodes as u64)),
                ("active_nodes", Json::Int(t.active.active_nodes as u64)),
                ("active_edges", Json::Int(t.active.active_edges as u64)),
                ("bytes", Json::Int(t.active.bytes as u64)),
            ]),
        ),
    ])
}

fn result_from_json(v: &Json) -> Result<TopKResult, WireError> {
    let ranking = v
        .require("ranking")?
        .as_arr()?
        .iter()
        .map(|n| {
            u32::try_from(n.as_u64()?)
                .map(NodeId)
                .map_err(|_| bad("node id exceeds u32"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let bounds = v
        .require("bounds")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(bad("bounds are [lower, upper] pairs"));
            }
            Ok((pair[0].as_f64()?, pair[1].as_f64()?))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let active = v.require("active")?;
    Ok(TopKResult {
        ranking,
        bounds,
        expansions: v.require("expansions")?.as_usize()?,
        converged: v.require("converged")?.as_bool()?,
        active: ActiveSetStats {
            f_nodes: active.require("f_nodes")?.as_usize()?,
            t_nodes: active.require("t_nodes")?.as_usize()?,
            active_nodes: active.require("active_nodes")?.as_usize()?,
            active_edges: active.require("active_edges")?.as_usize()?,
            bytes: active.require("bytes")?.as_usize()?,
        },
        // Work counts are not on the wire.
        work: TopKWork::default(),
    })
}

fn serve_error_to_json(e: &ServeError) -> Json {
    match e {
        ServeError::Query(core) => {
            let mut members = vec![("kind", Json::Str("query".into()))];
            match core {
                CoreError::Adjacency(a) => {
                    // Folded like the binary codec: adjacency failures are
                    // backend-shaped.
                    return obj(vec![
                        ("kind", Json::Str("backend".into())),
                        ("message", Json::Str(a.to_string())),
                    ]);
                }
                CoreError::NodeOutOfRange { node, node_count } => {
                    members.push(("code", Json::Str("node_out_of_range".into())));
                    members.push(("node", Json::Int(node.0 as u64)));
                    members.push(("node_count", Json::Int(*node_count as u64)));
                }
                CoreError::EmptyQuery => members.push(("code", Json::Str("empty_query".into()))),
                CoreError::BadQueryWeights(msg) => {
                    members.push(("code", Json::Str("bad_query_weights".into())));
                    members.push(("message", Json::Str(msg.clone())));
                }
                CoreError::InvalidAlpha(a) => {
                    members.push(("code", Json::Str("invalid_alpha".into())));
                    members.push(("alpha", Json::Num(*a)));
                }
                CoreError::InvalidBeta(b) => {
                    members.push(("code", Json::Str("invalid_beta".into())));
                    members.push(("beta", Json::Num(*b)));
                }
                CoreError::NoConvergence {
                    iterations,
                    residual,
                } => {
                    members.push(("code", Json::Str("no_convergence".into())));
                    members.push(("iterations", Json::Int(*iterations as u64)));
                    members.push(("residual", Json::Num(*residual)));
                }
            }
            obj(members)
        }
        ServeError::Backend(msg) => obj(vec![
            ("kind", Json::Str("backend".into())),
            ("message", Json::Str(msg.clone())),
        ]),
        ServeError::Panicked(msg) => obj(vec![
            ("kind", Json::Str("panicked".into())),
            ("message", Json::Str(msg.clone())),
        ]),
        ServeError::Refused(msg) => obj(vec![
            ("kind", Json::Str("refused".into())),
            ("message", Json::Str(msg.clone())),
        ]),
    }
}

fn serve_error_from_json(v: &Json) -> Result<ServeError, WireError> {
    match v.require("kind")?.as_str()? {
        "backend" => Ok(ServeError::Backend(
            v.require("message")?.as_str()?.to_string(),
        )),
        "panicked" => Ok(ServeError::Panicked(
            v.require("message")?.as_str()?.to_string(),
        )),
        "refused" => Ok(ServeError::Refused(
            v.require("message")?.as_str()?.to_string(),
        )),
        "query" => Ok(ServeError::Query(match v.require("code")?.as_str()? {
            "node_out_of_range" => CoreError::NodeOutOfRange {
                node: NodeId(
                    u32::try_from(v.require("node")?.as_u64()?)
                        .map_err(|_| bad("node id exceeds u32"))?,
                ),
                node_count: v.require("node_count")?.as_usize()?,
            },
            "empty_query" => CoreError::EmptyQuery,
            "bad_query_weights" => {
                CoreError::BadQueryWeights(v.require("message")?.as_str()?.to_string())
            }
            "invalid_alpha" => CoreError::InvalidAlpha(v.require("alpha")?.as_f64()?),
            "invalid_beta" => CoreError::InvalidBeta(v.require("beta")?.as_f64()?),
            "no_convergence" => CoreError::NoConvergence {
                iterations: v.require("iterations")?.as_usize()?,
                residual: v.require("residual")?.as_f64()?,
            },
            other => return Err(bad(format!("unknown query-error code '{other}'"))),
        })),
        other => Err(bad(format!("unknown error kind '{other}'"))),
    }
}

/// Render a response as a JSON object: the binary codec's fields, field
/// for field (`trace` stays server-side, as on the wire).
pub fn response_to_json(response: &QueryResponse) -> String {
    obj(vec![
        ("id", Json::Int(response.id as u64)),
        ("request", resolved_to_json(&response.request)),
        (
            "result",
            match &response.result {
                Ok(r) => result_to_json(r),
                Err(e) => obj(vec![("error", serve_error_to_json(e))]),
            },
        ),
        ("backend", Json::Str(backend_slug(response.backend).into())),
        (
            "distributed",
            match &response.distributed {
                None => Json::Null,
                Some(d) => obj(vec![
                    ("fetch_requests", Json::Int(d.fetch_requests as u64)),
                    ("blocks_fetched", Json::Int(d.blocks_fetched as u64)),
                    ("blocks_prefetched", Json::Int(d.blocks_prefetched as u64)),
                    ("blocks_from_cache", Json::Int(d.blocks_from_cache as u64)),
                    ("bytes_transferred", Json::Int(d.bytes_transferred as u64)),
                    ("active_nodes", Json::Int(d.active_nodes as u64)),
                    ("active_edges", Json::Int(d.active_edges as u64)),
                    ("active_bytes", Json::Int(d.active_bytes as u64)),
                ]),
            },
        ),
        ("from_cache", Json::Bool(response.from_cache)),
        (
            "worker",
            match response.worker {
                None => Json::Null,
                Some(w) => Json::Int(w as u64),
            },
        ),
        (
            "queue_wait_ns",
            Json::Int(response.queue_wait.as_nanos() as u64),
        ),
        ("compute_ns", Json::Int(response.compute.as_nanos() as u64)),
    ])
    .render()
}

/// Parse the object [`response_to_json`] renders.
pub fn response_from_json(text: &str) -> Result<QueryResponse, WireError> {
    let v = Json::parse(text)?;
    let result_v = v.require("result")?;
    let result = match result_v.get("error") {
        Some(e) => Err(serve_error_from_json(e)?),
        None => Ok(Arc::new(result_from_json(result_v)?)),
    };
    Ok(QueryResponse {
        id: v.require("id")?.as_usize()?,
        request: resolved_from_json(v.require("request")?)?,
        result,
        backend: backend_from_json(v.require("backend")?)?,
        distributed: match v.get("distributed") {
            None => None,
            Some(d) => Some(DistributedStats {
                fetch_requests: d.require("fetch_requests")?.as_usize()?,
                blocks_fetched: d.require("blocks_fetched")?.as_usize()?,
                blocks_prefetched: d.require("blocks_prefetched")?.as_usize()?,
                blocks_from_cache: d.require("blocks_from_cache")?.as_usize()?,
                bytes_transferred: d.require("bytes_transferred")?.as_usize()?,
                active_nodes: d.require("active_nodes")?.as_usize()?,
                active_edges: d.require("active_edges")?.as_usize()?,
                active_bytes: d.require("active_bytes")?.as_usize()?,
            }),
        },
        from_cache: v.require("from_cache")?.as_bool()?,
        worker: match v.get("worker") {
            None => None,
            Some(w) => Some(w.as_usize()?),
        },
        queue_wait: Duration::from_nanos(v.require("queue_wait_ns")?.as_u64()?),
        compute: Duration::from_nanos(v.require("compute_ns")?.as_u64()?),
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_serve::{run_serial_requests, QueryRequest, ServeConfig};

    #[test]
    fn json_value_round_trip() {
        let text = r#"{"a":[1,2.5,-3.25,"x\n\"y\"",true,null],"b":{"c":[]},"d":1e-3}"#;
        let v = Json::parse(text).unwrap();
        let again = Json::parse(&v.render()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn parser_rejects_garbage_without_panicking() {
        for bad_text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"\\q\"",
            "{\"a\":1}x",
            "01a",
            "--5",
            "\u{7f}",
            "[\"\\u00\"]",
        ] {
            assert!(Json::parse(bad_text).is_err(), "{bad_text:?} parsed");
        }
        // Nesting bomb: rejected at MAX_DEPTH, not a stack overflow.
        let deep = "[".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn response_json_round_trip_is_exact() {
        let (g, _) = rtr_graph::toy::fig2_toy();
        let cfg = ServeConfig::default().with_topk(TopKConfig::toy());
        let requests = crate::codec::tests_support::sample_requests();
        for response in run_serial_requests(&g, &cfg, &requests) {
            let text = response_to_json(&response);
            let back = response_from_json(&text).unwrap();
            assert_eq!(back.request, response.request);
            let (b, r) = (back.result.unwrap(), response.result.unwrap());
            assert_eq!(b.ranking, r.ranking);
            assert_eq!(b.bounds, r.bounds, "f64 bounds survive JSON bit for bit");
            assert_eq!(back.queue_wait, response.queue_wait);
        }
        let full = QueryRequest::node(NodeId(0)).with_k(g.node_count());
        let refused = run_serial_requests(&g, &cfg, &[full]).remove(0);
        let back = response_from_json(&response_to_json(&refused)).unwrap();
        assert!(matches!(back.result, Err(ServeError::Refused(_))));
        assert_eq!(back.result.unwrap_err(), refused.result.unwrap_err());
    }

    #[test]
    fn weights_survive_json_exactly() {
        // 1/3 has no finite decimal expansion; shortest-round-trip
        // printing must still reproduce the bits of the resolved query.
        let (g, _) = rtr_graph::toy::fig2_toy();
        let cfg = ServeConfig::default().with_topk(TopKConfig::toy());
        let request = QueryRequest::new(Query::uniform(&[NodeId(0), NodeId(1), NodeId(2)]));
        let response = run_serial_requests(&g, &cfg, &[request]).remove(0);
        let back = response_from_json(&response_to_json(&response)).unwrap();
        assert_eq!(
            back.request.query.weights(),
            response.request.query.weights()
        );
    }
}
