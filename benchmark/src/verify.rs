//! Answer checking. Two independent references:
//!
//! * the **serial reference** (`run_serial_requests`, local backend, no
//!   cache, one thread): kept responses must be bit-identical to it —
//!   ranking, bounds, expansions, active-set statistics — on any backend,
//!   cached or not, in process or over the wire;
//! * the **exact oracle** (F-Rank/T-Rank fixed-point iteration): the
//!   served bounds must bracket the exact scores and the ε-guarantee of
//!   2SBound must hold at the ε the benchmark asked for, so a change that
//!   loosens the approximation cannot pass as a speed-up. It costs O(|E|)
//!   per sweep, so it runs where that is affordable (see `run.rs`).

use crate::harness::serve_config;
use crate::inputs::Stream;
use crate::spec::Workload;
use rtr_core::prelude::{Query, RoundTripRank, RoundTripRankPlus};
use rtr_core::ScoreVec;
use rtr_graph::{Graph, NodeId};
use rtr_serve::{run_serial_requests, Measure, QueryRequest, QueryResponse};
use rtr_topk::TopKResult;
use std::collections::HashMap;

/// Bitwise equality of two top-K results.
pub fn same_result(a: &TopKResult, b: &TopKResult) -> bool {
    a.ranking == b.ranking
        && a.expansions == b.expansions
        && a.converged == b.converged
        && a.active == b.active
        && a.bounds.len() == b.bounds.len()
        && a.bounds
            .iter()
            .zip(&b.bounds)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// Run `requests` through the serial reference on two threads (the
/// requests are independent, so splitting them changes nothing but the
/// wall time).
fn serial_reference(w: &Workload, g: &Graph, requests: &[QueryRequest]) -> Vec<QueryResponse> {
    let config = serve_config(w, false);
    let (left, right) = requests.split_at(requests.len() / 2);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| run_serial_requests(g, &config, right));
        let mut out = run_serial_requests(g, &config, left);
        out.extend(other.join().expect("reference thread panicked"));
        out
    })
}

/// Compare every kept response with the serial reference; returns
/// `(checked, mismatched)`. Repeated identities are computed once.
pub fn against_serial(
    w: &Workload,
    g: &Graph,
    stream: &Stream,
    kept: &[(usize, QueryResponse)],
) -> (u64, u64) {
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    let mut requests: Vec<QueryRequest> = Vec::new();
    let slots: Vec<usize> = kept
        .iter()
        .map(|(pos, _)| {
            // A stream drawn from an identity table repeats requests:
            // key by identity there, by position otherwise.
            let key = stream.identity(*pos).unwrap_or(*pos);
            *slot_of.entry(key).or_insert_with(|| {
                requests.push(stream.request(*pos).into_owned());
                requests.len() - 1
            })
        })
        .collect();
    let reference = serial_reference(w, g, &requests);
    let mismatched = kept
        .iter()
        .zip(&slots)
        .filter(
            |((_, got), &slot)| match (&got.result, &reference[slot].result) {
                (Ok(a), Ok(b)) => !same_result(a, b),
                _ => true,
            },
        )
        .count();
    (kept.len() as u64, mismatched as u64)
}

/// What the exact oracle found over the rankings it checked.
#[derive(Debug, Default)]
pub struct Oracle {
    pub checked: u64,
    /// Rankings whose bounds do not bracket the exact scores or that
    /// break the ε-guarantee.
    pub violations: u64,
    /// Mean share of each served top-k that scores at least the exact
    /// k-th score.
    pub precision: f64,
}

const SCORE_TOL: f64 = 1e-9;

fn exact_scores(g: &Graph, response: &QueryResponse) -> Option<ScoreVec> {
    let r = &response.request;
    let &[q] = r.query.nodes() else { return None };
    let query = Query::single(q);
    match r.measure {
        Measure::Rtr => RoundTripRank::new(r.params).compute(g, &query).ok(),
        Measure::RtrPlus { beta } => RoundTripRankPlus::new(r.params, beta)
            .and_then(|m| m.compute(g, &query))
            .ok(),
        Measure::F | Measure::T => None,
    }
}

/// Bounds bracket the exact scores, no missed node beats the returned
/// k-th by more than ε, and no adjacent pair is swapped by more than ε
/// (the contract `tests/tests/topk_vs_exact.rs` pins on small graphs).
fn ranking_is_sound(g: &Graph, exact: &ScoreVec, result: &TopKResult, epsilon: f64) -> bool {
    let bracketed = result
        .ranking
        .iter()
        .zip(&result.bounds)
        .all(|(v, &(lo, hi))| {
            let s = exact.score(*v);
            s >= lo - SCORE_TOL && s <= hi + SCORE_TOL
        });
    let Some(&last) = result.ranking.last() else {
        return false;
    };
    let kth = exact.score(last);
    let none_missed = g
        .nodes()
        .all(|v| exact.score(v) <= kth + epsilon + SCORE_TOL || result.ranking.contains(&v));
    let ordered = result
        .ranking
        .windows(2)
        .all(|p| exact.score(p[0]) >= exact.score(p[1]) - epsilon - SCORE_TOL);
    bracketed && none_missed && ordered
}

fn precision_at_k(exact: &ScoreVec, ranking: &[NodeId]) -> f64 {
    let Some(&kth_node) = exact.top_k(ranking.len()).last() else {
        return 0.0;
    };
    let kth = exact.score(kth_node);
    let good = ranking
        .iter()
        .filter(|v| exact.score(**v) >= kth - 1e-12)
        .count();
    good as f64 / ranking.len() as f64
}

/// Check up to `limit` distinct single-node RTR / RTR+ responses of
/// `kept` against the exact engines, on two threads.
pub fn against_oracle(g: &Graph, kept: &[(usize, QueryResponse)], limit: usize) -> Oracle {
    let mut seen = std::collections::HashSet::new();
    let picked: Vec<&QueryResponse> = kept
        .iter()
        .map(|(_, r)| r)
        .filter(|r| {
            matches!(r.request.measure, Measure::Rtr | Measure::RtrPlus { .. })
                && r.request.query.len() == 1
                && r.result.is_ok()
                && seen.insert((r.request.query.nodes()[0], r.request.measure.cache_key()))
        })
        .take(limit)
        .collect();
    let check = |responses: &[&QueryResponse]| -> (u64, f64) {
        let mut violations = 0;
        let mut precision = 0.0;
        for r in responses {
            let result = r.result.as_ref().expect("filtered to Ok");
            match exact_scores(g, r) {
                Some(exact) => {
                    if !ranking_is_sound(g, &exact, result, r.request.topk.epsilon) {
                        violations += 1;
                    }
                    precision += precision_at_k(&exact, &result.ranking);
                }
                None => violations += 1,
            }
        }
        (violations, precision)
    };
    let (left, right) = picked.split_at(picked.len() / 2);
    let ((v1, p1), (v2, p2)) = std::thread::scope(|scope| {
        let other = scope.spawn(|| check(right));
        (check(left), other.join().expect("oracle thread panicked"))
    });
    Oracle {
        checked: picked.len() as u64,
        violations: v1 + v2,
        precision: if picked.is_empty() {
            0.0
        } else {
            (p1 + p2) / picked.len() as f64
        },
    }
}
