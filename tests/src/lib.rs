//! Integration-test helper crate: the actual tests live in `tests/tests/`.
//! This library only hosts shared fixtures and the one definition of "the
//! same answer" every determinism suite compares by.

use rtr_serve::QueryResponse;
use rtr_topk::TopKResult;

/// A fixed master seed for all integration tests.
pub const SEED: u64 = 20130408; // ICDE 2013, Brisbane: April 8

/// One single-node RoundTripRank request per query node, under the engine
/// defaults.
pub fn node_requests(queries: &[rtr_graph::NodeId]) -> Vec<rtr_serve::QueryRequest> {
    queries
        .iter()
        .map(|&q| rtr_serve::QueryRequest::node(q))
        .collect()
}

/// Assert two top-K answers are the same bit for bit: ranking, `f64`
/// bounds (exact equality, deliberately no epsilon), expansion rounds,
/// convergence and active set. `work` is left out: it says how the answer
/// was reached, is not part of it, and the wire does not carry it.
#[track_caller]
pub fn assert_same_result(label: &str, got: &TopKResult, want: &TopKResult) {
    assert_eq!(got.ranking, want.ranking, "{label}: ranking");
    assert_eq!(got.bounds, want.bounds, "{label}: bounds");
    assert_eq!(got.expansions, want.expansions, "{label}: expansions");
    assert_eq!(got.converged, want.converged, "{label}: convergence");
    assert_eq!(got.active, want.active, "{label}: active set");
}

/// Assert a served response is the same answer as a reference one: the
/// same resolved request, then the same result ([`assert_same_result`]) or
/// the same typed error. Transport-local fields — batch id, timing,
/// worker, cache and backend provenance — are not part of the answer.
#[track_caller]
pub fn assert_same_answer(label: &str, got: &QueryResponse, want: &QueryResponse) {
    assert_eq!(got.request, want.request, "{label}: resolved request");
    match (&got.result, &want.result) {
        (Ok(g), Ok(w)) => assert_same_result(label, g, w),
        (Err(g), Err(w)) => assert_eq!(g, w, "{label}: error"),
        (g, w) => panic!("{label}: outcome mismatch: {g:?} vs {w:?}"),
    }
}
