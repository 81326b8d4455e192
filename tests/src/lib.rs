//! Integration-test helper crate: the actual tests live in `tests/tests/`.
//! This library only hosts shared fixtures.

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
