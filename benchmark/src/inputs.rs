//! Everything a workload feeds the system, derived from `--seed` alone:
//! the graph, the query pool, the request-identity table and the request
//! stream. The crates under test only ever see these generated inputs.

use rand::prelude::*;
use rand::SplitMix64;
use rand_chacha::ChaCha8Rng;
use rtr_datagen::{QLog, QLogConfig, Zipf};
use rtr_graph::{Graph, NodeId};
use rtr_serve::{Measure, QueryRequest};
use std::borrow::Cow;

/// Independent sub-seed for one purpose (`tag`) of one run (`seed`).
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

const TAG_GRAPH: u64 = 1;
const TAG_POOL: u64 = 2;
const TAG_STREAM: u64 = 3;

/// The two graph sizes the workloads run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// ≈1.05 M nodes / 5.5 M edges: out of L2/L3, so adjacency reads miss.
    Qlog1m,
    /// ≈26 k nodes / 142 k edges: small enough that the exact O(|E|)
    /// engines and an exact oracle are affordable per request.
    Qlog26k,
}

impl Tier {
    pub fn name(self) -> &'static str {
        match self {
            Tier::Qlog1m => "qlog-1m",
            Tier::Qlog26k => "qlog-26k",
        }
    }

    pub fn config(self) -> QLogConfig {
        match self {
            Tier::Qlog1m => {
                let base = QLogConfig::full_scale();
                QLogConfig {
                    concepts: base.concepts * 4,
                    keywords: base.keywords * 4,
                    portal_urls: base.portal_urls * 4,
                    portal_attach_fraction: base.portal_attach_fraction / 4.0,
                    ..base
                }
            }
            Tier::Qlog26k => QLogConfig::subgraph_scale(),
        }
    }
}

/// A generated graph plus its shuffled query pool: phrase nodes that are
/// not dangling. A dangling query node makes the bound search run for
/// seconds and would silently become the benchmark.
pub struct Dataset {
    pub graph: Graph,
    pub pool: Vec<NodeId>,
}

pub fn dataset(tier: Tier, seed: u64) -> Dataset {
    let log = QLog::generate(&tier.config(), derive(seed, TAG_GRAPH));
    let mut pool: Vec<NodeId> = log
        .phrases
        .iter()
        .copied()
        .filter(|&v| !log.graph.is_dangling(v))
        .collect();
    pool.shuffle(&mut ChaCha8Rng::seed_from_u64(derive(seed, TAG_POOL)));
    Dataset {
        graph: log.graph,
        pool,
    }
}

/// Which request identities a workload draws and in what order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Request `i` is single-node RoundTripRank on `pool[i]`: every
    /// request is distinct, so nothing can be cached.
    UniformDistinct,
    /// `identities` single-node RoundTripRank requests drawn uniformly.
    HotPool { identities: usize },
    /// `identities` heterogeneous requests (see [`mixed_identity`]) drawn
    /// Zipf with exponent `s`.
    ZipfMixed { identities: usize, s: f64 },
}

/// One seeded request stream, addressable by position.
pub struct Stream {
    pool: Vec<NodeId>,
    /// Identity table and the (cyclic) order identities are drawn in;
    /// both empty for [`Mix::UniformDistinct`].
    table: Vec<QueryRequest>,
    order: Vec<u32>,
}

/// Length of the precomputed identity order; positions wrap around it.
const ORDER_LEN: usize = 1 << 18;

impl Stream {
    pub fn new(mix: Mix, pool: Vec<NodeId>, seed: u64) -> Stream {
        let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, TAG_STREAM));
        let (table, order) = match mix {
            Mix::UniformDistinct => (Vec::new(), Vec::new()),
            Mix::HotPool { identities } => {
                let table = pool[..identities]
                    .iter()
                    .map(|&v| QueryRequest::node(v))
                    .collect();
                let order = (0..ORDER_LEN)
                    .map(|_| rng.gen_range(0..identities) as u32)
                    .collect();
                (table, order)
            }
            Mix::ZipfMixed { identities, s } => {
                let table = (0..identities)
                    .map(|rank| mixed_identity(rank, &pool))
                    .collect();
                let zipf = Zipf::new(identities, s);
                let order = (0..ORDER_LEN)
                    .map(|_| zipf.sample(&mut rng) as u32)
                    .collect();
                (table, order)
            }
        };
        Stream { pool, table, order }
    }

    /// Identity index of the request at position `i`, when the stream
    /// draws from a table.
    pub fn identity(&self, i: usize) -> Option<usize> {
        (!self.order.is_empty()).then(|| self.order[i % self.order.len()] as usize)
    }

    /// The shuffled query pool the stream draws its nodes from.
    pub fn pool(&self) -> &[NodeId] {
        &self.pool
    }

    pub fn identities(&self) -> &[QueryRequest] {
        &self.table
    }

    /// The request at position `i`.
    pub fn request(&self, i: usize) -> Cow<'_, QueryRequest> {
        match self.identity(i) {
            Some(id) => Cow::Borrowed(&self.table[id]),
            None => Cow::Owned(QueryRequest::node(self.pool[i % self.pool.len()])),
        }
    }

    /// FNV-1a over the wire encoding of the first `n` requests: equal
    /// hashes mean equal streams.
    pub fn hash(&self, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut buf = bytes::BytesMut::new();
        for i in 0..n {
            buf.clear();
            rtr_net::encode_request(&self.request(i), &mut buf);
            for &b in buf.as_slice() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Specificity bias of the mixed workload's expensive RTR+ class. Below
/// 0.5 the bound search needs many more expansions: on qlog-26k β 0.45
/// costs ~10× β 0.7 in the mean. The cost is heavy-tailed over query
/// nodes, and more so the lower β goes (β 0.3: 0.3 ms to 1.1 s, mean
/// ~100× β 0.7); at 0.3 some fifty such misses carried 60 % of a run's
/// work and the run-to-run spread of every metric was the draw of those
/// fifty nodes, not the system.
pub const WHALE_BETA: f64 = 0.45;

/// Measure classes of the mixed workload, in a fixed 40-slot pattern so
/// every class's share of identities *at every popularity level* is the
/// same for every seed: 16 RTR, 8 RTR+ β 0.7, 2 RTR+ β [`WHALE_BETA`],
/// 7 F, 7 T. Sampling classes per identity instead would let one seed put
/// an expensive identity at rank 1 and another seed none in the top 100,
/// and the tail latency would measure the draw, not the system.
const CLASS_PATTERN: [u8; 40] = [
    0, 3, 0, 1, 4, 0, 3, 0, 1, 4, 0, 2, 0, 1, 3, 0, 4, 1, 0, 3, //
    0, 4, 1, 0, 3, 4, 0, 1, 0, 3, 2, 4, 0, 1, 0, 3, 4, 0, 1, 0,
];

/// The heterogeneous identity at popularity `rank`: measure class from
/// [`CLASS_PATTERN`], a second query node on every 20th identity (5 %),
/// k alternating between 10 and 5.
pub fn mixed_identity(rank: usize, pool: &[NodeId]) -> QueryRequest {
    let node = pool[rank];
    let request = if rank % 20 == 7 {
        QueryRequest::nodes(&[node, pool[pool.len() - 1 - rank]])
    } else {
        QueryRequest::node(node)
    };
    let request = match CLASS_PATTERN[rank % CLASS_PATTERN.len()] {
        0 => request,
        1 => request.with_measure(Measure::RtrPlus { beta: 0.7 }),
        2 => request.with_measure(Measure::RtrPlus { beta: WHALE_BETA }),
        3 => request.with_measure(Measure::F),
        _ => request.with_measure(Measure::T),
    };
    if rank % 2 == 1 {
        request.with_k(5)
    } else {
        request
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let p = pool(5000);
        for mix in [
            Mix::HotPool { identities: 256 },
            Mix::ZipfMixed {
                identities: 2048,
                s: 1.0,
            },
        ] {
            let a = Stream::new(mix, p.clone(), 7).hash(4000);
            assert_eq!(a, Stream::new(mix, p.clone(), 7).hash(4000));
            assert_ne!(a, Stream::new(mix, p.clone(), 8).hash(4000));
        }
    }

    #[test]
    fn same_seed_same_dataset_other_seed_other_dataset() {
        let small = |seed| {
            let log = QLog::generate(&QLogConfig::tiny(), derive(seed, TAG_GRAPH));
            (log.graph.node_count(), log.graph.edge_count())
        };
        assert_eq!(small(3), small(3));
        let d = |seed| {
            let ds = dataset(Tier::Qlog26k, seed);
            Stream::new(Mix::UniformDistinct, ds.pool, seed).hash(500)
        };
        assert_eq!(d(11), d(11));
        assert_ne!(d(11), d(12));
    }

    #[test]
    fn class_pattern_has_the_documented_shares() {
        let count = |c| CLASS_PATTERN.iter().filter(|&&x| x == c).count();
        assert_eq!(
            [count(0), count(1), count(2), count(3), count(4)],
            [16, 8, 2, 7, 7]
        );
    }

    #[test]
    fn no_query_node_is_dangling() {
        let ds = dataset(Tier::Qlog26k, 5);
        assert!(ds.pool.iter().all(|&v| !ds.graph.is_dangling(v)));
    }
}
