//! The engines' prefetch hints are inert and aimed: over 2SBound runs of
//! every measure on random graphs, a forwarding adjacency source that logs
//! the hints it receives and the nodes it is read for must yield answers
//! bit-identical to the plain `&Graph`, and every hinted node must be read
//! after its hint. A hint that drifted onto nodes nobody reads would only
//! cost cache space and bandwidth.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::{Measure, Query, RankParams};
use rtr_datagen::{BibNet, BibNetConfig, QLog, QLogConfig};
use rtr_graph::{AdjacencyAccess, AdjacencyError, Graph, GraphBuilder, NodeId};
use rtr_integration_tests::SEED;
use rtr_topk::{TopKConfig, TopKResult, TopKWorkspace, TwoSBound};
use std::cell::RefCell;
use std::collections::HashSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Prefetch(u32),
    PrefetchIndex(u32),
    Read(u32),
}

/// `&Graph` with every hint and every per-node read logged in order.
struct Logged<'g> {
    g: &'g Graph,
    log: RefCell<Vec<Event>>,
}

impl Logged<'_> {
    fn read(&self, v: NodeId) {
        self.log.borrow_mut().push(Event::Read(v.0));
    }
}

impl AdjacencyAccess for Logged<'_> {
    type Edges<'a>
        = <&'a Graph as AdjacencyAccess>::Edges<'a>
    where
        Self: 'a;

    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn has_self_loops(&self) -> bool {
        self.g.has_self_loops()
    }

    fn out_degree(&self, v: NodeId) -> usize {
        self.read(v);
        self.g.out_degree(v)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        self.read(v);
        self.g.in_degree(v)
    }

    fn node_footprint_bytes(&self, v: NodeId) -> usize {
        self.read(v);
        self.g.node_footprint_bytes(v)
    }

    fn out_edges(&self, v: NodeId) -> Self::Edges<'_> {
        self.read(v);
        self.g.out_edges(v)
    }

    fn in_edges(&self, v: NodeId) -> Self::Edges<'_> {
        self.read(v);
        self.g.in_edges(v)
    }

    fn ensure(&mut self, _ids: &[u32]) -> Result<(), AdjacencyError> {
        Ok(())
    }

    fn prefetch(&self, v: NodeId) {
        self.log.borrow_mut().push(Event::Prefetch(v.0));
        AdjacencyAccess::prefetch(&self.g, v);
    }

    fn prefetch_index(&self, v: NodeId) {
        self.log.borrow_mut().push(Event::PrefetchIndex(v.0));
        AdjacencyAccess::prefetch_index(&self.g, v);
    }
}

/// A query log, a bibliographic network or a hand-built graph with
/// dangling nodes and self-loops.
fn random_graph(kind: u64, seed: u64) -> Graph {
    match kind % 3 {
        0 => QLog::generate(&QLogConfig::tiny(), seed).graph,
        1 => BibNet::generate(&BibNetConfig::tiny(), seed).graph,
        _ => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            let ty = b.register_type("n");
            let n = rng.gen_range(30..200usize);
            let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(ty)).collect();
            for &v in &nodes {
                for _ in 0..rng.gen_range(0..8usize) {
                    b.add_edge(
                        v,
                        nodes[rng.gen_range(0..n)],
                        rng.gen_range(1..4usize) as f64,
                    );
                }
            }
            b.build()
        }
    }
}

/// Everything a caller can observe of an answer, floats as bits.
fn observable(r: &TopKResult) -> impl PartialEq + std::fmt::Debug {
    let bits: Vec<_> = r
        .bounds
        .iter()
        .map(|&(l, u)| (l.to_bits(), u.to_bits()))
        .collect();
    (
        r.ranking.clone(),
        bits,
        r.expansions,
        r.converged,
        r.active,
        r.work,
    )
}

#[test]
fn hints_leave_answers_bit_identical_and_precede_a_read_of_their_node() {
    let measures = [
        Measure::Rtr,
        Measure::RtrPlus { beta: 0.45 },
        Measure::F,
        Measure::T,
    ];
    let mut hints = [0usize; 2];
    for case in 0..12u64 {
        let g = random_graph(case, SEED + case);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ case);
        // A T batch wider than the block distance, so the border walk
        // issues hints too.
        let m_t = if case % 2 == 0 { 5 } else { 12 };
        let config = TopKConfig {
            k: 5,
            m_t,
            ..TopKConfig::default()
        };
        for &measure in &measures {
            let engine = TwoSBound::for_measure(RankParams::default(), config, measure).unwrap();
            let q = Query::single(NodeId(rng.gen_range(0..g.node_count()) as u32));
            let want = engine
                .run_query_with(&g, &q, &mut TopKWorkspace::default())
                .unwrap();
            let mut logged = Logged {
                g: &g,
                log: RefCell::new(Vec::new()),
            };
            let got = engine
                .run_query_on(&mut logged, &q, &mut TopKWorkspace::default())
                .unwrap();
            assert_eq!(
                observable(&got),
                observable(&want),
                "{measure:?} case {case}"
            );

            // Backwards: a hint is aimed if its node is read after it.
            let mut read_later = HashSet::new();
            for event in logged.log.into_inner().into_iter().rev() {
                match event {
                    Event::Read(v) => {
                        read_later.insert(v);
                    }
                    Event::Prefetch(v) | Event::PrefetchIndex(v) => {
                        hints[matches!(event, Event::PrefetchIndex(_)) as usize] += 1;
                        assert!(
                            read_later.contains(&v),
                            "{event:?} is never followed by a read ({measure:?}, case {case})"
                        );
                    }
                }
            }
        }
    }
    assert!(hints.iter().all(|&n| n > 0), "hints issued: {hints:?}");
}
