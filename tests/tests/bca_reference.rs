//! BCA against a map-based reference implementation, bit for bit.
//!
//! The production BCA keeps `µ` as a dense array under a frontier bitset
//! and enumerates the frontier from the set bits. The reference below is
//! the straightforward form it replaced: `BTreeMap` residuals, the
//! frontier collected and sorted before every batch, the top-m benefits
//! selected with node-id ties and processed in ascending id order. After
//! every batch both must agree exactly — `ρ` and `µ` of every node, the
//! total residual, the processing count, Prop. 4's unseen bound, the
//! nodes processed and the id list announced to `ensure` — on random
//! graphs with dangling nodes and self-loops, on the in-memory graph and
//! on the distributed active graph.

use proptest::collection;
use proptest::prelude::*;
use rtr_core::bca::Bca;
use rtr_core::{BcaWorkspace, RankParams};
use rtr_distributed::{ActiveGraph, BlockCache, GpCluster, ReplySlot};
use rtr_graph::{AdjacencyAccess, AdjacencyError, FetchHint, Graph, GraphBuilder, NodeId};
use std::collections::BTreeMap;

/// The map-based BCA: one unit of residual at the query; a batch picks
/// the `m` largest benefits `µ(v)/|Out(v)|` from the sorted frontier and
/// processes them in ascending id order.
struct Reference {
    alpha: f64,
    loops: bool,
    rho: BTreeMap<u32, f64>,
    mu: BTreeMap<u32, f64>,
    total_residual: f64,
    processed: usize,
}

/// What one reference batch did: the frontier it announced and the nodes
/// it processed.
struct Batch {
    frontier: Vec<u32>,
    processed: Vec<u32>,
}

impl Reference {
    fn new(g: &Graph, q: NodeId, alpha: f64) -> Self {
        Reference {
            alpha,
            loops: g.has_self_loops(),
            rho: BTreeMap::new(),
            mu: BTreeMap::from([(q.0, 1.0)]),
            total_residual: 1.0,
            processed: 0,
        }
    }

    fn batch(&mut self, g: &Graph, m: usize) -> Option<Batch> {
        if m == 0 || self.mu.is_empty() {
            return None;
        }
        let mut frontier: Vec<u32> = self
            .mu
            .iter()
            .filter(|&(_, &r)| r > 0.0)
            .map(|(&v, _)| v)
            .collect();
        if frontier.is_empty() {
            return None;
        }
        frontier.sort_unstable();
        let mut candidates: Vec<(u32, f64)> = frontier
            .iter()
            .map(|&v| (v, self.mu[&v] / g.out_degree(NodeId(v)).max(1) as f64))
            .collect();
        let take = m.min(candidates.len());
        if take < candidates.len() {
            candidates.select_nth_unstable_by(take - 1, |a, b| {
                b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0))
            });
            candidates.truncate(take);
            candidates.sort_unstable_by_key(|&(v, _)| v);
        }
        for &(v, _) in &candidates {
            self.process(g, v);
        }
        Some(Batch {
            frontier,
            processed: candidates.iter().map(|&(v, _)| v).collect(),
        })
    }

    fn process(&mut self, g: &Graph, v: u32) {
        let Some(residual) = self.mu.remove(&v) else {
            return;
        };
        if residual <= 0.0 {
            return;
        }
        self.processed += 1;
        *self.rho.entry(v).or_insert(0.0) += self.alpha * residual;
        let spread = (1.0 - self.alpha) * residual;
        let mut spread_out = 0.0;
        for (dst, prob) in g.out_edges(NodeId(v)) {
            let amt = spread * prob;
            *self.mu.entry(dst.0).or_insert(0.0) += amt;
            spread_out += amt;
        }
        self.total_residual -= residual - spread_out;
    }

    fn total_residual(&self) -> f64 {
        self.total_residual.max(0.0)
    }

    fn unseen_upper_bound(&self) -> f64 {
        if self.loops {
            return self.total_residual();
        }
        let a = self.alpha;
        let max = self.mu.values().copied().fold(0.0, f64::max);
        a / (2.0 - a) * max + (1.0 - a) / (2.0 - a) * self.total_residual()
    }
}

/// An adjacency source that records every id list announced to `ensure`.
struct Recording<A> {
    inner: A,
    ensured: Vec<Vec<u32>>,
}

impl<A: AdjacencyAccess> AdjacencyAccess for Recording<A> {
    type Edges<'a>
        = A::Edges<'a>
    where
        Self: 'a;

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn has_self_loops(&self) -> bool {
        self.inner.has_self_loops()
    }

    fn out_degree(&self, v: NodeId) -> usize {
        self.inner.out_degree(v)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        self.inner.in_degree(v)
    }

    fn node_footprint_bytes(&self, v: NodeId) -> usize {
        self.inner.node_footprint_bytes(v)
    }

    fn out_edges(&self, v: NodeId) -> Self::Edges<'_> {
        self.inner.out_edges(v)
    }

    fn in_edges(&self, v: NodeId) -> Self::Edges<'_> {
        self.inner.in_edges(v)
    }

    fn ensure(&mut self, ids: &[u32], hint: FetchHint) -> Result<(), AdjacencyError> {
        assert_eq!(hint, FetchHint::OutFrontier);
        self.ensured.push(ids.to_vec());
        self.inner.ensure(ids, hint)
    }
}

/// Strategy: a random weighted graph of 1–40 nodes with self-loops (when
/// `loops` is 1) and dangling nodes: a node whose id mod 3 is below `dead`
/// has no out-edges (none, a third or two thirds of the nodes), and
/// neither has any node no drawn edge happens to leave. Weights come from
/// {1, 2, 3}, so equal benefits — the id tie-break — are common.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1..40usize,
        collection::vec((0..1000u32, 0..1000u32, 1..4u32), 0..120),
        0..2u8,
        0..3usize,
    )
        .prop_map(|(n, edges, loops, dead)| {
            let mut b = GraphBuilder::new();
            let ty = b.register_type("n");
            let nodes: Vec<_> = (0..n).map(|_| b.add_node(ty)).collect();
            for (s, d, w) in edges {
                let (s, d) = (s as usize % n, d as usize % n);
                if (s == d && loops == 0) || s % 3 < dead {
                    continue;
                }
                b.add_edge(nodes[s], nodes[d], w as f64);
            }
            b.build()
        })
}

/// Run the BCA on `a` next to the reference for up to `BATCHES` batches
/// of `m`, comparing everything after each; returns the workspace.
fn check_against_reference<A: AdjacencyAccess>(
    g: &Graph,
    a: A,
    q: NodeId,
    m: usize,
    ws: BcaWorkspace,
) -> Result<BcaWorkspace, TestCaseError> {
    const BATCHES: usize = 30;
    let params = RankParams::default();
    let mut a = Recording {
        inner: a,
        ensured: Vec::new(),
    };
    let mut bca = Bca::with_workspace(&a, q, &params, ws).expect("valid query");
    let mut reference = Reference::new(g, q, params.alpha);
    for batch in 0..BATCHES {
        let what = format!("q {q:?} m {m} batch {batch}");
        let want = reference.batch(g, m);
        let announced = a.ensured.len();
        let picked: Vec<u32> = bca
            .process_batch(&mut a, m)
            .expect("healthy source")
            .iter()
            .map(|v| v.0)
            .collect();
        match &want {
            None => {
                prop_assert!(picked.is_empty(), "{what}: processed {picked:?}");
                prop_assert_eq!(a.ensured.len(), announced);
            }
            Some(want) => {
                prop_assert_eq!(&picked, &want.processed);
                prop_assert_eq!(a.ensured.len(), announced + 1);
                prop_assert_eq!(&a.ensured[announced], &want.frontier);
            }
        }
        for v in 0..g.node_count() as u32 {
            let (rho, mu) = (bca.rho(NodeId(v)), bca.mu(NodeId(v)));
            let want_rho = reference.rho.get(&v).copied().unwrap_or(0.0);
            let want_mu = reference.mu.get(&v).copied().unwrap_or(0.0);
            prop_assert!(
                rho.to_bits() == want_rho.to_bits() && mu.to_bits() == want_mu.to_bits(),
                "{what}: node {v} ρ {rho} µ {mu}, reference ρ {want_rho} µ {want_mu}"
            );
        }
        prop_assert_eq!(bca.seen_count(), reference.rho.len());
        prop_assert_eq!(
            bca.total_residual().to_bits(),
            reference.total_residual().to_bits()
        );
        prop_assert_eq!(bca.processed_count(), reference.processed);
        prop_assert_eq!(
            bca.unseen_upper_bound().to_bits(),
            reference.unseen_upper_bound().to_bits()
        );
        if want.is_none() {
            break;
        }
    }
    Ok(bca.into_workspace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_bca_matches_the_map_reference_bit_for_bit(
        g in arb_graph(),
        pick in 0..1000usize,
        warm in 0..80usize,
        gps in 1..4usize,
    ) {
        let q = NodeId((pick % g.node_count()) as u32);
        // One workspace threads through every run, pre-sized below or
        // above the graph, so the runs also check its reset.
        let mut ws = BcaWorkspace::with_capacity(warm);
        let cluster = GpCluster::spawn(&g, gps);
        for m in [1, 2, 7, g.node_count() + 1] {
            ws = check_against_reference(&g, &g, q, m, ws)?;
            let (mut cache, mut slot) = (BlockCache::new(), ReplySlot::new());
            let active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            ws = check_against_reference(&g, active, q, m, ws)?;
        }
    }
}
