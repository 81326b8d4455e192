//! The AP-side active graph: the incrementally assembled active set.
//!
//! "AP queries the graph processors over a network, which are responsible
//! for identifying and sending back the new active nodes and edges.
//! Subsequently, AP incrementally assembles the active set from the
//! responses" (paper Sect. V-B2).
//!
//! [`ActiveGraph`] is the AP's only view of the graph, and it implements
//! [`AdjacencyAccess`] — the same trait the in-memory [`rtr_graph::Graph`]
//! implements — so the *local* bound engines run against it unchanged.
//! Adjacency is available only for nodes whose blocks this query received;
//! the engines announce the nodes whose edges they are about to read
//! through [`AdjacencyAccess::ensure`], which demand-fetches the missing
//! blocks in one batched round and nothing more. The one read that needs
//! no block is the out-degree: the [`GpCluster`] carries every node's
//! (4 B per node), so BCA ranks its whole residual frontier by benefit
//! `µ(q,v)/|Out(v)|` without fetching it, and ensures only the nodes it
//! then processes. What a query fetches is therefore exactly its active set
//! `S_f ∪ S_t`.
//!
//! **One query's blocks** ([`BlockCache`]): the worker's block store holds
//! the blocks of the query it is running and nothing else. Binding an
//! [`ActiveGraph`] clears it, so every query pays exactly its own active
//! set on the wire, and what a worker keeps between queries is at most
//! the last query's blocks.
//!
//! **Blocks stay bytes.** A received block is the [`rtr_graph::wire`]
//! encoding the GP sent, appended to a byte arena; a sparse node-id →
//! offset map finds it, and `out_edges` / `in_edges` / `in_degree` /
//! footprints read it in place through [`wire::BlockView`]. Nothing is
//! decoded into an owned form, hashed, or allocated per block. Each reply
//! is taken in by one length-validated walk that indexes whole blocks
//! only, and only those of ids the query asked for and has not received
//! yet, so a truncated, repeated or hostile payload can neither panic the
//! AP, make it read past what arrived, nor inflate its counts.
//!
//! Every fetch is metered (rounds, fetched blocks, payload bytes), and the
//! map's entries are the ids the query demanded, so the Fig. 12 active-set
//! measurements are exact: `active_nodes = blocks_fetched` always holds.

use crate::gp::{GpCluster, ReplySlot};
use rtr_graph::wire::{self, BlockView};
use rtr_graph::{AdjacencyAccess, AdjacencyError, NodeId, SparseMap};
use rtr_obs::{Counter, QueryTrace, TraceStage};
use std::sync::Arc;

/// Counters a caller may arm on a [`BlockCache`]. No block outlives its
/// query, so nothing is ever evicted or invalidated and both stay at 0;
/// the type is kept so callers that arm them still build.
#[derive(Clone, Debug, Default)]
pub struct BlockCacheMetrics {
    /// Always 0: no block outlives its query, so none is evicted.
    pub evictions: Arc<Counter>,
    /// Always 0: no block outlives its query, so none goes stale.
    pub invalidations: Arc<Counter>,
}

/// Offset of a block this query demanded that has not arrived yet.
const PENDING: u64 = u64::MAX;

/// The blocks of one query, for one AP-side worker.
///
/// Lives in the worker's `DistributedWorkspace` and is handed to each
/// query's [`ActiveGraph`], which clears it when it binds. The arena and
/// the map keep their capacity, so once they have grown to the largest
/// query's size, serving allocates nothing.
#[derive(Debug, Default)]
pub struct BlockCache {
    /// The whole blocks of this query's replies, as the GPs sent them.
    arena: Vec<u8>,
    /// Node id → offset of its block in `arena`, for every id this query
    /// demanded ([`PENDING`] until the block arrives).
    index: SparseMap<u64>,
    /// Blocks received this query: the map's entries that are not pending.
    blocks: usize,
    /// Scratch: the fetch list under assembly.
    fetch_ids: Vec<NodeId>,
}

impl BlockCache {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts counters and records nothing into them (see
    /// [`BlockCacheMetrics`]).
    pub fn set_metrics(&mut self, _metrics: BlockCacheMetrics) {}

    /// Blocks held: those the current (or last) query received.
    pub fn len(&self) -> usize {
        self.blocks
    }

    /// Whether no block is held.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Bytes the arena holds: the current (or last) query's reply payloads,
    /// cut to their whole blocks.
    pub fn resident_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Drop every block and admit node ids `0..node_count`. O(touched).
    fn reset(&mut self, node_count: usize) {
        self.arena.clear();
        self.index.clear();
        self.index.ensure_capacity(node_count);
        self.blocks = 0;
    }

    /// The block of `id`, if it has arrived.
    fn block(&self, id: u32) -> Option<BlockView<'_>> {
        match self.index.get(id)? {
            PENDING => None,
            at => BlockView::parse(self.arena.get(at as usize..)?),
        }
    }

    /// Take one reply payload in: append its whole blocks to the arena and
    /// index those of pending ids. One total walk — a truncated tail is
    /// left out, and a block nobody asked for (an id not demanded, one
    /// the graph does not have, or a repeat of a block already here) is
    /// carried but never indexed or counted. Returns how many blocks were
    /// indexed and their edge count.
    fn absorb(&mut self, payload: &[u8]) -> (usize, usize) {
        let base = self.arena.len() as u64;
        let (mut blocks, mut edges, mut whole) = (0, 0, 0);
        for (at, block) in wire::blocks(payload) {
            whole = at + block.encoded_len();
            match self.index.get_mut(block.node().0) {
                Some(offset) if *offset == PENDING => {
                    *offset = base + at as u64;
                    blocks += 1;
                    edges += block.out_degree() + block.in_degree();
                }
                _ => {} // not asked for, or already here
            }
        }
        self.arena.extend_from_slice(&payload[..whole]);
        self.blocks += blocks;
        (blocks, edges)
    }
}

/// One query's view of the striped graph: the worker's [`BlockCache`] bound
/// to a [`GpCluster`], with per-query fetch meters. Implements
/// [`AdjacencyAccess`], so `rtr_topk`'s engines run on it directly.
pub struct ActiveGraph<'a> {
    cluster: &'a GpCluster,
    cache: &'a mut BlockCache,
    slot: &'a mut ReplySlot,
    trace: Option<&'a mut QueryTrace>,
    node_count: usize,
    fetch_requests: usize,
    bytes_transferred: usize,
    touched_edges: usize,
}

impl<'a> ActiveGraph<'a> {
    /// Bind `cache` (and the reusable reply `slot`) to `cluster` for one
    /// query. Clears the cache first: the query starts with no block.
    pub fn new(cluster: &'a GpCluster, cache: &'a mut BlockCache, slot: &'a mut ReplySlot) -> Self {
        Self::with_trace(cluster, cache, slot, None)
    }

    /// Like [`ActiveGraph::new`], additionally stamping a
    /// [`TraceStage::FetchRound`] event into `trace` for every wire round
    /// this query issues.
    pub fn with_trace(
        cluster: &'a GpCluster,
        cache: &'a mut BlockCache,
        slot: &'a mut ReplySlot,
        trace: Option<&'a mut QueryTrace>,
    ) -> Self {
        cache.reset(cluster.node_count());
        ActiveGraph {
            node_count: cluster.node_count(),
            cluster,
            cache,
            slot,
            trace,
            fetch_requests: 0,
            bytes_transferred: 0,
            touched_edges: 0,
        }
    }

    /// The block for `v`, if this query received it.
    pub fn block(&self, v: NodeId) -> Option<BlockView<'_>> {
        self.cache.block(v.0)
    }

    fn resident_block(&self, v: NodeId) -> BlockView<'_> {
        self.cache
            .block(v.0)
            .unwrap_or_else(|| panic!("node {v:?} not in active set"))
    }

    /// Whether this query received `v`'s block.
    pub fn is_resident(&self, v: NodeId) -> bool {
        self.cache.block(v.0).is_some()
    }

    /// Fetch requests (batched wire rounds) issued this query.
    pub fn fetch_requests(&self) -> usize {
        self.fetch_requests
    }

    /// Demanded blocks received over the wire this query.
    pub fn blocks_fetched(&self) -> usize {
        self.cache.blocks
    }

    /// Payload bytes received over the wire this query.
    pub fn bytes_transferred(&self) -> usize {
        self.bytes_transferred
    }

    /// Nodes this query touched (demanded), the paper's active-set size —
    /// equal to `blocks_fetched()` once every fetch has been answered.
    pub fn touched_nodes(&self) -> usize {
        self.cache.index.len()
    }

    /// Directed edges (both stored directions) of the touched nodes,
    /// accumulated as each block arrived.
    pub fn touched_edges(&self) -> usize {
        self.touched_edges
    }

    /// Wire-encoding bytes of the touched nodes' blocks (the paper's MB
    /// numbers for the active set): one edge-less block per touched node
    /// plus the edges.
    pub fn touched_bytes(&self) -> usize {
        self.cache.blocks * wire::encoded_len(0, 0) + self.touched_edges * wire::EDGE_BYTES
    }
}

impl AdjacencyAccess for ActiveGraph<'_> {
    type Edges<'b>
        = wire::Edges<'b>
    where
        Self: 'b;

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn has_self_loops(&self) -> bool {
        self.cluster.has_self_loops()
    }

    /// From the cluster's degree table: no block needed.
    fn out_degree(&self, v: NodeId) -> usize {
        self.cluster.out_degree(v)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        self.resident_block(v).in_degree()
    }

    fn node_footprint_bytes(&self, v: NodeId) -> usize {
        self.resident_block(v).footprint_bytes()
    }

    fn out_edges(&self, v: NodeId) -> Self::Edges<'_> {
        self.resident_block(v).out_edges()
    }

    fn in_edges(&self, v: NodeId) -> Self::Edges<'_> {
        self.resident_block(v).in_edges()
    }

    /// Make `ids` resident: each id this query has not demanded before
    /// goes into one batched wire round; an id it has demanded costs
    /// nothing.
    fn ensure(&mut self, ids: &[u32]) -> Result<(), AdjacencyError> {
        let cache = &mut *self.cache;
        cache.fetch_ids.clear();
        for &id in ids {
            if cache.index.insert_if_vacant(id, PENDING) {
                cache.fetch_ids.push(NodeId(id));
            }
        }
        if cache.fetch_ids.is_empty() {
            return Ok(());
        }
        self.fetch_requests += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(TraceStage::FetchRound);
        }
        for payload in self.cluster.fetch(&cache.fetch_ids, self.slot)? {
            self.bytes_transferred += payload.len();
            self.touched_edges += cache.absorb(payload).1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    fn harness() -> (rtr_graph::Graph, rtr_graph::toy::Fig2Ids, GpCluster) {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        (g, ids, cluster)
    }

    #[test]
    fn demand_paging_fetches_once() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        active.ensure(&[ids.t1.0]).unwrap();
        assert_eq!(active.fetch_requests(), 1);
        assert_eq!(active.blocks_fetched(), 1);
        // Second ensure is free: already touched.
        active.ensure(&[ids.t1.0]).unwrap();
        assert_eq!(active.fetch_requests(), 1);
        assert!(active.is_resident(ids.t1));
        assert_eq!(active.touched_nodes(), 1);
    }

    #[test]
    fn adjacency_matches_source_graph() {
        let (g, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        active.ensure(&[ids.v2.0]).unwrap();
        let expected: Vec<(NodeId, f64)> = g.out_edges(ids.v2).collect();
        let got: Vec<(NodeId, f64)> = active.out_edges(ids.v2).collect();
        assert_eq!(got, expected);
        assert_eq!(active.out_degree(ids.v2), 2);
        assert_eq!(
            active.node_footprint_bytes(ids.v2),
            g.node_footprint_bytes(ids.v2)
        );
    }

    #[test]
    #[should_panic(expected = "not in active set")]
    fn touching_unfetched_node_panics() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        let _ = active.out_edges(ids.t1);
    }

    #[test]
    fn prefetch_hints_keep_the_no_op_default() {
        let (g, _, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        let n = g.node_count() as u32;
        for v in (0..n + 2).chain([u32::MAX]).map(NodeId) {
            active.prefetch(v);
            active.prefetch_index(v);
        }
        assert_eq!(active.fetch_requests(), 0);
        assert_eq!(active.touched_nodes(), 0);
    }

    #[test]
    fn ensure_fetches_only_the_demanded_blocks() {
        let (g, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        active.ensure(&[ids.t1.0]).unwrap();
        assert_eq!(active.fetch_requests(), 1);
        assert_eq!(active.blocks_fetched(), 1);
        // No neighbor came along: the next round fetches what it demands.
        for (n, _) in g.out_edges(ids.t1).chain(g.in_edges(ids.t1)) {
            assert!(!active.is_resident(n), "{n:?}");
        }
        assert_eq!(active.touched_nodes(), 1);
        assert_eq!(
            active.bytes_transferred(),
            wire::encoded_len(g.out_degree(ids.t1), g.in_degree(ids.t1))
        );
    }

    #[test]
    fn out_degree_of_every_node_needs_no_fetch() {
        let (g, _, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        for v in g.nodes() {
            assert_eq!(active.out_degree(v), g.out_degree(v), "{v:?}");
        }
        assert_eq!(active.fetch_requests(), 0);
        assert_eq!(active.touched_nodes(), 0);
    }

    #[test]
    fn block_budget_clears_between_queries() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let metrics = BlockCacheMetrics::default();
        cache.set_metrics(metrics.clone());
        let mut slot = ReplySlot::new();
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&[ids.t1.0, ids.v1.0]).unwrap();
        }
        assert_eq!(cache.len(), 2); // kept until the next query binds
        let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        assert!(!active.is_resident(ids.t1));
        assert_eq!(active.touched_nodes(), 0);
        active.ensure(&[ids.t1.0]).unwrap();
        assert_eq!(active.blocks_fetched(), 1, "a repeat is fetched again");
        assert_eq!(active.cache.len(), 1);
        assert_eq!(
            active.cache.resident_bytes(),
            active.bytes_transferred(),
            "the arena holds this query's replies only"
        );
        // The counters a caller may arm have nothing to count.
        assert_eq!(metrics.evictions.get() + metrics.invalidations.get(), 0);
    }

    #[test]
    fn trace_stamps_one_fetch_round_event_per_wire_round() {
        use rtr_obs::QueryTrace;
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let mut trace = QueryTrace::begin();
        let mut active = ActiveGraph::with_trace(&cluster, &mut cache, &mut slot, Some(&mut trace));
        active.ensure(&[ids.t1.0]).unwrap();
        let rounds = active.fetch_requests();
        assert!(rounds >= 1);
        assert_eq!(trace.count(TraceStage::FetchRound), rounds);
    }

    #[test]
    fn accounting_invariant_holds_warm_and_cold() {
        let (g, _, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let all: Vec<u32> = g.nodes().map(|v| v.0).collect();
        for _ in 0..2 {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&all[..4]).unwrap();
            active.ensure(&all).unwrap();
            assert_eq!(active.touched_nodes(), active.blocks_fetched());
            assert_eq!(active.touched_nodes(), all.len());
        }
    }

    /// The reply of a one-GP stripe to a request for every node: the whole
    /// graph as one payload, blocks in id order.
    fn whole_graph_payload(g: &rtr_graph::Graph) -> Vec<u8> {
        let stores = crate::Striping::new(1).partition(g);
        let all: Vec<NodeId> = g.nodes().collect();
        let mut payload = Vec::new();
        stores[0].append_blocks(&all, &mut payload);
        payload
    }

    /// A store bound to an `n`-node graph that has demanded `ids`.
    fn demanding(n: usize, ids: impl IntoIterator<Item = u32>) -> BlockCache {
        let mut cache = BlockCache::new();
        cache.reset(n);
        for id in ids {
            cache.index.insert(id, PENDING);
        }
        cache
    }

    #[test]
    fn absorbing_a_payload_cut_anywhere_indexes_exactly_its_whole_blocks() {
        let (g, _) = fig2_toy();
        let payload = whole_graph_payload(&g);
        // Where each node's block ends in the payload.
        let ends: Vec<usize> = wire::blocks(&payload)
            .map(|(at, b)| at + b.encoded_len())
            .collect();
        assert_eq!(ends.len(), g.node_count());
        for cut in 0..=payload.len() {
            let mut cache = demanding(g.node_count(), 0..g.node_count() as u32);
            let (blocks, edges) = cache.absorb(&payload[..cut]);
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(blocks, whole, "cut {cut}");
            assert_eq!(cache.len(), whole, "cut {cut}");
            // The arena holds the whole blocks and not one byte more.
            let kept = if whole == 0 { 0 } else { ends[whole - 1] };
            assert_eq!(cache.arena, &payload[..kept], "cut {cut}");
            let mut want_edges = 0;
            for v in g.nodes() {
                let here = cache.block(v.0);
                assert_eq!(here.is_some(), v.index() < whole, "cut {cut} {v:?}");
                if let Some(block) = here {
                    assert_eq!(block.to_block(), wire::NodeBlock::extract(&g, v));
                    want_edges += g.out_degree(v) + g.in_degree(v);
                }
            }
            assert_eq!(edges, want_edges, "cut {cut}");
        }
    }

    #[test]
    fn hostile_payloads_are_absorbed_without_panic_or_overread() {
        let (g, ids) = fig2_toy();
        let good = whole_graph_payload(&g);
        let n = g.node_count();
        let all = || 0..n as u32;

        // A header announcing 4 Gi out-edges: nothing is indexed or kept.
        let mut huge_out = Vec::new();
        huge_out.extend_from_slice(&ids.t1.0.to_le_bytes());
        huge_out.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_out.extend_from_slice(&[0xAB; 40]);
        let mut cache = demanding(n, all());
        assert_eq!(cache.absorb(&huge_out), (0, 0));
        assert!(cache.arena.is_empty());
        assert!(cache.block(ids.t1.0).is_none());

        // The same lie in the in-edge count, after a valid (empty) out list.
        let mut huge_in = Vec::new();
        huge_in.extend_from_slice(&ids.t1.0.to_le_bytes());
        huge_in.extend_from_slice(&0u32.to_le_bytes());
        huge_in.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_in.extend_from_slice(&[0xAB; 40]);
        assert_eq!(cache.absorb(&huge_in), (0, 0));
        assert!(cache.arena.is_empty());

        // A well-formed block for a node the graph does not have, between
        // two good blocks: carried along, never indexed, and the blocks
        // around it are unaffected.
        let first_end = wire::blocks(&good).nth(1).expect("two blocks").0;
        let mut stranger = good[..first_end].to_vec();
        stranger.extend_from_slice(&(n as u32 + 7).to_le_bytes());
        stranger.extend_from_slice(&[0; 8]);
        stranger.extend_from_slice(&good[first_end..]);
        let mut cache = demanding(n, all());
        let (blocks, _) = cache.absorb(&stranger);
        assert_eq!(blocks, n);
        assert_eq!(cache.len(), n);
        for v in g.nodes() {
            let block = cache.block(v.0).expect("indexed");
            assert_eq!(block.to_block(), wire::NodeBlock::extract(&g, v));
        }
        assert!(cache.block(n as u32 + 7).is_none());
        assert!(cache.block(u32::MAX).is_none());

        // Trailing garbage after good blocks is left out of the arena.
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0xFF; 29]);
        let mut cache = demanding(n, all());
        assert_eq!(cache.absorb(&trailing).0, n);
        assert_eq!(cache.arena, good);
    }

    #[test]
    fn a_repeated_or_unrequested_block_is_neither_indexed_nor_counted() {
        let (g, _) = fig2_toy();
        let good = whole_graph_payload(&g);
        let n = g.node_count();
        // Every block once, then the first block again.
        let first_end = wire::blocks(&good).nth(1).expect("two blocks").0;
        let mut repeated = good.clone();
        repeated.extend_from_slice(&good[..first_end]);
        // The query asked for the even ids only.
        let asked: Vec<u32> = (0..n as u32).step_by(2).collect();
        let mut cache = demanding(n, asked.iter().copied());
        let (blocks, edges) = cache.absorb(&repeated);
        assert_eq!(blocks, asked.len(), "one count per requested id");
        assert_eq!(cache.len(), asked.len());
        let asked_edges: usize = asked
            .iter()
            .map(|&v| g.out_degree(NodeId(v)) + g.in_degree(NodeId(v)))
            .sum();
        assert_eq!(edges, asked_edges);
        for v in g.nodes() {
            assert_eq!(cache.block(v.0).is_some(), v.0 % 2 == 0, "{v:?}");
        }
        // The first copy is the one indexed, and a later reply carrying a
        // block already here changes nothing.
        assert_eq!(cache.index.get(0), Some(0));
        assert_eq!(cache.absorb(&good), (0, 0));
        assert_eq!(cache.len(), asked.len());
        assert_eq!(cache.index.len(), asked.len(), "nothing unrequested joins");
    }

    #[test]
    fn zero_budget_is_cold_every_query() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        let mut costs = Vec::new();
        for _ in 0..3 {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            assert!(active.cache.is_empty());
            active.ensure(&[ids.t1.0]).unwrap();
            costs.push((active.fetch_requests(), active.bytes_transferred()));
        }
        assert!(costs[0].1 > 0);
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[1], costs[2]);
    }
}
