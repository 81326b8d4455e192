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
//! Adjacency is available only for nodes whose blocks are resident; the
//! engines announce the nodes whose edges they are about to read through
//! [`AdjacencyAccess::ensure`], which demand-fetches the missing blocks in
//! one batched round and nothing more. The one read that needs no block is
//! the out-degree: the [`GpCluster`] carries every node's (4 B per node),
//! so BCA ranks its whole residual frontier by benefit `µ(q,v)/|Out(v)|`
//! without fetching it, and ensures only the nodes it then processes. What
//! a query fetches is therefore exactly its active set `S_f ∪ S_t`.
//!
//! **Cross-query block cache** ([`BlockCache`]): resident blocks are keyed
//! by the source graph's epoch and *survive between queries*, so a worker
//! serving a warm region stops paying wire cost for it entirely. The cache
//! self-invalidates when it meets a cluster striped from a different (or
//! `bump_epoch`ed) graph.
//!
//! **Blocks stay bytes.** A resident block is the [`rtr_graph::wire`]
//! encoding the GP sent, appended to a byte arena; a dense node-id →
//! position index finds it, and `out_edges` / `in_edges` / `in_degree` /
//! footprints read it in place through [`wire::BlockView`]. Nothing is
//! decoded into an owned form, hashed, or allocated per block. Each reply
//! is taken in by one length-validated walk that indexes whole blocks
//! only, so a truncated or hostile payload can neither panic the AP nor
//! make it read past what arrived.
//!
//! **Two generations under a byte budget.** Replies append to the *young*
//! arena. The first touch in a query of a block still living in the *old*
//! arena copies it forward. Between queries, once the young arena has grown
//! past half the budget, the old arena is dropped (O(1): stale index entries
//! die by comparison against the arena's base position, nothing is walked)
//! and the young one takes its place. Blocks that keep being touched — the
//! hubs — therefore survive indefinitely, a block untouched for two
//! rotations is gone, and nothing a running query touched can disappear
//! under it, because rotation only happens at a query boundary.
//!
//! Every fetch is metered (rounds, fetched blocks, cache hits, payload
//! bytes), and the per-query *touched set* is tracked
//! separately from cache residency so the Fig. 12 active-set measurements
//! stay exact under caching: `active_nodes = blocks_fetched +
//! blocks_from_cache` always holds.

use crate::gp::{GpCluster, ReplySlot};
use rtr_graph::wire::{self, BlockView};
use rtr_graph::{AdjacencyAccess, AdjacencyError, NodeId, NodeSet};
use rtr_obs::{Counter, QueryTrace, TraceStage};
use std::sync::Arc;

/// Registry-backed counters a [`BlockCache`] publishes its lifecycle events
/// into, once armed via [`BlockCache::set_metrics`]. Each is a shared
/// [`rtr_obs::Counter`] handle (typically obtained from a
/// [`rtr_obs::Registry`] with a per-worker label), so recording is a single
/// relaxed atomic add and an unarmed cache costs one branch.
#[derive(Clone, Debug, Default)]
pub struct BlockCacheMetrics {
    /// Demanded blocks served from the warm cache (no wire traffic).
    pub hits: Arc<Counter>,
    /// Resident blocks dropped with their generation between queries: the
    /// ones no query copied forward before the arena holding them aged out
    /// of the byte budget.
    pub evictions: Arc<Counter>,
    /// Resident blocks dropped because the graph epoch changed (the
    /// blocks belonged to a different or re-stamped graph).
    pub invalidations: Arc<Counter>,
}

/// Default byte budget of cross-query block residency.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Cross-query resident-block storage for one AP-side worker.
///
/// Lives in the worker's `DistributedWorkspace` and is handed to each
/// query's [`ActiveGraph`]. Blocks persist until the graph epoch changes or
/// their generation ages out of the byte budget (checked between queries,
/// so a running query never loses a block it already touched). When a query
/// starts, the old generation holds at most the budget and the young one at
/// most half of it; on top of that comes only what the query itself adds.
#[derive(Debug)]
pub struct BlockCache {
    /// Epoch of the graph the resident blocks came from.
    epoch: u64,
    resident: Generations,
    /// Per-query touched set (ids this query `ensure`d), cleared per query.
    touched: NodeSet,
    /// Scratch: the fetch list under assembly.
    fetch_ids: Vec<NodeId>,
    budget_bytes: usize,
    /// Optional registry-backed lifecycle counters (hits / evictions /
    /// invalidations); `None` keeps the cache observation-free.
    metrics: Option<BlockCacheMetrics>,
}

impl BlockCache {
    /// An empty cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_CACHE_BYTES)
    }

    /// An empty cache whose cross-query residency is bounded by
    /// `budget_bytes` (0 means no block survives its query).
    pub fn with_budget(budget_bytes: usize) -> Self {
        BlockCache {
            epoch: 0, // matches no real graph: first use always re-keys
            resident: Generations::default(),
            touched: NodeSet::new(),
            fetch_ids: Vec::new(),
            budget_bytes,
            metrics: None,
        }
    }

    /// Arm registry-backed counters: from now on, warm-cache hits and
    /// between-query evictions/invalidations are also published through
    /// `metrics` (the internal per-query meters are unaffected).
    pub fn set_metrics(&mut self, metrics: BlockCacheMetrics) {
        self.metrics = Some(metrics);
    }

    /// Resident blocks currently held.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no block is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the two arenas hold (blocks superseded by a forward copy
    /// included, until their generation is dropped).
    pub fn resident_bytes(&self) -> usize {
        self.resident.old.len() + self.resident.young.len()
    }

    /// The epoch the resident blocks belong to (0 = never used).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The resident blocks: two byte arenas and the index into them.
///
/// Every byte ever appended has a position in one logical stream. The old
/// arena holds positions `old_base..young_base`, the young arena
/// `young_base..`; an index entry below `old_base` is dead. Dropping a
/// generation, or everything, is therefore a change of base — no index
/// entry is visited.
#[derive(Debug)]
struct Generations {
    /// Node id → stream position of its block (sized at the first bind).
    index: Vec<u64>,
    old: Vec<u8>,
    young: Vec<u8>,
    old_base: u64,
    young_base: u64,
    /// Blocks in `old` not copied forward yet: what dropping it evicts.
    old_blocks: usize,
    young_blocks: usize,
}

impl Default for Generations {
    fn default() -> Self {
        Generations {
            index: Vec::new(),
            old: Vec::new(),
            young: Vec::new(),
            // Position 0 is never live, so a zeroed index is an empty one.
            old_base: 1,
            young_base: 1,
            old_blocks: 0,
            young_blocks: 0,
        }
    }
}

impl Generations {
    fn len(&self) -> usize {
        self.old_blocks + self.young_blocks
    }

    /// Whether `id`'s block is resident (in either generation).
    fn is_resident(&self, id: u32) -> bool {
        self.index
            .get(id as usize)
            .is_some_and(|&pos| pos >= self.old_base)
    }

    /// The resident block of `id`.
    fn block(&self, id: u32) -> Option<BlockView<'_>> {
        let pos = *self.index.get(id as usize)?;
        let bytes = if pos >= self.young_base {
            self.young.get((pos - self.young_base) as usize..)
        } else if pos >= self.old_base {
            self.old.get((pos - self.old_base) as usize..)
        } else {
            None
        };
        BlockView::parse(bytes?)
    }

    /// First touch of `id` in a query: its block if resident, copied
    /// forward first if it still lived in the old generation — so everything
    /// a query touched sits in the young arena, which the next rotation
    /// keeps.
    fn touch(&mut self, id: u32) -> Option<BlockView<'_>> {
        let pos = *self.index.get(id as usize)?;
        if (self.old_base..self.young_base).contains(&pos) {
            let at = (pos - self.old_base) as usize;
            let len = BlockView::parse(self.old.get(at..)?)?.encoded_len();
            self.index[id as usize] = self.young_base + self.young.len() as u64;
            self.young.extend_from_slice(&self.old[at..at + len]);
            self.old_blocks -= 1;
            self.young_blocks += 1;
        }
        self.block(id)
    }

    /// Take one reply payload in: append its whole blocks to the young
    /// arena and index them. One total walk — a truncated tail is left
    /// out, a block whose id the graph does not have is carried but never
    /// indexed. Returns how many blocks were indexed and their edge count.
    fn absorb(&mut self, payload: &[u8]) -> (usize, usize) {
        let base = self.young_base + self.young.len() as u64;
        let (mut blocks, mut edges, mut whole) = (0, 0, 0);
        for (at, block) in wire::blocks(payload) {
            whole = at + block.encoded_len();
            let Some(entry) = self.index.get_mut(block.node().index()) else {
                continue;
            };
            if *entry < self.old_base {
                self.young_blocks += 1;
            } else if *entry < self.young_base {
                self.old_blocks -= 1;
                self.young_blocks += 1;
            }
            *entry = base + at as u64;
            blocks += 1;
            edges += block.out_degree() + block.in_degree();
        }
        self.young.extend_from_slice(&payload[..whole]);
        (blocks, edges)
    }

    /// Drop every resident block; returns how many there were.
    fn drop_all(&mut self) -> usize {
        let dropped = self.len();
        self.young_base += self.young.len() as u64;
        self.old_base = self.young_base;
        self.old.clear();
        self.young.clear();
        (self.old_blocks, self.young_blocks) = (0, 0);
        dropped
    }

    /// Query-boundary rotation under a byte budget. Once the young arena has
    /// passed half the budget the old one is dropped and the young one
    /// becomes old; an old generation that alone exceeds the budget (one
    /// very large query, or a zero budget) is dropped as well. Returns the
    /// blocks evicted.
    fn rotate(&mut self, budget_bytes: usize) -> usize {
        if self.young.len() <= budget_bytes / 2 {
            return 0;
        }
        let mut evicted = self.old_blocks;
        self.old.clear();
        std::mem::swap(&mut self.old, &mut self.young);
        self.old_base = self.young_base;
        self.young_base += self.old.len() as u64;
        self.old_blocks = std::mem::take(&mut self.young_blocks);
        if self.old.len() > budget_bytes {
            evicted += self.drop_all();
        }
        // An arena keeps its capacity across rotations so steady state
        // does not reallocate, but never more than the budget.
        self.old.shrink_to(budget_bytes);
        self.young.shrink_to(budget_bytes);
        evicted
    }
}

impl Default for BlockCache {
    fn default() -> Self {
        Self::new()
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
    blocks_fetched: usize,
    blocks_from_cache: usize,
    bytes_transferred: usize,
    touched_edges: usize,
}

impl<'a> ActiveGraph<'a> {
    /// Bind `cache` (and the reusable reply `slot`) to `cluster` for one
    /// query. Validates the cache's epoch against the cluster's — stale
    /// blocks from another graph are dropped wholesale — and otherwise
    /// rotates the cache's generations under its byte budget, both *before*
    /// the query starts, so nothing resident can disappear mid-query.
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
        if cache.epoch != cluster.epoch() {
            let dropped = cache.resident.drop_all();
            if let Some(m) = &cache.metrics {
                m.invalidations.add(dropped as u64);
            }
            cache.epoch = cluster.epoch();
            cache.resident.index.resize(cluster.node_count(), 0);
        } else {
            let evicted = cache.resident.rotate(cache.budget_bytes);
            if let Some(m) = &cache.metrics {
                m.evictions.add(evicted as u64);
            }
        }
        cache.touched.ensure_capacity(cluster.node_count());
        cache.touched.clear();
        ActiveGraph {
            node_count: cluster.node_count(),
            cluster,
            cache,
            slot,
            trace,
            fetch_requests: 0,
            blocks_fetched: 0,
            blocks_from_cache: 0,
            bytes_transferred: 0,
            touched_edges: 0,
        }
    }

    /// The resident block for `v`, if resident.
    pub fn block(&self, v: NodeId) -> Option<BlockView<'_>> {
        self.cache.resident.block(v.0)
    }

    fn resident_block(&self, v: NodeId) -> BlockView<'_> {
        self.cache
            .resident
            .block(v.0)
            .unwrap_or_else(|| panic!("node {v:?} not in active set"))
    }

    /// Whether a node's block is resident (cache-wide, not per-query).
    pub fn is_resident(&self, v: NodeId) -> bool {
        self.cache.resident.is_resident(v.0)
    }

    /// Fetch requests (batched wire rounds) issued this query.
    pub fn fetch_requests(&self) -> usize {
        self.fetch_requests
    }

    /// Demanded blocks received over the wire this query.
    pub fn blocks_fetched(&self) -> usize {
        self.blocks_fetched
    }

    /// Demanded blocks served from the warm cache this query (no wire).
    pub fn blocks_from_cache(&self) -> usize {
        self.blocks_from_cache
    }

    /// Payload bytes received over the wire this query.
    pub fn bytes_transferred(&self) -> usize {
        self.bytes_transferred
    }

    /// Nodes this query touched (demanded), the paper's active-set size —
    /// always `blocks_fetched() + blocks_from_cache()`.
    pub fn touched_nodes(&self) -> usize {
        self.cache.touched.len()
    }

    /// Directed edges (both stored directions) of the touched nodes,
    /// accumulated as each block was first touched.
    pub fn touched_edges(&self) -> usize {
        self.touched_edges
    }

    /// Wire-encoding bytes of the touched nodes' blocks (the paper's MB
    /// numbers for the active set): one edge-less block per touched node
    /// plus the edges.
    pub fn touched_bytes(&self) -> usize {
        (self.blocks_fetched + self.blocks_from_cache) * wire::encoded_len(0, 0)
            + self.touched_edges * wire::EDGE_BYTES
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

    /// Make `ids` resident: the first touch of each id this query is a
    /// cache hit or a wire fetch — exactly one of the two, which is what
    /// keeps the active-set accounting exact under caching — and the
    /// fetches go out in one batched round. Once a region is warm, the
    /// round vanishes.
    fn ensure(&mut self, ids: &[u32]) -> Result<(), AdjacencyError> {
        let cache = &mut *self.cache;
        cache.fetch_ids.clear();
        for &id in ids {
            if !cache.touched.insert(id) {
                continue; // already touched this query
            }
            if let Some(block) = cache.resident.touch(id) {
                self.touched_edges += block.out_degree() + block.in_degree();
                self.blocks_from_cache += 1;
                if let Some(m) = &cache.metrics {
                    m.hits.inc();
                }
            } else {
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
            let (blocks, edges) = cache.resident.absorb(payload);
            self.blocks_fetched += blocks;
            self.touched_edges += edges;
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
    fn cache_survives_across_queries() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&[ids.t1.0, ids.v1.0]).unwrap();
            assert_eq!(active.blocks_fetched(), 2);
            assert_eq!(active.blocks_from_cache(), 0);
        }
        // Same cache, next query: both blocks are warm.
        let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        active.ensure(&[ids.t1.0, ids.v1.0]).unwrap();
        assert_eq!(active.blocks_fetched(), 0);
        assert_eq!(active.blocks_from_cache(), 2);
        assert_eq!(active.bytes_transferred(), 0);
        // Touched accounting still reports the full per-query active set.
        assert_eq!(active.touched_nodes(), 2);
    }

    #[test]
    fn epoch_change_invalidates_cache() {
        let (g, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let mut slot = ReplySlot::new();
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&[ids.t1.0]).unwrap();
        }
        assert_eq!(cache.len(), 1);
        // A cluster over a re-stamped clone of the graph: different epoch,
        // so the warm block must NOT be served.
        let mut g2 = g.clone();
        g2.bump_epoch();
        let cluster2 = GpCluster::spawn(&g2, 2);
        let mut active = ActiveGraph::new(&cluster2, &mut cache, &mut slot);
        active.ensure(&[ids.t1.0]).unwrap();
        assert_eq!(active.blocks_from_cache(), 0);
        assert_eq!(active.blocks_fetched(), 1);
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
        let mut cache = BlockCache::with_budget(1);
        let mut slot = ReplySlot::new();
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&[ids.t1.0, ids.v1.0]).unwrap();
        }
        assert_eq!(cache.len(), 2); // over budget, but intact mid-query
        let active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        assert_eq!(active.cache.len(), 0); // evicted on rebind
        assert_eq!(active.cache.resident_bytes(), 0);
    }

    #[test]
    fn armed_metrics_count_hits_evictions_and_invalidations() {
        let (g, ids, cluster) = harness();
        let mut cache = BlockCache::with_budget(1);
        let metrics = BlockCacheMetrics::default();
        cache.set_metrics(metrics.clone());
        let mut slot = ReplySlot::new();
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&[ids.t1.0, ids.v1.0]).unwrap();
            // Second touch in the same query is deduped, not a hit.
            active.ensure(&[ids.t1.0]).unwrap();
        }
        assert_eq!(metrics.hits.get(), 0);
        {
            // Rebind: 2 resident blocks exceed the budget of 1 → evicted.
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            assert_eq!(metrics.evictions.get(), 2);
            active.ensure(&[ids.t1.0]).unwrap();
            active.ensure(&[ids.t1.0, ids.v1.0]).unwrap();
        }
        // t1 was resident when re-demanded (within budget mid-query).
        assert_eq!(metrics.hits.get(), 0, "same-query re-touch is deduped");
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            // Budget of 1 evicted again; refetch t1 then warm-hit nothing new.
            assert_eq!(metrics.evictions.get(), 4);
            active.ensure(&[ids.t1.0]).unwrap();
        }
        // Epoch change: the resident block is invalidated, not evicted.
        let mut g2 = g.clone();
        g2.bump_epoch();
        let cluster2 = GpCluster::spawn(&g2, 2);
        let _ = ActiveGraph::new(&cluster2, &mut cache, &mut slot);
        assert_eq!(metrics.invalidations.get(), 1);
        assert_eq!(metrics.evictions.get(), 4);
    }

    #[test]
    fn warm_hit_increments_armed_hit_counter() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::new();
        let metrics = BlockCacheMetrics::default();
        cache.set_metrics(metrics.clone());
        let mut slot = ReplySlot::new();
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&[ids.t1.0]).unwrap();
        }
        let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
        active.ensure(&[ids.t1.0]).unwrap();
        assert_eq!(metrics.hits.get(), 1);
        assert_eq!(active.blocks_from_cache(), 1);
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
            assert_eq!(
                active.touched_nodes(),
                active.blocks_fetched() + active.blocks_from_cache()
            );
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

    fn empty_generations(node_count: usize) -> Generations {
        Generations {
            index: vec![0; node_count],
            ..Generations::default()
        }
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
            let mut gens = empty_generations(g.node_count());
            let (blocks, edges) = gens.absorb(&payload[..cut]);
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(blocks, whole, "cut {cut}");
            assert_eq!(gens.len(), whole, "cut {cut}");
            // The arena holds the whole blocks and not one byte more.
            let kept = if whole == 0 { 0 } else { ends[whole - 1] };
            assert_eq!(gens.young, &payload[..kept], "cut {cut}");
            let mut want_edges = 0;
            for v in g.nodes() {
                assert_eq!(gens.is_resident(v.0), v.index() < whole, "cut {cut} {v:?}");
                match gens.block(v.0) {
                    Some(block) => {
                        assert_eq!(block.to_block(), wire::NodeBlock::extract(&g, v));
                        want_edges += g.out_degree(v) + g.in_degree(v);
                    }
                    None => assert!(v.index() >= whole, "cut {cut} {v:?}"),
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

        // A header announcing 4 Gi out-edges: nothing is indexed or kept.
        let mut huge_out = Vec::new();
        huge_out.extend_from_slice(&ids.t1.0.to_le_bytes());
        huge_out.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_out.extend_from_slice(&[0xAB; 40]);
        let mut gens = empty_generations(n);
        assert_eq!(gens.absorb(&huge_out), (0, 0));
        assert!(gens.young.is_empty());
        assert!(!gens.is_resident(ids.t1.0));

        // The same lie in the in-edge count, after a valid (empty) out list.
        let mut huge_in = Vec::new();
        huge_in.extend_from_slice(&ids.t1.0.to_le_bytes());
        huge_in.extend_from_slice(&0u32.to_le_bytes());
        huge_in.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_in.extend_from_slice(&[0xAB; 40]);
        assert_eq!(gens.absorb(&huge_in), (0, 0));
        assert!(gens.young.is_empty());

        // A well-formed block for a node the graph does not have, between
        // two good blocks: carried along, never indexed, and the blocks
        // around it are unaffected.
        let first_end = wire::blocks(&good).nth(1).expect("two blocks").0;
        let mut stranger = good[..first_end].to_vec();
        stranger.extend_from_slice(&(n as u32 + 7).to_le_bytes());
        stranger.extend_from_slice(&[0; 8]);
        stranger.extend_from_slice(&good[first_end..]);
        let mut gens = empty_generations(n);
        let (blocks, _) = gens.absorb(&stranger);
        assert_eq!(blocks, n);
        assert_eq!(gens.len(), n);
        for v in g.nodes() {
            let block = gens.block(v.0).expect("indexed");
            assert_eq!(block.to_block(), wire::NodeBlock::extract(&g, v));
        }
        assert!(!gens.is_resident(n as u32 + 7));
        assert!(gens.block(u32::MAX).is_none());

        // Trailing garbage after good blocks is left out of the arena.
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0xFF; 29]);
        let mut gens = empty_generations(n);
        assert_eq!(gens.absorb(&trailing).0, n);
        assert_eq!(gens.young, good);

        // A block that arrives twice is resident once.
        let mut gens = empty_generations(n);
        gens.absorb(&good);
        gens.absorb(&good[..first_end]);
        assert_eq!(gens.len(), n);
    }

    /// Budget under which every query below (t1 plus one paper, 192 B) is a
    /// generation of its own: more than half the budget, less than all.
    const ONE_QUERY_PER_GENERATION: usize = 256;

    #[test]
    fn a_block_touched_every_generation_survives_and_an_untouched_one_ages_out() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::with_budget(ONE_QUERY_PER_GENERATION);
        let metrics = BlockCacheMetrics::default();
        cache.set_metrics(metrics.clone());
        let mut slot = ReplySlot::new();
        let (hub, untouched) = (ids.t1, ids.p[0]);
        {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            active.ensure(&[hub.0, untouched.0]).unwrap();
            assert_eq!(active.blocks_fetched(), 2);
        }
        for (rotation, fresh) in ids.p[1..].iter().enumerate() {
            let mut active = ActiveGraph::new(&cluster, &mut cache, &mut slot);
            // One rotation keeps what the previous query left; the second
            // drops what no query touched in between.
            assert_eq!(active.is_resident(untouched), rotation == 0);
            assert_eq!(metrics.evictions.get(), rotation as u64);
            let mut demanded = [hub.0, fresh.0];
            demanded.sort_unstable();
            active.ensure(&demanded).unwrap();
            assert_eq!(active.blocks_from_cache(), 1, "the hub is a hit");
            assert_eq!(active.blocks_fetched(), 1, "only the new paper is fetched");
        }
        assert_eq!(metrics.hits.get(), 6, "the hub survived six rotations");
        assert_eq!(cache.len(), 3, "hub + the last two papers");
    }

    #[test]
    fn zero_budget_is_cold_every_query() {
        let (_, ids, cluster) = harness();
        let mut cache = BlockCache::with_budget(0);
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
