//! Round-robin data striping (paper Sect. V-B2).
//!
//! "When the graph does not fit into the main memory of a single machine, we
//! rely on data striping, a technique to segment data over multiple storage
//! units. In our case, the graph is segmented across multiple GPs... in a
//! round-robin fashion."
//!
//! A stripe is the set of node ids a GP owns, over the graph's own block
//! arena ([`rtr_graph::wire::BlockArena`]): the graph is already stored the
//! way it is served, so an in-process GP shares the arena (a clone of it
//! is two `Arc`s) and holds no copy of any edge. Answering a fetch is a
//! `memcpy` of each wanted block into the reply — nothing is encoded,
//! hashed or cloned per request.

use rtr_graph::wire::BlockArena;
use rtr_graph::{Graph, NodeId};

/// The striping function: node → GP index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Striping {
    /// Number of graph processors.
    pub gps: usize,
}

impl Striping {
    /// Create a striping over `gps` processors.
    pub fn new(gps: usize) -> Self {
        assert!(gps > 0, "need at least one graph processor");
        Striping { gps }
    }

    /// The GP owning a node (round-robin by id).
    #[inline]
    pub fn owner(&self, v: NodeId) -> usize {
        (v.0 as usize) % self.gps
    }

    /// Partition a graph into per-GP stores, each a view of the graph's
    /// block arena restricted to the nodes it owns.
    pub fn partition(&self, g: &Graph) -> Vec<GpStore> {
        (0..self.gps)
            .map(|index| GpStore {
                index,
                striping: *self,
                blocks: g.blocks().clone(),
            })
            .collect()
    }
}

/// One GP's stripe: the nodes it owns, served from the shared block arena.
#[derive(Clone, Debug)]
pub struct GpStore {
    /// This GP's index.
    pub index: usize,
    striping: Striping,
    blocks: BlockArena,
}

impl GpStore {
    /// The encoded block of `v`, if this GP owns it.
    pub fn lookup(&self, v: NodeId) -> Option<&[u8]> {
        if self.striping.owner(v) != self.index {
            return None;
        }
        self.blocks.get(v)
    }

    /// Append the blocks this GP owns among `wanted` to `reply`, in request
    /// order (the GP-side half of a fetch). The reply is sized first, so
    /// each block is copied exactly once.
    pub fn append_blocks(&self, wanted: &[NodeId], reply: &mut Vec<u8>) {
        let owned = || wanted.iter().filter_map(|&v| self.lookup(v));
        reply.reserve(owned().map(<[u8]>::len).sum());
        for block in owned() {
            reply.extend_from_slice(block);
        }
    }

    /// The ids this GP owns, ascending.
    fn owned_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (self.index..self.blocks.len())
            .step_by(self.striping.gps)
            .map(NodeId::from_index)
    }

    /// Number of nodes owned.
    pub fn len(&self) -> usize {
        self.owned_ids().len()
    }

    /// Whether this stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the owned nodes' blocks (their wire encoding size). The
    /// arena they live in is shared with the graph, not held per stripe.
    pub fn bytes(&self) -> usize {
        self.owned_ids()
            .filter_map(|v| self.blocks.get(v))
            .map(<[u8]>::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::wire::{self, NodeBlock};

    #[test]
    fn round_robin_assignment() {
        let s = Striping::new(3);
        assert_eq!(s.owner(NodeId(0)), 0);
        assert_eq!(s.owner(NodeId(1)), 1);
        assert_eq!(s.owner(NodeId(2)), 2);
        assert_eq!(s.owner(NodeId(3)), 0);
    }

    #[test]
    fn partition_covers_all_nodes_disjointly() {
        let (g, _) = fig2_toy();
        let stores = Striping::new(4).partition(&g);
        let total: usize = stores.iter().map(|s| s.len()).sum();
        assert_eq!(total, g.node_count());
        // Balanced to within one node.
        let sizes: Vec<usize> = stores.iter().map(|s| s.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced stripes {sizes:?}");
    }

    #[test]
    fn lookup_returns_only_owned() {
        let (g, ids) = fig2_toy();
        let striping = Striping::new(2);
        let stores = striping.partition(&g);
        let all: Vec<NodeId> = g.nodes().collect();
        for store in &stores {
            let mut reply = Vec::new();
            store.append_blocks(&all, &mut reply);
            assert_eq!(reply.len(), store.bytes());
            assert_eq!(wire::blocks(&reply).count(), store.len());
            for (_, block) in wire::blocks(&reply) {
                assert_eq!(striping.owner(block.node()), store.index);
                assert_eq!(block.to_block(), NodeBlock::extract(&g, block.node()));
            }
        }
        // A specific node is found in exactly one store; an id past the
        // graph in none.
        let found = stores.iter().filter(|s| s.lookup(ids.v1).is_some()).count();
        assert_eq!(found, 1);
        assert!(stores.iter().all(|s| s.lookup(NodeId(9999)).is_none()));
    }

    #[test]
    fn stripes_are_views_of_the_graph_arena() {
        let (g, _) = fig2_toy();
        let arena = g.blocks().as_bytes().as_ptr_range();
        let mut bytes = 0;
        for store in Striping::new(3).partition(&g) {
            assert!(BlockArena::ptr_eq(&store.blocks, g.blocks()));
            for v in store.owned_ids() {
                let block = store.lookup(v).unwrap().as_ptr_range();
                assert!(arena.start <= block.start && block.end <= arena.end);
                assert_eq!(store.lookup(v), g.blocks().get(v));
            }
            bytes += store.bytes();
        }
        // Σ owned block lengths over all stripes is the arena, once.
        assert_eq!(bytes, g.blocks().as_bytes().len());
    }

    #[test]
    fn single_gp_owns_everything() {
        let (g, _) = fig2_toy();
        let stores = Striping::new(1).partition(&g);
        assert_eq!(stores[0].len(), g.node_count());
        assert!(stores[0].bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_gps_rejected() {
        Striping::new(0);
    }
}
