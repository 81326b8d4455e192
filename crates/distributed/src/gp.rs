//! Graph-processor threads and the fetch protocol.
//!
//! Each GP runs on its own thread, owns one stripe, and serves fetch
//! requests: the AP sends the wanted node ids to the owning GPs, each GP
//! replies with the wire-encoded blocks it owns ("it aggregates the fast
//! storage (main memory) of GPs... it enables parallel access to different
//! parts of the graph", paper Sect. V-B2). A reply is the buffer the GP
//! copied its blocks into, handed over the channel as is; the AP reads it
//! in place (`rtr_graph::wire::blocks`).
//!
//! The reply path is a **reusable slot** ([`ReplySlot`]): one channel per
//! AP-side workspace, re-used for every fetch of every query, instead of a
//! fresh channel allocation per request. The slot also owns the buffers of
//! the protocol — the per-GP id lists and reply payloads travel to the GP
//! with the request and come back with the reply — so a steady-state fetch
//! allocates nothing. Replies are stamped with a generation counter so a
//! slot that abandoned a fetch mid-flight (because one GP failed) simply
//! skips the stragglers of the old generation on its next use.
//!
//! GP failure is a first-class outcome, not a panic: a dead GP thread is
//! reported as [`AdjacencyError::SourceUnavailable`] naming the processor,
//! and a GP whose lookup panics catches the unwind and replies with the
//! error, so the AP's blocking receive can never hang on a wedged fetch.

use crate::rtr_sync::thread::{self, JoinHandle};
use crate::stripe::{GpStore, Striping};
use crossbeam::channel::{unbounded, Receiver, Sender};
use rtr_graph::{AdjacencyError, Graph, NodeId};

enum Request {
    Fetch {
        wanted: Vec<NodeId>,
        /// The buffer to write the reply into (its old contents are dead).
        payload: Vec<u8>,
        generation: u64,
        reply: Sender<Reply>,
    },
    Shutdown,
    /// Test kill-switch: makes the GP thread exit *without* draining its
    /// queue, simulating a crashed processor (see [`GpCluster::kill_gp`]).
    Poison,
    /// Fault-injection switch: the GP answers its *next* fetch with an
    /// error reply, as if its lookup had failed, while staying alive (see
    /// [`GpCluster::fail_next_fetch`]).
    FailNext,
}

struct Reply {
    generation: u64,
    gp: usize,
    /// The request's id list, returned for reuse.
    wanted: Vec<NodeId>,
    payload: Result<Vec<u8>, String>,
}

/// A reusable reply channel for [`GpCluster::fetch`].
///
/// One slot lives in each AP-side workspace and serves every fetch that
/// workspace ever issues; creating it allocates the only channel the reply
/// path will ever need. Not shareable between concurrent fetches — each
/// worker owns its slot, which is exactly the per-workspace ownership the
/// serving layer already has.
#[derive(Debug)]
pub struct ReplySlot {
    tx: Sender<Reply>,
    rx: Receiver<Reply>,
    generation: u64,
    /// Per-GP share of the current request (scratch, reused).
    shares: Vec<Vec<NodeId>>,
    /// Per-GP reply payload of the last fetch (empty for a GP not asked).
    payloads: Vec<Vec<u8>>,
}

impl ReplySlot {
    /// A fresh slot (one channel allocation, amortized over all fetches).
    pub fn new() -> Self {
        let (tx, rx) = unbounded();
        ReplySlot {
            tx,
            rx,
            generation: 0,
            shares: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

impl Default for ReplySlot {
    fn default() -> Self {
        Self::new()
    }
}

/// A running cluster of GP threads.
///
/// The cluster is the AP side's *only* handle on the graph: it carries just
/// the global metadata an active processor legitimately holds (node count,
/// self-loop flag, every node's out-degree) plus the fetch channels. It is
/// `Send + Sync`, so one cluster can be shared (`Arc<GpCluster>`) by a
/// whole pool of serving workers — fetches from concurrent queries
/// interleave safely because each fetch replies into its caller's private
/// [`ReplySlot`] and every GP serves its queue sequentially.
pub struct GpCluster {
    senders: Vec<Sender<Request>>,
    handles: Vec<JoinHandle<()>>,
    striping: Striping,
    node_count: usize,
    has_self_loops: bool,
    /// Out-degree of every node (4 B per node), so BCA can rank a frontier
    /// by benefit without fetching it.
    out_degree: Box<[u32]>,
}

impl GpCluster {
    /// Stripe `g` across `gps` processors and start their threads.
    pub fn spawn(g: &Graph, gps: usize) -> Self {
        let striping = Striping::new(gps);
        let stores = striping.partition(g);
        let mut senders = Vec::with_capacity(gps);
        let mut handles = Vec::with_capacity(gps);
        for store in stores {
            let (tx, rx) = unbounded::<Request>();
            senders.push(tx);
            handles.push(thread::spawn(move || gp_main(store, rx)));
        }
        GpCluster {
            senders,
            handles,
            striping,
            node_count: g.node_count(),
            has_self_loops: g.has_self_loops(),
            out_degree: g.nodes().map(|v| g.out_degree(v) as u32).collect(),
        }
    }

    /// Total nodes in the striped graph — the global metadata the AP needs
    /// for query validation and `k` clamping.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Whether the striped graph contains self-loops — global metadata the
    /// AP needs to choose a sound unseen F-Rank bound (see
    /// `rtr_core::bca::Bca::unseen_upper_bound`).
    pub fn has_self_loops(&self) -> bool {
        self.has_self_loops
    }

    /// Out-degree of `v`, read from the table built at spawn.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_degree[v.index()] as usize
    }

    /// Number of graph processors.
    pub fn gps(&self) -> usize {
        self.senders.len()
    }

    /// Fetch the blocks for `wanted` nodes: one request per owning GP, all
    /// outstanding in parallel, replies collected through the caller's
    /// reusable `slot`. Returns one payload per GP (empty for a GP that owns
    /// none of `wanted`): the concatenated wire encoding of the blocks that
    /// GP owns, in request order. The payloads live in the slot until its
    /// next fetch; their summed length is what crossed the (simulated)
    /// network.
    ///
    /// A dead GP thread surfaces as
    /// [`AdjacencyError::SourceUnavailable`] naming the processor index —
    /// detected at send time if the thread is already gone, or from its
    /// error reply if its lookup panicked mid-request.
    pub fn fetch<'s>(
        &self,
        wanted: &[NodeId],
        slot: &'s mut ReplySlot,
    ) -> Result<&'s [Vec<u8>], AdjacencyError> {
        // Abandoned fetches may have left stale replies behind; a new
        // generation distinguishes this fetch's replies from theirs.
        slot.generation += 1;
        while slot.rx.try_recv().is_ok() {}
        // Partition the request by owner so each GP only sees its share.
        slot.shares.resize_with(self.gps(), Vec::new);
        slot.payloads.resize_with(self.gps(), Vec::new);
        slot.shares.iter_mut().for_each(Vec::clear);
        for &v in wanted {
            slot.shares[self.striping.owner(v)].push(v);
        }
        let mut outstanding = 0usize;
        for (gp, sender) in self.senders.iter().enumerate() {
            slot.payloads[gp].clear();
            if slot.shares[gp].is_empty() {
                continue;
            }
            let sent = sender.send(Request::Fetch {
                wanted: std::mem::take(&mut slot.shares[gp]),
                payload: std::mem::take(&mut slot.payloads[gp]),
                generation: slot.generation,
                reply: slot.tx.clone(),
            });
            if sent.is_err() {
                return Err(AdjacencyError::SourceUnavailable {
                    detail: format!("graph processor {gp} is not running"),
                });
            }
            outstanding += 1;
        }
        while outstanding > 0 {
            // Every live GP replies exactly once per request (its lookup is
            // wrapped in catch_unwind), so this blocks only while a GP is
            // actually working. The slot holding its own sender keeps the
            // channel open; a recv error is therefore impossible, but is
            // mapped rather than unwrapped to keep the AP panic-free.
            let reply = match slot.rx.recv() {
                Ok(r) => r,
                Err(_) => {
                    return Err(AdjacencyError::SourceUnavailable {
                        detail: "graph processor reply channel closed".to_string(),
                    })
                }
            };
            if reply.generation != slot.generation {
                continue; // straggler from an abandoned fetch
            }
            outstanding -= 1;
            slot.shares[reply.gp] = reply.wanted;
            match reply.payload {
                Ok(payload) => slot.payloads[reply.gp] = payload,
                Err(msg) => {
                    return Err(AdjacencyError::SourceUnavailable {
                        detail: format!("graph processor {} failed: {msg}", reply.gp),
                    });
                }
            }
        }
        Ok(&slot.payloads)
    }

    /// Kill one GP thread in place, simulating a processor crash (for
    /// fault-injection tests). Blocks until the thread has exited, so a
    /// subsequent fetch deterministically observes the death.
    pub fn kill_gp(&self, gp: usize) {
        let _ = self.senders[gp].send(Request::Poison);
        while !self.handles[gp].is_finished() {
            thread::yield_now();
        }
    }

    /// Make GP `gp` answer its next fetch with an error reply while
    /// staying alive — fault injection for straggler tests. Unlike
    /// [`GpCluster::kill_gp`] the processor keeps serving afterwards, so
    /// a multi-GP fetch that hits the injected failure returns an error
    /// *while the other GPs' replies are still in flight*: exactly the
    /// stale-straggler scenario the [`ReplySlot`] generation stamp
    /// exists to absorb (model-checked in `rtr-check`).
    pub fn fail_next_fetch(&self, gp: usize) {
        let _ = self.senders[gp].send(Request::FailNext);
    }
}

impl Drop for GpCluster {
    fn drop(&mut self) {
        // Best-effort shutdown: a GP that already died has dropped its
        // receiver, which makes the send fail — ignored, and its join
        // returns the panic payload — also ignored. Drop never hangs on a
        // partially dead cluster.
        for tx in &self.senders {
            let _ = tx.send(Request::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn gp_main(store: GpStore, rx: Receiver<Request>) {
    let gp = store.index;
    let mut fail_next = false;
    while let Ok(req) = rx.recv() {
        match req {
            Request::Fetch {
                wanted,
                mut payload,
                generation,
                reply,
            } => {
                // The lookup runs under catch_unwind so that *any* GP-side
                // failure still produces a reply: the AP's blocking receive
                // must never hang because a processor wedged mid-request.
                let payload = if std::mem::take(&mut fail_next) {
                    Err("injected fault (fail_next_fetch)".to_string())
                } else {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        store.append_blocks(&wanted, &mut payload);
                        payload
                    }))
                    .map_err(|p| panic_message(&p))
                };
                let _ = reply.send(Reply {
                    generation,
                    gp,
                    wanted,
                    payload,
                });
            }
            Request::Shutdown => break,
            Request::Poison => return, // simulate a crash: die without draining
            Request::FailNext => fail_next = true,
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "GP lookup panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;
    use rtr_graph::wire::{self, NodeBlock};

    /// Fetch through `slot` and decode the payloads: the blocks in GP order
    /// and the payload bytes.
    fn fetch_blocks(
        cluster: &GpCluster,
        wanted: &[NodeId],
        slot: &mut ReplySlot,
    ) -> Result<(Vec<NodeBlock>, usize), AdjacencyError> {
        let payloads = cluster.fetch(wanted, slot)?;
        let blocks = payloads
            .iter()
            .flat_map(|p| wire::blocks(p).map(|(_, b)| b.to_block()))
            .collect();
        Ok((blocks, payloads.iter().map(Vec::len).sum()))
    }

    fn fetch_all(cluster: &GpCluster, wanted: &[NodeId]) -> (Vec<NodeBlock>, usize) {
        fetch_blocks(cluster, wanted, &mut ReplySlot::new()).expect("cluster healthy")
    }

    #[test]
    fn fetch_returns_requested_blocks() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 3);
        let (blocks, bytes) = fetch_all(&cluster, &[ids.t1, ids.v1, ids.v2]);
        assert_eq!(blocks.len(), 3);
        assert!(bytes > 0);
        let got: Vec<NodeId> = blocks.iter().map(|b| b.node).collect();
        assert!(got.contains(&ids.t1));
        assert!(got.contains(&ids.v1));
        assert!(got.contains(&ids.v2));
    }

    #[test]
    fn fetched_adjacency_matches_graph() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let (blocks, _) = fetch_all(&cluster, &[ids.v1]);
        let block = &blocks[0];
        let expected: Vec<(NodeId, f64)> = g.out_edges(ids.v1).collect();
        assert_eq!(block.out_edges, expected);
        let expected_in: Vec<(NodeId, f64)> = g.in_edges(ids.v1).collect();
        assert_eq!(block.in_edges, expected_in);
    }

    #[test]
    fn empty_fetch_is_free() {
        let (g, _) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let (blocks, bytes) = fetch_all(&cluster, &[]);
        assert!(blocks.is_empty());
        assert_eq!(bytes, 0);
    }

    #[test]
    fn duplicate_requests_are_idempotent() {
        let (g, ids) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let mut slot = ReplySlot::new();
        let (a, _) = fetch_blocks(&cluster, &[ids.t1], &mut slot).unwrap();
        let (b, _) = fetch_blocks(&cluster, &[ids.t1], &mut slot).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn slot_reuse_spans_many_fetches() {
        let (g, _) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 3);
        let mut slot = ReplySlot::new();
        for v in g.nodes() {
            let (blocks, _) = fetch_blocks(&cluster, &[v], &mut slot).unwrap();
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0].node, v);
        }
    }

    #[test]
    fn cluster_reports_metadata() {
        let (g, _) = fig2_toy();
        let n = g.node_count();
        let cluster = GpCluster::spawn(&g, 5);
        assert_eq!(cluster.gps(), 5);
        assert_eq!(cluster.node_count(), n);
    }

    #[test]
    fn dead_gp_surfaces_as_error_naming_it() {
        let (g, _) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 3);
        cluster.kill_gp(1);
        let mut slot = ReplySlot::new();
        // Node 1 is owned by GP 1 (round-robin by id).
        let err = fetch_blocks(&cluster, &[NodeId(1)], &mut slot).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("graph processor 1"), "got: {msg}");
        // The other GPs still serve, through the same slot.
        let (blocks, _) = fetch_blocks(&cluster, &[NodeId(0), NodeId(2)], &mut slot).unwrap();
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn dropping_a_cluster_with_dead_gps_does_not_hang() {
        let (g, _) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        cluster.kill_gp(0);
        cluster.kill_gp(1);
        drop(cluster); // must return, not deadlock
    }

    #[test]
    fn concurrent_fetches_do_not_cross_wires() {
        // Two AP threads fetching different nodes through one shared cluster
        // must each get exactly their own blocks (the per-worker reply slot
        // is what isolates them).
        use std::sync::Arc;
        let (g, ids) = fig2_toy();
        let cluster = Arc::new(GpCluster::spawn(&g, 3));
        let mut handles = Vec::new();
        for want in [ids.t1, ids.v1, ids.v2, ids.t2] {
            let cluster = Arc::clone(&cluster);
            handles.push(std::thread::spawn(move || {
                let mut slot = ReplySlot::new();
                for _ in 0..50 {
                    let (blocks, _) = fetch_blocks(&cluster, &[want], &mut slot).unwrap();
                    assert_eq!(blocks.len(), 1);
                    assert_eq!(blocks[0].node, want);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
