#![deny(missing_docs)]
//! # rtr-distributed — the AP/GP architecture for scaling 2SBound
//!
//! Implements the paper's distributed solution (Sect. V-B): one **active
//! processor** (AP) drives the query while the graph is segmented across
//! multiple **graph processors** (GPs) by round-robin **data striping**
//! ("we assign nodes (along with their edges) in the graph to GPs in a
//! round-robin fashion").
//!
//! "Upon an expansion request from AP during query processing, each GP
//! identifies the requested active nodes and edges stored in it, and sends
//! them back to AP. AP can then incrementally assemble the active set."
//!
//! The simulation is faithful at the protocol level: GPs run on their own
//! threads, own disjoint node stripes, and answer fetch requests over
//! channels in the wire layout of `rtr_graph::wire`; the AP never touches
//! the full graph — every adjacency byte it uses arrived in a GP response,
//! and the transfer volume is metered.
//!
//! The AP-side processor ([`DistributedTwoSBound`]) does **not** fork the
//! algorithm: it runs the single-machine search loop (`rtr_topk::TwoSBound`,
//! for every measure and query arity) through the shared
//! [`rtr_graph::AdjacencyAccess`] trait against an [`ActiveGraph`] that
//! pages node blocks from the cluster. Results are therefore
//! **bit-identical** to the local engines under the same `TopKConfig` and
//! search *by construction* — which is what lets a serving layer run the
//! same traffic on either execution backend (and share one result cache
//! between them) without changing a single answer.
//!
//! The wire layer is where the distributed work happens, and on it a node
//! block is one thing only — its wire bytes, which are also how the
//! [`rtr_graph::Graph`] stores its adjacency. A GP's stripe is the ids it
//! owns over the graph's shared block arena; it answers a fetch by copying
//! the wanted blocks into the reply buffer; the buffer crosses the channel
//! as is; the AP appends it to the arena of its per-query [`BlockCache`]
//! (cleared when the next query starts) and serves edges and degrees by
//! reading those bytes in place. Two copies per block, no encode, no
//! decode, no hash map. Out-degrees alone come from a
//! table of every node's that the cluster builds at spawn, so BCA ranks its
//! frontier without fetching it: the AP fetches exactly the query's active
//! set `S_f ∪ S_t`, and nothing on speculation. One [`GpCluster`] is
//! `Send + Sync` and serves any number of concurrent APs. A per-worker [`DistributedWorkspace`] owns everything
//! the block path reuses — the reply channel of its [`ReplySlot`] and the
//! id lists and payload buffers that travel through it, the block arena
//! and its index, the engine buffers — so once those have grown to the
//! largest query's size, fetching and reading blocks allocates nothing.
//!
//! ## Modules
//!
//! * [`stripe`] — round-robin striping and per-GP stores;
//! * [`gp`] — graph-processor threads and the fetch protocol;
//! * [`active`] — the AP-side incrementally-assembled active graph;
//! * [`dtopk`] — distributed 2SBound running against the active graph.

#![warn(rust_2018_idioms)]

pub mod active;
pub mod dtopk;
pub mod gp;
mod rtr_sync;
pub mod stripe;

pub use active::{ActiveGraph, BlockCache, BlockCacheMetrics};
pub use dtopk::{DistributedStats, DistributedTwoSBound, DistributedWorkspace};
pub use gp::{GpCluster, ReplySlot};
pub use stripe::Striping;
