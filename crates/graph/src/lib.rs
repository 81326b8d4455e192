#![deny(missing_docs)]
//! # rtr-graph — graph substrate for the RoundTripRank reproduction
//!
//! This crate provides the directed, weighted, typed graph on which every
//! proximity measure in the workspace operates. It is the substrate layer of
//! the reproduction of
//!
//! > Fang, Chang, Lauw. *RoundTripRank: Graph-based Proximity with Importance
//! > and Specificity.* ICDE 2013.
//!
//! The paper's model (Sect. I, III) is a graph `G = (V, E)` with directed,
//! possibly weighted edges, where an undirected edge is treated as
//! bidirectional. Random-walk transition probabilities are proportional to
//! edge weights. All ranking algorithms need *both* adjacency directions:
//!
//! * F-Rank iterates over **in**-neighbors with probabilities `M[v'][v]`
//!   (paper Eq. 5);
//! * T-Rank iterates over **out**-neighbors with probabilities `M[v][v']`
//!   (paper Eq. 8).
//!
//! We therefore store every node's adjacency as one [`wire`] block — its
//! out-edges followed by its in-edges, each entry carrying the
//! *source-row-normalized* transition probability — in one arena, so both
//! iteration patterns are single scans of one contiguous row. The arena is
//! also the unit the distributed layer serves: a graph processor's stripe
//! is a set of node ids over the same bytes.
//!
//! ## Modules
//!
//! * [`adjacency`] — the [`AdjacencyAccess`] trait the bound engines run
//!   on: one generic algorithm serves both the in-memory graph and the
//!   distributed active graph (demand paging behind `ensure`).
//! * [`node`] — node identifiers, node types, and the type registry.
//! * [`builder`] — mutable edge-list builder that produces a frozen [`Graph`].
//! * [`graph`] — the frozen [`Graph`] itself (the block arena plus a cold
//!   out-table of neighbour ids), and [`EdgeWeights`], the raw weights the
//!   builder hands out for the offline transforms.
//! * [`scc`] — Tarjan strongly-connected components and the dummy-edge
//!   irreducibility repair the paper relies on (Sect. III-B, "we can always
//!   make a graph irreducible by adding some dummy edges").
//! * [`view`] — induced subgraphs and cumulative growth snapshots
//!   (used by the scalability study, paper Sect. VI-B2).
//! * [`score_map`] — dense-backed sparse per-query state ([`SparseMap`],
//!   [`ScoreMap`]) with O(touched) clearing, the workspace primitive that
//!   lets the serving layer run queries with zero steady-state allocation.
//! * [`stats`] — degree statistics and memory-footprint accounting (the
//!   "active set" measurements of Fig. 12 need byte sizes).
//! * [`wire`] — the node-block layout the graph is stored in and ships
//!   between graph processors in (paper Sect. V-B2).
//!
//! ## Quick example
//!
//! ```
//! use rtr_graph::prelude::*;
//!
//! let mut b = GraphBuilder::new();
//! let ty_paper = b.register_type("paper");
//! let ty_term = b.register_type("term");
//! let p = b.add_labeled_node(ty_paper, "p1");
//! let t = b.add_labeled_node(ty_term, "spatio");
//! b.add_undirected_edge(p, t, 1.0);
//! let g = b.build();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.out_degree(p), 1);
//! // Row-normalized transition probability p -> t:
//! let (tgt, prob) = g.out_edges(p).next().unwrap();
//! assert_eq!(tgt, t);
//! assert!((prob - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adjacency;
pub mod builder;
pub mod graph;
pub mod io;
pub mod node;
pub mod scc;
pub mod score_map;
pub mod stats;
pub mod toy;
pub mod view;
pub mod wire;

pub use adjacency::{AdjacencyAccess, AdjacencyError};
pub use builder::GraphBuilder;
pub use graph::{EdgeWeights, Graph};
pub use node::{NodeId, NodeTypeId, TypeRegistry};
pub use score_map::{ScoreMap, SparseMap};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::adjacency::{AdjacencyAccess, AdjacencyError};
    pub use crate::builder::GraphBuilder;
    pub use crate::graph::{EdgeWeights, Graph};
    pub use crate::node::{NodeId, NodeTypeId, TypeRegistry};
    pub use crate::scc::IrreducibilityRepair;
    pub use crate::score_map::{ScoreMap, SparseMap};
    pub use crate::view::{GrowthSchedule, Subgraph};
}
