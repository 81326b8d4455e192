#![deny(missing_docs)]
//! # rtr-topk — online approximate top-K processing for RoundTripRank
//!
//! Implements **2SBound** (paper Sect. V): branch-and-bound neighborhood
//! expansion with the paper's two original ingredients,
//!
//! 1. **bounds decomposition** (Sect. V-A2) — RoundTripRank bounds derived
//!    from separate F-Rank and T-Rank neighborhoods:
//!    `r̬ = f̬·ť`, `r̂ = f̂·t̂` per seen node (Eq. 15), and the unseen bound
//!    `r̂(q) = max{f̂(q)t̂(q), max_{v∈Sf\S} f̂(q,v)t̂(q), max_{v∈St\S} f̂(q)t̂(q,v)}`
//!    (Eq. 16);
//! 2. a **two-stage bounds-updating framework** (Sect. V-A3) — Stage I
//!    expands a neighborhood and initializes bounds from per-node state
//!    (BCA residuals for F, border nodes for T); Stage II iteratively
//!    refines all bounds over the neighborhood to convergence using the
//!    monotone recurrences of Eq. 17–18.
//!
//! The top-K stopping conditions with slack ε (Eq. 13–14) give an
//! ε-approximate ranking: no node whose score exceeds the K-th by ≥ ε is
//! missed, and no two nodes whose scores differ by ≥ ε are swapped.
//!
//! The efficiency study's baseline schemes (Fig. 11a) are provided by
//! [`schemes`]: `Naive` (exact iteration), `G+S`, `Gupta` and `Sarkar`
//! (ablations replacing one or both stages with the prior state of the art).
//!
//! ```
//! use rtr_graph::toy::fig2_toy;
//! use rtr_core::prelude::*;
//! use rtr_topk::prelude::*;
//!
//! let (g, ids) = fig2_toy();
//! let config = TopKConfig { k: 3, epsilon: 0.0, ..TopKConfig::default() };
//! let result = TwoSBound::new(RankParams::default(), config)
//!     .run(&g, ids.t1)
//!     .unwrap();
//! // Exact top-1 is the query itself (self-proximity), as in the paper's toy.
//! assert_eq!(result.ranking[0], ids.t1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod active_set;
pub mod bounds;
pub mod config;
pub mod fbound;
pub mod plus;
pub mod schemes;
pub mod tbound;
pub mod two_sbound;
pub mod workspace;

pub use active_set::ActiveSetStats;
pub use config::TopKConfig;
pub use plus::TwoSBoundPlus;
pub use schemes::{NaiveTopK, Scheme};
pub use two_sbound::{TopKResult, TopKWork, TwoSBound};
pub use workspace::{FWorkspace, TWorkspace, TopKWorkspace};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::active_set::ActiveSetStats;
    pub use crate::config::TopKConfig;
    pub use crate::plus::TwoSBoundPlus;
    pub use crate::schemes::{NaiveTopK, Scheme};
    pub use crate::two_sbound::{TopKResult, TopKWork, TwoSBound};
    pub use crate::workspace::{FWorkspace, TWorkspace, TopKWorkspace};
}
