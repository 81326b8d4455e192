#![deny(missing_docs)]
//! # rtr-core — RoundTripRank, RoundTripRank+ and their computational models
//!
//! This crate implements the primary contribution of
//!
//! > Fang, Chang, Lauw. *RoundTripRank: Graph-based Proximity with Importance
//! > and Specificity.* ICDE 2013.
//!
//! ## The measures
//!
//! * **F-Rank** `f(q,v) = p(W_L = v | W_0 = q)` — reachability *from* the
//!   query; with geometric walk length `L ~ Geo(α)` it equals Personalized
//!   PageRank (paper Prop. 1). Captures **importance**. Module [`frank`].
//! * **T-Rank** `t(q,v) = p(W_L' = q | W_0 = v)` — reachability *to* the
//!   query. Captures **specificity**. Module [`trank`].
//! * **RoundTripRank** `r(q,v) ∝ f(q,v) · t(q,v)` (paper Prop. 2) — the
//!   probability that a completed round trip `q → v → q` has target `v`.
//!   Module [`rtr`].
//! * **RoundTripRank+** `r_β(q,v) ∝ f(q,v)^{1-β} · t(q,v)^β` (paper Eq. 12) —
//!   hybrid random surfers with a *specificity bias* β. β=0 ≡ F-Rank,
//!   β=1 ≡ T-Rank, β=0.5 rank-equivalent to RoundTripRank. Module
//!   [`rtr_plus`].
//!
//! ## The engines
//!
//! * [`iterative`] — the exact fixed-point iterations of paper Eq. 5 and 8
//!   (the "Naive" scheme of the efficiency study).
//! * [`bca`] — the Bookmark-Coloring Algorithm [Berkhin 2006] with residual
//!   tracking, which Stage I of 2SBound builds on (paper Sect. V-A3), plus
//!   the paper's improved unseen upper bound (Prop. 4).
//! * [`enumerate`] — exact round-trip enumeration on tiny graphs with
//!   constant walk lengths, validating the by-hand numbers of paper Fig. 4.
//! * [`workspace`] — the reusable per-query [`BcaWorkspace`], so serving
//!   workers run bound searches with zero steady-state allocation.
//!
//! ## Queries
//!
//! [`query::Query`] supports single- and multi-node queries; multi-node
//! scores are linear combinations of per-node scores (the paper invokes the
//! Linearity Theorem of Jeh & Widom for this reduction).
//!
//! ## Quick example
//!
//! ```
//! use rtr_graph::toy::fig2_toy;
//! use rtr_core::prelude::*;
//!
//! let (g, ids) = fig2_toy();
//! let params = RankParams::default(); // α = 0.25, as in the paper's experiments
//! let scores = RoundTripRank::new(params).compute(&g, &Query::single(ids.t1)).unwrap();
//! // v2 is both important and specific, so it beats v1 and v3 (paper Sect. III-A).
//! assert!(scores.score(ids.v2) > scores.score(ids.v1));
//! assert!(scores.score(ids.v2) > scores.score(ids.v3));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bca;
pub mod enumerate;
pub mod error;
pub mod frank;
pub mod iterative;
pub mod measure;
pub mod params;
pub mod query;
pub mod rtr;
pub mod rtr_plus;
pub mod scores;
pub mod trank;
pub mod walk;
pub mod workspace;

pub use error::CoreError;
pub use measure::{Measure, MeasureKey};
pub use params::RankParams;
pub use query::Query;
pub use scores::ScoreVec;
pub use workspace::BcaWorkspace;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::bca::Bca;
    pub use crate::error::CoreError;
    pub use crate::frank::FRank;
    pub use crate::measure::Measure;
    pub use crate::params::RankParams;
    pub use crate::query::Query;
    pub use crate::rtr::RoundTripRank;
    pub use crate::rtr_plus::RoundTripRankPlus;
    pub use crate::scores::ScoreVec;
    pub use crate::trank::TRank;
    pub use crate::walk::WalkLength;
    pub use crate::workspace::BcaWorkspace;
}
