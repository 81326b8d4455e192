//! The computational schemes compared in the efficiency study (Fig. 11a).
//!
//! * **Naive** — the exact iterative method (paper Eq. 5 + 8), multiple full
//!   passes over the graph per query; no ε.
//! * **G+S** — Gupta et al.'s bounds for F-Rank + Sarkar et al.'s method for
//!   T-Rank ("their respective state-of-the-art algorithms").
//! * **Gupta** — G+S but with the paper's two-stage framework for T-Rank.
//! * **Sarkar** — G+S but with the paper's two-stage framework for F-Rank.
//! * **2SBound** — the paper's full scheme on both neighborhoods.

use crate::active_set::ActiveSetStats;
use crate::fbound::FBoundMode;
use crate::tbound::TBoundMode;
use crate::two_sbound::{TopKResult, TopKWork};
use rtr_core::prelude::*;
use rtr_graph::{Graph, NodeId};

/// Which bound realizations a run uses (the Fig. 11a ablation grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Full 2SBound: Prop. 4 + Stage II for F, border + Stage II for T.
    TwoSBound,
    /// Gupta bounds for F (no Stage II), Sarkar single-sweep for T.
    GPlusS,
    /// Gupta bounds for F (no Stage II), our two-stage for T.
    Gupta,
    /// Our two-stage for F, Sarkar single-sweep for T.
    Sarkar,
}

impl Scheme {
    /// The F-Rank realization this scheme uses.
    pub fn f_mode(&self) -> FBoundMode {
        match self {
            Scheme::TwoSBound | Scheme::Sarkar => FBoundMode::TwoStage,
            Scheme::GPlusS | Scheme::Gupta => FBoundMode::Gupta,
        }
    }

    /// The T-Rank realization this scheme uses.
    pub fn t_mode(&self) -> TBoundMode {
        match self {
            Scheme::TwoSBound | Scheme::Gupta => TBoundMode::TwoStage,
            Scheme::GPlusS | Scheme::Sarkar => TBoundMode::Sarkar,
        }
    }

    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::TwoSBound => "2SBound",
            Scheme::GPlusS => "G+S",
            Scheme::Gupta => "Gupta",
            Scheme::Sarkar => "Sarkar",
        }
    }

    /// All schemes in the paper's Fig. 11a order (weakest first).
    pub fn all() -> [Scheme; 4] {
        [
            Scheme::GPlusS,
            Scheme::Gupta,
            Scheme::Sarkar,
            Scheme::TwoSBound,
        ]
    }
}

/// The Naive baseline: exact RoundTripRank by full iterative computation,
/// then take the top K.
#[derive(Clone, Copy, Debug)]
pub struct NaiveTopK {
    params: RankParams,
    k: usize,
}

impl NaiveTopK {
    /// Create for the given parameters and K.
    pub fn new(params: RankParams, k: usize) -> Self {
        NaiveTopK { params, k }
    }

    /// Compute the exact top-K (bounds collapse to the exact scores; the
    /// "active set" is the entire graph, which is precisely the baseline's
    /// weakness).
    pub fn run(&self, g: &Graph, q: NodeId) -> Result<TopKResult, CoreError> {
        let scores = RoundTripRank::new(self.params).compute(g, &Query::single(q))?;
        let active = ActiveSetStats::measure_pair(g, g.nodes(), g.nodes(), |_| true);
        Ok(TopKResult::exact(
            &scores,
            self.k,
            active,
            TopKWork::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::toy::fig2_toy;

    #[test]
    fn scheme_modes() {
        assert_eq!(Scheme::TwoSBound.f_mode(), FBoundMode::TwoStage);
        assert_eq!(Scheme::TwoSBound.t_mode(), TBoundMode::TwoStage);
        assert_eq!(Scheme::GPlusS.f_mode(), FBoundMode::Gupta);
        assert_eq!(Scheme::GPlusS.t_mode(), TBoundMode::Sarkar);
        assert_eq!(Scheme::Gupta.f_mode(), FBoundMode::Gupta);
        assert_eq!(Scheme::Gupta.t_mode(), TBoundMode::TwoStage);
        assert_eq!(Scheme::Sarkar.f_mode(), FBoundMode::TwoStage);
        assert_eq!(Scheme::Sarkar.t_mode(), TBoundMode::Sarkar);
    }

    #[test]
    fn names_match_paper_legend() {
        let names: Vec<&str> = Scheme::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["G+S", "Gupta", "Sarkar", "2SBound"]);
    }

    #[test]
    fn naive_returns_exact_ranking() {
        let (g, ids) = fig2_toy();
        let result = NaiveTopK::new(RankParams::default(), 5)
            .run(&g, ids.t1)
            .unwrap();
        assert_eq!(result.ranking.len(), 5);
        assert_eq!(result.ranking[0], ids.t1);
        // Exact bounds: zero width.
        for &(lo, hi) in &result.bounds {
            assert_eq!(lo, hi);
        }
        // Naive touches everything: active set is the whole graph.
        assert_eq!(result.active.active_nodes, g.node_count());
    }
}
