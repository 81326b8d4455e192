//! Configuration of the top-K search.

use serde::{Deserialize, Serialize};

/// Parameters of a 2SBound run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopKConfig {
    /// Number of desired results K (the paper's efficiency study uses 10).
    pub k: usize,
    /// Slack ε of the approximate top-K conditions (Eq. 13–14). ε = 0
    /// demands the exact top-K; the paper sweeps ε ∈ {0.01, 0.02, 0.03}.
    pub epsilon: f64,
    /// Expansion granularity for the f-neighborhood (paper: m = 100,
    /// "the performance is not sensitive to small changes in m").
    pub m_f: usize,
    /// Expansion granularity for the t-neighborhood (paper: m = 5 border
    /// nodes per expansion).
    pub m_t: usize,
    /// Stage II refinement: stop when the largest bound change in a sweep
    /// falls below this.
    pub refine_tolerance: f64,
    /// Stage II refinement: hard cap on sweeps per expansion.
    pub refine_max_sweeps: usize,
    /// Safety cap on expansion rounds (the loop normally exits via the
    /// top-K conditions; ties at ε = 0 would otherwise never separate).
    pub max_expansions: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        Self {
            k: 10,
            epsilon: 0.01,
            m_f: 100,
            m_t: 5,
            refine_tolerance: 1e-12,
            refine_max_sweeps: 50,
            max_expansions: 10_000,
        }
    }
}

impl TopKConfig {
    /// A small-neighborhood configuration for toy graphs in tests.
    pub fn toy() -> Self {
        Self {
            k: 5,
            epsilon: 0.0,
            m_f: 4,
            m_t: 2,
            max_expansions: 500,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TopKConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.m_f, 100);
        assert_eq!(c.m_t, 5);
        assert!((c.epsilon - 0.01).abs() < 1e-12);
    }
}
