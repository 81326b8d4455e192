#![deny(missing_docs)]
//! # rtr-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Sect. VI). The
//! binaries print the same rows/series the paper reports. Serving
//! performance is measured elsewhere: `benchmark/` (declared by
//! `BENCHMARK.json`) is the repository's one benchmark.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Fig. 4 (toy round trips) | `fig04_toy` |
//! | Fig. 5 (mono-sensed NDCG) | `fig05_mono` |
//! | Figs. 1/6/7 (illustrative venues) | `fig06_illustrative` |
//! | Fig. 8 (β sweep) | `fig08_beta` |
//! | Fig. 9 (dual-sensed NDCG) | `fig09_dual` |
//! | Fig. 10 (customized baselines) | `fig10_custom` |
//! | Fig. 11 (efficiency & quality vs ε) | `fig11_efficiency` |
//! | Fig. 12 (snapshots: active set, time) | `fig12_snapshots` |
//! | Fig. 13 (growth rates) | `fig13_growth` |
//!
//! ## Environment knobs
//!
//! * `RTR_SCALE` — `tiny` | `small` (default) | `subgraph` | `full`:
//!   dataset size for the effectiveness binaries.
//! * `RTR_TEST_QUERIES` / `RTR_DEV_QUERIES` — query counts (paper: 1000 +
//!   1000; defaults are smaller so every binary finishes in CI time).
//! * `RTR_SEED` — master seed (default 2013, the paper's year).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod snapshots;

use rtr_datagen::{BibNet, BibNetConfig, QLog, QLogConfig};
use std::time::{Duration, Instant};

/// Dataset scale selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Hundreds of nodes (smoke tests).
    Tiny,
    /// Thousands of nodes (default; CI-friendly).
    Small,
    /// The paper's effectiveness-subgraph scale (tens of thousands).
    Subgraph,
    /// The efficiency-study scale (hundreds of thousands).
    Full,
}

impl Scale {
    /// Read from `RTR_SCALE` (default `small`).
    pub fn from_env() -> Self {
        match std::env::var("RTR_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("subgraph") => Scale::Subgraph,
            Ok("full") => Scale::Full,
            Ok("small") | Err(_) => Scale::Small,
            Ok(other) => panic!("unknown RTR_SCALE '{other}'"),
        }
    }

    /// The BibNet config at this scale.
    pub fn bibnet_config(self) -> BibNetConfig {
        match self {
            Scale::Tiny => BibNetConfig::tiny(),
            Scale::Small => BibNetConfig::small(),
            Scale::Subgraph => BibNetConfig::subgraph_scale(),
            Scale::Full => BibNetConfig::full_scale(),
        }
    }

    /// The QLog config at this scale.
    pub fn qlog_config(self) -> QLogConfig {
        match self {
            Scale::Tiny => QLogConfig::tiny(),
            Scale::Small => QLogConfig::small(),
            Scale::Subgraph => QLogConfig::subgraph_scale(),
            Scale::Full => QLogConfig::full_scale(),
        }
    }
}

/// Master seed (env `RTR_SEED`, default 2013).
pub fn seed() -> u64 {
    env_usize("RTR_SEED", 2013) as u64
}

/// Test query count (env `RTR_TEST_QUERIES`; paper used 1000).
pub fn test_queries(default: usize) -> usize {
    env_usize("RTR_TEST_QUERIES", default)
}

/// Dev query count (env `RTR_DEV_QUERIES`; paper used 1000).
pub fn dev_queries(default: usize) -> usize {
    env_usize("RTR_DEV_QUERIES", default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Build the BibNet dataset at the env-selected scale.
pub fn bibnet() -> BibNet {
    let scale = Scale::from_env();
    eprintln!("[rtr-bench] generating BibNet at {scale:?} scale...");
    let net = BibNet::generate(&scale.bibnet_config(), seed());
    eprintln!(
        "[rtr-bench] BibNet: {} nodes, {} edges",
        net.graph.node_count(),
        net.graph.edge_count()
    );
    net
}

/// Build the QLog dataset at the env-selected scale.
pub fn qlog() -> QLog {
    let scale = Scale::from_env();
    eprintln!("[rtr-bench] generating QLog at {scale:?} scale...");
    let q = QLog::generate(&scale.qlog_config(), seed() ^ 0x51_09);
    eprintln!(
        "[rtr-bench] QLog: {} nodes, {} edges",
        q.graph.node_count(),
        q.graph.edge_count()
    );
    q
}

/// Time a closure, returning `(result, elapsed)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Mean and 99% confidence half-width of a sample (the paper reports 99%
/// confidence intervals for query times and active-set sizes, Fig. 12).
pub fn mean_ci99(samples: &[f64]) -> (f64, f64) {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
    // z ≈ 2.576 for 99% (normal approximation; the paper's samples are large).
    (mean, 2.576 * (var / n).sqrt())
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of a sample by the nearest-rank
/// method on a sorted copy: the exact oracle the `obs_histogram` suite
/// holds the `rtr-obs` log-linear histogram's quantiles against.
///
/// Total on degenerate inputs: an **empty** sample returns 0, a **single**
/// sample is every percentile of itself, and `p` outside `[0, 100]` is
/// clamped rather than allowed to index out of bounds.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 99.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_zero_samples() {
        // No latencies (e.g. an all-warmup run): every percentile is 0.
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[], p), 0.0);
        }
    }

    #[test]
    fn percentile_one_sample() {
        // A single sample is its own p50, p99, and extremes.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[3.25], p), 3.25);
        }
    }

    #[test]
    fn percentile_two_samples() {
        let s = [10.0, 2.0]; // unsorted on purpose
        assert_eq!(percentile(&s, 0.0), 2.0);
        // Nearest-rank: ceil(0.50 * 2) = rank 1 -> the smaller sample.
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 50.1), 10.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
    }

    #[test]
    fn percentile_out_of_range_p_clamps() {
        let s = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&s, -5.0), 1.0);
        assert_eq!(percentile(&s, 250.0), 3.0);
    }

    #[test]
    fn scale_configs_grow() {
        let tiny = Scale::Tiny.bibnet_config();
        let small = Scale::Small.bibnet_config();
        let sub = Scale::Subgraph.bibnet_config();
        assert!(tiny.papers < small.papers);
        assert!(small.papers < sub.papers);
    }

    #[test]
    fn mean_ci_basics() {
        let (m, ci) = mean_ci99(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(m, 1.0);
        assert_eq!(ci, 0.0);
        let (m, ci) = mean_ci99(&[0.0, 2.0]);
        assert_eq!(m, 1.0);
        assert!(ci > 0.0);
    }

    #[test]
    fn timer_measures() {
        let (v, d) = time_it(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
