//! Shared snapshot measurement used by the Fig. 12 and Fig. 13 binaries.

use crate::{mean_ci99, seed, time_it};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::RankParams;
use rtr_distributed::{DistributedTwoSBound, GpCluster};
use rtr_graph::prelude::*;
use rtr_graph::{Graph, NodeId};
use rtr_topk::TopKConfig;

/// Measurements for one snapshot.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotRow {
    /// 1-based snapshot index (the i-th snapshot runs on i GPs).
    pub index: usize,
    /// Snapshot node count.
    pub nodes: usize,
    /// Snapshot resident size in KB.
    pub snapshot_kb: f64,
    /// Mean active-set size in KB (± half-CI).
    pub active_kb: f64,
    /// 99% CI half-width of the active-set size.
    pub active_ci: f64,
    /// Mean query time in ms.
    pub query_ms: f64,
    /// 99% CI half-width of the query time.
    pub query_ci: f64,
}

/// Run distributed 2SBound over prepared cumulative snapshot graphs (the
/// i-th snapshot on i GPs, ε = 0.01, K = 10) and report per-snapshot
/// active-set sizes and query times.
pub fn measure_prepared(snaps: &[Graph], n_queries: usize) -> Vec<SnapshotRow> {
    let params = RankParams::default();
    let cfg = TopKConfig {
        k: 10,
        epsilon: 0.01,
        ..TopKConfig::default()
    };
    let mut rows = Vec::new();
    for (i, sg) in snaps.iter().enumerate() {
        let gps = i + 1;
        let cluster = GpCluster::spawn(sg, gps);
        let mut rng = ChaCha8Rng::seed_from_u64(seed() + 12 + i as u64);
        let mut pool: Vec<NodeId> = sg.nodes().filter(|&v| !sg.is_dangling(v)).collect();
        pool.shuffle(&mut rng);
        pool.truncate(n_queries);

        let runner = DistributedTwoSBound::new(params, cfg);
        let mut ws = rtr_distributed::DistributedWorkspace::new();
        let mut times = Vec::new();
        let mut actives = Vec::new();
        for &q in &pool {
            let ((_, stats), dt) =
                time_it(|| runner.run_with(&cluster, q, &mut ws).expect("query"));
            times.push(dt.as_secs_f64() * 1e3);
            actives.push(stats.active_bytes as f64 / 1024.0);
        }
        let (t_mean, t_ci) = mean_ci99(&times);
        let (a_mean, a_ci) = mean_ci99(&actives);
        rows.push(SnapshotRow {
            index: i + 1,
            nodes: sg.node_count(),
            snapshot_kb: sg.memory_bytes() as f64 / 1024.0,
            active_kb: a_mean,
            active_ci: a_ci,
            query_ms: t_mean,
            query_ci: t_ci,
        });
    }
    rows
}

/// Five cumulative prefix snapshots of `g` under the paper's default growth
/// schedule (valid when node ids are chronological, e.g. QLog), each
/// renormalised from `g`'s raw `weights`.
pub fn prefix_snapshot_graphs(g: &Graph, weights: &EdgeWeights) -> Vec<Graph> {
    GrowthSchedule::paper_default()
        .snapshots(g, weights)
        .into_iter()
        .map(|s| s.graph)
        .collect()
}

/// Convenience: measure prefix snapshots of `g` directly.
pub fn measure_snapshots(g: &Graph, weights: &EdgeWeights, n_queries: usize) -> Vec<SnapshotRow> {
    measure_prepared(&prefix_snapshot_graphs(g, weights), n_queries)
}

/// Print the Fig. 12-style table for a dataset.
pub fn print_snapshot_table(name: &str, rows: &[SnapshotRow]) {
    println!("\n--- {name} snapshots ---");
    println!(
        "{:>4} {:>5} {:>12} {:>14} {:>20} {:>18}",
        "snap", "GPs", "nodes", "snapshot KB", "active set KB ±CI", "query ms ±CI"
    );
    for r in rows {
        println!(
            "{:>4} {:>5} {:>12} {:>14.0} {:>14.1}±{:<5.1} {:>12.2}±{:<5.2}",
            r.index,
            r.index,
            r.nodes,
            r.snapshot_kb,
            r.active_kb,
            r.active_ci,
            r.query_ms,
            r.query_ci
        );
    }
}
