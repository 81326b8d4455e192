//! Reproduces paper Fig. 13: rate of growth of the snapshot size, active-set
//! size and query time, each normalized to its value on the first snapshot —
//! demonstrating that the active set (and hence query time) grows far slower
//! than the graph, as the `O(D̄ + D̄²)` analysis of Sect. V-B1 predicts.

use rtr_bench::snapshots::{measure_prepared, measure_snapshots};
use rtr_bench::{bibnet, qlog, test_queries};
use rtr_graph::prelude::GrowthSchedule;
use rtr_graph::stats::fit_densification;

fn print_growth(name: &str, rows: &[rtr_bench::snapshots::SnapshotRow]) {
    let first = &rows[0];
    println!("\n--- {name}: growth normalized to snapshot 1 ---");
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "snap", "snapshot", "active set", "query time"
    );
    for r in rows {
        println!(
            "{:>4} {:>11.1}x {:>11.1}x {:>11.1}x",
            r.index,
            r.snapshot_kb / first.snapshot_kb,
            r.active_kb / first.active_kb,
            r.query_ms / first.query_ms
        );
    }
    let last = rows.last().expect("rows");
    println!(
        "overall: snapshot ×{:.1}, active set ×{:.1}, query time ×{:.1} \
         (paper BibNet: ×7.4 / ×1.9 / similar-to-active-set)",
        last.snapshot_kb / first.snapshot_kb,
        last.active_kb / first.active_kb,
        last.query_ms / first.query_ms
    );
    // Densification-law fit, the paper's analytical backbone (Sect. V-B1).
    let pts: Vec<(usize, f64)> = rows
        .iter()
        .map(|r| (r.nodes, r.snapshot_kb / r.nodes as f64))
        .collect();
    let (c, a) = fit_densification(&pts);
    println!("densification fit D̄ ≈ c·|V|^(a-1): c = {c:.3}, a = {a:.3} (paper: 1 < a < 2)");
}

fn main() {
    let n_queries = test_queries(10);
    println!("=== Fig. 13: rate of growth (snapshot vs active set vs query time) ===");
    println!("(queries per snapshot: {n_queries}; paper used 1000)");

    let net = bibnet();
    let fractions = GrowthSchedule::paper_default().fractions;
    let snaps: Vec<_> = net
        .growth_snapshots(&fractions)
        .into_iter()
        .map(|s| s.graph)
        .collect();
    print_growth("BibNet", &measure_prepared(&snaps, n_queries));

    let qlg = qlog();
    print_growth(
        "QLog",
        &measure_snapshots(&qlg.graph, &qlg.edge_weights, n_queries),
    );
}
