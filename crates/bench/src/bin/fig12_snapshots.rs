//! Reproduces paper Fig. 12: active-set size and query time of distributed
//! 2SBound on five cumulative snapshots of each growing graph, with the
//! i-th snapshot served by i graph processors (ε = 0.01, K = 10).

use rtr_bench::snapshots::{measure_prepared, measure_snapshots, print_snapshot_table};
use rtr_bench::{bibnet, qlog, test_queries};
use rtr_graph::prelude::GrowthSchedule;

fn main() {
    let n_queries = test_queries(10);
    println!("=== Fig. 12: active set & query time on growing snapshots ===");
    println!("(queries per snapshot: {n_queries}; paper used 1000; ε = 0.01, K = 10)");

    let net = bibnet();
    // BibNet snapshots keep all entities + a growing paper prefix.
    let fractions = GrowthSchedule::paper_default().fractions;
    let snaps: Vec<_> = net
        .growth_snapshots(&fractions)
        .into_iter()
        .map(|s| s.graph)
        .collect();
    let rows = measure_prepared(&snaps, n_queries);
    print_snapshot_table("BibNet", &rows);
    let last = rows.last().expect("snapshots");
    println!(
        "BibNet largest snapshot: active set = {:.2}% of snapshot (paper: ~0.3%)",
        last.active_kb / last.snapshot_kb * 100.0
    );

    let qlg = qlog();
    let rows = measure_snapshots(&qlg.graph, &qlg.edge_weights, n_queries);
    print_snapshot_table("QLog", &rows);
    let last = rows.last().expect("snapshots");
    println!(
        "QLog largest snapshot: active set = {:.2}% of snapshot \
         (paper: far smaller than BibNet's — lower average degree)",
        last.active_kb / last.snapshot_kb * 100.0
    );
}
