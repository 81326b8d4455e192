//! Bring your own graph: load a tab-separated node/edge list, repair it to
//! irreducibility, and run the online β-weighted top-K (`TwoSBoundPlus`) —
//! the full adoption path for a downstream user with real data.
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example custom_graph [path/to/graph.tsv]
//! ```
//!
//! Without an argument, a small citation-flavored TSV is generated in a
//! temp file first, so the example is self-contained.

use rtr_core::prelude::*;
use rtr_graph::io::{read_graph, write_graph};
use rtr_graph::prelude::*;
use rtr_topk::prelude::*;
use std::fs::File;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        // Self-contained demo input: a mini citation web.
        let path = std::env::temp_dir().join("rtr_custom_graph_demo.tsv");
        let (g, weights, labels, _) = rtr_graph::toy::fig2_toy_with_columns();
        let file = File::create(&path).expect("create demo file");
        write_graph(&g, &weights, &labels, file).expect("write demo");
        path.to_string_lossy().into_owned()
    });
    println!("loading graph from {path}");
    let (g, weights, labels) =
        read_graph(File::open(&path).expect("open input")).expect("parse graph");
    println!("loaded: {} nodes, {} edges", g.node_count(), g.edge_count());

    // Real data is rarely strongly connected; RoundTripRank needs return
    // paths, so repair with low-weight dummy edges (paper Sect. III-B).
    let (g, labels, added) = IrreducibilityRepair::default().repair(&g, &weights, &labels);
    if added > 0 {
        println!("irreducibility repair added {added} dummy edges");
    }

    // Query the first node with a label, or node 0.
    let q = g
        .nodes()
        .find(|&v| !labels.label(&g, v).is_empty())
        .unwrap_or(rtr_graph::NodeId(0));
    println!("query node: {} ({})", q, labels.label(&g, q));

    let params = RankParams::default();
    for beta in [0.25, 0.5, 0.75] {
        let topk = TwoSBoundPlus::new(
            params,
            TopKConfig {
                k: 5,
                epsilon: 0.001,
                ..TopKConfig::default()
            },
            beta,
        )
        .expect("β in range")
        .run(&g, q)
        .expect("top-k");
        println!(
            "\nβ = {beta}: top-5 (touched {} of {} nodes, {} expansions)",
            topk.active.active_nodes,
            g.node_count(),
            topk.expansions
        );
        for (v, (lo, hi)) in topk.ranking.iter().zip(&topk.bounds) {
            let label = match labels.label(&g, *v) {
                "" => format!("{v}"),
                label => label.to_owned(),
            };
            println!("  {label:<28} r_β ∈ [{lo:.3e}, {hi:.3e}]");
        }
    }
}
