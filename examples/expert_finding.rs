//! Expert finding (paper Task A): given a paper, who should review it?
//!
//! The paper's analysis: "Reviewers balanced between importance and
//! specificity are preferred. An important but broad expert may miss some
//! latest development, while a very specific researcher like a student may
//! lack authoritativeness." — i.e. β ≈ 0.5.
//!
//! The β sweep ranks every node, so it runs offline on the exact
//! RoundTripRank+ engine, as Fig. 8's sweep does. The online variant at
//! the end goes through a `ServeEngine`: a top-K request runs 2SBound and
//! touches only a neighborhood of the graph.
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example expert_finding
//! ```

use rtr_core::prelude::*;
use rtr_datagen::{BibNet, BibNetConfig};
use rtr_serve::{QueryRequest, ServeConfig, ServeEngine};
use rtr_topk::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), CoreError> {
    let net = BibNet::generate(&BibNetConfig::small(), 11);
    let g = Arc::new(net.graph.clone());
    let author_ty = net.author_type();

    // Pick a paper with several authors as the submission under review.
    let (idx, &paper) = net
        .papers
        .iter()
        .enumerate()
        .find(|(i, _)| net.paper_authors[*i].len() >= 2)
        .expect("some multi-author paper");
    println!(
        "submission: {} (topic {}), by {:?}",
        net.labels.label(&g, paper),
        net.paper_topic[idx],
        net.paper_authors[idx]
            .iter()
            .map(|&a| net.labels.label(&g, a))
            .collect::<Vec<_>>()
    );

    // Exclude the paper's own authors — they are conflicted, and in the
    // evaluation protocol they are the reserved ground truth.
    let mut exclude = vec![paper];
    exclude.extend_from_slice(&net.paper_authors[idx]);

    // Every trade-off ranks the whole graph exactly; we filter to authors.
    let sweeps = [
        ("broad authority (β=0.1)", 0.1),
        ("balanced reviewer (β=0.5)", 0.5),
        ("narrow specialist (β=0.9)", 0.9),
    ];
    let params = RankParams::default();
    println!("\nreviewer candidates under different trade-offs:");
    for (label, beta) in sweeps {
        let scores = RoundTripRankPlus::new(params, beta)?.compute(&g, &Query::single(paper))?;
        let names: Vec<&str> = scores
            .top_k(g.node_count())
            .iter()
            .filter(|&&v| g.node_type(v) == author_ty && !exclude.contains(&v))
            .take(4)
            .map(|&v| net.labels.label(&g, v))
            .collect();
        println!("  {label:<28} {names:?}");
    }

    // Online variant through a serving pool: a top-K RoundTripRank request
    // runs 2SBound and touches only a neighborhood of the graph — here
    // over *all* node types; filter as needed.
    let engine = ServeEngine::start(Arc::clone(&g), ServeConfig::default().with_workers(2));
    let response = engine
        .submit(QueryRequest::node(paper).with_topk(TopKConfig::default()))
        .wait();
    let result = response.result.as_ref().expect("top-k");
    println!(
        "\n2SBound touched {} of {} nodes ({:.1}% of the graph, {} expansions)",
        result.active.active_nodes,
        g.node_count(),
        result.active.active_nodes as f64 / g.node_count() as f64 * 100.0,
        result.expansions
    );
    Ok(())
}
