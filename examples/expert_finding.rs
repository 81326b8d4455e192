//! Expert finding (paper Task A): given a paper, who should review it?
//!
//! The paper's analysis: "Reviewers balanced between importance and
//! specificity are preferred. An important but broad expert may miss some
//! latest development, while a very specific researcher like a student may
//! lack authoritativeness." — i.e. β ≈ 0.5.
//!
//! Serving-style: the whole β sweep goes through **one** `ServeEngine` as
//! per-request `QueryRequest`s — the pool dispatches each β to the right
//! engine path, so a reviewer-matching service never needs one engine per
//! trade-off setting.
//!
//! ```sh
//! cargo run --release -p rtr-examples --bin expert_finding
//! ```

use rtr_core::prelude::*;
use rtr_datagen::{BibNet, BibNetConfig};
use rtr_serve::{QueryRequest, ServeConfig, ServeEngine};
use rtr_topk::prelude::*;
use std::sync::Arc;

fn main() {
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
        g.label(paper),
        net.paper_topic[idx],
        net.paper_authors[idx]
            .iter()
            .map(|&a| g.label(a))
            .collect::<Vec<_>>()
    );

    // Exclude the paper's own authors — they are conflicted, and in the
    // evaluation protocol they are the reserved ground truth.
    let mut exclude = vec![paper];
    exclude.extend_from_slice(&net.paper_authors[idx]);

    // One pool serves every trade-off. A full ranking (k = |V|) dispatches
    // to the exact engine — zero-width bounds — and we filter to authors.
    let engine = ServeEngine::start(Arc::clone(&g), ServeConfig::default().with_workers(2));
    let sweeps = [
        ("broad authority (β=0.1)", 0.1),
        ("balanced reviewer (β=0.5)", 0.5),
        ("narrow specialist (β=0.9)", 0.9),
    ];
    let requests: Vec<QueryRequest> = sweeps
        .iter()
        .map(|&(_, beta)| {
            QueryRequest::node(paper)
                .with_measure(Measure::RtrPlus { beta })
                .with_k(g.node_count())
        })
        .collect();
    let responses = engine.run_requests(&requests);

    println!("\nreviewer candidates under different trade-offs:");
    for ((label, _), response) in sweeps.iter().zip(&responses) {
        let ranking = &response.result.as_ref().expect("compute").ranking;
        let names: Vec<&str> = ranking
            .iter()
            .filter(|&&v| g.node_type(v) == author_ty && !exclude.contains(&v))
            .take(4)
            .map(|&v| g.label(v))
            .collect();
        println!("  {label:<28} {names:?}");
    }

    // Online variant through the same pool: a top-K RoundTripRank request
    // runs 2SBound and touches only a neighborhood of the graph — here
    // over *all* node types; filter as needed.
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
}
