//! Quickstart: build a graph, compute RoundTripRank, get a top-K.
//!
//! Uses the paper's own toy bibliographic network (Fig. 2) so the numbers
//! can be checked by hand against the paper's Sect. III.
//!
//! ```sh
//! cargo run -p rtr-examples --bin quickstart
//! ```

use rtr_core::prelude::*;
use rtr_serve::{QueryRequest, ServeConfig, ServeEngine};
use rtr_topk::prelude::*;

fn main() {
    // 1. Build a graph. Here: the paper's Fig. 2 toy network; in your code,
    //    add nodes/edges through GraphBuilder.
    let (g, ids) = rtr_graph::toy::fig2_toy();
    println!(
        "graph: {} nodes, {} directed edges",
        g.node_count(),
        g.edge_count()
    );

    // 2. Pick parameters. α = 0.25 is the paper's setting; walk lengths are
    //    geometric, so F-Rank ≡ Personalized PageRank.
    let params = RankParams::default();

    // 3. Score every node against a query. The query is the term t1; the
    //    three venues differ exactly as the paper describes.
    let query = Query::single(ids.t1);
    let parts = RoundTripRank::new(params)
        .compute_parts(&g, &query)
        .expect("toy graph is well-formed");

    println!(
        "\n        {:>10} {:>10} {:>12}",
        "f (imp.)", "t (spec.)", "r = f·t"
    );
    for (name, v) in [("v1", ids.v1), ("v2", ids.v2), ("v3", ids.v3)] {
        println!(
            "venue {name}: {:>10.4} {:>10.4} {:>12.6}",
            parts.f.score(v),
            parts.t.score(v),
            parts.r.score(v)
        );
    }
    println!(
        "\nv1 is important but unspecific, v3 specific but unimportant;\n\
         v2 balances both and wins — the paper's core claim."
    );
    assert!(parts.r.score(ids.v2) > parts.r.score(ids.v1));
    assert!(parts.r.score(ids.v2) > parts.r.score(ids.v3));

    // 4. Trade importance off against specificity with RoundTripRank+.
    for beta in [0.0, 0.5, 1.0] {
        let scores = RoundTripRankPlus::new(params, beta)
            .expect("β in range")
            .compute(&g, &query)
            .expect("compute");
        let venue_ty = g.types().get("venue").expect("registered");
        let top = scores.filtered_ranking(&g, venue_ty, query.nodes());
        let names: Vec<&str> = top.iter().take(3).map(|&v| g.label(v)).collect();
        println!("β = {beta}: venues ranked {names:?}");
    }

    // 5. Online top-K without touching the whole graph: 2SBound.
    let result = TwoSBound::new(
        params,
        TopKConfig {
            k: 3,
            epsilon: 0.0,
            ..TopKConfig::toy()
        },
    )
    .run(&g, ids.t1)
    .expect("top-k");
    println!(
        "\n2SBound exact top-3 (after {} expansions, active set {} nodes):",
        result.expansions, result.active.active_nodes
    );
    for (v, (lo, hi)) in result.ranking.iter().zip(&result.bounds) {
        println!("  {:<18} r ∈ [{lo:.6}, {hi:.6}]", g.label(*v));
    }

    // 6. Serve it all online: one worker pool answers every measure, with
    //    per-request β and k — that is what self-describing QueryRequests
    //    are for.
    let engine = ServeEngine::start(
        std::sync::Arc::new(g),
        ServeConfig::default()
            .with_workers(2)
            .with_topk(TopKConfig {
                k: 3,
                epsilon: 0.0,
                ..TopKConfig::toy()
            })
            .with_cache_capacity(256), // repeated requests become O(1) lookups
    );
    let responses = engine.run_requests(&[
        QueryRequest::node(ids.t1),                          // RoundTripRank
        QueryRequest::node(ids.t1).with_measure(Measure::F), // importance only
        QueryRequest::node(ids.t1).with_measure(Measure::RtrPlus { beta: 0.8 }),
        QueryRequest::nodes(&[ids.t1, ids.t2]).with_k(2), // multi-node query
    ]);
    println!("\none pool, four kinds of proximity query:");
    for r in &responses {
        let g = engine.graph();
        let top: Vec<&str> = r
            .result
            .as_ref()
            .expect("toy queries succeed")
            .ranking
            .iter()
            .map(|&v| g.label(v))
            .collect();
        println!(
            "  {:<28} top-{} {top:?} ({:.0}µs compute)",
            r.request.measure.to_string(),
            r.request.topk.k,
            r.compute.as_secs_f64() * 1e6
        );
    }
}
