//! Venue search (paper Task B / Figs. 1, 6, 7): given a topic as a bundle
//! of term nodes, find matching venues — and see how the three measures
//! disagree.
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example venue_search
//! ```

use rtr_core::prelude::*;
use rtr_datagen::{BibNet, BibNetConfig};

fn main() {
    let net = BibNet::generate(&BibNetConfig::small(), 7);
    let (g, labels) = (&net.graph, &net.labels);
    let params = RankParams::default();
    let venue_ty = net.venue_type();

    // "spatio temporal data" in the synthetic world: three terms of topic 2.
    let topic = 2;
    let terms: Vec<_> = net.topic_terms(topic).into_iter().take(3).collect();
    let query = Query::uniform(&terms);
    println!(
        "query: {:?} (topic {topic})",
        terms
            .iter()
            .map(|&t| labels.label(g, t))
            .collect::<Vec<_>>()
    );

    let f = FRank::new(params).compute(g, &query).expect("F-Rank");
    let t = TRank::new(params).compute(g, &query).expect("T-Rank");
    let r = f.hadamard(&t); // r ∝ f·t, Prop. 2

    let show = |name: &str, s: &ScoreVec| {
        println!("\n{name}:");
        for v in s
            .filtered_ranking(g, venue_ty, query.nodes())
            .into_iter()
            .take(5)
        {
            println!("  {:<28} score {:.3e}", labels.label(g, v), s.score(v));
        }
    };
    show("(a) importance only — F-Rank/PPR", &f);
    show("(b) specificity only — T-Rank", &t);
    show("(c) balanced — RoundTripRank", &r);

    // The venue-submission scenario of Task B: important venues are sought
    // after, so bias toward importance with a small β.
    let submit = RoundTripRankPlus::new(params, 0.25)
        .expect("β in range")
        .compute(g, &query)
        .expect("compute");
    show(
        "(d) 'submit my best work' — RoundTripRank+ (β = 0.25)",
        &submit,
    );

    // The background-reading scenario: specific sources preferred.
    let learn = RoundTripRankPlus::new(params, 0.75)
        .expect("β in range")
        .compute(g, &query)
        .expect("compute");
    show(
        "(e) 'build background on the topic' — RoundTripRank+ (β = 0.75)",
        &learn,
    );
}
