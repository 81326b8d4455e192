//! Query-log applications (paper Tasks C & D): relevant URLs and equivalent
//! search phrases for the same query phrase, from one graph, with two
//! different trade-offs.
//!
//! Task C wants *important* URLs ("users often prefer important URLs for
//! monetary transactions"); Task D wants *specific* phrases ("equivalent
//! phrases are inherently specific"). Same measure, different β.
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example query_log
//! ```

use rtr_core::prelude::*;
use rtr_datagen::{QLog, QLogConfig};

fn main() {
    let qlog = QLog::generate(&QLogConfig::small(), 23);
    let (g, labels) = (&qlog.graph, &qlog.labels);
    let params = RankParams::default();

    // Pick a phrase with several equivalents as the user's search.
    let &phrase = qlog
        .phrases
        .iter()
        .find(|&&p| qlog.equivalents(p).len() >= 2)
        .expect("some phrase with equivalents");
    println!("searched phrase: {}", labels.label(g, phrase));

    let query = Query::single(phrase);
    let f = FRank::new(params).compute(g, &query).expect("F-Rank");
    let t = TRank::new(params).compute(g, &query).expect("T-Rank");

    // Task C: relevant URLs, importance-leaning (β < 0.5).
    let urls = RoundTripRankPlus::new(params, 0.3)
        .expect("β in range")
        .blend(&f, &t);
    println!("\nTask C — relevant URLs (β = 0.3, importance-leaning):");
    for v in urls
        .filtered_ranking(g, qlog.url_type(), query.nodes())
        .into_iter()
        .take(5)
    {
        let marker = if qlog.portals.contains(&v) {
            "  [portal]"
        } else {
            ""
        };
        println!("  {}{marker}", labels.label(g, v));
    }

    // Task D: equivalent phrases, specificity-leaning (β > 0.5).
    let phrases = RoundTripRankPlus::new(params, 0.7)
        .expect("β in range")
        .blend(&f, &t);
    println!("\nTask D — equivalent phrases (β = 0.7, specificity-leaning):");
    let truth = qlog.equivalents(phrase);
    for v in phrases
        .filtered_ranking(g, qlog.phrase_type(), query.nodes())
        .into_iter()
        .take(5)
    {
        let marker = if truth.contains(&v) {
            "  [true equivalent]"
        } else {
            ""
        };
        println!("  {}{marker}", labels.label(g, v));
    }

    // Quantify: how many true equivalents land in the top-5 under each β?
    let hits = |scores: &ScoreVec| {
        scores
            .filtered_ranking(g, qlog.phrase_type(), query.nodes())
            .into_iter()
            .take(5)
            .filter(|v| truth.contains(v))
            .count()
    };
    println!(
        "\ntrue equivalents in top-5: β=0.3 → {}, β=0.7 → {} (of {})",
        hits(
            &RoundTripRankPlus::new(params, 0.3)
                .expect("β")
                .blend(&f, &t)
        ),
        hits(
            &RoundTripRankPlus::new(params, 0.7)
                .expect("β")
                .blend(&f, &t)
        ),
        truth.len()
    );
}
