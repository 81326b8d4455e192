//! Reproduces the illustrative rankings of paper Figs. 1, 6 and 7: the top-5
//! venues for a multi-term topic query under F-Rank, T-Rank and
//! RoundTripRank side by side.
//!
//! The paper's queries are "spatio temporal data" and "semantic web"; on the
//! synthetic BibNet the analogue is a bundle of same-topic term nodes. The
//! expected *shape* (paper Sect. VI-A1): F-Rank surfaces broad flagship
//! venues, T-Rank surfaces niche venues of the queried topic, and
//! RoundTripRank mixes both with balanced venues in between.

use rtr_bench::bibnet;
use rtr_core::prelude::*;

fn main() {
    let net = bibnet();
    let (g, labels) = (&net.graph, &net.labels);
    let p = RankParams::default();
    let venue_ty = net.venue_type();

    for topic in [0usize, 1] {
        // A 3-term query from one topic, mirroring "spatio temporal data".
        let terms = net.topic_terms(topic);
        let query_terms: Vec<_> = terms.iter().take(3).copied().collect();
        let query = Query::uniform(&query_terms);
        let term_labels: Vec<&str> = query_terms.iter().map(|&t| labels.label(g, t)).collect();
        println!("\n=== Query: topic-{topic} terms {term_labels:?} ===");

        let f = FRank::new(p).compute(g, &query).expect("F-Rank");
        let t = TRank::new(p).compute(g, &query).expect("T-Rank");
        let r = RoundTripRank::new(p).compute(g, &query).expect("RTR");

        let top = |s: &ScoreVec| -> Vec<String> {
            s.filtered_ranking(g, venue_ty, query.nodes())
                .into_iter()
                .take(5)
                .map(|v| labels.label(g, v).to_owned())
                .collect()
        };
        let (ft, tt, rt) = (top(&f), top(&t), top(&r));
        println!(
            "{:<26} {:<26} {:<26}",
            "(a) F-Rank/PPR", "(b) T-Rank", "(c) RoundTripRank"
        );
        for i in 0..5 {
            println!(
                "{:<26} {:<26} {:<26}",
                ft.get(i).map(String::as_str).unwrap_or("-"),
                tt.get(i).map(String::as_str).unwrap_or("-"),
                rt.get(i).map(String::as_str).unwrap_or("-"),
            );
        }

        // Quantify the paper's qualitative claim.
        let flagship_frac = |labels: &[String]| {
            labels.iter().filter(|l| l.contains("flagship")).count() as f64
                / labels.len().max(1) as f64
        };
        println!(
            "flagship share: F-Rank {:.0}%  T-Rank {:.0}%  RTR {:.0}%  \
             (expect F high, T low, RTR in between)",
            flagship_frac(&ft) * 100.0,
            flagship_frac(&tt) * 100.0,
            flagship_frac(&rt) * 100.0
        );
    }
}
