//! Reproduces paper Fig. 4: every round trip on the Fig. 2 toy graph with
//! constant walk lengths L = L' = 2, grouped by target, plus the resulting
//! RoundTripRank values — and cross-checks them against the decomposed
//! computation (Prop. 2).

use rtr_core::enumerate::{round_trips, rtr_by_enumeration, rtr_constant};
use rtr_graph::toy::fig2_toy_with_columns;

fn main() {
    let (g, _, labels, ids) = fig2_toy_with_columns();
    println!("=== Fig. 4: round trips from t1 with constant L = L' = 2 ===\n");

    let trips = round_trips(&g, ids.t1, 2, 2);
    let mut by_target: std::collections::BTreeMap<u32, Vec<&_>> = Default::default();
    for t in &trips {
        by_target.entry(t.target.0).or_default().push(t);
    }

    println!(
        "{:<18} {:>8} {:>14} {:>16}",
        "target", "#trips", "p(each)", "sum ∝ r(t1,v)"
    );
    for (target, trips) in &by_target {
        let label = labels.label(&g, rtr_graph::NodeId(*target));
        let total: f64 = trips.iter().map(|t| t.probability).sum();
        println!(
            "{:<18} {:>8} {:>14.4} {:>16.4}",
            label,
            trips.len(),
            trips[0].probability,
            total
        );
    }

    // Show a few explicit trips, as the paper's table does.
    println!("\nSample round trips targeting v1:");
    for t in trips.iter().filter(|t| t.target == ids.v1).take(4) {
        let path: Vec<String> = t
            .nodes
            .iter()
            .map(|n| labels.label(&g, *n).to_owned())
            .collect();
        println!("  {}   p = {:.4}", path.join(" -> "), t.probability);
    }

    // Cross-check: enumeration == decomposed product (Prop. 2).
    let by_enum = rtr_by_enumeration(&g, ids.t1, 2, 2);
    let by_product = rtr_constant(&g, ids.t1, 2, 2);
    let gap = by_enum.linf_distance(&by_product);
    println!("\nProp. 2 check: |enumeration - f·t|_∞ = {gap:.2e} (expect ~0)");
    assert!(gap < 1e-12);

    // The paper's qualitative conclusion.
    println!("\nPaper's expected ordering: r(v2) > r(v1) = r(v3), t1 largest.");
    println!(
        "Measured: r(t1) = {:.4}, r(v2) = {:.4}, r(v1) = {:.4}, r(v3) = {:.4}",
        by_enum.score(ids.t1),
        by_enum.score(ids.v2),
        by_enum.score(ids.v1),
        by_enum.score(ids.v3),
    );
}
