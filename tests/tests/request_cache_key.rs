//! Property suite: cache-key equality tracks output equivalence for the
//! per-request serving API.
//!
//! A result cache is only sound if equal keys imply bit-identical outputs;
//! it is only *useful* if the equivalences traffic actually exhibits —
//! order-permuted multi-node queries, repeated β bit patterns — collapse
//! to one key. Both directions are pinned here:
//!
//! * **soundness**: two requests with equal cache keys serve the same
//!   answer — resolved request, ranking, bound bits, expansions,
//!   convergence, active set, or typed error (the shared
//!   `assert_same_answer`, run on both through the serial reference);
//! * **usefulness**: permuting a weighted multi-node query never changes
//!   the key (requests canonicalize at construction), while changing any
//!   output-relevant field — measure, β bits, k, α — always does.
//!
//! The key has no backend component: where a result was computed is
//! provenance, not identity (a hit keeps the computing run's provenance,
//! pinned by `rtr-serve`'s engine tests).

use proptest::prelude::*;
use rtr_core::{Measure, Query, RankParams};
use rtr_graph::toy::fig2_toy;
use rtr_graph::NodeId;
use rtr_integration_tests::assert_same_answer;
use rtr_serve::{run_serial_requests, QueryRequest, ServeConfig};
use rtr_topk::TopKConfig;

// Node universe: the fig2 toy graph's ids (12 nodes).
const NODES: u32 = 12;

// The toy serving defaults every property resolves against.
fn defaults() -> ServeConfig {
    ServeConfig::default().with_topk(TopKConfig {
        k: 4,
        epsilon: 0.0,
        m_f: 4,
        m_t: 2,
        max_expansions: 500,
        ..TopKConfig::default()
    })
}

// A weighted pair list whose nodes are in range and weights positive.
fn pairs_strategy() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((0..NODES, 0.1f64..4.0), 1..5)
}

// The β values the properties draw from: the paper's sweep points.
const BETAS: [f64; 6] = [0.0, 0.25, 0.3, 0.5, 0.7, 1.0];

fn measure_strategy() -> impl Strategy<Value = Measure> {
    (0u8..6).prop_map(|tag| match tag {
        0 => Measure::F,
        1 => Measure::T,
        2 => Measure::Rtr,
        t => Measure::RtrPlus {
            beta: BETAS[t as usize],
        },
    })
}

fn beta_strategy() -> impl Strategy<Value = f64> {
    (0usize..BETAS.len()).prop_map(|i| BETAS[i])
}

fn request(pairs: &[(u32, f64)], measure: Measure, k: usize) -> QueryRequest {
    let weighted: Vec<(NodeId, f64)> = pairs.iter().map(|&(n, w)| (NodeId(n), w)).collect();
    QueryRequest::new(Query::weighted(&weighted).unwrap())
        .with_measure(measure)
        .with_k(k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Usefulness: weight-order normalization. Any permutation of the
    // pair list yields the same request and the same cache key.
    #[test]
    fn permuted_pairs_share_one_key(
        pairs in pairs_strategy(),
        rotation in 0usize..5,
        measure in measure_strategy(),
        k in 0usize..6,
    ) {
        let mut permuted = pairs.clone();
        let by = rotation % permuted.len().max(1);
        permuted.rotate_left(by);
        let a = request(&pairs, measure, k);
        let b = request(&permuted, measure, k);
        prop_assert!(a == b, "canonicalization must erase pair order");
        let cfg = defaults();
        prop_assert_eq!(
            a.resolve(&cfg).cache_key(1),
            b.resolve(&cfg).cache_key(1)
        );
    }

    // Usefulness: every output-relevant request field separates keys.
    #[test]
    fn output_relevant_fields_separate_keys(
        pairs in pairs_strategy(),
        k in 1usize..6,
    ) {
        let cfg = defaults();
        let key = |r: &QueryRequest| r.resolve(&cfg).cache_key(1);
        let base = request(&pairs, Measure::Rtr, k);

        // Measure separates.
        for other in [Measure::F, Measure::T, Measure::RtrPlus { beta: 0.5 }] {
            prop_assert_ne!(key(&base), key(&base.clone().with_measure(other)));
        }
        // k separates.
        prop_assert_ne!(key(&base), key(&base.clone().with_k(k + 1)));
        // α separates.
        prop_assert_ne!(
            key(&base),
            key(&base.clone().with_params(RankParams::with_alpha(0.4)))
        );
        // Epoch separates (a rebuilt graph invalidates by key).
        prop_assert_ne!(base.resolve(&cfg).cache_key(1), base.resolve(&cfg).cache_key(2));
    }

    // Usefulness: two RTR+ requests share a key exactly when their β bit
    // patterns agree.
    #[test]
    fn beta_bit_pattern_governs_key_equality(
        pairs in pairs_strategy(),
        b1 in beta_strategy(),
        b2 in beta_strategy(),
    ) {
        let cfg = defaults();
        let a = request(&pairs, Measure::RtrPlus { beta: b1 }, 4).resolve(&cfg).cache_key(1);
        let b = request(&pairs, Measure::RtrPlus { beta: b2 }, 4).resolve(&cfg).cache_key(1);
        prop_assert_eq!(a == b, b1.to_bits() == b2.to_bits());
    }
}

proptest! {
    // Engine runs are comparatively expensive: fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Soundness: equal cache keys imply bit-identical served results —
    // exercised end to end by permuting a request and serving both forms.
    #[test]
    fn equal_keys_serve_bit_identical_results(
        pairs in pairs_strategy(),
        rotation in 0usize..5,
        measure in measure_strategy(),
        k in 1usize..6,
    ) {
        let mut permuted = pairs.clone();
        let by = rotation % permuted.len().max(1);
        permuted.rotate_left(by);
        let a = request(&pairs, measure, k);
        let b = request(&permuted, measure, k);
        let cfg = defaults();
        prop_assert_eq!(a.resolve(&cfg).cache_key(1), b.resolve(&cfg).cache_key(1));

        let (g, _) = fig2_toy();
        let served = run_serial_requests(&g, &cfg, &[a, b]);
        assert_same_answer("permuted request", &served[1], &served[0]);
    }

    // Soundness across independently drawn requests: whenever two
    // arbitrary requests happen to collide on a key, their outputs agree
    // bit for bit.
    #[test]
    fn key_collisions_are_always_output_equivalent(
        p1 in pairs_strategy(),
        p2 in pairs_strategy(),
        m1 in measure_strategy(),
        m2 in measure_strategy(),
        k1 in 1usize..4,
        k2 in 1usize..4,
    ) {
        let cfg = defaults();
        let a = request(&p1, m1, k1);
        let b = request(&p2, m2, k2);
        if a.resolve(&cfg).cache_key(1) == b.resolve(&cfg).cache_key(1) {
            let (g, _) = fig2_toy();
            let served = run_serial_requests(&g, &cfg, &[a, b]);
            assert_same_answer("key collision", &served[1], &served[0]);
        }
    }
}
