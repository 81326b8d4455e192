//! Property suite pinning the `rtr-datagen` Zipf sampler.
//!
//! The benchmark's Zipf-mixed workload (`wire_mixed`) and the QLog/BibNet
//! generators all lean on this sampler producing the distribution it
//! claims: `p(k) ∝ 1/(k+1)^s` over ranks `0..n`. If sampling drifted from
//! the analytic pmf, the cache hit rates and speedups the benchmark
//! reports would be artifacts of a broken workload, not of serving. So:
//! across random support sizes, exponents, and seeds, empirical rank
//! frequencies over a large sample must match the pmf within a tolerance
//! set by the sample size.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rtr_datagen::Zipf;

/// Draws per empirical check. At 60k draws the standard error of any
/// single rank's frequency is at most `sqrt(0.25 / 60000) ≈ 0.002`, so the
/// absolute tolerance of 0.01 sits at ~5 sigma — seeds are fixed, but the
/// property should hold for any seed, not one lucky one.
const DRAWS: usize = 60_000;
const TOLERANCE: f64 = 0.01;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn empirical_frequencies_match_analytic_pmf(
        n in 1usize..48,
        s in 0.3f64..2.8,
        seed in 0u64..100_000
    ) {
        let z = Zipf::new(n, s);
        prop_assert_eq!(z.len(), n);

        // The pmf itself is a distribution: positive, sums to 1, strictly
        // decreasing in rank (s > 0).
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "pmf sums to {}", total);
        for k in 0..n {
            prop_assert!(z.pmf(k) > 0.0);
            if k + 1 < n {
                prop_assert!(z.pmf(k) > z.pmf(k + 1), "pmf not decreasing at {}", k);
            }
        }

        // Empirical frequencies from a seeded sample match it.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..DRAWS {
            let rank = z.sample(&mut rng);
            prop_assert!(rank < n, "sample {} out of support", rank);
            counts[rank] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / DRAWS as f64;
            prop_assert!(
                (freq - z.pmf(k)).abs() < TOLERANCE,
                "rank {}: freq {} vs pmf {} (n={}, s={})",
                k, freq, z.pmf(k), n, s
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed(
        n in 1usize..64,
        s in 0.3f64..2.8,
        seed in 0u64..100_000
    ) {
        let z = Zipf::new(n, s);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..64).map(|_| z.sample(&mut rng)).collect()
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }
}
