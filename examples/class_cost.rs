//! Per-class cost of the `wire_mixed` request identities, one at a time.
//!
//! The gated benchmark's oracle re-checks single-node RTR / RTR+ answers
//! only, so a slow or non-converged F, T or multi-node answer would pass
//! it silently. This example runs the 2 048 `wire_mixed` identities (the
//! benchmark's seed, pool, class pattern, k and ε) serially through
//! `ResolvedRequest::run` on one thread on qlog-26k and prints, per class,
//! expansions and milliseconds per query (p50 / p99 / max), the
//! `converged` fraction and an FNV-1a digest of the answers (ranking,
//! bound bits, expansions). A class whose engine path did not change
//! prints the same digest on every checkout. Exits non-zero unless every
//! class converged on every identity.
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example class_cost [seed]
//! ```

use rand::prelude::*;
use rand::SplitMix64;
use rand_chacha::ChaCha8Rng;
use rtr_core::{Measure, RankParams};
use rtr_datagen::{QLog, QLogConfig};
use rtr_serve::{QueryRequest, ServeConfig, ServeWorkspace};
use rtr_topk::TopKConfig;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's default `--seed`.
const SEED: u64 = 2013;
/// Identities in the `wire_mixed` table.
const IDENTITIES: usize = 2048;

/// Measure classes in the benchmark's fixed 40-slot pattern: 0 RTR,
/// 1 RTR+ β 0.7, 2 RTR+ β 0.45, 3 F, 4 T.
const CLASSES: [u8; 40] = [
    0, 3, 0, 1, 4, 0, 3, 0, 1, 4, 0, 2, 0, 1, 3, 0, 4, 1, 0, 3, //
    0, 4, 1, 0, 3, 4, 0, 1, 0, 3, 2, 4, 0, 1, 0, 3, 4, 0, 1, 0,
];

/// Independent sub-seed for one purpose (`tag`) of one run (`seed`), as
/// the benchmark derives it.
fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Nearest-rank percentile of a sorted sample.
fn pct(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// One class's readings.
#[derive(Default)]
struct Class {
    expansions: Vec<f64>,
    ms: Vec<f64>,
    converged: usize,
    digest: u64,
}

fn main() -> ExitCode {
    let seed = std::env::args()
        .nth(1)
        .map_or(SEED, |s| s.parse().expect("seed must be an integer"));
    let log = QLog::generate(&QLogConfig::subgraph_scale(), derive(seed, 1));
    let g = log.graph;
    let mut pool: Vec<_> = log
        .phrases
        .iter()
        .copied()
        .filter(|&v| !g.is_dangling(v))
        .collect();
    pool.shuffle(&mut ChaCha8Rng::seed_from_u64(derive(seed, 2)));
    let config = ServeConfig {
        params: RankParams::default(),
        topk: TopKConfig {
            k: 10,
            epsilon: 0.01,
            ..TopKConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut ws = ServeWorkspace::with_capacity(g.node_count());
    let mut classes: BTreeMap<String, Class> = BTreeMap::new();
    for rank in 0..IDENTITIES {
        let two = rank % 20 == 7;
        let request = if two {
            QueryRequest::nodes(&[pool[rank], pool[pool.len() - 1 - rank]])
        } else {
            QueryRequest::node(pool[rank])
        };
        let (request, name) = match CLASSES[rank % CLASSES.len()] {
            0 => (request, "RTR"),
            1 => (
                request.with_measure(Measure::RtrPlus { beta: 0.7 }),
                "RTR+ b0.7",
            ),
            2 => (
                request.with_measure(Measure::RtrPlus { beta: 0.45 }),
                "RTR+ b0.45",
            ),
            3 => (request.with_measure(Measure::F), "F"),
            _ => (request.with_measure(Measure::T), "T"),
        };
        let request = if rank % 2 == 1 {
            request.with_k(5)
        } else {
            request
        }
        .resolve(&config);
        let started = Instant::now();
        let result = request.run(&g, &mut ws).expect("query");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let class = classes
            .entry(format!("{}{name}", if two { "two-node " } else { "" }))
            .or_default();
        class.expansions.push(result.expansions as f64);
        class.ms.push(ms);
        class.converged += result.converged as usize;
        let words = result
            .ranking
            .iter()
            .map(|v| v.0 as u64)
            .chain(
                result
                    .bounds
                    .iter()
                    .flat_map(|&(lo, hi)| [lo.to_bits(), hi.to_bits()]),
            )
            .chain([result.expansions as u64]);
        for w in words {
            class.digest = (class.digest ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!(
        "{:<19} {:>4} | expansions p50 p99 max | ms p50 p99 max | converged | digest",
        "class", "n"
    );
    let mut all_converged = true;
    for (name, mut class) in classes {
        class.expansions.sort_by(f64::total_cmp);
        class.ms.sort_by(f64::total_cmp);
        let (ex, ms, n) = (&class.expansions, &class.ms, class.expansions.len());
        let converged = class.converged as f64 / n as f64;
        all_converged &= class.converged == n;
        println!(
            "{name:<19} {n:>4} | {:>4} {:>4} {:>4} | {:>7.3} {:>7.3} {:>7.3} | {converged:.3} | {:016x}",
            pct(ex, 0.5),
            pct(ex, 0.99),
            ex[n - 1],
            pct(ms, 0.5),
            pct(ms, 0.99),
            ms[n - 1],
            class.digest
        );
    }
    if all_converged {
        ExitCode::SUCCESS
    } else {
        eprintln!("some class did not converge on every identity");
        ExitCode::FAILURE
    }
}
