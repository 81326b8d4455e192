//! Per-class cost of the `wire_mixed` request identities, one at a time.
//!
//! The gated benchmark's oracle re-checks single-node RTR / RTR+ answers
//! only, so a slow or non-converged F, T or multi-node answer would pass
//! it silently. This example runs the 2 048 `wire_mixed` identities (the
//! benchmark's seed, pool, class pattern, k and ε) serially through
//! `ResolvedRequest::run` on one thread on qlog-26k and prints, per class,
//! expansions and milliseconds per query (p50 / p99 / max), the mean
//! eviction cost the result cache weighs an answer by (`EvictionCost`:
//! BCA pushes + T absorptions), the `converged` fraction and an FNV-1a
//! digest of the answers (ranking, bound bits, expansions). A class whose
//! engine path did not change prints the same digest on every checkout.
//! A second table gives each class's mean work per query from
//! `TopKResult::work`: rounds in which each side expanded, BCA pushes,
//! T absorptions, Stage II sweeps per side, and how often each Eq. 16
//! term bound.
//!
//! Every `N`-th identity (default 8) is also checked against the exact
//! fixed-point engine of its measure, on the same weighted query: every
//! returned `[lo, hi]` must bracket the exact score, and no node left out
//! may beat the K-th exact score by more than ε. The stride takes one
//! identity from each block of `N` consecutive ones, at offset
//! `block mod N`, so it walks through every class, both k and both
//! arities; `--exact-every 1` checks all of them (≈ 25 ms per exact side).
//! The same identities also run on a 2-GP cluster (the AP/GP backend): the
//! answer must be bit-identical to the local one (ranking, bound bits,
//! expansions, work) and the blocks the AP demanded must be exactly the
//! result's active set. Exits non-zero unless every class converged on
//! every identity, every checked identity passed both checks and every
//! answer has a non-zero eviction cost (a zero cost would make the cache
//! evict the answer first, whatever it cost).
//!
//! ```sh
//! cargo run --release -p rtr-integration-tests --example class_cost [seed] [--exact-every N]
//! ```

use rand::prelude::*;
use rand::SplitMix64;
use rand_chacha::ChaCha8Rng;
use rtr_cache::EvictionCost;
use rtr_core::prelude::{FRank, RoundTripRank, RoundTripRankPlus, TRank};
use rtr_core::{Measure, RankParams, ScoreVec};
use rtr_datagen::{QLog, QLogConfig};
use rtr_distributed::{DistributedTwoSBound, DistributedWorkspace, GpCluster};
use rtr_graph::Graph;
use rtr_serve::{QueryRequest, ResolvedRequest, ServeConfig};
use rtr_topk::{TopKConfig, TopKResult, TopKWork, TopKWorkspace, TwoSBound};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's default `--seed`.
const SEED: u64 = 2013;
/// Identities in the `wire_mixed` table.
const IDENTITIES: usize = 2048;
/// Default stride of the exact check.
const EXACT_EVERY: usize = 8;

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
    cost: u64,
    costless: usize,
    digest: u64,
    checked: usize,
    failed: usize,
    /// Checked identities whose distributed run broke its contract.
    dist_failed: usize,
    works: Vec<TopKWork>,
}

/// The exact scores of `request`'s measure on its (weighted) query.
fn exact_scores(g: &Graph, request: &ResolvedRequest) -> ScoreVec {
    let (p, q) = (request.params, &request.query);
    match request.measure {
        Measure::F => FRank::new(p).compute(g, q),
        Measure::T => TRank::new(p).compute(g, q),
        Measure::Rtr => RoundTripRank::new(p).compute(g, q),
        Measure::RtrPlus { beta } => RoundTripRankPlus::new(p, beta).and_then(|m| m.compute(g, q)),
    }
    .expect("exact engine")
}

/// Why `result` breaks its contract against the exact `scores`, if it
/// does: a reported `[lo, hi]` misses the exact score, or a node left out
/// beats the K-th exact score by more than ε.
fn contract_violation(
    g: &Graph,
    result: &TopKResult,
    scores: &ScoreVec,
    eps: f64,
) -> Option<String> {
    for (v, &(lo, hi)) in result.ranking.iter().zip(&result.bounds) {
        let s = scores.score(*v);
        if s < lo - 1e-9 || s > hi + 1e-9 {
            return Some(format!("{v:?}: exact {s} outside [{lo}, {hi}]"));
        }
    }
    let kth = scores.score(*result.ranking.last()?);
    g.nodes()
        .find(|v| !result.ranking.contains(v) && scores.score(*v) > kth + eps + 1e-9)
        .map(|v| {
            format!(
                "left out {v:?} ({}) beats the K-th ({kth}) by more than ε",
                scores.score(v)
            )
        })
}

/// Why `request`'s run on `cluster` differs from the `local` answer, if it
/// does: another ranking, bound bits, expansion count or work, or a set of
/// demanded blocks other than the active set.
fn distributed_violation(
    cluster: &GpCluster,
    ws: &mut DistributedWorkspace,
    request: &ResolvedRequest,
    local: &TopKResult,
) -> Option<String> {
    let search = TwoSBound::for_measure(request.params, request.topk, request.measure);
    let (dist, stats) = DistributedTwoSBound::from(search.expect("valid measure"))
        .run_query_with(cluster, &request.query, ws)
        .expect("distributed run");
    let bits = |r: &TopKResult| -> Vec<(u64, u64)> {
        r.bounds
            .iter()
            .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
            .collect()
    };
    if (&dist.ranking, bits(&dist), dist.expansions, dist.work)
        != (&local.ranking, bits(local), local.expansions, local.work)
    {
        return Some("distributed answer differs from the local one".into());
    }
    (stats.active_nodes != dist.active.active_nodes).then(|| {
        format!(
            "the AP demanded {} blocks for an active set of {}",
            stats.active_nodes, dist.active.active_nodes
        )
    })
}

fn main() -> ExitCode {
    let (mut seed, mut exact_every) = (SEED, EXACT_EVERY);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--exact-every" {
            let n = args.next().and_then(|n| n.parse().ok());
            exact_every = n
                .filter(|&n| n > 0)
                .expect("--exact-every takes a positive integer");
        } else {
            seed = arg.parse().expect("seed must be an integer");
        }
    }
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
    let mut ws = DistributedWorkspace::new();
    ws.topk = TopKWorkspace::with_capacity(g.node_count());
    let cluster = GpCluster::spawn(&g, 2);
    let mut dist_ws = DistributedWorkspace::new();
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
        let result = request.execute(&g, None, &mut ws).expect("query").result;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let class = classes
            .entry(format!("{}{name}", if two { "two-node " } else { "" }))
            .or_default();
        class.expansions.push(result.expansions as f64);
        class.ms.push(ms);
        class.converged += result.converged as usize;
        let cost = result.eviction_cost();
        class.cost += cost;
        class.costless += (cost == 0) as usize;
        class.works.push(result.work);
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
        if rank % exact_every == (rank / exact_every) % exact_every {
            class.checked += 1;
            let scores = exact_scores(&g, &request);
            if let Some(why) = contract_violation(&g, &result, &scores, request.topk.epsilon) {
                eprintln!("identity {rank} ({name}): {why}");
                class.failed += 1;
            }
            if let Some(why) = distributed_violation(&cluster, &mut dist_ws, &request, &result) {
                eprintln!("identity {rank} ({name}), 2 GPs: {why}");
                class.dist_failed += 1;
            }
        }
    }
    println!(
        "{:<19} {:>4} | expansions p50 p99 max | ms p50 p99 max | cost | converged | exact | 2 GPs | digest",
        "class", "n"
    );
    let (mut all_converged, mut all_exact, mut all_costed) = (true, true, true);
    let mut all_distributed = true;
    for (name, class) in classes.iter_mut() {
        class.expansions.sort_by(f64::total_cmp);
        class.ms.sort_by(f64::total_cmp);
        let (ex, ms, n) = (&class.expansions, &class.ms, class.expansions.len());
        let converged = class.converged as f64 / n as f64;
        all_converged &= class.converged == n;
        all_exact &= class.failed == 0;
        all_distributed &= class.dist_failed == 0;
        all_costed &= class.costless == 0;
        println!(
            "{name:<19} {n:>4} | {:>4} {:>4} {:>4} | {:>7.3} {:>7.3} {:>7.3} | {:>6.0} | {converged:.3} | {:>3}/{:<3} | {:>3}/{:<3} | {:016x}",
            pct(ex, 0.5),
            pct(ex, 0.99),
            ex[n - 1],
            pct(ms, 0.5),
            pct(ms, 0.99),
            ms[n - 1],
            class.cost as f64 / n as f64,
            class.checked - class.failed,
            class.checked,
            class.checked - class.dist_failed,
            class.checked,
            class.digest
        );
    }
    println!(
        "\n{:<19} | rounds F T | pushes absorbed | sweeps F T | Eq. 16 binds both F T  (means per query)",
        "class"
    );
    for (name, class) in &classes {
        let mean = |count: fn(&TopKWork) -> usize| {
            class.works.iter().map(count).sum::<usize>() as f64 / class.works.len() as f64
        };
        println!(
            "{name:<19} | {:>5.2} {:>5.2} | {:>8.0} {:>7.0} | {:>6.1} {:>6.1} | {:>6.2} {:>6.2} {:>6.2}",
            mean(|w| w.f_rounds),
            mean(|w| w.t_rounds),
            mean(|w| w.bca_pushes),
            mean(|w| w.t_absorbed),
            mean(|w| w.f_sweeps),
            mean(|w| w.t_sweeps),
            mean(|w| w.bound_both),
            mean(|w| w.bound_f),
            mean(|w| w.bound_t),
        );
    }
    if !all_converged {
        eprintln!("some class did not converge on every identity");
    }
    if !all_exact {
        eprintln!("some answer broke its contract against the exact scores");
    }
    if !all_distributed {
        eprintln!("some distributed answer differs from the local one");
    }
    if !all_costed {
        eprintln!("some answer has an eviction cost of 0");
    }
    if all_converged && all_exact && all_distributed && all_costed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
