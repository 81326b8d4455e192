#![deny(missing_docs)]
//! Model-checked concurrency suites for the RoundTripRank workspace.
//!
//! This crate has no runtime surface of its own: its value is the test
//! files under `tests/`, each of which model-checks one of the hot
//! synchronization protocols (single-flight, the job queue, reply
//! slots, histogram sharding, epoch-keyed caching) by exhaustively
//! exploring every interleaving with up to two preemptions plus a
//! seeded-random sample beyond that bound. Run with
//! `cargo test -p rtr-check` (it is excluded from the workspace default
//! members so production builds never see the `rtr_check` feature).

/// The default preemption bound the suites explore exhaustively. Two
/// preemptions catches the classic TOCTOU, lost-wakeup, and
/// missed-generation races while keeping exhaustive enumeration cheap;
/// suites over long protocols (the GP cluster) drop to 1 and lean on
/// the random phase instead.
pub const PREEMPTION_BOUND: usize = 2;

/// Print one suite's exploration report in the stable, greppable format
/// the CI log and `docs/CONCURRENCY.md` reference.
pub fn report(protocol: &str, report: &loom_shim::model::Report) {
    println!(
        "rtr-check[{protocol}]: {} exhaustive schedules (<= {} preemptions) + {} random schedules from seed {:#x}",
        report.dfs_schedules, report.preemption_bound, report.random_schedules, report.seed
    );
}
