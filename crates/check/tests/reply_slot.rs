//! Model checks for `GpCluster`'s generation-stamped `ReplySlot`: a
//! fetch that errors out early (one GP injected to fail) leaves the
//! other GP's reply in flight as a straggler, and no later fetch through
//! the same slot may ever observe it. Runs the *real* cluster — GP
//! threads, channels and all — inside the schedule explorer.

use loom_shim::model::{explore, Config};
use rtr_distributed::gp::{GpCluster, ReplySlot};

/// The cluster runs real GP threads over channels, so each schedule is
/// long (~40 decision points × 4 threads); bound 2 explodes to ~50k
/// schedules and minutes of wall clock. Bound 1 stays exhaustive over
/// single-preemption interleavings and the seeded random phase
/// (unbounded preemptions) covers the deeper ones.
fn cluster_config(seed: u64) -> Config {
    Config {
        preemption_bound: 1,
        random_schedules: 300,
        seed,
        ..Config::default()
    }
}
use rtr_graph::toy::fig2_toy;
use rtr_graph::{wire, NodeId};

/// The node ids of the whole blocks in a fetch's payloads, in GP order.
fn fetched_nodes(payloads: &[Vec<u8>]) -> Vec<NodeId> {
    payloads
        .iter()
        .flat_map(|p| wire::blocks(p).map(|(_, b)| b.node()))
        .collect()
}

/// Healthy-path sanity inside the model: a two-GP fetch returns exactly
/// the requested blocks in every schedule.
#[test]
fn fetch_is_exact_in_every_schedule() {
    let report = explore(cluster_config(0x6B10_0001), || {
        let (g, _) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let mut slot = ReplySlot::new();
        // NodeId 0 is owned by GP 0, NodeId 1 by GP 1 (round-robin).
        let payloads = cluster
            .fetch(&[NodeId(0), NodeId(1)], &mut slot)
            .expect("healthy cluster");
        assert_eq!(fetched_nodes(payloads), vec![NodeId(0), NodeId(1)]);
    });
    rtr_check::report("reply-slot/healthy-fetch", &report);
    assert!(report.dfs_schedules > 1);
}

/// The straggler scenario: GP 0 is injected to fail its next fetch, so a
/// two-GP fetch returns an error — possibly *before* GP 1's healthy
/// reply lands in the slot. The next fetch through the same slot bumps
/// the generation; in every schedule it must return exactly its own
/// block, never the stale straggler (and never hang).
#[test]
fn no_stale_reply_after_generation_bump() {
    let report = explore(cluster_config(0x6B10_0002), || {
        let (g, _) = fig2_toy();
        let cluster = GpCluster::spawn(&g, 2);
        let mut slot = ReplySlot::new();
        cluster.fail_next_fetch(0);
        let err = cluster
            .fetch(&[NodeId(0), NodeId(1)], &mut slot)
            .expect_err("injected fault must surface");
        assert!(
            err.to_string().contains("graph processor 0"),
            "error must name the failed GP, got: {err}"
        );
        // Same slot, different node, new generation. GP 1's reply to the
        // *abandoned* fetch may arrive before, during, or after the
        // drain — the generation stamp must absorb every case.
        let payloads = cluster
            .fetch(&[NodeId(3)], &mut slot)
            .expect("GP 1 is healthy");
        assert_eq!(
            fetched_nodes(payloads),
            vec![NodeId(3)],
            "stale straggler leaked into the result"
        );
    });
    rtr_check::report("reply-slot/straggler", &report);
    assert!(report.dfs_schedules > 1);
}
