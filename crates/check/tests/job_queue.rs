//! Model checks for the serving engine's job queue
//! (`rtr_serve::check_api::channel`, the crossbeam shim's unbounded MPMC
//! channel): a worker blocked in `recv` never misses a concurrent send,
//! and dropping the last `Sender` — the engine's shutdown — lets the
//! workers drain every queued job exactly once and then exit. The
//! checker's teeth for this bug class (a condvar wait that can miss its
//! notify is reported as a deadlock) are proved in loom-shim's own
//! `finds_lost_wakeup`.

use loom_shim::model::{explore, Config};
use loom_shim::thread;
use rtr_serve::check_api::channel;

/// A worker blocks in `recv` while the submitter sends. The sender stays
/// alive across the join, so a lost notify would leave the worker blocked
/// forever — a deadlock the checker reports — instead of a disconnect.
#[test]
fn blocked_worker_receives_a_concurrent_send() {
    let report = explore(Config::with_random(10_000, 0x70B0_0001), || {
        let (tx, rx) = channel::unbounded::<u64>();
        let worker = thread::spawn(move || rx.recv());
        tx.send(7).unwrap();
        assert_eq!(worker.join().unwrap(), Ok(7), "worker must get the job");
        drop(tx);
    });
    rtr_check::report("job-queue/no-lost-wakeup", &report);
    assert!(report.dfs_schedules > 1);
    assert!(report.total() >= 10_000, "{} schedules", report.total());
}

/// Engine shutdown: two workers loop on `recv`, the submitter sends three
/// jobs and drops the last `Sender`. In every schedule each job is
/// received by exactly one worker, and both workers then exit.
#[test]
fn dropping_the_last_sender_drains_every_job_then_stops_the_workers() {
    let report = explore(Config::with_random(2_000, 0x70B0_0002), || {
        let (tx, rx) = channel::unbounded::<u64>();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(job) = rx.recv() {
                        got.push(job);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for job in 1..=3 {
            tx.send(job).unwrap();
        }
        drop(tx);
        let mut received: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        received.sort_unstable();
        assert_eq!(received, vec![1, 2, 3], "each job exactly once");
    });
    rtr_check::report("job-queue/shutdown-drain", &report);
    assert!(report.dfs_schedules > 1);
}
