//! Model checks for the single-flight table
//! (`rtr_serve::check_api::InFlight`): exactly one computation per key
//! under the engine's double-checked cache pattern, every duplicate
//! answered exactly once — including when the owner's computation fails
//! and each attached duplicate is recomputed individually.

use loom_shim::model::{explore, Config};
use loom_shim::sync::atomic::{AtomicU64, Ordering};
use loom_shim::sync::Arc;
use loom_shim::thread;
use rtr_serve::check_api::InFlight;

const KEY: u32 = 7;

/// Shared scaffolding: a "cache" slot (0 = empty), a computation
/// counter, and one answered-flag per request.
struct World {
    flight: InFlight<u32, usize>,
    cached: AtomicU64,
    computed: AtomicU64,
    answered: [AtomicU64; 2],
}

impl World {
    fn new() -> Self {
        World {
            flight: InFlight::new(),
            cached: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            answered: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    fn answer(&self, job: usize) {
        self.answered[job].fetch_add(1, Ordering::SeqCst);
    }
}

/// One request following the engine's worker path: check the
/// cache, attach-or-claim, and as owner re-check the cache under
/// ownership before computing, then answer everything that attached.
fn attach_path(w: &World, job: usize) {
    if w.cached.load(Ordering::SeqCst) != 0 {
        w.answer(job);
        return;
    }
    match w.flight.attach_or_claim(&KEY, job) {
        None => {} // attached; the owner's finish() answers it
        Some(own) => {
            // Owner: re-check under ownership — a previous flight may
            // have published between our miss and our claim.
            if w.cached.load(Ordering::SeqCst) == 0 {
                w.computed.fetch_add(1, Ordering::SeqCst);
                w.cached.store(42, Ordering::SeqCst);
            }
            w.answer(own);
            for attached in w.flight.finish(&KEY) {
                w.answer(attached);
            }
        }
    }
}

/// Two concurrent identical requests: in *every* schedule the value is
/// computed exactly once and each request is answered exactly once.
#[test]
fn exactly_one_computation_per_key() {
    let report = explore(Config::with_random(10_000, 0x51F1_0001), || {
        let w = Arc::new(World::new());
        let t = {
            let w = Arc::clone(&w);
            thread::spawn(move || attach_path(&w, 1))
        };
        attach_path(&w, 0);
        t.join().unwrap();
        assert_eq!(
            w.computed.load(Ordering::SeqCst),
            1,
            "duplicate computation"
        );
        for (job, flag) in w.answered.iter().enumerate() {
            assert_eq!(flag.load(Ordering::SeqCst), 1, "job {job} answer count");
        }
    });
    rtr_check::report("single-flight/exactly-once", &report);
    assert!(report.dfs_schedules > 1);
    assert!(report.total() >= 10_000, "{} schedules", report.total());
}

/// The owner-failure path: the computation errors (nothing is cached),
/// the owner still finishes the key and recomputes each attached
/// duplicate individually. Every request must be answered exactly once
/// and the key must be claimable again afterwards.
#[test]
fn owner_error_recomputes_each_duplicate() {
    let failing_path = |w: &World, job: usize| {
        match w.flight.attach_or_claim(&KEY, job) {
            None => {} // attached; owner answers it below
            Some(own) => {
                // The computation fails: count the attempt, publish
                // nothing. finish() must still run on the error path.
                w.computed.fetch_add(1, Ordering::SeqCst);
                let attached = w.flight.finish(&KEY);
                w.answer(own);
                for dup in attached {
                    // Errors are recomputed individually, one per
                    // duplicate (they are cheap and deterministic).
                    w.computed.fetch_add(1, Ordering::SeqCst);
                    w.answer(dup);
                }
            }
        }
    };
    let report = explore(Config::with_random(10_000, 0x51F1_0002), || {
        let w = Arc::new(World::new());
        let t = {
            let w = Arc::clone(&w);
            thread::spawn(move || failing_path(&w, 1))
        };
        failing_path(&w, 0);
        t.join().unwrap();
        for (job, flag) in w.answered.iter().enumerate() {
            assert_eq!(flag.load(Ordering::SeqCst), 1, "job {job} answer count");
        }
        // Overlapping flights: 1 owner attempt + 1 recompute for the
        // attached duplicate. Disjoint flights: 2 independent attempts.
        let computed = w.computed.load(Ordering::SeqCst);
        assert_eq!(computed, 2, "one failed attempt + one recompute");
        // The failed key is free again.
        assert_eq!(
            w.flight.attach_or_claim(&KEY, 2),
            Some(2),
            "key leaked by the error path"
        );
    });
    rtr_check::report("single-flight/owner-error", &report);
    assert!(report.total() >= 10_000, "{} schedules", report.total());
}
