//! Single-flight deduplication and in-flight request batching.
//!
//! When M identical queries are in flight at once, only the first should
//! pay for the computation; the rest share its result. The primitive is a
//! table of in-flight keys behind a mutex, each holding the list of
//! requests that arrived *while* the key was computing: a later claimant
//! [`InFlight::attach_or_claim`]s its job onto the owner's entry and
//! returns to serving other traffic, and when the owner
//! [`InFlight::finish`]es it receives everything that attached and answers
//! it from the shared result — no thread ever blocks.
//!
//! Progress is guaranteed because a key is only ever claimed by a worker
//! actively running its job: the computing owner never waits, so attached
//! jobs always have a live computation behind them. If the computation
//! fails (the result is never cached), the owner re-enqueues each
//! duplicate to be recomputed individually — errors are cheap to recompute
//! and deterministic, so answers are unchanged.

use crate::rtr_sync::Mutex;
use std::collections::HashMap;
use std::hash::Hash;

/// A table of keys currently being computed, each carrying the jobs that
/// attached to it while it ran.
///
/// `pub` (rather than `pub(crate)`) so the `rtr_check`-only
/// [`crate::check_api`] can re-export it for model checking; the module
/// itself stays private, so production builds expose nothing.
pub struct InFlight<K, J> {
    inner: Mutex<HashMap<K, Vec<J>>>,
}

impl<K: Hash + Eq + Clone, J> Default for InFlight<K, J> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, J> InFlight<K, J> {
    /// Create an empty in-flight table.
    pub fn new() -> Self {
        InFlight {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Claim `key` (returning the job to its caller, now the owner) or, if
    /// it is already being computed, attach `job` to the owner's entry —
    /// the owner's [`InFlight::finish`] will hand it back for answering.
    /// Exactly one of the two happens, atomically. An owner must call
    /// [`InFlight::finish`] when done, on every path.
    pub fn attach_or_claim(&self, key: &K, job: J) -> Option<J> {
        // invariant: only map ops run under the table lock (here and in
        // finish()), so it cannot be poisoned.
        let mut guard = self.inner.lock().expect("in-flight table poisoned");
        match guard.get_mut(key) {
            Some(attached) => {
                attached.push(job);
                None
            }
            None => {
                guard.insert(key.clone(), Vec::new());
                Some(job)
            }
        }
    }

    /// Release `key` and return every job that attached while the owner
    /// computed — the owner must answer (or re-enqueue) each of them.
    pub fn finish(&self, key: &K) -> Vec<J> {
        self.inner
            .lock()
            // invariant: see attach_or_claim() — no user code under the lock.
            .expect("in-flight table poisoned")
            .remove(key)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_wins_until_finished() {
        let f: InFlight<u32, u32> = InFlight::new();
        assert_eq!(f.attach_or_claim(&1, 0), Some(0));
        assert_eq!(f.attach_or_claim(&1, 1), None);
        assert_eq!(
            f.attach_or_claim(&2, 2),
            Some(2),
            "distinct keys are independent"
        );
        assert_eq!(f.finish(&1), vec![1]);
        assert_eq!(
            f.attach_or_claim(&1, 3),
            Some(3),
            "released key is claimable again"
        );
    }

    #[test]
    fn attach_or_claim_claims_an_idle_key() {
        let f: InFlight<u32, &str> = InFlight::new();
        assert_eq!(f.attach_or_claim(&3, "job"), Some("job"));
        // The caller now owns the key: the next claimant attaches.
        assert_eq!(f.attach_or_claim(&3, "dup"), None);
        assert_eq!(f.finish(&3), vec!["dup"]);
    }

    #[test]
    fn attached_jobs_come_back_to_the_owner_in_order() {
        let f: InFlight<u32, u32> = InFlight::new();
        assert_eq!(f.attach_or_claim(&5, 0), Some(0));
        for dup in 1..=3 {
            assert_eq!(f.attach_or_claim(&5, dup), None, "duplicates attach");
        }
        assert_eq!(f.finish(&5), vec![1, 2, 3]);
        // The key is free again; a fresh claim starts an empty entry.
        assert_eq!(f.attach_or_claim(&5, 9), Some(9));
        assert!(f.finish(&5).is_empty());
    }
}
