//! The single shard: a bounded map that evicts by GreedyDual-Size-Frequency
//! (GDSF; Cao & Irani, USITS 1997), so an answer that was expensive to
//! compute outlives cheap ones.
//!
//! Every entry carries a deterministic recomputation cost, a hit count and
//! a priority `clock + hits × cost`, set when it is inserted or hit. An
//! insert into a full shard evicts the entry with the lowest priority and
//! raises the shard's clock to that priority, so entries that are never hit
//! again age out as the clock passes them — a stale-epoch entry cannot pin
//! a shard. Ties go to the least recently touched entry: with equal costs
//! and hit counts the shard evicts like LRU.
//!
//! Eviction scans the shard, O(capacity); lookups are one hash probe.
//! Slots are replaced in place, so a full shard allocates nothing. The
//! `cache_model` property suite pins this structure to an O(n) GDSF
//! reference under random operation sequences.

use std::collections::HashMap;
use std::hash::Hash;

struct Slot<K, V> {
    key: K,
    value: V,
    cost: u64,
    hits: u64,
    priority: u64,
    /// The shard's touch count when this entry was last inserted or hit:
    /// the recency tie-break.
    touched: u64,
}

/// A bounded GDSF map: one shard of the concurrent cache.
pub struct GdsfShard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    capacity: usize,
    /// GDSF's inflation value: the priority of the last evicted entry.
    clock: u64,
    touches: u64,
}

impl<K: Hash + Eq + Clone, V> GdsfShard<K, V> {
    /// An empty shard holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "shard capacity must be at least 1");
        GdsfShard {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
            touches: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The priority of the last evicted entry (0 before the first).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Look up `key`; a hit counts toward its priority.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &slot = self.map.get(key)?;
        self.hit(slot);
        Some(&self.slots[slot].value)
    }

    /// Look up `key` without counting a hit (model/diagnostic use).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&slot| &self.slots[slot].value)
    }

    /// Insert or update `key` with the cost of recomputing `value` (0
    /// counts as 1). An update counts as a hit. Returns the `(key, value)`
    /// evicted to make room, if the shard was full and `key` was not
    /// already resident.
    pub fn insert(&mut self, key: K, value: V, cost: u64) -> Option<(K, V)> {
        let cost = cost.max(1);
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = value;
            self.slots[slot].cost = cost;
            self.hit(slot);
            return None;
        }
        self.touches += 1;
        let entry = Slot {
            key: key.clone(),
            value,
            cost,
            hits: 1,
            priority: 0,
            touched: self.touches,
        };
        let (slot, evicted) = if self.map.len() == self.capacity {
            // invariant: a full shard holds capacity ≥ 1 slots.
            let victim = (0..self.slots.len())
                .min_by_key(|&i| (self.slots[i].priority, self.slots[i].touched))
                .expect("a full shard has entries");
            self.clock = self.slots[victim].priority;
            let old = std::mem::replace(&mut self.slots[victim], entry);
            self.map.remove(&old.key);
            (victim, Some((old.key, old.value)))
        } else {
            self.slots.push(entry);
            (self.slots.len() - 1, None)
        };
        self.slots[slot].priority = self.clock.saturating_add(cost);
        self.map.insert(key, slot);
        evicted
    }

    /// Drop every entry — keys and values included, so cleared payloads
    /// (e.g. `Arc`ed rankings) are actually released — and restart the
    /// clock. The map's and slab's own buffers are retained for refill.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.clock = 0;
    }

    fn hit(&mut self, slot: usize) {
        self.touches += 1;
        let s = &mut self.slots[slot];
        s.hits = s.hits.saturating_add(1);
        s.priority = self.clock.saturating_add(s.hits.saturating_mul(s.cost));
        s.touched = self.touches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(l: &GdsfShard<u32, u32>) -> Vec<u32> {
        let mut keys: Vec<u32> = l.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn insert_get_update() {
        let mut l = GdsfShard::new(4);
        assert!(l.is_empty());
        assert_eq!(l.insert(1, 10, 1), None);
        assert_eq!(l.insert(2, 20, 1), None);
        assert_eq!(l.get(&1), Some(&10));
        assert_eq!(l.get(&3), None);
        assert_eq!(l.insert(1, 11, 1), None); // update, no eviction
        assert_eq!(l.get(&1), Some(&11));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        // Equal costs: 1's hit lifts it above 2 and 3, which tie; the
        // less recently touched of the two goes.
        let mut l = GdsfShard::new(3);
        l.insert(1, 1, 5);
        l.insert(2, 2, 5);
        l.insert(3, 3, 5);
        assert_eq!(l.get(&1), Some(&1));
        assert_eq!(l.insert(4, 4, 5), Some((2, 2)));
        assert_eq!(l.len(), 3);
        assert_eq!(l.peek(&2), None);
        assert_eq!(keys(&l), vec![1, 3, 4]);
    }

    #[test]
    fn update_refreshes_recency() {
        let mut l = GdsfShard::new(2);
        l.insert(1, 1, 1);
        l.insert(2, 2, 1);
        l.insert(1, 100, 1); // 2 is now the least recently touched
        assert_eq!(l.insert(3, 3, 1), Some((2, 2)));
        assert_eq!(l.peek(&1), Some(&100));
    }

    #[test]
    fn capacity_one_degenerates_to_last_writer() {
        let mut l = GdsfShard::new(1);
        assert_eq!(l.insert(1, 1, 1), None);
        assert_eq!(l.insert(2, 2, 1), Some((1, 1)));
        assert_eq!(l.insert(3, 3, 1), Some((2, 2)));
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(&3), Some(&3));
    }

    #[test]
    fn clear_retains_capacity_and_slots() {
        let mut l = GdsfShard::new(3);
        for k in 0..4 {
            l.insert(k, k, 2);
        }
        assert_eq!(l.clock(), 2);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.capacity(), 3);
        assert_eq!(l.clock(), 0);
        assert!(l.slots.capacity() >= 3);
        // Refill after clear behaves like a fresh shard.
        l.insert(7, 7, 1);
        l.insert(8, 8, 1);
        assert_eq!(keys(&l), vec![7, 8]);
    }

    #[test]
    fn clear_releases_stored_values() {
        use std::sync::Arc;
        let mut l: GdsfShard<u32, Arc<u32>> = GdsfShard::new(4);
        let v = Arc::new(7u32);
        l.insert(1, Arc::clone(&v), 1);
        assert_eq!(Arc::strong_count(&v), 2);
        l.clear();
        assert_eq!(Arc::strong_count(&v), 1, "clear must drop the payloads");
    }

    #[test]
    fn peek_does_not_touch() {
        let mut l = GdsfShard::new(2);
        l.insert(1, 1, 1);
        l.insert(2, 2, 1);
        assert_eq!(l.peek(&1), Some(&1)); // 1 stays the least recent
        assert_eq!(l.insert(3, 3, 1), Some((1, 1)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        GdsfShard::<u32, u32>::new(0);
    }

    #[test]
    fn an_expensive_entry_outlives_cheaper_ones_at_equal_hits() {
        // Never hit again, the cost-40 entry survives forty cost-1 inserts
        // (each evicts its predecessor and raises the clock by one); LRU
        // would have evicted it at the second.
        let mut l = GdsfShard::new(2);
        l.insert(0, 0, 40);
        for k in 1..=40 {
            let evicted = l.insert(k, k, 1);
            if k > 1 {
                assert_eq!(evicted, Some((k - 1, k - 1)), "insert {k}");
            }
        }
        assert_eq!(l.peek(&0), Some(&0));
    }

    #[test]
    fn equal_costs_evict_the_least_recently_touched_first() {
        let mut l = GdsfShard::new(4);
        for k in 0..4 {
            l.insert(k, k, 3);
        }
        // Touch order 2, 0, 3, 1; one hit each keeps the hit counts equal.
        for k in [2, 0, 3, 1] {
            l.get(&k);
        }
        let evicted: Vec<u32> = (10..14).map(|k| l.insert(k, k, 100).unwrap().0).collect();
        assert_eq!(evicted, vec![2, 0, 3, 1]);
    }

    #[test]
    fn an_entry_never_hit_again_ages_out_once_the_clock_passes_it() {
        // A stale entry with priority 4 × 10 = 40 pins nothing: a stream of
        // cost-1 misses raises the clock by one per insert, and the insert
        // that lifts it to 40 evicts the stale entry (the tie with the
        // newcomer goes to the stale, less recently touched one).
        let mut l = GdsfShard::new(2);
        l.insert(0, 0, 10);
        for _ in 0..3 {
            l.get(&0);
        }
        for k in 1..=41 {
            assert!(l.peek(&0).is_some(), "evicted before insert {k}");
            assert!(l.clock() < 40, "the clock passed the stale entry");
            l.insert(k, k, 1);
        }
        // The 41st insert lifted the clock to 40 and took the stale entry.
        assert_eq!(l.peek(&0), None);
        assert_eq!(l.clock(), 40);
    }
}
