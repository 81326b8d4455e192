//! Dense-backed sparse per-query state — the serving hot path's workspace
//! primitive.
//!
//! Every online query touches a small *neighborhood* of a large graph: BCA
//! residuals, neighborhood bounds, active-set membership. Hash maps make
//! those touches cheap to write but costly to serve at rate: every query
//! re-allocates buckets, re-hashes keys, and walks cache-hostile memory.
//! [`SparseMap`] replaces them with the classic sparse-set layout
//! (Briggs & Torczon):
//!
//! * `sparse` — one `u32` slot per node of the graph, mapping a node id to
//!   its position in the dense arrays (or a sentinel when absent);
//! * `keys` / `vals` — densely packed touched entries, iterated without
//!   visiting untouched nodes.
//!
//! All operations are O(1); [`SparseMap::clear`] is **O(touched)**, not
//! O(capacity), which is what lets a per-worker workspace be wiped between
//! queries for free and re-used for the next query with zero allocation
//! (the `sparse` slab is allocated once per worker, sized to the graph).
//!
//! Iteration order is the dense insertion order: deterministic for a
//! deterministic operation sequence (no hashing), but *not* sorted —
//! callers that need a canonical order (e.g. Gauss-Seidel sweeps) sort the
//! key list exactly as they previously did with hash maps. The dense
//! position of an entry is itself exposed ([`SparseMap::position`],
//! [`SparseMap::value_slice`]): entries leave only all at once, so a
//! caller can use it as a local id into flat side arrays of its own.

/// Sentinel marking an absent key in the sparse index.
const ABSENT: u32 = u32::MAX;

/// A map from node ids (`u32`) to `Copy` values, backed by a dense
/// sparse-set so that clearing costs O(touched entries).
///
/// Keys must be below the configured capacity (the graph's node count);
/// inserting beyond it panics, mirroring the slice-indexing convention of
/// [`crate::Graph`] adjacency accessors.
#[derive(Clone, Debug)]
pub struct SparseMap<T> {
    sparse: Vec<u32>,
    keys: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy> SparseMap<T> {
    /// An empty map with zero capacity (grow with
    /// [`SparseMap::ensure_capacity`]).
    pub fn new() -> Self {
        SparseMap {
            sparse: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// An empty map admitting keys `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = Self::new();
        m.ensure_capacity(capacity);
        m
    }

    /// Grow the key universe to at least `capacity` (never shrinks).
    /// Existing entries are preserved; the new slots start absent.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.sparse.len() < capacity {
            self.sparse.resize(capacity, ABSENT);
        }
    }

    /// The key universe size (valid keys are `0..capacity`).
    pub fn capacity(&self) -> usize {
        self.sparse.len()
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no entry is present.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.sparse
            .get(key as usize)
            .is_some_and(|&pos| pos != ABSENT)
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: u32) -> Option<T> {
        match self.sparse.get(key as usize) {
            Some(&pos) if pos != ABSENT => Some(self.vals[pos as usize]),
            _ => None,
        }
    }

    /// Mutable access to the value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.sparse.get(key as usize) {
            Some(&pos) if pos != ABSENT => Some(&mut self.vals[pos as usize]),
            _ => None,
        }
    }

    /// The dense position of `key`, if present: its index into
    /// [`SparseMap::key_slice`] / [`SparseMap::value_slice`].
    ///
    /// Positions are handed out in insertion order (`0, 1, 2, …`) and stay
    /// valid until [`SparseMap::clear`] (entries are never removed one by
    /// one), so a caller can use them as local ids for flat side arrays.
    #[inline]
    pub fn position(&self, key: u32) -> Option<usize> {
        match self.sparse.get(key as usize) {
            Some(&pos) if pos != ABSENT => Some(pos as usize),
            _ => None,
        }
    }

    /// Present keys as a slice, indexed by [`SparseMap::position`].
    #[inline]
    pub fn key_slice(&self) -> &[u32] {
        &self.keys
    }

    /// Present values as a slice, indexed by [`SparseMap::position`].
    #[inline]
    pub fn value_slice(&self) -> &[T] {
        &self.vals
    }

    /// Mutable view of [`SparseMap::value_slice`]: values can be rewritten
    /// in place, membership cannot change through it.
    #[inline]
    pub fn value_slice_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Insert or overwrite, returning the previous value if any.
    /// Panics if `key >= capacity`.
    #[inline]
    pub fn insert(&mut self, key: u32, value: T) -> Option<T> {
        let pos = self.sparse[key as usize];
        if pos != ABSENT {
            let slot = &mut self.vals[pos as usize];
            let old = *slot;
            *slot = value;
            Some(old)
        } else {
            self.push_entry(key, value);
            None
        }
    }

    /// Insert only if vacant; returns `true` when the insert happened.
    /// Panics if `key >= capacity`.
    #[inline]
    pub fn insert_if_vacant(&mut self, key: u32, value: T) -> bool {
        if self.sparse[key as usize] != ABSENT {
            return false;
        }
        self.push_entry(key, value);
        true
    }

    /// Mutable access to the value at `key`, inserting `default` first when
    /// absent. Panics if `key >= capacity`.
    #[inline]
    pub fn get_or_insert(&mut self, key: u32, default: T) -> &mut T {
        let pos = self.sparse[key as usize];
        let pos = if pos != ABSENT {
            pos as usize
        } else {
            self.push_entry(key, default);
            self.vals.len() - 1
        };
        &mut self.vals[pos]
    }

    /// Remove all entries in O(touched); capacity is retained.
    pub fn clear(&mut self) {
        for &k in &self.keys {
            self.sparse[k as usize] = ABSENT;
        }
        self.keys.clear();
        self.vals.clear();
    }

    /// Present keys, in dense (insertion-ish) order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.keys.iter().copied()
    }

    /// Present `(key, value)` pairs, in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, T)> + '_ {
        self.keys.iter().copied().zip(self.vals.iter().copied())
    }

    /// Present values, in dense order.
    pub fn values(&self) -> impl Iterator<Item = T> + '_ {
        self.vals.iter().copied()
    }

    #[inline]
    fn push_entry(&mut self, key: u32, value: T) {
        self.sparse[key as usize] = self.keys.len() as u32;
        self.keys.push(key);
        self.vals.push(value);
    }
}

impl<T: Copy> Default for SparseMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Sparse score accumulator — the workspace replacement for the per-query
/// `HashMap<u32, f64>` state of BCA (`ρ`, `µ`) and friends.
pub type ScoreMap = SparseMap<f64>;

impl ScoreMap {
    /// The score at `key`, defaulting to 0 when absent (matching the
    /// "only non-zero entries are stored" convention of sparse PPR state).
    #[inline]
    pub fn score(&self, key: u32) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Add `delta` to the score at `key` (inserting it when absent).
    /// Panics if `key >= capacity`.
    #[inline]
    pub fn add(&mut self, key: u32, delta: f64) {
        *self.get_or_insert(key, 0.0) += delta;
    }

    /// Sum of all present scores.
    pub fn total(&self) -> f64 {
        self.values().sum()
    }
}

/// A set of node ids with O(touched) clearing — the workspace replacement
/// for the active-set `HashSet<u32>`.
#[derive(Clone, Debug, Default)]
pub struct NodeSet {
    map: SparseMap<()>,
}

impl NodeSet {
    /// An empty set with zero capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set admitting ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSet {
            map: SparseMap::with_capacity(capacity),
        }
    }

    /// Grow the id universe to at least `capacity`.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        self.map.ensure_capacity(capacity);
    }

    /// Insert `id`; returns `true` if it was not already present.
    /// Panics if `id >= capacity`.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        self.map.insert_if_vacant(id, ())
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.map.contains(id)
    }

    /// Number of present ids.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Remove all ids in O(touched).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Present ids, in dense (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m: ScoreMap = SparseMap::with_capacity(8);
        assert_eq!(m.insert(3, 1.5), None);
        assert_eq!(m.insert(3, 2.5), Some(1.5));
        assert_eq!(m.get(3), Some(2.5));
        assert_eq!(m.get(4), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clear_is_complete_and_reusable() {
        let mut m: ScoreMap = SparseMap::with_capacity(16);
        for k in 0..10u32 {
            m.insert(k, k as f64);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        for k in 0..16u32 {
            assert!(!m.contains(k));
        }
        // Reuse after clear behaves like a fresh map.
        m.insert(15, 1.0);
        assert_eq!(m.get(15), Some(1.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn score_add_accumulates() {
        let mut m = ScoreMap::with_capacity(4);
        assert_eq!(m.score(2), 0.0);
        m.add(2, 0.25);
        m.add(2, 0.5);
        assert!((m.score(2) - 0.75).abs() < 1e-15);
        assert!((m.total() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn get_or_insert_and_vacant_insert() {
        let mut m: SparseMap<u32> = SparseMap::with_capacity(4);
        *m.get_or_insert(0, 7) += 1;
        assert_eq!(m.get(0), Some(8));
        assert!(!m.insert_if_vacant(0, 99));
        assert!(m.insert_if_vacant(1, 99));
        assert_eq!(m.get(0), Some(8));
        assert_eq!(m.get(1), Some(99));
    }

    #[test]
    fn ensure_capacity_preserves_entries() {
        let mut m: ScoreMap = SparseMap::with_capacity(2);
        m.insert(1, 4.0);
        m.ensure_capacity(100);
        assert_eq!(m.get(1), Some(4.0));
        m.insert(99, 9.0);
        assert_eq!(m.get(99), Some(9.0));
        assert_eq!(m.capacity(), 100);
    }

    #[test]
    fn out_of_universe_reads_are_none() {
        let m: ScoreMap = SparseMap::with_capacity(4);
        assert_eq!(m.get(1000), None);
        assert!(!m.contains(1000));
    }

    #[test]
    #[should_panic]
    fn out_of_universe_insert_panics() {
        let mut m: ScoreMap = SparseMap::with_capacity(4);
        m.insert(4, 1.0);
    }

    #[test]
    fn node_set_basics() {
        let mut s = NodeSet::with_capacity(8);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(3));
    }

    #[test]
    fn iteration_matches_contents() {
        let mut m: ScoreMap = SparseMap::with_capacity(8);
        m.insert(5, 0.5);
        m.insert(7, 0.7);
        let mut pairs: Vec<(u32, f64)> = m.iter().collect();
        pairs.sort_by_key(|&(k, _)| k);
        assert_eq!(pairs, vec![(5, 0.5), (7, 0.7)]);
        let mut keys: Vec<u32> = m.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![5, 7]);
        let total: f64 = m.values().sum();
        assert!((total - 1.2).abs() < 1e-15);
    }
}
