//! Property suite: `SparseMap`/`ScoreMap` against a `HashMap` model.
//!
//! The dense-backed sparse map replaced the per-query hash maps on the
//! serving hot path; this suite pins its semantics to the hash map it
//! replaced under random operation sequences — insert / add / clear / get
//! interleavings — so any future optimization of the layout (e.g. epoch
//! stamping) has a behavioral contract to pass.

use proptest::collection;
use proptest::prelude::*;
use rtr_graph::{NodeSet, ScoreMap, SparseMap};
use std::collections::HashMap;

/// Key universe for the model tests (small, to force collisions of every
/// kind: overwrites, accumulation, re-insertion after a mid-sequence
/// clear).
const CAP: u32 = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn score_map_matches_hashmap_model(
        ops in collection::vec((0..4u8, 0..CAP, -8.0f64..8.0), 1..120)
    ) {
        let mut map = ScoreMap::with_capacity(CAP as usize);
        let mut model: HashMap<u32, f64> = HashMap::new();
        for (op, k, v) in ops {
            match op {
                0 => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                1 => {
                    // `add` and the model use the same per-key accumulation
                    // order, so values must stay bit-identical.
                    map.add(k, v);
                    *model.entry(k).or_insert(0.0) += v;
                }
                2 => {
                    map.clear();
                    model.clear();
                }
                _ => {
                    prop_assert_eq!(map.get(k), model.get(&k).copied());
                    prop_assert_eq!(map.contains(k), model.contains_key(&k));
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        // Full-content equality at the end, order-normalized.
        let mut got: Vec<(u32, f64)> = map.iter().collect();
        got.sort_by_key(|&(k, _)| k);
        let mut want: Vec<(u32, f64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(got, want);
        // score() view: 0 for absent keys, stored value otherwise.
        for k in 0..CAP {
            prop_assert_eq!(map.score(k), model.get(&k).copied().unwrap_or(0.0));
        }
    }

    #[test]
    fn node_set_matches_hashset_model(
        ops in collection::vec((0..3u8, 0..CAP), 1..100)
    ) {
        let mut set = NodeSet::with_capacity(CAP as usize);
        let mut model: std::collections::HashSet<u32> = Default::default();
        for (op, k) in ops {
            match op {
                0 => prop_assert_eq!(set.insert(k), model.insert(k)),
                1 => {
                    set.clear();
                    model.clear();
                }
                _ => prop_assert_eq!(set.contains(k), model.contains(&k)),
            }
            prop_assert_eq!(set.len(), model.len());
        }
        let mut got: Vec<u32> = set.iter().collect();
        got.sort_unstable();
        let mut want: Vec<u32> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn clear_restores_pristine_state(
        keys in collection::vec(0..CAP, 1..40)
    ) {
        // After clear, a replayed insertion sequence produces the same map
        // as a fresh one — O(touched) clearing must not leave residue.
        let mut reused = ScoreMap::with_capacity(CAP as usize);
        for &k in &keys {
            reused.add(k, 1.0 + k as f64);
        }
        reused.clear();
        let mut fresh = ScoreMap::with_capacity(CAP as usize);
        for &k in &keys {
            reused.add(k, 2.0 + k as f64);
            fresh.add(k, 2.0 + k as f64);
        }
        let mut a: Vec<(u32, f64)> = reused.iter().collect();
        a.sort_by_key(|&(k, _)| k);
        let mut b: Vec<(u32, f64)> = fresh.iter().collect();
        b.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn positions_index_the_slices_and_survive_inserts_and_clears(
        ops in collection::vec((0..6u8, 0..CAP, -8.0f64..8.0), 1..120)
    ) {
        // Model: the entries in insertion order; an entry's index is its
        // position until the map is cleared.
        let mut map: SparseMap<f64> = SparseMap::with_capacity(CAP as usize);
        let mut model: Vec<(u32, f64)> = Vec::new();
        for (op, k, v) in ops {
            let at = model.iter().position(|&(key, _)| key == k);
            match op {
                0 | 1 => {
                    prop_assert_eq!(map.insert_if_vacant(k, v), at.is_none());
                    if at.is_none() {
                        model.push((k, v));
                    }
                }
                2 => match at {
                    // Overwriting keeps the position.
                    Some(i) => {
                        prop_assert_eq!(map.insert(k, v), Some(model[i].1));
                        model[i].1 = v;
                    }
                    None => {
                        prop_assert_eq!(map.insert(k, v), None);
                        model.push((k, v));
                    }
                },
                3 => {
                    // A write through the mutable slice is a write to the map.
                    if let Some(i) = at {
                        map.value_slice_mut()[i] = v;
                        model[i].1 = v;
                    }
                }
                4 => {
                    *map.get_or_insert(k, v) += 1.0;
                    match at {
                        Some(i) => model[i].1 += 1.0,
                        None => model.push((k, v + 1.0)),
                    }
                }
                _ => {
                    // Clearing forgets every position; numbering restarts.
                    if k % 4 == 0 {
                        map.clear();
                        model.clear();
                    }
                }
            }
            let keys: Vec<u32> = model.iter().map(|&(key, _)| key).collect();
            let vals: Vec<f64> = model.iter().map(|&(_, val)| val).collect();
            prop_assert_eq!(map.key_slice(), &keys[..]);
            prop_assert_eq!(map.value_slice(), &vals[..]);
            for key in 0..CAP + 2 {
                let want = model.iter().position(|&(present, _)| present == key);
                prop_assert_eq!(map.position(key), want);
                prop_assert_eq!(map.get(key), want.map(|i| map.value_slice()[i]));
            }
        }
    }
}
