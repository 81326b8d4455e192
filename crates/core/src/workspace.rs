//! Reusable per-query workspaces for the core engines.
//!
//! Online serving runs the same engines over and over against one shared
//! graph. BCA's per-query state — the `ρ` map and the `µ` residuals — is
//! identical in shape from query to query, so a worker that keeps a
//! workspace alive between queries pays the allocation cost once and
//! thereafter only the O(touched) cost of wiping the previous query's
//! entries.
//!
//! [`crate::bca::Bca::with_workspace`] consumes a workspace, and
//! [`crate::bca::Bca::new`] stays a thin wrapper over a freshly created
//! one, so results are identical either way (the determinism suite in
//! `tests/` enforces bit-identity). The exact fixed-point iterations
//! allocate their dense vectors per call: they serve only full rankings.

use rtr_graph::ScoreMap;

/// Reusable state for one [`crate::bca::Bca`] run: the `ρ` score map, the
/// dense `µ` residuals with their frontier bitset, and the Stage-I
/// selection scratch.
///
/// `ρ` is written once per processed node and stays a sparse map (its
/// insertion order is the order `S_f` is reported in). `µ` is written
/// once per *edge* pushed along, so it is a plain array indexed by node
/// id: 8 B per node of the graph, against the 4 B index slot a sparse map
/// would need, plus one frontier bit per node.
///
/// Obtain one with [`BcaWorkspace::default`], pass it to
/// [`crate::bca::Bca::with_workspace`], and recover it afterwards with
/// [`crate::bca::Bca::into_workspace`]:
///
/// ```
/// use rtr_core::prelude::*;
/// use rtr_core::workspace::BcaWorkspace;
/// use rtr_graph::toy::fig2_toy;
///
/// let (g, ids) = fig2_toy();
/// let mut ws = BcaWorkspace::default();
/// for q in [ids.t1, ids.t2] {
///     let mut bca = Bca::with_workspace(&g, q, &RankParams::default(), ws).unwrap();
///     bca.run_to_residual(&mut &g, 1e-6, 100).unwrap();
///     assert!(bca.rho(q) > 0.0);
///     ws = bca.into_workspace(); // buffers survive for the next query
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct BcaWorkspace {
    /// Estimated PPR `ρ(q,·)`.
    pub(crate) rho: ScoreMap,
    /// Residual `µ(q,·)`.
    pub(crate) mu: Residuals,
    /// The frontier with its Stage-I benefits, ascending by id; after
    /// selection, the batch to process.
    pub(crate) candidates: Vec<(u32, f64)>,
    /// Benefit-selection scratch: the candidates' benefits, partitioned
    /// around the m-th best.
    pub(crate) ranked: Vec<f64>,
    /// The residual frontier (ids with `µ > 0`, ascending), announced to
    /// `AdjacencyAccess::ensure` before each batch (demand-paging /
    /// prefetch scratch).
    pub(crate) ensure_ids: Vec<u32>,
}

impl BcaWorkspace {
    /// A workspace pre-sized for graphs of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = BcaWorkspace {
            rho: ScoreMap::with_capacity(n),
            ..Self::default()
        };
        ws.mu.ensure_capacity(n);
        ws
    }

    /// Wipe previous-query state (O(touched)) and admit node ids `0..n`.
    pub(crate) fn reset(&mut self, n: usize) {
        self.rho.ensure_capacity(n);
        self.rho.clear();
        self.mu.clear();
        self.mu.ensure_capacity(n);
        self.candidates.clear();
        self.ranked.clear();
        self.ensure_ids.clear();
    }
}

/// BCA's residual `µ(q,·)`: a dense array indexed by node id under a
/// two-level frontier bitset.
///
/// `flags` holds one bit per node, set when residual lands on the node
/// and cleared when the node is processed; `words` holds one bit per
/// 64-node word of `flags`, set with any bit of that word. A node whose
/// flag is clear has `µ = 0`. Enumerating the flagged nodes walks the set
/// bits — ascending by id, visiting only words residual ever touched —
/// and [`Residuals::clear`] zeroes exactly those, so wiping a query costs
/// O(touched) however large the graph.
#[derive(Clone, Debug, Default)]
pub(crate) struct Residuals {
    mu: Vec<f64>,
    flags: Vec<u64>,
    /// Summary bits stay set until [`Residuals::clear`], even once every
    /// flag of their word is cleared.
    words: Vec<u64>,
}

impl Residuals {
    /// Admit node ids `0..n` (never shrinks; new slots hold 0). Call only
    /// on cleared residuals.
    fn ensure_capacity(&mut self, n: usize) {
        if self.mu.len() < n {
            // Freshly zeroed allocations: the pages of a large graph's
            // array become resident only as residual first lands on them.
            self.mu = vec![0.0; n];
            self.flags = vec![0; n.div_ceil(64)];
            self.words = vec![0; n.div_ceil(64 * 64)];
        }
    }

    /// Zero every residual, visiting only the words ever flagged.
    fn clear(&mut self) {
        for s in 0..self.words.len() {
            let mut words = std::mem::take(&mut self.words[s]);
            while words != 0 {
                let w = s * 64 + words.trailing_zeros() as usize;
                words &= words - 1;
                let mut flags = std::mem::take(&mut self.flags[w]);
                while flags != 0 {
                    self.mu[w * 64 + flags.trailing_zeros() as usize] = 0.0;
                    flags &= flags - 1;
                }
            }
        }
    }

    /// `µ(v)`, 0 for a node outside the id universe.
    #[inline]
    pub(crate) fn get(&self, v: u32) -> f64 {
        self.mu.get(v as usize).copied().unwrap_or(0.0)
    }

    /// `µ(v) += delta`, flagging `v`. Panics if `v` is outside the universe.
    #[inline]
    pub(crate) fn add(&mut self, v: u32, delta: f64) {
        let v = v as usize;
        self.mu[v] += delta;
        let flags = &mut self.flags[v / 64];
        if *flags == 0 {
            // A word's summary bit stays set once set: only its first flag
            // has to touch it.
            self.words[v / (64 * 64)] |= 1 << (v / 64 % 64);
        }
        *flags |= 1 << (v % 64);
    }

    /// Read `µ(v)` and reset it to 0, unflagging `v`.
    #[inline]
    pub(crate) fn take(&mut self, v: u32) -> f64 {
        let v = v as usize;
        let Some(slot) = self.mu.get_mut(v) else {
            return 0.0;
        };
        self.flags[v / 64] &= !(1 << (v % 64));
        std::mem::take(slot)
    }

    /// Call `f(v, µ(v))` for every flagged node, ascending by id.
    #[inline]
    pub(crate) fn for_each(&self, mut f: impl FnMut(u32, f64)) {
        for (s, &words) in self.words.iter().enumerate() {
            let mut words = words;
            while words != 0 {
                let w = s * 64 + words.trailing_zeros() as usize;
                words &= words - 1;
                let mut flags = self.flags[w];
                while flags != 0 {
                    let v = w * 64 + flags.trailing_zeros() as usize;
                    flags &= flags - 1;
                    f(v as u32, self.mu[v]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flagged(mu: &Residuals) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        mu.for_each(|v, r| out.push((v, r)));
        out
    }

    #[test]
    fn bca_workspace_reset_clears_state() {
        let mut ws = BcaWorkspace::with_capacity(4);
        ws.rho.insert(1, 0.5);
        ws.mu.add(2, 0.5);
        ws.candidates.push((1, 0.5));
        ws.reset(8);
        assert!(ws.rho.is_empty());
        assert!(flagged(&ws.mu).is_empty());
        assert_eq!(ws.mu.get(2), 0.0);
        assert!(ws.candidates.is_empty());
        assert!(ws.rho.capacity() >= 8);
        ws.mu.add(7, 0.25);
        assert_eq!(flagged(&ws.mu), vec![(7, 0.25)]);
    }

    #[test]
    fn residuals_enumerate_ascending_across_words() {
        let mut mu = Residuals::default();
        mu.ensure_capacity(10_000);
        for v in [9_999, 64, 4_096, 0, 63, 4_095, 64] {
            mu.add(v, 1.0);
        }
        assert_eq!(mu.take(63), 1.0);
        assert_eq!(mu.take(63), 0.0);
        assert_eq!(
            flagged(&mu),
            vec![
                (0, 1.0),
                (64, 2.0),
                (4_095, 1.0),
                (4_096, 1.0),
                (9_999, 1.0)
            ]
        );
        mu.clear();
        assert!(flagged(&mu).is_empty());
        assert!((0..10_000).all(|v| mu.get(v) == 0.0));
        assert_eq!(mu.get(10_000), 0.0);
        assert_eq!(mu.take(10_000), 0.0);
    }
}
