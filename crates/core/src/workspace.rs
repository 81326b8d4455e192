//! Reusable per-query workspaces for the core engines.
//!
//! Online serving runs the same engines over and over against one shared
//! graph. BCA's per-query state — the `ρ`/`µ` score maps — is identical in
//! shape from query to query, so a worker that keeps a workspace alive
//! between queries pays the allocation cost once and thereafter only the
//! O(touched) cost of wiping the previous query's entries.
//!
//! [`crate::bca::Bca::with_workspace`] consumes a workspace, and
//! [`crate::bca::Bca::new`] stays a thin wrapper over a freshly created
//! one, so results are identical either way (the determinism suite in
//! `tests/` enforces bit-identity). The exact fixed-point iterations
//! allocate their dense vectors per call: they serve only full rankings.

use rtr_graph::ScoreMap;

/// Reusable state for one [`crate::bca::Bca`] run: the `ρ` / `µ` score maps
/// plus the Stage-I selection scratch.
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
    pub(crate) mu: ScoreMap,
    /// Stage-I benefit-selection scratch.
    pub(crate) candidates: Vec<(u32, f64)>,
    /// Sorted frontier ids announced to `AdjacencyAccess::ensure` before
    /// each batch (demand-paging / prefetch scratch).
    pub(crate) ensure_ids: Vec<u32>,
}

impl BcaWorkspace {
    /// A workspace pre-sized for graphs of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        BcaWorkspace {
            rho: ScoreMap::with_capacity(n),
            mu: ScoreMap::with_capacity(n),
            candidates: Vec::new(),
            ensure_ids: Vec::new(),
        }
    }

    /// Wipe previous-query state (O(touched)) and admit node ids `0..n`.
    pub(crate) fn reset(&mut self, n: usize) {
        self.rho.ensure_capacity(n);
        self.mu.ensure_capacity(n);
        self.rho.clear();
        self.mu.clear();
        self.candidates.clear();
        self.ensure_ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bca_workspace_reset_clears_state() {
        let mut ws = BcaWorkspace::with_capacity(4);
        ws.rho.insert(1, 0.5);
        ws.mu.insert(2, 0.5);
        ws.candidates.push((1, 0.5));
        ws.reset(8);
        assert!(ws.rho.is_empty());
        assert!(ws.mu.is_empty());
        assert!(ws.candidates.is_empty());
        assert!(ws.rho.capacity() >= 8);
    }
}
