//! Node identifiers, node types and the type registry.
//!
//! The paper's graphs are heterogeneous: BibNet has papers, authors, terms
//! and venues; QLog has search phrases and URLs (Sect. VI). Ranking tasks
//! filter results by target type ("we filter out the query node itself and
//! nodes not of the target type"), so every node carries a compact type id.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense node identifier: an index into the graph's per-node tables.
///
/// `u32` keeps adjacency arrays half the size of `usize` on 64-bit targets;
/// the paper's largest graph (2M nodes) fits comfortably.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for slice indexing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index (panics if it exceeds `u32::MAX`).
    #[inline(always)]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index overflows u32");
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Compact node-type identifier (index into a [`TypeRegistry`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeTypeId(pub u8);

impl NodeTypeId {
    /// The index as a `usize`.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Registry mapping type names (e.g. `"paper"`, `"venue"`) to compact ids.
///
/// At most 256 distinct types are supported, which is far beyond anything the
/// paper's heterogeneous networks need (4 types in BibNet, 2 in QLog).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TypeRegistry {
    names: Vec<String>,
}

impl TypeRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a type name, returning its id. Re-registering an existing
    /// name returns the original id (idempotent).
    pub fn register(&mut self, name: &str) -> NodeTypeId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return NodeTypeId(pos as u8);
        }
        assert!(self.names.len() < 256, "too many node types (max 256)");
        self.names.push(name.to_owned());
        NodeTypeId((self.names.len() - 1) as u8)
    }

    /// Look up a type id by name.
    pub fn get(&self, name: &str) -> Option<NodeTypeId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|p| NodeTypeId(p as u8))
    }

    /// The name for a type id.
    pub fn name(&self, id: NodeTypeId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no types have been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeTypeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeTypeId(i as u8), n.as_str()))
    }
}

/// Every node's label in one text arena: label `i` is
/// `text[ends[i - 1]..ends[i]]` (`ends[-1]` = 0). One allocation for the
/// text and 4 B of offset per node, where a `String` per label costs a
/// 24-byte header plus a heap block of its own.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub(crate) struct Labels {
    text: String,
    ends: Vec<u32>,
}

impl Labels {
    /// An empty arena with room for `nodes` offsets.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        Labels {
            text: String::new(),
            ends: Vec::with_capacity(nodes),
        }
    }

    /// Append the next node's label.
    pub(crate) fn push(&mut self, label: &str) {
        self.text.push_str(label);
        // invariant: a graph's label text stays below 4 GiB (23 MB on the
        // 1 M-node benchmark graph); past that, adding a node panics.
        let end = u32::try_from(self.text.len()).expect("label text exceeds 4 GiB");
        self.ends.push(end);
    }

    /// Number of labels.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Label `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.text[start..self.ends[i] as usize]
    }

    /// The first index whose label is `label`.
    pub(crate) fn position(&self, label: &str) -> Option<usize> {
        (0..self.len()).find(|&i| self.get(i) == label)
    }

    /// Give back the growth slack of both buffers.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Resident bytes: the text plus its offsets.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.text.len() + std::mem::size_of_val(self.ends.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n, NodeId(42));
        assert_eq!(format!("{n:?}"), "n42");
        assert_eq!(format!("{n}"), "42");
    }

    #[test]
    fn node_id_ordering_matches_index() {
        assert!(NodeId(3) < NodeId(10));
        assert!(NodeId(10) > NodeId(3));
    }

    #[test]
    fn registry_register_and_lookup() {
        let mut reg = TypeRegistry::new();
        let paper = reg.register("paper");
        let venue = reg.register("venue");
        assert_ne!(paper, venue);
        assert_eq!(reg.get("paper"), Some(paper));
        assert_eq!(reg.get("venue"), Some(venue));
        assert_eq!(reg.get("author"), None);
        assert_eq!(reg.name(paper), "paper");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_register_idempotent() {
        let mut reg = TypeRegistry::new();
        let a = reg.register("x");
        let b = reg.register("x");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn registry_iter_order() {
        let mut reg = TypeRegistry::new();
        reg.register("a");
        reg.register("b");
        let collected: Vec<_> = reg.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(collected, vec!["a", "b"]);
    }

    #[test]
    fn labels_slice_one_arena() {
        let names = ["", "VLDB", "", "Zürich · 東京", "VLDB", ""];
        let mut labels = Labels::with_capacity(2);
        for name in names {
            labels.push(name);
        }
        labels.shrink_to_fit();
        assert_eq!(labels.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(labels.get(i), *name);
        }
        let text: usize = names.iter().map(|n| n.len()).sum();
        assert_eq!(labels.memory_bytes(), text + 4 * names.len());
        // The first of equal labels wins, empty ones included.
        assert_eq!(labels.position("VLDB"), Some(1));
        assert_eq!(labels.position(""), Some(0));
        assert_eq!(labels.position("Zürich"), None);
        assert_eq!(Labels::default().position(""), None);
    }

    #[test]
    fn registry_empty() {
        let reg = TypeRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
    }
}
