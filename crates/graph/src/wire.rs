//! The node-block wire layout: the one byte format a node's adjacency takes
//! everywhere — in the [`Graph`] itself, on its way from a graph processor
//! to the active processor, and under the active processor's edge iterator
//! (paper Sect. V-B2).
//!
//! A block is everything the active processor needs to add one node to its
//! active set: the node id plus its out- and in-adjacency with transition
//! probabilities. Blocks are little-endian with explicit length prefixes;
//! the format is self-delimiting, so blocks concatenate into the graph's
//! arena, reply buffers and cache arenas without any framing around them.
//!
//! Layout (all little-endian):
//! ```text
//! u32 node_id
//! u32 out_len   | out_len × (u32 target, f64 prob)
//! u32 in_len    | in_len  × (u32 source, f64 prob)
//! ```
//!
//! Three things speak the layout, and all of them go through this module:
//!
//! * [`BlockArena`] holds every node's block in ascending id order plus one
//!   `u32` offset table counted in [`EDGE_BYTES`] slots (a block is one
//!   slot of header plus one per edge) — it *is* the graph's adjacency,
//!   written once by [`crate::GraphBuilder`], and a graph processor serves
//!   its stripe straight out of it;
//! * [`BlockView`] reads a block *in place*: a total, length-validated parse
//!   of the three length fields, after which degrees follow from slice
//!   lengths and [`Edges`] decodes `(neighbour, probability)` pairs on the
//!   fly — how both the graph and the AP's resident blocks serve
//!   adjacency, with no owned copy;
//! * [`NodeBlock`] is the owned form (two `Vec`s) that tests and probes
//!   handle; it is parsed from the arena through [`BlockView`] and encodes
//!   through the same edge writer the builder uses, so there is exactly one
//!   definition of the format.

use crate::graph::Graph;
use crate::node::{NodeId, NodeTypeId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;

/// Bytes of one encoded edge: `u32` neighbour id + `f64` probability. The
/// three `u32` header fields take as many, so every block is a whole
/// number of these slots: one for the header and one per edge.
pub const EDGE_BYTES: usize = 12;

/// Encoded size of a block with these degrees: the three `u32` fields plus
/// [`EDGE_BYTES`] per edge.
pub const fn encoded_len(out_degree: usize, in_degree: usize) -> usize {
    12 + (out_degree + in_degree) * EDGE_BYTES
}

/// Resident bytes of a node with these degrees in an AP-side active set —
/// the same quantity [`Graph::node_footprint_bytes`] reports, computed from
/// the shipped adjacency alone so the active processor can account
/// active-set sizes (paper Fig. 12) bit-identically to a single-machine run
/// without holding the graph.
pub const fn footprint_bytes(out_degree: usize, in_degree: usize) -> usize {
    size_of::<NodeId>()
        + size_of::<NodeTypeId>()
        + (out_degree + in_degree) * (size_of::<NodeId>() + size_of::<f64>())
}

/// The encoding of one edge.
pub(crate) fn edge_bytes(n: NodeId, p: f64) -> [u8; EDGE_BYTES] {
    let mut edge = [0u8; EDGE_BYTES];
    edge[..4].copy_from_slice(&n.0.to_le_bytes());
    edge[4..].copy_from_slice(&p.to_le_bytes());
    edge
}

/// Offset of out-edge `i` within a block.
pub(crate) const fn out_edge_at(i: usize) -> usize {
    8 + i * EDGE_BYTES
}

/// Offset of in-edge `j` within a block with `out_degree` out-edges; the
/// `in_len` field takes the four bytes before in-edge 0.
pub(crate) const fn in_edge_at(out_degree: usize, j: usize) -> usize {
    encoded_len(out_degree, 0) + j * EDGE_BYTES
}

/// Write the node id and both length fields into `block`, the whole
/// block's bytes (so its length fixes the in-degree); the edges go to
/// [`out_edge_at`] / [`in_edge_at`].
pub(crate) fn put_header(block: &mut [u8], v: NodeId, out_degree: usize) {
    let in_len_at = in_edge_at(out_degree, 0) - 4;
    let in_degree = (block.len() - in_edge_at(out_degree, 0)) / EDGE_BYTES;
    block[..4].copy_from_slice(&v.0.to_le_bytes());
    block[4..8].copy_from_slice(&(out_degree as u32).to_le_bytes());
    block[in_len_at..in_len_at + 4].copy_from_slice(&(in_degree as u32).to_le_bytes());
}

fn put_edges(buf: &mut impl BufMut, len: usize, edges: impl Iterator<Item = (NodeId, f64)>) {
    buf.put_u32_le(len as u32);
    for (n, p) in edges {
        buf.put_slice(&edge_bytes(n, p));
    }
}

/// Every node's block, concatenated in ascending node id order, plus the
/// offset table that finds them: the adjacency of a [`Graph`].
///
/// The offsets count [`EDGE_BYTES`] slots, not bytes, so as `u32` they
/// address up to 12 · `u32::MAX` bytes (≈ 48 GiB) of arena, and a
/// node's total degree is its slot count minus the header's one.
///
/// Built once by [`crate::GraphBuilder`] and immutable afterwards. Both
/// parts are `Arc`'d, so a clone — what every in-process graph processor
/// serving a stripe holds — shares the bytes instead of copying them. The
/// arena sits inline in its owner, pointers and all, which lets a hot loop
/// keep the data addresses in registers.
#[derive(Clone, Debug)]
pub struct BlockArena {
    bytes: Arc<[u8]>,
    /// Block of node `v` is slots `offsets[v]..offsets[v + 1]`, i.e. bytes
    /// `EDGE_BYTES * offsets[v]..EDGE_BYTES * offsets[v + 1]`.
    offsets: Arc<[u32]>,
}

impl BlockArena {
    /// Wrap builder output: `offsets` has one entry per node plus one and
    /// ends at the arena's slot count; every range between two entries is
    /// one whole block (debug-asserted).
    pub(crate) fn from_parts(bytes: Arc<[u8]>, offsets: Arc<[u32]>) -> Self {
        let arena = BlockArena { bytes, offsets };
        debug_assert_eq!(arena.start(arena.len()), arena.bytes.len());
        debug_assert!((0..arena.len()).all(|v| {
            let (lo, hi) = (arena.start(v), arena.start(v + 1));
            BlockView::parse(&arena.bytes[lo..hi])
                .is_some_and(|b| b.node().index() == v && b.encoded_len() == hi - lo)
        }));
        arena
    }

    /// Byte offset of the block of node index `i` (of the arena's end at
    /// `i == len()`). Panics past that.
    #[inline]
    fn start(&self, i: usize) -> usize {
        self.offsets[i] as usize * EDGE_BYTES
    }

    /// Whether `a` and `b` are the same arena, not merely equal bytes.
    pub fn ptr_eq(a: &BlockArena, b: &BlockArena) -> bool {
        Arc::ptr_eq(&a.bytes, &b.bytes) && Arc::ptr_eq(&a.offsets, &b.offsets)
    }

    /// Number of blocks (nodes).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no block.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the block of `v` sits in [`BlockArena::as_bytes`], or `None`
    /// past the last node.
    #[inline]
    pub fn byte_range(&self, v: NodeId) -> Option<Range<usize>> {
        let i = v.index();
        (i < self.len()).then(|| self.start(i)..self.start(i + 1))
    }

    /// The encoded block of `v`, or `None` past the last node.
    #[inline]
    pub fn get(&self, v: NodeId) -> Option<&[u8]> {
        Some(&self.bytes[self.byte_range(v)?])
    }

    /// The block of `v` read in place. Panics if `v` is not a node.
    pub fn view(&self, v: NodeId) -> BlockView<'_> {
        // invariant: `from_parts` holds one whole block between every two
        // offsets, so the parse of an in-range node cannot fail.
        BlockView::parse(&self.bytes[self.start(v.index())..self.start(v.index() + 1)])
            .expect("arena holds one whole block per node")
    }

    /// Total degree (out + in) of `v`, from the offset table alone: the
    /// block's slots less the header's.
    #[inline]
    pub(crate) fn total_degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize - 1
    }

    /// Out-edges of `v`, whose out-degree the caller keeps in a table of
    /// its own. Neither length field is read: each would be one more
    /// dependent memory access before the first edge (the `in_len` field
    /// sits behind the out-edges), and the hot loops call this per node.
    /// Panics if `v` is not a node.
    #[inline]
    pub(crate) fn out_edges(&self, v: NodeId, out_degree: usize) -> Edges<'_> {
        debug_assert_eq!(self.view(v).out_degree(), out_degree);
        let at = self.start(v.index());
        Edges(&self.bytes[at + out_edge_at(0)..at + out_edge_at(out_degree)])
    }

    /// In-edges of `v`; see [`BlockArena::out_edges`].
    #[inline]
    pub(crate) fn in_edges(&self, v: NodeId, out_degree: usize) -> Edges<'_> {
        debug_assert_eq!(self.view(v).out_degree(), out_degree);
        let at = self.start(v.index()) + in_edge_at(out_degree, 0);
        Edges(&self.bytes[at..self.start(v.index() + 1)])
    }

    /// Hint the first two cache lines of `v`'s block, found through the
    /// entry [`BlockArena::prefetch_index`] hints. A no-op past the end.
    #[inline]
    pub(crate) fn prefetch(&self, v: NodeId) {
        if let Some(&at) = self.offsets.get(v.index()) {
            for line in self.bytes[at as usize * EDGE_BYTES..]
                .iter()
                .step_by(64)
                .take(2)
            {
                prefetch_ptr(line);
            }
        }
    }

    /// Hint `v`'s offset entry. A no-op past the end.
    #[inline]
    pub(crate) fn prefetch_index(&self, v: NodeId) {
        if let Some(entry) = self.offsets.get(v.index()) {
            prefetch_ptr(entry);
        }
    }

    /// All blocks, concatenated in ascending node id order.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Resident bytes: the blocks plus the offset table.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bytes.len() + self.offsets.len() * size_of::<u32>()
    }
}

/// Ask the CPU to pull the cache line holding `p` into every cache level
/// without waiting for it: the graph's prefetch hints. A no-op off x86_64.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn prefetch_ptr<T>(p: &T) {
    // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64 CPU has;
    // a prefetch reads no value, cannot fault and changes no state.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((p as *const T).cast());
    }
}

fn split_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// Split one length-prefixed edge list off the front of `bytes`. `None`
/// when the prefix or any of the edges it announces is missing; the length
/// is checked against the bytes present before anything is sized by it.
fn split_edges(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = split_u32(bytes)?;
    rest.split_at_checked((len as usize).checked_mul(EDGE_BYTES)?)
}

/// One encoded block read in place: nothing is copied or allocated, the
/// edge lists stay the bytes they arrived as.
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    node: NodeId,
    /// The encoded edge lists: a whole number of [`EDGE_BYTES`] entries.
    out_edges: &'a [u8],
    in_edges: &'a [u8],
}

impl<'a> BlockView<'a> {
    /// The block at the front of `bytes` (which may continue past it), or
    /// `None` if `bytes` ends before the block does. Total: no input panics.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let (node, rest) = split_u32(bytes)?;
        let (out_edges, rest) = split_edges(rest)?;
        let (in_edges, _) = split_edges(rest)?;
        Some(BlockView {
            node: NodeId(node),
            out_edges,
            in_edges,
        })
    }

    /// The node this block describes.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of out-edges.
    pub fn out_degree(&self) -> usize {
        self.out_edges.len() / EDGE_BYTES
    }

    /// Number of in-edges.
    pub fn in_degree(&self) -> usize {
        self.in_edges.len() / EDGE_BYTES
    }

    /// Out-edges `(target, M[node][target])`, in encoded (ascending) order.
    pub fn out_edges(&self) -> Edges<'a> {
        Edges(self.out_edges)
    }

    /// In-edges `(source, M[source][node])`, in encoded (ascending) order.
    pub fn in_edges(&self) -> Edges<'a> {
        Edges(self.in_edges)
    }

    /// Bytes this block occupies on the wire.
    pub fn encoded_len(&self) -> usize {
        encoded_len(self.out_degree(), self.in_degree())
    }

    /// See [`footprint_bytes`].
    pub fn footprint_bytes(&self) -> usize {
        footprint_bytes(self.out_degree(), self.in_degree())
    }

    /// Copy into the owned form.
    pub fn to_block(&self) -> NodeBlock {
        NodeBlock {
            node: self.node,
            out_edges: self.out_edges().collect(),
            in_edges: self.in_edges().collect(),
        }
    }
}

/// Iterator over one encoded edge list, decoding `(neighbour, probability)`
/// from each 12-byte entry as it goes. It walks the bytes themselves, so
/// starting one costs no division by the entry size.
#[derive(Clone, Debug)]
pub struct Edges<'a>(&'a [u8]);

#[inline]
fn decode_edge(e: &[u8; EDGE_BYTES]) -> (NodeId, f64) {
    let id = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
    let prob = f64::from_le_bytes([e[4], e[5], e[6], e[7], e[8], e[9], e[10], e[11]]);
    (NodeId(id), prob)
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, f64);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, f64)> {
        let (edge, rest) = self.0.split_first_chunk()?;
        self.0 = rest;
        Some(decode_edge(edge))
    }

    /// Skips without decoding: the entries are fixed-size.
    #[inline]
    fn nth(&mut self, n: usize) -> Option<(NodeId, f64)> {
        self.0 = self.0.get(n.checked_mul(EDGE_BYTES)?..).unwrap_or_default();
        self.next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.0.len() / EDGE_BYTES;
        (len, Some(len))
    }
}

impl ExactSizeIterator for Edges<'_> {}

/// The whole blocks at the front of `bytes`, each with the byte offset it
/// starts at. Stops at the first block `bytes` does not hold completely, so
/// a truncated or garbage tail is never yielded (and never panics).
pub fn blocks(bytes: &[u8]) -> Blocks<'_> {
    Blocks { bytes, offset: 0 }
}

/// Iterator returned by [`blocks`].
#[derive(Clone, Debug)]
pub struct Blocks<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Iterator for Blocks<'a> {
    type Item = (usize, BlockView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let view = BlockView::parse(&self.bytes[self.offset..])?;
        let at = self.offset;
        self.offset += view.encoded_len();
        Some((at, view))
    }
}

/// One node's adjacency in owned form.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeBlock {
    /// The node this block describes.
    pub node: NodeId,
    /// Out-edges `(target, M[node][target])`.
    pub out_edges: Vec<(NodeId, f64)>,
    /// In-edges `(source, M[source][node])`.
    pub in_edges: Vec<(NodeId, f64)>,
}

impl NodeBlock {
    /// The block of `v`, parsed from the graph's own arena.
    pub fn extract(g: &Graph, v: NodeId) -> Self {
        g.blocks().view(v).to_block()
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        encoded_len(self.out_edges.len(), self.in_edges.len())
    }

    /// See [`footprint_bytes`].
    pub fn footprint_bytes(&self) -> usize {
        footprint_bytes(self.out_edges.len(), self.in_edges.len())
    }

    /// Append the encoding of this block to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        buf.put_u32_le(self.node.0);
        put_edges(buf, self.out_edges.len(), self.out_edges.iter().copied());
        put_edges(buf, self.in_edges.len(), self.in_edges.iter().copied());
    }

    /// Decode one block from the front of `buf`, advancing it.
    ///
    /// Returns `None` if the buffer is truncated (never panics on short
    /// input — a striped response may legitimately be empty).
    pub fn decode(buf: &mut Bytes) -> Option<Self> {
        let block = BlockView::parse(buf.chunk())?.to_block();
        buf.advance(block.encoded_len());
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::fig2_toy;

    /// The blocks concatenated, as a GP reply carries them.
    fn encode_all(blocks: &[NodeBlock]) -> Bytes {
        let mut buf = BytesMut::new();
        for block in blocks {
            block.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Every whole block at the front of `bytes`, in owned form.
    fn walk(bytes: &[u8]) -> Vec<NodeBlock> {
        blocks(bytes).map(|(_, b)| b.to_block()).collect()
    }

    #[test]
    fn roundtrip_single_block() {
        let (g, ids) = fig2_toy();
        let block = NodeBlock::extract(&g, ids.v1);
        let mut buf = BytesMut::new();
        block.encode(&mut buf);
        assert_eq!(buf.len(), block.encoded_len());
        let mut bytes = buf.freeze();
        let decoded = NodeBlock::decode(&mut bytes).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn roundtrip_batch() {
        let (g, _) = fig2_toy();
        let blocks: Vec<_> = g.nodes().map(|v| NodeBlock::extract(&g, v)).collect();
        assert_eq!(walk(encode_all(&blocks).as_slice()), blocks);
    }

    #[test]
    fn truncated_buffer_yields_none() {
        let (g, ids) = fig2_toy();
        let block = NodeBlock::extract(&g, ids.t1);
        let mut buf = BytesMut::new();
        block.encode(&mut buf);
        let full = buf.freeze();
        for cut in [0usize, 3, 7, 9, full.len() - 1] {
            let mut short = full.slice(..cut);
            assert!(NodeBlock::decode(&mut short).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_adjacency_encodes() {
        let block = NodeBlock {
            node: NodeId(7),
            out_edges: vec![],
            in_edges: vec![],
        };
        let mut buf = BytesMut::new();
        block.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(NodeBlock::decode(&mut bytes).unwrap(), block);
    }

    #[test]
    fn encoded_len_matches_paper_style_accounting() {
        let (g, ids) = fig2_toy();
        let block = NodeBlock::extract(&g, ids.v2);
        // v2 has 2 out and 2 in edges: 4 + 4 + 24 + 4 + 24 = 60 bytes.
        assert_eq!(block.encoded_len(), 60);
    }

    #[test]
    fn footprint_matches_graph_accounting() {
        // The AP computes active-set bytes from blocks alone; the number must
        // agree with the graph-side accounting for every node.
        let (g, _) = fig2_toy();
        for v in g.nodes() {
            let block = NodeBlock::extract(&g, v);
            assert_eq!(block.footprint_bytes(), g.node_footprint_bytes(v));
        }
    }

    #[test]
    fn probabilities_roundtrip_bit_exact() {
        // Transition probabilities must survive the wire without any loss —
        // the AP's bounds math is exact-arithmetic-sensitive. Exercise
        // awkward f64s: subnormal, negative zero, ulp-separated values.
        let probs = [
            f64::MIN_POSITIVE / 4.0, // subnormal
            -0.0,
            1.0,
            1.0 - f64::EPSILON,
            0.1 + 0.2, // 0.30000000000000004
            f64::MAX,
        ];
        let block = NodeBlock {
            node: NodeId(u32::MAX),
            out_edges: probs
                .iter()
                .enumerate()
                .map(|(i, &p)| (NodeId(i as u32), p))
                .collect(),
            in_edges: vec![],
        };
        let mut buf = BytesMut::new();
        block.encode(&mut buf);
        let mut bytes = buf.freeze();
        let decoded = NodeBlock::decode(&mut bytes).unwrap();
        for ((_, want), (_, got)) in block.out_edges.iter().zip(&decoded.out_edges) {
            assert_eq!(want.to_bits(), got.to_bits(), "{want} mangled to {got}");
        }
        assert_eq!(decoded.node, NodeId(u32::MAX));
        // The in-place view hands out the same bits without decoding.
        let mut buf = BytesMut::new();
        block.encode(&mut buf);
        let view = BlockView::parse(buf.as_slice()).unwrap();
        assert_eq!(view.node(), NodeId(u32::MAX));
        assert_eq!(view.out_edges().len(), probs.len());
        for ((id, want), (got_id, got)) in block.out_edges.iter().zip(view.out_edges()) {
            assert_eq!(*id, got_id);
            assert_eq!(want.to_bits(), got.to_bits(), "{want} mangled to {got}");
        }
    }

    #[test]
    fn graph_writer_owned_form_and_view_are_one_format() {
        let (g, _) = fig2_toy();
        let arena = g.blocks();
        assert_eq!(arena.len(), g.node_count());
        for v in g.nodes() {
            let block = NodeBlock::extract(&g, v);
            let mut owned = BytesMut::new();
            block.encode(&mut owned);
            let direct = arena.get(v).unwrap();
            assert_eq!(owned.as_slice(), direct);
            let view = BlockView::parse(direct).unwrap();
            assert_eq!(view.to_block(), block);
            assert_eq!(view.out_degree(), g.out_degree(v));
            assert_eq!(view.in_degree(), g.in_degree(v));
            assert_eq!(view.encoded_len(), direct.len());
            assert_eq!(view.footprint_bytes(), g.node_footprint_bytes(v));
        }
        // The arena is the blocks back to back, and nothing else.
        assert_eq!(walk(arena.as_bytes()).len(), g.node_count());
        assert!(arena.get(NodeId(g.node_count() as u32)).is_none());
    }

    #[test]
    fn block_walk_is_total_on_truncated_and_hostile_input() {
        let (g, _) = fig2_toy();
        let originals: Vec<_> = g.nodes().map(|v| NodeBlock::extract(&g, v)).collect();
        let full = encode_all(&originals);
        let full = full.as_slice();
        // Cut anywhere: the walk yields exactly the blocks that fit, at the
        // offsets they sit at, and nothing of the partial one.
        let mut ends = vec![0];
        for block in &originals {
            ends.push(ends[ends.len() - 1] + block.encoded_len());
        }
        for cut in 0..=full.len() {
            let walked: Vec<_> = blocks(&full[..cut]).collect();
            assert_eq!(walked.len(), ends.iter().filter(|&&e| e <= cut).count() - 1);
            for (i, (at, view)) in walked.into_iter().enumerate() {
                assert_eq!(at, ends[i], "cut {cut}");
                assert_eq!(view.to_block(), originals[i], "cut {cut}");
            }
        }
        // Length fields far beyond the bytes present are refused before
        // anything is sized by them — in the view and in the owned decode.
        let lying = |out_len: u32, in_len: u32| {
            let mut bytes = vec![];
            bytes.extend_from_slice(&3u32.to_le_bytes());
            bytes.extend_from_slice(&out_len.to_le_bytes());
            bytes.extend_from_slice(&[7u8; 12].repeat(out_len.min(2) as usize));
            bytes.extend_from_slice(&in_len.to_le_bytes());
            bytes.extend_from_slice(&[7u8; 30]);
            bytes
        };
        for bytes in [lying(u32::MAX, 0), lying(2, u32::MAX), lying(3, 0)] {
            assert!(BlockView::parse(&bytes).is_none());
            assert_eq!(blocks(&bytes).count(), 0);
            assert!(NodeBlock::decode(&mut Bytes::from(bytes)).is_none());
        }
        // Garbage behind good blocks ends the walk; the good blocks stand.
        let mut trailing = full.to_vec();
        trailing.extend_from_slice(&[0xFF; 17]);
        assert_eq!(blocks(&trailing).count(), originals.len());
    }

    #[test]
    fn truncation_sweep_never_panics() {
        // Every possible cut point must yield a clean None, not a panic —
        // a GP response can be split anywhere by a transport layer.
        let (g, _) = fig2_toy();
        let blocks: Vec<_> = g.nodes().map(|v| NodeBlock::extract(&g, v)).collect();
        let full = encode_all(&blocks);
        for cut in 0..full.len() {
            let mut short = full.slice(..cut);
            assert!(walk(short.as_slice()).len() < blocks.len());
            // Manual decode loop must stop without consuming garbage.
            while NodeBlock::decode(&mut short).is_some() {}
        }
    }

    #[test]
    fn batch_with_interleaved_empty_blocks() {
        let blocks = vec![
            NodeBlock {
                node: NodeId(0),
                out_edges: vec![],
                in_edges: vec![],
            },
            NodeBlock {
                node: NodeId(1),
                out_edges: vec![(NodeId(0), 0.5), (NodeId(2), 0.5)],
                in_edges: vec![(NodeId(2), 1.0)],
            },
            NodeBlock {
                node: NodeId(2),
                out_edges: vec![],
                in_edges: vec![],
            },
        ];
        assert_eq!(walk(encode_all(&blocks).as_slice()), blocks);
    }

    #[test]
    fn batch_encoding_is_deterministic() {
        // Same blocks → same bytes, so GP responses are replayable and the
        // metered transfer volumes of Fig. 12 are reproducible.
        let (g, _) = fig2_toy();
        let blocks: Vec<_> = g.nodes().map(|v| NodeBlock::extract(&g, v)).collect();
        assert_eq!(encode_all(&blocks), encode_all(&blocks));
    }

    #[test]
    fn slot_offsets_tile_the_arena_block_by_block() {
        let (g, _) = fig2_toy();
        let arena = g.blocks();
        let mut end = 0;
        for v in g.nodes() {
            let range = arena.byte_range(v).unwrap();
            assert_eq!(range.start, end, "{v:?} starts where its predecessor ends");
            // One header slot plus one slot per edge end.
            assert_eq!(range.len(), EDGE_BYTES * (1 + arena.total_degree(v)));
            assert_eq!(range.len(), arena.view(v).encoded_len());
            assert_eq!(arena.get(v), Some(&arena.as_bytes()[range.clone()]));
            end = range.end;
        }
        assert_eq!(end, arena.as_bytes().len());
        assert_eq!(arena.memory_bytes(), end + 4 * (g.node_count() + 1));
        let past = NodeId(g.node_count() as u32);
        assert_eq!(arena.byte_range(past), None);
        assert_eq!(arena.get(past), None);
    }

    #[test]
    fn nth_skips_to_the_same_edge_next_reaches() {
        let (g, ids) = fig2_toy();
        let all: Vec<_> = g.blocks().view(ids.t1).out_edges().collect();
        for (i, &edge) in all.iter().enumerate() {
            let mut edges = g.blocks().view(ids.t1).out_edges();
            assert_eq!(edges.nth(i), Some(edge));
            assert_eq!(edges.len(), all.len() - i - 1);
        }
        assert_eq!(g.blocks().view(ids.t1).out_edges().nth(all.len()), None);
    }
}
