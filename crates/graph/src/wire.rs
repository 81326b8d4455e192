//! The node-block wire layout: the one byte format a node's adjacency takes
//! on its way from a graph processor's stripe to the active processor's
//! edge iterator (paper Sect. V-B2).
//!
//! A block is everything the active processor needs to add one node to its
//! active set: the node id plus its out- and in-adjacency with transition
//! probabilities. Blocks are little-endian with explicit length prefixes;
//! the format is self-delimiting, so blocks concatenate into stripes, reply
//! buffers and cache arenas without any framing around them.
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
//! * [`encode_node`] writes a block straight from the graph's CSR rows —
//!   how a GP stripe is built;
//! * [`BlockView`] reads a block *in place*: a total, length-validated parse
//!   of the three length fields, after which degrees are slice lengths and
//!   [`Edges`] decodes `(neighbour, probability)` pairs on the fly — how the
//!   AP serves adjacency from the bytes a GP sent, with no owned copy;
//! * [`NodeBlock`] is the owned form (two `Vec`s) that tests and probes
//!   handle; it encodes through the same writer and decodes through
//!   [`BlockView`], so there is exactly one definition of the format.

use crate::graph::Graph;
use crate::node::{NodeId, NodeTypeId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::mem::size_of;

/// Bytes of one encoded edge: `u32` neighbour id + `f64` probability.
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

fn put_edges(buf: &mut impl BufMut, len: usize, edges: impl Iterator<Item = (NodeId, f64)>) {
    buf.put_u32_le(len as u32);
    for (n, p) in edges {
        let mut edge = [0u8; EDGE_BYTES];
        edge[..4].copy_from_slice(&n.0.to_le_bytes());
        edge[4..].copy_from_slice(&p.to_le_bytes());
        buf.put_slice(&edge);
    }
}

/// Append the block of `v` to `buf`, read straight from the graph's CSR.
pub fn encode_node(g: &Graph, v: NodeId, buf: &mut Vec<u8>) {
    buf.put_u32_le(v.0);
    put_edges(buf, g.out_degree(v), g.out_edges(v));
    put_edges(buf, g.in_degree(v), g.in_edges(v));
}

fn split_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// Split one length-prefixed edge list off the front of `bytes`. `None`
/// when the prefix or any of the edges it announces is missing; the length
/// is checked against the bytes present before anything is sized by it.
fn split_edges(bytes: &[u8]) -> Option<(&[[u8; EDGE_BYTES]], &[u8])> {
    let (len, rest) = split_u32(bytes)?;
    let (edges, rest) = rest.split_at_checked((len as usize).checked_mul(EDGE_BYTES)?)?;
    Some((edges.as_chunks().0, rest))
}

/// One encoded block read in place: nothing is copied or allocated, the
/// edge lists stay the bytes they arrived as.
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    node: NodeId,
    out_edges: &'a [[u8; EDGE_BYTES]],
    in_edges: &'a [[u8; EDGE_BYTES]],
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
        self.out_edges.len()
    }

    /// Number of in-edges.
    pub fn in_degree(&self) -> usize {
        self.in_edges.len()
    }

    /// Out-edges `(target, M[node][target])`, in encoded (ascending) order.
    pub fn out_edges(&self) -> Edges<'a> {
        Edges(self.out_edges.iter())
    }

    /// In-edges `(source, M[source][node])`, in encoded (ascending) order.
    pub fn in_edges(&self) -> Edges<'a> {
        Edges(self.in_edges.iter())
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
/// from each 12-byte entry as it goes.
#[derive(Clone, Debug)]
pub struct Edges<'a>(std::slice::Iter<'a, [u8; EDGE_BYTES]>);

impl Iterator for Edges<'_> {
    type Item = (NodeId, f64);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, f64)> {
        let e = self.0.next()?;
        let id = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
        let prob = f64::from_le_bytes([e[4], e[5], e[6], e[7], e[8], e[9], e[10], e[11]]);
        Some((NodeId(id), prob))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
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
    /// Extract the block for `v` from a graph.
    pub fn extract(g: &Graph, v: NodeId) -> Self {
        NodeBlock {
            node: v,
            out_edges: g.out_edges(v).collect(),
            in_edges: g.in_edges(v).collect(),
        }
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

    /// Encode a batch of blocks into one buffer (a GP response payload).
    pub fn encode_batch(blocks: &[NodeBlock]) -> Bytes {
        let total: usize = blocks.iter().map(|b| b.encoded_len()).sum();
        let mut buf = BytesMut::with_capacity(total);
        for b in blocks {
            b.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Decode a whole buffer of concatenated blocks.
    pub fn decode_batch(buf: Bytes) -> Vec<NodeBlock> {
        blocks(buf.as_slice()).map(|(_, b)| b.to_block()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::fig2_toy;

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
        let encoded = NodeBlock::encode_batch(&blocks);
        let decoded = NodeBlock::decode_batch(encoded);
        assert_eq!(decoded, blocks);
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
        for v in g.nodes() {
            let block = NodeBlock::extract(&g, v);
            let mut owned = BytesMut::new();
            block.encode(&mut owned);
            let mut direct = Vec::new();
            encode_node(&g, v, &mut direct);
            assert_eq!(owned.as_slice(), direct);
            let view = BlockView::parse(&direct).unwrap();
            assert_eq!(view.to_block(), block);
            assert_eq!(view.out_degree(), g.out_degree(v));
            assert_eq!(view.in_degree(), g.in_degree(v));
            assert_eq!(view.encoded_len(), direct.len());
            assert_eq!(view.footprint_bytes(), g.node_footprint_bytes(v));
        }
    }

    #[test]
    fn block_walk_is_total_on_truncated_and_hostile_input() {
        let (g, _) = fig2_toy();
        let originals: Vec<_> = g.nodes().map(|v| NodeBlock::extract(&g, v)).collect();
        let full = NodeBlock::encode_batch(&originals);
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
        let full = NodeBlock::encode_batch(&blocks);
        for cut in 0..full.len() {
            let mut short = full.slice(..cut);
            let decoded = NodeBlock::decode_batch(short.clone());
            assert!(decoded.len() <= blocks.len());
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
        let decoded = NodeBlock::decode_batch(NodeBlock::encode_batch(&blocks));
        assert_eq!(decoded, blocks);
    }

    #[test]
    fn batch_encoding_is_deterministic() {
        // Same blocks → same bytes, so GP responses are replayable and the
        // metered transfer volumes of Fig. 12 are reproducible.
        let (g, _) = fig2_toy();
        let blocks: Vec<_> = g.nodes().map(|v| NodeBlock::extract(&g, v)).collect();
        assert_eq!(
            NodeBlock::encode_batch(&blocks),
            NodeBlock::encode_batch(&blocks)
        );
    }
}
