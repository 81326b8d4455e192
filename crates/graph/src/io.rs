//! Plain-text graph interchange: node and edge lists.
//!
//! Downstream users bring their own graphs; this module reads and writes a
//! simple tab-separated format so real datasets (a DBLP dump, a query log)
//! can be loaded without touching the builder API:
//!
//! ```text
//! # nodes: id <TAB> type <TAB> label      (id must count up from 0)
//! N 0    term    spatio
//! N 1    venue   VLDB
//! # edges: src <TAB> dst <TAB> weight [<TAB> "u" for undirected]
//! E 0    1   2.5    u
//! ```
//!
//! Lines starting with `#` and blank lines are ignored. The format is
//! line-oriented and streaming-friendly; parse errors carry line numbers.
//!
//! There are no escapes, and the reader trims each line, so [`write_graph`]
//! refuses ([`IoError::Unwritable`]) a label or type name with a tab, CR or
//! LF, or trailing whitespace, and an empty type name: they would not read
//! back as written.

use crate::builder::GraphBuilder;
use crate::graph::{EdgeWeights, Graph};
use crate::node::{NodeId, NodeLabels};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors while parsing the text format.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with 1-based line number and description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The out-edge weights of `node`, each finite and positive, sum past
    /// `f64`'s range, so its transition probabilities would be NaN or zero.
    WeightOverflow {
        /// 1-based line number of the last edge record in `node`'s row.
        line: usize,
        /// The node whose row overflows.
        node: NodeId,
    },
    /// `node`'s type name or label would not read back as written (see
    /// the module docs); nothing was written.
    Unwritable {
        /// The node.
        node: NodeId,
        /// Its names, as `type "…", label "…"`.
        names: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::WeightOverflow { line, node } => write!(
                f,
                "line {line}: out-edge weights of node {node} sum past f64's range"
            ),
            IoError::Unwritable { node, names } => write!(
                f,
                "node {node} ({names}): a tab, CR or LF, trailing whitespace or an \
                 empty type name would not read back"
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// Read a graph from the tab-separated text format, with its raw edge
/// weights (merged over parallel records) and its labels.
pub fn read_graph<R: Read>(reader: R) -> Result<(Graph, EdgeWeights, NodeLabels), IoError> {
    let mut b = GraphBuilder::new();
    let mut next_node = 0u32;
    // Per node, the line of the last edge record that added to its row.
    let mut row_end: Vec<usize> = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        // invariant: split() always yields at least one item, even on "".
        let tag = fields.next().expect("split yields at least one field");
        match tag {
            "N" => {
                let id: u32 = fields
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing node id"))?
                    .parse()
                    .map_err(|e| parse_err(lineno, format!("bad node id: {e}")))?;
                if id != next_node {
                    return Err(parse_err(
                        lineno,
                        format!("node ids must be consecutive: expected {next_node}, got {id}"),
                    ));
                }
                next_node += 1;
                let ty_name = fields
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing node type"))?;
                let label = fields.next().unwrap_or("");
                let ty = b.register_type(ty_name);
                b.add_labeled_node(ty, label);
                row_end.push(0);
            }
            "E" => {
                let src: u32 = fields
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing edge source"))?
                    .parse()
                    .map_err(|e| parse_err(lineno, format!("bad edge source: {e}")))?;
                let dst: u32 = fields
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing edge target"))?
                    .parse()
                    .map_err(|e| parse_err(lineno, format!("bad edge target: {e}")))?;
                let weight: f64 = fields
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing edge weight"))?
                    .parse()
                    .map_err(|e| parse_err(lineno, format!("bad edge weight: {e}")))?;
                if src >= next_node || dst >= next_node {
                    return Err(parse_err(lineno, "edge references undeclared node"));
                }
                if !(weight > 0.0 && weight.is_finite()) {
                    return Err(parse_err(lineno, format!("non-positive weight {weight}")));
                }
                row_end[src as usize] = lineno;
                match fields.next() {
                    Some("u") => {
                        row_end[dst as usize] = lineno;
                        b.add_undirected_edge(NodeId(src), NodeId(dst), weight)
                    }
                    Some(other) => {
                        return Err(parse_err(
                            lineno,
                            format!("unknown edge flag '{other}' (only 'u')"),
                        ))
                    }
                    None => b.add_edge(NodeId(src), NodeId(dst), weight),
                }
            }
            other => {
                return Err(parse_err(
                    lineno,
                    format!("unknown record tag '{other}' (expected N or E)"),
                ))
            }
        }
    }
    b.try_build_with_columns()
        .map_err(|node| IoError::WeightOverflow {
            line: row_end[node.index()],
            node,
        })
}

/// Whether the text format cannot carry `name` (see the module docs).
fn unreadable(name: &str) -> bool {
    name.contains(['\t', '\r', '\n']) || name.ends_with(char::is_whitespace)
}

/// Write a graph with its raw edge weights and labels in the tab-separated
/// text format, undirected pairs as two directed `E` records; a name
/// [`read_graph`] would not read back is refused before anything is written.
pub fn write_graph<W: Write>(
    g: &Graph,
    weights: &EdgeWeights,
    labels: &NodeLabels,
    mut writer: W,
) -> Result<(), IoError> {
    for v in g.nodes() {
        let (ty, label) = (g.types().name(g.node_type(v)), labels.label(g, v));
        if ty.is_empty() || unreadable(ty) || unreadable(label) {
            let names = format!("type {ty:?}, label {label:?}");
            return Err(IoError::Unwritable { node: v, names });
        }
    }
    writeln!(
        writer,
        "# RoundTripRank graph: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    )?;
    for v in g.nodes() {
        writeln!(
            writer,
            "N\t{}\t{}\t{}",
            v.0,
            g.types().name(g.node_type(v)),
            labels.label(g, v)
        )?;
    }
    for v in g.nodes() {
        for (d, w) in weights.out_edges(g, v) {
            writeln!(writer, "E\t{}\t{}\t{}", v.0, d.0, w)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::fig2_toy_with_columns;

    #[test]
    fn roundtrip_preserves_graph() {
        let (g, weights, labels, _) = fig2_toy_with_columns();
        let mut buf = Vec::new();
        write_graph(&g, &weights, &labels, &mut buf).expect("write");
        let (back, back_weights, back_labels) = read_graph(buf.as_slice()).expect("read");
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(back_labels.label(&back, v), labels.label(&g, v));
            assert_eq!(
                back.types().name(back.node_type(v)),
                g.types().name(g.node_type(v))
            );
            let a: Vec<_> = g.out_edges(v).collect();
            let b: Vec<_> = back.out_edges(v).collect();
            assert_eq!(a, b, "adjacency differs at {v:?}");
            assert_eq!(back_weights.row(&back, v), weights.row(&g, v));
        }
    }

    #[test]
    fn parses_minimal_example() {
        let text = "# comment\nN\t0\tterm\tspatio\nN\t1\tvenue\tVLDB\nE\t0\t1\t2.5\tu\n";
        let (g, weights, labels) = read_graph(text.as_bytes()).expect("parse");
        assert_eq!(weights.row(&g, NodeId(1)), [2.5]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2); // undirected = both directions
        assert_eq!(labels.label(&g, NodeId(1)), "VLDB");
        assert!((g.transition_prob(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_gap_in_node_ids() {
        let text = "N\t0\tn\t\nN\t2\tn\t\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("consecutive"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn rejects_edge_to_undeclared_node() {
        let text = "N\t0\tn\t\nE\t0\t5\t1.0\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("undeclared"), "{err}");
    }

    #[test]
    fn rejects_bad_weight() {
        let text = "N\t0\tn\t\nN\t1\tn\t\nE\t0\t1\t-3\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("weight"), "{err}");
    }

    #[test]
    fn rejects_unknown_tag() {
        let err = read_graph("X\t0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown record tag"), "{err}");
    }

    #[test]
    fn rejects_unknown_edge_flag() {
        let text = "N\t0\tn\t\nN\t1\tn\t\nE\t0\t1\t1.0\tz\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown edge flag"), "{err}");
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let (g, weights, labels) = read_graph("".as_bytes()).expect("parse");
        assert!(weights.is_empty() && labels.is_empty());
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn roundtrip_keeps_empty_and_multibyte_labels() {
        let names = ["", "Zürich · 東京", "", "VLDB", "VLDB"];
        let mut b = crate::GraphBuilder::new();
        let ty = b.register_type("venue");
        let ids: Vec<_> = names.iter().map(|l| b.add_labeled_node(ty, l)).collect();
        b.add_undirected_edge(ids[1], ids[3], 2.0);
        let (g, weights, labels) = b.build_with_columns();
        let mut buf = Vec::new();
        write_graph(&g, &weights, &labels, &mut buf).expect("write");
        let (back, _, back_labels) = read_graph(buf.as_slice()).expect("read");
        for (&v, name) in ids.iter().zip(names) {
            assert_eq!(back_labels.label(&back, v), name);
        }
        assert_eq!(back_labels.find_by_label(&back, "VLDB"), Some(ids[3]));
        assert_eq!(back.edge_count(), 2);
    }

    #[test]
    fn labels_with_spaces_survive() {
        let text = "N\t0\tvenue\tSpatio-Temporal Databases, Dagstuhl\n";
        let (g, _, labels) = read_graph(text.as_bytes()).expect("parse");
        assert_eq!(
            labels.label(&g, NodeId(0)),
            "Spatio-Temporal Databases, Dagstuhl"
        );
    }

    /// Write a two-node graph whose node 1 has type `ty` and label `label`.
    fn write_one(ty: &str, label: &str) -> Result<Vec<u8>, IoError> {
        let mut b = crate::GraphBuilder::new();
        let plain = b.register_type("venue");
        let other = b.register_type(ty);
        let n = [
            b.add_labeled_node(plain, "VLDB"),
            b.add_labeled_node(other, label),
        ];
        b.add_undirected_edge(n[0], n[1], 1.0);
        let (g, weights, labels) = b.build_with_columns();
        let mut buf = Vec::new();
        write_graph(&g, &weights, &labels, &mut buf).map(|()| buf)
    }

    #[test]
    fn names_that_would_not_read_back_are_refused() {
        // Read back, "VLDB " came back "VLDB", "a\tb" came back "a", and
        // "a\nb" failed with "line 3: unknown record tag 'b'".
        for (ty, label) in [
            ("venue", "VLDB "),
            ("venue", "a\tb"),
            ("venue", "a\nb"),
            ("venue", "a\rb"),
            ("venue", "\u{a0}"),
            ("venue ", ""),
            ("", "x"),
        ] {
            let err = write_one(ty, label).unwrap_err();
            let names = format!("type {ty:?}, label {label:?}");
            assert!(
                matches!(&err, IoError::Unwritable { node, names: n } if *node == NodeId(1) && *n == names),
                "{err}"
            );
            assert!(err.to_string().starts_with("node 1 ("), "{err}");
        }
        // Leading and inner spaces, and a tab-free type name, are fine.
        let buf = write_one("venue  x", " a b").expect("writable");
        let (g, _, labels) = read_graph(buf.as_slice()).expect("read");
        assert_eq!(labels.label(&g, NodeId(1)), " a b");
        assert_eq!(g.types().name(g.node_type(NodeId(1))), "venue  x");
    }

    #[test]
    fn rejects_weights_that_sum_past_f64_range() {
        let nodes = "N\t0\tn\t\nN\t1\tn\t\nN\t2\tn\t\n";
        // Parallel records merge to +∞ (the row read NaN and 0.0), and two
        // records with finite sums total +∞ (the row read zeros). The error
        // names the row's last edge record, parallel or not.
        let merged = "E\t0\t1\t1e308\nE\t0\t2\t1e308\nE\t0\t1\t1e308\nE\t1\t0\t1\n";
        let total = "E\t0\t1\t1\nE\t1\t0\t1e308\nE\t2\t1\t1e308\tu\n";
        for (edges, line, node) in [(merged, 6, 0), (total, 6, 1)] {
            let err = read_graph(format!("{nodes}{edges}").as_bytes()).unwrap_err();
            assert!(
                matches!(err, IoError::WeightOverflow { line: l, node: n } if l == line && n == NodeId(node)),
                "{err}"
            );
            assert!(
                err.to_string().starts_with(&format!("line {line}: ")),
                "{err}"
            );
        }
    }
}
