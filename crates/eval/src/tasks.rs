//! The paper's four ground-truth ranking tasks (Sect. VI-A).
//!
//! "We reserve some nodes with known association to the query, and then test
//! whether a proximity measure can rank these nodes highly without the
//! knowledge of the association. ... To test the ability to recover the
//! ground truth, we remove all direct edges between the query and ground
//! truth nodes."
//!
//! * **Task 1 (Author)** — BibNet; query = paper, ground truth = its authors.
//! * **Task 2 (Venue)** — BibNet; query = paper, ground truth = its venue.
//! * **Task 3 (Relevant URL)** — QLog; query = phrase, ground truth = one
//!   randomly chosen clicked URL.
//! * **Task 4 (Equivalent search)** — QLog; query = phrase, ground truth =
//!   phrases with the same keyword set (never directly connected, so no
//!   removal needed).
//!
//! **Reproduction note**: the paper removes query–truth edges per query; we
//! remove them for *all* sampled queries in one pass and share a single
//! modified graph across the task (one `O(E)` rebuild instead of one per
//! query). The removal affects well under 1% of edges at our query counts,
//! applies identically to every measure, and preserves the comparison
//! shapes.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_core::Query;
use rtr_datagen::{BibNet, QLog};
use rtr_graph::{EdgeWeights, Graph, GraphBuilder, NodeId, NodeLabels, NodeTypeId};
use std::collections::HashSet;
use std::sync::Arc;

/// Which of the paper's four tasks an instance realizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Task 1: find a paper's authors.
    Author,
    /// Task 2: find a paper's venue.
    Venue,
    /// Task 3: find a relevant clicked URL for a phrase.
    RelevantUrl,
    /// Task 4: find equivalent search phrases.
    EquivalentSearch,
}

impl TaskKind {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Author => "Task 1 (Author)",
            TaskKind::Venue => "Task 2 (Venue)",
            TaskKind::RelevantUrl => "Task 3 (Relevant URL)",
            TaskKind::EquivalentSearch => "Task 4 (Equivalent search)",
        }
    }
}

/// One evaluation query with its reserved ground truth.
#[derive(Clone, Debug)]
pub struct TaskQuery {
    /// The query (a single node for all four tasks).
    pub query: Query,
    /// The reserved nodes the measure should re-discover.
    pub ground_truth: Vec<NodeId>,
}

/// A materialized task: modified graph + queries + result-type filter.
#[derive(Clone)]
pub struct TaskInstance {
    /// Which task this is.
    pub kind: TaskKind,
    /// The evaluation graph (query–truth edges removed).
    pub graph: Arc<Graph>,
    /// `graph`'s labels, the source dataset's.
    pub labels: Arc<NodeLabels>,
    /// Test queries.
    pub queries: Vec<TaskQuery>,
    /// Only nodes of this type are ranked ("we filter out the query node
    /// itself and nodes not of the target type").
    pub target_type: NodeTypeId,
}

/// A (test, development) pair sharing one modified graph — the paper tunes
/// β on "1000 randomly sampled development queries that do not overlap with
/// the test queries".
pub struct TaskSplit {
    /// The held-out test instance.
    pub test: TaskInstance,
    /// The development instance (same graph, disjoint queries).
    pub dev: TaskInstance,
}

/// Rebuild `g` from its raw `weights` without the directed edges in `drop`
/// (both directions of an undirected pair must be listed by the caller),
/// with `g`'s `labels`.
fn remove_edges(
    g: &Graph,
    weights: &EdgeWeights,
    labels: &NodeLabels,
    drop: &HashSet<(u32, u32)>,
) -> (Graph, NodeLabels) {
    let mut b = GraphBuilder::with_capacity(g.node_count(), g.edge_count());
    for (_, name) in g.types().iter() {
        b.register_type(name);
    }
    for v in g.nodes() {
        b.add_labeled_node(g.node_type(v), labels.label(g, v));
    }
    for v in g.nodes() {
        for (d, w) in weights.out_edges(g, v) {
            if !drop.contains(&(v.0, d.0)) {
                b.add_edge(v, d, w);
            }
        }
    }
    let (graph, _, labels) = b.build_with_columns();
    (graph, labels)
}

fn sample_disjoint<T: Copy>(
    pool: &[T],
    n_test: usize,
    n_dev: usize,
    rng: &mut ChaCha8Rng,
) -> (Vec<T>, Vec<T>) {
    let mut shuffled: Vec<T> = pool.to_vec();
    shuffled.shuffle(rng);
    let n_test = n_test.min(shuffled.len());
    let n_dev = n_dev.min(shuffled.len().saturating_sub(n_test));
    let test = shuffled[..n_test].to_vec();
    let dev = shuffled[n_test..n_test + n_dev].to_vec();
    (test, dev)
}

fn build_split(
    kind: TaskKind,
    (graph, labels): (Graph, NodeLabels),
    target_type: NodeTypeId,
    test: Vec<TaskQuery>,
    dev: Vec<TaskQuery>,
) -> TaskSplit {
    let (graph, labels) = (Arc::new(graph), Arc::new(labels));
    TaskSplit {
        test: TaskInstance {
            kind,
            graph: Arc::clone(&graph),
            labels: Arc::clone(&labels),
            queries: test,
            target_type,
        },
        dev: TaskInstance {
            kind,
            graph,
            labels,
            queries: dev,
            target_type,
        },
    }
}

/// Task 1 (Author): given a paper, re-discover its authors.
pub fn task1_author(net: &BibNet, n_test: usize, n_dev: usize, seed: u64) -> TaskSplit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pool: Vec<usize> = (0..net.papers.len())
        .filter(|&i| !net.paper_authors[i].is_empty())
        .collect();
    let (test_idx, dev_idx) = sample_disjoint(&pool, n_test, n_dev, &mut rng);

    let mut drop = HashSet::new();
    let make = |idx: &[usize], drop: &mut HashSet<(u32, u32)>| -> Vec<TaskQuery> {
        idx.iter()
            .map(|&i| {
                let paper = net.papers[i];
                let gt = net.paper_authors[i].clone();
                for &a in &gt {
                    drop.insert((paper.0, a.0));
                    drop.insert((a.0, paper.0));
                }
                TaskQuery {
                    query: Query::single(paper),
                    ground_truth: gt,
                }
            })
            .collect()
    };
    let test = make(&test_idx, &mut drop);
    let dev = make(&dev_idx, &mut drop);
    let graph = remove_edges(&net.graph, &net.edge_weights, &net.labels, &drop);
    build_split(TaskKind::Author, graph, net.author_type(), test, dev)
}

/// Task 2 (Venue): given a paper, re-discover its venue.
pub fn task2_venue(net: &BibNet, n_test: usize, n_dev: usize, seed: u64) -> TaskSplit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pool: Vec<usize> = (0..net.papers.len()).collect();
    let (test_idx, dev_idx) = sample_disjoint(&pool, n_test, n_dev, &mut rng);

    let mut drop = HashSet::new();
    let make = |idx: &[usize], drop: &mut HashSet<(u32, u32)>| -> Vec<TaskQuery> {
        idx.iter()
            .map(|&i| {
                let paper = net.papers[i];
                let venue = net.paper_venue[i];
                drop.insert((paper.0, venue.0));
                drop.insert((venue.0, paper.0));
                TaskQuery {
                    query: Query::single(paper),
                    ground_truth: vec![venue],
                }
            })
            .collect()
    };
    let test = make(&test_idx, &mut drop);
    let dev = make(&dev_idx, &mut drop);
    let graph = remove_edges(&net.graph, &net.edge_weights, &net.labels, &drop);
    build_split(TaskKind::Venue, graph, net.venue_type(), test, dev)
}

/// Task 3 (Relevant URL): given a phrase, re-discover one clicked URL
/// (chosen uniformly at random, as in the paper).
pub fn task3_relevant_url(qlog: &QLog, n_test: usize, n_dev: usize, seed: u64) -> TaskSplit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Only phrases with ≥ 2 clicked URLs qualify: removing the single edge
    // of a 1-URL phrase would disconnect it entirely.
    let pool: Vec<NodeId> = qlog
        .phrases
        .iter()
        .copied()
        .filter(|&p| qlog.clicked_urls(p).len() >= 2)
        .collect();
    let (test_ph, dev_ph) = sample_disjoint(&pool, n_test, n_dev, &mut rng);

    let mut drop = HashSet::new();
    let mut make = |phs: &[NodeId], drop: &mut HashSet<(u32, u32)>| -> Vec<TaskQuery> {
        phs.iter()
            .map(|&ph| {
                // A "randomly chosen clicked URL" in a real log is a random
                // *click event*, so sample URLs proportionally to their click
                // counts — this is what makes Task 3 importance-leaning in
                // the paper (users click well-known sites).
                let url_ty = qlog.url_type();
                // Tempered (clicks^0.75) weighting: real relevance judgments
                // correlate with clicks but are not pure click-frequency.
                let weighted: Vec<(NodeId, f64)> = qlog
                    .edge_weights
                    .out_edges(&qlog.graph, ph)
                    .filter(|&(v, _)| qlog.graph.node_type(v) == url_ty)
                    .map(|(v, w)| (v, w.powf(0.75)))
                    .collect();
                let total: f64 = weighted.iter().map(|&(_, w)| w).sum();
                let mut pick = rng.gen::<f64>() * total;
                let mut chosen = weighted.last().expect("has clicks").0;
                for &(url, w) in &weighted {
                    pick -= w;
                    if pick <= 0.0 {
                        chosen = url;
                        break;
                    }
                }
                drop.insert((ph.0, chosen.0));
                drop.insert((chosen.0, ph.0));
                TaskQuery {
                    query: Query::single(ph),
                    ground_truth: vec![chosen],
                }
            })
            .collect()
    };
    let test = make(&test_ph, &mut drop);
    let dev = make(&dev_ph, &mut drop);
    let graph = remove_edges(&qlog.graph, &qlog.edge_weights, &qlog.labels, &drop);
    build_split(TaskKind::RelevantUrl, graph, qlog.url_type(), test, dev)
}

/// Task 4 (Equivalent search): given a phrase, re-discover its equivalents.
/// No edges are removed — equivalents are only ever connected through URLs.
pub fn task4_equivalent(qlog: &QLog, n_test: usize, n_dev: usize, seed: u64) -> TaskSplit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pool: Vec<NodeId> = qlog
        .phrases
        .iter()
        .copied()
        .filter(|&p| !qlog.equivalents(p).is_empty())
        .collect();
    let (test_ph, dev_ph) = sample_disjoint(&pool, n_test, n_dev, &mut rng);

    let make = |phs: &[NodeId]| -> Vec<TaskQuery> {
        phs.iter()
            .map(|&ph| TaskQuery {
                query: Query::single(ph),
                ground_truth: qlog.equivalents(ph),
            })
            .collect()
    };
    let test = make(&test_ph);
    let dev = make(&dev_ph);
    build_split(
        TaskKind::EquivalentSearch,
        (qlog.graph.clone(), qlog.labels.clone()),
        qlog.phrase_type(),
        test,
        dev,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_datagen::{BibNetConfig, QLogConfig};

    fn net() -> BibNet {
        BibNet::generate(&BibNetConfig::tiny(), 1)
    }

    fn qlog() -> QLog {
        QLog::generate(&QLogConfig::tiny(), 1)
    }

    #[test]
    fn task1_removes_author_edges() {
        let net = net();
        let split = task1_author(&net, 10, 5, 7);
        assert_eq!(split.test.queries.len(), 10);
        assert_eq!(split.dev.queries.len(), 5);
        for tq in &split.test.queries {
            let paper = tq.query.nodes()[0];
            for &a in &tq.ground_truth {
                assert!(
                    !split.test.graph.has_edge(paper, a),
                    "author edge not removed"
                );
                assert!(!split.test.graph.has_edge(a, paper));
            }
        }
    }

    #[test]
    fn task1_keeps_other_edges() {
        let net = net();
        let split = task1_author(&net, 5, 0, 7);
        // Papers keep their term edges (otherwise they'd be unreachable).
        for tq in &split.test.queries {
            let paper = tq.query.nodes()[0];
            assert!(
                split.test.graph.out_degree(paper) > 0,
                "query paper disconnected"
            );
        }
    }

    #[test]
    fn task2_single_venue_truth() {
        let net = net();
        let split = task2_venue(&net, 8, 4, 3);
        for tq in &split.test.queries {
            assert_eq!(tq.ground_truth.len(), 1);
            let paper = tq.query.nodes()[0];
            assert!(!split.test.graph.has_edge(paper, tq.ground_truth[0]));
        }
        assert_eq!(
            split.test.target_type,
            net.venue_type(),
            "ranking must filter to venues"
        );
    }

    #[test]
    fn test_and_dev_queries_disjoint() {
        let net = net();
        let split = task2_venue(&net, 20, 20, 11);
        let test_nodes: HashSet<NodeId> = split
            .test
            .queries
            .iter()
            .map(|q| q.query.nodes()[0])
            .collect();
        for dq in &split.dev.queries {
            assert!(!test_nodes.contains(&dq.query.nodes()[0]));
        }
    }

    #[test]
    fn task3_removes_exactly_chosen_url() {
        let q = qlog();
        let split = task3_relevant_url(&q, 10, 0, 5);
        for tq in &split.test.queries {
            let ph = tq.query.nodes()[0];
            let gt = tq.ground_truth[0];
            assert!(!split.test.graph.has_edge(ph, gt));
            // The phrase keeps at least one other URL.
            assert!(split.test.graph.out_degree(ph) >= 1);
        }
    }

    #[test]
    fn task4_ground_truth_is_equivalents() {
        let q = qlog();
        let split = task4_equivalent(&q, 10, 0, 5);
        for tq in &split.test.queries {
            assert!(!tq.ground_truth.is_empty());
            let ph = tq.query.nodes()[0];
            for &e in &tq.ground_truth {
                assert_ne!(e, ph);
                // Never directly connected (bipartite graph).
                assert!(!split.test.graph.has_edge(ph, e));
            }
        }
        // No edges removed: same edge count as the source graph.
        assert_eq!(split.test.graph.edge_count(), q.graph.edge_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let net = net();
        let a = task2_venue(&net, 10, 5, 42);
        let b = task2_venue(&net, 10, 5, 42);
        for (x, y) in a.test.queries.iter().zip(&b.test.queries) {
            assert_eq!(x.query.nodes(), y.query.nodes());
            assert_eq!(x.ground_truth, y.ground_truth);
        }
    }

    #[test]
    fn shared_graph_between_test_and_dev() {
        let net = net();
        let split = task1_author(&net, 5, 5, 1);
        assert!(Arc::ptr_eq(&split.test.graph, &split.dev.graph));
        assert!(Arc::ptr_eq(&split.test.labels, &split.dev.labels));
        // The rebuilt graph keeps every node's label.
        let (g, labels) = (&split.test.graph, &split.test.labels);
        for v in net.graph.nodes() {
            assert_eq!(labels.label(g, v), net.labels.label(&net.graph, v));
        }
    }

    #[test]
    fn task_names() {
        assert_eq!(TaskKind::Author.name(), "Task 1 (Author)");
        assert_eq!(
            TaskKind::EquivalentSearch.name(),
            "Task 4 (Equivalent search)"
        );
    }
}
