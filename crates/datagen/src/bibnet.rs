//! Synthetic bibliographic network ("BibNet").
//!
//! Simulates the paper's DBLP+Citeseer extraction (Sect. VI): papers,
//! authors, terms and venues with paper–term / paper–venue / paper–author
//! undirected edges and directed paper–paper citations.
//!
//! The generator plants the structure the paper's evaluation depends on:
//!
//! * **topics** — disjoint clusters of terms plus a shared general
//!   vocabulary;
//! * **flagship venues** — popular, accept papers from *every* topic
//!   (important but unspecific: easily reached from any term, but return
//!   walks leak into other topics);
//! * **niche venues** — accept only their own topic (specific: harder to
//!   reach, but reliably lead back);
//! * Zipfian venue popularity, topic popularity, author productivity and
//!   term frequency, giving realistic heavy-tailed degrees;
//! * topic-biased preferential-attachment citations.
//!
//! Every paper's venue and author set is recorded as machine-readable ground
//! truth for the evaluation tasks (Task 1 — Author, Task 2 — Venue).

use crate::zipf::Zipf;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_graph::{EdgeWeights, Graph, GraphBuilder, NodeId, NodeTypeId};

/// Size and shape knobs for the BibNet generator.
#[derive(Clone, Debug)]
pub struct BibNetConfig {
    /// Number of latent topics.
    pub topics: usize,
    /// Topic-specific terms per topic.
    pub terms_per_topic: usize,
    /// Shared (general) vocabulary size.
    pub shared_terms: usize,
    /// Number of venues.
    pub venues: usize,
    /// Fraction of venues that are broad flagships (accept all topics).
    pub flagship_fraction: f64,
    /// Number of authors.
    pub authors: usize,
    /// Number of papers (generated chronologically).
    pub papers: usize,
    /// Terms per paper, inclusive range.
    pub terms_per_paper: (usize, usize),
    /// Authors per paper, inclusive range.
    pub authors_per_paper: (usize, usize),
    /// Maximum citations per paper (to earlier papers).
    pub max_citations: usize,
    /// Zipf exponent of venue popularity.
    pub venue_popularity_s: f64,
    /// Zipf exponent of topic popularity.
    pub topic_popularity_s: f64,
    /// Probability a paper's term is drawn from its topic vocabulary
    /// (vs. the shared vocabulary).
    pub topical_term_prob: f64,
}

impl BibNetConfig {
    /// Minimal instance for fast unit tests (hundreds of nodes).
    pub fn tiny() -> Self {
        Self {
            topics: 3,
            terms_per_topic: 8,
            shared_terms: 10,
            venues: 9,
            flagship_fraction: 0.34,
            authors: 40,
            papers: 120,
            terms_per_paper: (2, 4),
            authors_per_paper: (1, 3),
            max_citations: 3,
            venue_popularity_s: 1.0,
            topic_popularity_s: 1.0,
            topical_term_prob: 0.8,
        }
    }

    /// Mid-size instance for CI-speed experiment runs (≈4k nodes): same
    /// structure as [`Self::subgraph_scale`], an order of magnitude smaller.
    pub fn small() -> Self {
        Self {
            topics: 5,
            terms_per_topic: 40,
            shared_terms: 120,
            venues: 15,
            flagship_fraction: 0.27,
            authors: 700,
            papers: 2_500,
            terms_per_paper: (3, 6),
            authors_per_paper: (1, 3),
            max_citations: 5,
            venue_popularity_s: 1.0,
            topic_popularity_s: 0.8,
            topical_term_prob: 0.8,
        }
    }

    /// Effectiveness-subgraph scale: comparable to the paper's 28-venue
    /// BibNet subgraph (≈20k nodes, ≈250k edges).
    pub fn subgraph_scale() -> Self {
        Self {
            topics: 8,
            terms_per_topic: 120,
            shared_terms: 400,
            venues: 28,
            flagship_fraction: 0.25,
            authors: 3_000,
            papers: 15_000,
            terms_per_paper: (3, 8),
            authors_per_paper: (1, 4),
            max_citations: 6,
            venue_popularity_s: 1.0,
            topic_popularity_s: 0.8,
            topical_term_prob: 0.8,
        }
    }

    /// Efficiency-study scale (hundreds of thousands of nodes); the paper's
    /// full graphs are 2M nodes, which this approaches while staying
    /// laptop-friendly.
    pub fn full_scale() -> Self {
        Self {
            topics: 24,
            terms_per_topic: 400,
            shared_terms: 3_000,
            venues: 300,
            flagship_fraction: 0.15,
            authors: 40_000,
            papers: 150_000,
            terms_per_paper: (3, 8),
            authors_per_paper: (1, 4),
            max_citations: 8,
            venue_popularity_s: 1.0,
            topic_popularity_s: 0.8,
            topical_term_prob: 0.8,
        }
    }

    fn validate(&self) {
        assert!(self.topics > 0 && self.venues >= self.topics);
        assert!(self.terms_per_paper.0 >= 1 && self.terms_per_paper.0 <= self.terms_per_paper.1);
        assert!(
            self.authors_per_paper.0 >= 1 && self.authors_per_paper.0 <= self.authors_per_paper.1
        );
        assert!((0.0..=1.0).contains(&self.flagship_fraction));
        assert!((0.0..=1.0).contains(&self.topical_term_prob));
        assert!(self.authors > 0 && self.papers > 0 && self.terms_per_topic > 0);
    }
}

/// A generated bibliographic network with ground truth.
#[derive(Clone, Debug)]
pub struct BibNet {
    /// The graph (terms, venues, authors first; papers chronologically last,
    /// so prefix snapshots model growth).
    pub graph: Graph,
    /// Raw edge weights of `graph` (all 1, merged over parallel edges):
    /// what its growth snapshots and the evaluation tasks' edge removals
    /// renormalise from. The graph itself keeps only transition
    /// probabilities.
    pub edge_weights: EdgeWeights,
    /// Term nodes (topic terms grouped by topic, then shared terms).
    pub terms: Vec<NodeId>,
    /// Venue nodes.
    pub venues: Vec<NodeId>,
    /// Author nodes.
    pub authors: Vec<NodeId>,
    /// Paper nodes, in chronological order.
    pub papers: Vec<NodeId>,
    /// Ground truth: venue of paper `i` (Task 2).
    pub paper_venue: Vec<NodeId>,
    /// Ground truth: authors of paper `i` (Task 1).
    pub paper_authors: Vec<Vec<NodeId>>,
    /// Latent topic of paper `i`.
    pub paper_topic: Vec<usize>,
    /// Primary topic of each venue.
    pub venue_topic: Vec<usize>,
    /// Whether each venue is a broad flagship.
    pub venue_is_flagship: Vec<bool>,
    /// Topic of each term (`None` = shared vocabulary).
    pub term_topic: Vec<Option<usize>>,
    /// Number of topics.
    pub topic_count: usize,
}

impl BibNet {
    /// Generate a network from `config` with a fixed `seed`.
    pub fn generate(config: &BibNetConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_capacity(
            config.topics * config.terms_per_topic
                + config.shared_terms
                + config.venues
                + config.authors
                + config.papers,
            config.papers * 12,
        );
        let term_ty = b.register_type("term");
        let venue_ty = b.register_type("venue");
        let author_ty = b.register_type("author");
        let paper_ty = b.register_type("paper");

        // --- terms -----------------------------------------------------
        let mut terms = Vec::new();
        let mut term_topic = Vec::new();
        for topic in 0..config.topics {
            for i in 0..config.terms_per_topic {
                terms.push(b.add_labeled_node(term_ty, &format!("term:t{topic}:{i}")));
                term_topic.push(Some(topic));
            }
        }
        for i in 0..config.shared_terms {
            terms.push(b.add_labeled_node(term_ty, &format!("term:shared:{i}")));
            term_topic.push(None);
        }

        // --- venues ----------------------------------------------------
        let n_flagship = ((config.venues as f64) * config.flagship_fraction).round() as usize;
        let mut venues = Vec::new();
        let mut venue_topic = Vec::new();
        let mut venue_is_flagship = Vec::new();
        for v in 0..config.venues {
            let topic = v % config.topics;
            let flagship = v < n_flagship;
            let label = if flagship {
                format!("venue:flagship:{v}")
            } else {
                format!("venue:niche:t{topic}:{v}")
            };
            venues.push(b.add_labeled_node(venue_ty, &label));
            venue_topic.push(topic);
            venue_is_flagship.push(flagship);
        }
        // Popularity: flagships take the head of the Zipf ranking.
        let venue_pop = Zipf::new(config.venues, config.venue_popularity_s);
        let venue_weight: Vec<f64> = (0..config.venues).map(|v| venue_pop.pmf(v)).collect();

        // --- authors ---------------------------------------------------
        let mut authors = Vec::new();
        let mut author_topics: Vec<Vec<usize>> = Vec::new();
        for a in 0..config.authors {
            authors.push(b.add_labeled_node(author_ty, &format!("author:{a}")));
            let k = rng.gen_range(1..=2.min(config.topics));
            let mut ts: Vec<usize> = (0..config.topics).collect();
            ts.shuffle(&mut rng);
            ts.truncate(k);
            author_topics.push(ts);
        }
        let author_prod = Zipf::new(config.authors, 1.0);
        // Per-topic author pools with productivity weights, for fast sampling.
        let mut topic_authors: Vec<Vec<(usize, f64)>> = vec![Vec::new(); config.topics];
        for (a, ts) in author_topics.iter().enumerate() {
            for &t in ts {
                topic_authors[t].push((a, author_prod.pmf(a)));
            }
        }
        // Cumulative weights per topic for roulette sampling.
        let topic_author_cdf: Vec<Vec<f64>> = topic_authors
            .iter()
            .map(|pool| {
                let mut acc = 0.0;
                let mut cdf = Vec::with_capacity(pool.len());
                for &(_, w) in pool {
                    acc += w;
                    cdf.push(acc);
                }
                cdf
            })
            .collect();

        // Per-topic venue pools (flagships accept everything).
        let mut topic_venues: Vec<Vec<(usize, f64)>> = vec![Vec::new(); config.topics];
        for v in 0..config.venues {
            if venue_is_flagship[v] {
                for pool in topic_venues.iter_mut() {
                    pool.push((v, venue_weight[v]));
                }
            } else {
                topic_venues[venue_topic[v]].push((v, venue_weight[v]));
            }
        }
        let topic_venue_cdf: Vec<Vec<f64>> = topic_venues
            .iter()
            .map(|pool| {
                let mut acc = 0.0;
                pool.iter()
                    .map(|&(_, w)| {
                        acc += w;
                        acc
                    })
                    .collect()
            })
            .collect();

        let topic_pop = Zipf::new(config.topics, config.topic_popularity_s);
        let topic_term = Zipf::new(config.terms_per_topic, 1.0);
        let shared_term = if config.shared_terms > 0 {
            Some(Zipf::new(config.shared_terms, 1.0))
        } else {
            None
        };

        // --- papers (chronological) -------------------------------------
        let mut papers = Vec::new();
        let mut paper_venue = Vec::new();
        let mut paper_authors = Vec::new();
        let mut paper_topic = Vec::new();
        // Pending edges are added after all paper nodes exist.
        let mut edges: Vec<(usize, NodeId)> = Vec::new(); // (paper idx, other endpoint)
        let mut citations: Vec<(usize, usize)> = Vec::new(); // (citing, cited)

        for i in 0..config.papers {
            let topic = topic_pop.sample(&mut rng);
            paper_topic.push(topic);

            // Venue: roulette over the topic's accepting venues.
            let pool = &topic_venues[topic];
            let cdf = &topic_venue_cdf[topic];
            let vidx = roulette(cdf, &mut rng);
            let venue = venues[pool[vidx].0];
            paper_venue.push(venue);
            edges.push((i, venue));

            // Authors.
            let n_auth = rng.gen_range(config.authors_per_paper.0..=config.authors_per_paper.1);
            let mut chosen: Vec<NodeId> = Vec::with_capacity(n_auth);
            let apool = &topic_authors[topic];
            let acdf = &topic_author_cdf[topic];
            let mut guard = 0;
            while chosen.len() < n_auth && guard < n_auth * 20 {
                guard += 1;
                let author = if !apool.is_empty() && rng.gen_bool(0.9) {
                    authors[apool[roulette(acdf, &mut rng)].0]
                } else {
                    authors[author_prod.sample(&mut rng)]
                };
                if !chosen.contains(&author) {
                    chosen.push(author);
                }
            }
            if chosen.is_empty() {
                chosen.push(authors[rng.gen_range(0..config.authors)]);
            }
            for &a in &chosen {
                edges.push((i, a));
            }
            paper_authors.push(chosen);

            // Terms.
            let n_terms = rng.gen_range(config.terms_per_paper.0..=config.terms_per_paper.1);
            let mut picked_terms: Vec<NodeId> = Vec::with_capacity(n_terms);
            let mut guard = 0;
            while picked_terms.len() < n_terms && guard < n_terms * 20 {
                guard += 1;
                let term = match &shared_term {
                    Some(st) if !rng.gen_bool(config.topical_term_prob) => {
                        terms[config.topics * config.terms_per_topic + st.sample(&mut rng)]
                    }
                    _ => terms[topic * config.terms_per_topic + topic_term.sample(&mut rng)],
                };
                if !picked_terms.contains(&term) {
                    picked_terms.push(term);
                }
            }
            for &t in &picked_terms {
                edges.push((i, t));
            }

            // Citations: topic-biased preferential attachment to earlier papers.
            if i > 0 && config.max_citations > 0 {
                let n_cite = rng.gen_range(0..=config.max_citations.min(i));
                let mut cited: Vec<usize> = Vec::with_capacity(n_cite);
                let mut guard = 0;
                while cited.len() < n_cite && guard < n_cite * 30 {
                    guard += 1;
                    // Preferential by recency-free rank: sample j ∝ 1/(i-j)
                    // approximated by squaring a uniform toward recent papers.
                    let u: f64 = rng.gen();
                    let j = ((u * u) * i as f64) as usize; // biased toward 0 (old, well-cited)
                    let j = i - 1 - j.min(i - 1); // flip: mostly recent, some old
                    let accept = if paper_topic[j] == topic { 0.9 } else { 0.15 };
                    if rng.gen_bool(accept) && !cited.contains(&j) {
                        cited.push(j);
                    }
                }
                for j in cited {
                    citations.push((i, j));
                }
            }

            papers.push(NodeId(0)); // placeholder, filled below
            let _ = &papers;
        }

        // Materialize paper nodes (after entities, chronological order).
        for (i, paper_slot) in papers.iter_mut().enumerate() {
            *paper_slot = b.add_labeled_node(paper_ty, &format!("paper:{i}:t{}", paper_topic[i]));
        }
        for (i, other) in edges {
            b.add_undirected_edge(papers[i], other, 1.0);
        }
        for (citing, cited) in citations {
            b.add_edge(papers[citing], papers[cited], 1.0);
        }

        let (graph, edge_weights) = b.build_with_weights();
        BibNet {
            graph,
            edge_weights,
            terms,
            venues,
            authors,
            papers,
            paper_venue,
            paper_authors,
            paper_topic,
            venue_topic,
            venue_is_flagship,
            term_topic,
            topic_count: config.topics,
        }
    }

    /// The `term` node type id.
    pub fn term_type(&self) -> NodeTypeId {
        self.graph.types().get("term").expect("registered")
    }

    /// The `venue` node type id.
    pub fn venue_type(&self) -> NodeTypeId {
        self.graph.types().get("venue").expect("registered")
    }

    /// The `author` node type id.
    pub fn author_type(&self) -> NodeTypeId {
        self.graph.types().get("author").expect("registered")
    }

    /// The `paper` node type id.
    pub fn paper_type(&self) -> NodeTypeId {
        self.graph.types().get("paper").expect("registered")
    }

    /// Topic-specific term nodes of one topic.
    pub fn topic_terms(&self, topic: usize) -> Vec<NodeId> {
        self.terms
            .iter()
            .zip(&self.term_topic)
            .filter(|(_, t)| **t == Some(topic))
            .map(|(&n, _)| n)
            .collect()
    }

    /// Cumulative growth snapshots (paper Sect. VI-B2): every snapshot keeps
    /// the full entity sets (terms, venues, authors — these exist before any
    /// given paper) plus the chronologically first `fraction` of papers.
    /// Mirrors how a bibliography actually grows: new papers arrive, the
    /// term vocabulary and venue list are comparatively static.
    pub fn growth_snapshots(&self, fractions: &[f64]) -> Vec<rtr_graph::view::Subgraph> {
        assert!(
            fractions.windows(2).all(|w| w[0] < w[1]),
            "fractions must be strictly increasing"
        );
        fractions
            .iter()
            .map(|&f| {
                assert!(f > 0.0 && f <= 1.0, "fraction out of range");
                let k = ((self.papers.len() as f64) * f).round().max(1.0) as usize;
                let mut keep: Vec<NodeId> = Vec::new();
                keep.extend_from_slice(&self.terms);
                keep.extend_from_slice(&self.venues);
                keep.extend_from_slice(&self.authors);
                keep.extend_from_slice(&self.papers[..k.min(self.papers.len())]);
                rtr_graph::view::Subgraph::induce(&self.graph, &self.edge_weights, &keep)
            })
            .collect()
    }

    /// Position of a paper node in chronological order, if it is a paper.
    pub fn paper_position(&self, v: NodeId) -> Option<usize> {
        if self.papers.is_empty() {
            return None;
        }
        let first = self.papers[0];
        if v >= first && v.index() < first.index() + self.papers.len() {
            Some(v.index() - first.index())
        } else {
            None
        }
    }
}

/// Roulette-wheel selection over a cumulative weight array; returns an index.
fn roulette<R: Rng + ?Sized>(cdf: &[f64], rng: &mut R) -> usize {
    let total = *cdf.last().expect("non-empty pool");
    let u: f64 = rng.gen::<f64>() * total;
    match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("NaN weight")) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> BibNet {
        BibNet::generate(&BibNetConfig::tiny(), 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = BibNet::generate(&BibNetConfig::tiny(), 7);
        let b = BibNet::generate(&BibNetConfig::tiny(), 7);
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.paper_venue, b.paper_venue);
    }

    #[test]
    fn different_seeds_differ() {
        let a = BibNet::generate(&BibNetConfig::tiny(), 1);
        let b = BibNet::generate(&BibNetConfig::tiny(), 2);
        assert_ne!(a.paper_venue, b.paper_venue);
    }

    #[test]
    fn node_counts_match_config() {
        let cfg = BibNetConfig::tiny();
        let n = net();
        assert_eq!(
            n.terms.len(),
            cfg.topics * cfg.terms_per_topic + cfg.shared_terms
        );
        assert_eq!(n.venues.len(), cfg.venues);
        assert_eq!(n.authors.len(), cfg.authors);
        assert_eq!(n.papers.len(), cfg.papers);
        assert_eq!(
            n.graph.node_count(),
            n.terms.len() + n.venues.len() + n.authors.len() + n.papers.len()
        );
    }

    #[test]
    fn ground_truth_edges_exist() {
        let n = net();
        for (i, &paper) in n.papers.iter().enumerate() {
            assert!(
                n.graph.has_edge(paper, n.paper_venue[i]),
                "paper {i} missing venue edge"
            );
            for &a in &n.paper_authors[i] {
                assert!(n.graph.has_edge(paper, a), "paper {i} missing author edge");
                assert!(n.graph.has_edge(a, paper), "author edge not bidirectional");
            }
        }
    }

    #[test]
    fn every_paper_has_terms() {
        let n = net();
        let term_ty = n.term_type();
        for &paper in &n.papers {
            let term_edges = n
                .graph
                .out_neighbors(paper)
                .iter()
                .filter(|&&v| n.graph.node_type(v) == term_ty)
                .count();
            assert!(term_edges >= 1, "paper {paper:?} has no terms");
        }
    }

    #[test]
    fn flagship_venues_attract_more_papers() {
        let n = BibNet::generate(&BibNetConfig::tiny(), 3);
        let flag_degree: f64 = {
            let (sum, count) = n
                .venues
                .iter()
                .zip(&n.venue_is_flagship)
                .filter(|(_, f)| **f)
                .fold((0usize, 0usize), |(s, c), (&v, _)| {
                    (s + n.graph.in_degree(v), c + 1)
                });
            sum as f64 / count.max(1) as f64
        };
        let niche_degree: f64 = {
            let (sum, count) = n
                .venues
                .iter()
                .zip(&n.venue_is_flagship)
                .filter(|(_, f)| !**f)
                .fold((0usize, 0usize), |(s, c), (&v, _)| {
                    (s + n.graph.in_degree(v), c + 1)
                });
            sum as f64 / count.max(1) as f64
        };
        assert!(
            flag_degree > niche_degree,
            "flagship avg degree {flag_degree} <= niche {niche_degree}"
        );
    }

    #[test]
    fn niche_venues_are_topically_pure() {
        // Papers in a niche venue must share the venue's topic.
        let n = net();
        for i in 0..n.papers.len() {
            let venue = n.paper_venue[i];
            let vpos = n.venues.iter().position(|&v| v == venue).expect("venue");
            if !n.venue_is_flagship[vpos] {
                assert_eq!(
                    n.paper_topic[i], n.venue_topic[vpos],
                    "off-topic paper in niche venue"
                );
            }
        }
    }

    #[test]
    fn citations_point_backward_in_time() {
        let n = net();
        let paper_ty = n.paper_type();
        for (i, &paper) in n.papers.iter().enumerate() {
            for &dst in n.graph.out_neighbors(paper) {
                if n.graph.node_type(dst) == paper_ty {
                    let j = n.paper_position(dst).expect("paper");
                    // Citation edges are directed to earlier papers, but the
                    // undirected entity edges were added both ways; only
                    // check pure-citation pairs (no reverse edge).
                    if !n.graph.has_edge(dst, paper) {
                        assert!(j < i, "paper {i} cites future paper {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn paper_position_roundtrip() {
        let n = net();
        for (i, &p) in n.papers.iter().enumerate() {
            assert_eq!(n.paper_position(p), Some(i));
        }
        assert_eq!(n.paper_position(n.terms[0]), None);
    }

    #[test]
    fn topic_terms_partition() {
        let n = net();
        let cfg = BibNetConfig::tiny();
        for t in 0..cfg.topics {
            assert_eq!(n.topic_terms(t).len(), cfg.terms_per_topic);
        }
    }

    #[test]
    fn subgraph_scale_has_realistic_size() {
        let n = BibNet::generate(&BibNetConfig::subgraph_scale(), 1);
        assert!(n.graph.node_count() > 15_000, "{}", n.graph.node_count());
        assert!(n.graph.edge_count() > 100_000, "{}", n.graph.edge_count());
    }
}
