//! Synthetic query-log click graph ("QLog").
//!
//! Simulates the paper's 2006 commercial search-engine log (Sect. VI): an
//! undirected bipartite graph of search phrases and clicked URLs, edge
//! weight = click count.
//!
//! Latent structure:
//!
//! * **concepts** — each concept has a keyword set; its phrases are
//!   *equivalent* (same non-stop keyword multiset, different orderings /
//!   stopword padding), giving the paper's Task 4 ground truth
//!   automatically;
//! * **concept URLs** — pages about one concept (specific);
//! * **portal URLs** — hub sites attached to many concepts with heavy click
//!   counts (important but unspecific), mirroring the paper's "important
//!   'travel' site" example for Task 3.

use crate::zipf::Zipf;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rtr_graph::{EdgeWeights, Graph, GraphBuilder, NodeId, NodeLabels, NodeTypeId};

/// Size and shape knobs for the QLog generator.
#[derive(Clone, Debug)]
pub struct QLogConfig {
    /// Number of latent concepts.
    pub concepts: usize,
    /// Keyword vocabulary size.
    pub keywords: usize,
    /// Keywords per concept, inclusive range.
    pub keywords_per_concept: (usize, usize),
    /// Equivalent phrases per concept, inclusive range.
    pub phrases_per_concept: (usize, usize),
    /// Concept-specific URLs per concept, inclusive range.
    pub urls_per_concept: (usize, usize),
    /// Number of portal (hub) URLs.
    pub portal_urls: usize,
    /// Fraction of concepts each portal attaches to.
    pub portal_attach_fraction: f64,
    /// Maximum click count per edge.
    pub max_clicks: usize,
    /// Zipf exponent of click counts.
    pub click_s: f64,
    /// Probability that a given (phrase, concept URL) pair has any clicks.
    pub click_pair_prob: f64,
    /// Probability that a phrase carries a misclick — a low-weight edge to
    /// a random unrelated URL. Real logs are noisy: equivalent phrases share
    /// *overlapping*, not identical, click sets, which is what keeps
    /// common-neighbor heuristics (AdamicAdar) from trivially solving
    /// Task 4.
    pub misclick_prob: f64,
}

impl QLogConfig {
    /// Minimal instance for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            concepts: 20,
            keywords: 60,
            keywords_per_concept: (2, 3),
            phrases_per_concept: (2, 4),
            urls_per_concept: (2, 5),
            portal_urls: 3,
            portal_attach_fraction: 0.5,
            max_clicks: 20,
            click_s: 1.2,
            click_pair_prob: 0.8,
            misclick_prob: 0.5,
        }
    }

    /// Mid-size instance for CI-speed experiment runs (≈5k nodes).
    pub fn small() -> Self {
        Self {
            concepts: 700,
            keywords: 1_500,
            keywords_per_concept: (2, 4),
            phrases_per_concept: (2, 5),
            urls_per_concept: (2, 6),
            portal_urls: 12,
            portal_attach_fraction: 0.1,
            max_clicks: 50,
            click_s: 1.2,
            click_pair_prob: 0.6,
            misclick_prob: 0.5,
        }
    }

    /// Effectiveness-subgraph scale (paper: 23,665 nodes / 74,504 edges).
    pub fn subgraph_scale() -> Self {
        Self {
            concepts: 3_500,
            keywords: 6_000,
            keywords_per_concept: (2, 4),
            phrases_per_concept: (2, 5),
            urls_per_concept: (2, 6),
            portal_urls: 40,
            portal_attach_fraction: 0.08,
            max_clicks: 50,
            click_s: 1.2,
            click_pair_prob: 0.6,
            misclick_prob: 0.5,
        }
    }

    /// Efficiency-study scale (QLog is sparser than BibNet: the paper
    /// reports 2M nodes / 4M edges, average degree ≈ 2).
    pub fn full_scale() -> Self {
        Self {
            concepts: 35_000,
            keywords: 40_000,
            keywords_per_concept: (2, 4),
            phrases_per_concept: (2, 5),
            urls_per_concept: (2, 6),
            portal_urls: 150,
            portal_attach_fraction: 0.02,
            max_clicks: 50,
            click_s: 1.2,
            click_pair_prob: 0.6,
            misclick_prob: 0.4,
        }
    }

    fn validate(&self) {
        assert!(self.concepts > 0 && self.keywords > 0);
        assert!(self.keywords_per_concept.0 >= 1);
        assert!(self.keywords_per_concept.1 <= self.keywords);
        assert!(self.phrases_per_concept.0 >= 1);
        assert!(self.urls_per_concept.0 >= 1);
        assert!((0.0..=1.0).contains(&self.portal_attach_fraction));
        assert!((0.0..=1.0).contains(&self.click_pair_prob));
        assert!((0.0..=1.0).contains(&self.misclick_prob));
        assert!(self.max_clicks >= 1);
    }
}

/// A generated query-log graph with ground truth.
#[derive(Clone, Debug)]
pub struct QLog {
    /// The bipartite click graph (portals first, then concept-by-concept
    /// phrases and URLs, so prefix snapshots model log growth).
    pub graph: Graph,
    /// Raw edge weights of `graph` (click counts): what its prefix
    /// snapshots and the evaluation tasks read. The graph itself keeps only
    /// transition probabilities, so a server that moves `graph` out and
    /// drops the rest never holds them.
    pub edge_weights: EdgeWeights,
    /// Labels of `graph` (`phrase:<keywords>:v<i>`, `url:<keywords>:<i>`,
    /// `url:portal:<i>`), which the graph does not hold either.
    pub labels: NodeLabels,
    /// All phrase nodes.
    pub phrases: Vec<NodeId>,
    /// All URL nodes (portals first).
    pub urls: Vec<NodeId>,
    /// Portal URL nodes.
    pub portals: Vec<NodeId>,
    /// Concept index of each phrase (parallel to `phrases`).
    pub phrase_concept: Vec<usize>,
    /// Phrases of each concept (Task 4 ground truth: equivalents share a
    /// concept, i.e. the same keyword multiset).
    pub concept_phrases: Vec<Vec<NodeId>>,
    /// Concept-specific URLs of each concept (excludes portals).
    pub concept_urls: Vec<Vec<NodeId>>,
}

impl QLog {
    /// Generate a query log from `config` with a fixed `seed`.
    pub fn generate(config: &QLogConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let phrase_ty = b.register_type("phrase");
        let url_ty = b.register_type("url");

        let click_dist = Zipf::new(config.max_clicks, config.click_s);
        let keyword_pop = Zipf::new(config.keywords, 1.0);

        // Portals first (they exist before any specific concept trends).
        let mut portals = Vec::with_capacity(config.portal_urls);
        for p in 0..config.portal_urls {
            portals.push(b.add_labeled_node(url_ty, &format!("url:portal:{p}")));
        }

        let mut phrases = Vec::new();
        let mut urls = portals.clone();
        let mut phrase_concept = Vec::new();
        let mut concept_phrases = Vec::with_capacity(config.concepts);
        let mut concept_urls = Vec::with_capacity(config.concepts);

        for c in 0..config.concepts {
            // Keyword signature: sorted distinct keyword ids.
            let k = rng.gen_range(config.keywords_per_concept.0..=config.keywords_per_concept.1);
            let mut kws: Vec<usize> = Vec::with_capacity(k);
            let mut guard = 0;
            while kws.len() < k && guard < 100 {
                guard += 1;
                let kw = keyword_pop.sample(&mut rng);
                if !kws.contains(&kw) {
                    kws.push(kw);
                }
            }
            kws.sort_unstable();
            let signature: String = kws
                .iter()
                .map(|kw| format!("k{kw}"))
                .collect::<Vec<_>>()
                .join("+");

            // Equivalent phrases: same signature, variant index distinguishes
            // orderings / stopword padding ("the apple ipod" vs "ipod of apple").
            let n_phrases =
                rng.gen_range(config.phrases_per_concept.0..=config.phrases_per_concept.1);
            let mut my_phrases = Vec::with_capacity(n_phrases);
            for v in 0..n_phrases {
                let ph = b.add_labeled_node(phrase_ty, &format!("phrase:{signature}:v{v}"));
                my_phrases.push(ph);
                phrases.push(ph);
                phrase_concept.push(c);
            }

            // Concept URLs.
            let n_urls = rng.gen_range(config.urls_per_concept.0..=config.urls_per_concept.1);
            let mut my_urls = Vec::with_capacity(n_urls);
            for u in 0..n_urls {
                let url = b.add_labeled_node(url_ty, &format!("url:{signature}:{u}"));
                my_urls.push(url);
                urls.push(url);
            }

            // Clicks: phrase -> concept URL. Each phrase has its own
            // canonical URL (always clicked, heavy traffic); the remaining
            // pairs connect probabilistically, so equivalent phrases share
            // overlapping-but-distinct click sets.
            for &ph in &my_phrases {
                let canonical = rng.gen_range(0..my_urls.len());
                for (rank, &url) in my_urls.iter().enumerate() {
                    if rank == canonical || rng.gen_bool(config.click_pair_prob) {
                        let mut clicks =
                            (click_dist.sample(&mut rng) + 1) as f64 / (rank + 1) as f64;
                        if rank == canonical {
                            clicks *= 3.0;
                        }
                        b.add_undirected_edge(ph, url, clicks.max(1.0));
                    }
                }
            }

            // Portal attachment: popular hub gets clicks from this concept.
            for &portal in &portals {
                if rng.gen_bool(config.portal_attach_fraction) {
                    // Portals draw heavy traffic: scale clicks up.
                    for &ph in &my_phrases {
                        if rng.gen_bool(0.8) {
                            let clicks = (click_dist.sample(&mut rng) + 2) as f64 * 2.0;
                            b.add_undirected_edge(ph, portal, clicks);
                        }
                    }
                }
            }

            concept_phrases.push(my_phrases);
            concept_urls.push(my_urls);
        }

        // Misclick noise: low-weight edges from phrases to unrelated URLs.
        for &ph in &phrases {
            if rng.gen_bool(config.misclick_prob) && !urls.is_empty() {
                let url = urls[rng.gen_range(0..urls.len())];
                b.add_undirected_edge(ph, url, 1.0);
            }
        }

        let (graph, edge_weights, labels) = b.build_with_columns();
        QLog {
            graph,
            edge_weights,
            labels,
            phrases,
            urls,
            portals,
            phrase_concept,
            concept_phrases,
            concept_urls,
        }
    }

    /// The `phrase` node type id.
    pub fn phrase_type(&self) -> NodeTypeId {
        self.graph.types().get("phrase").expect("registered")
    }

    /// The `url` node type id.
    pub fn url_type(&self) -> NodeTypeId {
        self.graph.types().get("url").expect("registered")
    }

    /// The equivalent phrases of `phrase` (same concept), excluding itself —
    /// Task 4's ground truth.
    pub fn equivalents(&self, phrase: NodeId) -> Vec<NodeId> {
        let pos = self
            .phrases
            .iter()
            .position(|&p| p == phrase)
            .expect("not a phrase node");
        let c = self.phrase_concept[pos];
        self.concept_phrases[c]
            .iter()
            .copied()
            .filter(|&p| p != phrase)
            .collect()
    }

    /// The URLs clicked from `phrase` (graph adjacency) — Task 3 samples its
    /// ground truth from these.
    pub fn clicked_urls(&self, phrase: NodeId) -> Vec<NodeId> {
        let url_ty = self.url_type();
        self.graph
            .out_neighbors(phrase)
            .iter()
            .copied()
            .filter(|&v| self.graph.node_type(v) == url_ty)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> QLog {
        QLog::generate(&QLogConfig::tiny(), 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = QLog::generate(&QLogConfig::tiny(), 5);
        let b = QLog::generate(&QLogConfig::tiny(), 5);
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    #[test]
    fn graph_is_bipartite() {
        let q = log();
        let phrase_ty = q.phrase_type();
        let url_ty = q.url_type();
        for v in q.graph.nodes() {
            let vt = q.graph.node_type(v);
            for &n in q.graph.out_neighbors(v) {
                let nt = q.graph.node_type(n);
                assert_ne!(vt, nt, "same-type edge {v:?}->{n:?}");
                assert!(nt == phrase_ty || nt == url_ty);
            }
        }
    }

    #[test]
    fn every_phrase_clicks_something() {
        let q = log();
        for &ph in &q.phrases {
            assert!(!q.clicked_urls(ph).is_empty(), "{ph:?} has no clicks");
        }
    }

    #[test]
    fn equivalents_share_signature() {
        let q = log();
        for &ph in &q.phrases {
            let sig = |v: NodeId| {
                let label = q.labels.label(&q.graph, v);
                label
                    .trim_start_matches("phrase:")
                    .rsplit_once(":v")
                    .map(|(s, _)| s.to_owned())
                    .expect("phrase label format")
            };
            for eq in q.equivalents(ph) {
                assert_eq!(sig(ph), sig(eq), "equivalents with different keywords");
            }
        }
    }

    #[test]
    fn equivalents_exclude_self() {
        let q = log();
        for &ph in &q.phrases {
            assert!(!q.equivalents(ph).contains(&ph));
        }
    }

    #[test]
    fn portals_have_higher_degree() {
        let q = QLog::generate(&QLogConfig::tiny(), 9);
        let portal_avg: f64 = q
            .portals
            .iter()
            .map(|&p| q.graph.total_degree(p) as f64)
            .sum::<f64>()
            / q.portals.len() as f64;
        let concept_urls: Vec<NodeId> = q
            .urls
            .iter()
            .copied()
            .filter(|u| !q.portals.contains(u))
            .collect();
        let concept_avg: f64 = concept_urls
            .iter()
            .map(|&u| q.graph.total_degree(u) as f64)
            .sum::<f64>()
            / concept_urls.len() as f64;
        assert!(
            portal_avg > concept_avg,
            "portal avg {portal_avg} <= concept avg {concept_avg}"
        );
    }

    #[test]
    fn click_weights_are_positive_multiples() {
        let q = log();
        for v in q.graph.nodes() {
            for (_, w) in q.edge_weights.out_edges(&q.graph, v) {
                assert!(w >= 1.0, "click weight {w} < 1");
            }
        }
    }

    #[test]
    fn equivalents_connect_only_through_urls() {
        // Phrases never link to phrases directly: Task 4's ground truth is
        // 2-hop, the specificity-dominant regime the paper reports.
        let q = log();
        let phrase_ty = q.phrase_type();
        for &ph in &q.phrases {
            for &n in q.graph.out_neighbors(ph) {
                assert_ne!(q.graph.node_type(n), phrase_ty);
            }
        }
    }

    #[test]
    fn average_degree_is_low_like_the_paper() {
        // Paper QLog: 2M nodes, 4M edges -> avg degree ~2 per direction.
        let q = QLog::generate(&QLogConfig::subgraph_scale(), 3);
        let d = q.graph.average_degree();
        assert!(d < 15.0, "QLog should stay sparse, got avg degree {d}");
    }
}
