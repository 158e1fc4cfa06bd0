//! The work counter (`central::costmodel`) runs the bottom-up search
//! through the engines' own round driver; it must stay in lockstep with
//! the real engines on arbitrary graphs — same central-node count, levels
//! and frontiers, and work tallies consistent with the graph's size.

use central::costmodel::count_work;
use central::engine::{KeywordSearchEngine, SeqEngine};
use central::SearchParams;
use kgraph::GraphBuilder;
use proptest::prelude::*;
use textindex::{InvertedIndex, ParsedQuery};

const WORDS: &[&str] = &["red", "green", "blue", "cyan", "plum"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn counter_matches_engine_candidates(
        texts in proptest::collection::vec(
            proptest::collection::vec(0usize..WORDS.len(), 1..3), 2..20),
        edges in proptest::collection::vec((0usize..20, 0usize..20), 1..40),
        activation in proptest::collection::vec(0u8..4, 20),
        qwords in proptest::collection::vec(0usize..WORDS.len(), 2..4),
        top_k in 1usize..6,
    ) {
        let n = texts.len();
        let mut b = GraphBuilder::new();
        for (i, ws) in texts.iter().enumerate() {
            let t: Vec<&str> = ws.iter().map(|&w| WORDS[w]).collect();
            b.add_node(&format!("n{i}"), &t.join(" "));
        }
        for &(s, d) in &edges {
            let (s, d) = (s % n, d % n);
            if s != d {
                let s = b.node(&format!("n{s}")).unwrap();
                let d = b.node(&format!("n{d}")).unwrap();
                b.add_edge(s, d, "e");
            }
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let raw: Vec<&str> = qwords.iter().map(|&w| WORDS[w]).collect();
        let query = ParsedQuery::parse(&idx, &raw.join(" "));
        let params = SearchParams {
            top_k,
            max_level: 10,
            ..SearchParams::default()
        }
        .with_explicit_activation(activation[..n].to_vec());

        let work = count_work(&g, &query, &params);
        let out = SeqEngine::new().search(&g, &query, &params);
        prop_assert_eq!(work.central_nodes as usize, out.stats.central_candidates);
        // The counter runs the engine's own loop: same levels, same
        // frontiers.
        prop_assert_eq!(work.levels, u32::from(out.stats.last_level));
        let frontier_entries: u64 = out.stats.trace.iter().map(|l| l.frontier as u64).sum();
        prop_assert_eq!(work.frontier_entries, frontier_entries);
        // Tallies are bounded by graph size × levels.
        let max_scans = (g.num_adjacency_entries() as u64)
            * (work.levels.max(1) as u64)
            * query.num_keywords().max(1) as u64;
        prop_assert!(work.adjacency_scans <= max_scans);
        prop_assert!(work.matrix_writes as usize <= g.num_nodes() * query.num_keywords());
    }
}
