//! The four search engines of the paper's evaluation
//! (GPU-Par-structure, CPU-Par, CPU-Par-d, and the sequential reference),
//! behind one [`KeywordSearchEngine`] trait.

mod gpu_style;
mod par_cpu;
pub(crate) mod par_dyn;
mod seq;

pub use gpu_style::GpuStyleEngine;
pub use par_cpu::ParCpuEngine;
pub use par_dyn::DynParEngine;
pub use seq::SeqEngine;

use crate::activation::ActivationMap;
use crate::bottom_up::ExpandCtx;
use crate::budget::QueryBudget;
use crate::driver::{self, Armed, Local, Rounds};
use crate::error::SearchError;
use crate::model::CentralGraph;
use crate::profile::PhaseProfile;
use crate::session::SearchSession;
use crate::shard::ShardBackend;
use crate::trace::QueryTrace;
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use std::time::Instant;
use textindex::ParsedQuery;

/// Statistics of one search, beyond the answers themselves.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Last BFS level processed (`d` when enough answers were found).
    pub last_level: u8,
    /// Central nodes identified by the bottom-up stage (the top-(k,d) set
    /// size — a superset of the final top-k).
    pub central_candidates: usize,
    /// Peak joint-frontier-queue size.
    pub peak_frontier: usize,
    /// Per-level progression (frontier size, identifications per level).
    pub trace: Vec<crate::bottom_up::LevelTrace>,
}

/// Result of a keyword search: ranked answers plus per-phase timings.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// Final top-k Central Graphs, best (lowest Eq. 6 score) first.
    pub answers: Vec<CentralGraph>,
    /// Wall-clock per algorithm phase (Figs. 6–10).
    pub profile: PhaseProfile,
    /// Search statistics.
    pub stats: SearchStats,
    /// Rich per-query execution trace, present only when the query asked
    /// for it (`params.trace`). Boxed so the untraced path carries one
    /// null pointer.
    pub trace: Option<Box<QueryTrace>>,
}

/// A top-k Central Graph keyword-search engine.
///
/// All engines are semantically equivalent — same answers for the same
/// `(graph, query, params)` — and differ only in scheduling; that
/// equivalence is what makes the paper's efficiency comparison meaningful,
/// and it is enforced by this workspace's property tests.
pub trait KeywordSearchEngine {
    /// Engine display name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Run a budgeted top-k search through a reusable [`SearchSession`] —
    /// the warm path, and the one method engines implement. The session's
    /// epoch-stamped state and scratch buffers are re-armed in place, so a
    /// query on an already-used session allocates nothing proportional to
    /// `n · q`.
    ///
    /// A tripped budget returns `Err` and never a partial answer set; the
    /// session stays reusable (the next `begin_query` re-arms its state
    /// regardless of where this search stopped).
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn try_search_session(
        &self,
        session: &mut SearchSession,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, SearchError>;

    /// Run an unbudgeted top-k search through a reusable
    /// [`SearchSession`] — [`Self::try_search_session`] with
    /// [`QueryBudget::unlimited`], which cannot fail.
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn search_session(
        &self,
        session: &mut SearchSession,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
    ) -> SearchOutcome {
        self.try_search_session(session, graph, query, params, &QueryBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Run a one-shot budgeted top-k search (cold path): opens a
    /// throwaway [`SearchSession`] and runs [`Self::try_search_session`]
    /// through it.
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn try_search(
        &self,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, SearchError> {
        let mut session = SearchSession::new();
        self.try_search_session(&mut session, graph, query, params, budget)
    }

    /// Run a one-shot unbudgeted top-k search (cold path).
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn search(
        &self,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
    ) -> SearchOutcome {
        let mut session = SearchSession::new();
        self.search_session(&mut session, graph, query, params)
    }
}

/// Shared entry of the three matrix-based engines (sequential, CPU-Par,
/// GPU-style): re-arm the session's state and drive the rounds over it as
/// one local partition with `backend`'s kernels, then run top-down on
/// `pool` (or sequentially without one).
#[allow(clippy::too_many_arguments)] // internal entry; args mirror the trait call plus backend/pool
pub(crate) fn run_matrix_search(
    backend: ShardBackend,
    pool: Option<&rayon::ThreadPool>,
    session: &mut SearchSession,
    graph: &KnowledgeGraph,
    query: &ParsedQuery,
    params: &SearchParams,
    budget: &QueryBudget,
) -> Result<SearchOutcome, SearchError> {
    let name = backend.base_name();
    let tracker = match driver::arm(query, params, budget, name, None) {
        Armed::Search(tracker) => tracker,
        Armed::Done(verdict) => return verdict,
    };
    let mut rounds = Rounds::new(params);

    // Initialization phase: arm M / FIdentifier / CIdentifier for this
    // query (epoch bump + source seeding; allocation only on first use or
    // growth) — the paper's per-query allocate-and-seed, amortized.
    let t = Instant::now();
    session.state.begin_query(graph.num_nodes(), query);
    session.queries_run += 1;
    rounds.profile.init = t.elapsed();
    let SearchSession { ref state, frontiers, .. } = session;

    let act = ActivationMap::for_params(graph, params);
    let ctx = ExpandCtx { graph, act: &act, state, budget: &tracker };
    let mut link = Local { backend, pool, flags: state, ctx, frontiers };
    let terminated = rounds.run(&mut link, &tracker)?;
    rounds.finish(terminated, name, graph, &act, state, params, &tracker, pool)
}

/// Build a rayon pool with exactly `threads` workers.
pub(crate) fn build_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon thread pool")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    fn fixture() -> (KnowledgeGraph, InvertedIndex) {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "xml standard");
        let r = b.add_node("r", "rdf model");
        let q = b.add_node("q", "query language");
        b.add_edge(x, q, "e");
        b.add_edge(r, q, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn all_engines_agree_on_a_small_graph() {
        let (g, idx) = fixture();
        let query = ParsedQuery::parse(&idx, "xml rdf");
        let params = SearchParams::default().with_average_distance(1.0);
        let engines: Vec<Box<dyn KeywordSearchEngine>> = vec![
            Box::new(SeqEngine::new()),
            Box::new(ParCpuEngine::new(2)),
            Box::new(GpuStyleEngine::new(2)),
            Box::new(DynParEngine::new(2)),
        ];
        let reference = engines[0].search(&g, &query, &params);
        assert!(!reference.answers.is_empty());
        for e in &engines[1..] {
            let out = e.search(&g, &query, &params);
            assert_eq!(out.answers.len(), reference.answers.len(), "{}", e.name());
            for (a, b) in out.answers.iter().zip(&reference.answers) {
                assert_eq!(a.central, b.central, "{}", e.name());
                assert_eq!(a.nodes, b.nodes, "{}", e.name());
                assert_eq!(a.edges, b.edges, "{}", e.name());
                assert!((a.score - b.score).abs() < 1e-9, "{}", e.name());
            }
        }
    }

    #[test]
    fn empty_query_returns_empty_outcome() {
        let (g, idx) = fixture();
        let query = ParsedQuery::parse(&idx, "zzz qqq");
        let out = SeqEngine::new().search(&g, &query, &SearchParams::default());
        assert!(out.answers.is_empty());
    }

    #[test]
    fn max_candidates_caps_extraction() {
        // Many central nodes at the same depth; the cap keeps a prefix.
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let z = b.add_node("z", "omega");
        for i in 0..10 {
            let m = b.add_node(&format!("m{i}"), "mid");
            b.add_edge(a, m, "e");
            b.add_edge(z, m, "e");
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let query = ParsedQuery::parse(&idx, "alpha omega");
        let full = SeqEngine::new().search(
            &g,
            &query,
            &SearchParams::default().with_average_distance(1.0),
        );
        assert_eq!(full.stats.central_candidates, 10);
        let capped_params = SearchParams {
            max_candidates: 3,
            ..SearchParams::default().with_average_distance(1.0)
        };
        let capped = SeqEngine::new().search(&g, &query, &capped_params);
        assert_eq!(capped.stats.central_candidates, 3);
        assert!(capped.answers.len() <= 3);
        for ans in &capped.answers {
            ans.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "invalid search parameters")]
    fn invalid_params_panic() {
        let (g, idx) = fixture();
        let query = ParsedQuery::parse(&idx, "xml");
        let params = SearchParams::default().with_alpha(2.0);
        SeqEngine::new().search(&g, &query, &params);
    }
}
