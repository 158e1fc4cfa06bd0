//! Stage 1: bottom-up search (paper Algorithm 1 lines 1–7 and
//! Algorithm 2), solving the top-(k,d) Central Graph problem.
//!
//! This module holds the kernels of one level, written once over the
//! [`LevelStore`] storage trait: (1) drain `FIdentifier` into the joint
//! frontier queue, (2) identify Central Nodes among the frontiers
//! (Lemma V.1), and (4) run the expansion procedure. It also holds the one
//! mapping from a backend to its expansion granularity
//! (`ShardBackend::expand`). The level-synchronous loop that sequences
//! the kernels — including step (3), stopping once `k` central nodes
//! exist (Def. 4) — lives in the crate's `driver` module. How each step
//! is scheduled (sequential, coarse-grained rayon, or GPU-kernel-style
//! fine-grained) never changes its *semantics*, which the property suite
//! verifies.

use crate::activation::ActivationMap;
use crate::budget::BudgetTracker;
use crate::model::INFINITE_LEVEL;
use crate::shard::ShardBackend;
use crate::state::{HitLevels, LevelStore, SearchState};
use kgraph::{KnowledgeGraph, NodeId};
use rayon::prelude::*;

/// Everything an expansion step needs (read-only except for `state`'s
/// atomics).
pub struct ExpandCtx<'a, S = SearchState> {
    /// The data graph.
    pub graph: &'a KnowledgeGraph,
    /// Activation oracle (`a_v` from `w_v` and `α`, or explicit).
    pub act: &'a ActivationMap<'a>,
    /// Shared lock-free search state.
    pub state: &'a S,
    /// Budget accounting: every expansion unit is charged here, and a
    /// tripped budget makes further expansion a no-op (the driver then
    /// surfaces the error at its next level checkpoint).
    pub budget: &'a BudgetTracker,
}

// Manual impls: a derive would demand `S: Copy`, but the fields are all
// references.
impl<S> Clone for ExpandCtx<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for ExpandCtx<'_, S> {}

/// Expand one frontier node across **all** BFS instances — the body of
/// Algorithm 2's outer loop. This is the unit of work of the coarse-grained
/// CPU strategy (one OpenMP/rayon task per frontier, dynamically
/// scheduled).
#[inline]
pub fn expand_frontier<S: LevelStore>(ctx: &ExpandCtx<'_, S>, f: u32, level: u8) {
    let state = ctx.state;
    if ctx.budget.cancelled() {
        return;
    }
    ctx.budget.charge(state.num_keywords() as u64);
    // Central Nodes are unavailable for expansion (Alg. 2 lines 2–3).
    if state.is_central(f) {
        return;
    }
    let vf = NodeId(f);
    // A node expands only once the level reaches its activation (lines 4–7);
    // until then it stays a frontier.
    if ctx.act.level(vf) > level {
        state.mark_frontier(f);
        return;
    }
    for i in 0..state.num_keywords() {
        expand_instance(ctx, f, vf, i, level);
    }
}

/// Expand one `(frontier, BFS instance)` pair — the body of Algorithm 2's
/// middle loop, and the warp-level work item of the GPU strategy.
#[inline]
pub fn expand_work_item<S: LevelStore>(ctx: &ExpandCtx<'_, S>, f: u32, i: usize, level: u8) {
    let state = ctx.state;
    if ctx.budget.cancelled() {
        return;
    }
    ctx.budget.charge(1);
    if state.is_central(f) {
        return;
    }
    let vf = NodeId(f);
    if ctx.act.level(vf) > level {
        state.mark_frontier(f);
        return;
    }
    expand_instance(ctx, f, vf, i, level);
}

/// Inner loop shared by both granularities: push instance `i` of frontier
/// `f` one step (Alg. 2 lines 8–22).
#[inline]
fn expand_instance<S: LevelStore>(ctx: &ExpandCtx<'_, S>, f: u32, vf: NodeId, i: usize, level: u8) {
    let state = ctx.state;
    // The frontier must already be hit in this instance (line 9–11).
    let hf = state.hit(f, i);
    if hf > level {
        return; // includes the ∞ sentinel
    }
    let adjacency = ctx.graph.neighbors(vf);
    state.tally_work_item(adjacency.len());
    for adj in adjacency {
        let n = adj.target().0;
        // Visited in B_i already (lines 13–15): both ∞→l+1 races and
        // stale reads are benign — any finite value means "skip".
        if state.hit(n, i) != INFINITE_LEVEL {
            continue;
        }
        // Non-keyword nodes cannot be hit before their activation allows
        // (lines 16–20); the frontier stays alive to retry next level.
        if !state.is_keyword_node(n) && ctx.act.level(adj.target()) > level + 1 {
            state.mark_frontier(f);
            continue;
        }
        state.set_hit(n, i, level + 1); // line 21
        state.mark_frontier(n); // line 22
    }
}

/// Run `job` on `pool` when given, else on the caller's ambient pool.
pub(crate) fn in_pool<R>(pool: Option<&rayon::ThreadPool>, job: impl FnOnce() -> R) -> R {
    match pool {
        Some(pool) => pool.install(job),
        None => job(),
    }
}

impl ShardBackend {
    /// Run one level's expansion over `frontiers` at this backend's kernel
    /// granularity — the one place a backend selects an expansion kernel.
    /// `Seq` and `CPU-Par-d` loop over the frontiers in order, `CPU-Par`
    /// runs one task per frontier (the paper's dynamic OpenMP schedule),
    /// and `GPU-Par` one task per `(frontier, instance)` work item (the
    /// warp grid). Parallel kernels run on `pool`, or on the ambient pool
    /// when `None`.
    pub(crate) fn expand<S: LevelStore>(
        self,
        pool: Option<&rayon::ThreadPool>,
        ctx: &ExpandCtx<'_, S>,
        frontiers: &[u32],
        level: u8,
    ) {
        match self {
            ShardBackend::Seq | ShardBackend::DynPar(_) => {
                for &f in frontiers {
                    expand_frontier(ctx, f, level);
                }
            }
            ShardBackend::ParCpu(_) => in_pool(pool, || {
                frontiers.par_iter().for_each(|&f| expand_frontier(ctx, f, level));
            }),
            ShardBackend::GpuStyle(_) => {
                let q = ctx.state.num_keywords();
                in_pool(pool, || {
                    (0..frontiers.len() * q).into_par_iter().for_each(|w| {
                        expand_work_item(ctx, frontiers[w / q], w % q, level);
                    });
                });
            }
        }
    }
}

/// Sequential frontier enqueue: scan `FIdentifier`, clearing flags and
/// appending set nodes. The paper found sequential enqueue fastest on CPU
/// (locked parallel writes are slower than one linear scan).
pub fn enqueue_sequential(state: &SearchState, out: &mut Vec<u32>) {
    out.clear();
    for v in 0..state.num_nodes() as u32 {
        if state.take_frontier_flag(v) {
            out.push(v);
        }
    }
}

/// Parallel frontier enqueue by block compaction — the GPU-style variant
/// (the paper parallelizes enqueue only on the GPU; on CPU it found the
/// sequential scan faster, which the `enqueue` Criterion bench confirms).
/// Each block drains its slice of `FIdentifier` into a local buffer;
/// blocks concatenate in order, so the result equals the sequential scan.
pub fn enqueue_parallel_compaction(
    pool: &rayon::ThreadPool,
    state: &SearchState,
    out: &mut Vec<u32>,
    block: usize,
) {
    out.clear();
    let n = state.num_nodes();
    let blocks: Vec<Vec<u32>> = pool.install(|| {
        (0..n.div_ceil(block))
            .into_par_iter()
            .map(|blk| {
                let lo = blk * block;
                let hi = (lo + block).min(n);
                let mut local = Vec::new();
                for v in lo as u32..hi as u32 {
                    if state.take_frontier_flag(v) {
                        local.push(v);
                    }
                }
                local
            })
            .collect()
    });
    for b in blocks {
        out.extend(b);
    }
}

/// Sequential Central Node identification over the current frontiers:
/// a frontier whose `M` row is complete is newly central, with depth =
/// current level (Lemma V.1). Returns the newly identified nodes (sorted,
/// since frontiers are produced in id order).
pub fn identify_sequential<S: LevelStore>(
    state: &S,
    frontiers: &[u32],
    level: u8,
    newly: &mut Vec<u32>,
) {
    newly.clear();
    for &f in frontiers {
        if !state.is_central(f) && state.row_complete(f) {
            state.mark_central(f, level);
            newly.push(f);
        }
    }
}

/// Central Node identification at `level` — in parallel over the
/// frontiers on `pool` (each frontier is touched by exactly one task, so
/// the central flag needs no lock; the result is sorted into the
/// sequential scan's order), or sequentially without one — plus, for
/// traced queries, the level's [`LevelObservation`].
pub(crate) fn identify<S: LevelStore>(
    pool: Option<&rayon::ThreadPool>,
    state: &S,
    act: &ActivationMap<'_>,
    frontiers: &[u32],
    level: u8,
    traced: bool,
    newly: &mut Vec<u32>,
) -> LevelObservation {
    match pool {
        Some(pool) => {
            newly.clear();
            let mut found: Vec<u32> = pool.install(|| {
                frontiers
                    .par_iter()
                    .copied()
                    .filter(|&f| {
                        if !state.is_central(f) && state.row_complete(f) {
                            state.mark_central(f, level);
                            true
                        } else {
                            false
                        }
                    })
                    .collect()
            });
            found.sort_unstable(); // deterministic identification order
            newly.extend(found);
        }
        None => identify_sequential(state, frontiers, level, newly),
    }
    if traced {
        observe(state, act, frontiers, level)
    } else {
        LevelObservation::default()
    }
}

/// What a traced level records beyond its frontier size and cohort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LevelObservation {
    /// Keyword-hit cells `(frontier, instance)` first covered at this
    /// level.
    pub(crate) new_hits: usize,
    /// Frontier nodes still gated by their activation level.
    pub(crate) activation_deferred: usize,
}

/// The traced observation of one level over `frontiers`: O(frontier · q)
/// scans, paid only on traced queries.
fn observe<H: HitLevels>(
    state: &H,
    act: &ActivationMap<'_>,
    frontiers: &[u32],
    level: u8,
) -> LevelObservation {
    let q = state.num_keywords();
    let mut seen = LevelObservation::default();
    for &f in frontiers {
        seen.new_hits += (0..q).filter(|&i| state.hit(f, i) == level).count();
        if act.level(NodeId(f)) > level {
            seen.activation_deferred += 1;
        }
    }
    seen
}

/// Why the bottom-up stage stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationReason {
    /// At least `top_k` Central Nodes exist — depth `d` is minimal (Def. 4).
    EnoughCentralNodes,
    /// The joint frontier queue drained before `k` answers appeared.
    FrontierExhausted,
    /// The `lmax` level cap was reached.
    LevelCap,
}

/// Per-level trace entry: how the level-synchronous search progressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelTrace {
    /// BFS expansion level.
    pub level: u8,
    /// Joint frontier size at this level.
    pub frontier: usize,
    /// Central Nodes newly identified at this level.
    pub identified: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ActivationMap;
    use crate::budget::QueryBudget;
    use crate::driver::tests::{run_seq, BottomUpOutcome};
    use crate::error::SearchError;
    use crate::SearchParams;
    use kgraph::GraphBuilder;
    use std::time::Duration;
    use textindex::{InvertedIndex, ParsedQuery};

    fn run_on(
        g: &KnowledgeGraph,
        raw_query: &str,
        activation: Vec<u8>,
        top_k: usize,
    ) -> (BottomUpOutcome, SearchState) {
        let idx = InvertedIndex::build(g);
        let q = ParsedQuery::parse(&idx, raw_query);
        let state = SearchState::new(g.num_nodes(), &q);
        let act = ActivationMap::Explicit(&activation);
        let params = SearchParams::default().with_top_k(top_k);
        let budget = QueryBudget::unlimited().start();
        let ctx = ExpandCtx { graph: g, act: &act, state: &state, budget: &budget };
        let out = run_seq(ctx, &params).expect("unlimited budget");
        (out, state)
    }

    /// The paper's Fig. 2: B0 from v0, B1 from {v1, v2}; v3 central at
    /// depth 1, v4 central at depth 2.
    fn fig2_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node("v0", "alpha");
        let v1 = b.add_node("v1", "beta");
        let v2 = b.add_node("v2", "beta");
        let v3 = b.add_node("v3", "mid");
        let v4 = b.add_node("v4", "far");
        b.add_edge(v0, v3, "e");
        b.add_edge(v1, v3, "e");
        b.add_edge(v3, v4, "e");
        b.add_edge(v1, v4, "e");
        b.add_edge(v2, v4, "e");
        b.build()
    }

    #[test]
    fn fig2_hitting_levels_and_central_nodes() {
        let g = fig2_graph();
        let (out, state) = run_on(&g, "alpha beta", vec![0; 5], 10);
        // Hitting levels per Example 1: h(v3, B0) = h(v3, B1) = 1 and
        // h(v4, B1) = 1 (v1→v4 directly).
        assert_eq!(state.hit(3, 0), 1);
        assert_eq!(state.hit(3, 1), 1);
        assert_eq!(state.hit(4, 1), 1);
        // v3 is central at depth 1. Definition 3 alone would also make v4
        // central at depth 2 (Example 3), but the algorithm's repetition
        // rule — "once a node is identified as a Central Node, it becomes
        // unavailable for future expansion" — stops B0 at v3, so B0 never
        // reaches v4 and the answer at v4 (a strict extension of v3's) is
        // deliberately not produced.
        assert_eq!(state.hit(4, 0), INFINITE_LEVEL);
        assert_eq!(out.central_nodes, vec![(NodeId(3), 1)]);
        assert_eq!(out.terminated, TerminationReason::FrontierExhausted);
    }

    #[test]
    fn top_k_terminates_at_minimal_depth() {
        let g = fig2_graph();
        let (out, _) = run_on(&g, "alpha beta", vec![0; 5], 1);
        // k = 1 ⇒ stop at depth 1 with only v3.
        assert_eq!(out.central_nodes, vec![(NodeId(3), 1)]);
        assert_eq!(out.terminated, TerminationReason::EnoughCentralNodes);
        assert_eq!(out.last_level, 1);
    }

    #[test]
    fn activation_delays_hits() {
        let g = fig2_graph();
        // v3 requires level 2 to accept expansion: the B0/B1 hits on v3 are
        // postponed (a_3 = 2 > l+1 until l = 1), and v4 is then reached
        // through v1/v2 directly for B1 and through v3 late for B0.
        let (out, state) = run_on(&g, "alpha beta", vec![0, 0, 0, 2, 0], 10);
        assert_eq!(state.hit(3, 0), 2, "v3 hit by B0 postponed to level 2");
        assert_eq!(state.hit(3, 1), 2);
        assert_eq!(state.hit(4, 1), 1, "v4 unaffected: direct from v1/v2");
        // With the delay, v3 completes its row at level 2 instead of 1.
        assert_eq!(out.central_nodes, vec![(NodeId(3), 2)]);
    }

    #[test]
    fn keyword_nodes_are_hit_regardless_of_activation() {
        // Sec. IV-B compromise: keyword nodes may be HIT at any level but
        // only EXPAND once active.
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let k = b.add_node("k", "beta hub"); // keyword node with huge activation
        let c = b.add_node("c", "alpha");
        b.add_edge(a, k, "e");
        b.add_edge(k, c, "e");
        let g = b.build();
        let (out, state) = run_on(&g, "alpha beta", vec![0, 5, 0], 10);
        // k is hit by B0 at level 1 despite a_k = 5…
        assert_eq!(state.hit(1, 0), 1);
        assert_eq!(out.central_nodes[0], (NodeId(1), 1));
        // …and, being identified as central right away, never expands, so
        // c is never hit by B1 (it would also have been gated by a_k = 5).
        assert_eq!(state.hit(2, 1), INFINITE_LEVEL);
    }

    #[test]
    fn sources_covering_all_keywords_are_depth_zero_central() {
        let mut b = GraphBuilder::new();
        b.add_node("x", "apple banana");
        b.add_node("y", "apple");
        let g = b.build();
        let (out, _) = run_on(&g, "apple banana", vec![0; 2], 10);
        assert_eq!(out.central_nodes[0], (NodeId(0), 0));
    }

    #[test]
    fn disconnected_keywords_exhaust_frontier() {
        let mut b = GraphBuilder::new();
        b.add_node("x", "apple");
        b.add_node("y", "banana");
        let g = b.build();
        let (out, _) = run_on(&g, "apple banana", vec![0; 2], 10);
        assert!(out.central_nodes.is_empty());
        assert_eq!(out.terminated, TerminationReason::FrontierExhausted);
    }

    #[test]
    fn level_cap_stops_runaway_search() {
        // A long path between the two keywords; cap the level below the
        // distance.
        let mut b = GraphBuilder::new();
        let first = b.add_node("n0", "apple");
        let mut prev = first;
        for i in 1..40 {
            let v = b.add_node(&format!("n{i}"), "mid");
            b.add_edge(prev, v, "e");
            prev = v;
        }
        let last = b.add_node("z", "banana");
        b.add_edge(prev, last, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "apple banana");
        let state = SearchState::new(g.num_nodes(), &q);
        let activation = vec![0u8; g.num_nodes()];
        let act = ActivationMap::Explicit(&activation);
        let params = SearchParams::default().with_top_k(5);
        let params = SearchParams { max_level: 6, ..params };
        let budget = QueryBudget::unlimited().start();
        let ctx = ExpandCtx { graph: &g, act: &act, state: &state, budget: &budget };
        let out = run_seq(ctx, &params).expect("unlimited budget");
        assert_eq!(out.terminated, TerminationReason::LevelCap);
        assert!(out.central_nodes.is_empty());
        assert_eq!(out.last_level, 6);
    }

    /// Run the driver on the Fig. 2 graph under `budget` and return the
    /// result.
    fn run_budgeted(budget: QueryBudget) -> Result<BottomUpOutcome, SearchError> {
        let g = fig2_graph();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha beta");
        let state = SearchState::new(g.num_nodes(), &q);
        let activation = vec![0u8; g.num_nodes()];
        let act = ActivationMap::Explicit(&activation);
        let params = SearchParams::default().with_top_k(10);
        let tracker = budget.start();
        let ctx = ExpandCtx { graph: &g, act: &act, state: &state, budget: &tracker };
        run_seq(ctx, &params)
    }

    #[test]
    fn expired_deadline_aborts_before_any_level() {
        let err = run_budgeted(QueryBudget::unlimited().with_timeout(Duration::ZERO)).unwrap_err();
        assert_eq!(err, SearchError::DeadlineExceeded { limit: Duration::ZERO });
    }

    #[test]
    fn tiny_expansion_cap_aborts_the_search() {
        // Every frontier expansion charges q = 2 units; a 1-unit budget
        // trips during level 0 and surfaces at the level-1 checkpoint.
        let err = run_budgeted(QueryBudget::unlimited().with_max_expansions(1)).unwrap_err();
        assert_eq!(err, SearchError::BudgetExhausted { limit: 1 });
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let out = run_budgeted(
            QueryBudget::unlimited()
                .with_timeout(Duration::from_secs(60))
                .with_max_expansions(1_000_000),
        )
        .expect("generous budget must not trip");
        assert_eq!(out.central_nodes, vec![(NodeId(3), 1)]);
    }

    /// Paper Fig. 4 running example: keywords XML (T = {v9}),
    /// RDF (T = {v4, v5}), SQL (T = {v1}); activations as drawn; v2 is
    /// identified as the Central Node with depth 4.
    #[test]
    fn fig4_running_example() {
        let mut b = GraphBuilder::new();
        // Fig. 1 topology (edges as drawn, direction irrelevant to BFS).
        let texts: [(&str, &str); 10] = [
            ("v0", "Facebook Query Language"),
            ("v1", "SQL"),
            ("v2", "Query language"),
            ("v3", "XPath"),
            ("v4", "SPARQL query language for RDF"),
            ("v5", "RDF query language"),
            ("v6", "XPath 2"),
            ("v7", "XPath 3"),
            ("v8", "XQuery"),
            ("v9", "XML"),
        ];
        let ids: Vec<_> = texts.iter().map(|(k, t)| b.add_node(k, t)).collect();
        // v2 is the hub the keyword paths converge on; v9 (XML) reaches it
        // through the XPath family and XQuery, v4/v5 (RDF) both directly
        // and through XPath, v1 (SQL) directly — multi-paths per keyword,
        // as in Fig. 1.
        for (s, d) in [
            (0, 2),
            (1, 2),
            (3, 2),
            (8, 2),
            (4, 2),
            (5, 2),
            (4, 3),
            (5, 3),
            (6, 3),
            (7, 3),
            (9, 6),
            (9, 7),
            (9, 8),
        ] {
            b.add_edge(ids[s], ids[d], "e");
        }
        let g = b.build();
        // Activations from Fig. 4: v0:2, v1:1, v2:4, v3:2, v4:0, v5:1,
        // v6:0, v7:1, v8:0, v9:1. (Query terms: XML, RDF, SQL.)
        let activation = vec![2, 1, 4, 2, 0, 1, 0, 1, 0, 1];
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "XML RDF SQL");
        assert_eq!(q.num_keywords(), 3);
        let state = SearchState::new(g.num_nodes(), &q);
        let act = ActivationMap::Explicit(&activation);
        let params = SearchParams::default().with_top_k(1);
        let budget = QueryBudget::unlimited().start();
        let ctx = ExpandCtx { graph: &g, act: &act, state: &state, budget: &budget };
        let out = run_seq(ctx, &params).expect("unlimited budget");
        assert_eq!(out.central_nodes.len(), 1);
        let (central, depth) = out.central_nodes[0];
        assert_eq!(central, ids[2], "v2 is the Central Node");
        assert_eq!(depth, 4, "identified in the iteration after level 3");
        // Example 4's intermediate hitting levels: h6^0 = h7^0 = h8^0 = 2
        // via v9's expansion at level 1 — v9's BFS is instance 0 (XML).
        assert_eq!(state.hit(6, 0), 2);
        assert_eq!(state.hit(7, 0), 2);
        assert_eq!(state.hit(8, 0), 2);
        // h3^1 = 2: v3 accepts RDF expansion at level 1 (a3 = 2 ≤ l+1).
        assert_eq!(state.hit(3, 1), 2);
    }
}
