//! Work counting and hardware cost projection.
//!
//! The paper's headline GPU numbers (two to three orders of magnitude over
//! BANKS-II, with GPU-Par ahead of CPU-Par on the memory-bound phases)
//! come from hardware we do not have: a GTX 1080 Ti with 480 GB/s GDDR5X
//! against a Xeon at ~56 GB/s (the paper quotes both figures). What we
//! *can* reproduce is the algorithm's exact work profile — every matrix
//! byte, adjacency entry and frontier flag the search touches — and then
//! project phase times on any memory system, because level-synchronous
//! BFS over CSR is bandwidth-bound (the premise of the paper's Sec. V-B
//! discussion and of the GPU-BFS literature it cites).
//!
//! [`count_work`] runs the bottom-up stage through the engines' own round
//! driver and kernels, on a storage view that tallies traffic per phase;
//! [`HardwareModel`] converts the tallies into projected times.

use crate::activation::ActivationMap;
use crate::bottom_up::{ExpandCtx, TerminationReason};
use crate::budget::QueryBudget;
use crate::driver::{Local, Rounds};
use crate::shard::ShardBackend;
use crate::state::{HitLevels, LevelStore, SearchState};
use crate::trace::TraceLevel;
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use textindex::ParsedQuery;

/// Byte/operation tallies of one bottom-up search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkMeasure {
    /// Levels processed.
    pub levels: u32,
    /// Frontier entries drained over all levels.
    pub frontier_entries: u64,
    /// `FIdentifier` flags scanned during enqueue (|V| per level).
    pub flag_scans: u64,
    /// (frontier, instance) work items that passed the gates.
    pub work_items: u64,
    /// Adjacency entries scanned during expansion (8 bytes each).
    pub adjacency_scans: u64,
    /// Matrix reads during expansion + identification (1 byte each).
    pub matrix_reads: u64,
    /// Matrix writes (hits; 1 byte each).
    pub matrix_writes: u64,
    /// Central nodes identified.
    pub central_nodes: u64,
}

impl WorkMeasure {
    /// Bytes moved during the expansion phase (adjacency + matrix + flag
    /// traffic — the dominant term).
    pub fn expansion_bytes(&self) -> u64 {
        self.adjacency_scans * 8 + self.matrix_reads + self.matrix_writes * 2
    }

    /// Bytes moved during enqueue (flag scan + queue writes).
    pub fn enqueue_bytes(&self) -> u64 {
        self.flag_scans + self.frontier_entries * 4
    }

    /// Bytes moved during identification (one matrix row per frontier).
    pub fn identify_bytes(&self, q: usize) -> u64 {
        self.frontier_entries * q as u64
    }
}

/// A memory system to project onto.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HardwareModel {
    /// Display name.
    pub name: &'static str,
    /// Effective memory bandwidth in GB/s for the streaming phases. The
    /// paper quotes 480 GB/s (GDDR5X) and ~56 GB/s (DDR4).
    pub bandwidth_gbps: f64,
    /// Achievable fraction of peak bandwidth for this access pattern
    /// (scattered BFS traffic reaches nowhere near peak; 0.15–0.35 is the
    /// range reported by the GPU-BFS literature the paper cites).
    pub efficiency: f64,
    /// Fixed per-level synchronization overhead in microseconds (kernel
    /// launch / barrier).
    pub per_level_overhead_us: f64,
}

impl HardwareModel {
    /// The paper's GPU (GTX 1080 Ti-class).
    pub fn paper_gpu() -> Self {
        HardwareModel {
            name: "GTX-1080Ti-class",
            bandwidth_gbps: 480.0,
            efficiency: 0.25,
            per_level_overhead_us: 20.0,
        }
    }

    /// The paper's CPU memory system (DDR4 Xeon).
    pub fn paper_cpu() -> Self {
        HardwareModel {
            name: "Xeon-DDR4-class",
            bandwidth_gbps: 56.0,
            efficiency: 0.35,
            per_level_overhead_us: 2.0,
        }
    }

    /// Projected time in milliseconds for the bottom-up phases of a
    /// measured search.
    pub fn project_ms(&self, work: &WorkMeasure, q: usize) -> f64 {
        let bytes = work.expansion_bytes() + work.enqueue_bytes() + work.identify_bytes(q);
        let effective = self.bandwidth_gbps * 1e9 * self.efficiency;
        let transfer_ms = bytes as f64 / effective * 1e3;
        let overhead_ms = work.levels as f64 * self.per_level_overhead_us / 1e3;
        transfer_ms + overhead_ms
    }
}

/// Run the bottom-up stage through the round driver with the sequential
/// kernels on a counting view of the state, tallying all traffic. The
/// identified central nodes are the real engines' by construction.
pub fn count_work(
    graph: &KnowledgeGraph,
    query: &ParsedQuery,
    params: &SearchParams,
) -> WorkMeasure {
    if query.is_empty() {
        return WorkMeasure::default();
    }
    let state = SearchState::new(graph.num_nodes(), query);
    let counting = Counting {
        state: &state,
        matrix_reads: AtomicU64::new(0),
        matrix_writes: AtomicU64::new(0),
        work_items: AtomicU64::new(0),
        adjacency_scans: AtomicU64::new(0),
    };
    let act = ActivationMap::for_params(graph, params);
    let budget = QueryBudget::unlimited().start();
    // Untraced: the trace observation's reads are not search traffic.
    let params = SearchParams { trace: TraceLevel::Off, ..params.clone() };
    let mut rounds = Rounds::new(&params);
    let mut frontiers = Vec::new();
    let ctx = ExpandCtx { graph, act: &act, state: &counting, budget: &budget };
    let mut link = Local {
        backend: ShardBackend::Seq,
        pool: None,
        flags: &state,
        ctx,
        frontiers: &mut frontiers,
    };
    let terminated =
        rounds.run(&mut link, &budget).expect("an unlimited budget cannot be exceeded");

    // Every level entered drains the whole flag array once; the last
    // enqueue of an exhausted search finds it empty.
    let enqueues =
        rounds.trace.len() + usize::from(terminated == TerminationReason::FrontierExhausted);
    let frontier_entries: u64 = rounds.trace.iter().map(|l| l.frontier as u64).sum();
    let tally = |c: &AtomicU64| c.load(Ordering::Relaxed);
    WorkMeasure {
        levels: u32::from(rounds.level),
        frontier_entries,
        flag_scans: (enqueues * graph.num_nodes()) as u64,
        work_items: tally(&counting.work_items),
        adjacency_scans: tally(&counting.adjacency_scans),
        // Identification reads one matrix row per frontier.
        matrix_reads: tally(&counting.matrix_reads)
            + frontier_entries * query.num_keywords() as u64,
        matrix_writes: tally(&counting.matrix_writes),
        central_nodes: rounds.cohort.len() as u64,
    }
}

/// A [`SearchState`] as the kernels see it, with their expansion traffic
/// tallied on the way through.
struct Counting<'a> {
    state: &'a SearchState,
    matrix_reads: AtomicU64,
    matrix_writes: AtomicU64,
    work_items: AtomicU64,
    adjacency_scans: AtomicU64,
}

impl HitLevels for Counting<'_> {
    fn num_keywords(&self) -> usize {
        self.state.num_keywords()
    }
    fn hit(&self, v: u32, i: usize) -> u8 {
        self.matrix_reads.fetch_add(1, Ordering::Relaxed);
        self.state.hit(v, i)
    }
    fn is_keyword_node(&self, v: u32) -> bool {
        self.state.is_keyword_node(v)
    }
    fn central_depth(&self, v: u32) -> Option<u8> {
        self.state.central_depth(v)
    }
}

impl LevelStore for Counting<'_> {
    fn set_hit(&self, v: u32, i: usize, level: u8) {
        self.matrix_writes.fetch_add(1, Ordering::Relaxed);
        self.state.set_hit(v, i, level);
    }
    fn row_complete(&self, v: u32) -> bool {
        self.state.row_complete(v)
    }
    fn mark_frontier(&self, v: u32) {
        self.state.mark_frontier(v);
    }
    fn is_central(&self, v: u32) -> bool {
        self.state.is_central(v)
    }
    fn mark_central(&self, v: u32, depth: u8) {
        self.state.mark_central(v, depth);
    }
    fn tally_work_item(&self, degree: usize) {
        self.work_items.fetch_add(1, Ordering::Relaxed);
        self.adjacency_scans.fetch_add(degree as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{KeywordSearchEngine, SeqEngine};
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    fn fixture() -> (KnowledgeGraph, ParsedQuery) {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let m = b.add_node("m", "middle");
        let y = b.add_node("y", "beta");
        let z = b.add_node("z", "gamma side");
        b.add_edge(x, m, "e");
        b.add_edge(y, m, "e");
        b.add_edge(z, m, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha beta");
        (g, q)
    }

    #[test]
    fn counter_agrees_with_the_real_engine() {
        let (g, q) = fixture();
        let params = SearchParams::default().with_average_distance(1.0);
        let work = count_work(&g, &q, &params);
        let out = SeqEngine::new().search(&g, &q, &params);
        assert_eq!(work.central_nodes as usize, out.stats.central_candidates);
        assert!(work.work_items > 0);
        assert!(work.adjacency_scans >= work.work_items);
        assert!(work.matrix_writes >= 2, "m hit by both instances");
    }

    #[test]
    fn byte_accounting_is_consistent() {
        let (g, q) = fixture();
        let params = SearchParams::default().with_average_distance(1.0);
        let work = count_work(&g, &q, &params);
        assert_eq!(
            work.expansion_bytes(),
            work.adjacency_scans * 8 + work.matrix_reads + work.matrix_writes * 2
        );
        assert!(work.enqueue_bytes() > 0);
        assert!(work.identify_bytes(2) > 0);
    }

    #[test]
    fn higher_bandwidth_projects_faster() {
        let (g, q) = fixture();
        let params = SearchParams::default().with_average_distance(1.0);
        let work = count_work(&g, &q, &params);
        let gpu = HardwareModel::paper_gpu();
        let cpu = HardwareModel::paper_cpu();
        // On tiny inputs the GPU's per-level overhead dominates; compare
        // the pure transfer term by zeroing overheads.
        let gpu0 = HardwareModel { per_level_overhead_us: 0.0, ..gpu };
        let cpu0 = HardwareModel { per_level_overhead_us: 0.0, ..cpu };
        assert!(gpu0.project_ms(&work, 2) < cpu0.project_ms(&work, 2));
    }

    #[test]
    fn empty_query_counts_nothing() {
        let (g, _) = fixture();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "zzz");
        let work = count_work(&g, &q, &SearchParams::default());
        assert_eq!(work, WorkMeasure::default());
    }
}
