//! The level-synchronous round driver: Algorithm 1's loop, written once
//! for every execution shape.
//!
//! A search runs rounds of enqueue → identify → expand over one or more
//! partitions of the graph. Everything that does not depend on *where*
//! the partitions live is decided here:
//!
//! * the pre-flight — validation, budget arming, fault injection and the
//!   empty-query short-circuit ([`arm`]);
//! * the per-level budget checkpoint and the three termination rules —
//!   Def. 4's `top_k`, an exhausted frontier, the `lmax` cap
//!   ([`Rounds::step`]);
//! * the per-query bookkeeping: cohort, peak frontier,
//!   [`LevelTrace`], the optional [`TraceLevelRecord`]s with each
//!   level's expansion delta, and the [`PhaseProfile`] ([`Rounds`]);
//! * the top-down stage and the [`SearchOutcome`] / [`QueryTrace`]
//!   assembly ([`Rounds::finish`]).
//!
//! What varies is the [`Transport`] that carries one phase to the
//! partitions: [`Local`] searches one partition in place (the solo
//! engines and the cost model), `shard::Lanes` fork-joins in-process
//! shards on a compute pool, and `remote::coordinator::Sweep` sends one
//! RPC per live shard worker. The micro-batcher keeps its fused enqueue
//! scan and steps one [`Rounds`] per lane.

use crate::activation::ActivationMap;
use crate::bottom_up::{
    self, enqueue_parallel_compaction, enqueue_sequential, ExpandCtx, LevelObservation, LevelTrace,
    TerminationReason,
};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::engine::{SearchOutcome, SearchStats};
use crate::error::SearchError;
use crate::model::CentralGraph;
use crate::profile::PhaseProfile;
use crate::shard::ShardBackend;
use crate::state::{HitLevels, LevelStore, SearchState};
use crate::top_down;
use crate::trace::{PhaseMillis, QueryTrace, TraceLevelRecord};
use crate::SearchParams;
use kgraph::{KnowledgeGraph, NodeId};
use std::time::Instant;
use textindex::ParsedQuery;

/// Block size of the GPU-style parallel frontier compaction (a CUDA
/// thread-block analogue; the value only affects scheduling granularity).
const COMPACTION_BLOCK: usize = 4096;

/// How one round's phases reach the partitions of a search.
pub(crate) trait Transport {
    /// Failure of a phase; a tripped budget converts into it.
    type Error: From<SearchError>;
    /// Drain the frontier flags; returns the joint frontier size.
    fn enqueue(&mut self) -> Result<usize, Self::Error>;
    /// Identify the Central Nodes of `level` into `newly` as ascending
    /// global ids, with the level's observation when `traced`.
    fn identify(
        &mut self,
        level: u8,
        traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<LevelObservation, Self::Error>;
    /// Expand `level` and exchange whatever crosses partition boundaries.
    fn expand(&mut self, level: u8) -> Result<(), Self::Error>;
}

/// What [`arm`] decided before any search work ran.
pub(crate) enum Armed {
    /// Search under this budget tracker.
    Search(BudgetTracker),
    /// The verdict is already known: an expired budget, an injected
    /// fault, or an empty query's empty outcome.
    Done(Result<SearchOutcome, SearchError>),
}

/// The pre-flight every execution shape runs before its first round.
///
/// # Panics
/// Panics if `params` fail [`SearchParams::validate`].
pub(crate) fn arm(
    query: &ParsedQuery,
    params: &SearchParams,
    budget: &QueryBudget,
    engine: &str,
    qid: Option<u64>,
) -> Armed {
    if let Err(e) = params.validate() {
        panic!("invalid search parameters: {e}");
    }
    // Tracing arms the tracker in counting mode so per-level expansion
    // deltas are observable even without a cap; the untraced unlimited
    // path keeps its zero-atomic charge fast path.
    let tracker = if params.trace.enabled() {
        budget.start_counting()
    } else {
        budget.start()
    };
    // An already-expired deadline fails deterministically before any work.
    if let Err(e) = tracker.checkpoint() {
        return Armed::Done(Err(e));
    }
    #[cfg(feature = "fault-inject")]
    if let Err(e) = crate::fault::inject(query, &tracker) {
        return Armed::Done(Err(e));
    }
    if query.is_empty() {
        let mut out = SearchOutcome::default();
        if params.trace.enabled() {
            // A trace with no levels: nothing matched, no search ran.
            let engine = engine.to_string();
            out.trace = Some(Box::new(QueryTrace { engine, qid, ..QueryTrace::default() }));
        }
        return Armed::Done(Ok(out));
    }
    Armed::Search(tracker)
}

/// Per-query round state: what the driver records while one query's
/// bottom-up stage runs.
pub(crate) struct Rounds {
    /// Current BFS level; the last level processed once the stage ended.
    pub(crate) level: u8,
    max_level: u8,
    top_k: usize,
    /// Identified Central Nodes with their depths, in identification
    /// order (ascending depth, then node id).
    pub(crate) cohort: Vec<(NodeId, u8)>,
    /// Central Nodes newly identified at the current level.
    newly: Vec<u32>,
    peak_frontier: usize,
    /// One entry per processed level.
    pub(crate) trace: Vec<LevelTrace>,
    /// Rich per-level records, kept only for traced queries.
    records: Option<Vec<TraceLevelRecord>>,
    /// Phase wall times of this query.
    pub(crate) profile: PhaseProfile,
}

impl Rounds {
    /// Fresh round state for a query searched with `params`.
    pub(crate) fn new(params: &SearchParams) -> Rounds {
        Rounds {
            level: 0,
            max_level: params.max_level.min(254),
            top_k: params.top_k,
            cohort: Vec::new(),
            newly: Vec::new(),
            peak_frontier: 0,
            trace: Vec::new(),
            records: params.trace.enabled().then(Vec::new),
            profile: PhaseProfile::default(),
        }
    }

    /// Run one round through `link` — checkpoint, enqueue, identify,
    /// expand — or stop the search. The only place a
    /// [`TerminationReason`] is decided.
    pub(crate) fn step<T: Transport>(
        &mut self,
        link: &mut T,
        budget: &BudgetTracker,
    ) -> Result<Option<TerminationReason>, T::Error> {
        budget.checkpoint()?;
        let t = Instant::now();
        let frontier = link.enqueue()?;
        self.profile.enqueue += t.elapsed();
        self.peak_frontier = self.peak_frontier.max(frontier);
        if frontier == 0 {
            return Ok(Some(TerminationReason::FrontierExhausted));
        }

        let level = self.level;
        let t = Instant::now();
        let seen = link.identify(level, self.records.is_some(), &mut self.newly)?;
        self.profile.identify += t.elapsed();
        let identified = self.newly.len();
        self.trace.push(LevelTrace { level, frontier, identified });
        if let Some(records) = self.records.as_mut() {
            records.push(TraceLevelRecord {
                level: u32::from(level),
                frontier,
                identified,
                new_hits: seen.new_hits,
                activation_deferred: seen.activation_deferred,
                expansions: 0, // filled in after this level's expansion runs
                budget_remaining: budget.remaining(),
            });
        }
        self.cohort.extend(self.newly.iter().map(|&v| (NodeId(v), level)));
        if self.cohort.len() >= self.top_k {
            return Ok(Some(TerminationReason::EnoughCentralNodes));
        }
        if level >= self.max_level {
            return Ok(Some(TerminationReason::LevelCap));
        }

        let charged_before = budget.expansions();
        let t = Instant::now();
        link.expand(level)?;
        self.profile.expansion += t.elapsed();
        if let Some(last) = self.records.as_mut().and_then(|r| r.last_mut()) {
            last.expansions = budget.expansions() - charged_before;
            last.budget_remaining = budget.remaining();
        }
        self.level += 1;
        Ok(None)
    }

    /// Step rounds through `link` until the search stops.
    pub(crate) fn run<T: Transport>(
        &mut self,
        link: &mut T,
        budget: &BudgetTracker,
    ) -> Result<TerminationReason, T::Error> {
        loop {
            if let Some(done) = self.step(link, budget)? {
                return Ok(done);
            }
        }
    }

    /// The top-down stage and the outcome. The cohort is ordered
    /// shallowest-first, so the `max_candidates` cap keeps the best-depth
    /// prefix; each candidate is extracted, pruned and scored — on `pool`
    /// when given, else in order — with the budget polled once per
    /// candidate, so a trip fails the whole search rather than returning
    /// a silently truncated answer set.
    #[allow(clippy::too_many_arguments)] // the stage's inputs, each from a different owner
    pub(crate) fn finish<H: HitLevels + Sync>(
        mut self,
        terminated: TerminationReason,
        engine: &str,
        graph: &KnowledgeGraph,
        act: &ActivationMap<'_>,
        hits: &H,
        params: &SearchParams,
        budget: &BudgetTracker,
        pool: Option<&rayon::ThreadPool>,
    ) -> Result<SearchOutcome, SearchError> {
        use rayon::prelude::*;
        self.cohort.truncate(params.max_candidates);
        let t = Instant::now();
        let extract_one = |&(c, d): &(NodeId, u8)| {
            if budget.should_stop() {
                return None;
            }
            let e = top_down::extract(graph, act, hits, c.0, d);
            Some(top_down::prune_and_score(graph, hits, &e, params))
        };
        let candidates: Option<Vec<CentralGraph>> = match pool {
            Some(pool) => pool.install(|| self.cohort.par_iter().map(extract_one).collect()),
            None => self.cohort.iter().map(extract_one).collect(),
        };
        let Some(candidates) = candidates else {
            return Err(budget.error().expect("a stopped top-down stage implies a tripped budget"));
        };
        let answers = top_down::select_top_k(candidates, params);
        self.profile.top_down = t.elapsed();

        let trace = self.records.map(|levels| {
            Box::new(QueryTrace {
                engine: engine.to_string(),
                keywords: hits.num_keywords(),
                total_expansions: budget.expansions(),
                terminated: terminated == TerminationReason::LevelCap,
                levels,
                cache: None,
                session_id: None,
                session_queries: None,
                batch_id: None,
                co_batched: None,
                phase_ms: PhaseMillis::from(&self.profile),
                qid: None,
                cache_source_qid: None,
                shard_timelines: None,
            })
        });
        Ok(SearchOutcome {
            answers,
            profile: self.profile,
            stats: SearchStats {
                last_level: self.level,
                central_candidates: self.cohort.len(),
                peak_frontier: self.peak_frontier,
                trace: self.trace,
            },
            trace,
        })
    }
}

/// One partition searched in place: the solo engines' transport, and the
/// cost model's. `flags` is the state whose `FIdentifier` the enqueue
/// drains; `ctx.state` is the same storage as the kernels see it (the
/// state itself, or the cost model's counting view of it).
pub(crate) struct Local<'a, S> {
    /// Kernel granularity of the expansion.
    pub(crate) backend: ShardBackend,
    /// Pool of the parallel phases; `None` runs identification in order.
    pub(crate) pool: Option<&'a rayon::ThreadPool>,
    /// The state whose frontier flags the enqueue drains.
    pub(crate) flags: &'a SearchState,
    /// The kernels' inputs.
    pub(crate) ctx: ExpandCtx<'a, S>,
    /// The joint frontier queue, reused across queries by a session.
    pub(crate) frontiers: &'a mut Vec<u32>,
}

impl<S: LevelStore> Transport for Local<'_, S> {
    type Error = SearchError;

    fn enqueue(&mut self) -> Result<usize, SearchError> {
        match (self.backend, self.pool) {
            // The GPU parallelizes enqueue as a scan + scatter; on CPU the
            // paper found one sequential scan fastest.
            (ShardBackend::GpuStyle(_), Some(pool)) => {
                enqueue_parallel_compaction(pool, self.flags, self.frontiers, COMPACTION_BLOCK);
            }
            _ => enqueue_sequential(self.flags, self.frontiers),
        }
        Ok(self.frontiers.len())
    }

    fn identify(
        &mut self,
        level: u8,
        traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<LevelObservation, SearchError> {
        let ExpandCtx { state, act, .. } = self.ctx;
        Ok(bottom_up::identify(self.pool, state, act, self.frontiers, level, traced, newly))
    }

    fn expand(&mut self, level: u8) -> Result<(), SearchError> {
        self.backend.expand(self.pool, &self.ctx, self.frontiers, level);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// What the bottom-up stage of one local search reports.
    #[derive(Debug)]
    pub(crate) struct BottomUpOutcome {
        /// Identified Central Nodes with their depths.
        pub(crate) central_nodes: Vec<(NodeId, u8)>,
        /// Why the stage stopped.
        pub(crate) terminated: TerminationReason,
        /// The last level processed.
        pub(crate) last_level: u8,
    }

    /// The bottom-up stage over `ctx.state` as one local partition with
    /// the sequential kernels — the driver as the solo engines run it.
    pub(crate) fn run_seq(
        ctx: ExpandCtx<'_>,
        params: &SearchParams,
    ) -> Result<BottomUpOutcome, SearchError> {
        let (mut rounds, mut frontiers) = (Rounds::new(params), Vec::new());
        let budget = ctx.budget;
        let flags = ctx.state;
        let backend = ShardBackend::Seq;
        let mut link = Local { backend, pool: None, flags, ctx, frontiers: &mut frontiers };
        let terminated = rounds.run(&mut link, budget)?;
        Ok(BottomUpOutcome { central_nodes: rounds.cohort, terminated, last_level: rounds.level })
    }

    /// A transport replaying a fixed script: the frontier size and the
    /// newly central nodes of each level, and the units each expansion
    /// charges.
    struct Script<'a> {
        frontiers: &'a [usize],
        newly: &'a [&'a [u32]],
        charge: u64,
        budget: &'a BudgetTracker,
        level: usize,
        expanded: Vec<u8>,
    }

    impl Transport for Script<'_> {
        type Error = SearchError;
        fn enqueue(&mut self) -> Result<usize, SearchError> {
            Ok(self.frontiers.get(self.level).copied().unwrap_or(0))
        }
        fn identify(
            &mut self,
            level: u8,
            _traced: bool,
            newly: &mut Vec<u32>,
        ) -> Result<LevelObservation, SearchError> {
            assert_eq!(usize::from(level), self.level, "identify runs the current level");
            newly.clear();
            newly.extend_from_slice(self.newly.get(self.level).copied().unwrap_or_default());
            Ok(LevelObservation { new_hits: 1, activation_deferred: 2 })
        }
        fn expand(&mut self, level: u8) -> Result<(), SearchError> {
            self.budget.charge(self.charge);
            self.expanded.push(level);
            self.level += 1;
            Ok(())
        }
    }

    fn script<'a>(
        frontiers: &'a [usize],
        newly: &'a [&'a [u32]],
        budget: &'a BudgetTracker,
    ) -> Script<'a> {
        Script { frontiers, newly, charge: 3, budget, level: 0, expanded: Vec::new() }
    }

    #[test]
    fn each_termination_rule_stops_the_rounds_where_it_applies() {
        let budget = QueryBudget::unlimited().start();
        let params = SearchParams::default().with_top_k(2);

        // The frontier drains at level 2 with one central node found.
        let mut rounds = Rounds::new(&params);
        let mut link = script(&[4, 3], &[&[], &[7]], &budget);
        let done = rounds.run(&mut link, &budget).unwrap();
        assert_eq!(done, TerminationReason::FrontierExhausted);
        assert_eq!((rounds.level, link.expanded), (2, vec![0, 1]));
        assert_eq!(rounds.cohort, vec![(NodeId(7), 1)]);

        // `top_k` central nodes stop the search before that level expands.
        let mut rounds = Rounds::new(&params);
        let mut link = script(&[4, 3, 2], &[&[1], &[5, 9]], &budget);
        let done = rounds.run(&mut link, &budget).unwrap();
        assert_eq!(done, TerminationReason::EnoughCentralNodes);
        assert_eq!((rounds.level, link.expanded), (1, vec![0]));
        let levels: Vec<_> = rounds.trace.iter().map(|l| (l.frontier, l.identified)).collect();
        assert_eq!(levels, vec![(4, 1), (3, 2)]);

        // The level cap ends a search that never fills its cohort.
        let capped = SearchParams { max_level: 1, ..params };
        let mut rounds = Rounds::new(&capped);
        let mut link = script(&[4, 3, 2], &[], &budget);
        let done = rounds.run(&mut link, &budget).unwrap();
        assert_eq!(done, TerminationReason::LevelCap);
        assert_eq!((rounds.level, link.expanded), (1, vec![0]));
    }

    #[test]
    fn traced_records_carry_each_levels_observation_and_expansion_delta() {
        let budget = QueryBudget::unlimited().with_max_expansions(100).start_counting();
        let params = SearchParams::default().with_trace(crate::trace::TraceLevel::Full);
        let mut rounds = Rounds::new(&params);
        let mut link = script(&[4, 3], &[], &budget);
        rounds.run(&mut link, &budget).unwrap();
        let records = rounds.records.expect("traced rounds keep records");
        let got: Vec<_> = records
            .iter()
            .map(|r| (r.level, r.new_hits, r.activation_deferred, r.expansions, r.budget_remaining))
            .collect();
        assert_eq!(got, vec![(0, 1, 2, 3, Some(97)), (1, 1, 2, 3, Some(94))]);
    }

    #[test]
    fn a_tripped_budget_stops_the_next_round_at_its_checkpoint() {
        let budget = QueryBudget::unlimited().with_max_expansions(2).start();
        let mut rounds = Rounds::new(&SearchParams::default());
        let mut link = script(&[4, 3], &[], &budget);
        let err = rounds.run(&mut link, &budget).unwrap_err();
        assert_eq!(err, SearchError::BudgetExhausted { limit: 2 });
        assert_eq!(link.expanded, vec![0], "no phase runs past the checkpoint");
    }
}
