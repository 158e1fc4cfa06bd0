//! The traced run's per-layer numbers.
//!
//! Spans are taken from this benchmark's own code, around calls into each
//! layer's public functions and around each response's client-visible
//! byte timeline; nothing inside the served program is instrumented.
//! Spans stay in memory and are written out at the end; each layer's self
//! time (its spans' duration minus the part their children cover) is
//! derived from them.

use crate::check::{parse_query_reply, AnswerKey};
use crate::inputs::DistinctQueries;
use crate::loadgen::{self, Op, OpKind, Record};
use crate::server::LaunchTimes;
use crate::stats::{mean, median, percentile};
use crate::{Args, Metrics, Plan, Served};
use central::activation::{ActivationConfig, ActivationMap};
use central::engine::{KeywordSearchEngine, ParCpuEngine};
use central::{top_down, QueryBudget, SearchSession, TraceLevel};
use kgraph::KnowledgeGraph;
use serde_json::Value;
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};
use wikisearch_engine::{compile_snapshot, Backend, WikiSearch};

/// Distinct window queries replayed in-process (all of fleet-miss's).
const REPLAY_QUERIES: usize = 48;
/// 3-keyword queries sent to the fleet in the traced run, and the seed
/// that draws them.
const FLEET_KNUM3: usize = 3;
const KNUM3_SEED: u64 = 3;
/// Time after which no further 3-keyword fleet query is started (one can
/// take tens of seconds).
const KNUM3_BUDGET: Duration = Duration::from_secs(20);
/// In-process snapshot compiles and opens timed.
const COMPILES: usize = 3;
const OPENS: usize = 9;

pub struct SetupStamps {
    pub started: Instant,
    pub built: Instant,
    pub launch: LaunchTimes,
}

/// The traced run's handful of 3-keyword fleet queries.
pub struct FleetKnum3 {
    pub ops: Vec<Op>,
    pub records: Vec<Record>,
}

/// Send up to [`FLEET_KNUM3`] fixed 3-keyword queries to the fleet, one
/// at a time, starting no new one after [`KNUM3_BUDGET`].
pub fn fleet_knum3(port: u16) -> FleetKnum3 {
    let ops: Vec<Op> = DistinctQueries::new(KNUM3_SEED, 3)
        .take(FLEET_KNUM3)
        .iter()
        .map(|q| Op::query(q))
        .collect();
    let started = Instant::now();
    let mut conn = None;
    let mut records = Vec::new();
    for i in 0..ops.len() {
        if started.elapsed() > KNUM3_BUDGET {
            break;
        }
        let now = Instant::now();
        records.push(loadgen::run_op(&mut conn, port, &ops, i, now, now, true));
    }
    FleetKnum3 { ops, records }
}

pub struct TraceCtx<'a> {
    pub args: &'a Args,
    pub plan: &'a Plan,
    pub graph: &'a KnowledgeGraph,
    pub snapshot: &'a Path,
    pub ws: &'a WikiSearch,
    /// The traced window and the STATS around it.
    pub served: &'a Served,
    /// Per window record: the engine `ms` and qid its response reported.
    pub engine: &'a [(f64, u64)],
    pub setup: &'a [SetupStamps],
    pub knum3: Option<&'a FleetKnum3>,
}

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    qid: u64,
}

#[derive(Default)]
struct Spans {
    list: Vec<Span>,
}

impl Spans {
    fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        qid: u64,
    ) -> usize {
        self.list.push(Span { name, start, end, parent, qid });
        self.list.len() - 1
    }

    /// Time `f` as a span; returns its result and duration.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        qid: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.add(name, start, end, parent, qid);
        (out, end - start)
    }

    fn close(&mut self, idx: usize) {
        self.list[idx].end = Instant::now();
    }

    /// Per span name: count, total ms and self ms (duration minus the time
    /// its children cover; children of one span never overlap here).
    fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ms[p] += ms(s.end - s.start);
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, c) in self.list.iter().zip(child_ms) {
            let total = ms(s.end - s.start);
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += total - c;
                }
                None => out.push((s.name, 1, total, total - c)),
            }
        }
        out
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let origin = self.list.iter().map(|s| s.start).min().unwrap_or_else(Instant::now);
        let mut text = String::new();
        for s in &self.list {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"qid\":{}}}\n",
                s.name,
                (s.start - origin).as_secs_f64() * 1e6,
                (s.end - origin).as_secs_f64() * 1e6,
                s.qid
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter().try_fold(v, |v, k| v.get(k)).and_then(Value::as_f64).unwrap_or(0.0)
}

fn push(out: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

pub fn per_layer(ctx: &TraceCtx<'_>) -> Result<Metrics, String> {
    let mut spans = Spans::default();
    let mut out = Metrics::new();

    // Setup: build-snapshot, spawn to banner, first PING, fleet ready.
    for s in ctx.setup {
        let l = &s.launch;
        let root = spans.add("setup", s.started, l.ready, None, 0);
        spans.add("setup.build_snapshot", s.started, s.built, Some(root), 0);
        spans.add("setup.spawn_to_banner", l.spawned, l.banner, Some(root), 0);
        spans.add("setup.first_ping", l.banner, l.pong, Some(root), 0);
        spans.add("setup.fleet_ready", l.pong, l.ready, Some(root), 0);
    }

    // cli::serve, from each QUERY response's byte timeline.
    let window = &ctx.served.window;
    let (mut first_byte, mut tail, mut residual, mut reported) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (r, &(engine_ms, qid)) in window.records.iter().zip(ctx.engine) {
        let Some(first) = r.first else { continue };
        let root = spans.add("client.request", r.sent, r.done, None, qid);
        spans.add("serve.first_byte", r.sent, first, Some(root), qid);
        spans.add("serve.tail", first, r.done, Some(root), qid);
        if ctx.plan.op(r).kind == OpKind::Query && engine_ms.is_finite() {
            first_byte.push(ms(first - r.sent));
            tail.push(ms(r.done - first));
            residual.push(ms(r.done - r.sent) - engine_ms);
            reported.push(engine_ms);
        }
    }
    push(&mut out, "serve.first_byte_p50_ms", median(first_byte), "ms");
    push(&mut out, "serve.tail_gap_p50_ms", median(tail), "ms");
    push(&mut out, "serve.residual_p50_ms", median(residual.clone()), "ms");
    push(&mut out, "serve.reported_ms_p50", median(reported), "ms");

    // central::cache and central::pool, from STATS deltas.
    let (before, after) = (&ctx.served.stats_before, &ctx.served.stats_after);
    let d = |path: &[&str]| num(after, path) - num(before, path);
    let (hits, misses) = (d(&["cache", "hits"]), d(&["cache", "misses"]));
    let hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    push(&mut out, "cache.hit_rate", hit_rate, "ratio");
    // Inserts and evictions count from before the warm-up: on hot-zipf the
    // warm-up is the write path, the window only reads.
    let boot = &ctx.served.stats_boot;
    let since_boot = |path: &[&str]| num(after, path) - num(boot, path);
    push(&mut out, "cache.inserts", since_boot(&["cache", "inserts"]), "count");
    push(&mut out, "cache.evictions", since_boot(&["cache", "evictions"]), "count");
    push(
        &mut out,
        "pool.sessions_created",
        num(after, &["pool", "sessions_created"]),
        "count",
    );

    // Load generator: how late it sent, apart from waiting for the server.
    let lags: Vec<f64> = window.records.iter().map(Record::lag_ms).collect();
    push(&mut out, "loadgen.lag_p99_ms", percentile(lags, 0.99), "ms");

    let levels = replay(ctx, &mut spans, &mut out)?;

    // central::remote / central::shard, from STATS deltas and the client.
    // The coordinator's `rounds` counter reads 0 at the time of writing;
    // then rounds are taken as one per BFS level plus the final empty
    // round, with levels from the in-process replay of the same queries.
    let fleet = ctx.args.workload.fleet();
    let queries = window.queries(ctx.plan).count().max(1) as f64;
    let rpcs = d(&["remote", "rpcs"]);
    let rounds = match d(&["remote", "rounds"]) {
        r if r > 0.0 || !fleet => r,
        _ => queries * (levels + 1.0),
    };
    push(&mut out, "remote.rpcs_per_query", rpcs / queries, "count");
    push(&mut out, "remote.rounds_per_query", rounds / queries, "count");
    let rpcs_per_round = if rounds > 0.0 { rpcs / rounds } else { 0.0 };
    push(&mut out, "remote.rpcs_per_round", rpcs_per_round, "count");
    push(&mut out, "remote.dials_per_query", d(&["remote", "dials"]) / queries, "count");
    push(&mut out, "remote.retries", d(&["remote", "retries"]), "count");
    push(
        &mut out,
        "remote.rpc_p50_us",
        num(after, &["remote", "rpc_latency_us", "p50"]),
        "us",
    );
    push(
        &mut out,
        "remote.unprofiled_p50_ms",
        if fleet { median(residual) } else { 0.0 },
        "ms",
    );
    let (mut k3_client, mut k3_engine) = (Vec::new(), Vec::new());
    for r in ctx.knum3.iter().flat_map(|k| &k.records) {
        if let Some(s) = r.reply.as_ref().ok().and_then(|t| parse_query_reply(t).ok()) {
            k3_client.push(r.latency_ms());
            k3_engine.push(s.ms);
        }
    }
    push(
        &mut out,
        "remote.knum3_p50_ms",
        if fleet { median(k3_client) } else { 0.0 },
        "ms",
    );
    push(
        &mut out,
        "remote.knum3_engine_ms",
        if fleet { median(k3_engine) } else { 0.0 },
        "ms",
    );

    let stem = format!("{}-{}", ctx.args.workload.name(), ctx.args.seed);
    spans.write(&ctx.args.workdir.join(format!("spans-{stem}.ndjson")))?;
    eprintln!("perfbench: self time per span ({stem}), ms");
    eprintln!("  {:<28} {:>7} {:>12} {:>12}", "span", "count", "total", "self");
    for (name, count, total, own) in spans.self_times() {
        eprintln!("  {name:<28} {count:>7} {total:>12.3} {own:>12.3}");
    }
    Ok(out)
}

/// In-process replays over the same snapshot and parameters: the engine
/// facade, the text index, the session pool, the metrics registry, the
/// central engine with its top-down sub-phases, and the snapshot layer.
/// Returns the mean BFS level count of the replayed queries.
fn replay(ctx: &TraceCtx<'_>, spans: &mut Spans, out: &mut Metrics) -> Result<f64, String> {
    let mut seen = HashSet::new();
    let queries: Vec<&str> = ctx
        .served
        .window
        .queries(ctx.plan)
        .map(|r| ctx.plan.op(r).keywords())
        .filter(|q| seen.insert(*q))
        .take(REPLAY_QUERIES)
        .collect();
    if queries.is_empty() {
        return Err("the traced window served no query to replay".into());
    }

    // Engine facade with its default 64 MiB result cache: the first call
    // misses, the second hits.
    let mut facade = WikiSearch::open_snapshot(ctx.snapshot, Backend::ParCpu(2))?;
    facade.set_cache_capacity(64 << 20);
    let params = facade.params().clone();
    let unlimited = QueryBudget::unlimited();
    let (mut parse_us, mut miss_ms, mut hit_us, mut snap_us, mut checkout_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, q) in queries.iter().enumerate() {
        let qid = i as u64 + 1;
        let root = spans.add("replay.facade", Instant::now(), Instant::now(), None, qid);
        let (_, t) = spans.time("textindex.parse", Some(root), qid, || facade.parse(q));
        parse_us.push(t.as_secs_f64() * 1e6);
        let (r, t) = spans.time("engine.miss", Some(root), qid, || {
            facade.try_search_with_params(q, &params, &unlimited)
        });
        r.map_err(|e| format!("replay of {q:?}: {e}"))?;
        miss_ms.push(ms(t));
        let (r, t) = spans.time("engine.hit", Some(root), qid, || {
            facade.try_search_with_params(q, &params, &unlimited)
        });
        r.map_err(|e| format!("replay of {q:?}: {e}"))?;
        hit_us.push(t.as_secs_f64() * 1e6);
        let (_, t) = spans.time("metrics.snapshot", Some(root), qid, || facade.metrics_snapshot());
        snap_us.push(t.as_secs_f64() * 1e6);
        let (guard, t) =
            spans.time("pool.checkout", Some(root), qid, || facade.session_pool().checkout());
        drop(guard);
        checkout_us.push(t.as_secs_f64() * 1e6);
        spans.close(root);
    }
    if facade.cache_stats().is_some_and(|c| c.hits != queries.len() as u64) {
        return Err("facade replay: the second call of each query did not hit the cache".into());
    }
    push(out, "engine.hit_us", median(hit_us), "us");
    push(out, "engine.miss_ms", median(miss_ms), "ms");
    push(out, "textindex.parse_us", median(parse_us), "us");
    push(out, "pool.checkout_us", median(checkout_us), "us");
    push(out, "metrics.snapshot_us", median(snap_us), "us");

    // Central engine (CPU-Par on two threads) through one warm session,
    // then its top-down stage re-driven over the finished session state.
    let ws = ctx.ws;
    let graph = ws.graph();
    let engine = ParCpuEngine::new(2);
    let mut session = SearchSession::new();
    let act = ActivationMap::Computed {
        graph,
        config: ActivationConfig { alpha: params.alpha, average_distance: params.average_distance },
    };
    let traced_params = params.clone().with_trace(TraceLevel::Full);
    // Warm the session once so the timed calls take the re-arm path the
    // served pool takes.
    let warm = ws.parse(queries[0]);
    engine
        .try_search_session(&mut session, graph, &warm, &params, &unlimited)
        .map_err(|e| e.to_string())?;
    let mut phase: [Vec<f64>; 7] = Default::default();
    let (mut extract, mut score, mut select) = (Vec::new(), Vec::new(), Vec::new());
    let (mut levels, mut expansions, mut candidates, mut answers) =
        (Vec::new(), Vec::new(), 0.0, 0.0);
    for (i, q) in queries.iter().enumerate() {
        let qid = i as u64 + 1;
        let query = ws.parse(q);
        let root = spans.add("replay.central", Instant::now(), Instant::now(), None, qid);
        let (res, t) = spans.time("central.search", Some(root), qid, || {
            engine.try_search_session(&mut session, graph, &query, &params, &unlimited)
        });
        let outcome = res.map_err(|e| format!("central replay of {q:?}: {e}"))?;
        let p = outcome.profile;
        let parts = [p.init, p.enqueue, p.identify, p.expansion, p.top_down].map(ms);
        phase[0].push(ms(t));
        for (k, v) in parts.iter().enumerate() {
            phase[k + 1].push(*v);
        }
        phase[6].push(ms(t) - parts.iter().sum::<f64>());
        levels.push(outcome.stats.trace.len() as f64);
        candidates += outcome.stats.central_candidates as f64;
        answers += outcome.answers.len() as f64;

        // Top-down (extract, prune and score, select) over the session
        // the search just finished, one stage at a time on this thread.
        let state = session.state();
        let centrals: Vec<(u32, u8)> = (0..graph.num_nodes() as u32)
            .filter_map(|v| state.central_depth(v).map(|d| (v, d)))
            .collect();
        let (extractions, t) = spans.time("top_down.extract", Some(root), qid, || {
            centrals
                .iter()
                .map(|&(c, d)| top_down::extract(graph, &act, state, c, d))
                .collect::<Vec<_>>()
        });
        extract.push(ms(t));
        let (scored, t) = spans.time("top_down.score", Some(root), qid, || {
            extractions
                .iter()
                .map(|e| top_down::prune_and_score(graph, state, e, &params))
                .collect::<Vec<_>>()
        });
        score.push(ms(t));
        let (selected, t) = spans
            .time("top_down.select", Some(root), qid, || top_down::select_top_k(scored, &params));
        select.push(ms(t));
        let key = |a: &central::CentralGraph| AnswerKey {
            central: graph.node_text(a.central).to_string(),
            depth: u64::from(a.depth),
            score_bits: a.score.to_bits(),
            nodes: a.nodes.len() as u64,
            edges: a.edges.len() as u64,
        };
        if selected.iter().map(key).ne(outcome.answers.iter().map(key)) {
            return Err(format!("top-down replay of {q:?} selected other answers than the search"));
        }

        // The same query traced, for the expansion count.
        let (res, _) = spans.time("central.search_traced", Some(root), qid, || {
            engine.try_search_session(&mut session, graph, &query, &traced_params, &unlimited)
        });
        let traced = res.map_err(|e| e.to_string())?;
        expansions.push(traced.trace.map_or(0.0, |t| t.total_expansions as f64));
        spans.close(root);
    }
    let names = ["search", "init", "enqueue", "identify", "expansion", "top_down", "unphased"];
    for (name, values) in names.iter().zip(phase) {
        push(out, &format!("central.{name}_ms"), mean(&values), "ms");
    }
    let levels = mean(&levels);
    push(out, "central.levels", levels, "count");
    push(out, "central.expansions", mean(&expansions), "count");
    push(out, "central.candidates", candidates / queries.len() as f64, "count");
    push(
        out,
        "central.answer_yield",
        if candidates > 0.0 {
            answers / candidates
        } else {
            0.0
        },
        "ratio",
    );
    push(out, "top_down.extract_ms", mean(&extract), "ms");
    push(out, "top_down.score_ms", mean(&score), "ms");
    push(out, "top_down.select_ms", mean(&select), "ms");

    // engine::snapshot / kgraph: compile and open; the traced setup's
    // spawn-to-ready time.
    let scratch = ctx.args.workdir.join("replay.wsnap");
    let mut compile_s = Vec::new();
    for _ in 0..COMPILES {
        let (r, t) =
            spans.time("snapshot.compile", None, 0, || compile_snapshot(ctx.graph, &scratch));
        r?;
        compile_s.push(t.as_secs_f64());
    }
    let mut open_ms = Vec::new();
    for _ in 0..OPENS {
        let (r, t) = spans.time("snapshot.open", None, 0, || {
            WikiSearch::open_snapshot(ctx.snapshot, Backend::ParCpu(2))
        });
        r?;
        open_ms.push(ms(t));
    }
    let _ = std::fs::remove_file(&scratch);
    push(out, "snapshot.compile_s", median(compile_s), "s");
    push(out, "snapshot.open_ms", median(open_ms), "ms");
    let ready: Vec<f64> = ctx
        .setup
        .iter()
        .map(|s| (s.launch.ready - s.launch.spawned).as_secs_f64())
        .collect();
    push(out, "fleet.ready_s", median(ready), "s");
    Ok(levels)
}
