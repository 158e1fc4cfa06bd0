//! `wikisearch serve` — a line-protocol TCP query service, the offline
//! analogue of the paper's hosted WikiSearch endpoint.
//!
//! Protocol: one UTF-8 line per request, one line per response.
//!
//! * `QUERY <keywords…>` → one JSON line with the ranked answers;
//! * `EXPLAIN <keywords…>` → one JSON line with the answers *and* the
//!   full per-level execution trace (`central::QueryTrace`), bypassing
//!   the result cache so the trace reflects a real search. Diagnostic —
//!   does not count toward `--max-requests`;
//! * `PING` → `PONG`;
//! * `STATS` → one JSON line with serving counters: queries served, the
//!   fault/overload counters (`shed`, `timeouts`, `budget_exhausted`,
//!   `panics`, `oversized`, `slow_queries`, `shard_unavailable`), the
//!   engine's metrics counters, latency and expansion percentiles from
//!   the metrics histograms, the session-pool snapshot, the result-cache
//!   snapshot (`null` when the cache is disabled), the
//!   shard-coordinator snapshot (`null` when serving unsharded), and a
//!   `telemetry` object (sampler state, in-flight gauge, query IDs
//!   issued, slowest recent query).
//!   Diagnostic — does not count toward `--max-requests`;
//! * `STATS WINDOW <seconds>` → one JSON line with *windowed* rates and
//!   percentiles over (up to) the last N seconds, computed by
//!   subtracting two periodic telemetry samples — qps, cache hit rate
//!   and last-N-seconds latency/expansion quantiles instead of the
//!   since-boot tail. Needs the background sampler
//!   (`--telemetry-interval-ms`, on by default) and two live samples;
//!   answers a structured error until then. Diagnostic;
//! * `TOP` → one JSON line with the operator's at-a-glance view:
//!   queries in flight right now, qps and cache hit rate over the last
//!   ten seconds (when the sampler has two samples), query IDs issued,
//!   the slowest recently answered query (`{"qid", "wall_ms"}`), and
//!   per-shard breaker gauges under remote serving. Diagnostic;
//! * `METRICS` → the metrics registry in Prometheus text exposition
//!   format — multiple lines, terminated by a literal `# EOF` line so a
//!   line-protocol client knows where the response ends. Diagnostic;
//! * `QUIT` → closes the connection;
//! * anything else — an unknown command, an empty line, a `QUERY` with no
//!   keywords, a line that is not UTF-8, or a line longer than
//!   [`MAX_LINE`] bytes — is answered with a one-line JSON error
//!   (`{"error": …}`) on the same connection; no request is ever
//!   silently dropped and no byte sequence crashes the server.
//!
//! ## Fault isolation
//!
//! The serving path is built so that one misbehaving client cannot take
//! the service down or corrupt another client's answers:
//!
//! * **Deadlines and budgets** — `--timeout-ms` / `--max-expansions`
//!   bound every query via a [`QueryBudget`]; a query that trips its
//!   budget gets a structured JSON error (`deadline_exceeded` /
//!   `budget_exhausted`) and its warm session is reused as usual.
//! * **Panic quarantine** — query execution runs under `catch_unwind`;
//!   a panicking query answers `{"error":"internal"}`, its session is
//!   quarantined by the pool (never recycled), and the worker thread
//!   lives on to serve the next connection.
//! * **Load shedding** — the acceptor hands connections to workers over
//!   a *bounded* queue (`--max-queue`, default 64). When every worker is
//!   busy and the queue is full, a new connection is answered
//!   immediately with `{"error":"overloaded"}` and closed, instead of
//!   queueing without bound.
//! * **Bounded request lines** — request lines are read byte-wise with a
//!   hard [`MAX_LINE`] cap; an over-long line is answered with an error
//!   and discarded up to its newline, so the connection stays usable and
//!   memory stays bounded.
//! * **Bounded writes** — a response write that makes no progress for
//!   [`WRITE_DEADLINE`] (a client that pipelines requests but never reads
//!   its answers) closes that connection, so its worker moves on to the
//!   next one and a drain never waits on it.
//!
//! Connections are handled by a bounded worker pool (`--workers N`,
//! default 4): all workers share one `Arc<WikiSearch>`, so inter-query
//! concurrency composes with the intra-query parallelism of the engine
//! backends — each in-flight query checks a warm session out of the
//! engine's session pool instead of contending on a process-wide lock.
//! `--max-requests N` makes the server drain gracefully after `N`
//! *successful* queries (in-flight connections finish, then the listener
//! closes), which is how the tests and demo scripts drive it.
//!
//! A sharded result cache (see `central::cache`) sits in front of the
//! session pool; `--cache-capacity BYTES` sizes it (suffixes `k`/`m`/`g`
//! accepted, default 64m, `0` disables). Repeated queries — including
//! reorderings, case changes, and stopword variations of one another —
//! are answered from the cache without touching a session. Failed
//! queries never populate it.
//!
//! ## Sharded serving
//!
//! `--shards N` (default 1) partitions the graph into `N` edge-cut
//! shards and answers every query through the scatter-gather
//! coordinator (`central::shard`) instead of a single monolithic
//! session. Answers, traces and error semantics are byte-identical to
//! `--shards 1` (differential-tested); the result cache, budgets,
//! panic quarantine and slow-query log all sit in front of the
//! coordinator unchanged. `STATS` gains a `shards` object and
//! `METRICS` gains `ws_shard_*` series when sharded.
//!
//! ## Query IDs
//!
//! Every `QUERY`/`EXPLAIN` request is assigned a fleet-wide query ID at
//! admission (`u64`, dense from 1) and carries it as `"qid"` in its
//! response — answer documents *and* error documents alike, so a client
//! report ("qid 4812 was slow") joins against the slow-query log, the
//! `EXPLAIN` trace (`trace.qid`), the per-shard timelines of remote
//! serving (the qid rides the frame protocol, Hello-gated), and `TOP`'s
//! slowest-recent view. A cache hit reports its own qid plus
//! `trace.cache_source_qid` — the qid of the query that computed the
//! cached answer.
//!
//! ## Slow-query log
//!
//! `--slow-query-ms N` arms a slow-query log: the server measures its
//! own wall time around each search and a query at or over the
//! threshold appends one JSON line — `{"ts_ms", "qid", "query", "ms",
//! "threshold_ms", "error", "phase_ms", "trace"}` — to the file named
//! by `--slow-query-log` (default `slow_queries.jsonl`). By default the
//! line carries the query ID and the per-phase wall-time profile only
//! (`"trace"` is `null`): the phase profile is measured by every search
//! anyway, so the default log is free of trace allocations.
//! `--slow-query-trace on` additionally runs every query with full
//! tracing so the log line carries the complete per-level execution
//! trace. Tracing never changes answers (differential-tested in the
//! engine), so turning it on is observably free apart from the trace
//! allocations.
//!
//! ## Metrics
//!
//! Every counter and histogram the diagnostic verbs report lives in the
//! engine's one `central::metrics` registry — the engine's query
//! counters and the server's own (`served`, `shed`, `panics`,
//! `oversized`, `slow_queries`) alike — and is declared once there with
//! its keys on every surface. Each diagnostic request reads the live
//! state once into a [`Capture`], and `STATS`, `STATS WINDOW`, `TOP` and
//! `METRICS` are pure renderers of it.
//!
//! ## Windowed telemetry
//!
//! A background sampler publishes one snapshot of the metrics registry
//! every `--telemetry-interval-ms` (default 1000, `0` disables) into a
//! lock-free ring of the last ~5 minutes of samples. `STATS WINDOW N`
//! subtracts the two samples spanning the last N seconds — rates and
//! percentiles *of the window*, not since boot — and `TOP` reads the
//! same ring for its ten-second pulse. Sampling is off the query hot
//! path entirely: queries never write the ring (only the sampler
//! thread does), and a differential proptest pins that telemetry on vs
//! off leaves answers, scores, stats and error classes byte-identical.
//!
//! ## Micro-batched execution
//!
//! `--batch-window-us N` (default 0 = off) arms the engine's
//! micro-batcher (`central::batch`): cache-missing queries arriving
//! within `N` µs of each other — up to `--batch-max` (default 16) — fuse
//! into one multi-query frontier sweep, so one pass over the graph's
//! node space serves every query in the batch. Responses are
//! byte-identical to `--batch-window-us 0` (differential-tested over
//! this very protocol); `STATS` gains a `batch` object and `METRICS`
//! gains `ws_batch_*` series while batching is on. A drain closes any
//! open collection window immediately, so shutdown never waits out a
//! window.
//!
//! ## Remote shard workers
//!
//! `--shard-workers N` forks `N` supervised `wikisearch shard-worker`
//! processes over the same dataset and answers every query through the
//! fault-tolerant remote coordinator (`central::remote`):
//! per-RPC deadlines from the query budget, bounded retry with
//! exponential backoff, heartbeat probes driving a per-shard circuit
//! breaker, and automatic respawn of dead workers. `--shard-addr
//! a,b,…` instead attaches to externally managed workers (no
//! supervision). When a shard stays unreachable past its retry budget a
//! query is refused with `{"error":"shard_unavailable"}` — unless
//! `--degraded-answers true`, in which case the reachable shards answer
//! best-effort and the response is marked `"degraded": true` (degraded
//! answers never populate the cache). `--rpc-timeout-ms`,
//! `--rpc-retries` and `--heartbeat-ms` tune the supervision knobs.
//! `STATS` gains a `remote` object and `METRICS` gains `ws_remote_*`
//! series while remote serving is on.

use crate::args::ParsedArgs;
use central::metrics::{bucket_upper_bound, BUCKETS, COUNTERS, HISTOGRAMS};
use central::remote::BreakerState;
use central::{
    BatchStats, CacheStats, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, PhaseMillis,
    PoolStats, QueryBudget, QueryTrace, RemoteOptions, RemoteStats, ShardedStats, StaticAddrs,
    TelemetrySample, TraceLevel, WindowDelta,
};
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use wikisearch_engine::{Backend, WikiSearch, DEFAULT_TELEMETRY_SAMPLES};

/// How often a blocked worker wakes up to check for drain.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// How long one socket write may make no progress before it fails and
/// the connection is closed: a client that stops reading its answers
/// must not pin a worker (or the drain, which joins every worker)
/// forever. A stalled response can still take a few deadlines to fail
/// when the peer's kernel frees buffer space in bursts.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// The window `TOP` reports its rates over, in seconds.
const TOP_WINDOW_S: u64 = 10;

/// Hard cap on one request line (bytes, newline excluded). Long enough
/// for any sane keyword query; short enough that a hostile client cannot
/// grow a worker's buffer without bound.
pub(crate) const MAX_LINE: usize = 64 * 1024;

/// The armed slow-query log: a threshold and an append-mode file handle.
struct SlowLog {
    /// Queries taking at least this many wall-clock milliseconds
    /// (measured by the server around the whole search) are logged.
    threshold_ms: u64,
    /// Whether queries run fully traced so the log line can carry the
    /// per-level execution trace (`--slow-query-trace on`). Off by
    /// default: the line then carries the qid and the per-phase profile,
    /// which every search measures anyway.
    traced: bool,
    /// Appended one JSON line per slow query; the mutex serializes
    /// writers so lines never interleave.
    file: Mutex<std::fs::File>,
}

impl SlowLog {
    /// Open (append/create) the log file.
    fn open(path: &str, threshold_ms: u64, traced: bool) -> Result<SlowLog, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("--slow-query-log {path}: {e}"))?;
        Ok(SlowLog { threshold_ms, traced, file: Mutex::new(file) })
    }

    /// Append one line for `answer` if it crossed the threshold.
    fn maybe_log(&self, q: &str, answer: &Answer, metrics: &MetricsRegistry) {
        if answer.wall_ms < self.threshold_ms as f64 {
            return;
        }
        metrics.slow_queries.inc();
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let doc = json!({
            "ts_ms": ts_ms,
            "qid": answer.qid,
            "query": q,
            "ms": answer.wall_ms,
            "threshold_ms": self.threshold_ms,
            "error": answer.error,
            "phase_ms": answer.phase_ms.as_ref().map(serde_json::to_value),
            "trace": answer.trace.as_deref().map(serde_json::to_value),
        });
        let mut file = self.file.lock();
        let _ = writeln!(file, "{doc}");
    }
}

/// Static identity of this serving process, surfaced as the
/// `ws_build_info` info-gauge and the `ws_uptime_seconds` gauge.
struct ServeInfo {
    /// Crate version (`CARGO_PKG_VERSION`).
    version: &'static str,
    /// The backend flag as the operator spelled it (`seq`, `cpu`, …).
    backend: String,
    /// Shards served (remote workers, in-process shards, or 1).
    shards: usize,
    /// When the server started, for `ws_uptime_seconds`.
    started: Instant,
}

/// Everything a worker needs to serve connections, shared by reference
/// across the pool.
struct Shared<'a> {
    ws: &'a WikiSearch,
    budget: QueryBudget,
    max_requests: usize,
    draining: &'a AtomicBool,
    addr: SocketAddr,
    /// `Some` when `--slow-query-ms` armed the slow-query log.
    slow: Option<SlowLog>,
    /// `Some` when `--shard-workers` forked a supervised worker fleet;
    /// surfaces live PIDs and the respawn count on `STATS`.
    supervisor: Option<&'a crate::supervisor::Supervisor>,
    /// Build/runtime identity for `METRICS`.
    info: ServeInfo,
}

/// Run the server until `max_requests` queries have been answered (or
/// forever when it is 0).
pub fn serve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(&[
        "graph",
        "mmap",
        "port",
        "backend",
        "threads",
        "top-k",
        "max-requests",
        "workers",
        "cache-capacity",
        "timeout-ms",
        "max-expansions",
        "max-queue",
        "slow-query-ms",
        "slow-query-log",
        "slow-query-trace",
        "telemetry-interval-ms",
        "shards",
        "batch-window-us",
        "batch-max",
        "shard-workers",
        "shard-addr",
        "degraded-answers",
        "rpc-timeout-ms",
        "rpc-retries",
        "heartbeat-ms",
    ])?;
    let port: u16 = args.get_or("port", 7878)?;
    let threads: usize = args.get_or("threads", 4)?;
    let shards: usize = args.get_or("shards", 1)?;
    let max_requests: usize = args.get_or("max-requests", 0)?;
    let workers: usize = args.get_or("workers", 4)?;
    let cache_capacity = args.get_bytes("cache-capacity", 64 << 20)?;
    let timeout_ms: u64 = args.get_or("timeout-ms", 0)?;
    let max_expansions: u64 = args.get_or("max-expansions", 0)?;
    let max_queue: usize = args.get_or("max-queue", 64)?;
    let slow_query_ms: u64 = args.get_or("slow-query-ms", 0)?;
    let telemetry_interval_ms: u64 = args.get_or("telemetry-interval-ms", 1000)?;
    let slow_query_trace = match args.optional("slow-query-trace").unwrap_or("off") {
        "off" => false,
        "on" => true,
        other => return Err(format!("--slow-query-trace must be `off` or `on`, got {other:?}")),
    };
    let batch_window_us: u64 = args.get_or("batch-window-us", 0)?;
    let batch_max: usize = args.get_or("batch-max", 16)?;
    let shard_workers: usize = args.get_or("shard-workers", 0)?;
    let shard_addr = args.optional("shard-addr");
    let degraded_answers: bool = args.get_or("degraded-answers", false)?;
    let rpc_timeout_ms: u64 = args.get_or("rpc-timeout-ms", 5000)?;
    let rpc_retries: u32 = args.get_or("rpc-retries", 3)?;
    let heartbeat_ms: u64 = args.get_or("heartbeat-ms", 1000)?;
    if workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    if max_queue == 0 {
        return Err("--max-queue must be >= 1".into());
    }
    if !(1..=central::MAX_BATCH_LANES).contains(&batch_max) {
        return Err(format!("--batch-max must be in 1..={}", central::MAX_BATCH_LANES));
    }
    if slow_query_ms == 0 && args.optional("slow-query-log").is_some() {
        return Err("--slow-query-log requires --slow-query-ms N (N >= 1)".into());
    }
    if slow_query_ms == 0 && args.optional("slow-query-trace").is_some() {
        return Err("--slow-query-trace requires --slow-query-ms N (N >= 1)".into());
    }
    let remote = shard_workers > 0 || shard_addr.is_some();
    if shard_workers > 0 && shard_addr.is_some() {
        return Err("--shard-workers and --shard-addr are mutually exclusive".into());
    }
    if remote && shards > 1 {
        return Err(
            "remote shard serving replaces --shards; drop --shards or the remote flags".into()
        );
    }
    if remote && batch_window_us > 0 {
        return Err("--batch-window-us is not supported with remote shard serving".into());
    }
    if !remote {
        for flag in ["degraded-answers", "rpc-timeout-ms", "rpc-retries", "heartbeat-ms"] {
            if args.optional(flag).is_some() {
                return Err(format!(
                    "--{flag} requires remote shard serving (--shard-workers or --shard-addr)"
                ));
            }
        }
    }
    if remote && rpc_timeout_ms == 0 {
        return Err("--rpc-timeout-ms must be >= 1".into());
    }
    if remote && rpc_retries == 0 {
        return Err("--rpc-retries must be >= 1".into());
    }
    let slow = if slow_query_ms > 0 {
        let path = args.optional("slow-query-log").unwrap_or("slow_queries.jsonl");
        Some(SlowLog::open(path, slow_query_ms, slow_query_trace)?)
    } else {
        None
    };
    let mut budget = QueryBudget::unlimited();
    if timeout_ms > 0 {
        budget = budget.with_timeout(Duration::from_millis(timeout_ms));
    }
    if max_expansions > 0 {
        budget = budget.with_max_expansions(max_expansions);
    }
    let backend = Backend::parse(args.optional("backend").unwrap_or("cpu"), threads)?;
    let mut ws = crate::commands::open_engine(args, backend, shards)?;
    let mut params = ws.params().clone();
    params.top_k = args.get_or("top-k", params.top_k)?;
    ws.set_params(params);
    ws.set_cache_capacity(cache_capacity);
    ws.set_batching(Duration::from_micros(batch_window_us), batch_max);
    ws.set_telemetry(telemetry_interval_ms, DEFAULT_TELEMETRY_SAMPLES);
    let remote_opts = RemoteOptions {
        rpc_timeout: Duration::from_millis(rpc_timeout_ms),
        attempts: rpc_retries,
        heartbeat: if heartbeat_ms > 0 {
            Some(Duration::from_millis(heartbeat_ms))
        } else {
            None
        },
        degraded_answers,
        ..RemoteOptions::default()
    };
    let supervisor = if shard_workers > 0 {
        let source = if let Some(path) = args.optional("mmap") {
            ("--mmap".to_string(), path.to_string())
        } else {
            ("--graph".to_string(), args.required("graph")?.to_string())
        };
        let sup = crate::supervisor::Supervisor::launch(source, shard_workers)?;
        ws.set_remote_shards(shard_workers, sup.addrs(), remote_opts);
        Some(sup)
    } else if let Some(list) = shard_addr {
        let addrs: Vec<SocketAddr> = list
            .split(',')
            .map(|a| a.trim().parse::<SocketAddr>().map_err(|e| format!("--shard-addr {a:?}: {e}")))
            .collect::<Result<_, _>>()?;
        if addrs.is_empty() {
            return Err("--shard-addr needs at least one address".into());
        }
        let n = addrs.len();
        ws.set_remote_shards(n, Arc::new(StaticAddrs(addrs)), remote_opts);
        None
    } else {
        None
    };
    let ws = Arc::new(ws);

    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let sharding = if let Some(n) = ws.num_remote_shards() {
        let how = if supervisor.is_some() {
            "supervised"
        } else {
            "attached"
        };
        let policy = if degraded_answers {
            ", degraded-answers"
        } else {
            ""
        };
        format!(", {n} remote shards ({how}){policy}")
    } else {
        match ws.num_shards() {
            Some(n) => format!(", {n} shards"),
            None => String::new(),
        }
    };
    let backing = if ws.is_memory_mapped() {
        ", mmap-backed"
    } else {
        ""
    };
    let batching = if batch_window_us > 0 {
        format!(", batching {batch_window_us}us x{batch_max}")
    } else {
        String::new()
    };
    writeln!(
        out,
        "wikisearch serving on 127.0.0.1:{} ({} nodes indexed, {workers} \
         workers{sharding}{backing}{batching})",
        addr.port(),
        ws.graph().num_nodes()
    )
    .map_err(|e| e.to_string())?;

    let draining = AtomicBool::new(false);
    // The background sampler: one metrics snapshot per interval into the
    // telemetry ring, entirely off the query path. It stops (promptly —
    // it sleeps in DRAIN_POLL ticks) once serving ends.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler = (telemetry_interval_ms > 0).then(|| {
        let ws = Arc::clone(&ws);
        let stop = Arc::clone(&sampler_stop);
        std::thread::spawn(move || run_sampler(&ws, &stop))
    });
    let shared = Shared {
        ws: &ws,
        budget,
        max_requests,
        draining: &draining,
        addr,
        slow,
        supervisor: supervisor.as_ref(),
        info: ServeInfo {
            version: env!("CARGO_PKG_VERSION"),
            backend: args.optional("backend").unwrap_or("cpu").to_string(),
            shards: ws.num_remote_shards().or(ws.num_shards()).unwrap_or(1),
            started: Instant::now(),
        },
    };
    let accept_error = accept_loop(&listener, &shared, workers, max_queue);

    sampler_stop.store(true, Ordering::SeqCst);
    if let Some(handle) = sampler {
        let _ = handle.join();
    }
    if let Some(e) = accept_error {
        return Err(e);
    }
    writeln!(out, "served {} queries, shutting down", ws.metrics().served.get())
        .map_err(|e| e.to_string())
}

/// The background sampler loop: publish one [`TelemetrySample`] (a
/// monotonic timestamp and the full metrics snapshot) per
/// `--telemetry-interval-ms` into the engine's telemetry ring. Sleeps in
/// [`DRAIN_POLL`] ticks so shutdown never waits out a long interval;
/// publishes a boot sample immediately so `STATS WINDOW` has a
/// subtraction base one interval in.
fn run_sampler(ws: &WikiSearch, stop: &AtomicBool) {
    let telemetry = ws.telemetry();
    let interval = Duration::from_millis(telemetry.interval_ms.max(1));
    let started = Instant::now();
    let sample = || TelemetrySample {
        t_us: started.elapsed().as_micros() as u64,
        snapshot: ws.metrics_snapshot(),
    };
    telemetry.record_sample(&sample());
    let mut due = interval;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(DRAIN_POLL.min(interval));
        if started.elapsed() < due {
            continue;
        }
        telemetry.record_sample(&sample());
        due = started.elapsed() + interval;
    }
}

/// The serving loop: each accepted connection is owned by one worker
/// until its peer quits or the server drains.
fn accept_loop(
    listener: &TcpListener,
    shared: &Shared<'_>,
    workers: usize,
    max_queue: usize,
) -> Option<String> {
    // Bounded handoff queue: when it is full, new connections are shed
    // instead of queueing without limit.
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(max_queue);
    // parking_lot::Mutex does not poison: a worker that panics while
    // dequeuing (it cannot — but the type guarantees it) would not wedge
    // the other workers' receiver access.
    let rx = Mutex::new(rx);
    let mut accept_error = None;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = &rx;
            scope.spawn(move || loop {
                // Hold the receiver lock only while dequeuing, so idle
                // workers take turns; a closed channel means the acceptor
                // is done and the queue is drained.
                let next = rx.lock().recv();
                let Ok(stream) = next else { break };
                handle_connection(stream, shared);
            });
        }
        for stream in listener.incoming() {
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    accept_error = Some(format!("accept: {e}"));
                    break;
                }
            };
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => shed(stream, shared.ws.metrics()),
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        // Closing the channel lets workers finish queued connections and
        // exit; the scope joins them before returning.
        drop(tx);
    });
    accept_error
}

/// Refuse one connection because every worker is busy and the queue is
/// full: one `overloaded` line, then close. The client learns
/// immediately instead of waiting in an unbounded backlog.
fn shed(mut stream: TcpStream, metrics: &MetricsRegistry) {
    metrics.shed.inc();
    let _ =
        writeln!(stream, r#"{{"error":"overloaded","detail":"request queue full, retry later"}}"#);
}

/// How one attempt to read a request line ended.
enum LineRead {
    /// A complete line (newline stripped), within the size cap.
    Line(Vec<u8>),
    /// The line exceeded [`MAX_LINE`]; its remainder was discarded up to
    /// the newline, so the connection is resynchronized.
    Oversized,
    /// Clean EOF, drain, or a connection error — stop serving this peer.
    Closed,
}

/// Read one `\n`-terminated request line, byte-wise and bounded.
///
/// Reads through the connection's [`DRAIN_POLL`] timeout (so a worker
/// notices a drain while its client idles) and enforces [`MAX_LINE`]
/// *during* accumulation — a client streaming an endless line costs a
/// bounded buffer, not memory proportional to what it sends: past the
/// cap, bytes are dropped up to the newline so the next request starts
/// clean.
fn read_request_line(reader: &mut BufReader<TcpStream>, draining: &AtomicBool) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let available = match reader.fill_buf() {
            // EOF: a non-empty unterminated tail still gets answered.
            Ok([]) if buf.is_empty() || oversized => return LineRead::Closed,
            Ok([]) => return LineRead::Line(buf),
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if draining.load(Ordering::SeqCst) {
                    return LineRead::Closed;
                }
                continue;
            }
            Err(_) => return LineRead::Closed,
        };
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        if !oversized {
            buf.extend_from_slice(&available[..take]);
            oversized = buf.len() > MAX_LINE;
        }
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return if oversized {
                LineRead::Oversized
            } else {
                LineRead::Line(buf)
            };
        }
    }
}

/// Whether a connection should keep being served after one request.
enum Served {
    /// The request was answered (or skipped); the connection lives on.
    Continue,
    /// QUIT, EOF, a write failure, a drain, or `--max-requests` reached —
    /// stop serving this peer.
    Close,
}

/// Serve one connection until the peer quits, hangs up, or the server
/// drains.
fn handle_connection(stream: TcpStream, shared: &Shared<'_>) {
    // A finite read timeout lets the worker notice a drain even while its
    // client sits idle on an open connection; a finite write timeout
    // turns a client that never reads into a failed write (and a closed
    // connection) instead of a worker blocked forever.
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    let Ok(peer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer);
    let mut writer = stream;
    while let Served::Continue = serve_one_request(&mut reader, &mut writer, shared) {}
}

/// Read and answer exactly one request line. Increments `served` per
/// successful query; the query that reaches `max_requests` flips
/// `draining`, closes any open batch-collection window, and dials the
/// listener once to wake the blocked acceptor.
fn serve_one_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared<'_>,
) -> Served {
    let ws = shared.ws;
    let raw = match read_request_line(reader, shared.draining) {
        LineRead::Line(raw) => raw,
        LineRead::Oversized => {
            ws.metrics().oversized.inc();
            let doc = format!(
                r#"{{"error":"oversized line","detail":"request lines are capped at {MAX_LINE} bytes"}}"#
            );
            return keep_serving(writeln!(writer, "{doc}"), false);
        }
        LineRead::Closed => return Served::Close,
    };
    let Ok(line) = String::from_utf8(raw) else {
        return keep_serving(writeln!(writer, r#"{{"error":"invalid utf-8"}}"#), false);
    };
    let request = line.trim();
    if request.eq_ignore_ascii_case("QUIT") {
        return Served::Close;
    }
    let capture = |window_s| Capture::take(ws, shared.supervisor, &shared.info, window_s);
    let mut done = false;
    let written = if request.eq_ignore_ascii_case("PING") {
        writeln!(writer, "PONG")
    } else if request.eq_ignore_ascii_case("STATS") {
        writeln!(writer, "{}", stats_document(&capture(None)))
    } else if request.eq_ignore_ascii_case("TOP") {
        writeln!(writer, "{}", top_document(&capture(Some(TOP_WINDOW_S))))
    } else if let Some(rest) = verb_rest(request, "STATS") {
        // Plain `STATS` matched above; this is `STATS <something>` —
        // only `STATS WINDOW <seconds>` is in the grammar.
        let doc = match stats_window_seconds(rest) {
            Ok(secs) => window_document(&capture(Some(secs)), secs),
            Err(msg) => json!({ "error": msg }),
        };
        writeln!(writer, "{doc}")
    } else if request.eq_ignore_ascii_case("METRICS") {
        writer.write_all(metrics_exposition(&capture(None)).as_bytes())
    } else if let Some((keywords, mode)) = verb_rest(request, "EXPLAIN")
        .map(|k| (k, Mode::Explain))
        .or_else(|| query_keywords(request).map(|k| (k, Mode::Query)))
    {
        if keywords.is_empty() {
            writeln!(writer, r#"{{"error":"empty query"}}"#)
        } else {
            // Admission: the query's fleet-wide ID is allocated before
            // anything can fail, so even error documents carry it.
            let qid = ws.issue_query_id();
            let mode = match &shared.slow {
                Some(slow) if slow.traced && mode == Mode::Query => Mode::TracedQuery,
                _ => mode,
            };
            let answer = answer_query(ws, keywords, &shared.budget, mode, qid);
            if mode != Mode::Explain {
                if let Some(slow) = &shared.slow {
                    slow.maybe_log(keywords, &answer, ws.metrics());
                }
                if answer.succeeded {
                    let n = ws.metrics().served.inc() as usize;
                    if shared.max_requests > 0
                        && n >= shared.max_requests
                        && !shared.draining.swap(true, Ordering::SeqCst)
                    {
                        // Close any open batch window so co-batched peers
                        // get their answers now instead of waiting out the
                        // timer, then wake the acceptor blocked in
                        // accept() so it can observe the drain; the
                        // throwaway connection is dropped by whichever
                        // worker receives it.
                        ws.flush_batches();
                        let _ = TcpStream::connect(shared.addr);
                        done = true;
                    }
                }
            }
            writeln!(writer, "{}", answer.doc)
        }
    } else {
        writeln!(
            writer,
            r#"{{"error":"expected QUERY/EXPLAIN/PING/STATS/STATS WINDOW/TOP/METRICS/QUIT"}}"#
        )
    };
    keep_serving(written, done)
}

/// Whether to keep serving a connection after one response write.
fn keep_serving(written: std::io::Result<()>, done: bool) -> Served {
    if written.is_err() || done {
        Served::Close
    } else {
        Served::Continue
    }
}

/// The argument part of a `<VERB> …` request, or `None` if the line does
/// not start with that verb followed by whitespace (or end-of-line).
/// `"QUERYX xml"` is an unknown command, not a `QUERY`.
fn verb_rest<'a>(request: &'a str, verb: &str) -> Option<&'a str> {
    let rest = request.strip_prefix(verb)?;
    if !rest.is_empty() && !rest.starts_with(char::is_whitespace) {
        return None;
    }
    Some(rest.trim())
}

/// The keyword part of a `QUERY …` request, or `None` if the line is not
/// a QUERY at all. `QUERY` with nothing after it parses as an empty
/// keyword list (answered with an error, not ignored).
fn query_keywords(request: &str) -> Option<&str> {
    verb_rest(request, "QUERY")
}

/// Parse the tail of a `STATS …` request as `WINDOW <seconds>`. The
/// grammar is strict: exactly one argument, a positive integer.
fn stats_window_seconds(rest: &str) -> Result<u64, &'static str> {
    let grammar = "expected STATS WINDOW <seconds>";
    let secs = verb_rest(rest, "WINDOW").ok_or(grammar)?;
    match secs.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("STATS WINDOW takes a whole number of seconds >= 1"),
    }
}

/// One read of everything the diagnostic verbs report, taken once per
/// request; `STATS`, `STATS WINDOW`, `TOP` and `METRICS` render it
/// without touching the live engine.
struct Capture<'a> {
    metrics: MetricsSnapshot,
    pool: PoolStats,
    cache: Option<CacheStats>,
    shards: Option<ShardedStats>,
    batch: Option<BatchStats>,
    remote: Option<RemoteStats>,
    /// Per-shard breaker states under remote serving.
    breakers: Option<Vec<BreakerState>>,
    /// The windowed delta the verb asked for (`STATS WINDOW`, `TOP`);
    /// `None` until the sampler has published two samples.
    window: Option<WindowDelta>,
    telemetry: Gauges,
    /// The supervised worker fleet's live PIDs and respawn count.
    workers: Option<(Vec<u32>, u64)>,
    memory_mapped: bool,
    info: &'a ServeInfo,
    uptime_s: f64,
}

/// The telemetry hub's gauges.
struct Gauges {
    /// Sampler period in milliseconds (0 = disabled).
    interval_ms: u64,
    /// Periodic samples published so far.
    samples: u64,
    /// Sample-ring capacity (slots).
    capacity: u64,
    /// Queries executing right now.
    in_flight: u64,
    /// Fleet-wide query IDs issued.
    qids_issued: u64,
    /// The slowest recently answered query, as `(qid, wall_us)`.
    slowest_recent: Option<(u64, u64)>,
}

impl<'a> Capture<'a> {
    /// Read the live state once; `window_s` asks for the windowed delta
    /// over (up to) that many seconds.
    fn take(
        ws: &WikiSearch,
        supervisor: Option<&crate::supervisor::Supervisor>,
        info: &'a ServeInfo,
        window_s: Option<u64>,
    ) -> Capture<'a> {
        let telemetry = ws.telemetry();
        Capture {
            metrics: ws.metrics_snapshot(),
            pool: ws.session_pool().stats(),
            cache: ws.cache_stats(),
            shards: ws.shard_stats(),
            batch: ws.batch_stats(),
            remote: ws.remote_stats(),
            breakers: ws.remote_breaker_states(),
            window: window_s.and_then(|secs| telemetry.window(secs.saturating_mul(1_000_000))),
            telemetry: Gauges {
                interval_ms: telemetry.interval_ms,
                samples: telemetry.samples(),
                capacity: telemetry.capacity() as u64,
                in_flight: telemetry.in_flight().current(),
                qids_issued: ws.query_ids_issued(),
                slowest_recent: telemetry.slowest_recent(),
            },
            workers: supervisor.map(|sup| (sup.pids(), sup.respawns())),
            memory_mapped: ws.is_memory_mapped(),
            info,
            uptime_s: info.started.elapsed().as_secs_f64(),
        }
    }
}

/// A JSON object from `(key, value)` entries, in order.
fn object<'k>(entries: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The `{count, mean, p50, p95, p99}` block of one histogram. With
/// `millis`, microsecond observations are reported in milliseconds under
/// `_ms` keys.
fn quantiles(h: &HistogramSnapshot, millis: bool) -> Value {
    let suffix = if millis { "_ms" } else { "" };
    let mean = if millis {
        json!(h.mean() / 1e3)
    } else {
        json!(h.mean())
    };
    let mut doc = vec![("count".to_owned(), json!(h.count)), (format!("mean{suffix}"), mean)];
    for (key, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        let v = h.percentile(p);
        let v = if millis {
            json!(v as f64 / 1e3)
        } else {
            json!(v)
        };
        doc.push((format!("{key}{suffix}"), v));
    }
    Value::Object(doc)
}

/// The `{qid, wall_ms}` of the slowest recently answered query, or null.
fn slowest_recent(t: &Gauges) -> Value {
    t.slowest_recent.map_or(
        Value::Null,
        |(qid, wall_us)| json!({ "qid": qid, "wall_ms": wall_us as f64 / 1e3 }),
    )
}

/// The registry's histograms as `STATS`-style percentile blocks.
fn histogram_blocks(m: &MetricsSnapshot) -> impl Iterator<Item = (&'static str, Value)> + '_ {
    HISTOGRAMS
        .iter()
        .zip(m.histograms())
        .map(|(s, h)| (s.stats, quantiles(h, s.micros)))
}

/// One `STATS` response line: the registry's counters (server counters
/// at the top level, engine counters in `engine`) and percentile blocks,
/// then the pool, cache, shard, batch, remote and telemetry snapshots.
/// `cache` is null when `--cache-capacity 0`, `shards` when serving
/// unsharded, `batch` when batching is off, `remote` without remote
/// workers.
fn stats_document(c: &Capture<'_>) -> Value {
    let mut doc = vec![("memory_mapped", json!(c.memory_mapped))];
    let mut engine = Vec::new();
    for (series, value) in COUNTERS.iter().zip(c.metrics.counters()) {
        for key in series.stats {
            match key.strip_prefix("engine.") {
                Some(key) => engine.push((key, json!(value))),
                None => doc.push((key, json!(value))),
            }
        }
    }
    doc.push(("engine", object(engine)));
    doc.extend(histogram_blocks(&c.metrics));
    doc.extend([
        ("pool", serde_json::to_value(&c.pool)),
        ("cache", serde_json::to_value(&c.cache)),
        ("shards", serde_json::to_value(&c.shards)),
        ("batch", c.batch.as_ref().map_or(Value::Null, batch_block)),
        ("remote", c.remote.as_ref().map_or(Value::Null, |r| remote_block(r, &c.workers))),
        (
            "telemetry",
            object([
                ("interval_ms", json!(c.telemetry.interval_ms)),
                ("samples", json!(c.telemetry.samples)),
                ("capacity", json!(c.telemetry.capacity)),
                ("in_flight", json!(c.telemetry.in_flight)),
                ("qids_issued", json!(c.telemetry.qids_issued)),
                ("slowest_recent", slowest_recent(&c.telemetry)),
            ]),
        ),
    ]);
    object(doc)
}

/// One `STATS WINDOW <seconds>` response line: counters, rates and
/// latency/expansion percentiles *of the window* — the newest telemetry
/// sample minus the newest sample at least that much older. A structured
/// error until the sampler has published two samples.
fn window_document(c: &Capture<'_>, secs: u64) -> Value {
    let Some(w) = &c.window else {
        return json!({
            "error": "window unavailable",
            "detail": "the windowed view needs two telemetry samples; \
                       is --telemetry-interval-ms > 0?",
        });
    };
    let mut doc = vec![
        ("window_s", json!(secs)),
        ("span_ms", json!(w.span_us as f64 / 1e3)),
        ("samples", json!(w.samples as u64)),
    ];
    for (series, value) in COUNTERS.iter().zip(w.delta.counters()) {
        if series.window {
            doc.push((series.name, json!(value)));
        }
        // The wire places each rate right after one of the counters.
        match series.name {
            "served" => doc.push(("qps", json!(w.qps()))),
            "cache_misses" => doc.push(("cache_hit_rate", json!(w.cache_hit_rate()))),
            _ => {}
        }
    }
    doc.extend(histogram_blocks(&w.delta));
    object(doc)
}

/// One `TOP` response line: the operator's at-a-glance view. `qps` and
/// `cache_hit_rate` cover the last ten seconds and are null until the
/// sampler has two samples; `slowest_recent` is null until a query has
/// been answered; `breakers` is null without remote serving (gauge
/// values: 0 closed, 1 half-open, 2 open).
fn top_document(c: &Capture<'_>) -> Value {
    let mut doc = vec![("in_flight", json!(c.telemetry.in_flight))];
    for (series, value) in COUNTERS.iter().zip(c.metrics.counters()) {
        if series.top {
            doc.push((series.name, json!(value)));
        }
    }
    let w = c.window.as_ref();
    doc.extend([
        ("qids_issued", json!(c.telemetry.qids_issued)),
        ("samples", json!(c.telemetry.samples)),
        ("qps", w.map_or(Value::Null, |w| json!(w.qps()))),
        ("cache_hit_rate", w.map_or(Value::Null, |w| json!(w.cache_hit_rate()))),
        ("slowest_recent", slowest_recent(&c.telemetry)),
        (
            "breakers",
            c.breakers.as_ref().map_or(Value::Null, |states| {
                json!(states.iter().map(|s| s.gauge()).collect::<Vec<f64>>())
            }),
        ),
    ]);
    object(doc)
}

/// The `remote` object of the `STATS` line: the remote coordinator's
/// counters, per-shard breaker states, RPC latency percentiles, and —
/// under `--shard-workers` — the supervised fleet's live PIDs and
/// respawn count.
fn remote_block(r: &RemoteStats, workers: &Option<(Vec<u32>, u64)>) -> Value {
    object([
        ("shards", json!(r.shards)),
        ("rpcs", json!(r.rpcs)),
        ("dials", json!(r.dials)),
        ("retries", json!(r.retries)),
        ("probes", json!(r.probes)),
        ("probe_failures", json!(r.probe_failures)),
        ("breaker_opens", json!(r.breaker_opens)),
        ("degraded_queries", json!(r.degraded_queries)),
        ("rounds", json!(r.rounds)),
        ("notifications", json!(r.notifications)),
        ("notifications_suppressed", json!(r.notifications_suppressed)),
        ("breaker", json!(r.breaker)),
        ("rpc_latency_us", quantiles(&r.rpc_latency_us, false)),
        (
            "workers",
            workers.as_ref().map_or(
                Value::Null,
                |(pids, respawns)| json!({ "pids": pids, "respawns": respawns }),
            ),
        ),
    ])
}

/// The `batch` object of the `STATS` line: the batcher's counters plus
/// size and fill-time percentiles.
fn batch_block(b: &BatchStats) -> Value {
    object([
        ("window_us", json!(b.window_us)),
        ("max_batch", json!(b.max_batch)),
        ("batches", json!(b.batches)),
        ("queries", json!(b.queries)),
        ("enqueued", json!(b.enqueued)),
        ("delivered", json!(b.delivered)),
        ("size", quantiles(&b.size, false)),
        ("fill_us", quantiles(&b.fill_us, false)),
    ])
}

/// One Prometheus metric family's samples.
enum Family<'a> {
    /// A monotone counter.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(f64),
    /// A gauge with one sample per `(label-body, value)` entry. The label
    /// body goes inside the braces verbatim (e.g. `shard="0"`), so callers
    /// are responsible for escaping label values.
    Labeled(Vec<(String, f64)>),
    /// A histogram whose observations are multiplied by the given scale
    /// (e.g. `1e-6` to expose microseconds in seconds).
    Histogram(&'a HistogramSnapshot, f64),
}

/// Append one family in Prometheus text exposition format: `# HELP`,
/// `# TYPE`, then its samples — a histogram as cumulative
/// `_bucket{le="…"}` samples (only buckets that received observations,
/// plus the mandatory `le="+Inf"`), `_sum`, and `_count`. Metric names
/// must match `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prometheus(out: &mut String, name: &str, help: &str, family: Family<'_>) {
    let kind = match family {
        Family::Counter(_) => "counter",
        Family::Gauge(_) | Family::Labeled(_) => "gauge",
        Family::Histogram(..) => "histogram",
    };
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    match family {
        Family::Counter(value) => {
            let _ = writeln!(out, "{name} {value}");
        }
        Family::Gauge(value) => {
            let _ = writeln!(out, "{name} {value}");
        }
        Family::Labeled(samples) => {
            for (labels, value) in samples {
                let _ = writeln!(out, "{name}{{{labels}}} {value}");
            }
        }
        Family::Histogram(h, scale) => {
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 || i >= BUCKETS - 1 {
                    continue; // the unbounded last bucket folds into +Inf
                }
                cumulative += c;
                let le = bucket_upper_bound(i) as f64 * scale;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum as f64 * scale);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
    }
}

/// A table of `METRICS` families read off one stats value `T`:
/// `(name, help, value)`, in exposition order.
type Families<T> = &'static [(&'static str, &'static str, fn(&T) -> Family<'_>)];

#[rustfmt::skip]
const POOL_FAMILIES: Families<PoolStats> = &[
    ("ws_pool_queries_total", "Queries completed through pooled sessions.",
        |p| Family::Counter(p.queries_run)),
    ("ws_pool_sessions_created", "Sessions ever created (concurrency peak).",
        |p| Family::Gauge(p.sessions_created as f64)),
    ("ws_pool_idle_sessions", "Sessions idle in the freelist.",
        |p| Family::Gauge(p.idle_sessions as f64)),
    ("ws_pool_in_flight", "Sessions currently checked out.", |p| Family::Gauge(p.in_flight as f64)),
    ("ws_pool_quarantined_total", "Sessions destroyed after a panic.",
        |p| Family::Counter(p.quarantined)),
];

#[rustfmt::skip]
const CACHE_FAMILIES: Families<CacheStats> = &[
    ("ws_cache_lookups_total", "Result-cache gets.", |c| Family::Counter(c.lookups)),
    ("ws_cache_evictions_total", "Result-cache evictions.", |c| Family::Counter(c.evictions)),
    ("ws_cache_entries", "Result-cache entries resident.", |c| Family::Gauge(c.entries as f64)),
    ("ws_cache_bytes", "Result-cache bytes resident (estimate).",
        |c| Family::Gauge(c.bytes as f64)),
];

#[rustfmt::skip]
const SHARD_FAMILIES: Families<ShardedStats> = &[
    ("ws_shard_count", "Graph shards in the scatter-gather plan.",
        |s| Family::Gauge(s.shards as f64)),
    ("ws_shard_rounds_total", "Cross-shard frontier-exchange rounds.",
        |s| Family::Counter(s.rounds)),
    ("ws_shard_notifications_total", "Boundary hit notifications broadcast to replica holders.",
        |s| Family::Counter(s.notifications)),
    ("ws_shard_notifications_suppressed_total",
        "Duplicate boundary notifications pruned before broadcast.",
        |s| Family::Counter(s.notifications_suppressed)),
    ("ws_shard_pool_queries_total", "Per-shard session checkouts (shards x sharded queries).",
        |s| Family::Counter(s.pools.queries_run)),
    ("ws_shard_pool_quarantined_total", "Shard sessions destroyed after a panic.",
        |s| Family::Counter(s.pools.quarantined)),
];

#[rustfmt::skip]
const BATCH_FAMILIES: Families<BatchStats> = &[
    ("ws_batch_batches_total", "Micro-batches executed (a solo run counts as a batch of one).",
        |b| Family::Counter(b.batches)),
    ("ws_batch_queries_total", "Queries fused into micro-batches.",
        |b| Family::Counter(b.queries)),
    ("ws_batch_enqueued_total", "Queries submitted to the micro-batcher.",
        |b| Family::Counter(b.enqueued)),
    ("ws_batch_delivered_total", "Outcomes demultiplexed back to submitters.",
        |b| Family::Counter(b.delivered)),
    ("ws_batch_size", "Queries per executed micro-batch.", |b| Family::Histogram(&b.size, 1.0)),
    ("ws_batch_fill_seconds", "Collection-window fill time per batch.",
        |b| Family::Histogram(&b.fill_us, 1e-6)),
];

#[rustfmt::skip]
const REMOTE_FAMILIES: Families<RemoteStats> = &[
    ("ws_remote_shards", "Remote shard workers behind the coordinator.",
        |r| Family::Gauge(r.shards as f64)),
    ("ws_remote_rpcs_total", "RPCs issued to remote shard workers (queries, handshakes, probes).",
        |r| Family::Counter(r.rpcs)),
    ("ws_remote_dials_total", "Fresh worker connections dialed (including respawn re-dials).",
        |r| Family::Counter(r.dials)),
    ("ws_remote_retries_total", "Whole-query retries after a shard RPC failure.",
        |r| Family::Counter(r.retries)),
    ("ws_remote_probes_total", "Out-of-band health probes sent to workers.",
        |r| Family::Counter(r.probes)),
    ("ws_remote_probe_failures_total", "Health probes that confirmed a worker failure.",
        |r| Family::Counter(r.probe_failures)),
    ("ws_remote_breaker_opens_total", "Per-shard circuit-breaker open transitions.",
        |r| Family::Counter(r.breaker_opens)),
    ("ws_remote_degraded_queries_total",
        "Queries answered best-effort with at least one shard skipped.",
        |r| Family::Counter(r.degraded_queries)),
    ("ws_remote_rounds_total", "Cross-shard frontier-exchange rounds over the wire.",
        |r| Family::Counter(r.rounds)),
    ("ws_remote_rpc_seconds", "Per-RPC round-trip latency to remote shard workers.",
        |r| Family::Histogram(&r.rpc_latency_us, 1e-6)),
];

#[rustfmt::skip]
const TELEMETRY_FAMILIES: Families<Gauges> = &[
    ("ws_telemetry_interval_ms", "Background sampler period (0 = disabled).",
        |c| Family::Gauge(c.interval_ms as f64)),
    ("ws_telemetry_samples_total", "Periodic telemetry samples published.",
        |c| Family::Counter(c.samples)),
    ("ws_telemetry_ring_capacity", "Telemetry sample-ring capacity (slots).",
        |c| Family::Gauge(c.capacity as f64)),
    ("ws_telemetry_in_flight", "Queries executing right now.",
        |c| Family::Gauge(c.in_flight as f64)),
    ("ws_telemetry_query_ids_total", "Fleet-wide query IDs issued.",
        |c| Family::Counter(c.qids_issued)),
];

/// Append every family of `table`, read off `stats`.
fn expose<T>(out: &mut String, table: Families<T>, stats: &T) {
    for (name, help, value) in table {
        prometheus(out, name, help, value(stats));
    }
}

/// Append the registry's counter families — the `ws_server_*` ones when
/// `server`, the others (followed by the histograms) otherwise.
fn expose_registry(out: &mut String, m: &MetricsSnapshot, server: bool) {
    for (series, value) in COUNTERS.iter().zip(m.counters()) {
        for (name, help) in series.prometheus {
            if name.starts_with("ws_server_") == server {
                prometheus(out, name, help, Family::Counter(value));
            }
        }
    }
    if !server {
        for (series, h) in HISTOGRAMS.iter().zip(m.histograms()) {
            let scale = if series.micros { 1e-6 } else { 1.0 };
            prometheus(out, series.prometheus.0, series.prometheus.1, Family::Histogram(h, scale));
        }
    }
}

/// The `METRICS` response: build identity and uptime, the registry, the
/// pool, cache, shard, batch, remote and telemetry families, then the
/// server's own counters, in Prometheus text exposition format and
/// terminated by a literal `# EOF` line (the line-protocol framing for
/// this one multi-line response).
fn metrics_exposition(c: &Capture<'_>) -> String {
    let info = c.info;
    let mut out = String::new();
    let build = format!(
        "version=\"{}\",backend=\"{}\",shards=\"{}\",mmap=\"{}\"",
        info.version, info.backend, info.shards, c.memory_mapped
    );
    prometheus(
        &mut out,
        "ws_build_info",
        "Build/runtime identity (the value is always 1; the labels carry the facts).",
        Family::Labeled(vec![(build, 1.0)]),
    );
    prometheus(
        &mut out,
        "ws_uptime_seconds",
        "Seconds since the server started.",
        Family::Gauge(c.uptime_s),
    );
    expose_registry(&mut out, &c.metrics, false);
    expose(&mut out, POOL_FAMILIES, &c.pool);
    if let Some(cache) = &c.cache {
        expose(&mut out, CACHE_FAMILIES, cache);
    }
    if let Some(shards) = &c.shards {
        expose(&mut out, SHARD_FAMILIES, shards);
    }
    if let Some(batch) = &c.batch {
        expose(&mut out, BATCH_FAMILIES, batch);
    }
    if let Some(remote) = &c.remote {
        expose(&mut out, REMOTE_FAMILIES, remote);
        if let Some(states) = &c.breakers {
            let samples =
                states.iter().enumerate().map(|(i, s)| (format!("shard=\"{i}\""), s.gauge()));
            prometheus(
                &mut out,
                "ws_remote_breaker_state",
                "Per-shard breaker state (0 closed, 1 half-open, 2 open).",
                Family::Labeled(samples.collect()),
            );
        }
    }
    expose(&mut out, TELEMETRY_FAMILIES, &c.telemetry);
    expose_registry(&mut out, &c.metrics, true);
    out.push_str("# EOF\n");
    out
}

/// How a query request is answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// `QUERY`: through the result cache, untraced.
    Query,
    /// `QUERY` with [`TraceLevel::Full`], so the slow-query log can attach
    /// the execution trace (tracing never changes answers).
    TracedQuery,
    /// `EXPLAIN`: bypasses the cache so the trace describes a real search,
    /// and attaches the trace to the answer document.
    Explain,
}

/// The outcome of one served query: the JSON response line, whether it
/// succeeded (only successes count toward `--max-requests`), and the
/// server-side observations the slow-query log needs.
struct Answer {
    /// The one-line JSON response.
    doc: Value,
    /// Whether the query produced an answer document (vs. an error).
    succeeded: bool,
    /// Server-measured wall time around the whole search, in ms.
    wall_ms: f64,
    /// The fleet-wide query ID assigned at admission.
    qid: u64,
    /// Per-phase wall times, when the search completed (measured by
    /// every search; the slow-query log's default payload).
    phase_ms: Option<PhaseMillis>,
    /// The execution trace, when the query ran traced.
    trace: Option<Box<QueryTrace>>,
    /// The error kind (`"internal"`, `"deadline_exceeded"`,
    /// `"budget_exhausted"`, `"shard_unavailable"`) when the query failed.
    error: Option<&'static str>,
}

/// One response line for one `QUERY` or `EXPLAIN`, under the server's
/// budget and panic isolation. `qid` was assigned at admission and rides
/// the response — error documents included. A failed search is counted
/// by the engine's registry; a panic is counted here.
fn answer_query(ws: &WikiSearch, q: &str, budget: &QueryBudget, mode: Mode, qid: u64) -> Answer {
    let started = Instant::now();
    // Panic isolation boundary: a panicking search unwinds through the
    // pooled session's guard (quarantining the session) and is caught
    // here, so the worker and its other clients are unaffected.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| match mode {
        Mode::Query => ws.try_search_with_params_tagged(q, ws.params(), budget, qid),
        Mode::TracedQuery => {
            let params = ws.params().clone().with_trace(TraceLevel::Full);
            ws.try_search_with_params_tagged(q, &params, budget, qid)
        }
        Mode::Explain => ws.explain_with_params_tagged(q, ws.params(), budget, qid),
    }));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let failed = |error: &'static str, detail: String| Answer {
        doc: json!({ "error": error, "detail": detail, "query": q, "qid": qid }),
        succeeded: false,
        wall_ms,
        qid,
        phase_ms: None,
        trace: None,
        error: Some(error),
    };
    let mut result = match result {
        Ok(Ok(result)) => result,
        Ok(Err(e)) => return failed(e.kind(), e.to_string()),
        Err(_panic) => {
            ws.metrics().panics.inc();
            let detail = "query execution panicked; its session was quarantined";
            return failed("internal", detail.to_owned());
        }
    };
    let mut doc = answer_document(ws, q, &result);
    let trace = result.trace.take();
    if let (Mode::Explain, Value::Object(entries)) = (mode, &mut doc) {
        let trace = trace.as_deref().map_or(Value::Null, serde_json::to_value);
        entries.push(("trace".to_owned(), trace));
    }
    Answer {
        doc,
        succeeded: true,
        wall_ms,
        qid,
        phase_ms: Some(PhaseMillis::from(&result.profile)),
        trace,
        error: None,
    }
}

/// The success-path JSON document shared by `QUERY` and `EXPLAIN`.
fn answer_document(
    ws: &WikiSearch,
    q: &str,
    result: &wikisearch_engine::WikiSearchResult,
) -> Value {
    let answers: Vec<Value> = result
        .answers
        .iter()
        .map(|a| {
            json!({
                "central": ws.graph().node_text(a.central),
                "depth": a.depth,
                "score": a.score,
                "nodes": a.nodes.len(),
                "edges": a.edges.len(),
            })
        })
        .collect();
    json!({
        "query": q,
        "qid": result.qid,
        "answers": answers,
        "unmatched": result.query.unmatched,
        "ms": result.profile.total().as_secs_f64() * 1e3,
        "degraded": result.degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    fn free_port() -> u16 {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        port
    }

    fn tiny_graph_file(tag: &str) -> String {
        let path = std::env::temp_dir()
            .join(format!("ws-serve-{}-{tag}.tsv", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();
        path
    }

    fn connect(port: u16) -> TcpStream {
        for _ in 0..100 {
            if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("server not reachable on port {port}");
    }

    fn test_info() -> ServeInfo {
        ServeInfo { version: "test", backend: "seq".into(), shards: 1, started: Instant::now() }
    }

    #[test]
    fn serves_queries_over_tcp() {
        let path = tiny_graph_file("basic");
        let port = free_port();
        let argv: Vec<String> =
            format!("serve --graph {path} --port {port} --backend seq --max-requests 2")
                .split_whitespace()
                .map(String::from)
                .collect();
        let args = parse(&argv).unwrap();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            serve(&args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });

        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        writeln!(stream, "PING").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "PONG");

        line.clear();
        writeln!(stream, "QUERY xml sql").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["answers"][0]["central"], "query language");

        line.clear();
        writeln!(stream, "nonsense protocol line").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("error"));

        line.clear();
        writeln!(stream, "QUERY").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["error"], "empty query", "{line}");

        line.clear();
        writeln!(stream).unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("error"), "empty line answered, not ignored: {line}");

        line.clear();
        writeln!(stream, "QUERY sql").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("answers"));
        writeln!(stream, "QUIT").unwrap();

        let log = server.join().unwrap();
        assert!(log.contains("served 2 queries"), "{log}");
        assert!(log.contains("4 workers"), "{log}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn drains_even_when_another_connection_stays_open() {
        // A second client holds its connection open without ever sending
        // QUIT; reaching --max-requests on the first must still shut the
        // server down (workers poll the drain flag on read timeout).
        let path = tiny_graph_file("drain");
        let port = free_port();
        let argv: Vec<String> = format!(
            "serve --graph {path} --port {port} --backend seq --workers 2 --max-requests 1"
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let args = parse(&argv).unwrap();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            serve(&args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });

        let idle = connect(port); // parked on a worker, never speaks
        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        writeln!(stream, "QUERY xml sql").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("answers"), "{line}");

        let log = server.join().unwrap();
        assert!(log.contains("served 1 queries"), "{log}");
        drop(idle);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_zero_workers() {
        let argv: Vec<String> = "serve --graph kb.tsv --workers 0"
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        let mut out = Vec::new();
        let err = serve(&args, &mut out).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn rejects_zero_queue() {
        let argv: Vec<String> = "serve --graph kb.tsv --max-queue 0"
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        let mut out = Vec::new();
        let err = serve(&args, &mut out).unwrap_err();
        assert!(err.contains("--max-queue"), "{err}");
    }

    #[test]
    fn query_keyword_extraction_is_strict() {
        assert_eq!(query_keywords("QUERY xml sql"), Some("xml sql"));
        assert_eq!(query_keywords("QUERY"), Some(""));
        assert_eq!(query_keywords("QUERY   "), Some(""));
        assert_eq!(query_keywords("QUERYX xml"), None);
        assert_eq!(query_keywords("PING"), None);
        assert_eq!(query_keywords(""), None);
    }

    #[test]
    fn oversized_lines_are_rejected_and_the_connection_resyncs() {
        let path = tiny_graph_file("oversized");
        let port = free_port();
        let argv: Vec<String> =
            format!("serve --graph {path} --port {port} --backend seq --max-requests 1")
                .split_whitespace()
                .map(String::from)
                .collect();
        let args = parse(&argv).unwrap();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            serve(&args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });

        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        // A 3 × MAX_LINE query line: rejected with one error line, and the
        // bytes past the cap are discarded without desynchronizing.
        let huge = format!("QUERY {}\n", "x".repeat(3 * MAX_LINE));
        stream.write_all(huge.as_bytes()).unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["error"], "oversized line", "{line}");

        // Invalid UTF-8 on the same connection: one structured error line.
        line.clear();
        stream.write_all(b"QUERY \xff\xfe\x00garbage\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["error"], "invalid utf-8", "{line}");

        // The connection still serves real queries afterwards.
        line.clear();
        writeln!(stream, "STATS").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["oversized"], 1u64, "{line}");

        line.clear();
        writeln!(stream, "QUERY xml sql").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("answers"), "{line}");
        writeln!(stream, "QUIT").unwrap();

        let log = server.join().unwrap();
        assert!(log.contains("served 1 queries"), "{log}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn deadline_zero_timeout_yields_structured_error() {
        // --timeout-ms cannot be 0 (that means "off"), so drive an
        // always-expiring deadline through answer_query directly.
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let s = b.add_node("s", "sql");
        b.add_edge(x, s, "rel");
        let ws = WikiSearch::build_with(b.build(), Backend::Sequential);
        let budget = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        let answer = answer_query(&ws, "xml sql", &budget, Mode::Query, 11);
        assert!(!answer.succeeded);
        assert_eq!(answer.doc["error"], "deadline_exceeded");
        assert_eq!(answer.doc["qid"], 11u64, "error documents carry the qid");
        assert_eq!(answer.error, Some("deadline_exceeded"));
        assert!(answer.phase_ms.is_none(), "failed queries have no phase profile");
        assert_eq!(ws.metrics().deadline_exceeded.get(), 1);
        // And an unlimited budget still answers.
        let answer = answer_query(&ws, "xml sql", &QueryBudget::unlimited(), Mode::Query, 12);
        assert!(answer.succeeded, "{}", answer.doc);
        assert_eq!(answer.doc["qid"], 12u64, "answer documents carry the qid");
        assert!(answer.trace.is_none(), "untraced queries carry no trace");
        assert!(answer.phase_ms.is_some(), "every completed search has a phase profile");
        assert_eq!(ws.metrics().served.get(), 0, "served is counted by the caller");
    }

    #[test]
    fn traced_answers_carry_a_trace_without_changing_the_document() {
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        let ws = WikiSearch::build_with(b.build(), Backend::Sequential);
        let budget = QueryBudget::unlimited();
        let plain = answer_query(&ws, "xml sql", &budget, Mode::Query, 1);
        let traced = answer_query(&ws, "xml sql", &budget, Mode::TracedQuery, 2);
        assert!(traced.succeeded);
        let trace = traced.trace.expect("traced query carries its trace");
        assert!(!trace.levels.is_empty(), "per-level records present");
        // The client-visible document is identical either way.
        assert_eq!(
            serde_json::to_string(&plain.doc["answers"]).unwrap(),
            serde_json::to_string(&traced.doc["answers"]).unwrap()
        );
    }

    #[test]
    fn explain_attaches_the_trace_to_the_answer_document() {
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        let ws = WikiSearch::build_with(b.build(), Backend::Sequential);
        let doc = answer_query(&ws, "xml sql", &QueryBudget::unlimited(), Mode::Explain, 7).doc;
        assert_eq!(doc["answers"][0]["central"], "query language", "{doc}");
        assert_eq!(doc["qid"], 7u64, "{doc}");
        assert!(doc["trace"]["levels"].is_array(), "{doc}");
        assert_eq!(doc["trace"]["qid"], 7u64, "the trace joins on the same qid: {doc}");
        assert_eq!(doc["trace"]["keywords"], 2u64, "{doc}");
        // EXPLAIN under an expired deadline reports the structured error.
        let budget = QueryBudget::unlimited().with_timeout(Duration::ZERO);
        let doc = answer_query(&ws, "xml sql", &budget, Mode::Explain, 8).doc;
        assert_eq!(doc["error"], "deadline_exceeded", "{doc}");
        assert_eq!(doc["qid"], 8u64, "{doc}");
        assert_eq!(ws.metrics().deadline_exceeded.get(), 1);
    }

    #[test]
    fn slow_log_records_only_over_threshold_queries() {
        let path = std::env::temp_dir()
            .join(format!("ws-slowlog-unit-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        let slow = SlowLog::open(&path, 50, true).unwrap();
        let metrics = MetricsRegistry::new();
        let fast = Answer {
            doc: serde_json::json!({}),
            succeeded: true,
            wall_ms: 1.0,
            qid: 1,
            phase_ms: Some(PhaseMillis::default()),
            trace: None,
            error: None,
        };
        slow.maybe_log("quick", &fast, &metrics);
        let slow_answer = Answer {
            doc: serde_json::json!({}),
            succeeded: true,
            wall_ms: 80.0,
            qid: 2,
            phase_ms: Some(PhaseMillis::default()),
            trace: Some(Box::new(QueryTrace::default())),
            error: None,
        };
        slow.maybe_log("laggard", &slow_answer, &metrics);
        assert_eq!(metrics.slow_queries.get(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "only the over-threshold query is logged: {text}");
        let doc: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(doc["query"], "laggard");
        assert_eq!(doc["qid"], 2u64, "the slow-query line joins on the qid: {doc}");
        assert_eq!(doc["threshold_ms"], 50u64);
        assert!(doc["phase_ms"]["expansion_ms"].is_number(), "{doc}");
        assert!(doc["trace"]["levels"].is_array(), "{doc}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn untraced_slow_log_lines_carry_qid_and_phases_but_no_trace() {
        let path = std::env::temp_dir()
            .join(format!("ws-slowlog-unit2-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        // The default (--slow-query-trace off): queries run untraced, so
        // a logged line carries the qid + phase profile and a null trace.
        let slow = SlowLog::open(&path, 50, false).unwrap();
        assert!(!slow.traced);
        let metrics = MetricsRegistry::new();
        let answer = Answer {
            doc: serde_json::json!({}),
            succeeded: true,
            wall_ms: 80.0,
            qid: 9,
            phase_ms: Some(PhaseMillis { expansion_ms: 33.0, ..PhaseMillis::default() }),
            trace: None,
            error: None,
        };
        slow.maybe_log("laggard", &answer, &metrics);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(doc["qid"], 9u64, "{doc}");
        assert_eq!(doc["phase_ms"]["expansion_ms"], 33.0, "{doc}");
        assert!(doc["trace"].is_null(), "untraced lines have no trace: {doc}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_window_grammar_is_strict() {
        assert_eq!(stats_window_seconds("WINDOW 5"), Ok(5));
        assert_eq!(stats_window_seconds("WINDOW   30"), Ok(30));
        assert!(stats_window_seconds("WINDOW").is_err(), "seconds are required");
        assert!(stats_window_seconds("WINDOW 0").is_err(), "zero-width windows are refused");
        assert!(stats_window_seconds("WINDOW five").is_err());
        assert!(stats_window_seconds("WINDOW 5 6").is_err(), "exactly one argument");
        assert!(stats_window_seconds("WINDOWS 5").is_err(), "WINDOWS is not WINDOW");
        assert!(stats_window_seconds("PANE 5").is_err());
    }

    #[test]
    fn top_reports_in_flight_and_the_slowest_recent_query() {
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        let ws = WikiSearch::build_with(b.build(), Backend::Sequential);
        let info = test_info();
        // Before any query: gauges at zero, the optional views null.
        let doc = top_document(&Capture::take(&ws, None, &info, Some(TOP_WINDOW_S)));
        assert_eq!(doc["in_flight"], 0u64, "{doc}");
        assert_eq!(doc["qids_issued"], 0u64, "{doc}");
        assert!(doc["slowest_recent"].is_null(), "{doc}");
        assert!(doc["qps"].is_null(), "no samples yet: {doc}");
        assert!(doc["breakers"].is_null(), "not serving remotely: {doc}");
        // After a served query the recent ring and the qid counter move.
        let qid = ws.issue_query_id();
        let answer = answer_query(&ws, "xml sql", &QueryBudget::unlimited(), Mode::Query, qid);
        assert!(answer.succeeded);
        let doc = top_document(&Capture::take(&ws, None, &info, Some(TOP_WINDOW_S)));
        assert_eq!(doc["qids_issued"], 1u64, "{doc}");
        assert_eq!(doc["slowest_recent"]["qid"], qid, "{doc}");
        assert!(doc["slowest_recent"]["wall_ms"].is_number(), "{doc}");
    }

    #[test]
    fn stats_window_needs_two_samples_then_subtracts_them() {
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let s = b.add_node("s", "sql");
        b.add_edge(x, s, "rel");
        let ws = WikiSearch::build_with(b.build(), Backend::Sequential);
        let info = test_info();
        let doc = window_document(&Capture::take(&ws, None, &info, Some(5)), 5);
        assert_eq!(doc["error"], "window unavailable", "{doc}");
        // Feed the ring by hand the way the sampler does: a boot sample,
        // some queries, a second sample one "second" later.
        let snap = |t_us: u64| TelemetrySample { t_us, snapshot: ws.metrics_snapshot() };
        ws.telemetry().record_sample(&snap(0));
        for _ in 0..3 {
            let qid = ws.issue_query_id();
            let a = answer_query(&ws, "xml sql", &QueryBudget::unlimited(), Mode::Query, qid);
            assert!(a.succeeded);
            // Count the success the way `serve_one_request` does.
            ws.metrics().served.inc();
        }
        ws.telemetry().record_sample(&snap(1_000_000));
        let doc = window_document(&Capture::take(&ws, None, &info, Some(5)), 5);
        assert_eq!(doc["queries"], 3u64, "{doc}");
        assert_eq!(doc["served"], 3u64, "{doc}");
        assert_eq!(doc["window_s"], 5u64, "{doc}");
        assert!(doc["qps"].is_number(), "{doc}");
        assert_eq!(doc["latency"]["count"], 3u64, "{doc}");
    }

    #[test]
    fn slow_query_log_flag_requires_a_threshold() {
        let argv: Vec<String> = "serve --graph kb.tsv --slow-query-log /tmp/x.jsonl"
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        let mut out = Vec::new();
        let err = serve(&args, &mut out).unwrap_err();
        assert!(err.contains("--slow-query-ms"), "{err}");
    }

    #[test]
    fn readme_documents_every_declared_stats_key_and_metrics_family() {
        let readme = include_str!("../../../README.md");
        let documented = |name: &str| readme.contains(&format!("`{name}`"));
        let mut missing: Vec<String> = Vec::new();
        let mut check = |name: String| {
            if !documented(&name) {
                missing.push(name);
            }
        };
        for series in COUNTERS {
            series.stats.iter().for_each(|key| check(key.to_string()));
            series.prometheus.iter().for_each(|(name, _)| check(name.to_string()));
        }
        for series in HISTOGRAMS {
            let block = quantiles(&HistogramSnapshot::empty(), series.micros);
            for (key, _) in block.as_object().unwrap() {
                check(format!("{}.{key}", series.stats));
            }
            check(series.prometheus.0.to_string());
        }
        fn names<T>(table: Families<T>) -> Vec<&'static str> {
            table.iter().map(|family| family.0).collect()
        }
        let tables = [
            names(POOL_FAMILIES),
            names(CACHE_FAMILIES),
            names(SHARD_FAMILIES),
            names(BATCH_FAMILIES),
            names(REMOTE_FAMILIES),
            names(TELEMETRY_FAMILIES),
        ];
        tables.concat().into_iter().for_each(|name| check(name.to_string()));
        assert!(missing.is_empty(), "README.md does not document {missing:?}");
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let h = central::LogHistogram::new();
        h.record(1500);
        h.record(3000);
        let mut out = String::new();
        prometheus(&mut out, "ws_queries_total", "Queries served.", Family::Counter(2));
        let snap = h.snapshot();
        prometheus(
            &mut out,
            "ws_latency_seconds",
            "Query latency.",
            Family::Histogram(&snap, 1e-6),
        );
        assert!(out.contains("# TYPE ws_queries_total counter"));
        assert!(out.contains("ws_queries_total 2"));
        assert!(out.contains("# TYPE ws_latency_seconds histogram"));
        assert!(out.contains("ws_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("ws_latency_seconds_count 2"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }
}
