//! perfbench: the socket-level serving benchmark of `wikisearch serve`.
//!
//! ```text
//! perfbench --wikisearch BIN --workdir DIR --workload hot-zipf|cold-mix|fleet-miss
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates the KB and the request stream, compiles the
//! snapshot, launches the real `serve --mmap` on an ephemeral port, drives
//! it over loopback from two connections, checks every answer against the
//! engine in-process, and prints one JSON line of metrics last. `--trace
//! 1` repeats the window on a fresh server with the byte timeline
//! recorded and adds in-process replays that time each layer (see
//! README.md).

mod check;
mod client;
mod inputs;
mod layers;
mod loadgen;
mod server;
mod stats;

use check::{Checked, Oracle};
use inputs::{sub_seed, DistinctQueries};
use loadgen::{Op, OpKind, Record, Stop};
use serde_json::Value;
use server::Server;
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wikisearch_engine::{Backend, WikiSearch};

/// Client connections (and load threads): the host's two cores.
const CONNS: usize = 2;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// hot-zipf: distinct 3-keyword queries behind the Zipf stream.
const HOT_DISTINCT: usize = 256;
/// hot-zipf: ops generated for the closed loop (the list wraps).
const HOT_OPS: usize = 1 << 16;
/// cold-mix: offered rate of the open loop, requests per second (about
/// half the closed-loop capacity of two connections on this stream).
const COLD_RATE: f64 = 16.0;
/// fleet-miss: distinct 2-keyword queries, sent round-robin; with no
/// result cache a repeat is still a full fleet search.
const FLEET_DISTINCT: usize = 48;
/// fleet-miss: ops generated for the closed loop (the list wraps).
const FLEET_OPS: usize = 8192;
/// cold-mix and fleet-miss: queries served before timing, so sessions,
/// connections and the fleet are warm when the window opens.
const WARM_QUERIES: usize = 8;
/// cold-mix: keyword counts, in equal shares.
const COLD_KNUMS: [usize; 4] = [3, 4, 5, 6];
const WARM_PER_STRATUM: usize = WARM_QUERIES / COLD_KNUMS.len();
/// cold-mix and fleet-miss draw their query sets with these fixed seeds;
/// the run seed only orders them. Their per-query cost is heavy-tailed and
/// nearly a function of the query (a few queries cost 20-100x the
/// median), so a seed-drawn set would make the tail percentiles count
/// the heavy queries each seed happened to draw.
const COLD_POOL_SEED: u64 = 1;
const FLEET_POOL_SEED: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotZipf,
    ColdMix,
    FleetMiss,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-zipf" => Some(Workload::HotZipf),
            "cold-mix" => Some(Workload::ColdMix),
            "fleet-miss" => Some(Workload::FleetMiss),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotZipf => "hot-zipf",
            Workload::ColdMix => "cold-mix",
            Workload::FleetMiss => "fleet-miss",
        }
    }

    pub fn fleet(self) -> bool {
        self == Workload::FleetMiss
    }

    /// One request in this many is a diagnostic verb. cold-mix sends few
    /// requests, so it needs a larger share for a steady `diag_p50_ms`
    /// (an odd share, so the probe alternates between the connections).
    fn diag_every(self) -> usize {
        match self {
            Workload::ColdMix => 5,
            Workload::HotZipf | Workload::FleetMiss => 32,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin: PathBuf,
    pub workdir: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut bin, mut workdir) =
            (None, None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().map_err(|_| "--seconds: not a number")?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                "--wikisearch" => bin = Some(PathBuf::from(value)),
                "--workdir" => workdir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            bin: bin.ok_or("--wikisearch is required")?,
            workdir: workdir.ok_or("--workdir is required")?,
        })
    }
}

/// The request lists of one run.
pub struct Plan {
    /// Served once before timing.
    pub warm: Vec<Op>,
    /// The timed stream.
    pub ops: Vec<Op>,
    /// `Some(rate)` for an open loop.
    pub rate: Option<f64>,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        let every = args.workload.diag_every();
        let queries = |list: &[String]| list.iter().map(|q| Op::query(q)).collect();
        match args.workload {
            Workload::HotZipf => {
                let distinct = DistinctQueries::new(args.seed, 3).take(HOT_DISTINCT);
                Plan {
                    warm: queries(&distinct),
                    ops: inputs::zipf_stream(args.seed, &distinct, HOT_OPS, every),
                    rate: None,
                }
            }
            Workload::ColdMix => {
                let count = (COLD_RATE * args.seconds).round() as usize;
                let per_stratum = count.div_ceil(COLD_KNUMS.len()) + WARM_PER_STRATUM;
                let mut warm = Vec::new();
                let strata: Vec<Vec<String>> = COLD_KNUMS
                    .iter()
                    .map(|&k| {
                        let mut list = DistinctQueries::new(sub_seed(COLD_POOL_SEED, k as u64), k)
                            .take(per_stratum);
                        warm.extend(list.drain(..WARM_PER_STRATUM));
                        inputs::shuffle(&mut list, sub_seed(args.seed, k as u64));
                        list
                    })
                    .collect();
                Plan {
                    warm: queries(&warm),
                    ops: inputs::strata_stream(&strata, count, every),
                    rate: Some(COLD_RATE),
                }
            }
            Workload::FleetMiss => {
                let mut distinct = DistinctQueries::new(FLEET_POOL_SEED, 2).take(FLEET_DISTINCT);
                inputs::shuffle(&mut distinct, args.seed);
                Plan {
                    warm: queries(&distinct[..WARM_QUERIES]),
                    ops: inputs::cycle_stream(&distinct, FLEET_OPS, every),
                    rate: None,
                }
            }
        }
    }

    pub fn op(&self, r: &Record) -> &Op {
        &self.ops[r.op % self.ops.len()]
    }
}

/// One timed window's records.
pub struct Window {
    pub start: Instant,
    pub records: Vec<Record>,
}

impl Window {
    /// Drive the plan's stream from its start for `seconds`.
    fn run(plan: &Plan, port: u16, seconds: f64, stamp_first: bool) -> Window {
        match plan.rate {
            None => {
                let start = Instant::now();
                let stop = Stop::At(start + Duration::from_secs_f64(seconds));
                let records = loadgen::closed_loop(port, CONNS, &plan.ops, stop, stamp_first);
                Window { start, records }
            }
            Some(rate) => {
                let count = (rate * seconds).round() as usize;
                let start = Instant::now() + Duration::from_millis(20);
                let records =
                    loadgen::open_loop(port, CONNS, &plan.ops, count, rate, start, stamp_first);
                Window { start, records }
            }
        }
    }

    /// Records of successful QUERY exchanges.
    pub fn queries<'a>(&'a self, plan: &'a Plan) -> impl Iterator<Item = &'a Record> {
        self.records
            .iter()
            .filter(|r| r.reply.is_ok() && plan.op(r).kind == OpKind::Query)
    }

    /// qps, p50/p95/p99 of QUERY latency, and the diagnostic verbs' p50.
    fn end_to_end(&self, plan: &Plan) -> [f64; 5] {
        let lat: Vec<f64> = self.queries(plan).map(Record::latency_ms).collect();
        let diag: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.reply.is_ok() && plan.op(r).kind != OpKind::Query)
            .map(Record::latency_ms)
            .collect();
        let end = self.records.iter().map(|r| r.done).max().unwrap_or(self.start);
        let elapsed = end.saturating_duration_since(self.start).as_secs_f64();
        [
            lat.len() as f64 / elapsed.max(1e-9),
            percentile(lat.clone(), 0.50),
            percentile(lat.clone(), 0.95),
            percentile(lat, 0.99),
            median(diag),
        ]
    }
}

/// One server's life after setup: warm-up, the timed window, and the
/// STATS and peak RSS around them.
pub struct Served {
    pub warm: Vec<Record>,
    pub window: Window,
    /// STATS before the warm-up, before the window, and after it.
    pub stats_boot: Value,
    pub stats_before: Value,
    pub stats_after: Value,
    pub rss_mb: f64,
}

fn serve_window(
    plan: &Plan,
    server: &mut Server,
    seconds: f64,
    stamp_first: bool,
) -> Result<Served, String> {
    let stats_boot = server.stats()?;
    let warm = loadgen::closed_loop(server.port, CONNS, &plan.warm, Stop::Exhausted, false);
    let stats_before = server.stats()?;
    let window = Window::run(plan, server.port, seconds, stamp_first);
    let stats_after = server.stats()?;
    let rss_mb = server.peak_rss_mb()?;
    Ok(Served { warm, window, stats_boot, stats_before, stats_after, rss_mb })
}

/// Set up `count` times (build-snapshot through the first PONG, and the
/// fleet) and keep the last server running.
fn set_up(
    args: &Args,
    kb: &Path,
    snapshot: &Path,
    count: usize,
) -> Result<(Server, Vec<f64>, Vec<layers::SetupStamps>), String> {
    let mut times = Vec::with_capacity(count);
    let mut stamps = Vec::with_capacity(count);
    for k in 0..count {
        let started = Instant::now();
        server::build_snapshot(&args.bin, kb, snapshot)?;
        let built = Instant::now();
        let (mut server, launch) = Server::launch(&args.bin, snapshot, args.workload.fleet())?;
        times.push((launch.ready - started).as_secs_f64());
        stamps.push(layers::SetupStamps { started, built, launch });
        if k + 1 == count {
            return Ok((server, times, stamps));
        }
        server.shutdown()?;
    }
    Err("no setup requested".into())
}

pub type Metrics = Vec<(String, f64, &'static str)>;

const E2E_NAMES: [(&str, &str); 5] = [
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("p99_ms", "ms"),
    ("diag_p50_ms", "ms"),
];

fn run(args: &Args) -> Result<(Checked, Metrics), String> {
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("creating {}: {e}", args.workdir.display()))?;
    let kb = args.workdir.join("kb.bin");
    let snapshot = args.workdir.join("kb.wsnap");
    let graph = inputs::knowledge_base();
    kgraph::store::save_graph(&graph, &kb).map_err(|e| format!("writing the KB: {e}"))?;
    let plan = Plan::new(args);

    let (mut server, setup_times, _) = set_up(args, &kb, &snapshot, SETUPS)?;
    let plain = serve_window(&plan, &mut server, args.seconds, false)?;
    server.shutdown()?;
    // The traced run repeats the window with the same stream on a fresh
    // server, so traced and untraced numbers compare like with like.
    let traced = if args.trace {
        let (mut server, times, stamps) = set_up(args, &kb, &snapshot, 1)?;
        let served = serve_window(&plan, &mut server, args.seconds, true)?;
        let knum3 = args.workload.fleet().then(|| layers::fleet_knum3(server.port));
        server.shutdown()?;
        Some((served, times, stamps, knum3))
    } else {
        None
    };

    // The answer check, after every timed window.
    let ws = WikiSearch::open_snapshot(&snapshot, Backend::ParCpu(2))?;
    let mut oracle = Oracle::new(&ws);
    let mut checked = Checked::default();
    checked.check(&mut oracle, &plain.warm, |r| &plan.warm[r.op]);
    checked.check(&mut oracle, &plain.window.records, |r| plan.op(r));
    let setup_s = median(setup_times);
    let e2e = plain.window.end_to_end(&plan);
    let mut metrics = Metrics::new();
    match &traced {
        None => {
            metrics.push(("setup_s".into(), setup_s, "s"));
            for ((name, unit), value) in E2E_NAMES.iter().zip(e2e) {
                metrics.push((name.to_string(), value, unit));
            }
            metrics.push(("rss_mb".into(), plain.rss_mb, "MB"));
        }
        Some((served, times, stamps, knum3)) => {
            checked.check(&mut oracle, &served.warm, |r| &plan.warm[r.op]);
            let engine = checked.check(&mut oracle, &served.window.records, |r| plan.op(r));
            if let Some(k) = knum3 {
                checked.check(&mut oracle, &k.records, |r| &k.ops[r.op]);
            }
            let ctx = layers::TraceCtx {
                args,
                plan: &plan,
                graph: &graph,
                snapshot: &snapshot,
                ws: &ws,
                served,
                engine: &engine,
                setup: stamps,
                knum3: knum3.as_ref(),
            };
            metrics = layers::per_layer(&ctx)?;
            // Tracing overhead: traced minus untraced, metric by metric.
            metrics.push(("overhead.setup_s".into(), median(times.clone()) - setup_s, "s"));
            let traced_e2e = served.window.end_to_end(&plan);
            for ((name, unit), (t, u)) in E2E_NAMES.iter().zip(traced_e2e.iter().zip(e2e)) {
                metrics.push((format!("overhead.{name}"), t - u, unit));
            }
            metrics.push(("overhead.rss_mb".into(), served.rss_mb - plain.rss_mb, "MB"));
        }
    }
    eprintln!(
        "perfbench: {} {} queries timed in {} s; {} exchanges checked, {} failed ({} answer mismatches)",
        plain.window.queries(&plan).count(),
        args.workload.name(),
        args.seconds,
        checked.attempted,
        checked.failed,
        checked.mismatches
    );
    Ok((checked, metrics))
}

/// Print the result line; returns whether the run counts as correct.
fn print_result(checked: &Checked, metrics: &Metrics) -> bool {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        eprintln!("perfbench: a metric had no samples");
    }
    let correct = checked.failed == 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        checked.attempted.max(1),
        checked.failed,
        body.join(", ")
    );
    correct
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((checked, metrics)) => {
            for e in &checked.first_errors {
                eprintln!("perfbench: {e}");
            }
            if !print_result(&checked, &metrics) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
