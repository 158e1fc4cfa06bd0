//! Wire-level batch invariance: a `--batch-window-us 500` server answers
//! the full line protocol — QUERY (cache miss and hit), EXPLAIN, budget
//! errors — byte-identically to a `--batch-window-us 0` server, and
//! concurrent clients whose queries actually fuse into shared batches
//! still get byte-identical answers. Flag validation is pinned too.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn free_port() -> u16 {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    port
}

fn graph_file(tag: &str) -> String {
    let path = std::env::temp_dir()
        .join(format!("ws-batchserve-{}-{tag}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    let j = b.add_node("j", "json format");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    b.add_edge(j, x, "rel");
    std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();
    path
}

/// Start `wikisearch serve` on a background thread; returns the join
/// handle yielding the server log.
fn spawn_server(argv_line: String) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let argv: Vec<String> = argv_line.split_whitespace().map(String::from).collect();
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        wikisearch_cli::serve::serve(&args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    })
}

fn connect(port: u16) -> TcpStream {
    for _ in 0..150 {
        if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            return s;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server not reachable on port {port}");
}

/// One request, one response line.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    writeln!(stream, "{request}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "truncated response to {request:?}: {line:?}");
    line.trim_end().to_string()
}

/// A response with the wall-clock `ms` and the fleet-wide `qid` (which
/// depends on arrival order under concurrency) removed, re-serialized
/// deterministically. Everything else — EXPLAIN traces included — must
/// match byte for byte: EXPLAIN bypasses the batcher by design (its
/// trace must describe a live run), so even `batch_id`/`co_batched`
/// stay `null` on both servers.
fn normalized(response: &str) -> String {
    let mut doc: serde_json::Value =
        serde_json::from_str(response).unwrap_or_else(|e| panic!("bad JSON {response:?}: {e}"));
    let serde_json::Value::Object(entries) = &mut doc else {
        panic!("non-object response {response:?}");
    };
    entries.retain(|(key, _)| key != "ms" && key != "qid");
    if let Some((_, serde_json::Value::Object(trace))) =
        entries.iter_mut().find(|(key, _)| key == "trace")
    {
        // Session identity differs run to run (pool scheduling), phase
        // timings are wall clock, query ids follow arrival order; all
        // are volatile on any server pair.
        trace.retain(|(key, _)| {
            !matches!(
                key.as_str(),
                "session_id" | "session_queries" | "phase_ms" | "qid" | "cache_source_qid"
            )
        });
    }
    serde_json::to_string(&doc).unwrap()
}

/// The protocol exchange every server pair runs: cache misses, a
/// reordered cache hit, a single keyword, an unmatched term, and two
/// EXPLAINs (5 QUERY successes, so `--max-requests 5` drains the
/// server).
const EXCHANGE: [&str; 7] = [
    "QUERY xml sql",
    "QUERY sql   XML",
    "QUERY rdf query",
    "QUERY json xml warpdrive",
    "EXPLAIN xml sql rdf",
    "EXPLAIN json",
    "QUERY xml sql rdf",
];

/// Run the exchange against a fresh server with the given extra flags;
/// returns (normalized responses, server log).
fn run_exchange(path: &str, extra: &str) -> (Vec<String>, String) {
    let port = free_port();
    let server = spawn_server(format!(
        "serve --graph {path} --port {port} --backend gpu --threads 2 --workers 2 \
         --max-requests 5 {extra}"
    ));
    let mut stream = connect(port);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let responses: Vec<String> = EXCHANGE
        .iter()
        .map(|req| normalized(&roundtrip(&mut stream, &mut reader, req)))
        .collect();
    writeln!(stream, "QUIT").unwrap();
    (responses, server.join().unwrap())
}

/// The wire-level acceptance check: the full exchange through a batching
/// server is byte-identical to an unbatched one.
#[test]
fn batched_server_is_byte_identical_to_unbatched() {
    let path = graph_file("identity");
    let (unbatched, log0) = run_exchange(&path, "--batch-window-us 0");
    let (batched, log500) = run_exchange(&path, "--batch-window-us 500 --batch-max 8");
    assert_eq!(batched, unbatched, "batched wire responses diverged");
    assert!(!log0.contains("batching"), "{log0}");
    assert!(log500.contains("batching 500us x8"), "{log500}");
    assert!(log0.contains("served 5 queries"), "{log0}");
    assert!(log500.contains("served 5 queries"), "{log500}");
    let _ = std::fs::remove_file(path);
}

/// Budget enforcement is batching-independent: a starved expansion cap
/// trips the same structured error through the batched path as through
/// the unbatched one, and STATS accounts it identically.
#[test]
fn batched_budget_errors_match_unbatched() {
    let path = graph_file("budget");
    let error_kind = |extra: &str| {
        let port = free_port();
        // No --max-requests: the failing query never drains the server,
        // so the thread is leaked and dies with the test process.
        let _server = spawn_server(format!(
            "serve --graph {path} --port {port} --backend seq --max-expansions 1 {extra}"
        ));
        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let response = roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf");
        let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
        let stats: serde_json::Value =
            serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
        assert_eq!(stats["budget_exhausted"], 1u64, "{stats}");
        assert_eq!(stats["served"], 0u64, "failed queries are not served: {stats}");
        writeln!(stream, "QUIT").unwrap();
        doc["error"].as_str().unwrap().to_string()
    };
    assert_eq!(error_kind("--batch-window-us 500"), error_kind("--batch-window-us 0"));
    assert_eq!(error_kind("--batch-window-us 0"), "budget_exhausted");
    let _ = std::fs::remove_file(path);
}

/// Concurrent clients against a wide-window server: queries genuinely
/// fuse (a multi-query batch is recorded) and every client's answers
/// stay byte-identical to a solo unbatched baseline.
#[test]
fn concurrent_clients_fuse_and_stay_identical() {
    let path = graph_file("fuse");
    const QUERIES: [&str; 4] = ["xml sql", "rdf query", "sql rdf", "json xml"];
    const CLIENTS: usize = 4;

    // Baseline: the queries one at a time on an unbatched server.
    let baseline: Vec<String> = {
        let port = free_port();
        let server = spawn_server(format!(
            "serve --graph {path} --port {port} --backend seq --workers 2 --max-requests {}",
            QUERIES.len()
        ));
        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let responses = QUERIES
            .iter()
            .map(|q| normalized(&roundtrip(&mut stream, &mut reader, &format!("QUERY {q}"))))
            .collect();
        server.join().unwrap();
        responses
    };

    // Wide window, no cache, many workers: concurrent distinct queries
    // arriving together must co-batch. (--cache-capacity 0 keeps repeats
    // of the same keyword set flowing into the batcher instead of
    // hitting.)
    let total = CLIENTS * QUERIES.len();
    let port = free_port();
    let server = spawn_server(format!(
        "serve --graph {path} --port {port} --backend seq --workers {CLIENTS} \
         --cache-capacity 0 --batch-window-us 200000 --batch-max {CLIENTS} --max-requests {total}"
    ));
    let clients: Vec<std::thread::JoinHandle<Vec<String>>> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut stream = connect(port);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let got: Vec<(usize, String)> = (0..QUERIES.len())
                    .map(|i| {
                        // Each client starts at a different query so one
                        // batch window sees distinct keyword sets.
                        let qi = (i + c) % QUERIES.len();
                        (
                            qi,
                            normalized(&roundtrip(
                                &mut stream,
                                &mut reader,
                                &format!("QUERY {}", QUERIES[qi]),
                            )),
                        )
                    })
                    .collect();
                writeln!(stream, "QUIT").unwrap();
                let mut ordered = vec![String::new(); QUERIES.len()];
                for (qi, response) in got {
                    ordered[qi] = response;
                }
                ordered
            })
        })
        .collect();
    for (c, client) in clients.into_iter().enumerate() {
        assert_eq!(client.join().unwrap(), baseline, "client #{c} diverged under co-batching");
    }
    let log = server.join().unwrap();
    assert!(log.contains(&format!("served {total} queries")), "{log}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn batch_max_is_validated() {
    for bad in ["0", "65"] {
        let argv: Vec<String> =
            format!("serve --graph kb.tsv --batch-window-us 10 --batch-max {bad}")
                .split_whitespace()
                .map(String::from)
                .collect();
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        let err = wikisearch_cli::serve::serve(&args, &mut out).unwrap_err();
        assert!(err.contains("--batch-max"), "{err}");
    }
}
