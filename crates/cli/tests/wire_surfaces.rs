//! Golden wire surfaces: for each server shape (plain, `--shards 2`,
//! `--batch-window-us 500`, and a two-worker remote fleet), the ordered
//! key paths of `STATS`, `STATS WINDOW` and `TOP`, and the ordered
//! `METRICS` `# HELP` / `# TYPE` / series-name lines. Values are masked
//! to their JSON kind, so the captures pin what dashboards and scrapers
//! depend on — every key, its position and number format, every help
//! text, type and label name — and not the numbers. The captures live
//! in `tests/golden/<shape>.txt`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn graph() -> kgraph::KnowledgeGraph {
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    b.build()
}

/// Start a server over the shared test graph with `extra` flags; the
/// server thread is leaked and dies with the test process.
fn start(tag: &str, extra: &str) -> u16 {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let path = std::env::temp_dir()
        .join(format!("ws-surfaces-{tag}-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, kgraph::io::to_tsv(&graph())).unwrap();
    let argv: Vec<String> = format!(
        "serve --graph {path} --port {port} --backend seq --workers 2 \
         --telemetry-interval-ms 50 {extra}"
    )
    .split_whitespace()
    .map(String::from)
    .collect();
    std::thread::spawn(move || {
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        let _ = wikisearch_cli::serve::serve(&args, &mut out);
    });
    port
}

fn connect(port: u16) -> (TcpStream, BufReader<TcpStream>) {
    for _ in 0..150 {
        if let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) {
            stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            return (stream, reader);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server never came up on port {port}");
}

fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

fn document(response: &str) -> serde_json::Value {
    serde_json::from_str(response).unwrap_or_else(|e| panic!("{e}: {response}"))
}

/// Every leaf's dotted key path in document order, with its JSON kind
/// (`int` and `float` print differently: `2` vs `2.0`). Arrays and nulls
/// are leaves.
fn key_paths(prefix: &str, value: &serde_json::Value, out: &mut Vec<String>) {
    match value.as_object() {
        Some(entries) => {
            for (key, value) in entries {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                key_paths(&path, value, out);
            }
        }
        None => {
            let kind = match value {
                serde_json::Value::Null => "null",
                serde_json::Value::Bool(_) => "bool",
                serde_json::Value::I64(_) | serde_json::Value::U64(_) => "int",
                serde_json::Value::F64(_) => "float",
                serde_json::Value::String(_) => "string",
                serde_json::Value::Array(_) => "array",
                serde_json::Value::Object(_) => "object",
            };
            out.push(format!("{prefix} {kind}"));
        }
    }
}

/// A METRICS sample line masked to its series name and label names
/// (`ws_latency_seconds_bucket{le}`); comment lines are kept verbatim.
fn mask_sample(line: &str) -> String {
    if line.starts_with('#') {
        return line.to_string();
    }
    let series = line.rsplit_once(' ').map_or(line, |(series, _)| series);
    match series.split_once('{') {
        Some((name, labels)) => {
            let names: Vec<&str> = labels
                .trim_end_matches('}')
                .split(',')
                .map(|pair| pair.split_once('=').map_or(pair, |(k, _)| k))
                .collect();
            format!("{name}{{{}}}", names.join(","))
        }
        None => series.to_string(),
    }
}

/// The masked surfaces of one live server, one line per key path or
/// exposition line, each tagged with its verb.
fn capture(port: u16) -> Vec<String> {
    let (mut stream, mut reader) = connect(port);
    let answer = request(&mut stream, &mut reader, "QUERY xml sql");
    assert!(answer.contains("answers"), "{answer}");
    // Wait for the sampler's second sample so STATS WINDOW has a window.
    let started = Instant::now();
    let window = loop {
        let doc = document(&request(&mut stream, &mut reader, "STATS WINDOW 5"));
        if doc.get("error").is_none() {
            break doc;
        }
        assert!(started.elapsed() < Duration::from_secs(10), "no window: {doc}");
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut out = Vec::new();
    for (verb, doc) in [
        ("STATS", document(&request(&mut stream, &mut reader, "STATS"))),
        ("WINDOW", window),
        ("TOP", document(&request(&mut stream, &mut reader, "TOP"))),
    ] {
        let mut paths = Vec::new();
        key_paths("", &doc, &mut paths);
        out.extend(paths.into_iter().map(|p| format!("{verb} {p}")));
    }
    writeln!(stream, "METRICS").unwrap();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line == "# EOF" {
            break;
        }
        let masked = format!("METRICS {}", mask_sample(line));
        // Histogram buckets repeat per non-empty bucket: keep one line.
        if out.last() != Some(&masked) {
            out.push(masked);
        }
    }
    writeln!(stream, "QUIT").unwrap();
    out
}

fn assert_golden(shape: &str, actual: &[String], golden: &str) {
    let expected: Vec<&str> = golden.lines().collect();
    for (i, (got, want)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "{shape}: surface line {} differs", i + 1);
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "{shape}: surface has {} lines, golden has {}; actual:\n{}",
        actual.len(),
        expected.len(),
        actual.join("\n")
    );
}

#[test]
fn plain_server_surfaces_match_the_golden_capture() {
    let actual = capture(start("plain", ""));
    assert_golden("plain", &actual, include_str!("golden/plain.txt"));
}

#[test]
fn sharded_server_surfaces_match_the_golden_capture() {
    let actual = capture(start("shards", "--shards 2"));
    assert_golden("shards", &actual, include_str!("golden/shards.txt"));
}

#[test]
fn batched_server_surfaces_match_the_golden_capture() {
    let actual = capture(start("batch", "--batch-window-us 500"));
    assert_golden("batch", &actual, include_str!("golden/batch.txt"));
}

#[test]
fn remote_fleet_surfaces_match_the_golden_capture() {
    let g = graph();
    let seed = central::shard::DEFAULT_PARTITION_SEED;
    let w0 = central::ShardWorker::spawn_local(&g, 2, 0, seed);
    let w1 = central::ShardWorker::spawn_local(&g, 2, 1, seed);
    let actual = capture(start("remote", &format!("--shard-addr {w0},{w1} --heartbeat-ms 0")));
    assert_golden("remote", &actual, include_str!("golden/remote.txt"));
}
