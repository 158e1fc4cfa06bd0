//! Protocol fuzzing: arbitrary byte streams thrown at a live server must
//! always produce exactly one response line per request line — a
//! structured JSON error for garbage — and must never crash the server
//! or desynchronize the connection.

use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// One shared server for every fuzz case (each case opens its own
/// connection). The thread is deliberately leaked; it dies with the test
/// process.
fn server_port() -> u16 {
    static PORT: OnceLock<u16> = OnceLock::new();
    *PORT.get_or_init(|| {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);

        let path = std::env::temp_dir()
            .join(format!("ws-proto-{}.tsv", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();

        std::thread::spawn(move || {
            let argv: Vec<String> =
                format!("serve --graph {path} --port {port} --backend seq --workers 2")
                    .split_whitespace()
                    .map(String::from)
                    .collect();
            let args = wikisearch_cli::args::parse(&argv).unwrap();
            let mut out = Vec::new();
            let _ = wikisearch_cli::serve::serve(&args, &mut out);
        });
        for _ in 0..150 {
            if TcpStream::connect(("127.0.0.1", port)).is_ok() {
                return port;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("fuzz server never came up on port {port}");
    })
}

/// Make raw fuzz bytes into exactly one request line that expects one
/// response: strip newlines (they would split the request) and dodge the
/// one input with no response line, a well-formed `QUIT`.
fn as_request_line(mut bytes: Vec<u8>) -> Vec<u8> {
    for b in &mut bytes {
        if *b == b'\n' {
            *b = b'.';
        }
    }
    if let Ok(text) = std::str::from_utf8(&bytes) {
        if text.trim().eq_ignore_ascii_case("quit") {
            bytes.push(b'x');
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_request_line_gets_exactly_one_response_line(
        raw_lines in vec(vec(0u8..=255u8, 0..120), 1..8),
    ) {
        let port = server_port();
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        for raw in raw_lines {
            let request = as_request_line(raw);
            stream.write_all(&request).unwrap();
            stream.write_all(b"\n").unwrap();

            let mut response = String::new();
            reader
                .read_line(&mut response)
                .unwrap_or_else(|e| panic!("no response to {request:?}: {e}"));
            assert!(
                response.ends_with('\n'),
                "connection closed mid-response to {request:?}: {response:?}"
            );
            let response = response.trim_end();
            let valid = response == "PONG"
                || serde_json::from_str::<serde_json::Value>(response).is_ok();
            assert!(valid, "unparseable response to {request:?}: {response:?}");
        }

        // The connection survived the garbage: a real query still works.
        writeln!(stream, "QUERY xml sql").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("answers"), "{response}");
        writeln!(stream, "QUIT").unwrap();
    }
}

/// A client that pipelines requests but never reads its answers must not
/// pin the server's only worker: once the socket buffers fill, the stuck
/// response write hits the server's write deadline (2 s), that
/// connection is closed, and the next client is served.
#[test]
fn a_client_that_never_reads_cannot_pin_the_only_worker() {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let path = std::env::temp_dir()
        .join(format!("ws-proto-hog-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let s = b.add_node("s", "sql");
    b.add_edge(x, s, "rel");
    std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();
    let argv: Vec<String> = format!("serve --graph {path} --port {port} --backend seq --workers 1")
        .split_whitespace()
        .map(String::from)
        .collect();
    std::thread::spawn(move || {
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        let _ = wikisearch_cli::serve::serve(&args, &mut out);
    });
    let connect = || {
        for _ in 0..150 {
            if let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) {
                return stream;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("server never came up on port {port}");
    };

    // Client A: thousands of METRICS requests (each answer is kilobytes,
    // together far more than the loopback socket buffers hold), and not
    // one byte read back. The writer thread is detached: at a server
    // without a write deadline it may block for good.
    let hog = connect();
    let mut hog_writer = hog.try_clone().unwrap();
    std::thread::spawn(move || {
        let _ = hog_writer.write_all("METRICS\n".repeat(8000).as_bytes());
    });
    std::thread::sleep(Duration::from_millis(500));

    // Client B queues behind A on the single worker. Its PING must be
    // answered within a few write deadlines (a stalled write can make a
    // little progress, and restart the deadline, as A's kernel frees
    // buffer space) plus a margin.
    let mut client = connect();
    client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    writeln!(client, "PING").unwrap();
    let mut response = String::new();
    let read = reader.read_line(&mut response);
    assert!(
        matches!(read, Ok(n) if n > 0),
        "the second client was never served while the first stopped reading: {read:?}"
    );
    assert_eq!(response.trim(), "PONG");
    drop(hog);
    let _ = std::fs::remove_file(path);
}
