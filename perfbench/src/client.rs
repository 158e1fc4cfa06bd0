//! One client connection to the line protocol, with the byte timeline of
//! each response: when the request was written, when the first response
//! byte arrived, and when the response's terminator arrived.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How a response ends: one JSON (or `PONG`) line, or the multi-line
/// Prometheus text that `METRICS` closes with a `# EOF` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminator {
    Newline,
    EofMarker,
}

/// One request/response round trip as the client saw it.
pub struct Exchange {
    pub sent: Instant,
    /// Arrival of the first response byte; recorded only when asked for
    /// (the traced run), so the untraced loop does no extra clock reads.
    pub first: Option<Instant>,
    pub done: Instant,
    pub reply: Result<String, String>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(port: u16, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        // The client writes each request with one call; with Nagle on it
        // could still delay a request behind an unacknowledged one.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Conn { stream, buf: Vec::with_capacity(16 << 10) })
    }

    /// Send `line` and read one response. Exactly one request is ever
    /// outstanding on a connection, so the response ends with the last
    /// byte read.
    pub fn exchange(&mut self, line: &str, term: Terminator, stamp_first: bool) -> Exchange {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.buf.clear();
        let sent = Instant::now();
        let mut first = None;
        let result = self.stream.write_all(&request).and_then(|()| {
            let mut chunk = [0u8; 16 << 10];
            loop {
                let n = self.stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
                }
                if stamp_first && first.is_none() {
                    first = Some(Instant::now());
                }
                self.buf.extend_from_slice(&chunk[..n]);
                let complete = match term {
                    Terminator::Newline => self.buf.last() == Some(&b'\n'),
                    Terminator::EofMarker => self.buf.ends_with(b"# EOF\n"),
                };
                if complete {
                    return Ok(());
                }
            }
        });
        let done = Instant::now();
        let reply = match result {
            Ok(()) => String::from_utf8(std::mem::take(&mut self.buf))
                .map_err(|_| "response is not UTF-8".to_string()),
            Err(e) => Err(format!("{line:?}: {e}")),
        };
        Exchange { sent, first, done, reply }
    }
}
