//! Closed- and open-loop load generators over a fixed list of requests.
//!
//! Closed loop: each connection sends its next request as soon as the
//! previous response is in. Open loop (wrk2-style): request `i` is due at
//! `t0 + i / rate` whatever happened before it, and its latency is charged
//! from that due time, so a stalled response also charges every request
//! that queued behind it (the coordinated-omission correction).

use crate::client::{Conn, Terminator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A response slower than this counts as a failed operation.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Stats,
    Top,
    Metrics,
}

impl OpKind {
    pub fn terminator(self) -> Terminator {
        match self {
            OpKind::Metrics => Terminator::EofMarker,
            _ => Terminator::Newline,
        }
    }

    /// The diagnostic verb in rotation slot `slot`.
    pub fn diag(slot: usize) -> OpKind {
        [OpKind::Stats, OpKind::Top, OpKind::Metrics][slot % 3]
    }
}

pub struct Op {
    pub kind: OpKind,
    /// The request line without its newline, e.g. `QUERY xml sql`.
    pub line: String,
}

impl Op {
    pub fn query(keywords: &str) -> Op {
        Op { kind: OpKind::Query, line: format!("QUERY {keywords}") }
    }

    pub fn diag(kind: OpKind) -> Op {
        let line = match kind {
            OpKind::Stats => "STATS",
            OpKind::Top => "TOP",
            OpKind::Metrics => "METRICS",
            OpKind::Query => unreachable!("a query is not a diagnostic verb"),
        };
        Op { kind, line: line.to_string() }
    }

    /// The keywords of a `QUERY` line.
    pub fn keywords(&self) -> &str {
        self.line.strip_prefix("QUERY ").unwrap_or("")
    }
}

/// One completed (or failed) request.
pub struct Record {
    /// Index into the op list.
    pub op: usize,
    /// When the request was due: its scheduled time in an open loop, the
    /// moment its connection became free in a closed loop.
    pub due: Instant,
    /// When its connection became free (the previous response was in).
    pub ready: Instant,
    pub sent: Instant,
    pub first: Option<Instant>,
    pub done: Instant,
    pub reply: Result<String, String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Record {
    /// Client latency charged from the due time.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    /// How late the generator itself sent: the send time past the later
    /// of the due time and the moment the connection was free. Waiting
    /// for the server is not lag; a slow generator thread is.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due.max(self.ready)))
    }
}

/// When a closed loop stops issuing requests.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Issue requests until this instant (the list wraps around).
    At(Instant),
    /// Issue each op of the list exactly once.
    Exhausted,
}

/// Send one op and wrap the exchange as a record; reconnects after a
/// failure so the rest of the run can go on.
pub fn run_op(
    conn: &mut Option<Conn>,
    port: u16,
    ops: &[Op],
    i: usize,
    due: Instant,
    ready: Instant,
    stamp_first: bool,
) -> Record {
    let op = &ops[i % ops.len()];
    if conn.is_none() {
        *conn = Conn::connect(port, REPLY_TIMEOUT).ok();
    }
    let Some(c) = conn.as_mut() else {
        let now = Instant::now();
        return Record {
            op: i,
            due,
            ready,
            sent: now,
            first: None,
            done: now,
            reply: Err(format!("cannot connect to 127.0.0.1:{port}")),
        };
    };
    let x = c.exchange(&op.line, op.kind.terminator(), stamp_first);
    if x.reply.is_err() {
        *conn = None;
    }
    Record { op: i, due, ready, sent: x.sent, first: x.first, done: x.done, reply: x.reply }
}

/// Closed loop on `conns` connections taking ops in list order.
pub fn closed_loop(
    port: u16,
    conns: usize,
    ops: &[Op],
    stop: Stop,
    stamp_first: bool,
) -> Vec<Record> {
    let next = &AtomicUsize::new(0);
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(move || {
                    let mut conn = Conn::connect(port, REPLY_TIMEOUT).ok();
                    let mut out = Vec::new();
                    let mut ready = Instant::now();
                    loop {
                        if let Stop::At(t) = stop {
                            if Instant::now() >= t {
                                break;
                            }
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(stop, Stop::Exhausted) && i >= ops.len() {
                            break;
                        }
                        let rec = run_op(&mut conn, port, ops, i, ready, ready, stamp_first);
                        ready = rec.done;
                        out.push(rec);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.op);
    records
}

/// Open loop: op `j` is due at `t0 + j / rate`, for `j` in `0..count`, on
/// connection `j % conns`.
pub fn open_loop(
    port: u16,
    conns: usize,
    ops: &[Op],
    count: usize,
    rate: f64,
    t0: Instant,
    stamp_first: bool,
) -> Vec<Record> {
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::connect(port, REPLY_TIMEOUT).ok();
                    let mut out = Vec::new();
                    let mut ready = t0;
                    for j in (c..count).step_by(conns) {
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let rec = run_op(&mut conn, port, ops, j, due, ready, stamp_first);
                        ready = rec.done;
                        out.push(rec);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.op);
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A stub server answering `{}` at once, except that the request line
    /// `QUERY stall` is answered 200 ms late.
    fn stub_server() -> u16 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let stream = stream.unwrap();
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { return };
                        if line == "QUERY stall" {
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        if writer.write_all(b"{}\n").is_err() {
                            return;
                        }
                    }
                });
            }
        });
        port
    }

    #[test]
    fn open_loop_charges_queued_requests_for_a_stall() {
        let port = stub_server();
        let ops: Vec<Op> =
            (0..40).map(|i| Op::query(if i == 5 { "stall" } else { "fast" })).collect();
        // One connection at 100 req/s: ops 6.. are due every 10 ms while
        // op 5's response is held for 200 ms.
        let t0 = Instant::now() + Duration::from_millis(20);
        let recs = open_loop(port, 1, &ops, ops.len(), 100.0, t0, false);
        assert_eq!(recs.len(), 40);
        assert!(recs.iter().all(|r| r.reply.is_ok()));

        // The stalled request itself.
        assert!(recs[5].latency_ms() >= 195.0, "stalled op: {}", recs[5].latency_ms());
        // The next request was due 10 ms after the stalled one but could
        // only go out once it was answered: charged from its due time it
        // carries ~190 ms, though its own round trip took almost nothing.
        let next = &recs[6];
        assert!(next.latency_ms() >= 180.0, "queued op: {}", next.latency_ms());
        assert!(ms(next.done - next.sent) < 50.0, "service time {}", ms(next.done - next.sent));
        // Every op due during the stall is charged part of it.
        for r in &recs[6..24] {
            let due_after_stall = ms(r.due - recs[5].due);
            assert!(r.latency_ms() >= 195.0 - due_after_stall, "op {}", r.op);
        }
        // Requests due after the backlog cleared see no stall.
        assert!(recs[39].latency_ms() < 50.0, "late op: {}", recs[39].latency_ms());

        // Generator lag is reported apart from the backlog: the queued op
        // waited ~190 ms behind the stall, but the generator itself sent
        // it as soon as the connection was free.
        let backlog = ms(next.sent - next.due);
        assert!(backlog >= 180.0, "backlog {backlog}");
        let lag_p99 = crate::stats::percentile(recs.iter().map(Record::lag_ms).collect(), 0.99);
        assert!(lag_p99.is_finite() && lag_p99 < 50.0, "generator lag p99 {lag_p99}");
    }

    #[test]
    fn closed_loop_measures_from_the_send_and_stops_at_the_deadline() {
        let port = stub_server();
        let ops: Vec<Op> =
            (0..8).map(|i| Op::query(if i == 3 { "stall" } else { "fast" })).collect();
        let recs = closed_loop(port, 1, &ops, Stop::Exhausted, true);
        assert_eq!(recs.len(), 8);
        assert!(recs[3].latency_ms() >= 195.0);
        // In a closed loop the next request waits for the stalled one and
        // is then timed from its own send: no stall is charged to it.
        assert!(recs[4].latency_ms() < 50.0);
        assert!(recs.iter().all(|r| r.first.is_some_and(|f| f >= r.sent && f <= r.done)));
    }
}
