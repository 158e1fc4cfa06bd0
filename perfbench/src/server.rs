//! The served program: compiling the snapshot, launching `wikisearch
//! serve` on an ephemeral port, and killing and reaping it (with its shard
//! workers) whatever way the run ends.

use crate::client::{Conn, Terminator};
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a launched server (and its fleet) gets to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long killed processes get to disappear.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// Run `wikisearch build-snapshot --in kb --out snapshot`.
pub fn build_snapshot(bin: &Path, kb: &Path, snapshot: &Path) -> Result<(), String> {
    let out = Command::new(bin)
        .arg("build-snapshot")
        .arg("--in")
        .arg(kb)
        .arg("--out")
        .arg(snapshot)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "build-snapshot failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// The moments one launch passed through, for the setup spans.
pub struct LaunchTimes {
    pub spawned: Instant,
    pub banner: Instant,
    pub pong: Instant,
    pub ready: Instant,
}

pub struct Server {
    child: Option<Child>,
    /// Kept open so the server's final stdout line never meets a closed
    /// pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    pub port: u16,
    /// Every process this server stood for: itself and each shard worker
    /// seen in its STATS.
    pids: Vec<u32>,
    workers: Vec<u32>,
}

impl Server {
    /// Launch `serve --mmap snapshot --port 0` with the CPU-Par engine on
    /// two threads (plus a two-worker fleet without result cache when
    /// `fleet`), in a process group of its own so the fleet can be killed
    /// as one. Returns once the server answers `PING` and, with a fleet,
    /// STATS lists both worker PIDs.
    pub fn launch(
        bin: &Path,
        snapshot: &Path,
        fleet: bool,
    ) -> Result<(Server, LaunchTimes), String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg("--mmap").arg(snapshot);
        cmd.args(["--port", "0", "--backend", "cpu", "--threads", "2"]);
        if fleet {
            cmd.args(["--shard-workers", "2", "--cache-capacity", "0"]);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).process_group(0);
        let spawned = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let pid = child.id();
        // From here on, dropping `server` kills what was started.
        let mut server = Server {
            child: Some(child),
            _stdout: None,
            port: 0,
            pids: vec![pid],
            workers: Vec::new(),
        };
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader
            .read_line(&mut banner)
            .map_err(|e| format!("reading the serve banner: {e}"))?;
        server._stdout = Some(reader);
        // `wikisearch serving on 127.0.0.1:PORT (...)`
        server.port = banner
            .split_whitespace()
            .find_map(|w| w.strip_prefix("127.0.0.1:"))
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("serve did not print its port; banner {banner:?}"))?;
        let banner = Instant::now();

        let mut conn = Conn::connect(server.port, READY_TIMEOUT)
            .map_err(|e| format!("connecting to serve: {e}"))?;
        let x = conn.exchange("PING", Terminator::Newline, false);
        if x.reply.as_deref() != Ok("PONG\n") {
            return Err(format!("PING answered {:?}", x.reply));
        }
        let pong = x.done;
        let deadline = Instant::now() + READY_TIMEOUT;
        if fleet {
            loop {
                server.stats()?;
                if server.workers.len() == 2 {
                    break;
                }
                if Instant::now() > deadline {
                    return Err("the shard-worker fleet never came up".into());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok((server, LaunchTimes { spawned, banner, pong, ready: Instant::now() }))
    }

    fn note_workers(&mut self) {
        for &w in &self.workers {
            if !self.pids.contains(&w) {
                self.pids.push(w);
            }
        }
    }

    /// One `STATS` document over a fresh connection.
    pub fn stats(&mut self) -> Result<Value, String> {
        let mut conn =
            Conn::connect(self.port, READY_TIMEOUT).map_err(|e| format!("STATS: {e}"))?;
        let reply = conn.exchange("STATS", Terminator::Newline, false).reply?;
        let doc: Value = serde_json::from_str(&reply).map_err(|e| format!("STATS: {e}"))?;
        let workers = worker_pids(&doc);
        if !workers.is_empty() {
            self.workers = workers;
            self.note_workers();
        }
        Ok(doc)
    }

    /// Peak resident set (`VmHWM`) of the server plus its live workers, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kb = 0u64;
        for &pid in self.pids.first().into_iter().chain(&self.workers) {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
                .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
            kb += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| format!("no VmHWM for pid {pid}"))?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Kill the server's process group, reap the server, wait for the
    /// workers to go, and fail if any process this server stood for is
    /// still alive.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.kill();
        let deadline = Instant::now() + REAP_TIMEOUT;
        loop {
            let alive: Vec<u32> = self.pids.iter().copied().filter(|&p| is_alive(p)).collect();
            if alive.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("wikisearch processes still alive after shutdown: {alive:?}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            // The server leads its own process group, which its shard
            // workers inherit: one signal to the group stops the fleet.
            signal_group(child.id(), SIGKILL);
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

fn worker_pids(stats: &Value) -> Vec<u32> {
    stats
        .get("remote")
        .and_then(|r| r.get("workers"))
        .and_then(|w| w.get("pids"))
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(|p| p.as_u64().map(|p| p as u32)).collect())
        .unwrap_or_default()
}

/// A process counts as alive while it exists and is not a zombie (a
/// killed worker whose parent died is reaped by whoever adopted it).
fn is_alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => {
            let state = stat.rsplit_once(") ").and_then(|(_, rest)| rest.chars().next());
            !matches!(state, Some('Z') | Some('X'))
        }
        Err(_) => false,
    }
}

const SIGKILL: i32 = 9;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn signal_group(pgid: u32, sig: i32) {
    let Ok(pgid) = i32::try_from(pgid) else {
        return;
    };
    // SAFETY: kill(2) takes plain integers and touches no memory of this
    // process; a negative pid addresses the process group the server was
    // started in (`process_group(0)`), which holds only the server and
    // the workers it forked.
    unsafe {
        kill(-pgid, sig);
    }
}
