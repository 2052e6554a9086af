//! The `cnnperf serve` process under test and the load generators that
//! drive it over a Unix socket: open loop (one connection, a sender on
//! the calling thread and one reader thread) and closed loop (two
//! connections, one thread each).

use crate::plan::{Qos, Req};
use crate::stats::Dist;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long to wait for outstanding responses after the last send.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);
/// Connections of the closed-loop generator.
const CLOSED_CONNECTIONS: usize = 2;

/// A running `cnnperf serve --socket` child.
pub struct ServerProc {
    child: Child,
    sock: PathBuf,
}

impl ServerProc {
    /// Start the server on `dir/serve.sock`, arming its regressor and
    /// stale-cache tiers from the corpus at `corpus`, and wait until it
    /// answers a ping.
    pub fn start(bin: &Path, dir: &Path, corpus: &Path) -> Result<ServerProc, String> {
        let sock = dir.join("serve.sock");
        let _ = std::fs::remove_file(&sock);
        let err = std::fs::File::create(dir.join("serve.err")).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .args(["serve", "--socket"])
            .arg(&sock)
            .args(["--workers", "2", "--tiers", "regressor,cache"])
            .env("CNNPERF_CORPUS", corpus)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc { child, sock };
        let t0 = Instant::now();
        loop {
            if let Ok(reply) = server.call(r#"{"op":"ping","id":"ready"}"#) {
                if reply.contains("\"ok\":true") {
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("server did not answer a ping within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.sock).map_err(|e| format!("connect: {e}"))
    }

    /// Send one frame on a fresh connection and return the reply line.
    pub fn call(&self, frame: &str) -> Result<String, String> {
        let mut s = self.connect()?;
        s.set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.write_all(frame.as_bytes())
            .and_then(|_| s.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Ok(line)
    }

    /// The server's counters, read through its `stats` op.
    pub fn counters(&self) -> Result<BTreeMap<String, u64>, String> {
        let line = self.call(r#"{"op":"stats","id":"stats"}"#)?;
        let v = serde_json::parse(line.trim()).map_err(|e| format!("stats reply: {e}"))?;
        let Some(serde_json::Value::Obj(fields)) = v.get("result").and_then(|r| r.get("counters"))
        else {
            return Err("stats reply has no counters".into());
        };
        Ok(fields
            .iter()
            .filter_map(|(k, v)| match v {
                serde_json::Value::Int(i) => Some((k.clone(), *i as u64)),
                _ => None,
            })
            .collect())
    }

    /// Ask the server to drain and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.call(r#"{"op":"drain","id":"stop"}"#);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server did not drain within 20 s".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Reset this process's `VmHWM` to its current resident set, so the load
/// generator's own traffic is left out of the peak read next.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn estimate_frame(id: usize, model: &str, device: &str, qos: Qos) -> String {
    format!(
        "{{\"op\":\"estimate\",\"id\":\"r{id}\",\"model\":\"{model}\",\"device\":\"{device}\",\"qos\":\"{}\"}}\n",
        qos.name()
    )
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Served; carries the `ipc` field exactly as printed.
    Ok { ipc: String, outcome: String },
    /// Refused under load (`overloaded`).
    Shed,
    /// Anything else: wrong id, malformed reply, another error kind.
    Bad(String),
    /// No reply before the timeout.
    Missing,
}

/// One request's fate in a load step.
#[derive(Debug, Clone)]
pub struct Sample {
    pub qos: Qos,
    pub key: usize,
    /// Send time minus due time (0 in a closed loop, where a request is
    /// due when it is sent).
    pub late_ms: f64,
    /// Reply time minus due time; `None` without a reply.
    pub latency_ms: Option<f64>,
    pub reply: Reply,
}

/// Result of sending one schedule.
#[derive(Debug, Clone)]
pub struct Step {
    pub samples: Vec<Sample>,
    /// From the first send to the last reply.
    pub wall_s: f64,
}

impl Step {
    pub fn latencies(&self, qos: Qos) -> Dist {
        // a refused or missing request misses every latency limit
        Dist::new(
            self.samples
                .iter()
                .filter(|s| s.qos == qos)
                .map(|s| match s.reply {
                    Reply::Ok { .. } => s.latency_ms.unwrap_or(f64::MAX),
                    _ => f64::MAX,
                })
                .collect(),
        )
    }

    pub fn lateness(&self) -> Dist {
        Dist::new(self.samples.iter().map(|s| s.late_ms).collect())
    }

    pub fn shed(&self, qos: Qos) -> usize {
        self.samples
            .iter()
            .filter(|s| s.qos == qos && s.reply == Reply::Shed)
            .count()
    }

    /// Requests served per second over the step.
    pub fn served_per_s(&self) -> f64 {
        let served = self
            .samples
            .iter()
            .filter(|s| matches!(s.reply, Reply::Ok { .. }))
            .count();
        served as f64 / self.wall_s
    }
}

fn parse_reply(line: &str) -> (Option<usize>, Reply) {
    let Ok(v) = serde_json::parse(line.trim()) else {
        return (None, Reply::Bad(format!("unparseable reply {line:?}")));
    };
    let id = match v.get("id") {
        Some(serde_json::Value::Str(s)) => s.strip_prefix('r').and_then(|n| n.parse().ok()),
        _ => None,
    };
    let reply = match (v.get("ok"), v.get("error")) {
        (Some(serde_json::Value::Bool(true)), _) => {
            // keep the printed digits: the IPC check compares them exactly
            let ipc = line
                .split("\"ipc\":")
                .nth(1)
                .map(|rest| rest.split([',', '}']).next().unwrap_or("").to_string())
                .unwrap_or_default();
            let outcome = match v.get("result").and_then(|r| r.get("outcome")) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            Reply::Ok { ipc, outcome }
        }
        (_, Some(serde_json::Value::Str(kind))) if kind == "overloaded" => Reply::Shed,
        _ => Reply::Bad(line.trim().to_string()),
    };
    (id, reply)
}

/// Match reply lines to requests. `due(i)` is when request `i` was due,
/// `sent` when it went out.
fn collect(
    reqs: &[Req],
    sent: &[Instant],
    due: &dyn Fn(usize) -> Instant,
    received: &[(Instant, String)],
) -> Step {
    let n = reqs.len();
    let ms = |later: Instant, earlier: Instant| {
        later.saturating_duration_since(earlier).as_secs_f64() * 1e3
    };
    let mut samples: Vec<Sample> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Sample {
            qos: r.qos,
            key: r.key,
            late_ms: ms(sent[i], due(i)),
            latency_ms: None,
            reply: Reply::Missing,
        })
        .collect();
    for (at, line) in received {
        match parse_reply(line) {
            (Some(i), reply) if i < n && samples[i].reply == Reply::Missing => {
                samples[i].latency_ms = Some(ms(*at, due(i)));
                samples[i].reply = reply;
            }
            (_, reply) => {
                // an unknown or repeated id: charge it to no request, but
                // make the step fail its correctness check
                if let Some(s) = samples.iter_mut().find(|s| s.reply == Reply::Missing) {
                    s.reply = Reply::Bad(format!("reply with unexpected id: {reply:?}"));
                }
            }
        }
    }
    let first = sent.iter().min().copied().unwrap_or_else(Instant::now);
    let last = received.iter().map(|r| r.0).max().unwrap_or(first);
    Step {
        samples,
        wall_s: last.saturating_duration_since(first).as_secs_f64(),
    }
}

/// Send `reqs` open-loop (each at its due time, whatever came back) and
/// collect every reply. `frame_of` renders request `i`.
pub fn run_schedule(
    server: &ServerProc,
    reqs: &[Req],
    frame_of: &dyn Fn(usize, &Req) -> String,
) -> Result<Step, String> {
    let frames: Vec<String> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| frame_of(i, r))
        .collect();
    let stream = server.connect()?;
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let n = reqs.len();
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, received) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || read_replies(stream, n));
        let mut sent: Vec<Instant> = Vec::with_capacity(n);
        for (req, frame) in reqs.iter().zip(&frames) {
            let due = start + Duration::from_micros(req.due_us);
            sleep_until(due);
            sent.push(Instant::now());
            if writer.write_all(frame.as_bytes()).is_err() {
                break;
            }
        }
        (sent, reader.join().expect("reply reader panicked"))
    });
    if sent.len() < n {
        return Err(format!(
            "connection closed after {} of {n} sends",
            sent.len()
        ));
    }
    let due = |i: usize| start + Duration::from_micros(reqs[i].due_us);
    Ok(collect(reqs, &sent, &due, &received))
}

fn read_replies(stream: UnixStream, n: usize) -> Vec<(Instant, String)> {
    let mut lines: Vec<(Instant, String)> = Vec::with_capacity(n);
    let mut r = BufReader::new(stream);
    while lines.len() < n {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => lines.push((Instant::now(), line)),
        }
    }
    lines
}

/// Send `reqs` closed-loop: request `i` goes on connection
/// `i % CLOSED_CONNECTIONS`, and each connection keeps `outstanding`
/// requests in flight, sending its next one as each reply comes back
/// (due times are ignored). Latency runs from send to reply.
pub fn run_closed(
    server: &ServerProc,
    reqs: &[Req],
    frame_of: &dyn Fn(usize, &Req) -> String,
    outstanding: usize,
) -> Result<Step, String> {
    let n = reqs.len();
    let frames: Vec<String> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| frame_of(i, r))
        .collect();
    let streams = (0..CLOSED_CONNECTIONS)
        .map(|_| {
            let s = server.connect()?;
            s.set_read_timeout(Some(RESPONSE_TIMEOUT))
                .map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let frames = &frames;
    let per_conn = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || -> Result<_, String> {
                    let mine: Vec<usize> = (c..n).step_by(CLOSED_CONNECTIONS).collect();
                    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(stream);
                    let mut sent: Vec<(usize, Instant)> = Vec::with_capacity(mine.len());
                    let mut received: Vec<(Instant, String)> = Vec::with_capacity(mine.len());
                    let mut send = |sent: &mut Vec<(usize, Instant)>| {
                        let i = mine[sent.len()];
                        sent.push((i, Instant::now()));
                        writer
                            .write_all(frames[i].as_bytes())
                            .map_err(|e| e.to_string())
                    };
                    while sent.len() < mine.len().min(outstanding) {
                        send(&mut sent)?;
                    }
                    while received.len() < mine.len() {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => received.push((Instant::now(), line)),
                        }
                        if sent.len() < mine.len() {
                            send(&mut sent)?;
                        }
                    }
                    Ok((sent, received))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop connection panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let now = Instant::now();
    let mut sent = vec![now; n];
    let mut received = Vec::with_capacity(n);
    for (s, r) in per_conn {
        for (i, at) in s {
            sent[i] = at;
        }
        received.extend(r);
    }
    let due = |i: usize| sent[i];
    Ok(collect(reqs, &sent, &due, &received))
}

/// Sleep until `t`. No spinning: on a small host a spinning generator
/// takes a core from the server it measures; the timer's slack shows up
/// as lateness instead.
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_into_their_kinds() {
        let ok = r#"{"id":"r12","ok":true,"result":{"model":"a","device":"b","outcome":"served:regressor","ipc":0.512345678,"latency_ms":null}}"#;
        assert_eq!(
            parse_reply(ok),
            (
                Some(12),
                Reply::Ok {
                    ipc: "0.512345678".into(),
                    outcome: "served:regressor".into()
                }
            )
        );
        let shed = r#"{"id":"r3","ok":false,"error":"overloaded","detail":"x"}"#;
        assert_eq!(parse_reply(shed), (Some(3), Reply::Shed));
        assert!(matches!(parse_reply("nope").1, Reply::Bad(_)));
    }
}
