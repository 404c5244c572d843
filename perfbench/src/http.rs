//! A minimal HTTP/1.1 keep-alive client and a `gleipnir serve` child
//! process on loopback.

use crate::gen::Job;
use crate::spans::Node;
use gleipnir_core::jsonfmt::json_str;
use gleipnir_server::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One framed response.
pub struct Response {
    pub status: u16,
    pub trace_id: Option<String>,
    pub body: String,
    /// Bytes sent until the response was fully framed.
    pub latency: Duration,
}

/// A persistent keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            carry: Vec::new(),
        })
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.roundtrip(&format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
    }

    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.roundtrip(&format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    /// `GET /trace/<id>` as span trees (empty when the trace is unavailable).
    pub fn trace(&mut self, id: Option<&str>) -> Vec<Node> {
        let Some(id) = id else { return Vec::new() };
        self.get(&format!("/trace/{id}"))
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| json::parse(&r.body).ok())
            .and_then(|v| {
                v.get("spans")?
                    .as_array()?
                    .iter()
                    .map(Node::from_json)
                    .collect::<Option<Vec<_>>>()
            })
            .unwrap_or_default()
    }

    fn roundtrip(&mut self, raw: &str) -> std::io::Result<Response> {
        let start = Instant::now();
        self.stream.write_all(raw.as_bytes())?;
        let mut chunk = [0u8; 64 * 1024];
        let head_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill(&mut chunk)?;
        };
        let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let header = |name: &str| {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_string())
            })
        };
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let trace_id = header("x-trace-id");
        let total = head_end + 4 + length;
        while self.carry.len() < total {
            self.fill(&mut chunk)?;
        }
        let latency = start.elapsed();
        let body = String::from_utf8_lossy(&self.carry[head_end + 4..total]).into_owned();
        self.carry.drain(..total);
        Ok(Response {
            status,
            trace_id,
            body,
            latency,
        })
    }

    fn fill(&mut self, chunk: &mut [u8]) -> std::io::Result<()> {
        let n = self.stream.read(chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.carry.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// HTTP workers and engine threads every benchmark server runs with
/// (the container's two cores).
pub const SERVER_WORKERS: usize = 2;
pub const SERVER_THREADS: usize = 2;

/// A running `gleipnir serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open: the server prints more after its address, and a closed
    /// pipe would make those prints fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the server on an ephemeral loopback port and waits until it
    /// prints its listen address.
    pub fn start(bin: &Path, cache_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &SERVER_WORKERS.to_string()])
            .args(["--threads", &SERVER_THREADS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(dir) = cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server did not report its address (got `{}`)",
                    line.trim()
                ))
            }
        }
    }
}

impl Server {
    /// Kills the server and waits for it to exit (idempotent).
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The server's `GET /metrics` JSON document.
    pub fn metrics(&self) -> Option<Json> {
        let mut conn = Conn::connect(self.addr).ok()?;
        let r = conn.get("/metrics").ok()?;
        json::parse(&r.body).ok()
    }

    /// Requests the server shed at capacity or refused by quota.
    pub fn refused(&self) -> f64 {
        let Some(v) = self.metrics() else { return 0.0 };
        let at = |a: &str, b: &str| v.get(a).and_then(|x| x.get(b)).and_then(Json::as_f64);
        at("queue", "shed_total").unwrap_or(0.0)
            + at("scheduler", "quota_rejections").unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The `POST /analyze` body for a job (`anytime` adds the early answer).
pub fn analyze_body(job: &Job, anytime: bool) -> String {
    format!(
        "{{\"source\":{},\"name\":{},\"width\":{},\"noise\":{}{}}}",
        json_str(&job.source),
        json_str(&job.name),
        job.width,
        json_str(job.noise),
        if anytime { ",\"anytime\":true" } else { "" }
    )
}

/// The raw JSON token of the first `"key":` field in `body` — enough to
/// compare floats bit for bit (the server prints the shortest exact form)
/// without parsing the whole document on the hot path.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag)? + tag.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// [`field`] parsed as a number.
pub fn number(body: &str, key: &str) -> Option<f64> {
    field(body, key)?.parse().ok()
}

/// The total size of the regular files under `dir` (the certificate store).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_raw_tokens() {
        let body =
            r#"{"ok":true,"diff":{"old_error_bound":1e-3,"error_bound":2.5e-2,"sdp_solves":0}}"#;
        assert_eq!(field(body, "error_bound"), Some("2.5e-2"));
        assert_eq!(number(body, "sdp_solves"), Some(0.0));
        assert_eq!(field(body, "missing"), None);
    }
}
