//! The real server as a child process, and a keep-alive HTTP client.
//!
//! Every server runs with the defaults a user gets — default transport,
//! default scan thread count — and with every `MOLQ_*` variable removed
//! from its environment, so settings such as CI's `MOLQ_THREADS=4` never
//! leak into a measurement. The transport and thread count the server
//! reports in `/stats` are recorded with each result.

use molq_server::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How to start `molq serve` for one dataset.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The `molq` binary.
    pub molq: PathBuf,
    /// Input CSVs, in set order.
    pub inputs: Vec<PathBuf>,
    /// `--bounds` value.
    pub bounds: String,
    /// `--epsilon` value for approximate builds.
    pub epsilon: Option<f64>,
}

impl ServeSpec {
    fn args(&self, snapshot_dir: &Path) -> Vec<String> {
        let mut args = vec!["serve".to_string()];
        for input in &self.inputs {
            args.push("--input".into());
            args.push(input.display().to_string());
        }
        args.extend(["--bounds".into(), self.bounds.clone()]);
        args.extend(["--port".into(), "0".into()]);
        args.extend(["--snapshot-dir".into(), snapshot_dir.display().to_string()]);
        if let Some(e) = self.epsilon {
            args.extend(["--epsilon".into(), e.to_string()]);
        }
        args
    }
}

/// A running `molq serve` child.
pub struct Server {
    child: Child,
    /// The bound address.
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

/// `cmd` with every `MOLQ_*` variable removed from the child's environment.
pub fn isolated(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MOLQ_") {
            cmd.env_remove(&key);
        }
    }
    cmd
}

impl Server {
    /// Spawns the server over `snapshot_dir` and returns once it is bound
    /// (its banner is read from stderr as soon as it is written, so the
    /// caller's clock is not quantized by polling sleeps).
    pub fn spawn(spec: &ServeSpec, snapshot_dir: &Path) -> Result<Server, String> {
        let mut child = isolated(&spec.molq)
            .args(spec.args(snapshot_dir))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", spec.molq.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
        let mut banner = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before binding:\n{banner}"));
                }
                Ok(_) => {}
            }
            banner += &line;
            if let Some(raw) = line.strip_prefix("address   : http://") {
                break raw
                    .trim()
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad address {raw:?}: {e}"))?;
            }
        };
        Ok(Server {
            child,
            addr,
            drain: Some(drain(stderr)),
        })
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Kills the server (SIGKILL, a crash as far as durability goes) and
    /// waits until it has exited.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Keeps reading a child's stderr so it never blocks on a full pipe.
fn drain(mut stderr: BufReader<ChildStderr>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = stderr.read_to_end(&mut sink);
    })
}

/// A decoded response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Parsed body (`Json::Null` when the body was not JSON).
    pub body: Json,
}

/// A keep-alive HTTP/1.1 connection (any method; the server's own test
/// client has no `DELETE`).
pub struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the whole response, returning it with
    /// the round-trip time (request write to last body byte).
    pub fn call(&mut self, method: &str, target: &str) -> Result<(Reply, Duration), String> {
        let head = format!("{method} {target} HTTP/1.1\r\nHost: molq\r\nContent-Length: 0\r\n\r\n");
        let t0 = Instant::now();
        self.stream
            .get_mut()
            .write_all(head.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.stream
            .read_line(&mut line)
            .map_err(|e| format!("status: {e}"))?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.stream
                .read_line(&mut line)
                .map_err(|e| format!("header: {e}"))?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|e| format!("length: {e}"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| format!("body: {e}"))?;
        let elapsed = t0.elapsed();
        let text = String::from_utf8_lossy(&body);
        Ok((
            Reply {
                status,
                body: Json::parse(&text).unwrap_or(Json::Null),
            },
            elapsed,
        ))
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> Result<(Reply, Duration), String> {
        self.call("GET", target)
    }
}
