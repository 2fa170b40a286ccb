//! The load generator's side of the wire: a one-request-per-connection
//! HTTP/1.1 client with per-phase timings, and the `rpm serve` child
//! process it drives (spawn, SIGKILL, `/proc` CPU and peak RSS).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seconds a single request may take before the client gives up.
const IO_TIMEOUT_S: u64 = 120;

/// One answered request with the client-side timings of its phases.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// TCP connect (handshake) time.
    pub connect_ms: f64,
    /// From connect done until the first response byte.
    pub ttfb_ms: f64,
    /// From the first to the last response byte.
    pub transfer_ms: f64,
    /// From starting the connect until the last response byte.
    pub total_ms: f64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    pub fn header_num(&self, name: &str) -> Option<usize> {
        self.header(name)?.trim().parse().ok()
    }

    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The exact bytes the client sends for one request.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Sends one request on a fresh connection and reads the response to EOF
/// (the server answers every request with `Connection: close`).
pub fn call(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> std::io::Result<Reply> {
    let raw = request_bytes(method, target, body);
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(IO_TIMEOUT_S)))?;
    stream.set_write_timeout(Some(Duration::from_secs(IO_TIMEOUT_S)))?;
    stream.set_nodelay(true)?;
    stream.write_all(&raw)?;
    let mut buf = Vec::with_capacity(64 << 10);
    let mut chunk = [0u8; 64 << 10];
    let n = stream.read(&mut chunk)?;
    let first = Instant::now();
    buf.extend_from_slice(&chunk[..n]);
    if n > 0 {
        stream.read_to_end(&mut buf)?;
    }
    let done = Instant::now();
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let (status, headers, body) = parse_response(&buf)?;
    Ok(Reply {
        status,
        headers,
        body,
        connect_ms: ms(started, connected),
        ttfb_ms: ms(connected, first),
        transfer_ms: ms(first, done),
        total_ms: ms(started, done),
        request_bytes: raw.len(),
        response_bytes: buf.len(),
    })
}

type Parsed = (u16, Vec<(String, String)>, Vec<u8>);

fn parse_response(buf: &[u8]) -> std::io::Result<Parsed> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let head_end =
        buf.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| bad("no response head"))?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect::<Vec<_>>();
    let body = buf[head_end + 4..].to_vec();
    if let Some(len) = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        if len != body.len() {
            return Err(bad("body shorter than Content-Length"));
        }
    }
    Ok((status, headers, body))
}

/// Pids of every live server child, so the run watchdog can stop them.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn lock_children() -> std::sync::MutexGuard<'static, Vec<u32>> {
    CHILDREN.lock().unwrap_or_else(|e| e.into_inner())
}

/// SIGKILLs every server child still registered (watchdog path).
pub fn kill_all_children() {
    for pid in lock_children().drain(..) {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

/// A running `rpm serve` child.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `rpm serve --threads 2 --data-dir DIR --fsync always` on an
    /// ephemeral loopback port and returns once it reports its address —
    /// which it does only after recovering `DIR`.
    pub fn spawn(rpm: &Path, data_dir: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(rpm)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--fsync", "always"])
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        lock_children().push(child.id());
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!("rpm serve exited early: {seen}")));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let text = rest.split_whitespace().next().unwrap_or("");
                break text.parse::<SocketAddr>().map_err(|e| {
                    std::io::Error::other(format!("bad listen address {text:?}: {e}"))
                })?;
            }
            seen.push_str(&line);
        };
        // Keep draining stderr so the child never blocks on a full pipe;
        // the thread ends at EOF, when the child exits.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        Ok(Self { child, addr, drain: Some(drain) })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU the server has used so far, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        let fields: Vec<&str> =
            stat.rsplit_once(") ").map(|(_, r)| r.split_whitespace().collect()).unwrap_or_default();
        let ticks = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        // utime and stime are fields 14 and 15 of the stat line; the
        // kernel reports them in USER_HZ (100 per second) ticks.
        (ticks(11) + ticks(12)) * 10.0
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILLs the server and waits for it (a crash, as far as the data
    /// directory knows).
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let pid = self.child.id();
        lock_children().retain(|&p| p != pid);
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}
