//! End-to-end replication tests over loopback: a primary streaming its WAL
//! to a follower, write fencing, divergence injection through a tampering
//! TCP proxy, and failover promotion.
//!
//! Test choreography sleeps between polls of an eventually-consistent
//! system; the serving-layer no-sleep rule does not apply here.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use recurring_patterns::server::{
    FsyncPolicy, PersistConfig, Persistence, Server, ServerConfig, ServerHandle, WalRecord,
};

struct Http {
    status: u16,
    headers: HashMap<String, String>,
    body: String,
}

impl Http {
    fn header(&self, name: &str) -> &str {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str).unwrap_or("")
    }
}

fn parse_response(raw: &str) -> Http {
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body separator");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 =
        status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Http { status, headers, body: body.to_string() }
}

fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> Http {
    let raw = format!("{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    parse_response(&out)
}

fn running_example_text() -> String {
    let db = recurring_patterns::timeseries::running_example_db();
    let mut out = Vec::new();
    recurring_patterns::timeseries::io::write_timestamped(&db, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpm-server-repl-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

fn durable(dir: &Path) -> Option<PersistConfig> {
    Some(PersistConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Never, snapshot_every: 4096 })
}

fn bind_primary(dir: &Path) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 8,
        persist: durable(dir),
        repl_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("bind primary")
}

fn bind_replica(dir: &Path, primary_repl: &str) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 8,
        persist: durable(dir),
        replica_of: Some(primary_repl.to_string()),
        ..ServerConfig::default()
    })
    .expect("bind replica")
}

/// Drops the handle without `join()`, skipping the graceful snapshot flush
/// — the closest in-process stand-in for SIGKILL (the real-signal variant
/// lives in scripts/verify.sh).
fn crash(handle: ServerHandle) {
    handle.shutdown();
    drop(handle);
}

/// Polls `probe` until it returns `Some`, panicking after `secs` seconds.
fn wait_for<T>(what: &str, secs: u64, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fingerprint_of(addr: SocketAddr, name: &str) -> Option<String> {
    let list = request(addr, "GET", "/v1/datasets", "");
    assert_eq!(list.status, 200, "{}", list.body);
    let row_at = list.body.find(&format!("\"name\":\"{name}\""))?;
    let tail = &list.body[row_at..];
    let needle = "\"fingerprint\":\"";
    let at = tail.find(needle)? + needle.len();
    Some(tail[at..at + 16].to_string())
}

/// Waits until `replica` lists `name` with the same fingerprint `primary`
/// currently reports, then returns it.
fn wait_converged(primary: SocketAddr, replica: SocketAddr, name: &str) -> String {
    wait_for(&format!("replica convergence on {name:?}"), 20, || {
        let want = fingerprint_of(primary, name)?;
        let got = fingerprint_of(replica, name)?;
        (want == got).then_some(want)
    })
}

/// Pulls one compact counter out of the `"repl"` group of `/v1/metrics`.
fn repl_counter(addr: SocketAddr, key: &str) -> u64 {
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(metrics.status, 200, "{}", metrics.body);
    let group_at = metrics.body.find("\"repl\":").expect("repl metrics group");
    let tail = &metrics.body[group_at..];
    let needle = format!("\"{key}\":");
    let at = tail.find(&needle).unwrap_or_else(|| panic!("counter {key} in {tail}")) + needle.len();
    tail[at..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect(key)
}

const MINE: &str = "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2";

#[test]
fn replica_bootstraps_streams_and_stays_byte_identical() {
    let pdir = temp_dir("stream-p");
    let rdir = temp_dir("stream-r");
    let primary = bind_primary(&pdir);
    let paddr = primary.addr();
    let repl_addr = primary.repl_addr().expect("primary repl listener").to_string();

    // State that exists *before* the replica connects exercises bootstrap;
    // hot params match MINE so the cache-warmth check below is meaningful.
    let upload = "/v1/datasets/shop?per=2&min-ps=3&min-rec=2";
    assert_eq!(request(paddr, "POST", upload, &running_example_text()).status, 201);
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop/append", "20\tbread\tjam\n").status, 200);

    let replica = bind_replica(&rdir, &repl_addr);
    let raddr = replica.addr();
    wait_converged(paddr, raddr, "shop");
    wait_for("replica readiness", 20, || {
        (request(raddr, "GET", "/v1/readyz", "").status == 200).then_some(())
    });

    // Live streaming: appends and a brand-new dataset arrive while both
    // ends are up.
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop/append", "21\tbread\n").status, 200);
    assert_eq!(request(paddr, "POST", "/v1/datasets/extra", &running_example_text()).status, 201);
    wait_converged(paddr, raddr, "shop");
    wait_converged(paddr, raddr, "extra");

    // Byte-identical mine output on both ends.
    let p_mine = request(paddr, "POST", MINE, "");
    let r_mine = request(raddr, "POST", MINE, "");
    assert_eq!(p_mine.status, 200, "{}", p_mine.body);
    assert_eq!(r_mine.body, p_mine.body, "replica mine output differs from primary");

    // Cache warmth across the apply path: the mine above warmed the
    // replica's pattern store, so the next shipped append patches its
    // cache entry in place and the re-mine is a hit.
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop/append", "22\tbread\tjam\n").status, 200);
    let fp = wait_converged(paddr, raddr, "shop");
    let p_mine = request(paddr, "POST", MINE, "");
    let r_mine = request(raddr, "POST", MINE, "");
    assert_eq!(r_mine.body, p_mine.body, "post-append mine output differs (fp {fp})");
    assert_eq!(r_mine.header("x-rpm-cache"), "hit", "shipped append should patch the cache");

    // Both metric groups tell the same story.
    assert_eq!(repl_counter(paddr, "followers"), 1);
    assert!(repl_counter(paddr, "records_shipped") >= 3);
    assert!(repl_counter(paddr, "snapshots_shipped") >= 1);
    assert!(repl_counter(raddr, "records_applied") >= 3);
    assert!(repl_counter(raddr, "snapshots_applied") >= 1);
    assert_eq!(repl_counter(raddr, "divergences"), 0);

    replica.shutdown();
    replica.join();
    primary.shutdown();
    primary.join();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn writes_to_the_replica_are_fenced_with_421_at_the_primary() {
    let pdir = temp_dir("fence-p");
    let rdir = temp_dir("fence-r");
    let primary = bind_primary(&pdir);
    let paddr = primary.addr();
    let repl_addr = primary.repl_addr().expect("repl listener").to_string();
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);

    let replica = bind_replica(&rdir, &repl_addr);
    let raddr = replica.addr();
    wait_converged(paddr, raddr, "shop");

    // Reads are served locally …
    assert_eq!(request(raddr, "POST", MINE, "").status, 200);
    // … writes answer 421 with the canonical /v1 path at the primary, for
    // appends and registrations alike.
    let fenced = request(raddr, "POST", "/v1/datasets/shop/append", "20\tbread\n");
    assert_eq!(fenced.status, 421, "{}", fenced.body);
    assert!(fenced.body.contains("\"code\":\"misdirected\""), "{}", fenced.body);
    assert_eq!(fenced.header("location"), format!("http://{paddr}/v1/datasets/shop/append"));
    let register = request(raddr, "POST", "/v1/datasets/other", "1\ta\n");
    assert_eq!(register.status, 421, "{}", register.body);
    assert_eq!(register.header("location"), format!("http://{paddr}/v1/datasets/other"));
    // The fenced append never reached either journal.
    assert_eq!(fingerprint_of(paddr, "shop"), fingerprint_of(raddr, "shop"));

    replica.shutdown();
    replica.join();
    primary.shutdown();
    primary.join();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// A TCP proxy between follower and primary that, once armed, flips one
/// bit inside the first primary→follower frame whose payload contains the
/// marker, recomputing the frame CRC so the corruption arrives "valid" —
/// modelling silent corruption beyond what checksums catch.
struct TamperProxy {
    addr: String,
    armed: Arc<AtomicBool>,
    tampered: Arc<AtomicBool>,
}

const MARKER: &[u8] = b"zzmarker";

/// CRC-32 (IEEE), bitwise — must match the WAL/replication framing CRC.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

impl TamperProxy {
    fn spawn(upstream: String) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        let armed = Arc::new(AtomicBool::new(false));
        let tampered = Arc::new(AtomicBool::new(false));
        {
            let armed = armed.clone();
            let tampered = tampered.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    let Ok(client) = conn else { break };
                    let Ok(server) = TcpStream::connect(&upstream) else { continue };
                    let (armed, tampered) = (armed.clone(), tampered.clone());
                    let (c2, s2) = (
                        client.try_clone().expect("clone client"),
                        server.try_clone().expect("clone server"),
                    );
                    // Follower→primary (acks): raw copy.
                    std::thread::spawn(move || copy_raw(c2, s2));
                    // Primary→follower: frame-aware, tampering copy.
                    std::thread::spawn(move || copy_frames(server, client, &armed, &tampered));
                }
            });
        }
        Self { addr, armed, tampered }
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    fn has_tampered(&self) -> bool {
        self.tampered.load(Ordering::SeqCst)
    }
}

fn copy_raw(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = to.shutdown(std::net::Shutdown::Both);
                return;
            }
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    return;
                }
            }
        }
    }
}

fn copy_frames(mut from: TcpStream, mut to: TcpStream, armed: &AtomicBool, tampered: &AtomicBool) {
    loop {
        let mut head = [0u8; 8];
        if from.read_exact(&mut head).is_err() {
            let _ = to.shutdown(std::net::Shutdown::Both);
            return;
        }
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if len > 1 << 28 {
            return; // stream out of sync; give up
        }
        let mut payload = vec![0u8; len];
        if from.read_exact(&mut payload).is_err() {
            return;
        }
        if armed.load(Ordering::SeqCst) && !tampered.load(Ordering::SeqCst) {
            if let Some(at) = payload.windows(MARKER.len()).position(|w| w == MARKER) {
                payload[at + MARKER.len() - 1] ^= 0x01; // "zzmarker" → "zzmarkes"
                head[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
                tampered.store(true, Ordering::SeqCst);
            }
        }
        if to.write_all(&head).is_err() || to.write_all(&payload).is_err() {
            return;
        }
    }
}

#[test]
fn injected_bit_flip_is_detected_counted_and_healed_by_resync() {
    let pdir = temp_dir("flip-p");
    let rdir = temp_dir("flip-r");
    let primary = bind_primary(&pdir);
    let paddr = primary.addr();
    let repl_addr = primary.repl_addr().expect("repl listener").to_string();
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);

    let proxy = TamperProxy::spawn(repl_addr);
    let replica = bind_replica(&rdir, &proxy.addr);
    let raddr = replica.addr();
    wait_converged(paddr, raddr, "shop");

    // Corrupt the next live record mid-flight. The follower applies the
    // tampered row, its fingerprint walks off the primary's chain, and
    // both ends must notice from the very next acknowledgement.
    proxy.arm();
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop/append", "20\tzzmarker\n").status, 200);
    wait_for("the proxy to corrupt a frame", 20, || proxy.has_tampered().then_some(()));
    wait_for("divergence detection on both ends", 20, || {
        (repl_counter(paddr, "divergences") >= 1 && repl_counter(raddr, "divergences") >= 1)
            .then_some(())
    });
    wait_for("a forced resync", 20, || {
        (repl_counter(paddr, "forced_resyncs") >= 1 && repl_counter(raddr, "resyncs") >= 1)
            .then_some(())
    });

    // The re-bootstrap (now through the clean proxy) heals the replica:
    // same fingerprint, byte-identical mine output, marker row intact.
    wait_converged(paddr, raddr, "shop");
    let p_mine = request(paddr, "POST", MINE, "");
    let r_mine = request(raddr, "POST", MINE, "");
    assert_eq!(r_mine.body, p_mine.body, "replica failed to reconverge after divergence");

    replica.shutdown();
    replica.join();
    primary.shutdown();
    primary.join();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn promotion_lifts_the_fence_and_continues_the_journal_without_gaps() {
    let pdir = temp_dir("promote-p");
    let rdir = temp_dir("promote-r");
    let primary = bind_primary(&pdir);
    let paddr = primary.addr();
    let repl_addr = primary.repl_addr().expect("repl listener").to_string();
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);
    assert_eq!(request(paddr, "POST", "/v1/datasets/shop/append", "20\tbread\tjam\n").status, 200);

    let replica = bind_replica(&rdir, &repl_addr);
    let raddr = replica.addr();
    wait_converged(paddr, raddr, "shop");
    wait_for("replica readiness", 20, || {
        (request(raddr, "GET", "/v1/readyz", "").status == 200).then_some(())
    });

    // Promoting the *primary* is refused; it never was a replica.
    assert_eq!(request(paddr, "POST", "/v1/admin/promote", "").status, 409);

    // The primary dies; the caught-up replica is promoted and takes writes.
    crash(primary);
    let promoted = request(raddr, "POST", "/v1/admin/promote", "");
    assert_eq!(promoted.status, 200, "{}", promoted.body);
    assert!(promoted.body.contains("\"promoted\":true"), "{}", promoted.body);
    let ready = request(raddr, "GET", "/v1/readyz", "");
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert!(ready.body.contains("\"role\":\"promoted\""), "{}", ready.body);
    assert_eq!(request(raddr, "POST", "/v1/admin/promote", "").status, 409, "second promote");

    assert_eq!(request(raddr, "POST", "/v1/datasets/shop/append", "21\tbread\n").status, 200);
    assert_eq!(request(raddr, "POST", "/v1/datasets/shop/append", "22\tbread\tjam\n").status, 200);
    assert_eq!(request(raddr, "POST", MINE, "").status, 200);
    let promoted_fp = fingerprint_of(raddr, "shop").expect("promoted fingerprint");
    // Crash (no graceful flush, which would fold the WAL into a final
    // snapshot) so the journal is left exactly as the appends wrote it.
    crash(replica);

    // The journal on disk is one contiguous sequence: the bootstrap
    // snapshot at seq N, then WAL records N+1, N+2, … across the handoff —
    // a later node can replicate or recover from the promoted one with no
    // seam.
    let persist = Persistence::open(durable(&rdir).unwrap()).expect("reopen replica dir");
    let (header, _) = persist.load_snapshot("shop").expect("replica snapshot");
    let replay = persist.read_wal("shop").expect("read wal").expect("wal exists");
    assert!(!replay.records.is_empty(), "promoted appends must be journalled");
    let mut want = header.seq;
    for record in &replay.records {
        want += 1;
        assert_eq!(record.seq(), want, "journal gap at seq {want}");
        assert!(matches!(record, WalRecord::Append { .. }));
    }
    drop(persist);

    // And recovery over that journal reproduces the promoted state.
    let reborn = bind_primary(&rdir);
    assert_eq!(fingerprint_of(reborn.addr(), "shop").as_deref(), Some(promoted_fp.as_str()));
    reborn.shutdown();
    reborn.join();

    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn readyz_reports_not_ready_until_bootstrap_and_force_promote_overrides() {
    // A primary that answers readiness trivially.
    let pdir = temp_dir("ready-p");
    let primary = bind_primary(&pdir);
    let ready = request(primary.addr(), "GET", "/v1/readyz", "");
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert!(ready.body.contains("\"role\":\"primary\""), "{}", ready.body);
    crash(primary);

    // A replica chasing a primary that will never answer: alive but not
    // ready, and promotion is refused until forced.
    let dead_port = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").to_string()
        // listener drops here; connections to the port are refused
    };
    let rdir = temp_dir("ready-r");
    let replica = bind_replica(&rdir, &dead_port);
    let raddr = replica.addr();
    assert_eq!(request(raddr, "GET", "/v1/healthz", "").status, 200, "liveness is unaffected");
    let ready = request(raddr, "GET", "/v1/readyz", "");
    assert_eq!(ready.status, 503, "{}", ready.body);
    assert!(ready.body.contains("\"code\":\"not_ready\""), "{}", ready.body);
    assert_eq!(request(raddr, "POST", "/v1/admin/promote", "").status, 409, "not bootstrapped");
    let forced = request(raddr, "POST", "/v1/admin/promote?force=true", "");
    assert_eq!(forced.status, 200, "{}", forced.body);
    assert_eq!(request(raddr, "GET", "/v1/readyz", "").status, 200, "promoted node is ready");
    // A force-promoted empty node accepts writes immediately.
    assert_eq!(request(raddr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);

    replica.shutdown();
    replica.join();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
