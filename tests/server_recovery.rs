//! Fault-injection tests of the durable serving layer: a server is started
//! with a data directory, fed over the /v1 HTTP surface, then "crashed" —
//! the handle is dropped without the graceful-shutdown snapshot flush, so
//! the next bind sees exactly what an abrupt process death would leave on
//! disk: a WAL tail past the last snapshot, possibly torn or bit-flipped.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};

use recurring_patterns::server::{FsyncPolicy, PersistConfig, Server, ServerConfig, ServerHandle};

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
    let declared: usize =
        headers.get("content-length").expect("Content-Length").parse().expect("numeric length");
    assert_eq!(body.len(), declared, "body truncated mid-write: {status_line}");
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

/// A fresh per-test data directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rpm-server-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

fn bind_durable(dir: &Path, snapshot_every: u64) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 8,
        persist: Some(PersistConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            snapshot_every,
        }),
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Drops the handle without `join()`, skipping the graceful final-snapshot
/// flush — the closest in-process stand-in for SIGKILL. Everything the
/// server acknowledged is already in the WAL (writes are journalled before
/// they are applied), but no snapshot of the post-crash state exists.
fn crash(handle: ServerHandle) {
    handle.shutdown();
    drop(handle);
}

/// Pulls `"fingerprint":"…"` for `name` out of the `GET /v1/datasets` body.
fn fingerprint_of(addr: SocketAddr, name: &str) -> String {
    let list = request(addr, "GET", "/v1/datasets", "");
    assert_eq!(list.status, 200, "{}", list.body);
    let row_at = list.body.find(&format!("\"name\":\"{name}\"")).expect("dataset listed");
    let tail = &list.body[row_at..];
    let needle = "\"fingerprint\":\"";
    let at = tail.find(needle).expect("fingerprint field") + needle.len();
    tail[at..at + 16].to_string()
}

const MINE: &str = "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2";

#[test]
fn kill_and_restart_round_trips_fingerprint_and_mine_output() {
    let dir = temp_dir("roundtrip");
    let first = bind_durable(&dir, 1024);
    let addr = first.addr();
    assert_eq!(request(addr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);
    assert_eq!(request(addr, "POST", "/v1/datasets/shop/append", "20\tbread\tjam\n").status, 200);
    let before_fp = fingerprint_of(addr, "shop");
    let before = request(addr, "POST", MINE, "");
    assert_eq!(before.status, 200, "{}", before.body);
    crash(first);

    let second = bind_durable(&dir, 1024);
    let report = second.recovery().expect("durable bind reports recovery");
    assert_eq!(report.recovered, vec!["shop".to_string()]);
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    let addr = second.addr();
    assert_eq!(fingerprint_of(addr, "shop"), before_fp, "recovered fingerprint differs");
    let after = request(addr, "POST", MINE, "");
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(after.body, before.body, "recovered mine output is not byte-identical");

    // Appends keep working after recovery: the WAL picked up where it left.
    assert_eq!(request(addr, "POST", "/v1/datasets/shop/append", "21\tbread\n").status, 200);
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_truncated_and_the_surviving_prefix_served() {
    let dir = temp_dir("torn");
    let first = bind_durable(&dir, 1024);
    let addr = first.addr();
    assert_eq!(request(addr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);
    let clean_fp = fingerprint_of(addr, "shop");
    assert_eq!(request(addr, "POST", "/v1/datasets/shop/append", "20\tbread\tjam\n").status, 200);
    crash(first);

    // Tear the last record: chop a few bytes off the WAL, as a crashed
    // kernel flush would.
    let wal = dir.join("shop.wal");
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
    file.set_len(len - 3).expect("tear tail");
    drop(file);

    let second = bind_durable(&dir, 1024);
    let addr = second.addr();
    // The torn append is gone; the registered upload before it survives.
    assert_eq!(fingerprint_of(addr, "shop"), clean_fp, "prefix before the tear must survive");
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert!(metrics.body.contains("\"torn_tail_truncations\": 1"), "{}", metrics.body);
    let mined = request(addr, "POST", MINE, "");
    assert_eq!(mined.status, 200, "{}", mined.body);
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_wal_record_is_dropped_with_everything_after_it() {
    let dir = temp_dir("bitflip");
    let first = bind_durable(&dir, 1024);
    let addr = first.addr();
    assert_eq!(request(addr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);
    let clean_fp = fingerprint_of(addr, "shop");
    let clean_len = std::fs::metadata(dir.join("shop.wal")).expect("wal").len();
    assert_eq!(request(addr, "POST", "/v1/datasets/shop/append", "20\tbread\tjam\n").status, 200);
    crash(first);

    // Flip one payload bit inside the append record; its CRC no longer
    // matches, so recovery must stop right before it and truncate.
    let wal = dir.join("shop.wal");
    let mut bytes = std::fs::read(&wal).expect("read wal");
    let at = clean_len as usize + 10; // inside the appended record
    bytes[at] ^= 0x40;
    std::fs::write(&wal, &bytes).expect("rewrite wal");

    let second = bind_durable(&dir, 1024);
    let addr = second.addr();
    assert_eq!(fingerprint_of(addr, "shop"), clean_fp, "state rolls back to the last good record");
    assert_eq!(std::fs::metadata(&wal).expect("wal").len(), clean_len, "corrupt tail truncated");
    let mined = request(addr, "POST", MINE, "");
    assert_eq!(mined.status, 200, "{}", mined.body);
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_snapshot_plus_wal_tail_replays_to_the_latest_state() {
    let dir = temp_dir("stale-snap");
    // snapshot_every=2: the register + first append trigger a snapshot;
    // later appends live only in the WAL tail.
    let first = bind_durable(&dir, 2);
    let addr = first.addr();
    assert_eq!(request(addr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);
    assert_eq!(request(addr, "POST", "/v1/datasets/shop/append", "20\tbread\tjam\n").status, 200);
    assert!(dir.join("shop.snap").exists(), "snapshot must have been cut");
    assert_eq!(request(addr, "POST", "/v1/datasets/shop/append", "21\tbread\n").status, 200);
    assert_eq!(request(addr, "POST", "/v1/datasets/shop/append", "22\tbread\tjam\n").status, 200);
    let before_fp = fingerprint_of(addr, "shop");
    let before = request(addr, "POST", MINE, "");
    crash(first);

    let second = bind_durable(&dir, 2);
    let addr = second.addr();
    assert_eq!(fingerprint_of(addr, "shop"), before_fp, "WAL tail must replay over the snapshot");
    let after = request(addr, "POST", MINE, "");
    assert_eq!(after.body, before.body);
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert!(metrics.body.contains("\"recovered_datasets\": 1"), "{}", metrics.body);
    // Recovered responses still speak the versioned surface.
    assert_eq!(after.header("deprecation"), "", "/v1 is not deprecated");
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn measure_checkpoints_survive_replay_and_keep_batch_appends_on_the_delta_path() {
    let dir = temp_dir("warm-delta");
    let first = bind_durable(&dir, 1024);
    let addr = first.addr();
    // The running example plus sparse `pad` rows: a 20-transaction base so a
    // six-row batch stays under the delta planner's tail budget.
    let mut text = running_example_text();
    for ts in [20, 26, 32, 38, 44, 50, 56, 62] {
        text.push_str(&format!("{ts}\tpad\n"));
    }
    let up = request(addr, "POST", "/v1/datasets/shop?per=2&min-ps=3&min-rec=2", &text);
    assert_eq!(up.status, 201, "{}", up.body);
    assert_eq!(request(addr, "POST", MINE, "").status, 200);
    let batch = "70\tz\n71\tz\n72\tz\n76\tz\n77\tz\n78\tz\n";
    let before = request(addr, "POST", "/v1/datasets/shop/append", batch);
    assert_eq!(before.status, 200, "{}", before.body);
    assert!(
        before.body.contains("\"patched\":true"),
        "pre-crash batch full-mined: {}",
        before.body
    );
    crash(first);

    // Replay rebuilds the miner's per-item scan states append by append,
    // and the warming mine refills the store's multi-item resume cache, so
    // the very first post-restart batch append patches the hot cache in
    // place instead of falling back to a full re-mine.
    let second = bind_durable(&dir, 1024);
    let addr = second.addr();
    let batch = "84\tz\n85\tz\n86\tz\n90\tz\n91\tz\n92\tz\n";
    let after = request(addr, "POST", "/v1/datasets/shop/append", batch);
    assert_eq!(after.status, 200, "{}", after.body);
    assert!(after.body.contains("\"patched\":true"), "recovered store cold: {}", after.body);
    let metrics = request(addr, "GET", "/v1/metrics", "");
    // The metrics collector restarted with the process, so any checkpoint
    // hits it reports were earned by the post-restart delta mine: `z`
    // occurs before that batch, so its live state counts.
    let hits: u64 = metrics
        .body
        .split("\"delta_checkpoint_hits\": ")
        .nth(1)
        .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .expect("delta_checkpoint_hits in /v1/metrics");
    assert!(hits > 0, "replayed checkpoints never resumed a scan: {}", metrics.body);
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}
