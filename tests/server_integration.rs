//! End-to-end tests of the HTTP serving layer, driven over loopback with
//! plain [`TcpStream`]s — no HTTP client library, by design: the server
//! speaks such a small HTTP/1.1 subset that a handful of raw requests
//! exercises it completely.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use recurring_patterns::core::{
    write_patterns_json, PatternIndex, RecurringPattern, RpGrowth, RpParams,
};
use recurring_patterns::prelude::{generate_clickstream, ShopConfig};
use recurring_patterns::server::{decode_dataset_body, Server, ServerConfig, ServerHandle};
use recurring_patterns::timeseries::io::write_timestamped;
use recurring_patterns::timeseries::TransactionDb;

/// A parsed response; `complete` asserts the body matched `Content-Length`,
/// i.e. the server never dropped a connection mid-write.
struct Http {
    status: u16,
    headers: HashMap<String, String>,
    body: String,
}

impl Http {
    fn header(&self, name: &str) -> &str {
        self.headers.get(&name.to_ascii_lowercase()).map(String::as_str).unwrap_or("")
    }

    fn counter(&self, name: &str) -> u64 {
        // Extracts `"name": N` from the /metrics JSON.
        let needle = format!("\"{name}\": ");
        let at = self.body.find(&needle).unwrap_or_else(|| panic!("no counter {name}"));
        self.body[at + needle.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .expect("counter value")
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

fn send_raw(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("receive");
    out
}

fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> Http {
    let raw = format!("{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    parse_response(&send_raw(addr, &raw))
}

/// Sends a request from its own thread; the receiver yields the response,
/// so the caller can bound how long it waits.
fn in_background(
    addr: SocketAddr,
    method: &'static str,
    target: &str,
    body: &str,
) -> mpsc::Receiver<Http> {
    let (tx, rx) = mpsc::channel();
    let (target, body) = (target.to_string(), body.to_string());
    std::thread::spawn(move || {
        let _ = tx.send(request(addr, method, &target, &body));
    });
    rx
}

fn bind(threads: usize, queue_depth: usize) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// The paper's Table 1 running example in the text upload format.
fn running_example_text() -> String {
    let db = recurring_patterns::timeseries::running_example_db();
    let mut out = Vec::new();
    recurring_patterns::timeseries::io::write_timestamped(&db, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// A dense database: `items` items all co-occurring at `len` consecutive
/// timestamps, so every of the `2^items - 1` candidate itemsets is a
/// recurring pattern — the candidate space explodes while each check stays
/// cheap, which is exactly what deadline and shutdown tests need.
fn dense_db_text(items: usize, len: usize) -> String {
    let row: Vec<String> = (0..items).map(|i| format!("i{i}")).collect();
    let row = row.join(" ");
    (0..len).map(|t| format!("{t}\t{row}\n")).collect()
}

#[test]
fn mine_caches_and_append_invalidates() {
    let handle = bind(2, 16);
    let addr = handle.addr();

    // Upload with hot params matching the query params below, so the first
    // mine exercises the incremental fast path.
    let up = request(
        addr,
        "POST",
        "/v1/datasets/shop?per=2&min-ps=3&min-rec=2",
        &running_example_text(),
    );
    assert_eq!(up.status, 201, "{}", up.body);
    assert!(up.body.contains("\"transactions\":12"), "{}", up.body);

    // First mine: a miss that runs the engine; the running example yields
    // the paper's 8 patterns.
    let mine = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(mine.status, 200, "{}", mine.body);
    assert_eq!(mine.header("x-rpm-cache"), "miss");
    assert_eq!(mine.header("x-rpm-patterns"), "8");
    assert_eq!(mine.body.lines().count(), 8);

    // Second mine: a cache hit — byte-identical body, and the /metrics
    // counters prove no second engine run happened.
    let again = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-rpm-cache"), "hit");
    assert_eq!(again.body, mine.body, "hit serves the first run's bytes");
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.counter("hits"), 1, "{}", metrics.body);
    assert_eq!(metrics.counter("runs"), 1, "one engine run despite two requests");
    assert!(metrics.counter("fastpath") >= 1, "hot params used the incremental scanners");

    // Appending a batch of ubiquitous `a b` transactions that is itself
    // half the stream pushes the dirty tail past the cost-model budget, so
    // the patch path refuses and the old content is invalidated: the same
    // query must re-mine.
    let batch = "16\ta b\n17\ta b\n18\ta b\n19\ta b\n20\ta b\n21\ta b\n";
    let append = request(addr, "POST", "/v1/datasets/shop/append", batch);
    assert_eq!(append.status, 200, "{}", append.body);
    assert!(append.body.contains("\"appended\":6"), "{}", append.body);
    assert!(append.body.contains("\"patched\":false"), "{}", append.body);
    let after = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(after.status, 200);
    assert_eq!(after.header("x-rpm-cache"), "miss", "append invalidated the entry");
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert!(metrics.counter("invalidations") >= 1, "{}", metrics.body);
    assert_eq!(metrics.counter("appends_patched"), 0, "{}", metrics.body);
    assert_eq!(metrics.counter("runs"), 2);

    // Time regressions are a conflict, and the dataset stays queryable.
    let bad = request(addr, "POST", "/v1/datasets/shop/append", "1\tbread\n");
    assert_eq!(bad.status, 409, "{}", bad.body);
    let still = request(addr, "GET", "/v1/datasets", "");
    assert!(still.body.contains("\"name\":\"shop\""), "{}", still.body);

    handle.shutdown();
    handle.join();
}

#[test]
fn append_patches_cache_in_place_and_active_sees_new_patterns() {
    let handle = bind(2, 16);
    let addr = handle.addr();

    // The running example plus a sparse `pad` tail (isolated occurrences,
    // never periodic, never a candidate) so the multi-transaction batch
    // below stays under the delta cost-model budget.
    let mut text = running_example_text();
    for ts in [20, 26, 32, 38, 44, 50, 56, 62] {
        text.push_str(&format!("{ts}\tpad\n"));
    }
    let up = request(addr, "POST", "/v1/datasets/shop?per=2&min-ps=3&min-rec=2", &text);
    assert_eq!(up.status, 201, "{}", up.body);

    // One engine run warms the cache and the dataset's pattern store.
    let mine = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(mine.status, 200, "{}", mine.body);
    assert_eq!(mine.header("x-rpm-cache"), "miss");
    assert_eq!(mine.header("x-rpm-patterns"), "8");

    // Nothing is active past the running example's end (ts=14).
    let before =
        request(addr, "GET", "/v1/datasets/shop/active?per=2&min-ps=3&min-rec=2&at=17", "");
    assert_eq!(before.status, 200, "{}", before.body);
    assert_eq!(before.header("x-rpm-active"), "0");

    // A multi-transaction batch of a brand-new item `z` forming two
    // interesting runs, journalled as one WAL record. Its dirty tail is
    // just its own six transactions — under the cost-model budget — so the
    // append delta-mines and patches the cache entry in place instead of
    // invalidating it.
    let lines = "70\tz\n71\tz\n72\tz\n76\tz\n77\tz\n78\tz\n";
    let append = request(addr, "POST", "/v1/datasets/shop/append", lines);
    assert_eq!(append.status, 200, "{}", append.body);
    assert!(append.body.contains("\"appended\":6"), "{}", append.body);
    assert!(append.body.contains("\"patched\":true"), "{}", append.body);

    // The very next mine is a cache HIT on the patched entry, already
    // carrying the ninth pattern {z} — no engine run in between — and its
    // body is byte-for-byte what a batch mine of the same rows exports.
    text.push_str(lines);
    let after = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(after.status, 200);
    assert_eq!(after.header("x-rpm-cache"), "hit", "append patched, not invalidated");
    assert_eq!(after.header("x-rpm-patterns"), "9");
    assert_eq!(after.body, batch_export(&text), "patched body equals the batch export");

    // A second append that changes existing patterns rather than adding
    // one: `a` and `b` gain support, and `z` at ts=80 extends its second
    // run to [76,80]. The splice must replace the stored {a}, {b}, {a,b}
    // and {z} with their re-measured versions.
    let lines = "80\ta b z\n81\ta b\n";
    let append = request(addr, "POST", "/v1/datasets/shop/append", lines);
    assert_eq!(append.status, 200, "{}", append.body);
    assert!(append.body.contains("\"patched\":true"), "{}", append.body);
    text.push_str(lines);
    let after = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(after.header("x-rpm-cache"), "hit", "second append patched too");
    assert!(after.body.contains("{\"start\":76,\"end\":80,\"ps\":4}"), "{}", after.body);
    assert_eq!(after.body, batch_export(&text), "re-measured patterns spliced in place");

    // The stabbing index rebuilt from the patched entry sees {z} active in
    // its first run [70,72], and answers exactly what an index over the
    // batch result exports.
    let active =
        request(addr, "GET", "/v1/datasets/shop/active?per=2&min-ps=3&min-rec=2&at=71", "");
    assert_eq!(active.status, 200, "{}", active.body);
    assert_eq!(active.header("x-rpm-cache"), "hit");
    let n_active: usize = active.header("x-rpm-active").parse().unwrap();
    assert!(n_active >= 1, "z is active at ts=71: {}", active.body);
    let (db, patterns) = batch_mine(&text);
    let stabbed: Vec<_> =
        PatternIndex::build(&patterns).active_at(71).into_iter().cloned().collect();
    let mut expected = Vec::new();
    write_patterns_json(&mut expected, db.items(), &stabbed).unwrap();
    assert_eq!(active.body.as_bytes(), expected, "active body equals the index's export");

    // Counters tell the same story: one engine run total, two patched
    // appends, delta mines that retained the old patterns and re-measured
    // the touched ones.
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(metrics.counter("runs"), 1, "{}", metrics.body);
    assert_eq!(metrics.counter("appends_patched"), 2, "{}", metrics.body);
    assert!(metrics.counter("patches") >= 2, "{}", metrics.body);
    assert!(metrics.counter("delta") >= 2, "{}", metrics.body);
    assert!(metrics.counter("delta_retained") >= 8, "{}", metrics.body);
    assert!(metrics.counter("delta_remined") >= 4, "{}", metrics.body);

    handle.shutdown();
    handle.join();
}

/// Batch-mines the upload text the server saw, through the server's own
/// decoder so item ids (and with them the canonical order) match.
fn batch_mine(text: &str) -> (TransactionDb, Vec<RecurringPattern>) {
    let db = decode_dataset_body(text.as_bytes()).expect("decodes");
    let patterns = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db).patterns;
    (db, patterns)
}

/// The JSON lines a batch mine of `text` exports.
fn batch_export(text: &str) -> String {
    let (db, patterns) = batch_mine(text);
    let mut out = Vec::new();
    write_patterns_json(&mut out, db.items(), &patterns).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn hot_fetches_never_wait_for_the_dataset_lock() {
    let handle = bind(4, 16);
    let addr = handle.addr();
    // The running example plus a sparse `pad` tail: 20 transactions, and
    // a small appended batch stays under the delta cost-model budget.
    let mut text = running_example_text();
    for ts in [20, 26, 32, 38, 44, 50, 56, 62] {
        text.push_str(&format!("{ts}\tpad\n"));
    }
    let up = request(addr, "POST", "/v1/datasets/shop?per=2&min-ps=3&min-rec=2", &text);
    assert_eq!(up.status, 201, "{}", up.body);
    let hot = "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2";
    // 15% of the 20 committed transactions resolves to the hot min-ps 3.
    let pct = "/v1/datasets/shop/mine?per=2&min-ps=15%25&min-rec=2";
    let warm = request(addr, "POST", hot, "");
    assert_eq!(warm.header("x-rpm-cache"), "miss");
    assert_eq!(warm.body, batch_export(&text));
    let mut fetches = 1;

    // While the test holds the dataset's write lock, hot fetches (the
    // percentage one resolved against the published head's transaction
    // count) are answered from the cache with the pre-lock bytes.
    let dataset = handle.registry().get("shop").expect("registered");
    let guard = dataset.write().unwrap();
    for target in [hot, pct] {
        let got = in_background(addr, "POST", target, "")
            .recv_timeout(Duration::from_secs(20))
            .expect("a hit never waits for the dataset lock");
        fetches += 1;
        assert_eq!(got.status, 200, "{target}: {}", got.body);
        assert_eq!(got.header("x-rpm-cache"), "hit", "{target}");
        assert_eq!(got.body, warm.body, "{target}");
    }
    // An append to the dataset waits for the lock, and a fetch meanwhile
    // still sees the committed version.
    let lines = "70\tz\n71\tz\n72\tz\n76\tz\n77\tz\n78\tz\n";
    let append = in_background(addr, "POST", "/v1/datasets/shop/append", lines);
    assert!(append.recv_timeout(Duration::from_millis(300)).is_err(), "the append waits");
    let parked = in_background(addr, "POST", hot, "")
        .recv_timeout(Duration::from_secs(20))
        .expect("a hit never waits for a parked append");
    fetches += 1;
    assert_eq!(parked.body, warm.body, "the parked append is not visible yet");
    drop(guard);
    let appended = append.recv_timeout(Duration::from_secs(60)).expect("the append completes");
    assert_eq!(appended.status, 200, "{}", appended.body);
    assert!(appended.body.contains("\"patched\":true"), "{}", appended.body);

    // After the acknowledged (patched) append, the next fetch is the new
    // content. 15% of the 26 transactions is now min-ps 4: another key.
    text.push_str(lines);
    let after = request(addr, "POST", hot, "");
    assert_eq!(after.header("x-rpm-cache"), "hit");
    assert_eq!(after.body, batch_export(&text), "the patched entry is the new content");
    let pct_after = request(addr, "POST", pct, "");
    let four = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=4&min-rec=2", "");
    fetches += 3;
    assert_eq!(pct_after.header("x-rpm-cache"), "miss", "resolved against 26 transactions");
    assert_eq!(four.header("x-rpm-cache"), "hit");
    assert_eq!(pct_after.body, four.body);

    // An append too large to patch invalidates: the next fetch mines the
    // new content.
    let lines = "82\ta b\n83\ta b\n84\ta b\n85\ta b\n86\ta b\n87\ta b\n";
    let append = request(addr, "POST", "/v1/datasets/shop/append", lines);
    assert!(append.body.contains("\"patched\":false"), "{}", append.body);
    text.push_str(lines);
    let after = request(addr, "POST", hot, "");
    fetches += 1;
    assert_eq!(after.header("x-rpm-cache"), "miss");
    assert_eq!(after.body, batch_export(&text));

    // After `replace=true`, no fetch returns the replaced content.
    let replaced = running_example_text();
    let up =
        request(addr, "POST", "/v1/datasets/shop?per=2&min-ps=3&min-rec=2&replace=true", &replaced);
    assert_eq!(up.status, 201, "{}", up.body);
    for cache in ["miss", "hit"] {
        let got = request(addr, "POST", hot, "");
        fetches += 1;
        assert_eq!(got.header("x-rpm-cache"), cache);
        assert_eq!(got.body, batch_export(&replaced), "the replacement's patterns");
        assert_ne!(got.body, after.body);
    }

    // The cache counts each fetch's lookup once, hit path or locked path.
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(metrics.counter("hits") + metrics.counter("misses"), fetches, "{}", metrics.body);
    handle.shutdown();
    handle.join();
}

#[test]
fn a_hot_fetch_hits_the_previous_version_until_the_append_publishes() {
    let handle = bind(4, 16);
    let addr = handle.addr();
    let mut text = running_example_text();
    for ts in [20, 26, 32, 38, 44, 50, 56, 62] {
        text.push_str(&format!("{ts}\tpad\n"));
    }
    let up = request(addr, "POST", "/v1/datasets/shop?per=2&min-ps=3&min-rec=2", &text);
    assert_eq!(up.status, 201, "{}", up.body);
    let hot = "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2";
    let warm = request(addr, "POST", hot, "");
    assert_eq!(warm.header("x-rpm-cache"), "miss");

    // The test thread is the writer: holding the dataset's write lock, it
    // appends in process, as the append handler does before its delta mine
    // and patch. A hot fetch meanwhile is a hit on the version before,
    // without waiting for the lock.
    let dataset = handle.registry().get("shop").expect("registered");
    let mut guard = dataset.write().unwrap();
    let in_process = "70\tz\n71\tz\n72\tz\n";
    let rows: Vec<(i64, Vec<String>)> =
        [70, 71, 72].into_iter().map(|ts| (ts, vec!["z".to_string()])).collect();
    guard.append_lines(&rows).expect("ordered rows");
    let during = in_background(addr, "POST", hot, "")
        .recv_timeout(Duration::from_secs(20))
        .expect("a hot fetch never waits for an append in progress");
    assert_eq!(during.header("x-rpm-cache"), "hit");
    assert_eq!(during.body, warm.body, "the version the head names, not the append's");
    drop(guard);

    // An HTTP append delta-mines both batches, splices its body from the
    // entry the head still names, and only then moves the head.
    let lines = "76\tz\n77\tz\n78\tz\n";
    let append = request(addr, "POST", "/v1/datasets/shop/append", lines);
    assert_eq!(append.status, 200, "{}", append.body);
    assert!(append.body.contains("\"patched\":true"), "{}", append.body);
    text.push_str(in_process);
    text.push_str(lines);
    let after = request(addr, "POST", hot, "");
    assert_eq!(after.header("x-rpm-cache"), "hit");
    assert_eq!(after.body, batch_export(&text), "the in-process rows are in the patched body");

    // The superseded entry was retired, as a patch and not an invalidation.
    let metrics = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(metrics.counter("entries"), 1, "{}", metrics.body);
    assert_eq!(metrics.counter("patches"), 1, "{}", metrics.body);
    assert_eq!(metrics.counter("invalidations"), 0, "{}", metrics.body);
    handle.shutdown();
    handle.join();
}

/// The Shop simulation in the text upload format.
fn shop_text(seed: u64) -> String {
    let config = ShopConfig { scale: 0.02, seed, ..ShopConfig::default() };
    let mut out = Vec::new();
    write_timestamped(&generate_clickstream(&config).db, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn a_replacing_upload_retires_the_replaced_contents_entries() {
    let handle = bind(2, 16);
    let addr = handle.addr();
    let upload = |text: &str, replace: bool| {
        let target = format!("/v1/datasets/shop?per=360&min-ps=10&min-rec=1&replace={replace}");
        let up = request(addr, "POST", &target, text);
        assert_eq!(up.status, 201, "{}", up.body);
    };
    let mine_both = || -> Vec<String> {
        ["per=360&min-ps=10&min-rec=1", "per=720&min-ps=5&min-rec=1"]
            .iter()
            .map(|q| {
                let got = request(addr, "POST", &format!("/v1/datasets/shop/mine?{q}"), "");
                assert_eq!(got.status, 200, "{}", got.body);
                got.header("x-rpm-cache").to_string()
            })
            .collect()
    };
    let cache = || {
        let metrics = request(addr, "GET", "/v1/metrics", "");
        (metrics.counter("entries"), metrics.counter("invalidations"))
    };
    let original = shop_text(7);
    upload(&original, false);
    assert_eq!(mine_both(), ["miss", "miss"]);
    let (entries, invalidations) = cache();
    assert_eq!(entries, 2);

    // Identical content names the same fingerprint: both entries stay.
    upload(&original, true);
    assert_eq!(cache(), (2, invalidations));
    assert_eq!(mine_both(), ["hit", "hit"]);

    // Different content retires both; the next mine is a miss.
    upload(&shop_text(8), true);
    assert_eq!(cache(), (0, invalidations + 2));
    assert_eq!(mine_both()[0], "miss");
    handle.shutdown();
    handle.join();
}

#[test]
fn active_queries_are_served_from_the_cached_index() {
    let handle = bind(2, 16);
    let addr = handle.addr();
    let up = request(addr, "POST", "/v1/datasets/shop", &running_example_text());
    assert_eq!(up.status, 201, "{}", up.body);

    // A cold active query mines to completion, then stabs the index.
    let active = request(addr, "GET", "/v1/datasets/shop/active?per=2&min-ps=3&min-rec=2&at=3", "");
    assert_eq!(active.status, 200, "{}", active.body);
    assert_eq!(active.header("x-rpm-cache"), "miss");
    let n_at_3: usize = active.header("x-rpm-active").parse().unwrap();
    assert!(n_at_3 > 0, "patterns are active at ts=3: {}", active.body);

    // The same params hit the entry the first query populated; a mine on
    // the same key also hits it.
    let warm = request(addr, "GET", "/v1/datasets/shop/active?per=2&min-ps=3&min-rec=2&at=3", "");
    assert_eq!(warm.header("x-rpm-cache"), "hit");
    assert_eq!(warm.body, active.body);
    let mine = request(addr, "POST", "/v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(mine.header("x-rpm-cache"), "hit");

    // Range form, and parameter validation.
    let range =
        request(addr, "GET", "/v1/datasets/shop/active?per=2&min-ps=3&min-rec=2&from=1&to=14", "");
    assert_eq!(range.status, 200);
    assert_eq!(range.header("x-rpm-active"), "8", "whole span touches every pattern");
    let missing = request(addr, "GET", "/v1/datasets/shop/active?per=2&min-ps=3&min-rec=2", "");
    assert_eq!(missing.status, 400);
    assert!(missing.body.contains("at=ts"), "{}", missing.body);

    // At a dataset's hot params a cold active query mines through its
    // pattern store, exactly as `mine` does: one fast-path run, folded into
    // the delta counters, with the batch miner's answer. (A trailing
    // transaction gives it its own fingerprint, so `shop`'s entry cannot
    // answer for it.)
    let text = running_example_text() + "15\tz\n";
    let up = request(addr, "POST", "/v1/datasets/hot?per=2&min-ps=3&min-rec=2", &text);
    assert_eq!(up.status, 201, "{}", up.body);
    let before = request(addr, "GET", "/v1/metrics", "");
    let hot = request(addr, "GET", "/v1/datasets/hot/active?per=2&min-ps=3&min-rec=2&at=3", "");
    assert_eq!(hot.status, 200, "{}", hot.body);
    assert_eq!(hot.header("x-rpm-cache"), "miss");
    let after = request(addr, "GET", "/v1/metrics", "");
    let gained = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(gained("fastpath"), 1, "{}", after.body);
    assert_eq!(gained("delta") + gained("delta_full"), 1, "{}", after.body);
    let (db, patterns) = batch_mine(&text);
    let stabbed: Vec<RecurringPattern> =
        PatternIndex::build(&patterns).active_at(3).into_iter().cloned().collect();
    let mut want = Vec::new();
    write_patterns_json(&mut want, db.items(), &stabbed).unwrap();
    assert_eq!(hot.body, String::from_utf8(want).unwrap());

    handle.shutdown();
    handle.join();
}

#[test]
fn deadline_yields_a_sound_partial_206() {
    let handle = bind(2, 16);
    let addr = handle.addr();
    // 10 items → 1023 candidate itemsets, all of them patterns.
    let up = request(addr, "POST", "/v1/datasets/dense", &dense_db_text(10, 30));
    assert_eq!(up.status, 201, "{}", up.body);

    // A zero deadline trips at the engine's first probe: 206, the abort
    // reason in a header, and whatever prefix was mined in the body.
    let m0 = request(addr, "GET", "/v1/metrics", "");
    let partial =
        request(addr, "POST", "/v1/datasets/dense/mine?per=2&min-ps=3&min-rec=1&timeout=0ms", "");
    assert_eq!(partial.status, 206, "{}", partial.body);
    assert_eq!(partial.header("x-rpm-abort"), "deadline exceeded");
    assert_eq!(partial.header("x-rpm-cache"), "miss");
    let m1 = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(m1.counter("partial") - m0.counter("partial"), 1, "{}", m1.body);
    assert_eq!(m1.counter("complete"), m0.counter("complete"), "{}", m1.body);

    // Partial results are never cached…
    let retry = request(addr, "POST", "/v1/datasets/dense/mine?per=2&min-ps=3&min-rec=1", "");
    assert_eq!(retry.status, 200, "{}", retry.body);
    assert_eq!(retry.header("x-rpm-cache"), "miss", "the 206 must not have been cached");
    assert_eq!(retry.header("x-rpm-patterns"), "1023");
    // …and the complete retry folds in exactly one batch mine's counters.
    let m2 = request(addr, "GET", "/v1/metrics", "");
    let gained = |name: &str| m2.counter(name) - m1.counter(name);
    let db = decode_dataset_body(dense_db_text(10, 30).as_bytes()).unwrap();
    let batch = RpGrowth::new(RpParams::new(2, 3, 1)).mine(&db);
    assert_eq!(gained("complete"), 1, "{}", m2.body);
    assert_eq!(gained("patterns_found"), 1023, "{}", m2.body);
    assert_eq!(gained("candidates_checked"), batch.stats.candidates_checked as u64);

    // …and the partial is sound: every line of it appears verbatim in the
    // complete result.
    let complete: std::collections::HashSet<&str> = retry.body.lines().collect();
    for line in partial.body.lines() {
        assert!(complete.contains(line), "unsound partial line: {line}");
    }
    assert!(partial.body.lines().count() < 1023, "deadline actually cut the run short");

    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_gets_backpressure_503() {
    // One worker, one waiting slot. Connection A occupies the worker (its
    // request head is deliberately unfinished), B fills the queue, so C
    // must be rejected by the acceptor without queueing.
    let handle = bind(1, 1);
    let addr = handle.addr();

    let mut conn_a = TcpStream::connect(addr).unwrap();
    conn_a.write_all(b"GET /v1/healthz HTTP/1.1\r\n").unwrap(); // head unfinished
    #[allow(clippy::disallowed_methods)] // test choreography
    std::thread::sleep(Duration::from_millis(150)); // worker picks A up, blocks reading
    let mut conn_b = TcpStream::connect(addr).unwrap();
    conn_b.write_all(b"GET /v1/healthz HTTP/1.1\r\n").unwrap();
    #[allow(clippy::disallowed_methods)] // test choreography
    std::thread::sleep(Duration::from_millis(150)); // B sits in the queue

    let rejected = parse_response(&send_raw(addr, "GET /v1/healthz HTTP/1.1\r\n\r\n"));
    assert_eq!(rejected.status, 503, "{}", rejected.body);
    assert!(rejected.body.contains("queue full"), "{}", rejected.body);
    let metrics_raw = {
        // The worker is still busy with A; finish A first so the pool can
        // serve B and then our metrics request.
        conn_a.write_all(b"\r\n").unwrap();
        let mut out = String::new();
        conn_a.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "A completed normally: {out}");
        conn_b.write_all(b"\r\n").unwrap();
        let mut out = String::new();
        conn_b.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "B completed normally: {out}");
        send_raw(addr, "GET /v1/metrics HTTP/1.1\r\n\r\n")
    };
    let metrics = parse_response(&metrics_raw);
    assert!(metrics.counter("rejected_backpressure") >= 1, "{}", metrics.body);

    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_mining_as_complete_responses() {
    let handle = bind(2, 16);
    let addr = handle.addr();
    // 24 items → ~16.7M candidate itemsets: minutes of mining, so the
    // cancellation token is what ends the run. The 30s timeout is only a
    // backstop so a broken shutdown path cannot hang the suite.
    let up = request(addr, "POST", "/v1/datasets/huge", &dense_db_text(24, 48));
    assert_eq!(up.status, 201, "{}", up.body);

    let miner = std::thread::spawn(move || {
        request(addr, "POST", "/v1/datasets/huge/mine?per=2&min-ps=3&min-rec=1&timeout=30s", "")
    });
    // Let the mine get going, then pull the plug.
    #[allow(clippy::disallowed_methods)] // test choreography
    std::thread::sleep(Duration::from_millis(120));
    let bye = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(bye.status, 200, "{}", bye.body);

    // The in-flight request drains as a *complete* response (parse_response
    // asserts body == Content-Length): a sound partial, tagged cancelled.
    let response = miner.join().expect("mining request thread");
    assert_eq!(response.status, 206, "{}", response.body);
    assert_eq!(response.header("x-rpm-abort"), "cancelled");

    handle.join();
    assert!(TcpStream::connect(addr).is_err(), "listener closed after drain");
}

#[test]
fn unknown_routes_datasets_and_params_error_cleanly() {
    let handle = bind(1, 4);
    let addr = handle.addr();

    let ghost = request(addr, "GET", "/v1/datasets/ghost/active?per=2&min-ps=3&at=1", "");
    assert_eq!(ghost.status, 404);
    assert!(ghost.body.contains("\"code\":\"not_found\""), "{}", ghost.body);
    assert_eq!(request(addr, "POST", "/v1/datasets/ghost/mine?per=2&min-ps=3", "").status, 404);
    assert_eq!(request(addr, "POST", "/v1/datasets/ghost/append", "1\ta\n").status, 404);
    assert_eq!(request(addr, "GET", "/totally/unknown", "").status, 404);
    let bad_method = request(addr, "DELETE", "/v1/metrics", "");
    assert_eq!(bad_method.status, 405);
    assert!(bad_method.body.contains("\"code\":\"method_not_allowed\""), "{}", bad_method.body);

    let up = request(addr, "POST", "/v1/datasets/d", &running_example_text());
    assert_eq!(up.status, 201);
    let dup = request(addr, "POST", "/v1/datasets/d", &running_example_text());
    assert_eq!(dup.status, 409);
    assert!(dup.body.contains("\"code\":\"conflict\""), "{}", dup.body);
    assert!(dup.body.contains("replace=true"), "{}", dup.body);
    // Explicit replacement is the sanctioned way past the conflict.
    let replaced = request(addr, "POST", "/v1/datasets/d?replace=true", &running_example_text());
    assert_eq!(replaced.status, 201, "{}", replaced.body);
    assert_eq!(
        request(addr, "POST", "/v1/datasets/d?replace=maybe", &running_example_text()).status,
        400
    );
    assert_eq!(
        request(addr, "POST", "/v1/datasets/bad%20name%21", &running_example_text()).status,
        400
    );

    let no_per = request(addr, "POST", "/v1/datasets/d/mine?min-ps=3", "");
    assert_eq!(no_per.status, 400);
    assert!(no_per.body.contains("per"), "{}", no_per.body);
    assert!(no_per.body.contains("\"code\":\"bad_request\""), "{}", no_per.body);
    let bad_timeout =
        request(addr, "POST", "/v1/datasets/d/mine?per=2&min-ps=3&timeout=1e300h", "");
    assert_eq!(bad_timeout.status, 400);
    assert!(bad_timeout.body.contains("invalid parameters"), "{}", bad_timeout.body);
    let bad_ps = request(addr, "POST", "/v1/datasets/d/mine?per=2&min-ps=200%25", "");
    assert_eq!(bad_ps.status, 400, "{}", bad_ps.body);

    handle.shutdown();
    handle.join();
}

#[test]
fn unversioned_paths_answer_404_with_the_envelope() {
    let handle = bind(1, 4);
    let addr = handle.addr();
    assert_eq!(request(addr, "POST", "/v1/datasets/shop", &running_example_text()).status, 201);

    // The pre-`/v1` aliases are gone: every bare path is an unknown route,
    // answered with the uniform envelope and no deprecation headers.
    for (method, path) in [
        ("GET", "/healthz"),
        ("POST", "/datasets/shop"),
        ("POST", "/datasets/shop/mine?per=2&min-ps=3&min-rec=2"),
        ("DELETE", "/datasets"),
    ] {
        let answer = request(addr, method, path, &running_example_text());
        assert_eq!(answer.status, 404, "{method} {path}: {}", answer.body);
        assert!(answer.body.contains("\"error\":{\"code\":\"not_found\""), "{}", answer.body);
        assert_eq!(answer.header("deprecation"), "", "{method} {path}");
        assert_eq!(answer.header("link"), "", "{method} {path}");
    }

    // 413: an oversized declared body is refused before routing, even on
    // a path that would not route — the rejection is transport-level.
    let huge = send_raw(
        addr,
        "POST /datasets/shop/append HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
    );
    let huge = parse_response(&huge);
    assert_eq!(huge.status, 413, "{}", huge.body);
    assert!(huge.body.contains("\"error\":{\"code\":\"payload_too_large\""), "{}", huge.body);

    handle.shutdown();
    handle.join();
}
