//! The three closed-loop workloads against a real `rpm serve` child.
//!
//! Every run has the same skeleton, so every end-to-end metric is measured
//! on every workload:
//!
//! 1. **setup**, repeated: spawn a fresh server on an empty data directory,
//!    upload every dataset and wait for its warming hot mine (`setup_s` is
//!    the median);
//! 2. the **main phase**, the workload proper, timed with the server's
//!    `/proc` CPU and `/v1/metrics` counters sampled around it;
//! 3. a fixed-size **census** of the routes the main phase does not drive
//!    (stabs, fetches, appends, or a Shop-14 grid sweep), so those metrics
//!    exist on this workload too;
//! 4. **recovery** cycles: SIGKILL, restart on the same data directory,
//!    first complete hot fetch (`recover_s` is the median);
//! 5. **checks** of every answer against in-process references.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rpm_core::{
    write_patterns_json, IncrementalMiner, MiningSession, PatternIndex, RecurringPattern,
    ResolvedParams,
};
use rpm_timeseries::{split_at, Pcg32, TransactionDb};

use crate::client::{call, Reply, ServerProc};
use crate::inputs::{
    append_body, batches, continuation, generate, grid_cells, mix, off_grid_hot, rows_of, shuffle,
    stabs, Kind, Row, Scales, Stab, Upload, BATCH_SIZES,
};
use crate::json::{flatten_numbers, Obj};
use crate::stats::{median, tail};

/// Throughputs of uniform request streams are the median over this many
/// consecutive slices of their phase, so a transient stall (an fsync or a
/// scheduling hiccup) moves one slice, not the figure.
pub const RATE_SLICES: usize = 10;

/// The phase's operations, in completion order, cut into [`RATE_SLICES`]
/// equal groups: each group's `weight` ÷ the time since the previous group
/// ended (the first since `start`); the median of those rates.
fn sliced_rate(start: Instant, ops: &[&Op], weight: impl Fn(&Op) -> f64) -> f64 {
    let slices = RATE_SLICES.min(ops.len());
    let mut from = start;
    let mut rates = Vec::with_capacity(slices);
    for k in 0..slices {
        let group = &ops[k * ops.len() / slices..(k + 1) * ops.len() / slices];
        let end = group.last().map_or(from, |o| o.done);
        let w: f64 = group.iter().map(|o| weight(o)).sum();
        rates.push(w / end.duration_since(from).as_secs_f64());
        from = end;
    }
    median(&rates)
}

/// Every tenth request on `query` is a full fetch of the hot result.
pub const QUERY_FETCH_EVERY: usize = 10;
/// Census sizes: fixed request counts, so census metrics are comparable
/// across runs whatever the main phase's pace. Each census spans a few
/// seconds: the host's slow spells come and go within a run, and a census
/// of about one second (300 stabs on `ingest`, 200 appends) caught them
/// whole, with quartile spreads up to a quarter over ten runs.
pub const CENSUS_STABS: usize = 300;
pub const INGEST_CENSUS_STABS: usize = 1000;
pub const CENSUS_FETCHES: usize = 100;
pub const CENSUS_APPEND_BATCHES: usize = 600;
/// Untimed requests before a census measures appends or reads.
pub const CENSUS_APPEND_WARMUP: usize = 10;
pub const CENSUS_READ_WARMUP: usize = 50;
/// Hot min-ps of every Shop-14 sim, in percent: off its grid (0.1, 0.2,
/// 0.3), and low enough that a census append re-serialises about two
/// thousand patterns rather than timing little but the fsync.
pub const SHOP_HOT_PCT: f64 = 0.15;
/// Untimed appends between set-up and the `ingest` main phase.
pub const WARMUP_BATCHES: usize = 15;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Query,
    Explore,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ingest" => Some(Self::Ingest),
            "query" => Some(Self::Query),
            "explore" => Some(Self::Explore),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Ingest => "ingest",
            Self::Query => "query",
            Self::Explore => "explore",
        }
    }
}

/// Run-wide settings.
pub struct Ctx {
    pub rpm: PathBuf,
    /// Scratch directory for this run's data directories.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub scales: Scales,
    pub setup_reps: usize,
    pub recover_cycles: usize,
}

/// Client-side view of one request.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub connect_ms: f64,
    pub ttfb_ms: f64,
    pub transfer_ms: f64,
    pub total_ms: f64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// One operation the load generator performed, with what came back.
#[derive(Debug, Clone)]
pub struct Op {
    /// `append`, `fetch`, `stab`, `mine`, `upload`, `warm` or `recover`.
    pub class: &'static str,
    /// `setup`, `main`, `census` or `recover`.
    pub phase: &'static str,
    pub dataset: &'static str,
    pub target: String,
    pub body: Vec<u8>,
    pub timing: Timing,
    pub status: u16,
    /// `X-Rpm-Patterns` (fetch, mine) or `X-Rpm-Active` (stab).
    pub count: Option<usize>,
    pub stab: Option<Stab>,
    pub rows: usize,
    pub ok: bool,
    pub why: Option<String>,
    /// When the last response byte arrived (or the request failed).
    pub done: Instant,
}

impl Op {
    fn fail(&mut self, why: String) {
        if self.ok {
            self.ok = false;
            self.why = Some(why);
        }
    }

    /// Latency for the percentile populations: a failed operation misses
    /// every limit.
    fn latency(&self) -> f64 {
        if self.ok {
            self.timing.total_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Sends one request, turning the reply into an [`Op`] with the route's
/// generic checks (status, cache header, patched flag) applied.
fn perform(
    addr: SocketAddr,
    class: &'static str,
    phase: &'static str,
    dataset: &'static str,
    method: &'static str,
    target: String,
    body: Vec<u8>,
) -> (Op, Option<Reply>) {
    let mut op = Op {
        class,
        phase,
        dataset,
        target,
        body,
        timing: Timing::default(),
        status: 0,
        count: None,
        stab: None,
        rows: 0,
        ok: true,
        why: None,
        done: Instant::now(),
    };
    let reply = call(addr, method, &op.target, &op.body);
    op.done = Instant::now();
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) => {
            op.fail(format!("{class} {}: connection error: {e}", op.target));
            return (op, None);
        }
    };
    op.status = reply.status;
    op.timing = Timing {
        connect_ms: reply.connect_ms,
        ttfb_ms: reply.ttfb_ms,
        transfer_ms: reply.transfer_ms,
        total_ms: reply.total_ms,
        request_bytes: reply.request_bytes,
        response_bytes: reply.response_bytes,
    };
    op.count = reply.header_num("X-Rpm-Patterns").or(reply.header_num("X-Rpm-Active"));
    let expected = match class {
        "upload" => 201,
        _ => 200,
    };
    if reply.status != expected {
        op.fail(format!(
            "{class} {}: status {} (want {expected}): {}",
            op.target,
            reply.status,
            reply.body_text().chars().take(200).collect::<String>()
        ));
    }
    let cache = reply.header("X-Rpm-Cache").unwrap_or("");
    let want_cache = match (class, phase) {
        ("fetch" | "stab", _) => Some("hit"),
        ("mine" | "warm", _) => Some("miss"),
        _ => None,
    };
    if let Some(want) = want_cache {
        if cache != want {
            op.fail(format!("{class} {}: X-Rpm-Cache {cache:?} (want {want})", op.target));
        }
    }
    (op, Some(reply))
}

/// Everything one run measured.
pub struct Run {
    pub workload: Workload,
    pub ops: Vec<Op>,
    pub setup_s: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// `/v1/metrics` around the main phase.
    pub server_before: BTreeMap<String, f64>,
    pub server_after: BTreeMap<String, f64>,
    pub main_cpu_ms: f64,
    pub main_ops: usize,
    pub peak_rss_mb: f64,
    /// When the phases that measure appends and reads began.
    pub append_start: Option<Instant>,
    pub read_start: Option<Instant>,
    pub sweep_s: f64,
    /// Datasets as uploaded (the traced replay re-uses them).
    pub uploads: Vec<Upload>,
    /// Seed-determined facts recorded for the report.
    pub facts: Vec<(String, f64)>,
}

impl Run {
    fn new(workload: Workload, uploads: Vec<Upload>) -> Self {
        Self {
            workload,
            ops: Vec::new(),
            setup_s: Vec::new(),
            recover_s: Vec::new(),
            server_before: BTreeMap::new(),
            server_after: BTreeMap::new(),
            main_cpu_ms: 0.0,
            main_ops: 0,
            peak_rss_mb: 0.0,
            append_start: None,
            read_start: None,
            sweep_s: 0.0,
            uploads,
            facts: Vec::new(),
        }
    }

    pub fn upload(&self, name: &str) -> &Upload {
        self.uploads.iter().find(|u| u.name == name).expect("known dataset")
    }

    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    /// Latencies of one route class in one phase.
    pub fn latencies(&self, class: &str, phase: &str) -> Vec<f64> {
        self.ops.iter().filter(|o| o.class == class && o.phase == phase).map(Op::latency).collect()
    }

    /// The phase a route class was measured in on this workload.
    pub fn phase_of(&self, class: &str) -> &'static str {
        match (self.workload, class) {
            (Workload::Ingest, "append" | "fetch") => "main",
            (Workload::Query, "stab" | "fetch") => "main",
            (Workload::Explore, "mine") => "main",
            _ => "census",
        }
    }

    /// A phase's throughput. The `ingest` main phase is one fixed job of
    /// mixed 1/10/100-row batches, so its rate is the total over the phase
    /// (a slice's rate would depend on which batches fell into it);
    /// elsewhere the requests are uniform and the rate is
    /// [`sliced_rate`]'s median.
    fn rate(&self, start: Instant, ops: &[&Op], weight: impl Fn(&Op) -> f64) -> f64 {
        let main_ingest =
            self.workload == Workload::Ingest && ops.iter().all(|o| o.phase == "main");
        match ops.last() {
            Some(last) if main_ingest => {
                ops.iter().map(|o| weight(o)).sum::<f64>()
                    / last.done.duration_since(start).as_secs_f64()
            }
            _ => sliced_rate(start, ops, weight),
        }
    }

    /// Server counter delta over the main phase.
    pub fn server_delta(&self, key: &str) -> f64 {
        self.server_after.get(key).copied().unwrap_or(0.0)
            - self.server_before.get(key).copied().unwrap_or(0.0)
    }

    /// The end-to-end metrics, `(name, value, unit)`, plus per-metric
    /// sample counts and tail percentiles for the stamp. The routes' tails
    /// do not repeat within a tenth on a shared two-core machine at this
    /// run length; they are stamped here and reported by the traced run as
    /// `route.<class>_tail_ms` instead of being bounded.
    pub fn end_to_end(&self) -> (Vec<(&'static str, f64, &'static str)>, Obj) {
        let mut metrics = Vec::new();
        let mut samples = Obj::new();
        let mut route = |class: &str, p50: &'static str, tail_name: &'static str| {
            let lat = self.latencies(class, self.phase_of(class));
            let (t, pct, n) = tail(&lat);
            metrics.push((p50, median(&lat), "ms"));
            samples.push_raw(p50, format!("{{\"n\":{n},\"phase\":\"{}\"}}", self.phase_of(class)));
            samples.push_raw(
                tail_name,
                format!(
                    "{{\"value\":{},\"n\":{n},\"percentile\":{pct:.2},\"phase\":\"{}\"}}",
                    crate::json::num(t),
                    self.phase_of(class)
                ),
            );
        };
        route("append", "append_p50_ms", "append_tail_ms");
        route("fetch", "fetch_p50_ms", "fetch_tail_ms");
        route("stab", "stab_p50_ms", "stab_tail_ms");
        metrics.push(("setup_s", median(&self.setup_s), "s"));
        samples.push_raw("setup_s", format!("{{\"n\":{}}}", self.setup_s.len()));
        let in_phase = |classes: &[&str]| -> Vec<&Op> {
            let phase = self.phase_of(classes[0]);
            self.ops.iter().filter(|o| classes.contains(&o.class) && o.phase == phase).collect()
        };
        let appends = in_phase(&["append"]);
        let rows = |o: &Op| if o.status == 200 { o.rows as f64 } else { 0.0 };
        let tx_per_s = self.append_start.map_or(0.0, |t| self.rate(t, &appends, rows));
        metrics.push(("ingest_tx_per_s", tx_per_s, "tx/s"));
        let acked: f64 = appends.iter().map(|o| rows(o)).sum();
        samples
            .push_raw("ingest_tx_per_s", format!("{{\"rows\":{acked},\"slices\":{RATE_SLICES}}}"));
        let reads = in_phase(&["fetch", "stab"]);
        let ok = |o: &Op| f64::from(u8::from(o.ok));
        let reads_per_s = self.read_start.map_or(0.0, |t| self.rate(t, &reads, ok));
        metrics.push(("reads_per_s", reads_per_s, "req/s"));
        samples
            .push_raw("reads_per_s", format!("{{\"n\":{},\"slices\":{RATE_SLICES}}}", reads.len()));
        metrics.push(("sweep_s", self.sweep_s, "s"));
        metrics.push(("recover_s", median(&self.recover_s), "s"));
        samples.push_raw("recover_s", format!("{{\"n\":{}}}", self.recover_s.len()));
        metrics.push((
            "server_cpu_ms_per_op",
            self.main_cpu_ms / self.main_ops.max(1) as f64,
            "ms",
        ));
        samples.push_raw("server_cpu_ms_per_op", format!("{{\"n\":{}}}", self.main_ops));
        metrics.push(("server_rss_mb", self.peak_rss_mb, "MB"));
        (metrics, samples)
    }
}

fn fetch_metrics(addr: SocketAddr) -> BTreeMap<String, f64> {
    call(addr, "GET", "/v1/metrics", b"")
        .ok()
        .and_then(|r| flatten_numbers(&r.body_text()).ok())
        .unwrap_or_default()
}

fn fresh_dir(ctx: &Ctx, name: &str) -> PathBuf {
    let dir = ctx.work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// A complete in-process mine at `params`: the reference the server's
/// answers are checked against.
pub fn reference_mine(db: &TransactionDb, params: ResolvedParams) -> Vec<RecurringPattern> {
    let session = MiningSession::builder().resolved(params).build().expect("valid params");
    session.mine(db).expect("non-empty database").into_result().patterns
}

pub fn patterns_json(db: &TransactionDb, patterns: &[RecurringPattern]) -> Vec<u8> {
    let mut body = Vec::new();
    write_patterns_json(&mut body, db.items(), patterns).expect("in-memory write");
    body
}

/// Set-up, `ctx.setup_reps` times: spawn a fresh server, upload and warm
/// every dataset. Returns the last server (kept for the main phase) and
/// its data directory.
fn setup(ctx: &Ctx, run: &mut Run) -> (ServerProc, PathBuf) {
    let reps = ctx.setup_reps.max(1);
    for rep in 0..reps {
        let dir = fresh_dir(ctx, &format!("data-{rep}"));
        let started = Instant::now();
        let server = ServerProc::spawn(&ctx.rpm, &dir).expect("start rpm serve");
        let mut ops = Vec::new();
        for up in &run.uploads {
            let (op, _) = perform(
                server.addr,
                "upload",
                "setup",
                up.name,
                "POST",
                up.upload_target(),
                up.body.clone(),
            );
            ops.push(op);
            let (op, _) = perform(
                server.addr,
                "warm",
                "setup",
                up.name,
                "POST",
                up.fetch_target(),
                Vec::new(),
            );
            ops.push(op);
        }
        run.setup_s.push(started.elapsed().as_secs_f64());
        run.ops.extend(ops);
        if rep + 1 == reps {
            return (server, dir);
        }
        server.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("at least one setup repetition")
}

/// Samples the server around the main phase.
struct MainPhase {
    cpu0: f64,
    started: Instant,
}

impl MainPhase {
    fn begin(server: &ServerProc, run: &mut Run) -> Self {
        run.server_before = fetch_metrics(server.addr);
        Self { cpu0: server.cpu_ms(), started: Instant::now() }
    }

    fn end(self, server: &ServerProc, run: &mut Run) {
        run.main_cpu_ms = server.cpu_ms() - self.cpu0;
        run.peak_rss_mb = server.peak_rss_mb();
        run.server_after = fetch_metrics(server.addr);
        run.main_ops = run.ops.iter().filter(|o| o.phase == "main").count();
    }
}

/// Kill/restart cycles; returns the server left running after the last.
fn recover(ctx: &Ctx, run: &mut Run, mut server: ServerProc, dir: &Path) -> ServerProc {
    let primary = run.uploads[0].fetch_target();
    let name = run.uploads[0].name;
    for _ in 0..ctx.recover_cycles.max(1) {
        server.kill();
        let started = Instant::now();
        server = ServerProc::spawn(&ctx.rpm, dir).expect("restart rpm serve");
        let (mut op, _) =
            perform(server.addr, "recover", "recover", name, "POST", primary.clone(), Vec::new());
        run.recover_s.push(started.elapsed().as_secs_f64());
        if op.status != 200 {
            op.fail(format!("recovery fetch answered {}", op.status));
        }
        run.ops.push(op);
    }
    server
}

/// Closed loop of appends, one connection, in batch order; stops at the
/// deadline. Returns (ops, rows acknowledged).
fn append_loop(
    addr: SocketAddr,
    up: &Upload,
    phase: &'static str,
    batches: &[Vec<Row>],
    deadline: Option<Instant>,
) -> (Vec<Op>, usize) {
    let mut ops = Vec::new();
    let mut rows = 0;
    for batch in batches {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (mut op, reply) =
            perform(addr, "append", phase, up.name, "POST", up.append_target(), append_body(batch));
        op.rows = batch.len();
        if let Some(reply) = reply {
            let text = reply.body_text();
            if op.ok && !text.contains("\"patched\":true") {
                op.fail(format!("append not patched in place: {text}"));
            }
            if op.ok && !text.contains(&format!("\"appended\":{}", batch.len())) {
                op.fail(format!("append acknowledged a different row count: {text}"));
            }
            if reply.status == 200 {
                rows += batch.len();
            }
        }
        ops.push(op);
    }
    (ops, rows)
}

fn fetch_once(addr: SocketAddr, up: &Upload, phase: &'static str, expect: Option<&[u8]>) -> Op {
    let (mut op, reply) =
        perform(addr, "fetch", phase, up.name, "POST", up.fetch_target(), Vec::new());
    if let (Some(expect), Some(reply)) = (expect, reply) {
        if op.ok && reply.body != expect {
            op.fail(format!(
                "fetch body differs from the in-process reference ({} bytes vs {})",
                reply.body.len(),
                expect.len()
            ));
        }
    }
    op
}

fn stab_once(addr: SocketAddr, up: &Upload, phase: &'static str, stab: Stab) -> Op {
    let (mut op, _) =
        perform(addr, "stab", phase, up.name, "GET", up.stab_target(stab), Vec::new());
    op.stab = Some(stab);
    op
}

/// Checks every recorded stab's `X-Rpm-Active` against a `PatternIndex`
/// built in-process over the reference patterns.
fn check_stabs(ops: &mut [Op], dataset: &str, patterns: &[RecurringPattern]) {
    let index = PatternIndex::build(patterns);
    for op in ops.iter_mut().filter(|o| o.class == "stab" && o.dataset == dataset) {
        let want = match op.stab {
            Some(Stab::At(at)) => index.active_at(at).len(),
            Some(Stab::During(from, to)) => index.active_during(from, to).len(),
            None => continue,
        };
        if op.ok && op.count != Some(want) {
            op.fail(format!("stab {}: X-Rpm-Active {:?}, oracle {want}", op.target, op.count));
        }
    }
}

/// Reference pattern counts for every cell of `up`'s grid, in table order.
/// The datasets are fixed, so the counts are cached next to the run's
/// scratch directory, keyed by the dataset fingerprint and the harness
/// binary (a rebuild computes them afresh).
fn grid_reference(ctx: &Ctx, up: &Upload) -> Vec<usize> {
    let exe = std::env::current_exe()
        .and_then(|p| p.metadata())
        .map(|m| format!("{}-{:?}", m.len(), m.modified().ok()))
        .unwrap_or_default();
    let key = format!("{}-{:016x}-{exe}", up.name, rpm_timeseries::fingerprint(&up.db));
    let tag = key
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    let path = ctx.work.with_file_name(format!("grid-ref-{tag:016x}.txt"));
    let cells = grid_cells(up.kind);
    if let Ok(text) = std::fs::read_to_string(&path) {
        let counts: Vec<usize> = text.split_whitespace().filter_map(|t| t.parse().ok()).collect();
        if counts.len() == cells.len() {
            return counts;
        }
    }
    let counts: Vec<usize> =
        cells.iter().map(|c| reference_mine(&up.db, c.resolved(up.db.len())).len()).collect();
    let text: Vec<String> = counts.iter().map(usize::to_string).collect();
    let _ = std::fs::write(&path, text.join(" "));
    counts
}

/// Every grid cell of `uploads` as (dataset index, cell index), in seeded
/// order.
fn seeded_grid(uploads: &[Upload], rng: &mut Pcg32) -> Vec<(usize, usize)> {
    let mut cells = Vec::new();
    for (d, up) in uploads.iter().enumerate() {
        cells.extend((0..grid_cells(up.kind).len()).map(|c| (d, c)));
    }
    shuffle(&mut cells, rng);
    cells
}

/// Walks `cells` once against `uploads`, checking each `X-Rpm-Patterns`
/// against the reference counts. Returns the wall time.
fn sweep(
    addr: SocketAddr,
    uploads: &[Upload],
    cells: &[(usize, usize)],
    reference: &[Vec<usize>],
    phase: &'static str,
    ops: &mut Vec<Op>,
) -> f64 {
    let started = Instant::now();
    for &(d, c) in cells {
        let up = &uploads[d];
        let cell = grid_cells(up.kind)[c];
        let want = reference[d][c];
        let target = format!("/v1/datasets/{}/mine?{}", up.name, cell.query());
        let (mut op, _) = perform(addr, "mine", phase, up.name, "POST", target, Vec::new());
        if op.ok && op.count != Some(want) {
            op.fail(format!("mine {}: X-Rpm-Patterns {:?}, reference {want}", op.target, op.count));
        }
        ops.push(op);
    }
    started.elapsed().as_secs_f64()
}

/// The census sweep for ingest and query: a Shop-14 sim registered next to
/// the Twitter sim, all 27 cells in seeded order.
struct ShopCensus {
    cells: Vec<(usize, usize)>,
    reference: Vec<Vec<usize>>,
}

fn shop_census(ctx: &Ctx) -> (Upload, ShopCensus) {
    let db = generate(Kind::Shop, ctx.scales.shop);
    let hot = off_grid_hot(Kind::Shop, &db, 360, SHOP_HOT_PCT);
    let up = Upload::new("shop", Kind::Shop, db, hot);
    // Dataset 1 of the run's uploads (the Twitter sim is 0).
    let mut cells =
        seeded_grid(std::slice::from_ref(&up), &mut Pcg32::seed_from_u64(mix(ctx.seed, 12)));
    for cell in &mut cells {
        cell.0 = 1;
    }
    let reference = vec![Vec::new(), grid_reference(ctx, &up)];
    (up, ShopCensus { cells, reference })
}

/// The final state's reference after `rows` were appended to `base`,
/// built exactly as the server builds it (replay, then appends).
fn appended_state(base: &TransactionDb, hot: ResolvedParams, rows: &[Row]) -> TransactionDb {
    let mut miner = IncrementalMiner::with_items(base.items().clone(), hot);
    for t in base.transactions() {
        miner.append_ids(t.timestamp(), t.items().to_vec()).expect("ordered base");
    }
    for (ts, labels) in rows {
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        miner.append(*ts, &refs).expect("ordered rows");
    }
    miner.db().clone()
}

/// Census appends for `query` and `explore`: one-row appends to the Shop-14
/// sim (dataset 1 of every workload), continuing it past its end from a
/// seeded offset. The first [`CENSUS_APPEND_WARMUP`] run untimed (they fill
/// the delta path's resume state, as on `ingest`); the rest give the append
/// metrics.
fn census_appends(ctx: &Ctx, run: &mut Run, addr: SocketAddr) {
    let total = CENSUS_APPEND_WARMUP + CENSUS_APPEND_BATCHES;
    let shop = &run.uploads[1];
    let rows = continuation(&shop.db, &mut Pcg32::seed_from_u64(mix(ctx.seed, 4)), total);
    let plan = batches(&mut Pcg32::seed_from_u64(mix(ctx.seed, 2)), &rows, &[1], total);
    let (warm, timed) = plan.split_at(CENSUS_APPEND_WARMUP.min(plan.len()));
    let (ops, _) = append_loop(addr, shop, "warmup", warm, None);
    run.ops.extend(ops);
    run.append_start = Some(Instant::now());
    let (ops, _) = append_loop(addr, &run.uploads[1], "census", timed, None);
    run.ops.extend(ops);
}

/// `ingest`: after an untimed warm-up, one writer appends the rest of the
/// held-back suffix while one reader fetches the hot result, both closed
/// loops. The phase is fixed work (the whole suffix), so the final state —
/// and with it the census and recovery — is the same on every run; a slow
/// run is cut at three times `--seconds`.
pub fn ingest(ctx: &Ctx) -> Run {
    let s = ctx.scales;
    let db = generate(Kind::Twitter, s.twitter);
    let n = db.len();
    let cut = db.transaction(n * 4 / 5).timestamp();
    let (prefix, suffix) = split_at(&db, cut);
    let hot = ResolvedParams::new(360, (n / 50).max(1), 1);
    let suffix_rows = rows_of(&suffix);
    let plan = batches(
        &mut Pcg32::seed_from_u64(mix(ctx.seed, 2)),
        &suffix_rows,
        &BATCH_SIZES,
        usize::MAX,
    );
    let (shop, census) = shop_census(ctx);
    let primary = Upload::new("twitter", Kind::Twitter, prefix, hot);
    let mut run = Run::new(Workload::Ingest, vec![primary, shop]);
    run.facts.push(("suffix_rows".into(), suffix_rows.len() as f64));

    let (server, dir) = setup(ctx, &mut run);
    let addr = server.addr;
    // Warm-up: the first appends after the warming mine fill the delta
    // path's resume state and cost several times a steady append; they
    // run untimed, checked like every other append.
    let warmup = &plan[..WARMUP_BATCHES.min(plan.len())];
    let started = Instant::now();
    let (ops, warm_rows) = append_loop(addr, &run.uploads[0], "warmup", warmup, None);
    run.facts.push(("warmup_s".into(), started.elapsed().as_secs_f64()));
    run.facts.push(("warmup_rows".into(), warm_rows as f64));
    run.ops.extend(ops);

    let phase = MainPhase::begin(&server, &mut run);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(3.0 * ctx.seconds);
    let done = Arc::new(AtomicBool::new(false));
    let up = &run.uploads[0];
    let (writer, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut ops = Vec::new();
            while !done.load(Ordering::Acquire) {
                ops.push(fetch_once(addr, up, "main", None));
            }
            ops
        });
        let writer = append_loop(addr, up, "main", &plan[warmup.len()..], Some(deadline));
        done.store(true, Ordering::Release);
        (writer, reader.join().expect("reader thread"))
    });
    let (append_ops, rows) = writer;
    run.facts.push(("main_batches".into(), append_ops.len() as f64));
    run.append_start = Some(phase.started);
    run.read_start = Some(phase.started);
    run.ops.extend(append_ops);
    run.ops.extend(reader);
    phase.end(&server, &mut run);
    let rows = warm_rows + rows;

    // The result delta mining patched in place must be byte-identical to a
    // batch mine of the same transactions; fetched untimed, before the
    // census and recovery.
    let acked: Vec<Row> = suffix_rows[..rows].to_vec();
    let state = appended_state(&run.uploads[0].db, hot, &acked);
    let patterns = reference_mine(&state, hot);
    let reference = patterns_json(&state, &patterns);
    run.ops.push(fetch_once(addr, &run.uploads[0], "check", Some(&reference)));

    // Census: stabs over the ingested stream, then the Shop-14 grid.
    let lo = run.uploads[0].db.time_span().map_or(0, |s| s.0);
    let hi = acked.last().map_or(lo, |r| r.0);
    let points =
        stabs(&mut Pcg32::seed_from_u64(mix(ctx.seed, 3)), lo, hi, 360, INGEST_CENSUS_STABS);
    for &stab in &points {
        run.ops.push(stab_once(addr, &run.uploads[0], "census", stab));
    }
    let mut sweep_ops = Vec::new();
    run.sweep_s =
        sweep(addr, &run.uploads, &census.cells, &census.reference, "census", &mut sweep_ops);
    run.ops.extend(sweep_ops);

    let server = recover(ctx, &mut run, server, &dir);
    // So must the result rebuilt from the journal after recovery.
    run.ops.push(fetch_once(server.addr, &run.uploads[0], "check", Some(&reference)));
    check_stabs(&mut run.ops, "twitter", &patterns);
    run.facts.push(("final_transactions".into(), state.len() as f64));
    run.facts.push(("final_patterns".into(), patterns.len() as f64));
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// `query`: one connection of stabs with a full fetch every tenth request;
/// no writes.
pub fn query(ctx: &Ctx) -> Run {
    let db = generate(Kind::Twitter, ctx.scales.twitter);
    let hot = ResolvedParams::new(360, (db.len() / 50).max(1), 1);
    let patterns = reference_mine(&db, hot);
    let reference = patterns_json(&db, &patterns);
    let (lo, hi) = db.time_span().expect("non-empty");
    let (shop, census) = shop_census(ctx);
    let primary = Upload::new("twitter", Kind::Twitter, db, hot);
    let mut run = Run::new(Workload::Query, vec![primary, shop]);
    run.facts.push(("hot_patterns".into(), patterns.len() as f64));

    let (server, dir) = setup(ctx, &mut run);
    let addr = server.addr;
    // More stab points than any run can send; request i takes the next one.
    let points = stabs(&mut Pcg32::seed_from_u64(mix(ctx.seed, 3)), lo, hi, hot.per, 1 << 17);
    let mut next_stab = points.iter().copied().cycle();
    let phase = MainPhase::begin(&server, &mut run);
    let deadline = phase.started + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let op = if i % QUERY_FETCH_EVERY == QUERY_FETCH_EVERY - 1 {
            fetch_once(addr, &run.uploads[0], "main", Some(&reference))
        } else {
            let stab = next_stab.next().expect("cycled");
            stab_once(addr, &run.uploads[0], "main", stab)
        };
        run.ops.push(op);
        i += 1;
    }
    run.read_start = Some(phase.started);
    phase.end(&server, &mut run);
    check_stabs(&mut run.ops, "twitter", &patterns);

    // Census: the Shop-14 grid, then appends to that dataset (after the
    // sweep, whose reference is the dataset as uploaded).
    let mut sweep_ops = Vec::new();
    run.sweep_s =
        sweep(addr, &run.uploads, &census.cells, &census.reference, "census", &mut sweep_ops);
    run.ops.extend(sweep_ops);
    census_appends(ctx, &mut run, addr);

    let server = recover(ctx, &mut run, server, &dir);
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// `explore`: one connection walks every dataset's Table 4 grid once, in
/// seeded order; every request is a cache miss.
pub fn explore(ctx: &Ctx) -> Run {
    let s = ctx.scales;
    let twitter = generate(Kind::Twitter, s.explore_twitter);
    let shop = generate(Kind::Shop, s.shop);
    let quest = generate(Kind::Quest, s.quest);
    // Census reads go to the quest sim's hot result: about nine thousand
    // patterns, so a read is server work, not scheduler wake-ups (reads of
    // a few hundred patterns answer in 0.2 ms and their p50 moved by 45 %
    // between runs).
    let hot = off_grid_hot(Kind::Quest, &quest, 1440, 0.15);
    let uploads = vec![
        Upload::new(
            "twitter",
            Kind::Twitter,
            twitter.clone(),
            off_grid_hot(Kind::Twitter, &twitter, 360, 3.0),
        ),
        Upload::new(
            "shop",
            Kind::Shop,
            shop.clone(),
            off_grid_hot(Kind::Shop, &shop, 360, SHOP_HOT_PCT),
        ),
        Upload::new("quest", Kind::Quest, quest.clone(), hot),
    ];
    let cells = seeded_grid(&uploads, &mut Pcg32::seed_from_u64(mix(ctx.seed, 6)));
    let reference: Vec<Vec<usize>> = uploads.iter().map(|up| grid_reference(ctx, up)).collect();
    let hot_patterns = reference_mine(&quest, hot);
    let hot_reference = patterns_json(&quest, &hot_patterns);
    let (lo, hi) = quest.time_span().expect("non-empty");
    let mut run = Run::new(Workload::Explore, uploads);
    run.facts.push(("grid_cells".into(), cells.len() as f64));
    run.facts.push(("grid_patterns".into(), reference.iter().flatten().sum::<usize>() as f64));
    run.facts.push(("hot_patterns".into(), hot_patterns.len() as f64));

    let (server, dir) = setup(ctx, &mut run);
    let addr = server.addr;
    // Census reads first, while the hot entries are fresh in the cache:
    // an untimed warm-up round, then fetches interleaved with stabs as on
    // `query`.
    let points = stabs(
        &mut Pcg32::seed_from_u64(mix(ctx.seed, 3)),
        lo,
        hi,
        hot.per,
        CENSUS_READ_WARMUP + CENSUS_STABS,
    );
    let mut ops = Vec::new();
    let target = &run.uploads[2];
    for &stab in &points[..CENSUS_READ_WARMUP] {
        ops.push(stab_once(addr, target, "warmup", stab));
    }
    run.read_start = Some(Instant::now());
    for (i, &stab) in points[CENSUS_READ_WARMUP..].iter().enumerate() {
        ops.push(stab_once(addr, target, "census", stab));
        if i % (CENSUS_STABS / CENSUS_FETCHES) == 0 {
            ops.push(fetch_once(addr, target, "census", Some(&hot_reference)));
        }
    }
    run.ops.extend(ops);
    check_stabs(&mut run.ops, "quest", &hot_patterns);

    let phase = MainPhase::begin(&server, &mut run);
    let mut sweep_ops = Vec::new();
    run.sweep_s = sweep(addr, &run.uploads, &cells, &reference, "main", &mut sweep_ops);
    run.ops.extend(sweep_ops);
    phase.end(&server, &mut run);

    census_appends(ctx, &mut run, addr);
    let server = recover(ctx, &mut run, server, &dir);
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
    run
}

pub fn run(workload: Workload, ctx: &Ctx) -> Run {
    match workload {
        Workload::Ingest => ingest(ctx),
        Workload::Query => query(ctx),
        Workload::Explore => explore(ctx),
    }
}
