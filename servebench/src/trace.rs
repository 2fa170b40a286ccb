//! The traced run's layer split.
//!
//! Part (a) is the workload itself against the `rpm serve` child: its
//! client-side connect / first-byte / transfer timings and the
//! `/v1/metrics` deltas around the main phase. Part (b) replays the same
//! seeded inputs in process, making the public calls the request handlers
//! make, in the handlers' order, with each call wrapped in a span (name,
//! layer, start, end, parent, operation id). Spans stay in memory and are
//! written out at the end.
//!
//! A layer's self time is its spans' duration minus their children's.
//! Each operation class reports every layer's median self time as a share
//! of the class's end-to-end p50 from part (a), plus an `unattributed`
//! remainder (accept, queueing, handshake). Running the main-phase replay
//! a second time with spans off measures the tracing overhead. The replay's
//! seed-determined counters must equal part (a)'s server counters exactly,
//! or the split describes a different code path.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rpm_core::engine::{MetricsCollector, Phase};
use rpm_core::{
    write_patterns_json, DeltaMode, FullReason, IncrementalMiner, MineScratch, MiningSession,
    RecurringPattern, RpParams, RunControl, Threshold,
};
use rpm_server::{
    decode_dataset_body, parse_append_body, read_request, CachedResult, PersistConfig, Persistence,
    Registry, Request, Response, ResultCache,
};

use crate::client::request_bytes;
use crate::inputs::{Stab, Upload};
use crate::json::{num, Obj};
use crate::stats::{median, tail};
use crate::workloads::{Ctx, Op, Run, Workload};

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    class: &'static str,
    op: usize,
    parent: Option<usize>,
    start_ms: f64,
    end_ms: f64,
}

/// Per-thread span recorder; with `on == false` it records nothing and the
/// wrapped calls run bare.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    class: &'static str,
    op: usize,
}

impl Tracer {
    fn new(on: bool, origin: Instant, op_base: usize) -> Self {
        Self { on, origin, spans: Vec::new(), stack: Vec::new(), class: "", op: op_base }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    fn enter(&mut self, name: &'static str, layer: &'static str) {
        if !self.on {
            return;
        }
        let start_ms = self.now();
        self.spans.push(Span {
            name,
            layer,
            class: self.class,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ms,
            end_ms: start_ms,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ms = now;
        }
    }

    fn time<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, layer);
        let r = f();
        self.exit();
        r
    }

    /// Starts operation `class` (its root span); close it with `exit`.
    fn begin_op(&mut self, class: &'static str) {
        self.op += 1;
        self.class = class;
        self.enter(class, "op");
    }

    /// Records engine phases reported by a [`MetricsCollector`] as child
    /// spans laid end to end from `start_ms`.
    fn phases(&mut self, start_ms: f64, phases: &[(Phase, std::time::Duration)]) {
        if !self.on {
            return;
        }
        let mut at = start_ms;
        for (phase, wall) in phases {
            let name = match phase {
                Phase::ListScan => "list_scan",
                Phase::TreeBuild => "tree_build",
                Phase::Growth => "growth",
            };
            let end = at + wall.as_secs_f64() * 1e3;
            self.spans.push(Span {
                name,
                layer: "engine",
                class: self.class,
                op: self.op,
                parent: self.stack.last().copied(),
                start_ms: at,
                end_ms: end,
            });
            at = end;
        }
    }
}

/// Seed-determined work counters of the replay.
#[derive(Debug, Default, Clone)]
struct Counters {
    delta_calls: usize,
    delta_full: BTreeMap<&'static str, usize>,
    remined: usize,
    retained: usize,
    tail_tx: usize,
    checkpoint_hits: usize,
    /// Candidates the delta paths examined (the hit ratio's base).
    examined: usize,
    dirty_candidates: usize,
    candidates: usize,
    patterns: usize,
    peak_scratch_bytes: usize,
    /// Per main-phase request: pattern or active count, by op index.
    counts: BTreeMap<(&'static str, usize), usize>,
    export_bytes: Vec<f64>,
    export_patterns: Vec<f64>,
    active: Vec<f64>,
    index_builds: usize,
    /// WAL records the replay's main phase journalled.
    wal_records: u64,
    /// Main-phase cache lookups that missed.
    misses: usize,
}

impl Counters {
    fn absorb_delta(&mut self, s: &rpm_core::DeltaStats) {
        self.delta_calls += 1;
        match s.mode {
            DeltaMode::Full(reason) => {
                let key = match reason {
                    FullReason::ColdStore => "cold_store",
                    FullReason::ParamsChanged => "params_changed",
                    FullReason::StoreMismatch => "store_mismatch",
                    FullReason::FrontierExceeded => "frontier_exceeded",
                };
                *self.delta_full.entry(key).or_default() += 1;
            }
            DeltaMode::Delta | DeltaMode::Unchanged => {
                self.remined += s.remined_patterns;
                self.retained += s.retained_patterns;
                self.tail_tx += s.tail_transactions;
                self.checkpoint_hits += s.checkpoint_hits;
            }
        }
        self.dirty_candidates += s.dirty_candidates;
    }

    fn merge(&mut self, o: Counters) {
        self.delta_calls += o.delta_calls;
        for (k, v) in o.delta_full {
            *self.delta_full.entry(k).or_default() += v;
        }
        self.remined += o.remined;
        self.retained += o.retained;
        self.tail_tx += o.tail_tx;
        self.checkpoint_hits += o.checkpoint_hits;
        self.examined += o.examined;
        self.dirty_candidates += o.dirty_candidates;
        self.candidates += o.candidates;
        self.patterns += o.patterns;
        self.peak_scratch_bytes = self.peak_scratch_bytes.max(o.peak_scratch_bytes);
        self.counts.extend(o.counts);
        self.export_bytes.extend(o.export_bytes);
        self.export_patterns.extend(o.export_patterns);
        self.active.extend(o.active);
        self.index_builds += o.index_builds;
        self.misses += o.misses;
    }
}

/// The in-process stand-in for the server's shared state.
struct State {
    registry: Registry,
    cache: ResultCache,
    persist: Arc<Persistence>,
}

impl State {
    fn open(dir: &Path) -> Self {
        let persist = Persistence::open(PersistConfig::new(dir)).expect("open replay data dir");
        let (registry, _) = Registry::with_persistence(persist.clone()).expect("empty data dir");
        Self { registry, cache: ResultCache::new(64 << 20), persist }
    }

    fn wal_records(&self) -> u64 {
        rpm_server::persist::PersistCounters::get(&self.persist.counters().wal_records)
    }
}

/// Worker count the server uses for append-driven delta mines.
fn delta_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

fn export(
    tr: &mut Tracer,
    c: &mut Counters,
    items: &rpm_timeseries::ItemTable,
    patterns: &[RecurringPattern],
) -> Vec<u8> {
    let mut body = Vec::new();
    tr.time("write_patterns_json", "export", || write_patterns_json(&mut body, items, patterns))
        .expect("in-memory export");
    c.export_bytes.push(body.len() as f64);
    c.export_patterns.push(patterns.len() as f64);
    body
}

fn respond(tr: &mut Tracer, sink: &mut Vec<u8>, response: Response) {
    sink.clear();
    tr.time("write_to", "http", || response.write_to(sink)).expect("in-memory write");
}

fn parse(tr: &mut Tracer, raw: &[u8]) -> Request {
    tr.time("read_request", "http", || read_request(&mut &raw[..])).expect("replayed request")
}

/// The hot-params mine handler on a cache miss (warming and recovery
/// fetches): read lock, cache miss, delta mine, export, insert, write.
fn hot_mine(
    tr: &mut Tracer,
    st: &State,
    c: &mut Counters,
    up: &Upload,
    sink: &mut Vec<u8>,
) -> usize {
    let raw = request_bytes("POST", &up.fetch_target(), b"");
    let _req = parse(tr, &raw);
    let dataset =
        tr.time("registry.get", "registry", || st.registry.get(up.name)).expect("dataset");
    let ds = tr.time("lock_wait", "registry", || dataset.read().unwrap_or_else(|e| e.into_inner()));
    let hit = tr.time("cache.get", "cache", || st.cache.get(ds.fingerprint(), up.hot));
    assert!(hit.is_none(), "replayed warming fetch must miss");
    let control = RunControl::new();
    let mut scratch = MineScratch::default();
    let (result, _, dstats) =
        tr.time("mine_hot_delta", "delta", || ds.mine_hot_delta(&control, &mut scratch, 1));
    c.absorb_delta(&dstats);
    c.candidates += result.stats.candidates_checked;
    c.patterns += result.patterns.len();
    let body = export(tr, c, ds.db().items(), &result.patterns);
    let n = result.patterns.len();
    let fp = ds.fingerprint();
    tr.time("cache.insert", "cache", || {
        st.cache.insert(fp, up.hot, Arc::new(CachedResult::new(body.clone(), result.patterns)))
    });
    drop(ds);
    respond(tr, sink, Response::json(200, body));
    n
}

/// Set-up for every dataset: upload (parse, decode, register), then the
/// warming mine. Also times the incremental replay alone.
fn replay_setup(tr: &mut Tracer, st: &State, c: &mut Counters, uploads: &[Upload]) -> (f64, usize) {
    let mut sink = Vec::new();
    let mut replay_ms = 0.0;
    let mut replay_tx = 0;
    tr.begin_op("setup");
    for up in uploads {
        let raw = request_bytes("POST", &up.upload_target(), &up.body);
        let req = parse(tr, &raw);
        let db = tr
            .time("decode_dataset_body", "io", || decode_dataset_body(&req.body))
            .expect("decodes");
        tr.time("register", "registry", || st.registry.register(up.name, db, up.hot, false))
            .expect("registers");
        respond(tr, &mut sink, Response::json(201, "{}"));
        hot_mine(tr, st, c, up, &mut sink);
    }
    tr.exit();
    // The incremental layer alone: the replay `register` performs.
    for up in uploads {
        let started = Instant::now();
        let mut miner = IncrementalMiner::with_items(up.db.items().clone(), up.hot);
        for t in up.db.transactions() {
            miner.append_ids(t.timestamp(), t.items().to_vec()).expect("ordered");
        }
        replay_ms += started.elapsed().as_secs_f64() * 1e3;
        replay_tx += miner.len();
    }
    (replay_ms, replay_tx)
}

fn replay_append(
    tr: &mut Tracer,
    st: &State,
    c: &mut Counters,
    up: &Upload,
    op: &Op,
    sink: &mut Vec<u8>,
) {
    let raw = request_bytes("POST", &op.target, &op.body);
    tr.begin_op("append");
    let req = parse(tr, &raw);
    let rows =
        tr.time("parse_append_body", "registry", || parse_append_body(&req.body)).expect("rows");
    let dataset =
        tr.time("registry.get", "registry", || st.registry.get(up.name)).expect("dataset");
    let mut ds =
        tr.time("lock_wait", "registry", || dataset.write().unwrap_or_else(|e| e.into_inner()));
    tr.enter("write_hold", "registry");
    let old = ds.fingerprint();
    let before = ds.db().len();
    tr.time("append_lines", "registry", || ds.append_lines(&rows)).expect("ordered append");
    let appended = ds.db().len() - before;
    let applicable = tr.time("delta_applicable", "delta", || ds.delta_applicable());
    let mut patched = false;
    if applicable {
        let control = RunControl::new();
        let mut scratch = MineScratch::default();
        let (result, abort, dstats) = tr.time("mine_hot_delta", "delta", || {
            ds.mine_hot_delta(&control, &mut scratch, delta_threads())
        });
        c.absorb_delta(&dstats);
        if dstats.mode == DeltaMode::Delta {
            c.examined += result.stats.candidates_checked;
        }
        if abort.is_none() {
            let body = export(tr, c, ds.db().items(), &result.patterns);
            let fp = ds.fingerprint();
            tr.time("cache.patch", "cache", || {
                st.cache.patch(old, fp, up.hot, Arc::new(CachedResult::new(body, result.patterns)))
            });
            patched = true;
        }
    }
    let fp = ds.fingerprint();
    let total = ds.db().len();
    tr.time("unlock", "registry", || drop(ds));
    tr.exit();
    if !patched {
        st.cache.invalidate_fingerprint(old);
    }
    let body = format!(
        "{{\"appended\":{appended},\"transactions\":{total},\"fingerprint\":\"{fp:016x}\",\"patched\":{patched}}}\n"
    );
    respond(tr, sink, Response::json(200, body));
    tr.exit();
}

fn replay_fetch(
    tr: &mut Tracer,
    st: &State,
    c: &mut Counters,
    up: &Upload,
    idx: usize,
    sink: &mut Vec<u8>,
) {
    let raw = request_bytes("POST", &up.fetch_target(), b"");
    tr.begin_op("fetch");
    let _req = parse(tr, &raw);
    let dataset =
        tr.time("registry.get", "registry", || st.registry.get(up.name)).expect("dataset");
    let ds = tr.time("lock_wait", "registry", || dataset.read().unwrap_or_else(|e| e.into_inner()));
    let Some(hit) = tr.time("cache.get", "cache", || st.cache.get(ds.fingerprint(), up.hot)) else {
        // The server answered from its cache; a miss here means the replay
        // took another path, which the faithfulness check reports.
        c.misses += 1;
        tr.exit();
        return;
    };
    let body = tr.time("body_copy", "cache", || hit.body.as_ref().clone());
    c.counts.insert(("fetch", idx), hit.patterns.len());
    drop(ds);
    let response = Response::json(200, body)
        .with_header("X-Rpm-Cache", "hit")
        .with_header("X-Rpm-Patterns", hit.patterns.len().to_string());
    respond(tr, sink, response);
    tr.exit();
}

fn replay_stab(
    tr: &mut Tracer,
    st: &State,
    c: &mut Counters,
    up: &Upload,
    op: &Op,
    idx: usize,
    seen: &mut HashSet<usize>,
    sink: &mut Vec<u8>,
) {
    let raw = request_bytes("GET", &op.target, b"");
    tr.begin_op("stab");
    let _req = parse(tr, &raw);
    let dataset =
        tr.time("registry.get", "registry", || st.registry.get(up.name)).expect("dataset");
    let ds = tr.time("lock_wait", "registry", || dataset.read().unwrap_or_else(|e| e.into_inner()));
    let Some(hit) = tr.time("cache.get", "cache", || st.cache.get(ds.fingerprint(), up.hot)) else {
        c.misses += 1;
        tr.exit();
        return;
    };
    let first = seen.insert(Arc::as_ptr(&hit) as usize);
    if first {
        c.index_builds += 1;
    }
    let index = tr.time(if first { "index.build" } else { "index.get" }, "index", || hit.index());
    let active: Vec<RecurringPattern> = tr.time("active", "index", || match op.stab {
        Some(Stab::At(at)) => index.active_at(at).into_iter().cloned().collect(),
        Some(Stab::During(from, to)) => {
            index.active_during(from, to).into_iter().cloned().collect()
        }
        None => Vec::new(),
    });
    c.counts.insert(("stab", idx), active.len());
    c.active.push(active.len() as f64);
    let body = export(tr, c, ds.db().items(), &active);
    drop(ds);
    let response = Response::json(200, body).with_header("X-Rpm-Active", active.len().to_string());
    respond(tr, sink, response);
    tr.exit();
}

/// A cold grid-cell mine, as `handle_mine` runs it on a cache miss.
fn replay_mine(
    tr: &mut Tracer,
    st: &State,
    c: &mut Counters,
    name: &str,
    op: &Op,
    idx: usize,
    sink: &mut Vec<u8>,
) {
    let raw = request_bytes("POST", &op.target, b"");
    tr.begin_op("mine");
    let req = parse(tr, &raw);
    let dataset = tr.time("registry.get", "registry", || st.registry.get(name)).expect("dataset");
    let ds = tr.time("lock_wait", "registry", || dataset.read().unwrap_or_else(|e| e.into_inner()));
    let q = |k: &str| req.query_param(k).expect("grid query").to_string();
    let pct: f64 = q("min-ps").trim_end_matches('%').parse().expect("percentage");
    let per = q("per").parse().expect("per");
    let min_rec = q("min-rec").parse().expect("min-rec");
    let resolved = RpParams::try_with_threshold(per, Threshold::pct(pct), min_rec)
        .and_then(|p| p.try_resolve(ds.db().len()))
        .expect("valid grid params");
    let fp = ds.fingerprint();
    if tr.time("cache.get", "cache", || st.cache.get(fp, resolved)).is_none() {
        c.misses += 1;
    }
    let collector = Arc::new(MetricsCollector::new());
    tr.enter("mine", "engine");
    let engine_start = tr.now();
    let session = MiningSession::builder()
        .resolved(resolved)
        .threads(1)
        .control(RunControl::new())
        .observer(collector.clone())
        .build()
        .expect("valid session");
    let result = session.mine(ds.db()).expect("mines").into_result();
    let metrics = collector.snapshot();
    tr.phases(engine_start, &metrics.phase_wall);
    tr.exit();
    c.candidates += metrics.stats.candidates_checked;
    c.patterns += metrics.stats.patterns_found;
    c.peak_scratch_bytes = c.peak_scratch_bytes.max(metrics.peak_scratch_bytes);
    c.counts.insert(("mine", idx), result.patterns.len());
    let body = export(tr, c, ds.db().items(), &result.patterns);
    let n = result.patterns.len();
    tr.time("cache.insert", "cache", || {
        st.cache.insert(fp, resolved, Arc::new(CachedResult::new(body.clone(), result.patterns)))
    });
    drop(ds);
    respond(tr, sink, Response::json(200, body).with_header("X-Rpm-Patterns", n.to_string()));
    tr.exit();
}

/// Replays one phase's appends with spans off:
/// state the measured operations depend on, but not measured themselves.
fn replay_appends_untraced(tr: &mut Tracer, st: &State, run: &Run, phase: &str) {
    let on = std::mem::replace(&mut tr.on, false);
    let mut sink = Vec::new();
    for op in run.ops.iter().filter(|o| o.phase == phase && o.class == "append") {
        replay_append(tr, st, &mut Counters::default(), run.upload(op.dataset), op, &mut sink);
    }
    tr.on = on;
}

/// Replays the main phase; returns the counters and the wall time.
fn replay_main(tr: &mut Tracer, st: &State, run: &Run) -> (Counters, f64) {
    let mut c = Counters::default();
    let mut sink = Vec::new();
    let main: Vec<&Op> = run.ops.iter().filter(|o| o.phase == "main").collect();
    let mut started = Instant::now();
    let mut wal0 = st.wal_records();
    match run.workload {
        Workload::Ingest => {
            let up = &run.uploads[0];
            replay_appends_untraced(tr, st, run, "warmup");
            wal0 = st.wal_records();
            started = Instant::now();
            let done = AtomicBool::new(false);
            let (origin, base) = (tr.origin, tr.op + 1_000_000);
            let on = tr.on;
            let (rc, rspans) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let mut rt = Tracer::new(on, origin, base);
                    let mut rc = Counters::default();
                    let mut sink = Vec::new();
                    let mut i = 0;
                    while !done.load(Ordering::Acquire) {
                        replay_fetch(&mut rt, st, &mut rc, up, i, &mut sink);
                        i += 1;
                    }
                    rc.counts.clear();
                    (rc, rt.spans)
                });
                for op in main.iter().filter(|o| o.class == "append") {
                    replay_append(tr, st, &mut c, up, op, &mut sink);
                }
                done.store(true, Ordering::Release);
                reader.join().expect("replay reader")
            });
            c.merge(rc);
            // The reader's parent links index its own span list.
            let offset = tr.spans.len();
            tr.spans.extend(rspans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
        }
        Workload::Query => {
            let up = &run.uploads[0];
            let mut seen = HashSet::new();
            for (i, op) in main.iter().enumerate() {
                match op.class {
                    "fetch" => replay_fetch(tr, st, &mut c, up, i, &mut sink),
                    _ => replay_stab(tr, st, &mut c, up, op, i, &mut seen, &mut sink),
                }
            }
        }
        Workload::Explore => {
            for (i, op) in main.iter().enumerate() {
                replay_mine(tr, st, &mut c, op.dataset, op, i, &mut sink);
            }
        }
    }
    c.wal_records = st.wal_records() - wal0;
    (c, started.elapsed().as_secs_f64())
}

/// Recovery: the persistence reads alone, then `with_persistence` (which
/// replays and warms) and the first hot fetch.
fn replay_recover(tr: &mut Tracer, dir: &Path, uploads: &[Upload]) {
    let persist = Persistence::open(PersistConfig::new(dir)).expect("reopen");
    tr.begin_op("recover.reads");
    for up in uploads {
        tr.time("load_snapshot", "persist", || persist.load_snapshot(up.name));
        tr.time("read_wal", "persist", || persist.read_wal(up.name)).expect("wal reads");
    }
    tr.exit();
    tr.begin_op("recover");
    let (registry, _) = tr
        .time("with_persistence", "persist", || Registry::with_persistence(persist.clone()))
        .expect("recovers");
    let st = State { registry, cache: ResultCache::new(64 << 20), persist };
    let mut sink = Vec::new();
    hot_mine(tr, &st, &mut Counters::default(), &uploads[0], &mut sink);
    tr.exit();
}

/// Everything the traced run reports.
pub struct Traced {
    pub metrics: Vec<(String, f64, String)>,
    /// Sizes and counts the seed fixes (no direction is better); stamped,
    /// not reported as per-layer metrics.
    pub sizes: Vec<(String, f64, String)>,
    pub faithful: bool,
    pub attempted: usize,
    pub failed: usize,
    pub report: String,
}

/// Self time of every span (its duration minus its children's).
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_ms - s.start_ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ms - s.start_ms;
        }
    }
    own
}

fn spans_named(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ms - s.start_ms).collect()
}

pub fn traced(ctx: &Ctx, run: &Run) -> Traced {
    let origin = Instant::now();
    let dir = ctx.work.join("replay");
    let _ = std::fs::remove_dir_all(&dir);

    // (b) with spans: set-up, main phase, recovery.
    let mut tr = Tracer::new(true, origin, 0);
    let st = State::open(&dir);
    let mut setup_c = Counters::default();
    let (replay_ms, replay_tx) = replay_setup(&mut tr, &st, &mut setup_c, &run.uploads);
    let (counters, traced_wall) = replay_main(&mut tr, &st, run);
    // Census appends (and their warm-up) reach the journal before recovery
    // does; on `ingest` the warm-up preceded the main phase.
    if run.workload != Workload::Ingest {
        replay_appends_untraced(&mut tr, &st, run, "warmup");
    }
    replay_appends_untraced(&mut tr, &st, run, "census");
    drop(st);
    replay_recover(&mut tr, &dir, &run.uploads);
    let _ = std::fs::remove_dir_all(&dir);

    // The same main-phase replay with spans off: the tracing overhead.
    let mut bare = Tracer::new(false, origin, 0);
    let st = State::open(&dir);
    replay_setup(&mut bare, &st, &mut Counters::default(), &run.uploads);
    let (_, bare_wall) = replay_main(&mut bare, &st, run);
    drop(st);
    let _ = std::fs::remove_dir_all(&dir);
    let overhead_pct = 100.0 * (traced_wall - bare_wall) / bare_wall;

    let spans = tr.spans;
    let own = self_times(&spans);
    write_spans(
        &ctx.work.with_file_name(format!("spans-{}-seed{}.jsonl", run.workload.name(), ctx.seed)),
        &spans,
    );

    // Faithfulness: seed-determined counters against part (a)'s server.
    let mut checks: Vec<(&str, f64, f64)> = vec![
        ("delta.remined", counters.remined as f64, run.server_delta("mine.delta_remined")),
        ("delta.retained", counters.retained as f64, run.server_delta("mine.delta_retained")),
        ("delta.tail_tx", counters.tail_tx as f64, run.server_delta("mine.delta_tail_tx")),
        (
            "delta.checkpoint_hits",
            counters.checkpoint_hits as f64,
            run.server_delta("mine.delta_checkpoint_hits"),
        ),
        (
            "delta.calls",
            counters.delta_calls as f64,
            run.server_delta("mine.delta") + run.server_delta("mine.delta_full"),
        ),
        (
            "persist.wal_records",
            counters.wal_records as f64,
            run.server_delta("persist.wal_records"),
        ),
        (
            "engine.candidates",
            counters.candidates as f64,
            run.server_delta("mine.candidates_checked"),
        ),
        ("engine.patterns", counters.patterns as f64, run.server_delta("mine.patterns_found")),
        ("cache.misses", counters.misses as f64, run.server_delta("cache.misses")),
    ];
    let main_ops: Vec<&Op> = run.ops.iter().filter(|o| o.phase == "main").collect();
    let mut count_mismatch = 0usize;
    let mut count_checked = 0usize;
    for (&(class, i), &n) in &counters.counts {
        if let Some(op) = main_ops.get(i) {
            if op.class == class {
                count_checked += 1;
                if op.count != Some(n) {
                    count_mismatch += 1;
                }
            }
        }
    }
    checks.push(("requests.count_mismatches", count_mismatch as f64, 0.0));
    let mismatches: Vec<&(&str, f64, f64)> = checks.iter().filter(|(_, a, b)| a != b).collect();
    let faithful = mismatches.is_empty();
    for (name, replay, server) in &mismatches {
        eprintln!("servebench: trace counter {name}: replay {replay} vs server {server}");
    }

    // Per class: each layer's median self time against the class's
    // end-to-end p50 from part (a).
    let e2e_p50 = |class: &str| -> f64 {
        match class {
            "setup" => median(&run.setup_s) * 1e3,
            "recover" => median(&run.recover_s) * 1e3,
            _ => median(&run.latencies(class, run.phase_of(class))),
        }
    };
    let mut per_op: BTreeMap<(&str, usize), BTreeMap<&str, f64>> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&own) {
        *per_op.entry((s.class, s.op)).or_default().entry(s.layer).or_default() += t;
    }
    let layers =
        ["http", "registry", "persist", "delta", "engine", "export", "cache", "index", "io", "op"];
    let mut table = Obj::new();
    let mut attribution: Vec<(String, f64, String)> = Vec::new();
    let mut lines =
        vec![format!("{:<8} {:<10} {:>10} {:>8}", "class", "layer", "self_p50", "share%")];
    for class in ["append", "fetch", "stab", "mine", "setup", "recover"] {
        let ops: Vec<&BTreeMap<&str, f64>> =
            per_op.iter().filter(|((c, _), _)| *c == class).map(|(_, m)| m).collect();
        if ops.is_empty() {
            continue;
        }
        let p50 = e2e_p50(class);
        let mut row = Obj::new().num("e2e_p50_ms", p50).num("ops", ops.len() as f64);
        let mut attributed = 0.0;
        for layer in layers {
            let selfs: Vec<f64> =
                ops.iter().map(|m| m.get(layer).copied().unwrap_or(0.0)).collect();
            let m = median(&selfs);
            if layer != "op" {
                attributed += m;
            }
            row.push_raw(
                layer,
                Obj::new().num("self_p50_ms", m).num("share_pct", 100.0 * m / p50).render(),
            );
            lines.push(format!("{class:<8} {layer:<10} {m:>10.3} {:>8.1}", 100.0 * m / p50));
        }
        let unattributed = p50 - attributed;
        row.push_raw(
            "unattributed",
            Obj::new()
                .num("ms", unattributed)
                .num("share_pct", 100.0 * unattributed / p50)
                .render(),
        );
        lines.push(format!(
            "{class:<8} {:<10} {unattributed:>10.3} {:>8.1}",
            "unattrib.",
            100.0 * unattributed / p50
        ));
        attribution.push((format!("attrib.{class}.pct"), 100.0 * attributed / p50, "%".into()));
        attribution.push((format!("attrib.{class}.unattributed_ms"), unattributed, "ms".into()));
        table.push_raw(class, row.render());
    }
    lines.push(format!(
        "tracing overhead {overhead_pct:.2}% (traced {traced_wall:.3}s vs bare {bare_wall:.3}s)"
    ));
    for line in &lines {
        println!("{line}");
    }

    // Per-layer metrics, and the seed-fixed sizes beside them.
    let mut m = LayerMetrics::default();
    let mut sizes = LayerMetrics::default();
    let primary = match run.workload {
        Workload::Ingest => "append",
        Workload::Query => "stab",
        Workload::Explore => "mine",
    };
    let prim: Vec<&Op> = main_ops.iter().copied().filter(|o| o.class == primary).collect();
    let client = |f: fn(&Op) -> f64| prim.iter().map(|o| f(o)).collect::<Vec<f64>>();
    m.timing("http.connect_ms", &client(|o| o.timing.connect_ms));
    m.timing("http.ttfb_ms", &client(|o| o.timing.ttfb_ms));
    m.timing("http.transfer_ms", &client(|o| o.timing.transfer_ms));
    m.timing("http.parse_ms", &spans_named(&spans, "read_request"));
    m.timing("http.write_ms", &spans_named(&spans, "write_to"));
    sizes.value("http.request_kb", mean(&client(|o| o.timing.request_bytes as f64)) / 1024.0, "KB");
    m.value("http.response_kb", mean(&client(|o| o.timing.response_bytes as f64)) / 1024.0, "KB");
    m.timing("registry.lock_wait_ms", &spans_named(&spans, "lock_wait"));
    m.timing("registry.write_hold_ms", &spans_named(&spans, "write_hold"));
    m.timing("registry.append_lines_ms", &spans_named(&spans, "append_lines"));
    m.value("registry.register_ms", median(&spans_named(&spans, "register")), "ms");
    sizes.value("persist.wal_records", run.server_delta("persist.wal_records"), "count");
    m.value("persist.wal_kb", run.server_delta("persist.wal_bytes") / 1024.0, "KB");
    m.value("persist.snapshots", run.server_delta("persist.snapshots"), "count");
    m.value("persist.snapshot_load_ms", spans_named(&spans, "load_snapshot").iter().sum(), "ms");
    m.value("persist.wal_read_ms", spans_named(&spans, "read_wal").iter().sum(), "ms");
    m.value("persist.recover_ms", spans_named(&spans, "with_persistence").iter().sum(), "ms");
    m.value("incremental.replay_ms", replay_ms, "ms");
    sizes.value("incremental.replay_tx", replay_tx as f64, "count");
    m.timing(
        "delta.mine_ms",
        &spans
            .iter()
            .filter(|s| s.name == "mine_hot_delta" && s.class == "append")
            .map(|s| s.end_ms - s.start_ms)
            .collect::<Vec<_>>(),
    );
    sizes.value("delta.calls", counters.delta_calls as f64, "count");
    let full: usize = counters.delta_full.values().sum();
    m.value("delta.full", full as f64, "count");
    for reason in ["cold_store", "params_changed", "store_mismatch", "frontier_exceeded"] {
        m.value(
            &format!("delta.full.{reason}"),
            counters.delta_full.get(reason).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    m.value("delta.remined", counters.remined as f64, "count");
    m.value("delta.retained", counters.retained as f64, "count");
    m.value("delta.tail_tx", counters.tail_tx as f64, "count");
    m.value("delta.dirty_candidates", counters.dirty_candidates as f64, "count");
    m.value("delta.checkpoint_hits", counters.checkpoint_hits as f64, "count");
    m.value(
        "delta.checkpoint_hit_ratio",
        ratio(counters.checkpoint_hits, counters.examined),
        "ratio",
    );
    m.timing("engine.list_scan_ms", &spans_named(&spans, "list_scan"));
    m.timing("engine.tree_build_ms", &spans_named(&spans, "tree_build"));
    m.timing("engine.growth_ms", &spans_named(&spans, "growth"));
    let candidates = run.server_delta("mine.candidates_checked");
    let patterns = run.server_delta("mine.patterns_found");
    m.value("engine.candidates", candidates, "count");
    sizes.value("engine.patterns", patterns, "count");
    m.value("engine.yield", if candidates > 0.0 { patterns / candidates } else { 0.0 }, "ratio");
    m.value("engine.peak_scratch_mb", counters.peak_scratch_bytes as f64 / (1 << 20) as f64, "MB");
    let main_export: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "write_patterns_json" && !matches!(s.class, "setup" | "recover"))
        .map(|s| s.end_ms - s.start_ms)
        .collect();
    m.timing("export.json_ms", &main_export);
    m.value("export.json_kb", mean(&counters.export_bytes) / 1024.0, "KB");
    sizes.value("export.patterns", mean(&counters.export_patterns), "count");
    m.timing(
        "cache.get_ms",
        &spans
            .iter()
            .filter(|s| s.name == "cache.get" && !matches!(s.class, "setup" | "recover"))
            .map(|s| s.end_ms - s.start_ms)
            .collect::<Vec<_>>(),
    );
    m.timing("cache.body_copy_ms", &spans_named(&spans, "body_copy"));
    m.timing("cache.patch_ms", &spans_named(&spans, "cache.patch"));
    let hits = run.server_delta("cache.hits");
    let misses = run.server_delta("cache.misses");
    m.value("cache.hits", hits, "count");
    m.value("cache.misses", misses, "count");
    m.value("cache.patches", run.server_delta("cache.patches"), "count");
    m.value("cache.invalidations", run.server_delta("cache.invalidations"), "count");
    m.value("cache.evictions", run.server_delta("cache.evictions"), "count");
    m.value(
        "cache.hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        "ratio",
    );
    m.value("index.build_ms", spans_named(&spans, "index.build").iter().sum(), "ms");
    m.value("index.builds", counters.index_builds as f64, "count");
    m.timing("index.stab_ms", &spans_named(&spans, "active"));
    sizes.value("index.active", mean(&counters.active), "count");
    m.value("io.decode_ms", spans_named(&spans, "decode_dataset_body").iter().sum(), "ms");
    sizes.value(
        "io.upload_kb",
        run.uploads.iter().map(|u| u.body.len() as f64).sum::<f64>() / 1024.0,
        "KB",
    );
    m.0.extend(attribution);
    for class in ["append", "fetch", "stab", "mine", "setup", "recover"] {
        for (suffix, unit) in [("pct", "%"), ("unattributed_ms", "ms")] {
            let name = format!("attrib.{class}.{suffix}");
            if !m.0.iter().any(|(n, _, _)| *n == name) {
                m.value(&name, 0.0, unit);
            }
        }
    }
    m.value("trace.overhead_pct", overhead_pct, "%");
    m.value("trace.counter_mismatches", mismatches.len() as f64, "count");
    sizes.value("trace.requests_checked", count_checked as f64, "count");
    // Route tails that are reported here rather than bounded end to end.
    for (class, name) in [
        ("append", "route.append_tail_ms"),
        ("fetch", "route.fetch_tail_ms"),
        ("stab", "route.stab_tail_ms"),
    ] {
        let (t, _, _) = tail(&run.latencies(class, run.phase_of(class)));
        m.value(name, t, "ms");
    }

    let report = Obj::new()
        .raw("layers", table.render())
        .num("overhead_pct", overhead_pct)
        .num("traced_wall_s", traced_wall)
        .num("bare_wall_s", bare_wall)
        .raw(
            "faithfulness",
            format!(
                "[{}]",
                checks
                    .iter()
                    .map(|(n, a, b)| format!(
                        "{{\"counter\":\"{n}\",\"replay\":{},\"server\":{}}}",
                        num(*a),
                        num(*b)
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .num("requests_checked", count_checked as f64)
        .render();
    Traced {
        metrics: m.0,
        sizes: sizes.0,
        faithful,
        attempted: count_checked,
        failed: count_mismatch,
        report,
    }
}

#[derive(Default)]
struct LayerMetrics(Vec<(String, f64, String)>);

impl LayerMetrics {
    fn value(&mut self, name: &str, v: f64, unit: &str) {
        self.0.push((name.to_string(), v, unit.to_string()));
    }

    /// A timing: p50 and tail (the highest percentile with ten samples
    /// beyond it).
    fn timing(&mut self, name: &str, samples: &[f64]) {
        self.value(&format!("{name}.p50"), median(samples), "ms");
        self.value(&format!("{name}.tail"), tail(samples).0, "ms");
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn write_spans(path: &Path, spans: &[Span]) {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        out.push_str(
            &Obj::new()
                .num("id", i as f64)
                .str("name", s.name)
                .str("layer", s.layer)
                .str("class", s.class)
                .num("op", s.op as f64)
                .raw("parent", s.parent.map_or("null".to_string(), |p| p.to_string()))
                .num("start_ms", s.start_ms)
                .num("end_ms", s.end_ms)
                .render(),
        );
        out.push('\n');
    }
    let _ = std::fs::write(path, out);
}
