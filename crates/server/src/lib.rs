//! `rpm-server` — a dependency-free HTTP service over the RP-growth engine.
//!
//! The serving layer turns the library's mining pipeline into a long-lived
//! daemon speaking plain HTTP/1.1 over [`std::net::TcpListener`] — no
//! external crates, so tier-1 stays offline. The moving parts:
//!
//! * a **dataset registry** ([`Registry`]) of named, fingerprinted datasets,
//!   each backed by an [`rpm_core::IncrementalMiner`] so appends keep the
//!   per-item interval scanners live;
//! * a **result cache** ([`ResultCache`]) keyed by
//!   `(dataset fingerprint, ResolvedParams)`; an append **patches** the
//!   hot-params entry via a delta mine over the dirty frontier
//!   ([`rpm_core::delta`]) when the dataset's pattern store allows it,
//!   splicing the new body from the previous one's lines so only changed
//!   patterns are rendered, and invalidates otherwise;
//! * a **lock-free hit path**: each dataset publishes its head — content
//!   fingerprint and transaction count — beside its lock. A write moves it
//!   only once the cache holds the new version's hot entry (or the write
//!   could not be patched), still under the dataset lock and before the
//!   append is acknowledged, and retires the old version's entries after
//!   releasing that lock. `mine` resolves its cache key from the head and
//!   serves a hit without the dataset lock, so a hot fetch never waits for
//!   an append: while one runs, it hits the version before. A miss, an
//!   `active` stab and a mine at other parameters take the dataset's read
//!   lock;
//! * a **bounded worker pool**: an acceptor thread feeds a fixed-capacity
//!   connection queue drained by `threads` workers; when the queue is full
//!   the acceptor answers `503` immediately (backpressure, not pile-up);
//! * **graceful shutdown**: `POST /v1/shutdown` (or
//!   [`ServerHandle::shutdown`]) fires a shared [`CancelToken`] wired into
//!   every in-flight [`MiningSession`], so long mines drain as sound
//!   `206 Partial Content` responses instead of being killed mid-write;
//! * **durability** (opt-in via [`ServerConfig::persist`]): every register
//!   and append is journalled to a per-dataset WAL before it mutates the
//!   miner, snapshots are cut periodically, and startup recovery rebuilds
//!   the registry from disk — see the [`persist`] module.
//!
//! # Endpoints (`/v1`)
//!
//! The API surface is versioned under `/v1/…`; any other path answers
//! `404`. Every non-2xx response carries a uniform JSON envelope
//! `{"error":{"code":…,"message":…}}`.
//!
//! | Method & path                      | Effect |
//! |------------------------------------|--------|
//! | `POST /v1/datasets/{name}`         | upload a dataset (binary `RPMB` or text), `201`; `409` if the name is taken unless `?replace=true` |
//! | `POST /v1/datasets/{name}/append`  | append `ts<TAB>items…` lines; patches the hot cache entry via delta mine, else invalidates |
//! | `POST /v1/datasets/{name}/mine`    | mine with `per`, `min-ps`, `min-rec`, optional `timeout`, `threads`; `200` complete / `206` partial |
//! | `GET /v1/datasets/{name}/active?at=ts` | patterns active at `ts` (or `from`/`to`), served from the cached index |
//! | `GET /v1/datasets`                 | registered datasets |
//! | `GET /v1/metrics`                  | server + engine + cache + persistence + replication counters |
//! | `GET /v1/healthz`                  | liveness |
//! | `GET /v1/readyz`                   | readiness: recovery done and (on a replica) caught up within `max-lag` |
//! | `POST /v1/admin/promote`           | promote a caught-up replica to primary (seals the stream, accepts writes) |
//! | `POST /v1/shutdown`                | graceful shutdown (flushes a final snapshot of every durable dataset) |
//!
//! # Replication
//!
//! With `--repl-addr` the server additionally binds a replication listener
//! and streams its journal to followers; with `--replica-of HOST:PORT` it
//! runs as a read replica — bootstrapping from the primary's snapshot +
//! WAL tail, applying the live stream, fencing writes with
//! `421 Misdirected Request` + a `Location` at the primary — until
//! promoted. See the `replica` module docs for the protocol.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

mod cache;
mod http;
mod metrics;
pub mod persist;
mod pool;
mod registry;
mod replica;
mod timeparse;

pub use cache::{CacheStats, CachedResult, ResultCache};
pub use http::{read_request, ParseError, Request, Response};
pub use metrics::ServerMetrics;
pub use persist::{FsyncPolicy, PersistConfig, Persistence, WalRecord, WalReplay};
pub use registry::{
    decode_dataset_body, parse_append_body, AppendError, ApplyOutcome, Dataset, RecoveryReport,
    RegisterError, Registry,
};
pub use replica::{ReplMetrics, ReplRole, ReplState, REPL_HEARTBEAT_MILLIS, REPL_MAX_LAG_SEQS};
pub use timeparse::parse_duration;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pool::ConnQueue;
use rpm_core::engine::{AbortReason, CancelToken, MiningSession, RunControl};
use rpm_core::growth::MineScratch;
use rpm_core::params::{ResolvedParams, RpParams, Threshold};
use rpm_core::pattern::RecurringPattern;
use rpm_core::sync::{read_recover, write_recover};
use rpm_core::{push_json_str, splice_patterns_json, write_patterns_json};
use rpm_timeseries::Timestamp;

/// How the server binds and bounds itself.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8726` (port `0` picks one).
    pub addr: String,
    /// Worker threads draining the connection queue.
    pub threads: usize,
    /// Result-cache budget in bytes (`0` disables caching).
    pub cache_bytes: usize,
    /// Connections allowed to wait beyond the ones in service; the acceptor
    /// answers `503` once this fills.
    pub queue_depth: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Durability: `Some` journals every write to a per-dataset WAL under
    /// the given data directory and recovers from it at bind time; `None`
    /// keeps the registry purely in-memory.
    pub persist: Option<PersistConfig>,
    /// Primary-side replication: bind a second listener on this address
    /// (port `0` picks one) and stream the journal to subscribed
    /// followers. Requires [`ServerConfig::persist`].
    pub repl_addr: Option<String>,
    /// Follower-side replication: connect to a primary's replication
    /// address (`HOST:PORT`), bootstrap from its snapshot + WAL tail, and
    /// fence local writes until promoted. Requires
    /// [`ServerConfig::persist`].
    pub replica_of: Option<String>,
    /// Readiness threshold for `GET /v1/readyz` on a replica: worst
    /// per-dataset seq lag allowed while still reporting ready.
    pub repl_max_lag: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8726".to_string(),
            threads: 4,
            cache_bytes: 64 << 20,
            queue_depth: 64,
            io_timeout: Duration::from_secs(30),
            persist: None,
            repl_addr: None,
            replica_of: None,
            repl_max_lag: REPL_MAX_LAG_SEQS,
        }
    }
}

/// State shared by the acceptor, the workers and the handle.
#[derive(Debug)]
struct Shared {
    registry: Registry,
    cache: ResultCache,
    metrics: ServerMetrics,
    queue: ConnQueue,
    cancel: CancelToken,
    shutdown_started: AtomicBool,
    addr: SocketAddr,
    persist: Option<Arc<Persistence>>,
    repl: Option<Arc<ReplState>>,
}

impl Shared {
    /// Idempotently starts the drain: stop admissions, cancel every
    /// in-flight mining session, and wake the acceptor (and the
    /// replication acceptor, if any) with self-connects so they observe
    /// the flag even while parked in `accept()`.
    fn trigger_shutdown(&self) {
        if self.shutdown_started.swap(true, Ordering::SeqCst) {
            return;
        }
        self.cancel.cancel();
        self.queue.shutdown();
        let _ = TcpStream::connect(self.addr);
        if let Some(repl) = &self.repl {
            if let Some(repl_addr) = *rpm_core::sync::lock_recover(&repl.repl_addr) {
                let _ = TcpStream::connect(repl_addr);
            }
        }
    }
}

/// The running server: spawned by [`Server::bind`].
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns the acceptor and worker threads, and
    /// returns a handle for registering datasets and shutting down.
    pub fn bind(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let repl_enabled = config.repl_addr.is_some() || config.replica_of.is_some();
        if repl_enabled && config.persist.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replication (--repl-addr / --replica-of) requires a data directory",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Recover durable state *before* accepting connections, so the
        // first request already sees every dataset the previous process
        // acknowledged.
        let (mut registry, persist, recovery) = match &config.persist {
            Some(persist_config) => {
                let persist = Persistence::open(persist_config.clone())?;
                let (registry, report) = Registry::with_persistence(persist.clone())?;
                (registry, Some(persist), Some(report))
            }
            None => (Registry::new(), None, None),
        };
        let repl = repl_enabled.then(|| {
            let role =
                if config.replica_of.is_some() { ReplRole::Replica } else { ReplRole::Primary };
            Arc::new(ReplState::new(role, config.repl_max_lag))
        });
        // Bind the replication listener and install the hub before any
        // request or follower can arrive: every journalled record from the
        // first request onward is published.
        let mut repl_listener = None;
        let mut hub = None;
        if let (Some(repl_addr), Some(repl)) = (&config.repl_addr, &repl) {
            let bound = TcpListener::bind(repl_addr)?;
            *rpm_core::sync::lock_recover(&repl.repl_addr) = Some(bound.local_addr()?);
            let fanout = Arc::new(replica::primary::ReplHub::new());
            registry.set_hub(fanout.clone());
            repl_listener = Some(bound);
            hub = Some(fanout);
        }
        let shared = Arc::new(Shared {
            registry,
            cache: ResultCache::new(config.cache_bytes),
            metrics: ServerMetrics::new(),
            queue: ConnQueue::new(config.queue_depth),
            cancel: CancelToken::new(),
            shutdown_started: AtomicBool::new(false),
            addr,
            persist,
            repl,
        });
        let workers: Vec<_> = (0..config.threads.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            let io_timeout = config.io_timeout;
            std::thread::spawn(move || acceptor_loop(&listener, &shared, io_timeout))
        };
        let mut repl_threads = Vec::new();
        if let (Some(repl_listener), Some(hub)) = (repl_listener, hub) {
            repl_threads.push(replica::primary::spawn_listener(repl_listener, shared.clone(), hub));
        }
        if let Some(primary) = config.replica_of.clone() {
            repl_threads.push(replica::follower::spawn_client(shared.clone(), primary));
        }
        Ok(ServerHandle { addr, shared, acceptor, workers, repl_threads, recovery })
    }
}

/// Handle to a running server: address, registry access, shutdown, join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
    repl_threads: Vec<std::thread::JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
}

impl ServerHandle {
    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound replication listener address, when running with
    /// [`ServerConfig::repl_addr`] (useful with port `0`).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        let repl = self.shared.repl.as_ref()?;
        *rpm_core::sync::lock_recover(&repl.repl_addr)
    }

    /// The dataset registry, e.g. for preloading datasets from the CLI.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// What startup recovery found, when running with a data directory.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Requests a graceful shutdown (equivalent to `POST /v1/shutdown`).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Blocks until the acceptor and every worker have drained and exited,
    /// then flushes a final snapshot of every durable dataset (the workers
    /// are gone, so the flush sees quiescent state).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        // Replication threads exit within a heartbeat interval of the
        // shutdown flag (bounded accept/recv/read timeouts).
        for thread in self.repl_threads {
            let _ = thread.join();
        }
        self.shared.registry.flush_snapshots();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared, io_timeout: Duration) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.queue.is_shutdown() {
                    return;
                }
                continue;
            }
        };
        if shared.queue.is_shutdown() {
            // The shutdown self-connect, or a straggler racing it: the
            // listener closes when this loop returns, so just drop it.
            return;
        }
        let _ = stream.set_read_timeout(Some(io_timeout));
        let _ = stream.set_write_timeout(Some(io_timeout));
        if let Err(mut rejected) = shared.queue.push(stream) {
            // Backpressure: answer in the acceptor rather than queueing
            // unboundedly. The write is small and the socket buffer empty,
            // so this cannot stall the accept loop in practice.
            ServerMetrics::bump(&shared.metrics.rejected_backpressure);
            ServerMetrics::bump(&shared.metrics.server_errors);
            let response = Response::json(
                503,
                error_body("backpressure", "connection queue full, retry later"),
            )
            .with_header("Retry-After", "1");
            write_and_drain(&mut rejected, &response);
        }
    }
}

/// Writes `response`, half-closes the send side, then briefly drains unread
/// request bytes. Dropping a socket with unread input makes the kernel send
/// RST, which can destroy the buffered response before the peer reads it —
/// exactly the connections answered early (backpressure `503`s, parse
/// `400`s) are the ones whose request we never read.
fn write_and_drain(stream: &mut TcpStream, response: &Response) {
    let _ = response.write_to(stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scratch = [0u8; 4096];
    while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
}

fn worker_loop(shared: &Shared) {
    while let Some(mut stream) = shared.queue.pop() {
        handle_connection(shared, &mut stream);
    }
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let request = match read_request(stream) {
        Ok(request) => request,
        // Peer vanished or timed out mid-request: nobody to answer.
        Err(ParseError::Io(_)) => return,
        Err(e @ ParseError::TooLarge(_)) => {
            ServerMetrics::bump(&shared.metrics.client_errors);
            write_and_drain(
                stream,
                &Response::json(413, error_body("payload_too_large", &e.to_string())),
            );
            return;
        }
        Err(e) => {
            ServerMetrics::bump(&shared.metrics.client_errors);
            write_and_drain(
                stream,
                &Response::json(400, error_body("bad_request", &e.to_string())),
            );
            return;
        }
    };
    ServerMetrics::bump(&shared.metrics.requests_total);
    let response = route(shared, &request);
    if response.status() >= 500 {
        ServerMetrics::bump(&shared.metrics.server_errors);
    } else if response.status() >= 400 {
        ServerMetrics::bump(&shared.metrics.client_errors);
    }
    let _ = response.write_to(stream);
    let _ = stream.flush();
}

fn route(shared: &Shared, req: &Request) -> Response {
    let no_route =
        || Response::json(404, error_body("not_found", &format!("no route for {}", req.path)));
    let segments = req.segments();
    // Every route lives under `/v1`; any other path is unknown.
    let Some((&"v1", segments)) = segments.split_first() else {
        return no_route();
    };
    match (req.method.as_str(), segments) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["readyz"]) => handle_readyz(shared, req),
        ("GET", ["metrics"]) => {
            let datasets = shared.registry.names().len();
            let persist = shared.persist.as_deref().map(Persistence::counters);
            let repl = shared.repl.as_deref();
            let body = shared.metrics.to_json(&shared.cache.stats(), datasets, persist, repl);
            Response::json(200, body)
        }
        ("GET", ["datasets"]) => handle_list(shared),
        ("POST", ["shutdown"]) => {
            shared.trigger_shutdown();
            Response::json(200, "{\"status\":\"shutting down\"}\n")
        }
        ("POST", ["admin", "promote"]) => handle_promote(shared, req),
        ("POST", ["datasets", name]) => fence_writes(shared, &format!("/v1/datasets/{name}"))
            .unwrap_or_else(|| handle_upload(shared, name, req)),
        ("POST", ["datasets", name, "append"]) => {
            fence_writes(shared, &format!("/v1/datasets/{name}/append"))
                .unwrap_or_else(|| handle_append(shared, name, req))
        }
        ("POST", ["datasets", name, "mine"]) => handle_mine(shared, name, req),
        ("GET", ["datasets", name, "active"]) => handle_active(shared, name, req),
        _ => {
            let known = matches!(
                segments,
                ["healthz" | "readyz" | "metrics" | "datasets" | "shutdown"]
                    | ["admin", "promote"]
                    | ["datasets", _]
                    | ["datasets", _, "append" | "mine" | "active"]
            );
            if known {
                Response::json(
                    405,
                    error_body(
                        "method_not_allowed",
                        &format!("method {} not allowed here", req.method),
                    ),
                )
            } else {
                no_route()
            }
        }
    }
}

/// The uniform error envelope: every non-2xx body is
/// `{"error":{"code":…,"message":…}}`. Codes are stable machine-readable
/// slugs (`bad_request`, `not_found`, `method_not_allowed`, `conflict`,
/// `payload_too_large`, `backpressure`, `shutting_down`, `internal`);
/// messages are human-readable and may change between releases.
fn error_body(code: &str, message: &str) -> Vec<u8> {
    let mut body = b"{\"error\":{\"code\":".to_vec();
    push_json_str(&mut body, code);
    body.extend_from_slice(b",\"message\":");
    push_json_str(&mut body, message);
    body.extend_from_slice(b"}}\n");
    body
}

fn bad_request(message: &str) -> Response {
    Response::json(400, error_body("bad_request", message))
}

fn not_found(name: &str) -> Response {
    Response::json(404, error_body("not_found", &format!("no dataset named {name:?}")))
}

fn internal_error(message: &str) -> Response {
    Response::json(500, error_body("internal", message))
}

/// Write fencing for replicas: a follower that has not been promoted
/// answers every mutating dataset route with `421 Misdirected Request`
/// and, when the primary's HTTP address is known from its `Welcome`, a
/// `Location` header pointing at the canonical `/v1` path over there.
/// Returns `None` when writes are allowed (primary, promoted, or
/// replication not configured).
fn fence_writes(shared: &Shared, canonical_path: &str) -> Option<Response> {
    let repl = shared.repl.as_ref()?;
    if !repl.is_fenced() {
        return None;
    }
    let mut response = Response::json(
        421,
        error_body("misdirected", "this node is a read replica; send writes to the primary"),
    );
    let primary = repl.primary_http();
    if !primary.is_empty() {
        response = response.with_header("Location", format!("http://{primary}{canonical_path}"));
    }
    Some(response)
}

/// `GET /v1/readyz`: readiness as distinct from liveness. A primary (or
/// promoted replica) is ready once recovery finished — which it has by the
/// time the listener accepts. A fenced replica is ready once bootstrap
/// completed **and** its worst per-dataset seq lag at the last heartbeat
/// is within the threshold (`--max-lag`, overridable per-request with
/// `?max-lag=N`).
fn handle_readyz(shared: &Shared, req: &Request) -> Response {
    let Some(repl) = shared.repl.as_ref() else {
        return Response::json(200, "{\"ready\":true,\"role\":\"standalone\"}\n".to_string());
    };
    if !repl.is_fenced() {
        return Response::json(
            200,
            format!("{{\"ready\":true,\"role\":\"{}\"}}\n", repl.role_name()),
        );
    }
    let max_lag = match req.query_param("max-lag") {
        Some(v) => match parse_num::<u64>(v, "max-lag") {
            Ok(v) => v,
            Err(resp) => return resp,
        },
        None => repl.max_lag_seqs,
    };
    let lag = ReplMetrics::get(&repl.metrics.lag_seqs);
    if repl.is_bootstrapped() && lag <= max_lag {
        Response::json(200, format!("{{\"ready\":true,\"role\":\"replica\",\"lag_seqs\":{lag}}}\n"))
    } else {
        Response::json(
            503,
            error_body(
                "not_ready",
                &format!(
                    "replica not caught up (bootstrapped={}, lag_seqs={lag}, max={max_lag})",
                    repl.is_bootstrapped()
                ),
            ),
        )
    }
}

/// `POST /v1/admin/promote`: flips a caught-up replica into a primary.
/// The write fence lifts, the follower thread seals its stream at the next
/// loop iteration, and the journal continues at the shipped seqs — no
/// gaps, so a later node can replicate from the promoted one. Refused
/// with 409 on a node that is not a fenced replica, or one that has not
/// finished bootstrap (override with `?force=true` during disaster
/// recovery when the primary is gone for good).
fn handle_promote(shared: &Shared, req: &Request) -> Response {
    let Some(repl) = shared.repl.as_ref() else {
        return Response::json(
            409,
            error_body("conflict", "replication is not configured on this node"),
        );
    };
    let force = matches!(req.query_param("force"), Some("true") | Some("1"));
    if repl.role == ReplRole::Replica && !repl.is_promoted() && !repl.is_bootstrapped() && !force {
        return Response::json(
            409,
            error_body(
                "conflict",
                "replica has not finished bootstrap; pass force=true to promote anyway",
            ),
        );
    }
    if repl.promote() {
        Response::json(200, "{\"role\":\"promoted\",\"promoted\":true}\n".to_string())
    } else {
        Response::json(
            409,
            error_body("conflict", &format!("cannot promote a {} node", repl.role_name())),
        )
    }
}

fn require_param<'r>(req: &'r Request, key: &str) -> Result<&'r str, Response> {
    req.query_param(key).ok_or_else(|| bad_request(&format!("missing query parameter {key:?}")))
}

fn parse_num<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, Response>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| bad_request(&format!("bad {what} {text:?}: {e}")))
}

/// Resolves the per/min-ps/min-rec query triple against a database length.
fn resolve_params(req: &Request, db_len: usize) -> Result<ResolvedParams, Response> {
    let per: Timestamp = parse_num(require_param(req, "per")?, "per")?;
    let threshold: Threshold =
        require_param(req, "min-ps")?.parse().map_err(|e| bad_request(&format!("min-ps: {e}")))?;
    let min_rec: usize = match req.query_param("min-rec") {
        Some(v) => parse_num(v, "min-rec")?,
        None => 1,
    };
    let params = RpParams::try_with_threshold(per, threshold, min_rec)
        .map_err(|e| bad_request(&e.to_string()))?;
    params.try_resolve(db_len).map_err(|e| bad_request(&e.to_string()))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

fn handle_list(shared: &Shared) -> Response {
    let mut body = b"[".to_vec();
    for name in shared.registry.names() {
        let Some(dataset) = shared.registry.get(&name) else { continue };
        let ds = read_recover(&dataset);
        let hot = ds.hot_params();
        if body.len() > 1 {
            body.push(b',');
        }
        body.extend_from_slice(b"{\"name\":");
        push_json_str(&mut body, &name);
        body.extend_from_slice(
            format!(
                ",\"transactions\":{},\"items\":{},\"fingerprint\":\"{:016x}\",\
                 \"appends\":{},\"hot\":{{\"per\":{},\"min_ps\":{},\"min_rec\":{}}}}}",
                ds.db().len(),
                ds.db().item_count(),
                ds.fingerprint(),
                ds.appends(),
                hot.per,
                hot.min_ps,
                hot.min_rec,
            )
            .as_bytes(),
        );
    }
    body.extend_from_slice(b"]\n");
    Response::json(200, body)
}

fn handle_upload(shared: &Shared, name: &str, req: &Request) -> Response {
    if !valid_name(name) {
        return bad_request("dataset names are 1-64 chars of [A-Za-z0-9._-]");
    }
    let db = match decode_dataset_body(&req.body) {
        Ok(db) => db,
        Err(e) => return bad_request(&e),
    };
    // Hot parameters fix what the incremental scanners are maintained for;
    // min-ps must be an absolute count here (a percentage would drift as
    // the stream grows).
    let hot = {
        let per: Timestamp = match req.query_param("per") {
            Some(v) => match parse_num(v, "per") {
                Ok(v) => v,
                Err(resp) => return resp,
            },
            None => 1,
        };
        let min_ps: usize = match req.query_param("min-ps") {
            Some(v) => match parse_num(v, "hot min-ps (absolute count)") {
                Ok(v) => v,
                Err(resp) => return resp,
            },
            None => 2,
        };
        let min_rec: usize = match req.query_param("min-rec") {
            Some(v) => match parse_num(v, "min-rec") {
                Ok(v) => v,
                Err(resp) => return resp,
            },
            None => 2,
        };
        ResolvedParams::new(per, min_ps, min_rec)
    };
    let replace = match req.query_param("replace") {
        None | Some("false") | Some("0") => false,
        Some("true") | Some("1") => true,
        Some(other) => return bad_request(&format!("bad replace value {other:?} (true|false)")),
    };
    let transactions = db.len();
    let items = db.item_count();
    match shared.registry.register_replacing(name, db, hot, replace) {
        Ok((replaced, fingerprint)) => {
            if let Some(replaced) = replaced {
                retire(shared, replaced, fingerprint);
            }
            let mut body = b"{\"name\":".to_vec();
            push_json_str(&mut body, name);
            body.extend_from_slice(
                format!(
                    ",\"transactions\":{transactions},\"items\":{items},\
                     \"fingerprint\":\"{fingerprint:016x}\"}}\n"
                )
                .as_bytes(),
            );
            Response::json(201, body)
        }
        Err(RegisterError::Exists) => Response::json(
            409,
            error_body(
                "conflict",
                &format!("dataset {name:?} already exists; pass replace=true to overwrite"),
            ),
        ),
        Err(RegisterError::Invalid(e)) => bad_request(&e),
        Err(RegisterError::Wal(e)) => internal_error(&format!("journalling registration: {e}")),
    }
}

/// Refreshes the hot-params cache entry after a dataset change: when the
/// pattern store can absorb the change as a dirty-frontier delta, re-mine
/// incrementally and install the result as the patched successor of the
/// entry the dataset's head names. Its body is spliced from that entry's
/// body, so only the lines of changed patterns are rendered. The delta
/// mine runs on this thread; its thread count of 1 would size only a full
/// fallback, which `delta_applicable` has ruled out. Returns whether the
/// patch landed. Shared between the append handler and the replication
/// follower so a replica's cache stays exactly as warm as the primary's;
/// both then call [`publish_and_retire`].
pub(crate) fn patch_hot_cache(shared: &Shared, ds: &Dataset) -> bool {
    if !ds.delta_applicable() {
        return false;
    }
    let control = RunControl::new().with_cancel(shared.cancel.clone());
    let mut scratch = MineScratch::default();
    let (result, abort, dstats) = ds.mine_hot_delta(&control, &mut scratch, 1);
    shared.metrics.absorb_delta(&dstats);
    if abort.is_some() {
        return false;
    }
    let hot = ds.hot_params();
    let served = ds.published().fingerprint;
    let previous = shared.cache.peek(served, hot);
    let (body, line_ends) = splice_patterns_json(
        ds.db().items(),
        &result.patterns,
        previous.as_deref().map(CachedResult::lines),
    );
    let entry = CachedResult::with_line_ends(body, line_ends, result.patterns);
    shared.cache.patch(served, ds.fingerprint(), hot, Arc::new(entry));
    ServerMetrics::bump(&shared.metrics.appends_patched);
    true
}

/// Moves the dataset's head to its current content, then releases the
/// dataset's lock and retires the cached results of the version the head
/// named before. Write paths call it once the cache holds the new
/// version's hot entry (or the change could not be patched), so until
/// then a lock-free hot fetch is a hit on the previous version.
pub(crate) fn publish_and_retire<D: Deref<Target = Dataset>>(shared: &Shared, ds: D) {
    let previous = ds.publish_head().fingerprint;
    let current = ds.fingerprint();
    drop(ds);
    retire(shared, previous, current);
}

/// Drops the cached results of content `old` that content `current` has
/// replaced — after an append or a replacing upload, outside every dataset
/// lock. Equal fingerprints name equal content, whose results stay valid.
fn retire(shared: &Shared, old: u64, current: u64) {
    if old != current {
        shared.cache.invalidate_fingerprint(old);
    }
}

fn handle_append(shared: &Shared, name: &str, req: &Request) -> Response {
    let Some(dataset) = shared.registry.get(name) else {
        return not_found(name);
    };
    let rows = match parse_append_body(&req.body) {
        Ok(rows) => rows,
        Err(e) => return bad_request(&e),
    };
    let mut ds = write_recover(&dataset);
    let old_fingerprint = ds.fingerprint();
    let before = ds.db().len();
    // lint:allow(lock-order): journal-before-mutate — the WAL append happens under the dataset lock so the journal and in-memory state advance in lockstep (DESIGN.md §5); fsync policy bounds the hold time
    let outcome = ds.append_lines(&rows);
    let appended = ds.db().len() - before;
    let fingerprint = ds.fingerprint();
    let transactions = ds.db().len();
    // Patch-in-place: when the append landed cleanly and the dataset's
    // pattern store can absorb it as a dirty-frontier delta, refresh the
    // hot-params cache entry instead of dropping it — the next `/mine` at
    // the hot parameters is a cache hit, not a full re-mine.
    let patched = outcome.is_ok() && fingerprint != old_fingerprint && patch_hot_cache(shared, &ds);
    // The head moves with its result, before the append is acknowledged.
    // The old content is retired even when the append failed part-way:
    // whatever prefix landed already changed the fingerprint.
    publish_and_retire(shared, ds);
    ServerMetrics::bump(&shared.metrics.appends);
    shared.metrics.appended_transactions.fetch_add(appended as u64, Ordering::Relaxed);
    match outcome {
        Ok(()) => Response::json(
            200,
            format!(
                "{{\"appended\":{appended},\"transactions\":{transactions},\
                 \"fingerprint\":\"{fingerprint:016x}\",\"patched\":{patched}}}\n"
            ),
        ),
        // A time regression conflicts with the stream's append-only order.
        Err(e @ AppendError::Order(_)) => {
            Response::json(409, error_body("conflict", &e.to_string()))
        }
        // The WAL write failed before anything was applied.
        Err(e @ AppendError::Wal(_)) => internal_error(&e.to_string()),
    }
}

fn handle_mine(shared: &Shared, name: &str, req: &Request) -> Response {
    let Some(head) = shared.registry.head(name) else {
        return not_found(name);
    };
    let timeout = match req.query_param("timeout").map(parse_duration).transpose() {
        Ok(t) => t,
        Err(e) => return bad_request(&e),
    };
    let threads: usize = match req.query_param("threads") {
        Some(v) => match parse_num::<usize>(v, "threads") {
            Ok(v) => v.clamp(1, 16),
            Err(resp) => return resp,
        },
        None => 1,
    };
    let scratch_budget = match req.query_param("scratch-mb") {
        Some(v) => match parse_num::<usize>(v, "scratch-mb") {
            Ok(mb) => Some(mb.saturating_mul(1 << 20)),
            Err(resp) => return resp,
        },
        None => None,
    };

    let with_headers = |response: Response, cache: &str, cache_key: u64, patterns: usize| {
        response
            .with_header("X-Rpm-Cache", cache)
            .with_header("X-Rpm-Cache-Key", format!("{cache_key:016x}"))
            .with_header("X-Rpm-Patterns", patterns.to_string())
    };
    let complete = |entry: &CachedResult, hit: bool, cache_key: u64| {
        with_headers(
            Response::json(200, entry.body.as_ref().clone()),
            if hit { "hit" } else { "miss" },
            cache_key,
            entry.patterns.len(),
        )
    };

    // A hit is served from the published head, without the dataset lock:
    // the cache is keyed by content, so the entry is the complete result
    // for the committed version the head names, and a hot fetch never
    // waits for an append.
    let resolved = match resolve_params(req, head.transactions) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    if let Some(entry) = shared.cache.hit(head.fingerprint, resolved) {
        return complete(&entry, true, head.fingerprint ^ resolved.cache_key());
    }

    let Some(dataset) = shared.registry.get(name) else {
        return not_found(name);
    };
    let mut control = RunControl::new().with_cancel(shared.cancel.clone());
    if let Some(t) = timeout {
        control = control.with_timeout(t);
    }
    if let Some(bytes) = scratch_budget {
        control = control.with_scratch_budget(bytes);
    }

    // A miss holds the read lock for the whole mine: appends to *this*
    // dataset wait, other datasets are untouched. An append may have
    // landed since the head was read, so the key is resolved again.
    let ds = read_recover(&dataset);
    let resolved = match resolve_params(req, ds.db().len()) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let cache_key = ds.fingerprint() ^ resolved.cache_key();
    match lookup_or_mine(shared, &ds, resolved, threads, control) {
        Ok(Mined::Complete(entry, hit)) => complete(&entry, hit, cache_key),
        // Partial results are sound but deadline-shaped: report, don't cache.
        Ok(Mined::Partial { body, patterns, reason }) => {
            with_headers(Response::json(206, body), "miss", cache_key, patterns)
                .with_header("X-Rpm-Abort", reason.to_string())
        }
        Err(response) => response,
    }
}

/// What [`lookup_or_mine`] answered with.
enum Mined {
    /// A complete result: a cache hit (`true`) or a fresh mine, now cached.
    Complete(Arc<CachedResult>, bool),
    /// A sound partial result: exported, never cached.
    Partial { body: Vec<u8>, patterns: usize, reason: AbortReason },
}

/// The one mine path behind `mine` and `active`: serves `resolved` from the
/// result cache, or mines it on a miss — through the dataset's pattern
/// store at its hot parameters, through a [`MiningSession`] otherwise —
/// folds the run into [`ServerMetrics::absorb_mine`], then exports the
/// patterns and caches a complete result.
fn lookup_or_mine(
    shared: &Shared,
    ds: &Dataset,
    resolved: ResolvedParams,
    threads: usize,
    control: RunControl,
) -> Result<Mined, Response> {
    let fingerprint = ds.fingerprint();
    // lint:allow(lock-order): `cache.get` is ResultCache::get, which the name-based resolver also links to Registry::get — the registry map is never touched under the dataset lock; the real dataset -> cache.state order is consistent everywhere
    if let Some(hit) = shared.cache.get(fingerprint, resolved) {
        return Ok(Mined::Complete(hit, true));
    }
    ServerMetrics::bump(&shared.metrics.mine_runs);
    // lint:allow(no-raw-clock-in-hot-path): per-request wall measurement for metrics, outside the recursion
    let started = Instant::now();
    let hot = resolved == ds.hot_params();
    let (result, abort) = if hot {
        // The dataset's live scanners already hold the first-scan summaries
        // for exactly these parameters, and the pattern store may hold the
        // previous complete result plus its measure checkpoints: skip the
        // scan, re-measure only the tail-dirtied candidates, and splice the
        // clean patterns. `threads` sizes a cold or mismatched store's full
        // mine; the frontier walk runs on this thread.
        ServerMetrics::bump(&shared.metrics.mine_fastpath);
        let (result, abort, dstats) =
            ds.mine_hot_delta(&control, &mut MineScratch::default(), threads);
        shared.metrics.absorb_delta(&dstats);
        (result, abort)
    } else {
        let outcome = MiningSession::builder()
            .resolved(resolved)
            .threads(threads)
            .control(control)
            .build()
            .and_then(|session| session.mine(ds.db()))
            .map_err(|e| bad_request(&e.to_string()))?;
        let abort = outcome.abort_reason();
        (outcome.into_result(), abort)
    };
    shared.metrics.absorb_mine(started.elapsed(), &result.stats, abort);
    let (body, mut line_ends) = splice_patterns_json(ds.db().items(), &result.patterns, None);
    Ok(match abort {
        None => {
            // Only the hot entry is ever spliced from, so only it keeps
            // where its lines end.
            if !hot {
                line_ends = Vec::new();
            }
            let entry = Arc::new(CachedResult::with_line_ends(body, line_ends, result.patterns));
            shared.cache.insert(fingerprint, resolved, entry.clone());
            Mined::Complete(entry, false)
        }
        Some(reason) => Mined::Partial { body, patterns: result.patterns.len(), reason },
    })
}

fn handle_active(shared: &Shared, name: &str, req: &Request) -> Response {
    let Some(dataset) = shared.registry.get(name) else {
        return not_found(name);
    };
    ServerMetrics::bump(&shared.metrics.active_queries);
    let ds = read_recover(&dataset);
    let resolved = match resolve_params(req, ds.db().len()) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // Mine to completion (no per-request deadline: a partial pattern set
    // would silently answer stabbing queries wrongly). The server-wide
    // cancel token still applies.
    let control = RunControl::new().with_cancel(shared.cancel.clone());
    let (cached, cache_state) = match lookup_or_mine(shared, &ds, resolved, 1, control) {
        Ok(Mined::Complete(entry, hit)) => (entry, if hit { "hit" } else { "miss" }),
        Ok(Mined::Partial { .. }) => {
            return Response::json(
                503,
                error_body("shutting_down", "shutting down before mining finished"),
            )
        }
        Err(response) => return response,
    };

    let index = cached.index();
    let active: Vec<RecurringPattern> = if let Some(at) = req.query_param("at") {
        let at: Timestamp = match parse_num(at, "at") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        index.active_at(at).into_iter().cloned().collect()
    } else if let (Some(from), Some(to)) = (req.query_param("from"), req.query_param("to")) {
        let from: Timestamp = match parse_num(from, "from") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let to: Timestamp = match parse_num(to, "to") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        index.active_during(from, to).into_iter().cloned().collect()
    } else {
        return bad_request("pass at=ts, or from=ts&to=ts");
    };

    let mut body = Vec::new();
    if write_patterns_json(&mut body, ds.db().items(), &active).is_err() {
        return internal_error("serialising patterns failed");
    }
    Response::json(200, body)
        .with_header("X-Rpm-Cache", cache_state)
        .with_header("X-Rpm-Active", active.len().to_string())
}

// A tiny in-crate smoke test; the full loopback scenarios live in the
// workspace-level `tests/server_integration.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn send(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn healthz_shutdown_roundtrip() {
        let handle = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let ok = send(addr, "GET /v1/healthz HTTP/1.1\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        let missing = send(addr, "GET /v1/nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("\"code\":\"not_found\""), "{missing}");
        let wrong_method = send(addr, "DELETE /v1/metrics HTTP/1.1\r\n\r\n");
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");
        assert!(wrong_method.contains("\"code\":\"method_not_allowed\""), "{wrong_method}");
        let bye = send(addr, "POST /v1/shutdown HTTP/1.1\r\n\r\n");
        assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
        handle.join();
        assert!(TcpStream::connect(addr).is_err(), "listener closed after join");
    }

    #[test]
    fn upload_mine_and_active_over_loopback() {
        let handle = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let db = rpm_timeseries::running_example_db();
        let mut text = Vec::new();
        rpm_timeseries::io::write_timestamped(&db, &mut text).unwrap();
        let upload = format!(
            "POST /v1/datasets/shop?per=2&min-ps=3&min-rec=2 HTTP/1.1\r\n\
             Content-Length: {}\r\n\r\n{}",
            text.len(),
            String::from_utf8(text).unwrap()
        );
        assert!(send(addr, &upload).starts_with("HTTP/1.1 201"), "upload");
        // Running example at (2, 3, 2) yields the paper's 8 patterns.
        let mine =
            send(addr, "POST /v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2 HTTP/1.1\r\n\r\n");
        assert!(mine.starts_with("HTTP/1.1 200"), "{mine}");
        assert!(mine.contains("X-Rpm-Patterns: 8"), "{mine}");
        assert!(mine.contains("X-Rpm-Cache: miss"), "{mine}");
        let again =
            send(addr, "POST /v1/datasets/shop/mine?per=2&min-ps=3&min-rec=2 HTTP/1.1\r\n\r\n");
        assert!(again.contains("X-Rpm-Cache: hit"), "{again}");
        let active = send(
            addr,
            "GET /v1/datasets/shop/active?per=2&min-ps=3&min-rec=2&at=5 HTTP/1.1\r\n\r\n",
        );
        assert!(active.starts_with("HTTP/1.1 200"), "{active}");
        assert!(active.contains("X-Rpm-Cache: hit"), "served from the mine's cache entry");
        handle.shutdown();
        handle.join();
    }
}
