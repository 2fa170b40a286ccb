//! The dataset registry: named, fingerprinted, append-able datasets.
//!
//! Each dataset wraps an [`IncrementalMiner`] rather than a bare
//! [`TransactionDb`]: the miner keeps Algorithm 1's per-item interval
//! scanners live across appends, so re-mining at the dataset's *hot*
//! parameters (fixed at registration) skips the first database scan
//! entirely, while arbitrary per-request parameters still mine the full
//! pipeline over the accumulated database.
//!
//! When the server runs with a data directory, each dataset additionally
//! carries a [`DatasetLog`]: write paths journal to the WAL **before**
//! mutating the miner, and [`Registry::with_persistence`] rebuilds every
//! dataset from its newest snapshot plus the WAL tail at startup, so
//! fingerprints and delta mining resume exactly where the previous
//! process left off.
//!
//! Beside its lock, each dataset publishes its [`Head`] — the fingerprint
//! and length of the content its readers are served — in a small lock of
//! its own. The head is set when the dataset is created or recovered. A
//! write path does not move it: the append handler and the replication
//! follower call [`Dataset::publish_head`] once the result cache holds the
//! new version's hot entry, while they still hold the dataset's lock, so
//! an append is visible there before it is acknowledged. A cache-hit
//! `mine` reads the head instead of the dataset, so it never waits for an
//! append: until the head moves it hits the version before.
//!
//! The fingerprint itself is kept running by the miner
//! ([`IncrementalMiner::fingerprint`]), so reading it after an append is
//! O(1) rather than a pass over the whole database.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};

use rpm_core::engine::{AbortReason, RunControl};
use rpm_core::growth::{MineScratch, MiningResult};
use rpm_core::sync::{lock_recover, read_recover, write_recover};
use rpm_core::{DeltaStats, IncrementalMiner, PatternStore, ResolvedParams};
use rpm_timeseries::{from_bytes, io, SnapshotHeader, Timestamp, TransactionDb};

use crate::persist::{DatasetLog, Persistence, WalRecord};
use crate::replica::primary::{Event, ReplHub};

/// What a dataset serves its readers: the content fingerprint that keys
/// its cached results, and the transaction count a percentage `min-ps`
/// resolves against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    pub fingerprint: u64,
    pub transactions: usize,
}

/// A registered dataset: the live miner plus its published head.
#[derive(Debug)]
pub struct Dataset {
    miner: IncrementalMiner,
    /// The published `(fingerprint, length)`, shared with the registry so
    /// readers can take it without the dataset lock.
    head: Arc<Mutex<Head>>,
    appends: u64,
    /// The last complete hot-params mining result, reused by
    /// [`Dataset::mine_hot_delta`] to make append-then-mine cost
    /// proportional to the dirty frontier. Interior mutability because
    /// hot mines run under the dataset's *read* lock.
    store: Mutex<PatternStore>,
    /// Durability cursor; `None` when the server runs without a data
    /// directory.
    log: Option<DatasetLog>,
    /// Replication fan-out; `None` unless this server streams its journal
    /// to followers. Every journalled record is published here **while the
    /// dataset's write lock is held**, preserving commit order.
    hub: Option<Arc<ReplHub>>,
}

impl Dataset {
    fn new(miner: IncrementalMiner, log: Option<DatasetLog>) -> Self {
        let head = Head { fingerprint: miner.fingerprint(), transactions: miner.len() };
        Self {
            miner,
            head: Arc::new(Mutex::new(head)),
            appends: 0,
            store: Mutex::new(PatternStore::new()),
            log,
            hub: None,
        }
    }

    /// A dataset rebuilt from disk: `appends` comes from the recovered
    /// stream, and the pattern store is warmed with one complete hot mine
    /// so delta mining resumes on the first post-restart append.
    fn recovered(miner: IncrementalMiner, appends: u64, log: DatasetLog) -> Self {
        let mut dataset = Self::new(miner, Some(log));
        dataset.appends = appends;
        if !dataset.miner.db().is_empty() {
            let control = RunControl::new();
            let mut scratch = MineScratch::new();
            let _ = dataset.mine_hot_delta(&control, &mut scratch, 1);
        }
        dataset
    }

    /// Detaches the durability cursor — the `replace=true` path hands an
    /// old dataset's log (and its sequence numbers) to the successor.
    fn take_log(&mut self) -> Option<DatasetLog> {
        self.log.take()
    }

    /// Snapshots the dataset unconditionally (shutdown flush). Errors are
    /// swallowed: the WAL still holds everything the snapshot would.
    fn flush_snapshot(&mut self) {
        let hot = self.miner.params();
        let appends = self.appends;
        if let Some(log) = self.log.as_mut() {
            let _ = log.force_snapshot(self.miner.db(), hot, appends);
        }
    }

    /// The accumulated database.
    pub fn db(&self) -> &TransactionDb {
        self.miner.db()
    }

    /// The live incremental miner.
    pub fn miner(&self) -> &IncrementalMiner {
        &self.miner
    }

    /// The content fingerprint of the current state, O(1). It can be ahead
    /// of the published head while a write is in progress.
    pub fn fingerprint(&self) -> u64 {
        self.miner.fingerprint()
    }

    /// The head readers are served from.
    pub(crate) fn published(&self) -> Head {
        *lock_recover(&self.head)
    }

    /// Moves the head to the current content and returns the head it
    /// replaces. Callers hold the dataset's lock (a write path's read or
    /// write guard), so heads are published in the order the content
    /// changed.
    pub(crate) fn publish_head(&self) -> Head {
        let head = Head { fingerprint: self.fingerprint(), transactions: self.miner.len() };
        std::mem::replace(&mut *lock_recover(&self.head), head)
    }

    /// The hot parameters the incremental scanners are maintained for.
    pub fn hot_params(&self) -> ResolvedParams {
        self.miner.params()
    }

    /// How many append requests this dataset has absorbed.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The last journalled sequence number; `None` without persistence.
    pub fn last_seq(&self) -> Option<u64> {
        self.log.as_ref().map(DatasetLog::seq)
    }

    /// Publishes one journalled record to the replication hub (no-op when
    /// this server has no followers). Callers hold the dataset's write
    /// lock, which is what serialises the stream.
    fn publish(&self, record: &WalRecord) {
        let (Some(hub), Some(log)) = (self.hub.as_ref(), self.log.as_ref()) else {
            return;
        };
        hub.publish(Event {
            name: log.name().to_string(),
            seq: record.seq(),
            fp: self.fingerprint(),
            payload: crate::persist::wal::encode_payload(record),
        });
    }

    /// Applies one record shipped by a primary: journal it **verbatim**
    /// (preserving the primary's sequence number — this is what makes
    /// promotion continue the journal without gaps), then mutate through
    /// the same semantics recovery replay uses. Records at or below the
    /// current cursor are skipped, making replay idempotent across
    /// catch-up/live overlap and reconnects. The head does not move here:
    /// the follower publishes it once the cache is refreshed.
    pub(crate) fn apply_shipped(&mut self, record: &WalRecord) -> Result<ApplyOutcome, String> {
        let Some(current) = self.last_seq() else {
            return Err("shipped records require a durable dataset".to_string());
        };
        let register = matches!(record, WalRecord::Register { .. });
        let old_fingerprint = self.fingerprint();
        if record.seq() <= current {
            return Ok(ApplyOutcome {
                applied: false,
                register,
                old_fingerprint,
                fingerprint: old_fingerprint,
            });
        }
        if let Some(log) = self.log.as_mut() {
            log.log_shipped(record).map_err(|e| format!("journalling shipped record: {e}"))?;
        }
        match record {
            WalRecord::Register { per, min_ps, min_rec, db, .. } => {
                self.miner = replay_journalled(db, *per, *min_ps, *min_rec)?;
                self.appends = 0;
                *lock_recover(&self.store) = PatternStore::new();
            }
            WalRecord::Append { rows, .. } => {
                // A time regression stops the rows here as it did on the
                // primary, which answered it.
                let _ = apply_rows(&mut self.miner, rows);
                self.appends += 1;
            }
        }
        let hot = self.miner.params();
        let appends = self.appends;
        if let Some(log) = self.log.as_mut() {
            let _ = log.maybe_snapshot(self.miner.db(), hot, appends);
        }
        // Cascade: a replica that is itself a primary re-publishes the
        // record to its own followers.
        self.publish(record);
        Ok(ApplyOutcome {
            applied: true,
            register,
            old_fingerprint,
            fingerprint: self.fingerprint(),
        })
    }

    /// Whether [`Dataset::mine_hot_delta`] would take the incremental path
    /// (warm store, same stream, dirty frontier under the threshold) rather
    /// than fall back to a full re-mine. The append handler consults this
    /// before committing to patching the cache in place.
    pub fn delta_applicable(&self) -> bool {
        self.miner.delta_applicable(&lock_recover(&self.store))
    }

    /// Retained hot-params patterns in the store (empty until the first
    /// complete hot mine) — exposed for tests and diagnostics.
    pub fn store_base_len(&self) -> usize {
        lock_recover(&self.store).base_len()
    }

    /// Mines at the hot parameters through the dataset's [`PatternStore`]:
    /// only candidates dirtied since the last complete hot mine are
    /// re-measured (resuming their checkpointed scans over the appended
    /// tail), clean patterns are spliced from the store, and the output is
    /// bit-identical to a batch mine. The frontier re-measurement runs on the
    /// calling thread; `threads` sizes only a full-mine fallback. The store
    /// refreshes on every complete run (including full-mine fallbacks), so
    /// the first hot mine warms it.
    pub fn mine_hot_delta(
        &self,
        control: &RunControl,
        scratch: &mut MineScratch,
        threads: usize,
    ) -> (MiningResult, Option<AbortReason>, DeltaStats) {
        self.miner.mine_delta_controlled(&mut lock_recover(&self.store), control, scratch, threads)
    }

    /// Appends parsed `(ts, labels)` transactions in order, journalling
    /// the request to the WAL **before** touching the miner. On a time
    /// regression nothing before the offending transaction is rolled back
    /// (recovery replays the identical prefix), so the fingerprint moves
    /// either way. The head does not: the append handler publishes it
    /// once its readers' results are ready.
    pub fn append_lines(&mut self, rows: &[(Timestamp, Vec<String>)]) -> Result<(), AppendError> {
        if let Some(log) = self.log.as_mut() {
            log.log_append(rows).map_err(AppendError::Wal)?;
        }
        let outcome = apply_rows(&mut self.miner, rows);
        self.appends += 1;
        let hot = self.miner.params();
        let appends = self.appends;
        if let Some(log) = self.log.as_mut() {
            // A snapshot failure is non-fatal: the WAL retains everything.
            let _ = log.maybe_snapshot(self.miner.db(), hot, appends);
        }
        // Ship exactly what was journalled: the full request, at the seq the
        // log assigned it. Followers replay it with the same prefix
        // semantics, so even a partially-applied append converges.
        if self.hub.is_some() {
            if let Some(seq) = self.last_seq() {
                self.publish(&WalRecord::Append { seq, rows: rows.to_vec() });
            }
        }
        outcome.map_err(AppendError::Order)
    }
}

/// What [`Registry::apply_record`] did with a shipped record.
#[derive(Debug, Clone, Copy)]
pub struct ApplyOutcome {
    /// `false` when the record sat at or below the dataset's journal cursor
    /// and was skipped (idempotent replay of catch-up/live overlap).
    pub applied: bool,
    /// Whether the record was a register — a full reset the result cache
    /// cannot be patched across.
    pub register: bool,
    /// The dataset fingerprint before the record.
    pub old_fingerprint: u64,
    /// The dataset fingerprint after the record.
    pub fingerprint: u64,
}

/// Why [`Dataset::append_lines`] failed.
#[derive(Debug)]
pub enum AppendError {
    /// Journalling failed before anything was applied — a server-side
    /// fault; the dataset is unchanged.
    Wal(std::io::Error),
    /// A transaction regressed in time — a client fault; rows before the
    /// offending one were applied (and journalled).
    Order(rpm_timeseries::Error),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::Wal(e) => write!(f, "journalling append failed: {e}"),
            AppendError::Order(e) => write!(f, "{e}"),
        }
    }
}

/// Parses an append body: the same `ts<TAB>item item…` lines as the text
/// database format (blank lines and `#` comments ignored).
pub fn parse_append_body(body: &[u8]) -> Result<Vec<(Timestamp, Vec<String>)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (ts_str, rest) = line
            .split_once('\t')
            .or_else(|| line.split_once(' '))
            .ok_or_else(|| format!("line {}: expected `ts<TAB>items...`", lineno + 1))?;
        let ts: Timestamp = ts_str
            .trim()
            .parse()
            .map_err(|e| format!("line {}: bad timestamp {:?}: {e}", lineno + 1, ts_str.trim()))?;
        let labels: Vec<String> = rest.split_whitespace().map(str::to_owned).collect();
        if labels.is_empty() {
            return Err(format!("line {}: transaction has no items", lineno + 1));
        }
        rows.push((ts, labels));
    }
    if rows.is_empty() {
        return Err("append body holds no transactions".to_string());
    }
    Ok(rows)
}

/// Decodes an uploaded dataset body: binary (`RPMB` magic) or timestamped
/// text.
pub fn decode_dataset_body(body: &[u8]) -> Result<TransactionDb, String> {
    if body.starts_with(b"RPMB") {
        from_bytes(body).map_err(|e| format!("bad binary dataset: {e}"))
    } else {
        io::read_timestamped(body).map_err(|e| format!("bad text dataset: {e}"))
    }
}

/// Why [`Registry::register`] failed.
#[derive(Debug)]
pub enum RegisterError {
    /// The name is taken and `replace` was not requested.
    Exists,
    /// The uploaded database could not be replayed into a miner.
    Invalid(String),
    /// Journalling the registration failed; nothing was registered.
    Wal(std::io::Error),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::Exists => f.write_str("dataset already exists"),
            RegisterError::Invalid(msg) => f.write_str(msg),
            RegisterError::Wal(e) => write!(f, "journalling registration failed: {e}"),
        }
    }
}

/// What startup recovery found on disk.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Datasets rebuilt, sorted by name.
    pub recovered: Vec<String>,
    /// On-disk names with no recoverable state (e.g. a WAL torn before its
    /// register record) — left truncated on disk, not registered.
    pub skipped: Vec<String>,
}

/// Replays `db` into a fresh incremental miner pinned to `hot_params`.
fn replay_into_miner(
    db: &TransactionDb,
    hot_params: ResolvedParams,
) -> Result<IncrementalMiner, String> {
    let mut miner = IncrementalMiner::with_items(db.items().clone(), hot_params);
    for t in db.transactions() {
        miner
            .append_ids(t.timestamp(), t.items().to_vec())
            .map_err(|e| format!("replay failed: {e}"))?;
    }
    Ok(miner)
}

/// [`replay_into_miner`] at hot parameters as a register record or a
/// snapshot header journals them, validated on the way in.
fn replay_journalled(
    db: &TransactionDb,
    per: Timestamp,
    min_ps: u64,
    min_rec: u64,
) -> Result<IncrementalMiner, String> {
    let hot = ResolvedParams::try_new(per, min_ps as usize, min_rec as usize)
        .map_err(|e| e.to_string())?;
    replay_into_miner(db, hot)
}

/// Applies an append's rows in order until the first time regression,
/// which it returns. The live path, a follower and recovery all apply a
/// journalled append through this one rule, so a partly applied request
/// replays to the same prefix everywhere.
fn apply_rows(
    miner: &mut IncrementalMiner,
    rows: &[(Timestamp, Vec<String>)],
) -> Result<(), rpm_timeseries::Error> {
    for (ts, labels) in rows {
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        miner.append(*ts, &refs)?;
    }
    Ok(())
}

/// One registered dataset: its lock, and the head it publishes beside it.
#[derive(Debug)]
struct Entry {
    dataset: Arc<RwLock<Dataset>>,
    head: Arc<Mutex<Head>>,
}

impl Entry {
    fn new(dataset: Dataset) -> Self {
        let head = dataset.head.clone();
        Self { dataset: Arc::new(RwLock::new(dataset)), head }
    }
}

/// The shared, named dataset map. Datasets are individually locked so a
/// long mine on one dataset never blocks queries on another.
#[derive(Debug, Default)]
pub struct Registry {
    datasets: RwLock<HashMap<String, Entry>>,
    persist: Option<Arc<Persistence>>,
    /// Replication fan-out, installed once at bind time on a primary.
    hub: Option<Arc<ReplHub>>,
}

impl Registry {
    /// An empty, in-memory-only registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A durable registry over `persist`'s data directory: every dataset
    /// found on disk is rebuilt from its newest valid snapshot plus the
    /// replayed WAL tail (torn tails truncated) before the registry is
    /// handed out.
    pub fn with_persistence(persist: Arc<Persistence>) -> std::io::Result<(Self, RecoveryReport)> {
        let registry = Self {
            datasets: RwLock::new(HashMap::new()),
            persist: Some(persist.clone()),
            hub: None,
        };
        let mut report = RecoveryReport::default();
        for name in persist.dataset_names()? {
            match recover_dataset(&persist, &name)? {
                Some(dataset) => {
                    persist.counters().recovered_datasets.fetch_add(1, Ordering::Relaxed);
                    write_recover(&registry.datasets).insert(name.clone(), Entry::new(dataset));
                    report.recovered.push(name);
                }
                None => report.skipped.push(name),
            }
        }
        Ok((registry, report))
    }

    /// Registers `db` under `name` with the given hot parameters, replaying
    /// it into a fresh incremental miner. An existing name is an error
    /// unless `replace` is set, in which case the new content supersedes
    /// the old dataset — journalled as a register record continuing the old
    /// log's sequence, so the swap itself is crash-safe. Returns the new
    /// content's fingerprint.
    pub fn register(
        &self,
        name: &str,
        db: TransactionDb,
        hot_params: ResolvedParams,
        replace: bool,
    ) -> Result<u64, RegisterError> {
        self.register_replacing(name, db, hot_params, replace).map(|(_, fingerprint)| fingerprint)
    }

    /// [`Registry::register`], also reporting the fingerprint the replaced
    /// dataset's head named, if any. It is read under the map's write lock,
    /// at the swap, so the upload handler retires exactly the cached
    /// results no head names any more. Returns `(replaced, new)`.
    pub(crate) fn register_replacing(
        &self,
        name: &str,
        db: TransactionDb,
        hot_params: ResolvedParams,
        replace: bool,
    ) -> Result<(Option<u64>, u64), RegisterError> {
        let miner = replay_into_miner(&db, hot_params).map_err(RegisterError::Invalid)?;
        let mut map = write_recover(&self.datasets);
        // lint:allow(lock-order): `map.get` is HashMap::get on the guarded map itself, which the name-based resolver confuses with Registry::get — the map lock is not re-acquired
        let existing = map.get(name).map(|entry| entry.dataset.clone());
        if existing.is_some() && !replace {
            return Err(RegisterError::Exists);
        }
        let log = match &self.persist {
            None => None,
            Some(persist) => {
                let inherited = existing.as_ref().and_then(|old| write_recover(old).take_log());
                Some(match inherited {
                    Some(mut log) => {
                        // lint:allow(lock-order): journal-before-publish — the register record must hit the WAL under the map's write lock so a concurrent register cannot interleave records (DESIGN.md §5)
                        log.log_register(miner.db(), hot_params).map_err(RegisterError::Wal)?;
                        log
                    }
                    // lint:allow(lock-order): same journal-before-publish ordering as above, for the fresh-log case
                    None => DatasetLog::create(persist, name, miner.db(), hot_params)
                        .map_err(RegisterError::Wal)?,
                })
            }
        };
        let mut dataset = Dataset::new(miner, log);
        dataset.hub = self.hub.clone();
        let fingerprint = dataset.fingerprint();
        // Publish the registration while the map's write lock is held: any
        // append must first `get` the dataset (blocked on this lock), so
        // its publish cannot overtake this one.
        if dataset.hub.is_some() {
            if let Some(seq) = dataset.last_seq() {
                dataset.publish(&WalRecord::Register {
                    seq,
                    per: hot_params.per,
                    min_ps: hot_params.min_ps as u64,
                    min_rec: hot_params.min_rec as u64,
                    db: dataset.miner.db().clone(),
                });
            }
        }
        let replaced = map.insert(name.to_string(), Entry::new(dataset));
        Ok((replaced.map(|old| lock_recover(&old.head).fingerprint), fingerprint))
    }

    /// Installs the replication hub on the registry and every dataset
    /// recovered so far, seeding the hub's heartbeat map with their journal
    /// cursors. Called once at bind time, before the server accepts
    /// requests or followers.
    pub(crate) fn set_hub(&mut self, hub: Arc<ReplHub>) {
        for (name, entry) in read_recover(&self.datasets).iter() {
            let mut ds = write_recover(&entry.dataset);
            ds.hub = Some(hub.clone());
            hub.note_seq(name, ds.last_seq().unwrap_or(0));
        }
        self.hub = Some(hub);
    }

    /// Applies a bootstrap snapshot shipped by a primary: the dataset is
    /// rebuilt from scratch — snapshot persisted locally, fresh WAL opened
    /// at the snapshot's sequence, miner replayed, pattern store warmed —
    /// exactly as if this process had recovered from the primary's disk.
    /// Returns `(old fingerprint if the name was already registered, new
    /// fingerprint)`.
    pub fn apply_snapshot(
        &self,
        name: &str,
        header: &SnapshotHeader,
        db: &TransactionDb,
    ) -> Result<(Option<u64>, u64), String> {
        let Some(persist) = self.persist.as_ref() else {
            return Err("replication requires a data directory".to_string());
        };
        let miner = replay_journalled(db, header.per, header.min_ps, header.min_rec)?;
        let log = DatasetLog::adopt_snapshot(persist, name, header, db)
            .map_err(|e| format!("adopting shipped snapshot: {e}"))?;
        let mut dataset = Dataset::recovered(miner, header.appends, log);
        dataset.hub = self.hub.clone();
        let fingerprint = dataset.fingerprint();
        let previous = write_recover(&self.datasets).insert(name.to_string(), Entry::new(dataset));
        let old_fingerprint = previous.map(|old| lock_recover(&old.head).fingerprint);
        Ok((old_fingerprint, fingerprint))
    }

    /// Applies one journal record shipped by a primary. For a known dataset
    /// this defers to `Dataset::apply_shipped` under its write lock; a
    /// register record for an unknown name creates the dataset with a fresh
    /// journal continuing the primary's numbering. Anything else for an
    /// unknown name means the stream is broken.
    pub fn apply_record(&self, name: &str, record: &WalRecord) -> Result<ApplyOutcome, String> {
        let Some(persist) = self.persist.as_ref() else {
            return Err("replication requires a data directory".to_string());
        };
        if let Some(dataset) = self.get(name) {
            // lint:allow(lock-order): journal-before-mutate — the shipped record is WAL-appended under the dataset lock so log order stays identical to apply order on the follower
            return write_recover(&dataset).apply_shipped(record);
        }
        let WalRecord::Register { per, min_ps, min_rec, db, .. } = record else {
            return Err(format!("shipped append for unknown dataset {name:?}"));
        };
        let miner = replay_journalled(db, *per, *min_ps, *min_rec)?;
        let mut log = DatasetLog::fresh(persist, name).map_err(|e| e.to_string())?;
        log.log_shipped(record).map_err(|e| format!("journalling shipped register: {e}"))?;
        let mut dataset = Dataset::new(miner, Some(log));
        dataset.hub = self.hub.clone();
        let fingerprint = dataset.fingerprint();
        dataset.publish(record);
        write_recover(&self.datasets).insert(name.to_string(), Entry::new(dataset));
        Ok(ApplyOutcome { applied: true, register: true, old_fingerprint: 0, fingerprint })
    }

    /// The dataset registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<RwLock<Dataset>>> {
        // lint:allow(lock-order): `.get` here is HashMap::get on the read guard, which the name-based resolver confuses with this very method — the map lock is not re-acquired
        read_recover(&self.datasets).get(name).map(|entry| entry.dataset.clone())
    }

    /// The published head of the dataset registered under `name`, read
    /// without the dataset lock: it never waits for an append.
    pub(crate) fn head(&self, name: &str) -> Option<Head> {
        let head = read_recover(&self.datasets).get(name)?.head.clone();
        let head = *lock_recover(&head);
        Some(head)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.datasets).keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshots every durable dataset — the shutdown flush. Per-dataset
    /// failures are non-fatal: the WAL still holds everything.
    pub fn flush_snapshots(&self) {
        let datasets: Vec<Arc<RwLock<Dataset>>> =
            read_recover(&self.datasets).values().map(|entry| entry.dataset.clone()).collect();
        for dataset in datasets {
            // lint:allow(lock-order): the snapshot is written under the dataset lock to capture a consistent image; this runs on the background flush cadence, not the request path
            write_recover(&dataset).flush_snapshot();
        }
    }
}

/// Rebuilds one dataset from disk: newest valid snapshot (if any), then
/// every WAL record with a larger sequence number. Returns `None` when the
/// on-disk state yields no dataset at all — e.g. a WAL whose register
/// record was torn away and no snapshot to fall back to.
fn recover_dataset(persist: &Arc<Persistence>, name: &str) -> std::io::Result<Option<Dataset>> {
    let mut snap_seq = 0u64;
    let mut state: Option<(IncrementalMiner, u64)> = None;
    if let Some((header, db)) = persist.load_snapshot(name) {
        if let Ok(miner) = replay_journalled(&db, header.per, header.min_ps, header.min_rec) {
            snap_seq = header.seq;
            state = Some((miner, header.appends));
        }
        // An unusable snapshot falls through to WAL-only recovery with
        // snap_seq = 0, replaying the log from its first record.
    }
    let mut last_seq = snap_seq;
    let mut records_since_snapshot = 0u64;
    if let Some(replay) = persist.read_wal(name)? {
        for record in replay.records {
            let seq = record.seq();
            if seq <= snap_seq {
                continue; // already folded into the snapshot
            }
            match record {
                WalRecord::Register { per, min_ps, min_rec, db, .. } => {
                    if let Ok(miner) = replay_journalled(&db, per, min_ps, min_rec) {
                        state = Some((miner, 0));
                    }
                }
                WalRecord::Append { rows, .. } => {
                    if let Some((miner, appends)) = state.as_mut() {
                        // The live path already answered a time regression.
                        let _ = apply_rows(miner, &rows);
                        *appends += 1;
                    }
                }
            }
            last_seq = seq;
            records_since_snapshot += 1;
        }
    }
    let Some((miner, appends)) = state else {
        return Ok(None);
    };
    let log = DatasetLog::resume(persist, name, last_seq, records_since_snapshot)?;
    Ok(Some(Dataset::recovered(miner, appends, log)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::running_example_db;

    #[test]
    fn register_replays_and_fingerprints() {
        let registry = Registry::new();
        let db = running_example_db();
        let expected_fp = rpm_timeseries::fingerprint(&db);
        let fp =
            registry.register("example", db.clone(), ResolvedParams::new(2, 3, 2), false).unwrap();
        assert_eq!(fp, expected_fp, "replay is content-preserving");
        let dataset = registry.get("example").unwrap();
        let dataset = dataset.read().unwrap();
        assert_eq!(dataset.db().len(), 12);
        assert_eq!(dataset.hot_params(), ResolvedParams::new(2, 3, 2));
        // Hot-path mining through the live scanners matches Table 2.
        assert_eq!(dataset.miner().mine().patterns.len(), 8);
    }

    #[test]
    fn duplicate_names_are_rejected_unless_replacing() {
        let registry = Registry::new();
        let p = ResolvedParams::new(1, 1, 1);
        registry.register("d", running_example_db(), p, false).unwrap();
        assert!(matches!(
            registry.register("d", running_example_db(), p, false),
            Err(RegisterError::Exists)
        ));
        // replace=true swaps the content in and resets the append counter.
        {
            let dataset = registry.get("d").unwrap();
            dataset.write().unwrap().append_lines(&[(50, vec!["z".into()])]).unwrap();
        }
        let p2 = ResolvedParams::new(2, 3, 2);
        registry.register("d", running_example_db(), p2, true).unwrap();
        let dataset = registry.get("d").unwrap();
        let dataset = dataset.read().unwrap();
        assert_eq!(dataset.db().len(), 12, "replacement content, not the appended one");
        assert_eq!(dataset.hot_params(), p2);
        assert_eq!(dataset.appends(), 0);
        assert_eq!(registry.names(), vec!["d"]);
    }

    #[test]
    fn append_changes_fingerprint_and_rejects_regressions() {
        let registry = Registry::new();
        registry.register("d", running_example_db(), ResolvedParams::new(2, 3, 2), false).unwrap();
        let dataset = registry.get("d").unwrap();
        let mut dataset = dataset.write().unwrap();
        let fp0 = dataset.fingerprint();
        dataset.append_lines(&[(20, vec!["a".into(), "b".into()])]).unwrap();
        assert_ne!(dataset.fingerprint(), fp0);
        assert_eq!(dataset.db().len(), 13);
        // A time regression errors and the fingerprint stays current.
        let fp1 = dataset.fingerprint();
        assert!(dataset.append_lines(&[(3, vec!["a".into()])]).is_err());
        assert_eq!(dataset.fingerprint(), fp1);
        assert_eq!(dataset.appends(), 2);
    }

    #[test]
    fn hot_delta_warms_store_and_patches_after_append() {
        let registry = Registry::new();
        registry.register("d", running_example_db(), ResolvedParams::new(2, 3, 2), false).unwrap();
        let dataset = registry.get("d").unwrap();
        let ds = dataset.read().unwrap();
        assert!(!ds.delta_applicable(), "cold store cannot delta");
        let control = RunControl::new();
        let mut scratch = MineScratch::new();
        let (first, abort, stats) = ds.mine_hot_delta(&control, &mut scratch, 1);
        assert!(abort.is_none());
        assert!(!stats.mode.is_delta(), "first mine is the warming full mine");
        assert_eq!(first.patterns.len(), 8);
        assert_eq!(ds.store_base_len(), 12);
        drop(ds);

        // A rare-item append keeps the frontier narrow: the delta engages
        // and stays bit-identical to a batch mine.
        let mut ds = dataset.write().unwrap();
        ds.append_lines(&[(20, vec!["nightcap".into()])]).unwrap();
        assert!(ds.delta_applicable(), "rare-item append is delta-eligible");
        let (second, abort, stats) = ds.mine_hot_delta(&control, &mut scratch, 2);
        assert!(abort.is_none());
        assert!(stats.mode.is_delta());
        assert_eq!(second.patterns, ds.miner().mine().patterns);
        assert_eq!(ds.store_base_len(), 13, "complete delta refreshed the store");
    }

    #[test]
    fn append_body_parsing() {
        let rows = parse_append_body(b"# comment\n21\ta b\n22 c\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (21, vec!["a".to_string(), "b".to_string()]));
        assert_eq!(rows[1], (22, vec!["c".to_string()]));
        assert!(parse_append_body(b"").is_err());
        assert!(parse_append_body(b"nope").is_err());
        assert!(parse_append_body(b"12\t").is_err(), "no items");
        assert!(parse_append_body(&[0xff, 0xfe]).is_err(), "not UTF-8");
    }

    #[test]
    fn dataset_body_decoding_sniffs_the_magic() {
        let db = running_example_db();
        let bin = rpm_timeseries::to_bytes(&db);
        assert_eq!(decode_dataset_body(&bin).unwrap().len(), 12);
        let mut text = Vec::new();
        io::write_timestamped(&db, &mut text).unwrap();
        assert_eq!(decode_dataset_body(&text).unwrap().len(), 12);
        assert!(decode_dataset_body(b"RPMBgarbage").is_err());
    }

    fn temp_persist(tag: &str) -> Arc<Persistence> {
        let dir =
            std::env::temp_dir().join(format!("rpm_registry_persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Persistence::open(crate::persist::PersistConfig::new(dir)).unwrap()
    }

    #[test]
    fn durable_registry_survives_a_simulated_crash() {
        let persist = temp_persist("crash");
        let hot = ResolvedParams::new(2, 3, 2);
        let (fp_before, mined_before) = {
            let (registry, report) = Registry::with_persistence(persist.clone()).unwrap();
            assert!(report.recovered.is_empty());
            registry.register("d", running_example_db(), hot, false).unwrap();
            let dataset = registry.get("d").unwrap();
            let mut ds = dataset.write().unwrap();
            ds.append_lines(&[(20, vec!["a".into(), "b".into()])]).unwrap();
            ds.append_lines(&[(21, vec!["c".into()])]).unwrap();
            (ds.fingerprint(), ds.miner().mine().patterns)
            // Dropped without any snapshot: the "crash". The WAL (fsync
            // policy `always`) is all recovery gets.
        };
        let (registry, report) = Registry::with_persistence(persist.clone()).unwrap();
        assert_eq!(report.recovered, vec!["d".to_string()]);
        let dataset = registry.get("d").unwrap();
        let ds = dataset.read().unwrap();
        assert_eq!(ds.fingerprint(), fp_before, "recovered fingerprint matches pre-crash");
        assert_eq!(ds.appends(), 2);
        assert_eq!(ds.hot_params(), hot);
        assert_eq!(ds.miner().mine().patterns, mined_before, "mine output identical");
        assert!(ds.store_base_len() > 0, "pattern store warmed at recovery");
        assert_eq!(crate::persist::PersistCounters::get(&persist.counters().recovered_datasets), 1);
        std::fs::remove_dir_all(persist.dir()).unwrap();
    }

    #[test]
    fn recovery_replays_wal_on_top_of_a_stale_snapshot() {
        let persist = temp_persist("stale-snap");
        let hot = ResolvedParams::new(2, 3, 2);
        let fp_before = {
            let (registry, _) = Registry::with_persistence(persist.clone()).unwrap();
            registry.register("d", running_example_db(), hot, false).unwrap();
            let dataset = registry.get("d").unwrap();
            let mut ds = dataset.write().unwrap();
            ds.append_lines(&[(20, vec!["a".into()])]).unwrap();
            // Snapshot now, then keep appending: the snapshot goes stale
            // and recovery must replay the WAL tail on top of it.
            ds.flush_snapshot();
            ds.append_lines(&[(21, vec!["b".into()])]).unwrap();
            ds.append_lines(&[(22, vec!["c".into()])]).unwrap();
            ds.fingerprint()
        };
        let (header, _) = persist.load_snapshot("d").unwrap();
        assert_eq!(header.appends, 1, "snapshot predates two appends");
        let (registry, report) = Registry::with_persistence(persist.clone()).unwrap();
        assert_eq!(report.recovered, vec!["d".to_string()]);
        let dataset = registry.get("d").unwrap();
        let ds = dataset.read().unwrap();
        assert_eq!(ds.fingerprint(), fp_before);
        assert_eq!(ds.appends(), 3);
        assert_eq!(ds.db().len(), 15);
        std::fs::remove_dir_all(persist.dir()).unwrap();
    }

    #[test]
    fn replace_is_journalled_and_recovers_to_the_replacement() {
        let persist = temp_persist("replace");
        let hot = ResolvedParams::new(2, 3, 2);
        {
            let (registry, _) = Registry::with_persistence(persist.clone()).unwrap();
            registry.register("d", running_example_db(), hot, false).unwrap();
            {
                let dataset = registry.get("d").unwrap();
                let mut ds = dataset.write().unwrap();
                ds.append_lines(&[(20, vec!["doomed".into()])]).unwrap();
            }
            // Replace with a two-transaction db at different hot params.
            let text = b"1\tx y\n2\tx\n";
            let replacement = io::read_timestamped(&text[..]).unwrap();
            registry.register("d", replacement, ResolvedParams::new(1, 1, 1), true).unwrap();
        }
        let (registry, _) = Registry::with_persistence(persist.clone()).unwrap();
        let dataset = registry.get("d").unwrap();
        let ds = dataset.read().unwrap();
        assert_eq!(ds.db().len(), 2, "replacement content recovered, not the original");
        assert_eq!(ds.hot_params(), ResolvedParams::new(1, 1, 1));
        assert_eq!(ds.appends(), 0);
        std::fs::remove_dir_all(persist.dir()).unwrap();
    }

    #[test]
    fn time_regression_appends_recover_with_identical_prefix_semantics() {
        let persist = temp_persist("regression");
        let hot = ResolvedParams::new(2, 3, 2);
        let fp_before = {
            let (registry, _) = Registry::with_persistence(persist.clone()).unwrap();
            registry.register("d", running_example_db(), hot, false).unwrap();
            let dataset = registry.get("d").unwrap();
            let mut ds = dataset.write().unwrap();
            // Second row regresses: the first is applied, the error is
            // reported, and the whole request sits in the WAL.
            let rows = vec![(30, vec!["ok".into()]), (3, vec!["bad".into()])];
            assert!(matches!(ds.append_lines(&rows), Err(AppendError::Order(_))));
            ds.fingerprint()
        };
        let (registry, _) = Registry::with_persistence(persist.clone()).unwrap();
        let dataset = registry.get("d").unwrap();
        let ds = dataset.read().unwrap();
        assert_eq!(ds.fingerprint(), fp_before, "replay applies the same prefix");
        assert_eq!(ds.db().len(), 13);
        assert_eq!(ds.appends(), 1);
        std::fs::remove_dir_all(persist.dir()).unwrap();
    }
}
