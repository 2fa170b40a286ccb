//! Replication benchmark behind `BENCH_replication.json`: an in-process
//! primary/replica pair over loopback at twitter-sim scale.
//!
//! Two sections:
//!
//! 1. **catch-up** — the primary holds the dataset (a register record plus
//!    a journal of append batches); a fresh replica connects, bootstraps
//!    from the shipped snapshot + WAL tail, and the clock stops when its
//!    stream fingerprint matches the primary's. Reported as journal
//!    records/s and transactions/s of converged state.
//! 2. **steady state** — with the replica live, append batches land on the
//!    primary and the per-batch apply lag (append acknowledged locally →
//!    replica fingerprint converged) is sampled, along with aggregate
//!    shipped-row throughput.
//!
//! ```text
//! cargo run -p rpm-bench --release --bin replication -- \
//!     [--scale 0.25] [--seed 5] [--batch 100] [--batches 40] \
//!     [--out BENCH_replication.json]
//! ```

#![deny(deprecated)]

use std::path::{Path, PathBuf};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use rpm_bench::datasets::{load, Dataset};
use rpm_bench::{available_cores, median, HarnessArgs};
use rpm_core::ResolvedParams;
use rpm_server::{FsyncPolicy, PersistConfig, Server, ServerConfig, ServerHandle};
use rpm_timeseries::{Timestamp, TransactionDb};

const NAME: &str = "twitter";

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpm-bench-repl-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

fn bind(dir: &Path, repl_addr: Option<String>, replica_of: Option<String>) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 16,
        persist: Some(PersistConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 256,
        }),
        repl_addr,
        replica_of,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn fingerprint(handle: &ServerHandle) -> Option<u64> {
    let dataset = handle.registry().get(NAME)?;
    let fp = dataset.read().unwrap_or_else(PoisonError::into_inner).fingerprint();
    Some(fp)
}

/// Polls until the replica's fingerprint matches `want`. Benchmark
/// choreography: the spin-sleep is the measuring instrument here, not
/// serving-layer code.
#[allow(clippy::disallowed_methods)]
fn wait_fp(replica: &ServerHandle, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(300);
    while fingerprint(replica) != Some(want) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// `(ts, labels)` rows for `db.transactions()[range]`, the append-body form.
fn rows_of(db: &TransactionDb, from: usize, to: usize) -> Vec<(Timestamp, Vec<String>)> {
    db.transactions()[from..to]
        .iter()
        .map(|t| {
            let labels: Vec<String> =
                t.items().iter().map(|&i| db.items().label(i).to_string()).collect();
            (t.timestamp(), labels)
        })
        .collect()
}

/// Appends one row batch through the primary's registry (the same path the
/// HTTP handler takes), returning after the WAL write + hub publish.
fn append_batch(primary: &ServerHandle, rows: &[(Timestamp, Vec<String>)]) {
    let dataset = primary.registry().get(NAME).expect("dataset registered");
    let mut ds = dataset.write().unwrap_or_else(PoisonError::into_inner);
    ds.append_lines(rows).expect("ordered append");
}

fn main() {
    let args = HarnessArgs::from_env();
    let batch = args.get_usize("batch", 100).max(1);
    let batches = args.get_usize("batches", 40).max(1);
    let out_path = args.get("out").unwrap_or("BENCH_replication.json");

    println!("# Replication: catch-up throughput and steady-state apply lag (Twitter sim)\n");
    let (db, _) = load(Dataset::Twitter, args.scale, args.seed);
    let total = db.len();
    let min_ps = ((total as f64) * 0.02).round().max(2.0) as usize;
    let hot = ResolvedParams::new(360, min_ps, 1);

    // 50% registered in one record, 30% journalled as append batches (the
    // WAL tail a late-joining replica must catch up through), 20% held back
    // for the steady-state phase.
    let registered = total / 2;
    let catchup_end = registered + (total * 3) / 10;
    let mut seed_db = TransactionDb::builder();
    for t in &db.transactions()[..registered] {
        let labels: Vec<&str> = t.items().iter().map(|&i| db.items().label(i)).collect();
        seed_db.add_labeled(t.timestamp(), &labels);
    }
    let seed_db = seed_db.build();

    let pdir = temp_dir("primary");
    let rdir = temp_dir("replica");
    let primary = bind(&pdir, Some("127.0.0.1:0".to_string()), None);
    primary.registry().register(NAME, seed_db, hot, false).expect("register");
    let mut journal_records = 1u64;
    let mut at = registered;
    while at < catchup_end {
        let to = (at + batch).min(catchup_end);
        append_batch(&primary, &rows_of(&db, at, to));
        journal_records += 1;
        at = to;
    }
    let primary_fp = fingerprint(&primary).expect("primary fingerprint");
    let repl_addr = primary.repl_addr().expect("repl listener").to_string();

    // --- catch-up -------------------------------------------------------
    let started = Instant::now();
    let replica = bind(&rdir, None, Some(repl_addr));
    wait_fp(&replica, primary_fp, "bootstrap convergence");
    let catch_up = started.elapsed().as_secs_f64();
    let catch_tx_per_s = catchup_end as f64 / catch_up;
    let catch_rec_per_s = journal_records as f64 / catch_up;
    println!(
        "catch-up: {catchup_end} transactions / {journal_records} journal records \
         in {catch_up:.3}s ({catch_tx_per_s:.0} tx/s, {catch_rec_per_s:.1} records/s)"
    );

    // --- steady state ---------------------------------------------------
    let mut lags_ms: Vec<f64> = Vec::with_capacity(batches);
    let mut shipped_rows = 0usize;
    let steady_started = Instant::now();
    for _ in 0..batches {
        if at >= total {
            break;
        }
        let to = (at + batch).min(total);
        let rows = rows_of(&db, at, to);
        shipped_rows += rows.len();
        let t0 = Instant::now();
        append_batch(&primary, &rows);
        let want = fingerprint(&primary).expect("primary fingerprint");
        wait_fp(&replica, want, "steady-state convergence");
        lags_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        at = to;
    }
    let steady = steady_started.elapsed().as_secs_f64();
    let lag_median = median(&mut lags_ms);
    let lag_p95 = percentile(&lags_ms, 0.95);
    let rows_per_s = shipped_rows as f64 / steady;
    println!(
        "steady state: {} batches of {batch} rows, apply lag median {lag_median:.3}ms \
         p95 {lag_p95:.3}ms, {rows_per_s:.0} rows/s end-to-end",
        lags_ms.len()
    );

    let cores = available_cores();
    let json = format!(
        "{{\n  \"dataset\": {{\"name\": \"twitter-sim\", \"scale\": {}, \"seed\": {}, \
         \"transactions\": {total}}},\n  \"machine\": {{\"cores\": {cores}, \"os\": \"{}\", \
         \"arch\": \"{}\"}},\n  \"params\": {{\"per\": 360, \"min_ps\": {min_ps}, \"min_rec\": 1, \
         \"batch\": {batch}}},\n  \"catch_up\": {{\"transactions\": {catchup_end}, \
         \"journal_records\": {journal_records}, \"seconds\": {catch_up:.3}, \
         \"records_per_s\": {catch_rec_per_s:.1}, \"transactions_per_s\": {catch_tx_per_s:.0}}},\n  \
         \"steady_state\": {{\"batches\": {}, \"rows\": {shipped_rows}, \
         \"apply_lag_ms_median\": {lag_median:.3}, \"apply_lag_ms_p95\": {lag_p95:.3}, \
         \"rows_per_s\": {rows_per_s:.0}}}\n}}\n",
        args.scale,
        args.seed,
        std::env::consts::OS,
        std::env::consts::ARCH,
        lags_ms.len(),
    );
    std::fs::write(out_path, &json).expect("write benchmark json");
    println!("\nwrote {out_path}");

    replica.shutdown();
    replica.join();
    primary.shutdown();
    primary.join();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
