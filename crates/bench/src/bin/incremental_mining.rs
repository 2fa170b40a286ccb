//! Extension experiment: streaming ingestion and **delta mining** on the
//! append path.
//!
//! Two sections:
//!
//! 1. the original streaming comparison — the incremental miner (live
//!    RP-list scanners, full re-growth) vs re-running the batch miner from
//!    scratch after every chunk of new transactions;
//! 2. the delta-mining benchmark behind `BENCH_incremental.json` — after a
//!    warm full mine, append batches of `--batch-sizes` transactions and
//!    compare [`IncrementalMiner::mine_delta`] (checkpoint-resumed frontier
//!    re-growth plus pattern-store splice) against a full re-mine of the
//!    same database, asserting bit-identical patterns every round and
//!    recording append+mine throughput, the delta-vs-full wall split, and
//!    the per-rep path taxonomy (`delta` / `unchanged` / `full:<reason>`),
//!    and per rep the delta mine's wall time (`delta_ms`, so a miss-heavy
//!    rep shows beside the median), how many examined sets resumed a
//!    cached scan state (`checkpoint_hits`) and how many were measured
//!    without one (`checkpoint_misses`: multi-item sets rebuilt from
//!    posting bitsets, singletons first seen in the batch, every set of a
//!    full mine).
//!
//! ```text
//! cargo run -p rpm-bench --release --bin incremental_mining -- \
//!     [--scale 0.25] [--seed 5] [--chunks 5] [--reps 3] \
//!     [--batch-sizes 1,10,100,1000] [--out BENCH_incremental.json]
//! ```

#![deny(deprecated)]

use std::time::Instant;

use rpm_bench::datasets::{load, Dataset};
use rpm_bench::tables::secs;
use rpm_bench::{available_cores, median, HarnessArgs, Table};
use rpm_core::{
    DeltaMode, IncrementalMiner, MineScratch, MiningSession, PatternStore, ResolvedParams,
    RunControl,
};
use rpm_timeseries::TransactionDb;

/// Replays `db.transactions()[range]` into the miner.
fn feed(miner: &mut IncrementalMiner, db: &TransactionDb, from: usize, to: usize) {
    for t in &db.transactions()[from..to] {
        let labels: Vec<&str> = t.items().iter().map(|&i| db.items().label(i)).collect();
        miner.append(t.timestamp(), &labels).expect("ordered stream");
    }
}

struct BatchReport {
    batch: usize,
    warm_full_ms: f64,
    delta_ms: Vec<f64>,
    full_ms: Vec<f64>,
    append_ms: Vec<f64>,
    retained: Vec<usize>,
    remined: Vec<usize>,
    /// Per-rep path taxonomy: `delta`, `unchanged`, or `full:<reason>`.
    paths: Vec<String>,
    checkpoint_hits: Vec<usize>,
    checkpoint_misses: Vec<usize>,
    tail_tx: Vec<usize>,
    modes: (usize, usize, usize), // (delta, unchanged, full-fallback)
    patterns: usize,
}

/// The taxonomy label stamped per rep: which path the call took, and for
/// full fallbacks, the [`rpm_core::FullReason`] spelling out why.
fn path_label(mode: DeltaMode) -> String {
    match mode {
        DeltaMode::Delta => "delta".to_string(),
        DeltaMode::Unchanged => "unchanged".to_string(),
        DeltaMode::Full(reason) => format!("full:{reason}"),
    }
}

fn main() {
    let args = HarnessArgs::from_env();
    let chunks = args.get_usize("chunks", 5).max(1);
    let reps = args.get_usize("reps", 3).max(1);
    let out_path = args.get("out").unwrap_or("BENCH_incremental.json");
    let batch_sizes: Vec<usize> = args
        .get("batch-sizes")
        .unwrap_or("1,10,100,1000")
        .split(',')
        .map(|t| t.trim().parse().expect("--batch-sizes takes a comma-separated list"))
        .collect();

    println!("# Incremental vs batch re-mining (Twitter sim, per=360, minPS=2% of final size)\n");
    let (db, _) = load(Dataset::Twitter, args.scale, args.seed);
    // Absolute minPS fixed against the FINAL size, so both miners answer
    // the same question at every step.
    let params = ResolvedParams::new(360, (db.len() / 50).max(1), 1);
    let chunk_len = db.len().div_ceil(chunks);

    let mut miner = IncrementalMiner::new(params);
    let mut table =
        Table::new(["chunk", "|TDB|", "patterns", "incremental mine(s)", "batch mine(s)"]);
    let mut consumed = 0usize;
    for chunk in 1..=chunks {
        let upto = (chunk * chunk_len).min(db.len());
        feed(&mut miner, &db, consumed, upto);
        consumed = upto;

        let t0 = Instant::now();
        let inc = miner.mine();
        let inc_time = t0.elapsed();

        let t1 = Instant::now();
        let session = MiningSession::builder().resolved(params).build().expect("valid params");
        let batch = session.mine(miner.db()).expect("non-empty db").into_result();
        let batch_time = t1.elapsed();

        assert_eq!(inc.patterns, batch.patterns, "miners must agree at every step");
        table.row([
            format!("{chunk}/{chunks}"),
            miner.len().to_string(),
            inc.patterns.len().to_string(),
            secs(inc_time),
            secs(batch_time),
        ]);
    }
    table.print();
    println!("\n(both miners verified to produce identical outputs at every step)");

    // ── Delta mining: append batches against a warm pattern store ──────
    // Like the serving append path, every mine runs on this thread.
    let cores = available_cores();
    println!("\n# Delta mining on the append path (reps={reps})\n");
    let control = RunControl::new();
    let mut scratch = MineScratch::new();
    let mut reports: Vec<BatchReport> = Vec::new();
    let mut delta_table = Table::new([
        "append batch",
        "delta mine (ms)",
        "full re-mine (ms)",
        "speedup",
        "modes d/u/f",
        "patterns",
    ]);
    for &batch in &batch_sizes {
        let holdout = batch * reps;
        assert!(
            holdout < db.len(),
            "batch size {batch} x {reps} reps exceeds the {} available transactions",
            db.len()
        );
        let base = db.len() - holdout;
        let mut miner = IncrementalMiner::new(params);
        feed(&mut miner, &db, 0, base);
        let mut store = PatternStore::new();
        let t0 = Instant::now();
        let (warm, stats) = miner.mine_delta(&mut store);
        let warm_full_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(!stats.mode.is_delta(), "cold store warms with a full mine");
        let multi_item = warm.patterns.iter().filter(|p| p.items.len() > 1).count();
        assert_eq!(
            store.checkpoint_count(),
            multi_item,
            "the warming mine hands the store one state per multi-item pattern"
        );

        let mut report = BatchReport {
            batch,
            warm_full_ms,
            delta_ms: Vec::with_capacity(reps),
            full_ms: Vec::with_capacity(reps),
            append_ms: Vec::with_capacity(reps),
            retained: Vec::new(),
            remined: Vec::new(),
            paths: Vec::new(),
            checkpoint_hits: Vec::new(),
            checkpoint_misses: Vec::new(),
            tail_tx: Vec::new(),
            modes: (0, 0, 0),
            patterns: warm.patterns.len(),
        };
        for rep in 0..reps {
            let from = base + rep * batch;
            let t0 = Instant::now();
            feed(&mut miner, &db, from, from + batch);
            report.append_ms.push(t0.elapsed().as_secs_f64() * 1e3);

            let t1 = Instant::now();
            let (delta, abort, stats) =
                miner.mine_delta_controlled(&mut store, &control, &mut scratch, 1);
            assert!(abort.is_none(), "unlimited control never aborts");
            report.delta_ms.push(t1.elapsed().as_secs_f64() * 1e3);

            let t2 = Instant::now();
            let session = MiningSession::builder().resolved(params).build().expect("valid params");
            let full = session.mine(miner.db()).expect("non-empty db").into_result();
            report.full_ms.push(t2.elapsed().as_secs_f64() * 1e3);

            assert_eq!(delta.patterns, full.patterns, "delta must be bit-identical to batch");
            match stats.mode {
                DeltaMode::Delta => report.modes.0 += 1,
                DeltaMode::Unchanged => report.modes.1 += 1,
                DeltaMode::Full(_) => report.modes.2 += 1,
            }
            report.paths.push(path_label(stats.mode));
            report.checkpoint_hits.push(stats.checkpoint_hits);
            let examined = delta.stats.candidates_checked;
            report.checkpoint_misses.push(examined.saturating_sub(stats.checkpoint_hits));
            report.tail_tx.push(stats.tail_transactions);
            report.retained.push(stats.retained_patterns);
            report.remined.push(stats.remined_patterns);
            report.patterns = delta.patterns.len();
        }
        let delta_med = median(&mut report.delta_ms.clone());
        let full_med = median(&mut report.full_ms.clone());
        delta_table.row([
            batch.to_string(),
            format!("{delta_med:.2}"),
            format!("{full_med:.2}"),
            format!("{:.1}x", full_med / delta_med.max(1e-9)),
            format!("{}/{}/{}", report.modes.0, report.modes.1, report.modes.2),
            report.patterns.to_string(),
        ]);
        reports.push(report);
    }
    delta_table.print();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"dataset\": {{\"name\": \"twitter-sim\", \"scale\": {}, \"seed\": {}, \"transactions\": {}}},\n",
        args.scale,
        args.seed,
        db.len()
    ));
    json.push_str(&format!(
        "  \"params\": {{\"per\": 360, \"min_ps\": {}, \"min_rec\": 1}},\n  \"reps\": {reps},\n",
        params.min_ps
    ));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str("  \"batches\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let delta_med = median(&mut r.delta_ms.clone());
        let full_med = median(&mut r.full_ms.clone());
        let append_med = median(&mut r.append_ms.clone());
        // Serving-path cost of absorbing one batch: ingest + delta mine.
        let tx_per_s = r.batch as f64 / ((append_med + delta_med) / 1e3).max(1e-9);
        let paths = r.paths.iter().map(|p| format!("\"{p}\"")).collect::<Vec<_>>().join(", ");
        let delta_ms =
            r.delta_ms.iter().map(|ms| format!("{ms:.3}")).collect::<Vec<_>>().join(", ");
        json.push_str(&format!(
            "    {{\"append_batch\": {}, \"warm_full_ms\": {:.3}, \"append_ms_median\": {:.3}, \
             \"delta_ms_median\": {:.3}, \"full_ms_median\": {:.3}, \
             \"speedup_delta_vs_full\": {:.3}, \"append_mine_tx_per_s\": {:.1}, \
             \"modes\": {{\"delta\": {}, \"unchanged\": {}, \"full\": {}}}, \
             \"paths\": [{}], \"delta_ms\": [{}], \"checkpoint_hits\": {:?}, \
             \"checkpoint_misses\": {:?}, \"tail_tx\": {:?}, \
             \"retained_patterns\": {:?}, \"remined_patterns\": {:?}, \"patterns\": {}}}{}\n",
            r.batch,
            r.warm_full_ms,
            append_med,
            delta_med,
            full_med,
            full_med / delta_med.max(1e-9),
            tx_per_s,
            r.modes.0,
            r.modes.1,
            r.modes.2,
            paths,
            delta_ms,
            r.checkpoint_hits,
            r.checkpoint_misses,
            r.tail_tx,
            r.retained,
            r.remined,
            r.patterns,
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write report");
    println!("\nwrote {out_path}");
}
