//! Benchmarks for the extension features: parallel mining speedup,
//! incremental vs batch, relaxed-model overhead, and the post-processing
//! stages (closure, rules, top-k).

#![deny(deprecated)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpm_bench::datasets::{load, Dataset};
use rpm_core::engine::MiningSession;
use rpm_core::{
    closed_patterns, generate_rules, mine_relaxed, top_k, IncrementalMiner, NoiseParams, RankBy,
    ResolvedParams,
};
use rpm_timeseries::TransactionDb;
use std::hint::black_box;

const SCALE: f64 = 0.05;
const SEED: u64 = 42;

/// Batch mine on `threads` workers through the engine entry point.
fn mine_session(
    db: &TransactionDb,
    params: ResolvedParams,
    threads: usize,
) -> Vec<rpm_core::RecurringPattern> {
    MiningSession::builder()
        .resolved(params)
        .threads(threads)
        .build()
        .expect("valid params")
        .mine(db)
        .expect("non-empty db")
        .into_result()
        .patterns
}

fn parallel_speedup(c: &mut Criterion) {
    let (db, _) = load(Dataset::Twitter, SCALE, SEED);
    let params = ResolvedParams::new(360, (db.len() / 50).max(1), 1);
    let mut group = c.benchmark_group("extensions/parallel");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(mine_session(&db, params, 1)).len());
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| black_box(mine_session(&db, params, t)).len());
        });
    }
    group.finish();
}

fn incremental_ingest(c: &mut Criterion) {
    let (db, _) = load(Dataset::Shop14, SCALE, SEED);
    let params = ResolvedParams::new(360, (db.len() / 100).max(1), 1);
    let mut group = c.benchmark_group("extensions/incremental");
    group.sample_size(10);
    group.bench_function("ingest_full_stream", |b| {
        b.iter(|| {
            let mut miner = IncrementalMiner::with_items(db.items().clone(), params);
            for t in db.transactions() {
                miner.append_ids(t.timestamp(), t.items().to_vec()).unwrap();
            }
            black_box(miner.len())
        });
    });
    group.bench_function("ingest_and_mine", |b| {
        b.iter(|| {
            let mut miner = IncrementalMiner::with_items(db.items().clone(), params);
            for t in db.transactions() {
                miner.append_ids(t.timestamp(), t.items().to_vec()).unwrap();
            }
            black_box(miner.mine()).patterns.len()
        });
    });
    group.finish();
}

fn relaxed_overhead(c: &mut Criterion) {
    let (db, _) = load(Dataset::Shop14, SCALE, SEED);
    let base = ResolvedParams::new(360, (db.len() / 50).max(2), 1);
    let mut group = c.benchmark_group("extensions/relaxed");
    group.sample_size(10);
    group.bench_function("strict_growth", |b| {
        b.iter(|| black_box(mine_session(&db, base, 1)).len());
    });
    group.bench_function("relaxed_k2", |b| {
        let params = NoiseParams::new(base, 2, base.per * 4);
        b.iter(|| black_box(mine_relaxed(&db, &params)).0.len());
    });
    group.finish();
}

fn post_processing(c: &mut Criterion) {
    let (db, _) = load(Dataset::Shop14, SCALE, SEED);
    let params = ResolvedParams::new(360, (db.len() / 100).max(1), 1);
    let mined = mine_session(&db, params, 1);
    let mut group = c.benchmark_group("extensions/post");
    group.bench_function(format!("closed_{}", mined.len()), |b| {
        b.iter(|| black_box(closed_patterns(&mined)).len());
    });
    group.bench_function("top_100_by_coverage", |b| {
        b.iter(|| black_box(top_k(&mined, 100, RankBy::PeriodicCoverage)).len());
    });
    group.bench_function("rules_conf_0.5", |b| {
        b.iter(|| black_box(generate_rules(&db, &mined, 0.5)).0.len());
    });
    group.finish();
}

criterion_group!(
    extensions,
    parallel_speedup,
    incremental_ingest,
    relaxed_overhead,
    post_processing
);
criterion_main!(extensions);
