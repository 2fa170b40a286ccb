//! Seeded equivalence suite for the work-stealing parallel miner: on a pool
//! of planted **and** noise-corrupted databases, a [`MiningSession`] on
//! several threads must produce the exact sequential output — patterns and
//! the algorithmic [`MiningStats`] counters — at every thread count.

use recurring_patterns::core::{MineScratch, MiningResult, ResolvedParams};
use recurring_patterns::prelude::*;

/// Batch miner routed through the engine's [`MiningSession`] entry point.
fn mine_resolved(db: &TransactionDb, params: ResolvedParams) -> MiningResult {
    mine_threads(db, params, 1)
}

/// [`mine_resolved`] on `threads` work-stealing workers.
fn mine_threads(db: &TransactionDb, params: ResolvedParams, threads: usize) -> MiningResult {
    let session =
        MiningSession::builder().resolved(params).threads(threads).build().expect("valid params");
    session.mine(db).expect("non-empty db").into_result()
}

/// Planted simulations plus dropped/jittered variants: ≥20 databases with
/// known structure and realistic corruption, each paired with paper-style
/// parameters.
fn database_pool() -> Vec<(String, TransactionDb, ResolvedParams)> {
    let mut pool = Vec::new();
    let mut push = |name: String, db: TransactionDb, per: i64, pct: f64, min_rec: usize| {
        let params = RpParams::with_threshold(per, Threshold::pct(pct), min_rec).resolve(db.len());
        pool.push((name, db, params));
    };
    for seed in 1..=5u64 {
        let stream = generate_twitter(&TwitterConfig { scale: 0.015, seed, ..Default::default() });
        let min_rec = (seed as usize % 2) + 1;
        push(format!("twitter-{seed}"), stream.db.clone(), 360, 2.0, min_rec);
        let noisy = inject_noise(&stream.db, &NoiseConfig::drops(0.05, seed));
        push(format!("twitter-{seed}-drops"), noisy, 360, 2.0, min_rec);
    }
    for seed in 1..=5u64 {
        let stream = generate_clickstream(&ShopConfig { scale: 0.04, seed, ..Default::default() });
        let min_rec = (seed as usize % 2) + 1;
        push(format!("shop-{seed}"), stream.db.clone(), 360, 0.6, min_rec);
        let noisy = inject_noise(&stream.db, &NoiseConfig::jitters(2, seed));
        push(format!("shop-{seed}-jitter"), noisy, 360, 0.6, min_rec);
    }
    assert!(pool.len() >= 20, "pool must cover at least 20 databases");
    pool
}

fn assert_same(name: &str, tag: &str, got: &MiningResult, want: &MiningResult) {
    assert_eq!(got.patterns, want.patterns, "{name}: patterns diverged ({tag})");
    assert_eq!(got.stats.normalized(), want.stats.normalized(), "{name}: stats diverged ({tag})");
}

#[test]
fn parallel_output_and_stats_match_sequential_across_thread_counts() {
    for (name, db, params) in database_pool() {
        let seq = mine_resolved(&db, params);
        assert!(!seq.patterns.is_empty(), "{name}: degenerate case, planted structure lost");
        for threads in [1usize, 2, 3, 8] {
            let par = mine_threads(&db, params, threads);
            assert_same(&name, &format!("threads={threads}"), &par, &seq);
        }
    }
}

#[test]
fn parallel_reports_scheduling_counters() {
    let (_, db, params) = database_pool().swap_remove(0);
    let par = mine_threads(&db, params, 4);
    assert!(par.stats.scratch_bytes_peak > 0, "worker scratch footprint not reported");
    let seq = mine_resolved(&db, params);
    assert!(seq.stats.scratch_bytes_peak > 0);
    assert_eq!(seq.stats.regions_stolen, 0);
}

#[test]
fn parallel_delta_frontier_matches_sequential_across_thread_counts() {
    // The stores are warmed by full mines at 1, 2, 3 and 8 threads, so their
    // resume states come from the recursion's capture or the regions'. The
    // delta that follows walks the frontier on one thread either way: it
    // must be bit-identical to a batch mine and resume exactly as often
    // from every store.
    use recurring_patterns::core::{DeltaMode, IncrementalMiner, PatternStore, RunControl};

    for (name, db, params) in database_pool().into_iter().step_by(7) {
        let n = db.len();
        let split = n - (n / 10).clamp(1, 200);
        let feed = |miner: &mut IncrementalMiner, range: std::ops::Range<usize>| {
            for t in &db.transactions()[range] {
                let labels: Vec<&str> = t.items().iter().map(|&i| db.items().label(i)).collect();
                miner.append(t.timestamp(), &labels).expect("in-order append");
            }
        };
        let mut miner = IncrementalMiner::new(params);
        feed(&mut miner, 0..split);
        let thread_counts = [1usize, 2, 3, 8];
        let mut stores: Vec<PatternStore> = thread_counts.map(|_| PatternStore::new()).into();
        for (store, threads) in stores.iter_mut().zip(thread_counts) {
            let (_, abort, stats) = miner.mine_delta_controlled(
                store,
                &RunControl::new(),
                &mut MineScratch::new(),
                threads,
            );
            assert!(abort.is_none(), "{name}: unlimited control aborted");
            assert!(!stats.mode.is_delta(), "{name}: threads={threads} warms with a full mine");
        }
        // Appended in steps of 25 rows, so each step stays under the tail
        // budget and walks the frontier.
        for from in (split..n).step_by(25) {
            feed(&mut miner, from..n.min(from + 25));
            // The oracle mines the miner's own database: item ids are
            // interned in arrival order, which differs from the generator's.
            let batch = mine_resolved(miner.db(), params);
            let mut outputs = Vec::new();
            for (store, threads) in stores.iter_mut().zip(thread_counts) {
                let (result, stats) = miner.mine_delta(store);
                assert_eq!(
                    result.patterns, batch.patterns,
                    "{name}@{from}: delta after a {threads}-thread warm-up diverged from batch"
                );
                outputs.push((threads, result, stats));
            }
            let (_, first, first_stats) = &outputs[0];
            assert_eq!(first_stats.mode, DeltaMode::Delta, "{name}@{from}: under the tail budget");
            for (threads, other, stats) in &outputs[1..] {
                let ctx = format!("{name}@{from} after a {threads}-thread warm-up");
                assert_eq!(stats.mode, first_stats.mode, "{ctx}");
                assert_eq!(first.stats.normalized(), other.stats.normalized(), "{ctx}");
                assert_eq!(first_stats.checkpoint_hits, stats.checkpoint_hits, "{ctx}");
            }
        }
    }
}
