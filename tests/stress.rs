//! Stress tests: larger randomized databases than the property suites use,
//! cross-checking the optimised miners against each other and against
//! post-hoc verification. These catch interaction bugs (tree push-up ×
//! conditional pruning × dense prefixes) that tiny proptest cases rarely
//! reach.

use recurring_patterns::core::apriori_rp;
use recurring_patterns::prelude::*;
use recurring_patterns::timeseries::Pcg32;

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

/// A mid-size random database: `n_items` items over `span` stamps with a
/// popularity-skewed occurrence probability and occasional burst windows.
fn stress_db(seed: u64, n_items: usize, span: i64) -> TransactionDb {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut b = TransactionDb::builder();
    let labels: Vec<String> = (0..n_items).map(|i| format!("x{i}")).collect();
    // Each item gets a base rate and one hot window with boosted rate.
    let profiles: Vec<(f64, i64, i64)> = (0..n_items)
        .map(|i| {
            let base = 0.4 / (i + 1) as f64;
            let start = rng.random_range(0..span / 2);
            (base, start, start + span / 4)
        })
        .collect();
    for ts in 0..span {
        let mut items: Vec<&str> = Vec::new();
        for (i, &(base, lo, hi)) in profiles.iter().enumerate() {
            let p = if ts >= lo && ts <= hi { (base * 6.0).min(0.9) } else { base };
            if rng.random_f64() < p {
                items.push(&labels[i]);
            }
        }
        if !items.is_empty() {
            b.add_labeled(ts, &items);
        }
    }
    b.build()
}

#[test]
fn growth_apriori_and_parallel_agree_on_mid_size_databases() {
    for seed in [1u64, 2, 3] {
        let db = stress_db(seed, 14, 1500);
        for (per, min_ps, min_rec) in [(5, 10, 1), (3, 5, 2), (10, 20, 2), (2, 3, 3)] {
            let params = ResolvedParams::new(per, min_ps, min_rec);
            let growth = mine_resolved(&db, params);
            let (apriori, _) = apriori_rp(&db, params);
            assert_eq!(
                growth.patterns, apriori,
                "seed={seed} per={per} minPS={min_ps} minRec={min_rec}"
            );
            let parallel = mine_threads(&db, params, 4);
            assert_eq!(growth.patterns, parallel.patterns);
            verify_all(&db, &growth.patterns, params)
                .unwrap_or_else(|(i, e)| panic!("pattern {i}: {e}"));
        }
    }
}

#[test]
fn dense_prefix_sharing_database() {
    // Heavy prefix overlap: every transaction contains the head items, so
    // the tree has long shared spines and deep conditional recursion.
    let mut b = TransactionDb::builder();
    let mut rng = Pcg32::seed_from_u64(9);
    for ts in 0..800i64 {
        let mut items = vec!["h0", "h1", "h2"]; // always-on spine
        for i in 3..10 {
            if rng.random_f64() < 0.3 {
                items.push(["x3", "x4", "x5", "x6", "x7", "x8", "x9"][i - 3]);
            }
        }
        b.add_labeled(ts, &items);
    }
    let db = b.build();
    let params = ResolvedParams::new(2, 50, 1);
    let growth = mine_resolved(&db, params);
    let (apriori, _) = apriori_rp(&db, params);
    assert_eq!(growth.patterns, apriori);
    // The spine subsets must all recur with one full-span interval.
    let spine = {
        let mut v = db.pattern_ids(&["h0", "h1", "h2"]).unwrap();
        v.sort_unstable();
        v
    };
    let p = growth.patterns.iter().find(|p| p.items == spine).expect("spine recurs");
    assert_eq!(p.support, 800);
    assert_eq!(p.recurrence(), 1);
    assert_eq!(p.intervals[0].periodic_support, 800);
}

#[test]
fn adversarial_timestamp_layouts() {
    // Exponentially growing gaps: every per value splits at a different
    // prefix; exercises interval logic away from uniform spacing.
    let mut b = TransactionDb::builder();
    let mut ts = 0i64;
    for k in 0..14 {
        b.add_labeled(ts, &["e", "f"]);
        ts += 1 << k;
    }
    let db = b.build();
    for per in [1i64, 2, 4, 8, 64, 1 << 13] {
        let params = ResolvedParams::new(per, 2, 1);
        let growth = mine_resolved(&db, params);
        let (apriori, _) = apriori_rp(&db, params);
        assert_eq!(growth.patterns, apriori, "per={per}");
        verify_all(&db, &growth.patterns, params).unwrap();
    }
    // The spectrum agrees with mining at every breakpoint.
    let ids = db.pattern_ids(&["e", "f"]).unwrap();
    let tl = db.timestamps_of(&ids);
    let spectrum = recurring_patterns::core::recurrence_spectrum(&tl, 2);
    for step in &spectrum {
        if step.per == 0 {
            continue;
        }
        let params = ResolvedParams::new(step.per, 2, 1);
        let mined = mine_resolved(&db, params);
        let pat = mined.patterns.iter().find(|p| {
            let mut v = ids.clone();
            v.sort_unstable();
            p.items == v
        });
        assert_eq!(
            pat.map_or(0, |p| p.recurrence()),
            step.interesting,
            "spectrum disagrees with mining at per={}",
            step.per
        );
    }
}
