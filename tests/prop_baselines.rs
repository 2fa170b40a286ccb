//! Property-based oracles for the baseline miners: each optimised
//! implementation is compared against a from-scratch brute-force
//! recomputation of its own model on random databases.

use proptest::prelude::*;
use recurring_patterns::baselines::periodic_frequent::periodicity;
use recurring_patterns::baselines::{
    mine_hitset, mine_periodic_first, mine_segments, PPatternParams, PfGrowth, PfParams,
    SegmentParams,
};
use recurring_patterns::prelude::*;

/// Batch miner routed through the engine's [`MiningSession`] entry point.
fn mine_resolved(db: &TransactionDb, params: ResolvedParams) -> MiningResult {
    let session = MiningSession::builder().resolved(params).build().expect("valid params");
    session.mine(db).expect("non-empty db").into_result()
}

/// Strategy: a small random database over ≤ 6 items and ≤ 60 timestamps.
fn small_db() -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec((0i64..60, proptest::collection::btree_set(0u8..6, 1..4)), 2..40)
        .prop_map(|rows| {
            let mut b = TransactionDb::builder();
            for i in 0..6u8 {
                b.items_mut().intern(&format!("i{i}"));
            }
            for (ts, items) in rows {
                let labels: Vec<String> = items.iter().map(|i| format!("i{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                b.add_labeled(ts, &refs);
            }
            b.build()
        })
}

/// Brute-force periodic-frequent oracle: enumerate all itemsets over the
/// (tiny) alphabet and apply the definition directly.
fn pf_brute_force(
    db: &TransactionDb,
    max_per: i64,
    min_sup: usize,
) -> Vec<(Vec<ItemId>, usize, i64)> {
    let Some((start, end)) = db.time_span() else { return Vec::new() };
    let n = db.item_count();
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        let items: Vec<ItemId> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| ItemId(i as u32)).collect();
        let ts = db.timestamps_of(&items);
        if ts.len() < min_sup {
            continue;
        }
        if let Some(per) = periodicity(&ts, start, end) {
            if per <= max_per {
                out.push((items, ts.len(), per));
            }
        }
    }
    out.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Brute-force p-pattern oracle (w = 1).
fn ppattern_brute_force(
    db: &TransactionDb,
    period: i64,
    min_sup: usize,
) -> Vec<(Vec<ItemId>, usize)> {
    let n = db.item_count();
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        let items: Vec<ItemId> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| ItemId(i as u32)).collect();
        let ts = db.timestamps_of(&items);
        let psup = ts.windows(2).filter(|w| w[1] - w[0] <= period).count();
        if psup >= min_sup {
            out.push((items, psup));
        }
    }
    out.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PF-growth (both variants) equals the brute-force definition.
    #[test]
    fn pf_growth_matches_brute_force(
        db in small_db(),
        max_per in 1i64..20,
        min_sup in 1usize..6,
    ) {
        let (mined, _) =
            PfGrowth::new(PfParams::new(max_per, Threshold::Count(min_sup))).mine(&db);
        let oracle = pf_brute_force(&db, max_per, min_sup);
        prop_assert_eq!(mined.len(), oracle.len());
        for (m, (items, sup, per)) in mined.iter().zip(&oracle) {
            prop_assert_eq!(&m.items, items);
            prop_assert_eq!(m.support, *sup);
            prop_assert_eq!(m.periodicity, *per);
        }
    }

    /// Periodic-first p-pattern mining equals the brute-force definition.
    #[test]
    fn ppattern_matches_brute_force(
        db in small_db(),
        period in 1i64..20,
        min_sup in 1usize..6,
    ) {
        let params = PPatternParams::new(period, Threshold::Count(min_sup), 1);
        let (mined, _) = mine_periodic_first(&db, &params, None);
        let oracle = ppattern_brute_force(&db, period, min_sup);
        prop_assert_eq!(mined.len(), oracle.len());
        for (m, (items, psup)) in mined.iter().zip(&oracle) {
            prop_assert_eq!(&m.items, items);
            prop_assert_eq!(m.periodic_support, *psup);
        }
    }

    /// The hit-set algorithm equals the level-wise segment miner.
    #[test]
    fn hitset_matches_apriori(db in small_db(), period in 1i64..12, pct in 1u32..10) {
        let params = SegmentParams::new(period, Threshold::Fraction(pct as f64 / 10.0));
        prop_assert_eq!(mine_hitset(&db, &params), mine_segments(&db, &params));
    }

    /// Relaxed mining with zero budget is exactly strict mining, on
    /// arbitrary databases and parameters.
    #[test]
    fn relaxed_zero_budget_is_strict(
        db in small_db(),
        per in 1i64..10,
        min_ps in 1usize..4,
        min_rec in 1usize..3,
    ) {
        let base = ResolvedParams::new(per, min_ps, min_rec);
        let strict = mine_resolved(&db, base).patterns;
        let (relaxed, _) = mine_relaxed(&db, &NoiseParams::strict(base));
        prop_assert_eq!(strict, relaxed);
    }

    /// Parallel mining equals sequential mining for any thread count.
    #[test]
    fn parallel_equals_sequential(
        db in small_db(),
        per in 1i64..8,
        min_ps in 1usize..4,
        threads in 1usize..6,
    ) {
        let params = ResolvedParams::new(per, min_ps, 1);
        let seq = mine_resolved(&db, params).patterns;
        let session = MiningSession::builder().resolved(params).threads(threads).build().unwrap();
        let par = session.mine(&db).unwrap().into_result().patterns;
        prop_assert_eq!(seq, par);
    }

    /// The incremental miner equals batch mining when fed the same stream.
    #[test]
    fn incremental_equals_batch(db in small_db(), per in 1i64..8, min_ps in 1usize..4) {
        let params = ResolvedParams::new(per, min_ps, 1);
        let mut miner = IncrementalMiner::with_items(db.items().clone(), params);
        for t in db.transactions() {
            miner.append_ids(t.timestamp(), t.items().to_vec()).unwrap();
        }
        let inc = miner.mine().patterns;
        let batch = mine_resolved(&db, params).patterns;
        prop_assert_eq!(inc, batch);
    }
}
