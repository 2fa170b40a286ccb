//! Integration tests for the extension features (the paper's §6 future
//! work) on the simulated datasets: incremental mining, noise-tolerant
//! mining, condensations, top-k and rules — all through the facade API.

use recurring_patterns::prelude::*;

#[test]
fn incremental_miner_tracks_a_simulated_stream() {
    let stream = generate_clickstream(&ShopConfig { scale: 0.05, seed: 31, ..Default::default() });
    let db = &stream.db;
    let params = ResolvedParams::new(360, (db.len() / 100).max(2), 1);
    let mut miner = IncrementalMiner::new(params);
    for t in db.transactions() {
        let labels: Vec<&str> = t.items().iter().map(|&i| db.items().label(i)).collect();
        miner.append(t.timestamp(), &labels).unwrap();
    }
    let incremental = miner.mine();
    // Batch-mine the miner's own accumulated database: identical output.
    let batch = MiningSession::builder()
        .resolved(params)
        .build()
        .expect("valid params")
        .mine(miner.db())
        .expect("non-empty db")
        .into_result();
    assert_eq!(incremental.patterns, batch.patterns);
    assert!(!incremental.patterns.is_empty());
}

#[test]
fn relaxed_mining_on_noisy_simulated_data_dominates_strict() {
    let stream = generate_clickstream(&ShopConfig { scale: 0.05, seed: 32, ..Default::default() });
    let noisy = inject_noise(&stream.db, &NoiseConfig::drops(0.15, 9));
    let base = ResolvedParams::new(360, (noisy.len() / 50).max(3), 1);
    let strict = RpGrowth::new(RpParams::new(base.per, base.min_ps, base.min_rec)).mine(&noisy);
    let (relaxed, _) = mine_relaxed(&noisy, &NoiseParams::new(base, 2, base.per * 4));
    // Every strict pattern set is also discovered by the relaxed model
    // (fault budgets only merge runs, never shrink them).
    for p in &strict.patterns {
        assert!(relaxed.iter().any(|r| r.items == p.items), "strict pattern lost under relaxation");
    }
    assert!(relaxed.len() >= strict.patterns.len());
}

#[test]
fn closed_and_maximal_condense_simulated_output() {
    let stream = generate_twitter(&TwitterConfig { scale: 0.04, seed: 33, ..Default::default() });
    let mined =
        RpGrowth::new(RpParams::with_threshold(360, Threshold::pct(2.0), 1)).mine(&stream.db);
    let closed = closed_patterns(&mined.patterns);
    let maximal = maximal_patterns(&mined.patterns);
    assert!(!closed.is_empty());
    assert!(maximal.len() <= closed.len());
    assert!(closed.len() <= mined.patterns.len());
    // Closure is lossless for support queries: every mined pattern has a
    // closed superset with equal support.
    for p in &mined.patterns {
        let covered = closed
            .iter()
            .any(|c| c.support == p.support && p.items.iter().all(|i| c.items.contains(i)));
        assert!(covered, "pattern not covered by its closure");
    }
}

#[test]
fn top_k_is_a_prefix_of_the_full_ranking() {
    let stream = generate_twitter(&TwitterConfig { scale: 0.04, seed: 34, ..Default::default() });
    let params = RpParams::with_threshold(360, Threshold::pct(2.0), 1);
    let all = RpGrowth::new(params).mine(&stream.db).patterns;
    let k10 = top_k(&all, 10, RankBy::Support);
    let k5 = top_k(&all, 5, RankBy::Support);
    assert_eq!(&k10[..5], &k5[..]);
    assert!(k10.windows(2).all(|w| w[0].support >= w[1].support));
}

#[test]
fn rules_are_confidence_sound_on_simulated_data() {
    let stream = generate_clickstream(&ShopConfig { scale: 0.05, seed: 35, ..Default::default() });
    let db = &stream.db;
    let mined = RpGrowth::new(RpParams::with_threshold(360, Threshold::pct(0.3), 1)).mine(db);
    let (rules, skipped) = generate_rules(db, &mined.patterns, 0.7);
    assert_eq!(skipped, 0);
    assert!(!rules.is_empty());
    for r in rules.iter().take(50) {
        // Recompute confidence from scratch.
        let mut z = r.antecedent.clone();
        z.extend(&r.consequent);
        z.sort_unstable();
        let sup_z = db.support(&z);
        let sup_a = db.support(&r.antecedent);
        assert_eq!(sup_z, r.support);
        let conf = sup_z as f64 / sup_a as f64;
        assert!((conf - r.confidence).abs() < 1e-12);
        assert!(conf >= 0.7);
    }
}

#[test]
fn slicing_a_discovered_interval_yields_a_locally_periodic_db() {
    // Take a mined pattern, slice the database to its first interesting
    // interval, and check the pattern is periodic throughout the slice —
    // the definition of a periodic-interval, exercised via the public
    // slicing API.
    let stream = generate_clickstream(&ShopConfig { scale: 0.08, seed: 36, ..Default::default() });
    let db = &stream.db;
    let params = RpParams::with_threshold(360, Threshold::pct(0.3), 2);
    let mined = RpGrowth::new(params.clone()).mine(db);
    let p = mined.patterns.iter().find(|p| p.len() >= 2).expect("a pair exists");
    let iv = p.intervals[0];
    let season = slice_time(db, iv.start..=iv.end);
    let ts = season.timestamps_of(&p.items);
    assert_eq!(ts.len(), iv.periodic_support);
    assert!(ts.windows(2).all(|w| w[1] - w[0] <= 360), "all gaps periodic inside the interval");
}
