//! Exact whole-output validation: on spec-built databases the complete
//! recurring-pattern set is known in closed form, and every miner in the
//! workspace must produce it verbatim — supports, recurrences and interval
//! endpoints included.

use proptest::prelude::*;
use recurring_patterns::core::apriori_rp;
use recurring_patterns::datagen::{ExactGroup, ExactSpec};
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

fn paper_like_spec() -> ExactSpec {
    ExactSpec {
        groups: vec![
            ExactGroup { items: 2, bursts: vec![(3, 8), (3, 8)] }, // two seasons
            ExactGroup { items: 3, bursts: vec![(5, 4), (5, 4), (5, 4)] }, // three seasons
            ExactGroup { items: 1, bursts: vec![(1, 20)] },        // one long season
            ExactGroup { items: 2, bursts: vec![(9, 3)] },         // sparse, per-sensitive
        ],
    }
}

#[test]
fn rp_growth_reproduces_the_closed_form_exactly() {
    let spec = paper_like_spec();
    let db = spec.build();
    for (per, min_ps, min_rec) in
        [(3, 4, 2), (5, 3, 2), (5, 4, 3), (1, 10, 1), (9, 3, 1), (8, 2, 1), (3, 8, 2)]
    {
        let params = ResolvedParams::new(per, min_ps, min_rec);
        let expected = spec.expected(&db, params);
        let mined = mine_resolved(&db, params).patterns;
        assert_eq!(
            mined, expected,
            "full-output mismatch at per={per} minPS={min_ps} minRec={min_rec}"
        );
    }
}

#[test]
fn all_miners_reproduce_the_closed_form() {
    let spec = paper_like_spec();
    let db = spec.build();
    let params = ResolvedParams::new(5, 3, 2);
    let expected = spec.expected(&db, params);
    assert!(!expected.is_empty());
    assert_eq!(mine_resolved(&db, params).patterns, expected);
    assert_eq!(apriori_rp(&db, params).0, expected);
    assert_eq!(mine_threads(&db, params, 4).patterns, expected);
    let (relaxed, _) = mine_relaxed(&db, &NoiseParams::strict(params));
    assert_eq!(relaxed, expected);
}

#[test]
fn interval_endpoints_are_exact() {
    // Group 0: bursts of 8 at step 3 ⇒ first interval [0, 21], second
    // starts 10_000 later at 21 + 10_000.
    let spec = paper_like_spec();
    let db = spec.build();
    let params = ResolvedParams::new(3, 8, 2);
    let mined = mine_resolved(&db, params).patterns;
    let pair = {
        let mut v = db.pattern_ids(&["g0-i0", "g0-i1"]).unwrap();
        v.sort_unstable();
        v
    };
    let p = mined.iter().find(|p| p.items == pair).expect("pair mined");
    assert_eq!(p.intervals.len(), 2);
    assert_eq!((p.intervals[0].start, p.intervals[0].end), (0, 21));
    assert_eq!(p.intervals[0].periodic_support, 8);
    assert_eq!(p.intervals[1].start, 21 + recurring_patterns::datagen::exact::BURST_GAP);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random specs: the closed form and RP-growth agree for arbitrary
    /// group structures and parameters.
    #[test]
    fn random_specs_mine_exactly(
        groups in proptest::collection::vec(
            (1usize..4, proptest::collection::vec((1i64..10, 1usize..8), 1..4)),
            1..4,
        ),
        per in 1i64..12,
        min_ps in 1usize..6,
        min_rec in 1usize..4,
    ) {
        let spec = ExactSpec {
            groups: groups
                .into_iter()
                .map(|(items, bursts)| ExactGroup { items, bursts })
                .collect(),
        };
        let db = spec.build();
        let params = ResolvedParams::new(per, min_ps, min_rec);
        let expected = spec.expected(&db, params);
        let mined = mine_resolved(&db, params).patterns;
        prop_assert_eq!(mined, expected);
    }
}
