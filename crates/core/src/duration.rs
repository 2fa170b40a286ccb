//! Duration-based recurring patterns — the *local periodic pattern* variant
//! that follow-up work built on this paper's model (Fournier-Viger et al.'s
//! LPP line): an interval is interesting when it **lasts long enough**
//! (`end − start ≥ minDur`) rather than when it contains enough appearances
//! (`ps ≥ minPS`).
//!
//! The two criteria differ exactly when occurrence density varies: a short
//! frantic burst satisfies `minPS` but not `minDur`; a long sparse-but-
//! periodic stretch satisfies `minDur` with few appearances. Retailers
//! asking "was it in season for at least three weeks?" want durations.
//!
//! Mining is exact level-wise search pruned by the support floor
//! `Sup(X) ≥ minRec · (⌊minDur / per⌋ + 1)`: an interval spanning at least
//! `minDur` with all gaps `≤ per` must contain at least `⌊minDur/per⌋ + 1`
//! timestamps, intervals are disjoint, and support is anti-monotone.

use rpm_timeseries::{intersect_sorted, ItemId, Timestamp, TransactionDb};

use crate::measures::periodic_intervals;
use crate::naive::AprioriStats;
use crate::pattern::{canonical_order, PeriodicInterval, RecurringPattern};

/// Parameters of the duration-based model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurationParams {
    /// Maximum periodic inter-arrival time (as in the base model).
    pub per: Timestamp,
    /// Minimum interval duration (`end − start`) to be interesting.
    pub min_dur: Timestamp,
    /// Minimum number of interesting intervals.
    pub min_rec: usize,
}

impl DurationParams {
    /// Creates parameters.
    ///
    /// # Panics
    /// Panics unless `per > 0`, `min_dur >= 1` and `min_rec >= 1`.
    pub fn new(per: Timestamp, min_dur: Timestamp, min_rec: usize) -> Self {
        assert!(per > 0, "per must be positive");
        assert!(min_dur >= 1, "minDur must be at least 1");
        assert!(min_rec >= 1, "minRec must be at least 1");
        Self { per, min_dur, min_rec }
    }

    /// The support floor the level-wise search prunes with.
    pub fn support_floor(&self) -> usize {
        self.min_rec * ((self.min_dur / self.per) as usize + 1)
    }
}

/// The duration-interesting intervals of a sorted timestamp list, and the
/// duration-recurrence verdict.
pub fn get_duration_recurrence(
    ts: &[Timestamp],
    params: &DurationParams,
) -> Option<Vec<PeriodicInterval>> {
    let mut runs = periodic_intervals(ts, params.per);
    runs.retain(|r| r.duration() >= params.min_dur);
    (runs.len() >= params.min_rec).then_some(runs)
}

/// Mines all duration-based recurring patterns of `db` (exact level-wise
/// search; see module docs for the pruning bound).
pub fn mine_durations(
    db: &TransactionDb,
    params: &DurationParams,
) -> (Vec<RecurringPattern>, AprioriStats) {
    let floor = params.support_floor();
    let mut stats = AprioriStats::default();
    let mut out: Vec<RecurringPattern> = Vec::new();

    let item_ts = db.item_timestamp_lists();
    let mut level: Vec<(Vec<ItemId>, Vec<Timestamp>)> = Vec::new();
    let mut evaluated = 0usize;
    for (idx, ts) in item_ts.iter().enumerate() {
        if ts.is_empty() {
            continue;
        }
        evaluated += 1;
        if ts.len() >= floor {
            let items = vec![ItemId(idx as u32)];
            if let Some(intervals) = get_duration_recurrence(ts, params) {
                out.push(RecurringPattern::new(items.clone(), ts.len(), intervals));
            }
            level.push((items, ts.clone()));
        }
    }
    stats.candidates_per_level.push(evaluated);

    while level.len() > 1 {
        let mut next: Vec<(Vec<ItemId>, Vec<Timestamp>)> = Vec::new();
        let mut evaluated = 0usize;
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let (a_items, a_ts) = &level[i];
                let (b_items, b_ts) = &level[j];
                let k = a_items.len();
                if a_items[..k - 1] != b_items[..k - 1] {
                    break;
                }
                let mut items = a_items.clone();
                items.push(b_items[k - 1]);
                let ts = intersect_sorted(a_ts, b_ts);
                if ts.is_empty() {
                    continue;
                }
                evaluated += 1;
                if ts.len() >= floor {
                    if let Some(intervals) = get_duration_recurrence(&ts, params) {
                        out.push(RecurringPattern::new(items.clone(), ts.len(), intervals));
                    }
                    next.push((items, ts));
                }
            }
        }
        if evaluated > 0 {
            stats.candidates_per_level.push(evaluated);
        }
        level = next;
    }

    canonical_order(&mut out);
    stats.patterns_found = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::DbBuilder;

    /// "dense" fires 10 times in 10 stamps (short, dense); "sparse" fires 6
    /// times across 50 stamps at gap 10 (long, sparse). Both twice.
    fn contrast_db() -> TransactionDb {
        let mut b = DbBuilder::new();
        for season in [0i64, 1000] {
            for k in 0..10 {
                b.add_labeled(season + k, &["dense"]);
            }
            for k in 0..6 {
                b.add_labeled(season + k * 10, &["sparse"]);
            }
        }
        b.build()
    }

    #[test]
    fn duration_and_count_criteria_disagree_as_designed() {
        let db = contrast_db();
        let dense = db.items().id("dense").unwrap();
        let sparse = db.items().id("sparse").unwrap();
        // Duration model: need spans ≥ 40 with gaps ≤ 10, twice.
        let (by_dur, _) = mine_durations(&db, &DurationParams::new(10, 40, 2));
        assert!(by_dur.iter().any(|p| p.items == vec![sparse]), "long sparse season found");
        assert!(
            !by_dur.iter().any(|p| p.items == vec![dense]),
            "a 9-stamp flurry is not a 40-stamp season"
        );
        // Count model (the paper's): minPS=8 at per=10 favours the dense one
        // (the sparse run has only 6 appearances).
        let strict = crate::engine::MiningSession::builder()
            .resolved(crate::params::ResolvedParams::new(10, 8, 2))
            .build()
            .expect("valid params")
            .mine(&db)
            .expect("mine")
            .into_result();
        assert!(strict.patterns.iter().any(|p| p.items == vec![dense]));
        assert!(!strict.patterns.iter().any(|p| p.items == vec![sparse]));
    }

    #[test]
    fn intervals_report_true_durations() {
        let db = contrast_db();
        let (by_dur, _) = mine_durations(&db, &DurationParams::new(10, 40, 2));
        let sparse = db.items().id("sparse").unwrap();
        let p = by_dur.iter().find(|p| p.items == vec![sparse]).unwrap();
        assert_eq!(p.recurrence(), 2);
        for iv in &p.intervals {
            assert_eq!(iv.duration(), 50);
            assert_eq!(iv.periodic_support, 6);
        }
    }

    #[test]
    fn support_floor_is_sound() {
        // Brute-force check: no pattern below the floor can be recurring.
        let db = contrast_db();
        let params = DurationParams::new(10, 40, 2);
        assert_eq!(params.support_floor(), 2 * 5);
        for mask in 1u32..(1 << db.item_count()) {
            let items: Vec<ItemId> = (0..db.item_count())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| ItemId(i as u32))
                .collect();
            let ts = db.timestamps_of(&items);
            if get_duration_recurrence(&ts, &params).is_some() {
                assert!(ts.len() >= params.support_floor(), "floor violated by {items:?}");
            }
        }
    }

    #[test]
    fn matches_brute_force_enumeration() {
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(3);
        for _ in 0..6 {
            let mut b = DbBuilder::new();
            for ts in 0..200i64 {
                let labels: Vec<String> =
                    (0..5).filter(|_| rng.random_f64() < 0.3).map(|i| format!("i{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    b.add_labeled(ts, &refs);
                }
            }
            let db = b.build();
            let params =
                DurationParams::new(rng.random_range(1..5i64), rng.random_range(3..15i64), 2);
            let (mined, _) = mine_durations(&db, &params);
            // Oracle.
            let mut oracle = Vec::new();
            for mask in 1u32..(1 << db.item_count()) {
                let items: Vec<ItemId> = (0..db.item_count())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| ItemId(i as u32))
                    .collect();
                let ts = db.timestamps_of(&items);
                if ts.is_empty() {
                    continue;
                }
                if let Some(intervals) = get_duration_recurrence(&ts, &params) {
                    oracle.push(RecurringPattern::new(items, ts.len(), intervals));
                }
            }
            canonical_order(&mut oracle);
            assert_eq!(mined, oracle, "params {params:?}");
        }
    }

    #[test]
    fn empty_db() {
        let db = DbBuilder::new().build();
        let (p, s) = mine_durations(&db, &DurationParams::new(5, 10, 1));
        assert!(p.is_empty());
        assert_eq!(s.total_candidates(), 0);
    }

    #[test]
    #[should_panic(expected = "minDur")]
    fn zero_duration_rejected() {
        let _ = DurationParams::new(5, 0, 1);
    }
}
