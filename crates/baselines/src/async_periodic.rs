//! Asynchronous periodic pattern mining in the style of Yang, Wang & Yu,
//! *"Mining asynchronous periodic patterns in time series data"* (IEEE TKDE
//! 2003) — the paper's reference \[17\], which its §2 singles out as closely
//! related but unable to express recurring patterns because it "models a
//! time series as a symbolic sequence".
//!
//! For a fixed period `p`, an occurrence chain is a maximal arithmetic
//! progression `ts, ts+p, ts+2p, …` inside the pattern's timestamp list. A
//! **valid segment** is a chain of at least `min_rep` occurrences; a
//! **valid subsequence** chains segments whose inter-segment gap
//! (*disturbance*) is at most `max_dis` — which is how the model tolerates
//! the phase shifts the EDBT paper defers to future work. Mining reports,
//! per pattern and period, the valid subsequence maximising total
//! repetitions (computed by dynamic programming over segments).

use rpm_timeseries::{ItemId, Timestamp, TransactionDb};

/// Parameters of asynchronous periodic mining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncParams {
    /// Candidate periods to test.
    pub periods: Vec<Timestamp>,
    /// Minimum repetitions for a segment to be valid (`min_rep`).
    pub min_rep: usize,
    /// Maximum disturbance between chained segments (`max_dis`).
    pub max_dis: Timestamp,
    /// Minimum total repetitions of the best subsequence for the pattern to
    /// be reported.
    pub min_total: usize,
}

impl AsyncParams {
    /// Creates parameters.
    ///
    /// # Panics
    /// Panics if `periods` is empty/non-positive, `min_rep < 2` (a single
    /// occurrence is not a repetition chain), or `max_dis < 0`.
    pub fn new(
        periods: Vec<Timestamp>,
        min_rep: usize,
        max_dis: Timestamp,
        min_total: usize,
    ) -> Self {
        assert!(!periods.is_empty() && periods.iter().all(|&p| p > 0), "periods must be positive");
        assert!(min_rep >= 2, "min_rep must be at least 2");
        assert!(max_dis >= 0, "max_dis must be non-negative");
        Self { periods, min_rep, max_dis, min_total }
    }
}

/// A valid segment: `reps` occurrences at exact distance `period`, starting
/// at `start` (so it ends at `start + (reps-1)·period`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First occurrence.
    pub start: Timestamp,
    /// Last occurrence.
    pub end: Timestamp,
    /// Number of occurrences.
    pub reps: usize,
}

/// An asynchronous periodic pattern: the best valid subsequence found for
/// one item set and period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncPattern {
    /// Items, sorted by id.
    pub items: Vec<ItemId>,
    /// The period `p`.
    pub period: Timestamp,
    /// The chained segments of the best subsequence, in temporal order.
    pub segments: Vec<Segment>,
    /// Total repetitions across the subsequence.
    pub total_reps: usize,
}

/// Decomposes `ts` (sorted, unique) into its maximal `period`-progressions
/// and keeps those with at least `min_rep` elements.
pub fn valid_segments(ts: &[Timestamp], period: Timestamp, min_rep: usize) -> Vec<Segment> {
    debug_assert!(ts.windows(2).all(|w| w[0] < w[1]));
    let contains = |t: Timestamp| ts.binary_search(&t).is_ok();
    let mut out = Vec::new();
    for &t in ts {
        // Chain heads only: no predecessor at distance `period`.
        if contains(t - period) {
            continue;
        }
        let mut reps = 1usize;
        let mut cur = t;
        while contains(cur + period) {
            cur += period;
            reps += 1;
        }
        if reps >= min_rep {
            out.push(Segment { start: t, end: cur, reps });
        }
    }
    out.sort_by_key(|s| (s.start, s.end));
    out
}

/// Finds the valid subsequence with the most total repetitions: segments in
/// temporal order, non-overlapping, consecutive gaps `≤ max_dis`.
pub fn longest_valid_subsequence(
    segments: &[Segment],
    max_dis: Timestamp,
) -> (Vec<Segment>, usize) {
    if segments.is_empty() {
        return (Vec::new(), 0);
    }
    // dp[i] = best total reps of a subsequence ending at segment i.
    let n = segments.len();
    let mut dp: Vec<usize> = segments.iter().map(|s| s.reps).collect();
    let mut prev: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        for j in 0..i {
            let gap = segments[i].start - segments[j].end;
            if gap > 0 && gap <= max_dis && dp[j] + segments[i].reps > dp[i] {
                dp[i] = dp[j] + segments[i].reps;
                prev[i] = Some(j);
            }
        }
    }
    let (mut best, _) =
        dp.iter().enumerate().max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i))).unwrap();
    let total = dp[best];
    let mut chain = vec![segments[best]];
    while let Some(j) = prev[best] {
        chain.push(segments[j]);
        best = j;
    }
    chain.reverse();
    (chain, total)
}

/// Mines the asynchronous periodic patterns of every single item in `db`
/// (the original's 1-patterns; itemsets can be analysed through
/// [`analyze_pattern`]).
pub fn mine_async(db: &TransactionDb, params: &AsyncParams) -> Vec<AsyncPattern> {
    let lists = db.item_timestamp_lists();
    let mut out = Vec::new();
    for (idx, ts) in lists.iter().enumerate() {
        if ts.len() < params.min_total {
            continue;
        }
        for &p in &params.periods {
            if let Some(pattern) = best_subsequence(ts, p, params) {
                out.push(AsyncPattern { items: vec![ItemId(idx as u32)], ..pattern });
            }
        }
    }
    out
}

/// Analyses one explicit item set under the asynchronous model.
pub fn analyze_pattern(
    db: &TransactionDb,
    items: &[ItemId],
    params: &AsyncParams,
) -> Vec<AsyncPattern> {
    let ts = db.timestamps_of(items);
    let mut sorted = items.to_vec();
    sorted.sort_unstable();
    params
        .periods
        .iter()
        .filter_map(|&p| {
            best_subsequence(&ts, p, params)
                .map(|pat| AsyncPattern { items: sorted.clone(), ..pat })
        })
        .collect()
}

fn best_subsequence(
    ts: &[Timestamp],
    period: Timestamp,
    params: &AsyncParams,
) -> Option<AsyncPattern> {
    let segments = valid_segments(ts, period, params.min_rep);
    let (chain, total) = longest_valid_subsequence(&segments, params.max_dis);
    (total >= params.min_total).then_some(AsyncPattern {
        items: Vec::new(),
        period,
        segments: chain,
        total_reps: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::DbBuilder;

    #[test]
    fn segments_are_maximal_progressions() {
        // Period 3 chains: {0,3,6,9} and {20,23}; stray 100.
        let ts = [0, 3, 6, 9, 20, 23, 100];
        let segs = valid_segments(&ts, 3, 2);
        assert_eq!(
            segs,
            vec![Segment { start: 0, end: 9, reps: 4 }, Segment { start: 20, end: 23, reps: 2 },]
        );
        // min_rep=3 drops the short chain.
        assert_eq!(valid_segments(&ts, 3, 3).len(), 1);
    }

    #[test]
    fn phase_shift_is_bridged_by_disturbance() {
        // Period-5 signal with a phase shift of +2 after five repetitions:
        // 0,5,10,15,20 then 27,32,37,42.
        let ts = [0, 5, 10, 15, 20, 27, 32, 37, 42];
        let segs = valid_segments(&ts, 5, 2);
        assert_eq!(segs.len(), 2);
        let (chain, total) = longest_valid_subsequence(&segs, 10);
        assert_eq!(chain.len(), 2, "disturbance 7 ≤ max_dis bridges the shift");
        assert_eq!(total, 9);
        let (chain, total) = longest_valid_subsequence(&segs, 5);
        assert_eq!(chain.len(), 1, "disturbance 7 > max_dis=5 cannot bridge");
        assert_eq!(total, 5);
    }

    #[test]
    fn dp_picks_max_total_not_max_segments() {
        // One long segment vs two short chainable ones.
        let segs = vec![
            Segment { start: 0, end: 8, reps: 3 },
            Segment { start: 10, end: 14, reps: 2 },
            Segment { start: 0, end: 45, reps: 10 },
        ];
        let mut sorted = segs.clone();
        sorted.sort_by_key(|s| (s.start, s.end));
        let (_, total) = longest_valid_subsequence(&sorted, 5);
        assert_eq!(total, 10, "the single 10-rep segment beats 3+2");
    }

    #[test]
    fn mine_async_end_to_end() {
        let mut b = DbBuilder::new();
        // "pulse" at period 4, with a shift mid-way: 0,4,8,12 … 30,34,38,42.
        for ts in [0, 4, 8, 12, 30, 34, 38, 42] {
            b.add_labeled(ts, &["pulse", "noise"]);
        }
        b.add_labeled(7, &["noise"]);
        let db = b.build();
        let params = AsyncParams::new(vec![4], 3, 20, 8);
        let found = mine_async(&db, &params);
        let pulse = db.items().id("pulse").unwrap();
        let p = found.iter().find(|p| p.items == vec![pulse]).expect("pulse found");
        assert_eq!(p.total_reps, 8);
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.period, 4);
    }

    #[test]
    fn analyze_pattern_on_itemsets() {
        let mut b = DbBuilder::new();
        for k in 0..6 {
            b.add_labeled(k * 10, &["x", "y"]);
        }
        let db = b.build();
        let ids = db.pattern_ids(&["x", "y"]).unwrap();
        let params = AsyncParams::new(vec![10, 7], 2, 5, 4);
        let found = analyze_pattern(&db, &ids, &params);
        assert_eq!(found.len(), 1, "only period 10 qualifies");
        assert_eq!(found[0].period, 10);
        assert_eq!(found[0].total_reps, 6);
    }

    #[test]
    fn thresholds_filter() {
        let ts: Vec<Timestamp> = (0..5).map(|k| k * 3).collect();
        let segs = valid_segments(&ts, 3, 2);
        let (_, total) = longest_valid_subsequence(&segs, 1);
        assert_eq!(total, 5);
        assert!(valid_segments(&ts, 3, 6).is_empty());
        assert!(longest_valid_subsequence(&[], 5).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "min_rep")]
    fn min_rep_one_rejected() {
        let _ = AsyncParams::new(vec![5], 1, 2, 2);
    }
}
