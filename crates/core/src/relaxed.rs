//! Noise-tolerant recurring patterns — the paper's first future-work item
//! ("we did not consider noisy data and the phase-shifts of the items
//! within the data", §6).
//!
//! Real streams drop events: one missed occurrence splits a long periodic
//! run into two, possibly pushing both halves under `minPS`. The relaxed
//! model lets each periodic interval absorb up to `max_violations` gaps
//! that exceed `per`, provided each such *fault* is no larger than
//! `max_fault_gap`. A phase shift — one late occurrence followed by normal
//! spacing — costs exactly one fault, so the same knob covers both
//! scenarios the paper defers.
//!
//! Interval splitting is a deterministic greedy left-to-right scan (faults
//! are spent as encountered). With `max_violations = 0` the model reduces
//! exactly to the strict one.
//!
//! Mining uses the level-wise search pruned by the (anti-monotone) bound
//! `Sup(X) ≥ minPS · minRec`; the paper's `Erec` bound is **not** reused
//! because fault budgets break its superset guarantee — merging two gaps
//! by removing a timestamp can *create* an absorbable fault where two
//! unabsorbable gaps stood, so a superset's relaxed recurrence is not
//! bounded by the subset's relaxed `Erec`.

use rpm_timeseries::{intersect_sorted, ItemId, Timestamp, TransactionDb};

use crate::naive::AprioriStats;
use crate::params::ResolvedParams;
use crate::pattern::{canonical_order, PeriodicInterval, RecurringPattern};

/// Parameters of the noise-tolerant model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseParams {
    /// The strict model's `per`, `minPS`, `minRec`.
    pub base: ResolvedParams,
    /// How many over-`per` gaps one interval may absorb.
    pub max_violations: usize,
    /// Upper bound on an absorbable gap; anything larger always splits.
    pub max_fault_gap: Timestamp,
}

impl NoiseParams {
    /// Creates relaxed parameters.
    ///
    /// # Panics
    /// Panics if `max_fault_gap < base.per` (a fault smaller than `per` is
    /// not a fault).
    pub fn new(base: ResolvedParams, max_violations: usize, max_fault_gap: Timestamp) -> Self {
        assert!(
            max_fault_gap >= base.per,
            "max_fault_gap ({max_fault_gap}) must be at least per ({})",
            base.per
        );
        Self { base, max_violations, max_fault_gap }
    }

    /// The strict equivalent (zero fault budget).
    pub fn strict(base: ResolvedParams) -> Self {
        Self { base, max_violations: 0, max_fault_gap: base.per }
    }
}

/// Splits `ts` into maximal fault-tolerant periodic runs (greedy).
pub fn relaxed_intervals(ts: &[Timestamp], params: &NoiseParams) -> Vec<PeriodicInterval> {
    debug_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be sorted");
    let mut out = Vec::new();
    let mut iter = ts.iter().copied();
    let Some(first) = iter.next() else { return out };
    let (mut start, mut prev, mut ps) = (first, first, 1usize);
    let mut faults = 0usize;
    for cur in iter {
        let gap = cur - prev;
        if gap <= params.base.per {
            ps += 1;
        } else if gap <= params.max_fault_gap && faults < params.max_violations {
            faults += 1;
            ps += 1;
        } else {
            out.push(PeriodicInterval { start, end: prev, periodic_support: ps });
            start = cur;
            ps = 1;
            faults = 0;
        }
        prev = cur;
    }
    out.push(PeriodicInterval { start, end: prev, periodic_support: ps });
    out
}

/// Fault-tolerant analogue of Algorithm 5: the interesting relaxed
/// intervals when their count reaches `minRec`, `None` otherwise.
pub fn get_relaxed_recurrence(
    ts: &[Timestamp],
    params: &NoiseParams,
) -> Option<Vec<PeriodicInterval>> {
    let mut runs = relaxed_intervals(ts, params);
    runs.retain(|r| r.periodic_support >= params.base.min_ps);
    (runs.len() >= params.base.min_rec).then_some(runs)
}

/// Mines all noise-tolerant recurring patterns of `db` (exact level-wise
/// search; see the module docs for why `Erec` is not applicable).
pub fn mine_relaxed(
    db: &TransactionDb,
    params: &NoiseParams,
) -> (Vec<RecurringPattern>, AprioriStats) {
    let mut stats = AprioriStats::default();
    let mut out: Vec<RecurringPattern> = Vec::new();
    let floor = params.base.min_ps * params.base.min_rec;

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
            if let Some(intervals) = get_relaxed_recurrence(ts, params) {
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
                    if let Some(intervals) = get_relaxed_recurrence(&ts, params) {
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
    use crate::engine::MiningSession;
    use crate::growth::MiningResult;
    use crate::measures::periodic_intervals;
    use rpm_timeseries::{DbBuilder, TransactionDb};

    fn base() -> ResolvedParams {
        ResolvedParams::new(2, 3, 2)
    }

    /// Strict-model oracle, routed through the public engine entry point.
    fn mine_strict(db: &TransactionDb, params: ResolvedParams) -> MiningResult {
        let session = MiningSession::builder().resolved(params).build().expect("valid params");
        session.mine(db).expect("mine").into_result()
    }

    #[test]
    fn zero_budget_equals_strict_model() {
        let ts: Vec<Timestamp> = vec![1, 3, 4, 7, 11, 12, 14, 30, 31, 32];
        let strict = periodic_intervals(&ts, 2);
        let relaxed = relaxed_intervals(&ts, &NoiseParams::strict(base()));
        assert_eq!(strict, relaxed);
    }

    #[test]
    fn one_fault_bridges_a_dropped_event() {
        // A run 1..=10 (gap 1) with the event at 5 dropped: strict splits at
        // the resulting gap of 2 only if per < 2; with per=1 the strict
        // model splits, one fault bridges it.
        let ts: Vec<Timestamp> = vec![1, 2, 3, 4, 6, 7, 8, 9, 10];
        let strict = periodic_intervals(&ts, 1);
        assert_eq!(strict.len(), 2);
        let relaxed = relaxed_intervals(&ts, &NoiseParams::new(ResolvedParams::new(1, 3, 1), 1, 5));
        assert_eq!(relaxed.len(), 1);
        assert_eq!(relaxed[0].periodic_support, 9);
        assert_eq!((relaxed[0].start, relaxed[0].end), (1, 10));
    }

    #[test]
    fn fault_budget_is_per_interval_and_resets() {
        // Two faulty gaps with budget 1: the first is absorbed, the second
        // splits; the new interval gets a fresh budget.
        let ts: Vec<Timestamp> = vec![1, 2, 5, 6, 9, 10, 13, 14];
        let p = NoiseParams::new(ResolvedParams::new(1, 2, 1), 1, 4);
        let runs = relaxed_intervals(&ts, &p);
        // Greedy: [1,2,(fault)5,6] | [9,10,(fault)13,14].
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].periodic_support, 4);
        assert_eq!(runs[1].periodic_support, 4);
    }

    #[test]
    fn oversized_gaps_always_split() {
        let ts: Vec<Timestamp> = vec![1, 2, 100, 101];
        let p = NoiseParams::new(ResolvedParams::new(1, 2, 1), 5, 10);
        let runs = relaxed_intervals(&ts, &p);
        assert_eq!(runs.len(), 2, "a gap of 98 > max_fault_gap=10 must split");
    }

    #[test]
    fn phase_shift_costs_one_fault() {
        // Perfect period 10, but the 4th occurrence slips by 7 (phase
        // shift): …30, 47, 57… — one inter-arrival of 17, rest ≤ 10.
        let ts: Vec<Timestamp> = vec![0, 10, 20, 30, 47, 57, 67, 77];
        let strict = periodic_intervals(&ts, 10);
        assert_eq!(strict.len(), 2);
        let p = NoiseParams::new(ResolvedParams::new(10, 8, 1), 1, 20);
        let relaxed = relaxed_intervals(&ts, &p);
        assert_eq!(relaxed.len(), 1);
        assert_eq!(relaxed[0].periodic_support, 8);
    }

    #[test]
    fn get_relaxed_recurrence_respects_min_rec() {
        let ts: Vec<Timestamp> = vec![1, 2, 3, 50, 51, 52];
        let p = NoiseParams::new(base(), 1, 4);
        let ipis = get_relaxed_recurrence(&ts, &p).expect("two clean runs of 3");
        assert_eq!(ipis.len(), 2);
        let too_strict = NoiseParams::new(ResolvedParams::new(2, 4, 2), 1, 4);
        assert!(get_relaxed_recurrence(&ts, &too_strict).is_none());
    }

    #[test]
    fn mining_recovers_noise_broken_patterns() {
        // 'x' fires every stamp in [0,30] and [100,130] except two dropped
        // events at 15 and 115. per=1, minPS=25, minRec=2: strict mining
        // sees four sub-25 runs and fails; one fault per interval repairs it.
        let mut b = DbBuilder::new();
        for ts in 0..=30 {
            if ts != 15 {
                b.add_labeled(ts, &["x"]);
            }
        }
        for ts in 100..=130 {
            if ts != 115 {
                b.add_labeled(ts, &["x"]);
            }
        }
        let db = b.build();
        let strict_base = ResolvedParams::new(1, 25, 2);
        let strict = mine_strict(&db, strict_base);
        assert!(strict.patterns.is_empty(), "strict model must miss the noisy pattern");
        let (relaxed, stats) = mine_relaxed(&db, &NoiseParams::new(strict_base, 1, 3));
        assert_eq!(relaxed.len(), 1);
        assert_eq!(relaxed[0].recurrence(), 2);
        assert_eq!(relaxed[0].intervals[0].periodic_support, 30);
        assert_eq!(stats.patterns_found, 1);
    }

    #[test]
    fn relaxed_with_zero_budget_matches_strict_miner() {
        let db = rpm_timeseries::running_example_db();
        let (relaxed, _) = mine_relaxed(&db, &NoiseParams::strict(base()));
        let strict = mine_strict(&db, base());
        assert_eq!(relaxed, strict.patterns);
    }

    #[test]
    #[should_panic(expected = "max_fault_gap")]
    fn fault_gap_below_per_rejected() {
        let _ = NoiseParams::new(base(), 1, 1);
    }
}
