//! Top-k recurring pattern queries.
//!
//! Threshold mining answers "everything above the bar"; analysts usually
//! want "the strongest k". This module ranks a mining result by a chosen
//! interestingness key, breaking ties deterministically by (length, items).

use crate::pattern::RecurringPattern;

/// Ranking keys for top-k selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Highest recurrence first — the most often *re*-appearing seasonality.
    Recurrence,
    /// Highest support first — the most prevalent pattern.
    Support,
    /// Largest total periodic-support over all interesting intervals —
    /// the most sustained periodic behaviour.
    PeriodicCoverage,
    /// Longest pattern first — the richest association.
    Length,
}

impl RankBy {
    fn key(self, p: &RecurringPattern) -> usize {
        match self {
            RankBy::Recurrence => p.recurrence(),
            RankBy::Support => p.support,
            RankBy::PeriodicCoverage => p.intervals.iter().map(|iv| iv.periodic_support).sum(),
            RankBy::Length => p.len(),
        }
    }
}

/// Selects the top `k` patterns from `patterns` by `rank`, ordered best
/// first. Stable and deterministic: ties break by shorter-then-smaller item
/// lists.
pub fn top_k(patterns: &[RecurringPattern], k: usize, rank: RankBy) -> Vec<RecurringPattern> {
    let mut ranked: Vec<&RecurringPattern> = patterns.iter().collect();
    ranked.sort_by(|a, b| {
        rank.key(b)
            .cmp(&rank.key(a))
            .then_with(|| a.items.len().cmp(&b.items.len()))
            .then_with(|| a.items.cmp(&b.items))
    });
    ranked.into_iter().take(k).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::RpGrowth;
    use crate::params::RpParams;
    use rpm_timeseries::running_example_db;

    fn mined() -> (rpm_timeseries::TransactionDb, Vec<RecurringPattern>) {
        let db = running_example_db();
        let patterns = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db).patterns;
        (db, patterns)
    }

    #[test]
    fn top_by_support_is_item_a() {
        let (db, patterns) = mined();
        let top = top_k(&patterns, 1, RankBy::Support);
        assert_eq!(db.items().pattern_string(&top[0].items), "{a}");
        assert_eq!(top[0].support, 8);
    }

    #[test]
    fn top_by_length_prefers_pairs() {
        let (_, patterns) = mined();
        let top = top_k(&patterns, 3, RankBy::Length);
        assert!(top.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn coverage_ranks_a_first_ties_break_deterministically() {
        let (db, patterns) = mined();
        // 'a' covers 4+3=7 periodic appearances; everything else 6.
        let top = top_k(&patterns, 3, RankBy::PeriodicCoverage);
        assert_eq!(db.items().pattern_string(&top[0].items), "{a}");
        // Ties at 6: shortest-then-smallest ⇒ {b} before {d}.
        assert_eq!(db.items().pattern_string(&top[1].items), "{b}");
        assert_eq!(db.items().pattern_string(&top[2].items), "{d}");
    }

    #[test]
    fn k_larger_than_set_returns_everything_ranked() {
        let (_, patterns) = mined();
        let top = top_k(&patterns, 100, RankBy::Recurrence);
        assert_eq!(top.len(), patterns.len());
        let keys: Vec<usize> = top.iter().map(|p| p.recurrence()).collect();
        assert!(keys.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn zero_k_is_empty() {
        let (_, patterns) = mined();
        assert!(top_k(&patterns, 0, RankBy::Support).is_empty());
    }
}
