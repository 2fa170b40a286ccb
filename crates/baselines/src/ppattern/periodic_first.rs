//! The **periodic-first** p-pattern algorithm (Ma & Hellerstein §4.2): first
//! find the periodic *items*, then grow itemsets level-wise among them. The
//! EDBT paper uses this variant for its Table 8 comparison because it is
//! "relatively faster than the association-first algorithm".

use rpm_core::engine::{AbortReason, RunControl};
use rpm_timeseries::{intersect_sorted, ItemId, Timestamp, TransactionDb};

use super::model::{instances, periodic_support, PPattern, PPatternParams};

/// Work counters of a p-pattern mining run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PPatternStats {
    /// Candidates evaluated per level.
    pub candidates_per_level: Vec<usize>,
    /// Patterns emitted.
    pub patterns_found: usize,
    /// True when mining stopped early because `limit` was reached.
    pub truncated: bool,
}

/// Mines all p-patterns of `db` with the periodic-first strategy.
///
/// `limit`, when set, caps the number of emitted patterns; hitting the cap
/// sets [`PPatternStats::truncated`] so callers can report the cut instead
/// of silently under-counting (low `minSup` values are known to explode
/// combinatorially — that is precisely the paper's criticism of the model).
pub fn mine_periodic_first(
    db: &TransactionDb,
    params: &PPatternParams,
    limit: Option<usize>,
) -> (Vec<PPattern>, PPatternStats) {
    let (patterns, stats, _) =
        mine_periodic_first_controlled(db, params, limit, &RunControl::new());
    (patterns, stats)
}

/// Like [`mine_periodic_first`], under engine control: the level-wise loops
/// poll `control`'s probe per candidate pair, so the bench harness can
/// time-box this baseline exactly like the main miner. A tripped limit
/// returns everything mined so far plus the reason.
pub fn mine_periodic_first_controlled(
    db: &TransactionDb,
    params: &PPatternParams,
    limit: Option<usize>,
    control: &RunControl,
) -> (Vec<PPattern>, PPatternStats, Option<AbortReason>) {
    let min_sup = params.min_sup.resolve(db.len());
    let mut stats = PPatternStats::default();
    let mut out: Vec<PPattern> = Vec::new();
    let mut probe = control.start();
    let mut aborted = false;

    // Phase 1: periodic items.
    let item_ts = db.item_timestamp_lists();
    let mut level: Vec<(Vec<ItemId>, Vec<Timestamp>)> = Vec::new();
    let mut evaluated = 0usize;
    for (idx, ts) in item_ts.iter().enumerate() {
        if ts.is_empty() {
            continue;
        }
        if probe.poll().is_some() {
            aborted = true;
            break;
        }
        evaluated += 1;
        let id = ItemId(idx as u32);
        let ts = if params.window == 1 { ts.clone() } else { instances(db, &[id], params.window) };
        let psup = periodic_support(&ts, params.period);
        if psup >= min_sup {
            out.push(PPattern { items: vec![id], support: ts.len(), periodic_support: psup });
            level.push((vec![id], ts));
        }
    }
    stats.candidates_per_level.push(evaluated);

    // Phase 2: level-wise growth among periodic items. For w = 1 instance
    // lists intersect exactly; for w > 1 they are recomputed per candidate.
    while level.len() > 1 && !aborted {
        if hit_limit(&out, limit) {
            stats.truncated = true;
            break;
        }
        let mut next: Vec<(Vec<ItemId>, Vec<Timestamp>)> = Vec::new();
        let mut evaluated = 0usize;
        'outer: for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                if probe.poll().is_some() {
                    aborted = true;
                    break 'outer;
                }
                let (a_items, a_ts) = &level[i];
                let (b_items, b_ts) = &level[j];
                let k = a_items.len();
                if a_items[..k - 1] != b_items[..k - 1] {
                    break;
                }
                let mut items = a_items.clone();
                items.push(b_items[k - 1]);
                let ts = if params.window == 1 {
                    intersect_sorted(a_ts, b_ts)
                } else {
                    instances(db, &items, params.window)
                };
                if ts.is_empty() {
                    continue;
                }
                evaluated += 1;
                let psup = periodic_support(&ts, params.period);
                if psup >= min_sup {
                    out.push(PPattern {
                        items: items.clone(),
                        support: ts.len(),
                        periodic_support: psup,
                    });
                    next.push((items, ts));
                    if hit_limit(&out, limit) {
                        stats.truncated = true;
                        break 'outer;
                    }
                }
            }
        }
        if evaluated > 0 {
            stats.candidates_per_level.push(evaluated);
        }
        level = next;
    }

    out.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then_with(|| a.items.cmp(&b.items)));
    stats.patterns_found = out.len();
    let reason = if aborted { probe.tripped() } else { None };
    (out, stats, reason)
}

fn hit_limit(out: &[PPattern], limit: Option<usize>) -> bool {
    limit.is_some_and(|l| out.len() >= l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_core::Threshold;
    use rpm_timeseries::running_example_db;

    fn labels(db: &TransactionDb, p: &PPattern) -> String {
        db.items().pattern_string(&p.items)
    }

    #[test]
    fn running_example_with_generous_minsup() {
        let db = running_example_db();
        let params = PPatternParams::new(2, Threshold::Count(4), 1);
        let (pats, stats) = mine_periodic_first(&db, &params, None);
        // pSup at per=2: a:6 (gaps 1,1,1,3,4,1,2 → wait, recompute) …
        // a: {1,2,3,4,7,11,12,14} gaps 1,1,1,3,4,1,2 ⇒ 5 ≤ 2.
        // ab: gaps 2,1,3,4,1,2 ⇒ 4. So both a and ab qualify at minSup=4.
        let names: Vec<String> = pats.iter().map(|p| labels(&db, p)).collect();
        assert!(names.contains(&"{a}".to_string()));
        assert!(names.contains(&"{a,b}".to_string()));
        assert!(!stats.truncated);
        assert_eq!(stats.patterns_found, pats.len());
    }

    #[test]
    fn psup_values_are_reported() {
        let db = running_example_db();
        let params = PPatternParams::new(2, Threshold::Count(4), 1);
        let (pats, _) = mine_periodic_first(&db, &params, None);
        let ab = pats.iter().find(|p| labels(&db, p) == "{a,b}").unwrap();
        assert_eq!(ab.support, 7);
        assert_eq!(ab.periodic_support, 4);
    }

    #[test]
    fn higher_minsup_means_fewer_patterns() {
        let db = running_example_db();
        let count = |min_sup: usize| {
            let params = PPatternParams::new(2, Threshold::Count(min_sup), 1);
            mine_periodic_first(&db, &params, None).0.len()
        };
        assert!(count(1) >= count(3));
        assert!(count(3) >= count(5));
        assert_eq!(count(100), 0);
    }

    #[test]
    fn p_patterns_superset_recurring_patterns_at_matched_thresholds() {
        // The EDBT paper observes that at low minSup, p-patterns include all
        // recurring patterns. With minSup = minPS = 3 appearances, every
        // Table 2 pattern must show up as a p-pattern.
        let db = running_example_db();
        let params = PPatternParams::new(2, Threshold::Count(3), 1);
        let (pats, _) = mine_periodic_first(&db, &params, None);
        let names: Vec<String> = pats.iter().map(|p| labels(&db, p)).collect();
        for expected in ["{a}", "{b}", "{d}", "{e}", "{f}", "{a,b}", "{c,d}", "{e,f}"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        // …and more besides (e.g. {c}), the over-generation the paper dislikes.
        assert!(names.len() > 8);
    }

    #[test]
    fn limit_truncates_and_flags() {
        let db = running_example_db();
        let params = PPatternParams::new(2, Threshold::Count(1), 1);
        let (pats, stats) = mine_periodic_first(&db, &params, Some(3));
        assert!(pats.len() >= 3);
        assert!(stats.truncated);
    }

    #[test]
    fn fractional_minsup_resolves_against_db() {
        let db = running_example_db();
        // 25% of 12 transactions = 3 periodic appearances.
        let params = PPatternParams::new(2, Threshold::Fraction(0.25), 1);
        let (pats, _) = mine_periodic_first(&db, &params, None);
        assert!(!pats.is_empty());
        for p in &pats {
            assert!(p.periodic_support >= 3);
        }
    }
}
