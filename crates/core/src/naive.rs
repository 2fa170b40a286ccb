//! Reference miners used as correctness oracles and for the pruning
//! ablation (DESIGN.md A1/A2):
//!
//! * [`brute_force`] — depth-first enumeration of every itemset occurring in
//!   the database, no pruning beyond emptiness. Exponential; only for small
//!   test databases.
//! * [`apriori_rp`] — level-wise candidate generation driven by the paper's
//!   `Erec` bound (candidate patterns *are* anti-monotone, Definition 11).
//! * [`apriori_support_only`] — the same level-wise search but pruned only
//!   by the weaker, `Erec`-free bound `Sup(X) ≥ minPS · minRec` (any
//!   recurring pattern has at least `minRec` disjoint intervals of at least
//!   `minPS` timestamps each). Quantifies what the `Erec` bound buys.

use rpm_timeseries::{ItemId, Timestamp, TransactionDb};

use crate::measures::{erec, get_recurrence};
use crate::params::ResolvedParams;
use crate::pattern::{canonical_order, RecurringPattern};

/// Work counters for the level-wise miners.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AprioriStats {
    /// Candidates evaluated at each level (index 0 = 1-itemsets).
    pub candidates_per_level: Vec<usize>,
    /// Patterns emitted.
    pub patterns_found: usize,
}

impl AprioriStats {
    /// Total candidates evaluated across all levels.
    pub fn total_candidates(&self) -> usize {
        self.candidates_per_level.iter().sum()
    }
}

/// Intersects two sorted timestamp lists. The oracle keeps its own copy of
/// `rpm_timeseries::intersect_sorted`, so it shares no code with the miners
/// it checks.
fn intersect(a: &[Timestamp], b: &[Timestamp]) -> Vec<Timestamp> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Exhaustively enumerates all recurring patterns by depth-first extension
/// over item ids, intersecting timestamp lists. No `Erec` pruning: branches
/// are cut only when the timestamp list becomes empty, so the output is a
/// ground-truth oracle for the other miners.
///
/// # Panics
/// Panics if the database has more than 24 distinct items, as a guard
/// against accidental exponential blow-up in tests.
pub fn brute_force(db: &TransactionDb, params: ResolvedParams) -> Vec<RecurringPattern> {
    assert!(
        db.item_count() <= 24,
        "brute_force is an oracle for small test databases only ({} items)",
        db.item_count()
    );
    let item_ts = db.item_timestamp_lists();
    let mut out = Vec::new();
    let mut stack_items: Vec<ItemId> = Vec::new();
    fn dfs(
        start: usize,
        ts: &[Timestamp],
        item_ts: &[Vec<Timestamp>],
        stack: &mut Vec<ItemId>,
        params: ResolvedParams,
        out: &mut Vec<RecurringPattern>,
    ) {
        if !stack.is_empty() {
            if let Some(intervals) = get_recurrence(ts, params) {
                out.push(RecurringPattern::new(stack.clone(), ts.len(), intervals));
            }
        }
        for next in start..item_ts.len() {
            let joined = if stack.is_empty() {
                item_ts[next].clone()
            } else {
                intersect(ts, &item_ts[next])
            };
            if joined.is_empty() {
                continue;
            }
            stack.push(ItemId(next as u32));
            dfs(next + 1, &joined, item_ts, stack, params, out);
            stack.pop();
        }
    }
    dfs(0, &[], &item_ts, &mut stack_items, params, &mut out);
    canonical_order(&mut out);
    out
}

/// Level-wise mining with the paper's candidate definition (Definition 11):
/// a pattern is extended only while `Erec ≥ minRec`. Because candidates are
/// anti-monotone (Property 2), the search is complete.
pub fn apriori_rp(
    db: &TransactionDb,
    params: ResolvedParams,
) -> (Vec<RecurringPattern>, AprioriStats) {
    level_wise(db, params, Prune::Erec)
}

/// Level-wise mining pruned only by `Sup(X) ≥ minPS · minRec` — a valid but
/// much weaker anti-monotone bound that does not use the paper's `Erec`
/// technique. Exists solely to measure the value of `Erec` pruning.
pub fn apriori_support_only(
    db: &TransactionDb,
    params: ResolvedParams,
) -> (Vec<RecurringPattern>, AprioriStats) {
    level_wise(db, params, Prune::SupportOnly)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Prune {
    Erec,
    SupportOnly,
}

fn survives(ts: &[Timestamp], params: ResolvedParams, prune: Prune) -> bool {
    match prune {
        Prune::Erec => erec(ts, params.per, params.min_ps) >= params.min_rec,
        Prune::SupportOnly => ts.len() >= params.min_ps * params.min_rec,
    }
}

fn level_wise(
    db: &TransactionDb,
    params: ResolvedParams,
    prune: Prune,
) -> (Vec<RecurringPattern>, AprioriStats) {
    let mut stats = AprioriStats::default();
    let mut out: Vec<RecurringPattern> = Vec::new();

    // Level 1.
    let item_ts = db.item_timestamp_lists();
    let mut level: Vec<(Vec<ItemId>, Vec<Timestamp>)> = Vec::new();
    let mut evaluated = 0usize;
    for (idx, ts) in item_ts.iter().enumerate() {
        if ts.is_empty() {
            continue;
        }
        evaluated += 1;
        if survives(ts, params, prune) {
            let items = vec![ItemId(idx as u32)];
            if let Some(intervals) = get_recurrence(ts, params) {
                out.push(RecurringPattern::new(items.clone(), ts.len(), intervals));
            }
            level.push((items, ts.clone()));
        }
    }
    stats.candidates_per_level.push(evaluated);

    // Levels k+1: join candidates sharing a (k-1)-prefix.
    while level.len() > 1 {
        let mut next: Vec<(Vec<ItemId>, Vec<Timestamp>)> = Vec::new();
        let mut evaluated = 0usize;
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let (a_items, a_ts) = &level[i];
                let (b_items, b_ts) = &level[j];
                let k = a_items.len();
                if a_items[..k - 1] != b_items[..k - 1] {
                    // Candidates are sorted; once prefixes diverge no later j
                    // can match.
                    break;
                }
                let mut items = a_items.clone();
                items.push(b_items[k - 1]);
                let ts = intersect(a_ts, b_ts);
                if ts.is_empty() {
                    continue;
                }
                evaluated += 1;
                if survives(&ts, params, prune) {
                    if let Some(intervals) = get_recurrence(&ts, params) {
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
    use rpm_timeseries::{running_example_db, TransactionDb};

    fn params() -> ResolvedParams {
        ResolvedParams::new(2, 3, 2)
    }

    #[test]
    fn brute_force_reproduces_table_2() {
        let db = running_example_db();
        let got = brute_force(&db, params());
        let labels: Vec<String> = got.iter().map(|p| db.items().pattern_string(&p.items)).collect();
        assert_eq!(labels, vec!["{a}", "{b}", "{d}", "{e}", "{f}", "{a,b}", "{c,d}", "{e,f}"]);
    }

    #[test]
    fn apriori_rp_matches_brute_force_on_running_example() {
        let db = running_example_db();
        let (got, stats) = apriori_rp(&db, params());
        assert_eq!(got, brute_force(&db, params()));
        assert_eq!(stats.patterns_found, 8);
        assert!(stats.candidates_per_level[0] == 7);
    }

    #[test]
    fn support_only_pruning_matches_output_but_does_more_work() {
        let db = running_example_db();
        let (a, sa) = apriori_rp(&db, params());
        let (b, sb) = apriori_support_only(&db, params());
        assert_eq!(a, b, "both searches are complete");
        assert!(
            sb.total_candidates() >= sa.total_candidates(),
            "Erec must never explore more than the support-only bound"
        );
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[3, 4, 5, 9]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<Timestamp>::new());
        assert_eq!(intersect(&[2, 4], &[2, 4]), vec![2, 4]);
    }

    #[test]
    fn brute_force_guards_against_large_alphabets() {
        let mut b = TransactionDb::builder();
        let labels: Vec<String> = (0..30).map(|i| format!("i{i}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        b.add_labeled(1, &refs);
        let db = b.build();
        let r = std::panic::catch_unwind(|| brute_force(&db, ResolvedParams::new(1, 1, 1)));
        assert!(r.is_err());
    }

    #[test]
    fn empty_db_yields_nothing() {
        let db = TransactionDb::builder().build();
        assert!(brute_force(&db, params()).is_empty());
        let (p, s) = apriori_rp(&db, params());
        assert!(p.is_empty());
        assert_eq!(s.total_candidates(), 0);
    }
}
