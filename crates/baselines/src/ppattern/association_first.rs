//! The **association-first** p-pattern algorithm (Ma & Hellerstein §4.1):
//! first mine frequent itemsets by plain support, then filter by periodic
//! support. Complete but slower than periodic-first — the frequent phase
//! cannot exploit periodicity, which is why the EDBT paper benchmarks
//! against periodic-first. Implemented for completeness and used by the
//! baseline benches to demonstrate the gap.

use rpm_timeseries::{intersect_sorted, ItemId, Timestamp, TransactionDb};

use super::model::{instances, periodic_support, PPattern, PPatternParams};
use super::periodic_first::PPatternStats;

/// Mines all p-patterns with the association-first strategy: Apriori on
/// plain support with threshold `minSup` (a valid superset search, since an
/// instance list with `k` periodic gaps has at least `k + 1` instances),
/// followed by the periodic-support filter.
pub fn mine_association_first(
    db: &TransactionDb,
    params: &PPatternParams,
    limit: Option<usize>,
) -> (Vec<PPattern>, PPatternStats) {
    let min_sup = params.min_sup.resolve(db.len());
    let mut stats = PPatternStats::default();
    let mut out: Vec<PPattern> = Vec::new();

    // A pattern with pSup ≥ minSup has at least minSup + 1 instances.
    let freq_threshold = min_sup + 1;

    let item_ts = db.item_timestamp_lists();
    let mut level: Vec<(Vec<ItemId>, Vec<Timestamp>)> = Vec::new();
    let mut evaluated = 0usize;
    for (idx, ts) in item_ts.iter().enumerate() {
        if ts.is_empty() {
            continue;
        }
        evaluated += 1;
        let id = ItemId(idx as u32);
        let ts = if params.window == 1 { ts.clone() } else { instances(db, &[id], params.window) };
        if ts.len() >= freq_threshold {
            emit_if_periodic(&mut out, vec![id], &ts, params, min_sup);
            level.push((vec![id], ts));
        }
    }
    stats.candidates_per_level.push(evaluated);

    while level.len() > 1 && !hit_limit(&out, limit, &mut stats) {
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
                let ts = if params.window == 1 {
                    intersect_sorted(a_ts, b_ts)
                } else {
                    instances(db, &items, params.window)
                };
                evaluated += 1;
                if ts.len() >= freq_threshold {
                    emit_if_periodic(&mut out, items.clone(), &ts, params, min_sup);
                    next.push((items, ts));
                }
            }
        }
        if evaluated > 0 {
            stats.candidates_per_level.push(evaluated);
        }
        level = next;
        if hit_limit(&out, limit, &mut stats) {
            break;
        }
    }

    out.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then_with(|| a.items.cmp(&b.items)));
    stats.patterns_found = out.len();
    (out, stats)
}

fn emit_if_periodic(
    out: &mut Vec<PPattern>,
    items: Vec<ItemId>,
    ts: &[Timestamp],
    params: &PPatternParams,
    min_sup: usize,
) {
    let psup = periodic_support(ts, params.period);
    if psup >= min_sup {
        out.push(PPattern { items, support: ts.len(), periodic_support: psup });
    }
}

fn hit_limit(out: &[PPattern], limit: Option<usize>, stats: &mut PPatternStats) -> bool {
    if limit.is_some_and(|l| out.len() >= l) {
        stats.truncated = true;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppattern::periodic_first::mine_periodic_first;
    use rpm_core::Threshold;
    use rpm_timeseries::running_example_db;

    #[test]
    fn agrees_with_periodic_first_on_running_example() {
        let db = running_example_db();
        for min_sup in 1..=6 {
            let params = PPatternParams::new(2, Threshold::Count(min_sup), 1);
            let (a, _) = mine_periodic_first(&db, &params, None);
            let (b, _) = mine_association_first(&db, &params, None);
            assert_eq!(a, b, "divergence at minSup={min_sup}");
        }
    }

    #[test]
    fn association_first_explores_at_least_as_many_candidates() {
        // The frequent phase cannot prune on periodicity, so its candidate
        // counts dominate periodic-first's — the reason the EDBT paper picks
        // periodic-first as the comparator.
        let db = running_example_db();
        let params = PPatternParams::new(1, Threshold::Count(3), 1);
        let (_, sp) = mine_periodic_first(&db, &params, None);
        let (_, sa) = mine_association_first(&db, &params, None);
        let total = |s: &PPatternStats| s.candidates_per_level.iter().sum::<usize>();
        assert!(total(&sa) >= total(&sp));
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::builder().build();
        let params = PPatternParams::new(2, Threshold::Count(1), 1);
        let (pats, stats) = mine_association_first(&db, &params, None);
        assert!(pats.is_empty());
        assert!(!stats.truncated);
    }
}
