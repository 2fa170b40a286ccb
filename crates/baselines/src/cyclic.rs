//! Cyclic itemset mining in the style of Özden, Ramaswamy & Silberschatz,
//! *"Cyclic association rules"* (ICDE 1998) — the paper's reference \[2\],
//! which its §2 calls "quite restrictive in finding the patterns that are
//! present at every cycle".
//!
//! Time is cut into fixed-length *units*; an itemset is frequent-in-unit
//! when its in-unit support reaches `minSup`. The itemset is **cyclic**
//! with cycle `(length, offset)` when it is frequent in *every* unit
//! `offset, offset + length, offset + 2·length, …`. That universal
//! quantifier is precisely what recurring patterns relax: a seasonal
//! pattern present most winters but skipping one is cyclic-invisible yet
//! recurring-discoverable (tested in the workspace integration suite).

use rpm_core::Threshold;
use rpm_timeseries::{ItemId, Timestamp, TransactionDb};

/// Parameters of cyclic itemset mining.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclicParams {
    /// Length of one time unit in timestamp units.
    pub unit: Timestamp,
    /// Minimum in-unit support (absolute, or fraction of the unit's
    /// transaction count).
    pub min_sup: Threshold,
    /// Cycle lengths to test, in units (e.g. `[7]` for weekly cycles over
    /// daily units). Offsets `0..length` are all tested.
    pub cycle_lengths: Vec<usize>,
}

impl CyclicParams {
    /// Creates parameters.
    ///
    /// # Panics
    /// Panics if `unit <= 0` or `cycle_lengths` is empty or contains 0.
    pub fn new(unit: Timestamp, min_sup: Threshold, cycle_lengths: Vec<usize>) -> Self {
        assert!(unit > 0, "unit must be positive");
        assert!(
            !cycle_lengths.is_empty() && cycle_lengths.iter().all(|&l| l > 0),
            "cycle lengths must be positive"
        );
        Self { unit, min_sup, cycle_lengths }
    }
}

/// A discovered cyclic itemset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclicPattern {
    /// Items, sorted by id.
    pub items: Vec<ItemId>,
    /// Cycle length in units.
    pub cycle_length: usize,
    /// Cycle offset in `0..cycle_length`.
    pub offset: usize,
    /// Number of units the cycle visits.
    pub cycle_units: usize,
}

/// Mines all cyclic 1- and 2-itemsets of `db` (the original's focus is on
/// rules between small itemsets; larger sets follow by the same principle
/// but explode combinatorially under the per-unit counting).
///
/// Returns the patterns plus the number of complete units examined.
pub fn mine_cyclic(db: &TransactionDb, params: &CyclicParams) -> (Vec<CyclicPattern>, usize) {
    let Some((start, end)) = db.time_span() else {
        return (Vec::new(), 0);
    };
    let n_units = ((end - start + 1) / params.unit) as usize;
    if n_units == 0 {
        return (Vec::new(), 0);
    }

    // Pass 1: per-unit transaction counts and per-unit item supports.
    let n_items = db.item_count();
    let mut unit_txns = vec![0usize; n_units];
    let mut item_unit_support = vec![vec![0u32; n_units]; n_items];
    // 2-itemset supports are collected sparsely per unit.
    let mut pair_unit_support: std::collections::HashMap<(ItemId, ItemId), Vec<u32>> =
        std::collections::HashMap::new();
    for t in db.transactions() {
        let unit = ((t.timestamp() - start) / params.unit) as usize;
        if unit >= n_units {
            break;
        }
        unit_txns[unit] += 1;
        for &i in t.items() {
            item_unit_support[i.index()][unit] += 1;
        }
        for (a_pos, &a) in t.items().iter().enumerate() {
            for &b in &t.items()[a_pos + 1..] {
                pair_unit_support.entry((a, b)).or_insert_with(|| vec![0; n_units])[unit] += 1;
            }
        }
    }

    // Frequency bitmaps: frequent_in_unit[u] per candidate itemset.
    let thresholds: Vec<usize> = unit_txns.iter().map(|&n| params.min_sup.resolve(n)).collect();
    let freq_bitmap = |per_unit: &[u32]| -> Vec<bool> {
        per_unit
            .iter()
            .zip(&thresholds)
            .zip(&unit_txns)
            .map(|((&s, &th), &n)| n > 0 && (s as usize) >= th)
            .collect()
    };

    let mut out = Vec::new();
    let mut emit = |items: Vec<ItemId>, bitmap: &[bool]| {
        for &len in &params.cycle_lengths {
            if len > n_units {
                continue;
            }
            for offset in 0..len {
                let mut units = 0usize;
                let mut ok = true;
                let mut u = offset;
                while u < n_units {
                    if !bitmap[u] {
                        ok = false;
                        break;
                    }
                    units += 1;
                    u += len;
                }
                if ok && units > 0 {
                    out.push(CyclicPattern {
                        items: items.clone(),
                        cycle_length: len,
                        offset,
                        cycle_units: units,
                    });
                }
            }
        }
    };

    for (idx, per_unit) in item_unit_support.iter().enumerate() {
        let bitmap = freq_bitmap(per_unit);
        if bitmap.iter().any(|&b| b) {
            emit(vec![ItemId(idx as u32)], &bitmap);
        }
    }
    let mut pairs: Vec<_> = pair_unit_support.into_iter().collect();
    pairs.sort_by_key(|((a, b), _)| (*a, *b));
    for ((a, b), per_unit) in pairs {
        let bitmap = freq_bitmap(&per_unit);
        if bitmap.iter().any(|&b| b) {
            emit(vec![a, b], &bitmap);
        }
    }
    (out, n_units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::DbBuilder;

    /// Daily units of 10 stamps; "coffee" sells every morning, "report"
    /// only on even days.
    fn weekly_db() -> TransactionDb {
        let mut b = DbBuilder::new();
        for day in 0..8i64 {
            for slot in 0..3 {
                let ts = day * 10 + slot;
                if day % 2 == 0 {
                    b.add_labeled(ts, &["coffee", "report"]);
                } else {
                    b.add_labeled(ts, &["coffee"]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn every_unit_pattern_has_cycle_length_one() {
        let db = weekly_db();
        let params = CyclicParams::new(10, Threshold::Fraction(0.9), vec![1, 2]);
        let (pats, units) = mine_cyclic(&db, &params);
        assert_eq!(units, 7, "span 0..=72 holds 7 complete units of 10");
        let coffee = db.items().id("coffee").unwrap();
        assert!(pats
            .iter()
            .any(|p| p.items == vec![coffee] && p.cycle_length == 1 && p.offset == 0));
    }

    #[test]
    fn alternating_pattern_is_cyclic_at_length_two_offset_zero() {
        let db = weekly_db();
        let report = db.items().id("report").unwrap();
        let params = CyclicParams::new(10, Threshold::Fraction(0.9), vec![1, 2]);
        let (pats, _) = mine_cyclic(&db, &params);
        let report_cycles: Vec<(usize, usize)> = pats
            .iter()
            .filter(|p| p.items == vec![report])
            .map(|p| (p.cycle_length, p.offset))
            .collect();
        assert!(report_cycles.contains(&(2, 0)), "{report_cycles:?}");
        assert!(!report_cycles.contains(&(1, 0)));
        assert!(!report_cycles.contains(&(2, 1)));
    }

    #[test]
    fn pairs_are_mined() {
        let db = weekly_db();
        let pair = {
            let mut v = db.pattern_ids(&["coffee", "report"]).unwrap();
            v.sort_unstable();
            v
        };
        let params = CyclicParams::new(10, Threshold::Fraction(0.9), vec![2]);
        let (pats, _) = mine_cyclic(&db, &params);
        assert!(pats.iter().any(|p| p.items == pair && p.cycle_length == 2));
    }

    #[test]
    fn one_missed_cycle_kills_the_pattern() {
        // "promo" fires on days 0,2,6 (misses day 4): not cyclic at (2,0) —
        // the restriction the EDBT paper criticises.
        let mut b = DbBuilder::new();
        for day in 0..8i64 {
            for slot in 0..3 {
                let ts = day * 10 + slot;
                b.add_labeled(ts, &["filler"]);
                if day % 2 == 0 && day != 4 {
                    b.add_labeled(ts, &["promo"]);
                }
            }
        }
        let db = b.build();
        let promo = db.items().id("promo").unwrap();
        let params = CyclicParams::new(10, Threshold::Fraction(0.9), vec![2]);
        let (pats, _) = mine_cyclic(&db, &params);
        assert!(!pats.iter().any(|p| p.items == vec![promo]));
        // …while the recurring-pattern model happily reports its three
        // periodic stretches (days 0, 2 and 6, each a run of 3 slots).
        let rp = rpm_core::engine::MiningSession::builder()
            .resolved(rpm_core::ResolvedParams::new(10, 3, 2))
            .build()
            .unwrap()
            .mine(&db)
            .unwrap()
            .into_result();
        let promo_pat = rp
            .patterns
            .iter()
            .find(|p| p.items == vec![promo])
            .expect("recurring model finds the imperfect cycle");
        assert_eq!(promo_pat.recurrence(), 3);
    }

    #[test]
    fn empty_and_short_databases() {
        let db = DbBuilder::new().build();
        let params = CyclicParams::new(10, Threshold::Count(1), vec![1]);
        assert_eq!(mine_cyclic(&db, &params), (Vec::new(), 0));
        let mut b = DbBuilder::new();
        b.add_labeled(0, &["x"]);
        let tiny = b.build();
        let (pats, units) =
            mine_cyclic(&tiny, &CyclicParams::new(10, Threshold::Count(1), vec![1]));
        assert_eq!(units, 0, "span of 1 stamp has no complete 10-stamp unit");
        assert!(pats.is_empty());
    }

    #[test]
    #[should_panic(expected = "cycle lengths")]
    fn zero_cycle_length_rejected() {
        let _ = CyclicParams::new(10, Threshold::Count(1), vec![0]);
    }
}
