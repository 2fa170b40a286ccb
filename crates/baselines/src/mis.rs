//! Frequent itemset mining with **multiple minimum supports** (Liu, Hsu &
//! Ma, KDD 1999 — the paper's reference \[13\]). This is the classic answer
//! to the rare-item problem the EDBT paper's introduction leans on: one
//! `minSup` either hides rare items or floods the output, so each item gets
//! its own threshold
//!
//! ```text
//! MIS(i) = max(β · sup(i), LS)
//! ```
//!
//! and an itemset must reach the *minimum* MIS of its members. That
//! requirement is not anti-monotone under arbitrary subsets, but the
//! **sorted closure** property holds: with items ordered by ascending MIS,
//! an itemset's governing threshold is the MIS of its first item, and plain
//! support anti-monotonicity applies within each first-item subtree — which
//! is exactly how [`mine_mis`]'s DFS is organised.
//!
//! Contrast with the recurring-pattern model: MIS rescues rare items by
//! lowering their *frequency* bar, while `minPS` rescues them by judging
//! *local periodic density*; the workspace tests show both find the rare
//! planted patterns that a single global threshold misses.

use rpm_timeseries::{intersect_sorted, ItemId, Timestamp, TransactionDb};

/// Parameters of MIS mining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MisParams {
    /// The MIS slope `β ∈ [0, 1]`: each item's threshold is `β` times its
    /// own support (β = 1 makes every single item frequent; β = 0 reduces
    /// to a single `minSup = LS`).
    pub beta: f64,
    /// The floor `LS` (least support, absolute count).
    pub least_support: usize,
}

impl MisParams {
    /// Creates parameters.
    ///
    /// # Panics
    /// Panics unless `0 ≤ beta ≤ 1` and `least_support ≥ 1`.
    pub fn new(beta: f64, least_support: usize) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        assert!(least_support >= 1, "LS must be at least 1");
        Self { beta, least_support }
    }

    /// The threshold assigned to an item of support `sup`.
    pub fn mis(&self, sup: usize) -> usize {
        ((self.beta * sup as f64).floor() as usize).max(self.least_support)
    }
}

/// A discovered itemset with its governing threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisPattern {
    /// Items, sorted by id.
    pub items: Vec<ItemId>,
    /// `Sup(X)`.
    pub support: usize,
    /// `min_{i∈X} MIS(i)` — the threshold the itemset had to beat.
    pub threshold: usize,
}

/// Mines all itemsets with `Sup(X) ≥ min MIS` via the sorted-closure DFS.
pub fn mine_mis(db: &TransactionDb, params: &MisParams) -> Vec<MisPattern> {
    let item_ts = db.item_timestamp_lists();
    // Order items by (MIS, id) ascending; precompute thresholds.
    let mut order: Vec<(usize, ItemId, usize)> = item_ts
        .iter()
        .enumerate()
        .filter(|(_, ts)| !ts.is_empty())
        .map(|(idx, ts)| (params.mis(ts.len()), ItemId(idx as u32), ts.len()))
        .collect();
    order.sort_unstable();

    let mut out: Vec<MisPattern> = Vec::new();
    let mut stack: Vec<ItemId> = Vec::new();
    // DFS anchored at each item in MIS order; within the subtree of anchor
    // `a` the governing threshold is MIS(a), and Sup is anti-monotone.
    fn dfs(
        anchor_mis: usize,
        from: usize,
        order: &[(usize, ItemId, usize)],
        ts: &[Timestamp],
        item_ts: &[Vec<Timestamp>],
        stack: &mut Vec<ItemId>,
        out: &mut Vec<MisPattern>,
    ) {
        if ts.len() < anchor_mis {
            return;
        }
        out.push(MisPattern {
            items: {
                let mut v = stack.clone();
                v.sort_unstable();
                v
            },
            support: ts.len(),
            threshold: anchor_mis,
        });
        for next in from..order.len() {
            let (_, item, _) = order[next];
            let joined = intersect_sorted(ts, &item_ts[item.index()]);
            if joined.len() < anchor_mis {
                continue;
            }
            stack.push(item);
            dfs(anchor_mis, next + 1, order, &joined, item_ts, stack, out);
            stack.pop();
        }
    }
    for (k, &(mis, item, _)) in order.iter().enumerate() {
        let ts = &item_ts[item.index()];
        stack.push(item);
        dfs(mis, k + 1, &order, ts, &item_ts, &mut stack, &mut out);
        stack.pop();
    }
    out.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then_with(|| a.items.cmp(&b.items)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::DbBuilder;

    /// "bread" in 90 of 100 transactions; "truffle" in 6, always with bread.
    fn skewed_db() -> TransactionDb {
        let mut b = DbBuilder::new();
        for ts in 0..100i64 {
            let mut items = vec!["filler"];
            if ts % 10 != 9 {
                items.push("bread");
            }
            if ts % 17 == 3 {
                items.push("truffle");
                items.push("bread");
            }
            b.add_labeled(ts, &items);
        }
        b.build()
    }

    /// Brute-force oracle over all itemsets.
    fn oracle(db: &TransactionDb, params: &MisParams) -> Vec<MisPattern> {
        let n = db.item_count();
        let sups: Vec<usize> = (0..n).map(|i| db.support(&[ItemId(i as u32)])).collect();
        let mut out = Vec::new();
        for mask in 1u32..(1 << n) {
            let items: Vec<ItemId> =
                (0..n).filter(|i| mask & (1 << i) != 0).map(|i| ItemId(i as u32)).collect();
            let threshold = items.iter().map(|i| params.mis(sups[i.index()])).min().unwrap();
            let support = db.support(&items);
            if support >= threshold && support > 0 {
                out.push(MisPattern { items, support, threshold });
            }
        }
        out.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then_with(|| a.items.cmp(&b.items)));
        out
    }

    #[test]
    fn matches_brute_force_on_skewed_db() {
        let db = skewed_db();
        for (beta, ls) in [(0.5, 3), (0.8, 5), (0.2, 10), (1.0, 1), (0.0, 20)] {
            let params = MisParams::new(beta, ls);
            assert_eq!(
                mine_mis(&db, &params),
                oracle(&db, &params),
                "divergence at beta={beta} LS={ls}"
            );
        }
    }

    #[test]
    fn rare_item_pairs_survive_where_single_minsup_fails() {
        let db = skewed_db();
        // Single minSup = 20 (what bread-level mining would pick): the
        // truffle pair (support 6) is invisible.
        let single = MisParams::new(0.0, 20);
        let pair = {
            let mut v = db.pattern_ids(&["bread", "truffle"]).unwrap();
            v.sort_unstable();
            v
        };
        assert!(!mine_mis(&db, &single).iter().any(|p| p.items == pair));
        // MIS with β=0.8, LS=3: truffle's threshold is max(⌊0.8·6⌋,3)=4 ≤ 6.
        let mis = MisParams::new(0.8, 3);
        let found = mine_mis(&db, &mis);
        let p = found.iter().find(|p| p.items == pair).expect("pair found under MIS");
        assert_eq!(p.support, 6);
        assert_eq!(p.threshold, 4);
        // …and bread alone still needs its own high bar (72), so no flood
        // of bread-with-everything noise at low absolute supports.
        let bread = db.pattern_ids(&["bread"]).unwrap();
        let bread_pat = found.iter().find(|p| p.items == bread).unwrap();
        assert_eq!(bread_pat.threshold, mis.mis(db.support(&bread)));
    }

    #[test]
    fn beta_zero_is_single_minsup() {
        let db = skewed_db();
        let params = MisParams::new(0.0, 7);
        let mined = mine_mis(&db, &params);
        assert!(mined.iter().all(|p| p.threshold == 7));
        assert!(mined.iter().all(|p| p.support >= 7));
    }

    #[test]
    fn governing_threshold_is_min_member_mis() {
        let db = skewed_db();
        let params = MisParams::new(0.9, 2);
        for p in mine_mis(&db, &params) {
            let expected = p.items.iter().map(|&i| params.mis(db.support(&[i]))).min().unwrap();
            assert_eq!(p.threshold, expected);
        }
    }

    #[test]
    fn empty_db() {
        let db = DbBuilder::new().build();
        assert!(mine_mis(&db, &MisParams::new(0.5, 1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn beta_out_of_range() {
        let _ = MisParams::new(1.5, 1);
    }
}
