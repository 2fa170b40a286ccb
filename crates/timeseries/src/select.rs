//! Database selection utilities: time slicing, item projection, and the
//! sorted-list intersection that selects a pattern's occurrences.
//!
//! Downstream analyses constantly need "the same database, restricted" —
//! a discovered periodic-interval re-examined in isolation, one season
//! compared against another, or a vocabulary cut down to the items under
//! study. These helpers produce proper [`TransactionDb`]s so every miner
//! runs on the restriction unchanged.

use std::ops::RangeInclusive;

use crate::database::TransactionDb;
use crate::item::ItemId;
use crate::timestamp::Timestamp;
use crate::transaction::Transaction;

/// Returns the sub-database whose timestamps fall inside `range`
/// (inclusive). Item ids and labels are preserved.
pub fn slice_time(db: &TransactionDb, range: RangeInclusive<Timestamp>) -> TransactionDb {
    let lo = db.transactions().partition_point(|t| t.timestamp() < *range.start());
    let hi = db.transactions().partition_point(|t| t.timestamp() <= *range.end());
    let mut out = TransactionDb::builder().build();
    *out.items_mut() = db.items().clone();
    for t in &db.transactions()[lo..hi] {
        out.append(t.timestamp(), t.items().to_vec()).expect("slice preserves order");
    }
    out
}

/// Returns the database restricted to `keep` items: every transaction is
/// intersected with `keep`, and emptied transactions disappear (as in the
/// paper's candidate-item projections, §4.2).
pub fn project_items(db: &TransactionDb, keep: &[ItemId]) -> TransactionDb {
    let mut mask = vec![false; db.item_count()];
    for &i in keep {
        if i.index() < mask.len() {
            mask[i.index()] = true;
        }
    }
    let mut out = TransactionDb::builder().build();
    *out.items_mut() = db.items().clone();
    for t in db.transactions() {
        let kept: Vec<ItemId> = t.items().iter().copied().filter(|i| mask[i.index()]).collect();
        if !kept.is_empty() {
            out.append(t.timestamp(), kept).expect("projection preserves order");
        }
    }
    out
}

/// Splits the database at timestamp `at`: transactions with `ts < at` go
/// left, the rest right. Useful for before/after comparisons around a
/// discovered interval boundary.
pub fn split_at(db: &TransactionDb, at: Timestamp) -> (TransactionDb, TransactionDb) {
    let idx = db.transactions().partition_point(|t| t.timestamp() < at);
    let rebuild = |txns: &[Transaction]| {
        let mut out = TransactionDb::builder().build();
        *out.items_mut() = db.items().clone();
        for t in txns {
            out.append(t.timestamp(), t.items().to_vec()).expect("order preserved");
        }
        out
    };
    (rebuild(&db.transactions()[..idx]), rebuild(&db.transactions()[idx..]))
}

/// The elements common to two ascending lists, ascending: the timestamps
/// (or transaction ordinals) at which both of two itemsets occur. One merge
/// pass, O(|a| + |b|). An element repeated in both lists is kept as often as
/// the list with fewer copies holds it.
pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::running_example_db;

    #[test]
    fn slice_selects_the_first_interval_of_ab() {
        let db = running_example_db();
        let season = slice_time(&db, 1..=4);
        assert_eq!(season.len(), 4);
        let ab = season.pattern_ids(&["a", "b"]).unwrap();
        assert_eq!(season.timestamps_of(&ab), vec![1, 3, 4]);
        // Labels survive the slice.
        assert_eq!(season.items().label(ab[0]), "a");
    }

    #[test]
    fn slice_bounds_are_inclusive_and_clamping() {
        let db = running_example_db();
        assert_eq!(slice_time(&db, 14..=14).len(), 1);
        assert_eq!(slice_time(&db, -100..=100).len(), db.len());
        assert!(slice_time(&db, 100..=200).is_empty());
        assert!(slice_time(&db, 8..=8).is_empty(), "ts 8 has no transaction");
    }

    #[test]
    fn projection_mirrors_candidate_projection() {
        let db = running_example_db();
        let keep = db.pattern_ids(&["e", "f"]).unwrap();
        let proj = project_items(&db, &keep);
        // e/f appear at 3,5,6,10,11,12 — six transactions survive.
        assert_eq!(proj.len(), 6);
        for t in proj.transactions() {
            assert!(t.len() <= 2);
        }
        let ef = proj.pattern_ids(&["e", "f"]).unwrap();
        assert_eq!(proj.timestamps_of(&ef), db.timestamps_of(&keep));
    }

    #[test]
    fn projection_with_foreign_ids_is_safe() {
        let db = running_example_db();
        let proj = project_items(&db, &[ItemId(999)]);
        assert!(proj.is_empty());
    }

    #[test]
    fn intersect_sorted_merges_ascending_lists() {
        let empty: [u32; 0] = [];
        assert!(intersect_sorted(&empty, &empty).is_empty());
        assert!(intersect_sorted(&[1u32, 2], &empty).is_empty());
        assert!(intersect_sorted(&[1u32, 3, 5], &[2, 4, 6]).is_empty(), "disjoint");
        assert_eq!(intersect_sorted(&[1u32, 2, 2, 2, 7], &[2, 2, 7, 9]), [2, 2, 7], "duplicates");
        let a: [Timestamp; 5] = [-4, 0, 3, 8, 9];
        assert_eq!(intersect_sorted(&a, &[-4, 3, 9, 12]), [-4, 3, 9]);
    }

    #[test]
    fn split_partitions_everything() {
        let db = running_example_db();
        let (left, right) = split_at(&db, 7);
        assert_eq!(left.len() + right.len(), db.len());
        assert!(left.transactions().iter().all(|t| t.timestamp() < 7));
        assert!(right.transactions().iter().all(|t| t.timestamp() >= 7));
        let (all_left, empty) = split_at(&db, 1000);
        assert_eq!(all_left.len(), db.len());
        assert!(empty.is_empty());
    }
}
