//! The RP-list (paper §4.2.1, Algorithm 1): one database scan computing each
//! item's support and estimated maximum recurrence (`Erec`), then pruning
//! non-candidate items and ordering candidates by descending support.

use rpm_timeseries::{ItemId, TransactionDb};

use crate::checkpoint::PatternCheckpoint;
use crate::measures::ScanSummary;
use crate::params::ResolvedParams;
use crate::pattern::PeriodicInterval;

/// Per-item aggregates collected by the first database scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpListEntry {
    /// The item.
    pub item: ItemId,
    /// `Sup(item)`.
    pub support: usize,
    /// `Erec(item)` — the pruning bound of §4.1.
    pub erec: usize,
}

/// The candidate-item list of RP-growth.
///
/// Candidates (items with `Erec ≥ minRec`) are stored in **descending
/// support order** (ties broken by ascending item id) — the insertion order
/// of the RP-tree. `rank` maps an `ItemId` to its position in that order.
#[derive(Debug, Clone)]
pub struct RpList {
    candidates: Vec<RpListEntry>,
    rank: Vec<Option<u32>>,
    scanned_items: usize,
    /// Per candidate (by rank): its whole-stream scan aggregates and
    /// interesting intervals, read off the per-item state the list was
    /// built from.
    singletons: Vec<(ScanSummary, Vec<PeriodicInterval>)>,
}

impl RpList {
    /// Runs Algorithm 1 over `db`.
    ///
    /// The scan keeps, per item, the timestamp of its last appearance (`idl`)
    /// and the periodic-support of its current sub-database (`ps`), folding
    /// `⌊ps/minPS⌋` into `erec` whenever a gap `> per` closes a sub-database
    /// (lines 7–12), with a final fold after the scan (line 15). That state
    /// machine is [`crate::measures::ScanCheckpoint`], fed here into fresh
    /// per-item states that also record the interesting intervals —
    /// transactions arrive in ascending timestamp order, so this scan sees
    /// exactly the merged singleton ts-list the miner would otherwise
    /// re-derive from the tree, and the miners reuse the result instead
    /// (see [`crate::growth`]).
    pub fn build(db: &TransactionDb, params: ResolvedParams) -> Self {
        let mut states = vec![PatternCheckpoint::default(); db.item_count()];
        for t in db.transactions() {
            for &item in t.items() {
                if let Some(state) = states.get_mut(item.index()) {
                    state.feed(t.timestamp(), params.per, params.min_ps);
                }
            }
        }
        Self::from_states(&states, db.item_count(), params)
    }

    /// The one constructor: prunes and orders the items whose per-item scan
    /// states are `states` (indexed by item id; the incremental miner's
    /// live states, or the fresh ones of [`RpList::build`]), keeping each
    /// candidate's whole-stream measures. `n_items` is the vocabulary size.
    pub(crate) fn from_states(
        states: &[PatternCheckpoint],
        n_items: usize,
        params: ResolvedParams,
    ) -> Self {
        let mut scored: Vec<(RpListEntry, (ScanSummary, Vec<PeriodicInterval>))> = states
            .iter()
            .zip(0u32..)
            .filter(|(state, _)| state.ck.finished(params.min_ps).erec >= params.min_rec)
            .map(|(state, id)| {
                let (summary, intervals) = state.finished(params.min_ps);
                let entry =
                    RpListEntry { item: ItemId(id), support: summary.support, erec: summary.erec };
                (entry, (summary, intervals))
            })
            .collect();
        // Line 16: descending support, deterministic tie-break on item id.
        scored
            .sort_by(|(a, _), (b, _)| b.support.cmp(&a.support).then_with(|| a.item.cmp(&b.item)));
        let (candidates, singletons): (Vec<_>, Vec<_>) = scored.into_iter().unzip();
        let mut rank = vec![None; n_items];
        for (e, r) in candidates.iter().zip(0u32..) {
            if let Some(slot) = rank.get_mut(e.item.index()) {
                *slot = Some(r);
            }
        }
        Self { candidates, rank, scanned_items: n_items, singletons }
    }

    /// The candidate at `rank` measured on its own: its scan aggregates and
    /// interesting intervals, exactly what a merged scan of `TS^item`
    /// yields. `None` only for out-of-range ranks.
    #[inline]
    pub(crate) fn singleton(&self, rank: u32) -> Option<(ScanSummary, &[PeriodicInterval])> {
        self.singletons.get(rank as usize).map(|(s, intervals)| (*s, intervals.as_slice()))
    }

    /// The candidate items in RP-tree insertion order (descending support).
    pub fn candidates(&self) -> &[RpListEntry] {
        &self.candidates
    }

    /// Number of candidate items.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no item survived pruning.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of distinct items seen by the scan (before pruning).
    pub fn scanned_items(&self) -> usize {
        self.scanned_items
    }

    /// The rank of `item` in the candidate order, or `None` if pruned.
    #[inline]
    pub fn rank(&self, item: ItemId) -> Option<u32> {
        self.rank.get(item.index()).copied().flatten()
    }

    /// The item at `rank`.
    ///
    /// # Panics
    /// Panics for out-of-range ranks.
    pub fn item_at(&self, rank: u32) -> ItemId {
        self.candidates[rank as usize].item
    }

    /// Maps a transaction's items to their candidate ranks, sorted ascending
    /// (= the paper's "sort the candidate items in `t` according to the order
    /// of CI", Algorithm 2 line 4). Pruned items are dropped.
    pub fn project(&self, items: &[ItemId]) -> Vec<u32> {
        let mut ranks = Vec::new();
        self.project_into(items, &mut ranks);
        ranks
    }

    /// Allocation-free [`RpList::project`]: clears `out` and fills it with
    /// the ascending candidate ranks of `items`.
    pub fn project_into(&self, items: &[ItemId], out: &mut Vec<u32>) {
        out.clear();
        out.extend(items.iter().filter_map(|&i| self.rank(i)));
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::running_example_db;

    fn running_list() -> (rpm_timeseries::TransactionDb, RpList) {
        let db = running_example_db();
        let list = RpList::build(&db, ResolvedParams::new(2, 3, 2));
        (db, list)
    }

    #[test]
    fn matches_figure_4_final_state() {
        // Figure 4(e)/(f): supports a:8 b:7 c:7 d:6 e:6 f:6 (g pruned, erec=1);
        // erec values a:2 b:2 c:2 d:2 e:2 f:2.
        let (db, list) = running_list();
        let labels: Vec<(&str, usize, usize)> = list
            .candidates()
            .iter()
            .map(|e| (db.items().label(e.item), e.support, e.erec))
            .collect();
        assert_eq!(
            labels,
            vec![("a", 8, 2), ("b", 7, 2), ("c", 7, 2), ("d", 6, 2), ("e", 6, 2), ("f", 6, 2),]
        );
        // Each candidate carries its own measures, rank for rank.
        for (e, r) in list.candidates().iter().zip(0u32..) {
            let ts = db.timestamps_of(&[e.item]);
            let (summary, intervals) = list.singleton(r).unwrap();
            assert_eq!((summary.support, summary.erec), (e.support, e.erec));
            assert_eq!(intervals, crate::measures::interesting_intervals(&ts, 2, 3));
        }
    }

    #[test]
    fn g_is_pruned_as_in_example_11() {
        let (db, list) = running_list();
        let g = db.items().id("g").unwrap();
        assert_eq!(list.rank(g), None);
        assert_eq!(list.len(), 6);
        assert_eq!(list.scanned_items(), 7);
    }

    #[test]
    fn ranks_follow_support_descending_with_id_tiebreak() {
        let (db, list) = running_list();
        let rank_of = |l: &str| list.rank(db.items().id(l).unwrap()).unwrap();
        assert_eq!(rank_of("a"), 0);
        assert_eq!(rank_of("b"), 1); // b and c tie at 7; b has the smaller id
        assert_eq!(rank_of("c"), 2);
        assert_eq!(rank_of("d"), 3);
        assert!(rank_of("e") < rank_of("f"));
        assert_eq!(list.item_at(0), db.items().id("a").unwrap());
    }

    #[test]
    fn project_filters_and_sorts() {
        let (db, list) = running_list();
        // Transaction 1: {a,b,g} → candidate projection {a,b} (Figure 5a).
        let t1 = db.transaction(0);
        let ranks = list.project(t1.items());
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn min_rec_one_keeps_everything_with_occurrences() {
        let db = running_example_db();
        let list = RpList::build(&db, ResolvedParams::new(2, 1, 1));
        assert_eq!(list.len(), 7); // even g qualifies: every run counts

        // An item whose only occurrence is the stream's last transaction has
        // just the open run Algorithm 1 folds at line 15, whatever its
        // periodic-support: with minPS 1 that single run is interesting, so
        // the item is kept with `Erec = Rec = 1`.
        let mut b = TransactionDb::builder();
        for t in db.transactions() {
            let labels: Vec<&str> = t.items().iter().map(|&i| db.items().label(i)).collect();
            b.add_labeled(t.timestamp(), &labels);
        }
        b.add_labeled(30, &["late"]);
        let db = b.build();
        let params = ResolvedParams::new(2, 1, 1);
        let list = RpList::build(&db, params);
        assert_eq!(list.len(), 8);
        let late = list.rank(db.items().id("late").unwrap()).expect("the isolated item is kept");
        let (summary, intervals) = list.singleton(late).unwrap();
        assert_eq!((summary.support, summary.erec, summary.interesting), (1, 1, 1));
        assert_eq!(intervals, [PeriodicInterval { start: 30, end: 30, periodic_support: 1 }]);
    }

    #[test]
    fn strict_params_prune_all() {
        let db = running_example_db();
        let list = RpList::build(&db, ResolvedParams::new(1, 10, 5));
        assert!(list.is_empty());
    }

    #[test]
    fn empty_db_yields_empty_list() {
        let db = rpm_timeseries::TransactionDb::builder().build();
        let list = RpList::build(&db, ResolvedParams::new(2, 1, 1));
        assert!(list.is_empty());
        assert_eq!(list.scanned_items(), 0);
    }
}
