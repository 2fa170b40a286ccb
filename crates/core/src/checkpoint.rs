//! Suffix-resumable scan states — what lets the delta miner re-measure a
//! dirty candidate in O(|appended tail|) instead of O(|posting list|).
//!
//! The paper's measures are computed by a single left-to-right scan of
//! `TS^X` (Algorithm 1's state machine, [`ScanCheckpoint`]), and appends can
//! only extend the suffix of any occurrence stream, so the scan state at a
//! boundary — the closed-run aggregates, the open run's `(start, idl, ps)`,
//! the support count — plus the interesting intervals closed so far is
//! everything needed to continue without revisiting the prefix
//! ([`PatternCheckpoint`]). There is one such state per item, kept live by
//! the [`IncrementalMiner`] as transactions are appended: the RP-list and
//! the delta planner read every singleton's whole-stream measures from it.
//! [`crate::PatternStore`] holds only the multi-item states, as a resume
//! cache. A full mine fills that cache with the states its own scans reached
//! for every emitted multi-item pattern (taken before `finish`, see
//! [`PatternCheckpoint::before_finish`]); each delta mine adds the states of
//! the candidates it examined. A cache miss is never unsound:
//! [`cooccurrence_ts`] rebuilds the candidate's full timestamp list by
//! intersecting its members' postings and the scan starts from an empty
//! state.

use rpm_timeseries::{ItemId, Timestamp};

use crate::incremental::IncrementalMiner;
use crate::measures::{ScanCheckpoint, ScanSummary};
use crate::pattern::PeriodicInterval;

/// The resumable Algorithm 1 state of one itemset: its [`ScanCheckpoint`]
/// plus the interesting intervals closed so far. The incremental miner keeps
/// one per item, advanced on every append; [`crate::PatternStore`] caches
/// one per multi-item candidate across delta mines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PatternCheckpoint {
    pub ck: ScanCheckpoint,
    /// All interesting intervals closed before the boundary.
    pub intervals: Vec<PeriodicInterval>,
}

impl PatternCheckpoint {
    /// The state of a scan checkpointed as `ck` just before `finish`, whose
    /// finished interval list is `intervals`. Finishing closes only the open
    /// run, so the intervals closed at the checkpoint are the first
    /// `ck.summary.interesting` of the list.
    pub(crate) fn before_finish(ck: ScanCheckpoint, intervals: &[PeriodicInterval]) -> Self {
        let closed = intervals.iter().take(ck.summary.interesting).copied().collect();
        PatternCheckpoint { ck, intervals: closed }
    }

    /// Feeds the itemset's next occurrence. A timestamp at or before the
    /// last fed one is an incidence this state already counted — an item
    /// re-mentioned by a same-timestamp merge, or a snapshot's boundary
    /// transaction reappearing in a delta's tail window — and is skipped.
    #[inline]
    pub(crate) fn feed(&mut self, ts: Timestamp, per: Timestamp, min_ps: usize) {
        if self.ck.last_fed().is_none_or(|last| ts > last) {
            self.intervals.extend(self.ck.feed(ts, per, min_ps));
        }
    }

    /// This state advanced over `feed` (ascending timestamps).
    pub(crate) fn advanced(
        &self,
        per: Timestamp,
        min_ps: usize,
        feed: impl IntoIterator<Item = Timestamp>,
    ) -> Self {
        let mut next = self.clone();
        for ts in feed {
            next.feed(ts, per, min_ps);
        }
        next
    }

    /// The whole-stream measures: the aggregates and every interesting
    /// interval in temporal order, with the open run closed (Algorithm 1
    /// line 15) in a copy, so this state stays resumable.
    pub(crate) fn finished(&self, min_ps: usize) -> (ScanSummary, Vec<PeriodicInterval>) {
        let mut ck = self.ck;
        let last = ck.finish(min_ps);
        let mut intervals = Vec::with_capacity(self.intervals.len() + 1);
        intervals.extend_from_slice(&self.intervals);
        intervals.extend(last);
        (ck.summary, intervals)
    }
}

/// One entry of the store's resume cache: a multi-item candidate's sorted
/// item set and its resumable state.
pub(crate) type ResumeEntry = (Vec<ItemId>, PatternCheckpoint);

/// `TS^X` over the full accumulated stream, rebuilt by intersecting the
/// members' posting lists (smallest list drives, the rest advance by
/// galloping binary search). The resume-cache miss path: exact, but
/// O(min |postings|·|X|·log) instead of O(|tail|).
pub(crate) fn cooccurrence_ts(miner: &IncrementalMiner, items: &[ItemId]) -> Vec<Timestamp> {
    debug_assert!(!items.is_empty());
    let mut lists: Vec<&[u32]> = items.iter().map(|&i| miner.postings(i)).collect();
    lists.sort_by_key(|l| l.len());
    let (driver, rest) = lists.split_first().expect("non-empty item set");
    let mut cursors = vec![0usize; rest.len()];
    let mut out = Vec::new();
    'next: for &tx in *driver {
        for (list, cur) in rest.iter().zip(cursors.iter_mut()) {
            *cur += list[*cur..].partition_point(|&x| x < tx);
            if list.get(*cur) != Some(&tx) {
                continue 'next;
            }
        }
        out.push(miner.db().transaction(tx as usize).timestamp());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::RecurrenceScan;
    use crate::params::ResolvedParams;

    #[test]
    fn cooccurrence_intersection_matches_naive_scan() {
        let mut miner = IncrementalMiner::new(ResolvedParams::new(2, 1, 1));
        let mut rng = rpm_timeseries::prng::Pcg32::seed_from_u64(11);
        let mut ts = 0;
        for _ in 0..120 {
            ts += rng.random_range(1..3i64);
            let labels: Vec<String> =
                (0..4).filter(|_| rng.random_f64() < 0.5).map(|i| format!("i{i}")).collect();
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            if !refs.is_empty() {
                miner.append(ts, &refs).unwrap();
            }
        }
        let ids: Vec<ItemId> =
            (0..4).filter_map(|i| miner.db().items().id(&format!("i{i}"))).collect();
        for a in 0..ids.len() {
            for b in a..ids.len() {
                let set = if a == b { vec![ids[a]] } else { vec![ids[a], ids[b]] };
                let got = cooccurrence_ts(&miner, &set);
                let naive: Vec<Timestamp> = miner
                    .db()
                    .transactions()
                    .iter()
                    .filter(|t| set.iter().all(|i| t.items().contains(i)))
                    .map(|t| t.timestamp())
                    .collect();
                assert_eq!(got, naive, "set {set:?}");
            }
        }
    }

    #[test]
    fn live_item_states_equal_a_fresh_scan_of_the_item() {
        // The miner's per-item state, advanced append by append (including
        // same-timestamp merges that re-mention an item), must be exactly
        // what a fresh scan of the item's timestamps reaches: the same
        // resumable state before `finish`, the same measures after.
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        for ts in 0..50i64 {
            let mut labels = vec!["a"];
            if ts % 3 == 0 {
                labels.push("b");
            }
            if ts % 11 == 0 {
                labels.push("c");
            }
            miner.append(ts, &labels).unwrap();
            if ts % 7 == 0 {
                miner.append(ts, &["b"]).unwrap();
            }
        }
        assert_eq!(miner.len(), 50, "the merges did not grow the stream");
        let mut scan = RecurrenceScan::new();
        for idx in 0..miner.db().item_count() {
            let item = ItemId(idx as u32);
            let live = miner.item_state(item).expect("every item was appended");
            scan.reset(params.per, params.min_ps);
            for t in miner.db().timestamps_of(&[item]) {
                scan.feed(t);
            }
            assert_eq!(live.ck, scan.checkpoint(), "item {idx}");
            assert_eq!(live.intervals, scan.intervals(), "item {idx}");
            let (summary, intervals) = live.finished(params.min_ps);
            assert_eq!(summary, scan.finish(), "item {idx}");
            assert_eq!(intervals, scan.intervals(), "item {idx}");
        }
    }
}
