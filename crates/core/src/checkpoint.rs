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
//! the [`crate::IncrementalMiner`] as transactions are appended: the
//! RP-list and the delta planner read every singleton's whole-stream
//! measures from it.
//! [`crate::PatternStore`] holds only the multi-item states, as a resume
//! cache. A full mine fills that cache with the states its own scans reached
//! for every emitted multi-item pattern (taken before `finish`, see
//! [`PatternCheckpoint::before_finish`]); each delta mine adds the states of
//! the candidates it examined. A cache miss is never unsound: the
//! candidate's full timestamp list is rebuilt as the word-wise AND of its
//! members' whole-stream posting bitsets ([`posting_bits`],
//! [`cooccurrence`]) and fed to a fresh state.
//!
//! The miss path's cost model: a bitset holds one bit per transaction, so
//! the AND reads `|X|·⌈n/64⌉` words for a stream of `n` transactions and
//! the scan then feeds `|TS^X|` timestamps. The delta miner builds a
//! frontier candidate's bitset at most once per call, on its first miss,
//! and drops it when the call returns, so a bitset costs one pass over the
//! item's postings and `n/8` bytes for the length of one delta mine
//! (DESIGN.md §8 has the measured cost).

use rpm_timeseries::{ItemId, Timestamp, TransactionDb};

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

/// The transactions containing an item, as a bitset over a stream of `len`
/// transactions: bit `tx % 64` of word `tx / 64` is set for each of its
/// `postings` (ascending transaction indices, all below `len`).
pub(crate) fn posting_bits(postings: &[u32], len: usize) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for &tx in postings {
        if let Some(word) = words.get_mut(tx as usize / 64) {
            *word |= 1 << (tx % 64);
        }
    }
    words
}

/// `TS^X` over the whole stream: the timestamps, in stream order, of the
/// transactions set in every one of `members` (the posting bitsets of
/// `X`'s items, see [`posting_bits`]). The resume-cache miss path: exact,
/// and O(|X|·n/64 + |TS^X|) instead of O(|tail|).
pub(crate) fn cooccurrence<'a>(
    db: &'a TransactionDb,
    members: &'a [&'a [u64]],
) -> impl Iterator<Item = Timestamp> + 'a {
    let words = members.iter().map(|bits| bits.len()).min().unwrap_or(0);
    (0..words).flat_map(move |w| {
        let mut word = members.iter().fold(!0u64, |acc, bits| acc & bits[w]);
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let tx = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                db.transaction(tx).timestamp()
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalMiner;
    use crate::measures::RecurrenceScan;
    use crate::params::ResolvedParams;

    #[test]
    fn bitset_cooccurrence_equals_the_database_scan() {
        // The miss path's rebuild must be exactly `TS^X`, for every set of
        // one to three items: on streams with same-timestamp merges
        // (`ts += 0..3`), of lengths that are not a multiple of 64, and
        // with an item first seen in the last transactions, so its
        // bitset's leading words are empty.
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(11);
        let mut lengths = Vec::new();
        for _ in 0..12 {
            let mut miner = IncrementalMiner::new(ResolvedParams::new(2, 1, 1));
            let steps = rng.random_range(1..300usize);
            let mut ts = 0;
            for step in 0..steps {
                ts += rng.random_range(0..3i64);
                let mut labels: Vec<String> =
                    (0..5).filter(|_| rng.random_f64() < 0.5).map(|i| format!("i{i}")).collect();
                if step + 3 >= steps {
                    labels.push("late".to_string());
                }
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    miner.append(ts, &refs).unwrap();
                }
            }
            lengths.push(miner.len());
            let n = miner.db().item_count() as u32;
            let bits: Vec<Vec<u64>> =
                (0..n).map(|i| posting_bits(miner.postings(ItemId(i)), miner.len())).collect();
            for a in 0..n {
                for b in a..n {
                    for c in b..n {
                        let mut set = vec![ItemId(a), ItemId(b), ItemId(c)];
                        set.dedup();
                        let members: Vec<&[u64]> =
                            set.iter().map(|i| bits[i.index()].as_slice()).collect();
                        let got: Vec<Timestamp> = cooccurrence(miner.db(), &members).collect();
                        assert_eq!(got, miner.db().timestamps_of(&set), "set {set:?}");
                    }
                }
            }
        }
        assert!(lengths.iter().any(|&n| n > 64 && n % 64 != 0), "lengths {lengths:?}");
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
