//! Suffix-resumable measure checkpoints — the state the delta miner retains
//! so a dirty candidate is re-measured in O(|appended tail|) instead of
//! O(|posting list|).
//!
//! The paper's measures are computed by a single left-to-right scan of
//! `TS^X` ([`RecurrenceScan`]), and appends can only extend the suffix of
//! any occurrence stream, so the scan state at the pre-append boundary —
//! the closed-run aggregates, the open run's `(start, idl, ps)`, the support
//! count — is everything needed to continue the computation without
//! revisiting the prefix ([`ScanCheckpoint`]). [`crate::PatternStore`] keeps
//! one checkpoint per **item** (plus the item's posting-list length at the
//! snapshot, which bounds its dirty tail) and a cache of checkpoints for
//! multi-item candidates. A full mine fills that cache with the states its
//! own scans reached for every emitted multi-item pattern (taken before
//! `finish`, see [`PatternCheckpoint::before_finish`]); each delta mine adds
//! the states of the candidates it examined. A cache miss is never unsound:
//! [`cooccurrence_ts`] rebuilds the candidate's full timestamp list by
//! intersecting its members' postings and the scan starts from an empty
//! checkpoint.

use rpm_timeseries::{ItemId, Timestamp};

use crate::incremental::IncrementalMiner;
use crate::measures::{RecurrenceScan, ScanCheckpoint, ScanSummary};
use crate::pattern::PeriodicInterval;

/// Per-item measure checkpoint at a [`crate::PatternStore`] snapshot: the
/// Erec/Rec scan state at the pre-append boundary plus the interesting
/// intervals closed so far and the posting-list length, so both the
/// singleton measures and the dirty-tail cost model resume in O(1).
#[derive(Debug, Clone, Default)]
pub(crate) struct ItemCheckpoint {
    /// Resumable scan state (last interval endpoint, running recurrence
    /// accumulators, support count).
    pub ck: ScanCheckpoint,
    /// Interesting intervals closed before the boundary.
    pub intervals: Vec<PeriodicInterval>,
    /// Posting-list length at the snapshot — postings beyond it are the
    /// item's dirty tail.
    pub postings_len: usize,
}

/// Resumable state of one multi-item candidate, cached by
/// [`crate::PatternStore`] across delta mines.
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
}

/// One entry of the store's resume cache: a multi-item candidate's sorted
/// item set and its resumable state.
pub(crate) type ResumeEntry = (Vec<ItemId>, PatternCheckpoint);

/// What advancing a checkpointed scan over an appended suffix produced: the
/// finished full-stream measures plus the state to checkpoint for the next
/// delta.
#[derive(Debug, Clone)]
pub(crate) struct ResumeOutcome {
    /// Finished aggregates over the **whole** stream.
    pub summary: ScanSummary,
    /// All interesting intervals of the whole stream, in temporal order.
    pub intervals: Vec<PeriodicInterval>,
    /// Pre-`finish` scan state at the new boundary.
    pub next: ScanCheckpoint,
}

/// Continues a checkpointed scan over `feed` (ascending timestamps) and
/// finishes it. Timestamps `<=` the checkpoint's last fed one are skipped:
/// they are incidences the prefix scan already counted (the snapshot's
/// boundary transaction reappears in the tail window after a same-timestamp
/// merge rewrites it). `prefix_intervals` are the intervals closed before
/// the checkpoint; the outcome splices them ahead of the newly closed ones.
pub(crate) fn advance(
    scan: &mut RecurrenceScan,
    per: Timestamp,
    min_ps: usize,
    prior: ScanCheckpoint,
    prefix_intervals: &[PeriodicInterval],
    feed: impl IntoIterator<Item = Timestamp>,
) -> ResumeOutcome {
    scan.resume(per, min_ps, prior);
    let last = prior.last_fed();
    for ts in feed {
        if last.is_none_or(|l| ts > l) {
            scan.feed(ts);
        }
    }
    let next = scan.checkpoint();
    let summary = scan.finish();
    let mut intervals = Vec::with_capacity(prefix_intervals.len() + scan.intervals().len());
    intervals.extend_from_slice(prefix_intervals);
    intervals.extend_from_slice(scan.intervals());
    ResumeOutcome { summary, intervals, next }
}

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

/// Rebuilds every item's checkpoint from scratch by rescanning its postings
/// — the full-refresh path, O(total incidences). Delta refreshes instead
/// advance only the dirty items' checkpoints via [`advance`].
pub(crate) fn rebuild_item_checkpoints(miner: &IncrementalMiner) -> Vec<ItemCheckpoint> {
    let (per, min_ps) = (miner.params().per, miner.params().min_ps);
    let mut scan = RecurrenceScan::new();
    (0..miner.db().item_count())
        .map(|idx| {
            let item = ItemId(idx as u32);
            scan.reset(per, min_ps);
            for &tx in miner.postings(item) {
                scan.feed(miner.db().transaction(tx as usize).timestamp());
            }
            ItemCheckpoint {
                ck: scan.checkpoint(),
                intervals: scan.intervals().to_vec(),
                postings_len: miner.postings(item).len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn rebuilt_item_checkpoints_agree_with_live_scanners() {
        let mut miner = IncrementalMiner::new(ResolvedParams::new(2, 2, 1));
        for ts in 0..50i64 {
            let mut labels = vec!["a"];
            if ts % 3 == 0 {
                labels.push("b");
            }
            if ts % 11 == 0 {
                labels.push("c");
            }
            miner.append(ts, &labels).unwrap();
        }
        let cks = rebuild_item_checkpoints(&miner);
        assert_eq!(cks.len(), miner.db().item_count());
        for (idx, ck) in cks.iter().enumerate() {
            let item = ItemId(idx as u32);
            // Finishing the checkpointed state must reproduce the live
            // scanner's summary (support, runs, Rec, Erec)…
            let mut scan = RecurrenceScan::new();
            let done = advance(
                &mut scan,
                miner.params().per,
                miner.params().min_ps,
                ck.ck,
                &ck.intervals,
                std::iter::empty(),
            );
            assert_eq!(Some(done.summary), miner.scan_summary(item));
            // …and the postings length is the full list (nothing appended
            // since the rebuild).
            assert_eq!(ck.postings_len, miner.postings(item).len());
            assert_eq!(done.intervals.len(), done.summary.interesting);
        }
    }
}
