//! The measures of the recurring-pattern model (paper Definitions 3–9) and
//! the `Erec` pruning bound (§4.1), implemented as single streaming passes
//! over sorted timestamp lists.

use rpm_timeseries::Timestamp;

use crate::params::ResolvedParams;
use crate::pattern::PeriodicInterval;

/// Splits `TS^X` into its **maximal periodic runs**: maximal subsequences of
/// consecutive timestamps whose gaps are all `≤ per` (Definition 5). Every
/// timestamp belongs to exactly one run; an isolated timestamp forms a
/// singleton run `[ts, ts]` with periodic-support 1.
///
/// `ts` must be sorted ascending (checked in debug builds).
pub fn periodic_intervals(ts: &[Timestamp], per: Timestamp) -> Vec<PeriodicInterval> {
    debug_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be sorted");
    let mut out = Vec::new();
    let mut iter = ts.iter().copied();
    let Some(first) = iter.next() else { return out };
    let mut start = first;
    let mut prev = first;
    let mut ps = 1usize;
    for cur in iter {
        if cur - prev <= per {
            ps += 1;
        } else {
            out.push(PeriodicInterval { start, end: prev, periodic_support: ps });
            start = cur;
            ps = 1;
        }
        prev = cur;
    }
    out.push(PeriodicInterval { start, end: prev, periodic_support: ps });
    out
}

/// The **interesting** periodic-intervals of `TS^X`: maximal runs whose
/// periodic-support reaches `min_ps` (Definition 7).
pub fn interesting_intervals(
    ts: &[Timestamp],
    per: Timestamp,
    min_ps: usize,
) -> Vec<PeriodicInterval> {
    let mut runs = periodic_intervals(ts, per);
    runs.retain(|r| r.periodic_support >= min_ps);
    runs
}

/// `Rec(X)`: the number of interesting periodic-intervals (Definition 8).
pub fn recurrence(ts: &[Timestamp], per: Timestamp, min_ps: usize) -> usize {
    scan_all(ts, per, min_ps).interesting
}

/// `Erec(X) = Σ_i ⌊ps_i / minPS⌋` — the estimated maximum recurrence any
/// superset of `X` can attain (§4.1). `Erec(X) ≥ Rec(X)` (Property 1) and
/// `X ⊆ Y ⇒ Erec(X) ≥ Erec(Y)` (Property 2), so `Erec(X) < minRec` prunes
/// the entire superset lattice of `X`.
pub fn erec(ts: &[Timestamp], per: Timestamp, min_ps: usize) -> usize {
    scan_all(ts, per, min_ps).erec
}

/// One [`ScanCheckpoint`] pass over a sorted timestamp list.
fn scan_all(ts: &[Timestamp], per: Timestamp, min_ps: usize) -> ScanSummary {
    let mut state = ScanCheckpoint::default();
    for &t in ts {
        state.feed(t, per, min_ps);
    }
    state.finished(min_ps)
}

/// Algorithm 5 (`getRecurrence`): scans `TS^X` once, collecting the
/// interesting periodic-intervals, and reports whether `X` is recurring.
/// Returns the intervals when `Rec(X) ≥ min_rec`, `None` otherwise.
pub fn get_recurrence(ts: &[Timestamp], params: ResolvedParams) -> Option<Vec<PeriodicInterval>> {
    debug_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be sorted");
    let mut sub_db: Vec<PeriodicInterval> = Vec::new();
    let mut iter = ts.iter().copied();
    let first = iter.next()?;
    // Line 3–4: first occurrence starts the first sub-database.
    let mut current_ps = 1usize;
    let mut start_ts = first;
    let mut idl = first;
    for ts_cur in iter {
        if ts_cur - idl <= params.per {
            // Line 7: still periodic within the current sub-database.
            current_ps += 1;
        } else {
            // Lines 9–12: close the sub-database, keep it if interesting.
            if current_ps >= params.min_ps {
                sub_db.push(PeriodicInterval {
                    start: start_ts,
                    end: idl,
                    periodic_support: current_ps,
                });
            }
            current_ps = 1;
            start_ts = ts_cur;
        }
        idl = ts_cur;
    }
    // Lines 17–20: flush the final sub-database.
    if current_ps >= params.min_ps {
        sub_db.push(PeriodicInterval { start: start_ts, end: idl, periodic_support: current_ps });
    }
    // Line 21.
    (sub_db.len() >= params.min_rec).then_some(sub_db)
}

/// Aggregates of one pass of Algorithm 1's state machine
/// ([`ScanCheckpoint`]) over an ascending timestamp stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanSummary {
    /// `Sup(X)` — number of timestamps fed.
    pub support: usize,
    /// Number of maximal periodic runs.
    pub runs: usize,
    /// Number of interesting runs (`Rec`).
    pub interesting: usize,
    /// `Erec` pruning bound.
    pub erec: usize,
}

impl ScanSummary {
    /// The run-closing transition, shared by the gap rule and the end of
    /// the stream: folds `⌊ps/minPS⌋` into `Erec` and counts the run, and
    /// an interesting one towards `Rec`, which it returns.
    #[inline(always)]
    fn close(&mut self, run: OpenRun, min_ps: usize) -> Option<PeriodicInterval> {
        self.runs += 1;
        self.erec += run.ps / min_ps;
        (run.ps >= min_ps).then(|| {
            self.interesting += 1;
            PeriodicInterval { start: run.start, end: run.idl, periodic_support: run.ps }
        })
    }
}

/// The still-open (not yet gap-closed) periodic run of a scan — the part of
/// the state machine that a snapshot boundary cuts through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRun {
    /// First timestamp of the open run.
    pub start: Timestamp,
    /// Last timestamp fed (`idl` in Algorithm 1).
    pub idl: Timestamp,
    /// Periodic support accumulated by the open run.
    pub ps: usize,
}

/// The resumable state of Algorithm 1 for one itemset: the closed-run
/// aggregates plus the open run — the `(idl, ps, erec)` record the paper's
/// first scan keeps per item, with `Sup` and `Rec` alongside. Every scan in
/// the crate runs on it: the RP-list build and the incremental miner keep
/// one per item, [`RecurrenceScan`] wraps one per candidate, and the
/// conditional-tree `Erec` bound feeds a bare one. Feeding a suffix into a
/// state taken at a boundary is exactly equivalent to feeding the whole
/// stream from scratch: reading the whole-stream aggregates closes the open
/// run in a copy, so the state itself stays resumable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCheckpoint {
    /// Aggregates over the closed runs (plus total support fed).
    pub summary: ScanSummary,
    /// The open run at the boundary, `None` before the first feed.
    pub open: Option<OpenRun>,
}

impl ScanCheckpoint {
    /// The last timestamp fed before the checkpoint, if any. A resumed scan
    /// must only be fed timestamps strictly greater than this — an equal
    /// timestamp is the same incidence observed again (e.g. the snapshot's
    /// boundary transaction rewritten by a same-timestamp merge).
    pub fn last_fed(&self) -> Option<Timestamp> {
        self.open.map(|o| o.idl)
    }

    /// Algorithm 1 lines 5–12 for the next (ascending) timestamp: extends
    /// the open run when `ts` lies within `per` of `idl`, otherwise closes
    /// it and opens a new one. Returns the closed run when it was
    /// interesting.
    ///
    /// Forced inline: it runs once per merged timestamp in growth's scans, and left to the
    /// compiler, growth ran a third slower on the Twitter sim at `minRec` 3 (2-core host).
    #[inline(always)]
    pub(crate) fn feed(
        &mut self,
        ts: Timestamp,
        per: Timestamp,
        min_ps: usize,
    ) -> Option<PeriodicInterval> {
        self.summary.support += 1;
        if let Some(run) = &mut self.open {
            debug_assert!(ts >= run.idl, "timestamps must arrive in ascending order");
            if ts - run.idl <= per {
                run.idl = ts;
                run.ps += 1;
                return None;
            }
        }
        let closed = self.open.replace(OpenRun { start: ts, idl: ts, ps: 1 });
        closed.and_then(|run| self.summary.close(run, min_ps))
    }

    /// Line 15: closes the open run at the end of the stream, whatever its
    /// periodic-support, and returns it when it was interesting.
    #[inline]
    pub(crate) fn finish(&mut self, min_ps: usize) -> Option<PeriodicInterval> {
        self.open.take().and_then(|run| self.summary.close(run, min_ps))
    }

    /// The aggregates [`ScanCheckpoint::finish`] would report, leaving this
    /// state resumable.
    #[inline(always)]
    pub(crate) fn finished(&self, min_ps: usize) -> ScanSummary {
        let mut summary = self.summary;
        if let Some(run) = self.open {
            summary.close(run, min_ps);
        }
        summary
    }
}

/// A reusable scanner that fuses Algorithm 5 (`getRecurrence`) into a single
/// streaming pass: a [`ScanCheckpoint`] plus the parameters and a buffer
/// that **collects the interesting periodic-intervals** as runs close, so
/// the mining hot path can decide emission (`interesting ≥ minRec` ⇔
/// `getRecurrence` succeeds) and produce the pattern's intervals without
/// ever materializing the merged ts-list. `reset` clears all state but
/// keeps the interval buffer's capacity — one `RecurrenceScan` serves a
/// whole mining run.
#[derive(Debug, Clone)]
pub struct RecurrenceScan {
    per: Timestamp,
    min_ps: usize,
    state: ScanCheckpoint,
    intervals: Vec<PeriodicInterval>,
}

impl Default for RecurrenceScan {
    fn default() -> Self {
        Self { per: 0, min_ps: 1, state: ScanCheckpoint::default(), intervals: Vec::new() }
    }
}

impl RecurrenceScan {
    /// Creates an idle scanner; call [`RecurrenceScan::reset`] before feeding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms the scanner for a new candidate without releasing buffers.
    pub fn reset(&mut self, per: Timestamp, min_ps: usize) {
        debug_assert!(min_ps >= 1, "minPS is at least 1 by definition");
        self.per = per;
        self.min_ps = min_ps.max(1);
        self.state = ScanCheckpoint::default();
        self.intervals.clear();
    }

    /// Feeds the next (ascending) timestamp.
    #[inline(always)]
    pub fn feed(&mut self, ts: Timestamp) {
        if let Some(interval) = self.state.feed(ts, self.per, self.min_ps) {
            self.intervals.push(interval);
        }
    }

    /// Closes the final run and returns the aggregates. The collected
    /// intervals stay available via [`RecurrenceScan::intervals`] until the
    /// next `reset`.
    pub fn finish(&mut self) -> ScanSummary {
        if let Some(interval) = self.state.finish(self.min_ps) {
            self.intervals.push(interval);
        }
        self.state.summary
    }

    /// The interesting periodic-intervals collected since the last
    /// [`RecurrenceScan::reset`]; after [`RecurrenceScan::finish`] all of
    /// them (`intervals().len() == summary.interesting`).
    pub fn intervals(&self) -> &[PeriodicInterval] {
        &self.intervals
    }

    /// Captures the resumable state of the scan. Must be called **before**
    /// [`RecurrenceScan::finish`] — finishing closes the open run, after
    /// which the state can no longer be continued.
    pub fn checkpoint(&self) -> ScanCheckpoint {
        self.state
    }

    /// Allocated capacity in bytes (for scratch-memory accounting).
    pub fn capacity_bytes(&self) -> usize {
        self.intervals.capacity() * std::mem::size_of::<PeriodicInterval>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS_AB: &[Timestamp] = &[1, 3, 4, 7, 11, 12, 14];

    #[test]
    fn periodic_intervals_match_paper_example_5() {
        // per=2 ⇒ TS^{ab} splits into {1,3,4}, {7}, {11,12,14}.
        let runs = periodic_intervals(TS_AB, 2);
        assert_eq!(
            runs,
            vec![
                PeriodicInterval { start: 1, end: 4, periodic_support: 3 },
                PeriodicInterval { start: 7, end: 7, periodic_support: 1 },
                PeriodicInterval { start: 11, end: 14, periodic_support: 3 },
            ]
        );
    }

    #[test]
    fn interesting_intervals_match_paper_example_7() {
        // minPS=3 keeps pi1 and pi3, drops pi2.
        let runs = interesting_intervals(TS_AB, 2, 3);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].start, runs[0].end), (1, 4));
        assert_eq!((runs[1].start, runs[1].end), (11, 14));
    }

    #[test]
    fn recurrence_matches_paper_example_8() {
        assert_eq!(recurrence(TS_AB, 2, 3), 2);
    }

    #[test]
    fn erec_matches_paper_example_11() {
        // TS^g = {1,5,6,7,12,14}: runs {1},{5,6,7},{12,14} ⇒ ⌊1/3⌋+⌊3/3⌋+⌊2/3⌋ = 1.
        let ts_g: &[Timestamp] = &[1, 5, 6, 7, 12, 14];
        assert_eq!(erec(ts_g, 2, 3), 1);
    }

    #[test]
    fn erec_upper_bounds_recurrence_property_1() {
        for min_ps in 1..=4 {
            for per in 1..=5 {
                assert!(
                    erec(TS_AB, per, min_ps) >= recurrence(TS_AB, per, min_ps),
                    "violated at per={per} min_ps={min_ps}"
                );
            }
        }
    }

    #[test]
    fn get_recurrence_returns_intervals_when_recurring() {
        let params = ResolvedParams::new(2, 3, 2);
        let ipis = get_recurrence(TS_AB, params).expect("ab is recurring");
        assert_eq!(ipis.len(), 2);
        assert_eq!(ipis[0].periodic_support, 3);
        assert_eq!((ipis[1].start, ipis[1].end), (11, 14));
    }

    #[test]
    fn get_recurrence_rejects_non_recurring() {
        // TS^c = {2,4,5,7,9,10,12} is one long run ⇒ Rec=1 < minRec=2 (Example 10).
        let ts_c: &[Timestamp] = &[2, 4, 5, 7, 9, 10, 12];
        let params = ResolvedParams::new(2, 3, 2);
        assert!(get_recurrence(ts_c, params).is_none());
        // …but with minRec=1 it qualifies with the single interval [2,12].
        let params1 = ResolvedParams::new(2, 3, 1);
        let ipis = get_recurrence(ts_c, params1).unwrap();
        assert_eq!(ipis, vec![PeriodicInterval { start: 2, end: 12, periodic_support: 7 }]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let params = ResolvedParams::new(2, 1, 1);
        assert!(get_recurrence(&[], params).is_none());
        let single = get_recurrence(&[5], params).unwrap();
        assert_eq!(single, vec![PeriodicInterval { start: 5, end: 5, periodic_support: 1 }]);
        assert!(periodic_intervals(&[], 2).is_empty());
        assert_eq!(erec(&[], 2, 1), 0);
        assert_eq!(recurrence(&[], 2, 1), 0);
    }

    #[test]
    fn min_ps_one_counts_every_run() {
        let ts: &[Timestamp] = &[1, 2, 10, 20, 21, 22];
        // per=1 ⇒ runs {1,2},{10},{20,21,22}; minPS=1 ⇒ all interesting.
        assert_eq!(recurrence(ts, 1, 1), 3);
        assert_eq!(erec(ts, 1, 1), 6); // Σ⌊ps/1⌋ = total support
                                       // An isolated last occurrence is a run of its own, and Algorithm 1
                                       // line 15 folds the open run whatever its periodic-support. (A
                                       // transcription that folds it only when ps > 1 would report Rec 3
                                       // and Erec 6 here.)
        let isolated_last: &[Timestamp] = &[1, 2, 10, 20, 21, 22, 30];
        assert_eq!(recurrence(isolated_last, 1, 1), 4);
        assert_eq!(erec(isolated_last, 1, 1), 7);
        assert_eq!(
            interesting_intervals(isolated_last, 1, 1).last(),
            Some(&PeriodicInterval { start: 30, end: 30, periodic_support: 1 })
        );
    }

    /// The aggregates recomputed from the run split of Definition 5 — an
    /// oracle independent of the streaming state machine.
    fn oracle_summary(ts: &[Timestamp], per: Timestamp, min_ps: usize) -> ScanSummary {
        let runs = periodic_intervals(ts, per);
        ScanSummary {
            support: ts.len(),
            runs: runs.len(),
            interesting: runs.iter().filter(|r| r.periodic_support >= min_ps).count(),
            erec: runs.iter().map(|r| r.periodic_support / min_ps).sum(),
        }
    }

    #[test]
    fn scan_summary_combines_all_measures() {
        let s = scan_all(TS_AB, 2, 3);
        assert_eq!(s, ScanSummary { support: 7, runs: 3, interesting: 2, erec: 2 });
        assert_eq!(s, oracle_summary(TS_AB, 2, 3));
    }

    #[test]
    fn streaming_matches_batch_on_incremental_feed() {
        let mut state = ScanCheckpoint::default();
        for &t in TS_AB {
            state.feed(t, 2, 2);
        }
        let s = state.finished(2);
        assert_eq!(s, oracle_summary(TS_AB, 2, 2));
        assert_eq!(s.interesting, recurrence(TS_AB, 2, 2));
        assert_eq!(s.erec, erec(TS_AB, 2, 2));
    }

    #[test]
    fn recurrence_scan_matches_get_recurrence() {
        let mut scan = RecurrenceScan::new();
        for (per, min_ps) in [(2, 3), (1, 1), (3, 2), (2, 1)] {
            scan.reset(per, min_ps);
            for &t in TS_AB {
                scan.feed(t);
            }
            let summary = scan.finish();
            assert_eq!(summary, oracle_summary(TS_AB, per, min_ps));
            assert_eq!(scan.intervals().len(), summary.interesting);
            assert_eq!(scan.intervals(), interesting_intervals(TS_AB, per, min_ps));
            // Emission decision equals Algorithm 5 for every minRec.
            for min_rec in 1..=4 {
                let params = ResolvedParams::new(per, min_ps, min_rec);
                match get_recurrence(TS_AB, params) {
                    Some(ipis) => {
                        assert!(summary.interesting >= min_rec);
                        assert_eq!(scan.intervals(), ipis);
                    }
                    None => assert!(summary.interesting < min_rec),
                }
            }
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_scan_at_every_split() {
        // Cutting the stream at any boundary and continuing from the
        // checkpoint must reproduce the uninterrupted scan bit for bit —
        // the invariant suffix-resumable delta mining rests on. Reading the
        // whole-stream aggregates at the cut must not disturb the state.
        for (per, min_ps) in [(2, 3), (1, 1), (3, 2), (2, 1)] {
            let mut whole = RecurrenceScan::new();
            whole.reset(per, min_ps);
            for &t in TS_AB {
                whole.feed(t);
            }
            let expect = whole.finish();
            for cut in 0..=TS_AB.len() {
                let mut prefix = RecurrenceScan::new();
                prefix.reset(per, min_ps);
                for &t in &TS_AB[..cut] {
                    prefix.feed(t);
                }
                let mut ck = prefix.checkpoint();
                assert_eq!(ck.last_fed(), TS_AB[..cut].last().copied());
                assert_eq!(ck.finished(min_ps), oracle_summary(&TS_AB[..cut], per, min_ps));
                let mut all = prefix.intervals().to_vec();
                for &t in &TS_AB[cut..] {
                    all.extend(ck.feed(t, per, min_ps));
                }
                assert_eq!(ck.finished(min_ps), expect, "per={per} min_ps={min_ps} cut={cut}");
                all.extend(ck.finish(min_ps));
                assert_eq!(ck.summary, expect);
                assert_eq!(all, interesting_intervals(TS_AB, per, min_ps));
            }
        }
    }

    #[test]
    fn duplicate_timestamps_stay_in_one_run() {
        // Duplicate stamps (gap 0 ≤ per) must never split a run.
        let ts: &[Timestamp] = &[1, 1, 2];
        let runs = periodic_intervals(ts, 1);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].periodic_support, 3);
    }
}
