//! Delta mining: suffix-resumable re-measurement of the dirty frontier with
//! a reusable [`PatternStore`].
//!
//! Appending transactions to a stream can only change the patterns whose
//! **every** member item occurs in a touched transaction: a pattern `X`
//! gains a timestamp in `TS^X` only when some appended (or boundary-merged)
//! transaction contains all of `X`. Every other pattern keeps its exact
//! `(support, Rec, intervals)` — and since appending at the end of the
//! series can only extend an item's last periodic run or open a new one,
//! `Rec` is non-decreasing, so previously recurring patterns never leave the
//! result. [`IncrementalMiner::mine_delta`] exploits both facts, plus a
//! third: the measures are computed by a single left-to-right scan, so a
//! scan state taken at the pre-append boundary lets a dirty candidate be
//! re-measured by feeding **only the appended tail** instead of its full
//! posting list (see the `checkpoint` module). A single item needs not even
//! that: the miner keeps its scan state live across appends, so its
//! whole-stream measures are read off directly.
//!
//! 1. derive the **dirty items** — everything occurring in a transaction
//!    appended since the store's snapshot; the snapshot's last (*boundary*)
//!    transaction is also re-checked when its content hash changed, because
//!    a same-timestamp append merges into it instead of growing the stream;
//! 2. enumerate the candidate itemsets that co-occur in the tail window
//!    (ordered set-extension over the dirty candidates' tail postings,
//!    pruned by the exact full-stream `Erec` bound) and re-measure each:
//!    a singleton from the miner's live state, a multi-item set by resuming
//!    the store's cached scan state over the tail — falling back on a
//!    cache miss to a full rescan of the set's transactions, found as the
//!    word-wise AND of its members' posting bitsets, which is exact but
//!    costs O(|X|·n/64 + |TS^X|) instead of O(|tail|);
//! 3. splice every stored pattern the tail never touched, unchanged, and
//!    merge the two canonical-ordered sets. The splice moves those patterns
//!    out of the store (re-measured ones are found by binary search over
//!    its canonical order), and the store's refresh takes the one copy of
//!    the pattern set a delta makes.
//!
//! The output is bit-identical to a batch mine of the full database (the
//! randomized interleaving tests below assert this), while the work is
//! proportional to the appended tail. When the dirty candidates' tail
//! postings grow past [`DELTA_TAIL_BUDGET_PCT`] percent of the database —
//! the append was a sizeable fraction of the whole stream — or the store is
//! cold, was built for different parameters, or describes a different
//! stream, the miner falls back to a full re-mine and refreshes the store.
//! The frontier walk runs on the caller's thread, like the paper's
//! left-to-right pass it resumes: one append's tail is a few milliseconds of
//! work (DESIGN.md §8 has the measurement). Only the full fallback uses
//! the work-stealing regions of [`crate::parallel`]. The miss path's posting
//! bitsets are built lazily, one per candidate on the first miss that needs
//! it, and dropped when the call returns.

use std::cell::OnceCell;
use std::collections::HashMap;

use rpm_timeseries::{intersect_sorted, ItemId};

use crate::checkpoint::{cooccurrence, posting_bits, PatternCheckpoint, ResumeEntry};
use crate::engine::control::{AbortReason, ControlProbe};
use crate::engine::observer::NOOP;
use crate::engine::RunControl;
use crate::growth::{mine_list, MineScratch, MiningResult, MiningStats};
use crate::incremental::IncrementalMiner;
use crate::params::ResolvedParams;
use crate::pattern::{canonical_cmp, canonical_order, RecurringPattern};

/// Fallback threshold of the tail cost model: the delta path re-measures
/// the dirty candidates by scanning their tail postings, so its work is
/// bounded by the sum of dirty-tail lengths. When that sum exceeds this
/// percentage of the database length, the append was a sizeable fraction of
/// the whole stream and a full re-mine is cheaper and more cache-friendly,
/// so [`IncrementalMiner::mine_delta`] falls back. Unlike the pre-checkpoint
/// gate (which summed **full** posting lists and pushed every batch append
/// of common items to a full re-mine), this bound is independent of how
/// frequent the dirty items are in the prefix.
pub const DELTA_TAIL_BUDGET_PCT: usize = 30;

/// Upper bound on retained multi-item scan checkpoints. The resume cache is
/// exactly that — a cache: when it grows past this many entries at a
/// refresh it is cleared, and later misses rebuild states from posting
/// bitsets (exact, just slower).
pub const RESUME_CACHE_MAX: usize = 65536;

/// Why a delta mine fell back to a full re-mine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullReason {
    /// The store has never been refreshed.
    ColdStore,
    /// The store was refreshed under different mining parameters.
    ParamsChanged,
    /// The store's snapshot is not a prefix of this miner's stream.
    StoreMismatch,
    /// The dirty candidates' tail postings exceeded
    /// [`DELTA_TAIL_BUDGET_PCT`] of the database.
    FrontierExceeded,
}

impl std::fmt::Display for FullReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FullReason::ColdStore => write!(f, "cold store"),
            FullReason::ParamsChanged => write!(f, "params changed"),
            FullReason::StoreMismatch => write!(f, "store mismatch"),
            FullReason::FrontierExceeded => write!(f, "frontier exceeded"),
        }
    }
}

/// Which path a [`IncrementalMiner::mine_delta`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaMode {
    /// The stream is unchanged since the snapshot: the stored result was
    /// returned without mining anything.
    Unchanged,
    /// Dirty-frontier re-measurement: only the tail-touched candidates were
    /// re-measured and the clean patterns spliced from the store.
    Delta,
    /// Full batch re-mine.
    Full(FullReason),
}

impl DeltaMode {
    /// Whether the call avoided a full re-mine (delta or no-op path).
    pub fn is_delta(self) -> bool {
        matches!(self, DeltaMode::Unchanged | DeltaMode::Delta)
    }
}

/// What one delta-mine call did — the observability record the server
/// folds into `/v1/metrics`.
#[derive(Debug, Clone, Copy)]
pub struct DeltaStats {
    /// The path taken.
    pub mode: DeltaMode,
    /// Transactions appended since the snapshot, plus the snapshot's
    /// boundary transaction when a same-timestamp merge rewrote it.
    pub touched_transactions: usize,
    /// Distinct items in the touched transactions.
    pub dirty_items: usize,
    /// Dirty items that are candidates (`Erec >= minRec`) on the current
    /// stream — the frontier actually re-measured.
    pub dirty_candidates: usize,
    /// Sum of the dirty candidates' tail posting lengths — the delta
    /// re-measurement's work bound and the cost model's input.
    pub reachable_transactions: usize,
    /// Patterns spliced unchanged from the store.
    pub retained_patterns: usize,
    /// Patterns recomputed by frontier re-measurement.
    pub remined_patterns: usize,
    /// Tail-window transactions the delta path actually scanned (0 unless
    /// the mode is [`DeltaMode::Delta`]).
    pub tail_transactions: usize,
    /// Candidate re-measurements that continued a scan state instead of
    /// rebuilding one: a multi-item candidate resumed from the store's
    /// cache (the remainder were rebuilt from posting bitsets), or a
    /// singleton whose item occurs before the tail window, measured by the
    /// miner's live per-item state.
    pub checkpoint_hits: usize,
}

impl DeltaStats {
    fn new(mode: DeltaMode) -> Self {
        DeltaStats {
            mode,
            touched_transactions: 0,
            dirty_items: 0,
            dirty_candidates: 0,
            reachable_transactions: 0,
            retained_patterns: 0,
            remined_patterns: 0,
            tail_transactions: 0,
            checkpoint_hits: 0,
        }
    }
}

/// A reusable snapshot of the last complete mining result of one stream,
/// in canonical order so [`IncrementalMiner::mine_delta`] can move the
/// patterns untouched by an append into its result, plus the **resume
/// cache** that makes re-measuring a dirty multi-item candidate O(|appended
/// tail|): per candidate, the Erec/Rec scan state at the snapshot boundary
/// (open run, closed-run aggregates, support count, closed intervals). A
/// full mine hands the store the states its own scans reached for every
/// multi-item pattern it emitted, and each delta mine adds those of the
/// candidates it examined; a candidate with no stored state is re-measured
/// by a full rescan of its transactions, found from posting bitsets.
/// Single items need no entry: the miner keeps their scan states live.
///
/// A store is bound to the stream that refreshed it by a chained prefix
/// hash; feeding it to a different miner (or one whose history diverged) is
/// detected and answered with a sound full re-mine, never a wrong splice.
#[derive(Debug, Clone, Default)]
pub struct PatternStore {
    params: Option<ResolvedParams>,
    /// Stream length at snapshot time.
    base_len: usize,
    /// Chained hash of the immutable prefix `transactions[0..base_len-1]`
    /// (the boundary transaction is excluded: a same-timestamp append may
    /// still rewrite it).
    prefix_hash: u64,
    /// Chained hash of the full snapshot `transactions[0..base_len]`.
    full_hash: u64,
    /// The snapshot's patterns in canonical order, which is what lets a
    /// delta find a re-measured pattern by binary search.
    patterns: Vec<RecurringPattern>,
    stats: MiningStats,
    /// Resumable scan states of multi-item candidates: every pattern the
    /// last full mine emitted, plus every candidate a delta mine since then
    /// examined (emitted or not). A cache: misses rebuild the state from
    /// posting bitsets.
    resume: HashMap<Vec<ItemId>, PatternCheckpoint>,
}

impl PatternStore {
    /// An empty (cold) store. The first [`IncrementalMiner::mine_delta`]
    /// against it runs a full mine and warms it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the store holds a snapshot.
    pub fn is_warm(&self) -> bool {
        self.params.is_some()
    }

    /// The parameters of the retained snapshot, if warm.
    pub fn params(&self) -> Option<ResolvedParams> {
        self.params
    }

    /// Stream length (transactions) of the retained snapshot.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// The retained patterns, in canonical order.
    pub fn patterns(&self) -> &[RecurringPattern] {
        &self.patterns
    }

    /// Number of resumable scan states the store caches (multi-item only;
    /// right after a full mine, one per multi-item pattern) — observability
    /// for tests and the serving layer.
    pub fn checkpoint_count(&self) -> usize {
        self.resume.len()
    }

    /// Takes a completed mine as the new snapshot: the header, the store's
    /// one copy of the patterns, and the resume states the mine produced.
    /// After a full mine (`full`) these replace the cache: they are exactly
    /// the states growth's own scans reached for the emitted multi-item
    /// patterns, so the very next delta already resumes instead of
    /// intersecting. After a delta they are the examined candidates' new
    /// states, installed over the untouched entries.
    fn refresh(
        &mut self,
        miner: &IncrementalMiner,
        result: &MiningResult,
        states: Vec<ResumeEntry>,
        full: bool,
    ) {
        self.params = Some(miner.params());
        self.base_len = miner.len();
        self.prefix_hash = miner.prefix_hash_at(self.base_len.saturating_sub(1));
        self.full_hash = miner.prefix_hash_at(self.base_len);
        self.patterns.clone_from(&result.patterns);
        self.stats = result.stats;
        if full {
            self.resume.clear();
        }
        self.resume.extend(states);
        if !full && self.resume.len() > RESUME_CACHE_MAX {
            self.resume.clear();
        }
    }
}

/// The resolved shape of one delta-mine call, computed without mining.
struct Plan {
    mode: DeltaMode,
    touched: usize,
    dirty: Vec<ItemId>,
    /// `(candidate item, start of its tail window in its postings)`.
    candidates: Vec<(ItemId, usize)>,
    /// Sum of the candidates' tail posting lengths — the cost model input.
    tail_work: usize,
}

impl Plan {
    fn bare(mode: DeltaMode) -> Self {
        Plan { mode, touched: 0, dirty: Vec::new(), candidates: Vec::new(), tail_work: 0 }
    }

    fn stats(&self) -> DeltaStats {
        DeltaStats {
            touched_transactions: self.touched,
            dirty_items: self.dirty.len(),
            dirty_candidates: self.candidates.len(),
            reachable_transactions: self.tail_work,
            ..DeltaStats::new(self.mode)
        }
    }
}

impl IncrementalMiner {
    /// Classifies what a [`IncrementalMiner::mine_delta`] against `store`
    /// would do, in O(touched transactions + dirty items): the append path
    /// of a serving layer uses this to decide whether patching a cached
    /// result in place is cheap before committing to it.
    pub fn delta_applicable(&self, store: &PatternStore) -> bool {
        !matches!(self.delta_plan(store).mode, DeltaMode::Full(_))
    }

    fn delta_plan(&self, store: &PatternStore) -> Plan {
        let Some(params) = store.params else {
            return Plan::bare(DeltaMode::Full(FullReason::ColdStore));
        };
        if params != self.params() {
            return Plan::bare(DeltaMode::Full(FullReason::ParamsChanged));
        }
        if store.base_len > self.len()
            || self.prefix_hash_at(store.base_len.saturating_sub(1)) != store.prefix_hash
        {
            return Plan::bare(DeltaMode::Full(FullReason::StoreMismatch));
        }
        if store.base_len == self.len() && self.prefix_hash_at(self.len()) == store.full_hash {
            return Plan::bare(DeltaMode::Unchanged);
        }
        // Everything appended since the snapshot is dirty. The snapshot's
        // last (boundary) transaction is additionally re-checked when its
        // content hash changed: a same-timestamp append merges new items
        // into it without growing the stream. When the hash still matches,
        // the boundary is provably untouched and its (often common) items
        // stay clean.
        let boundary_clean = self.prefix_hash_at(store.base_len) == store.full_hash;
        let start = if boundary_clean { store.base_len } else { store.base_len.saturating_sub(1) };
        let mut mask = vec![false; self.db().item_count()];
        let mut dirty: Vec<ItemId> = Vec::new();
        for t in &self.db().transactions()[start..] {
            for &item in t.items() {
                if !mask[item.index()] {
                    mask[item.index()] = true;
                    dirty.push(item);
                }
            }
        }
        dirty.sort_unstable();
        let mut candidates = Vec::new();
        let mut tail_work = 0usize;
        for &item in &dirty {
            let Some(state) = self.item_state(item) else { continue };
            if state.ck.finished(params.min_ps).erec >= params.min_rec {
                let postings = self.postings(item);
                let cut = postings.partition_point(|&tx| (tx as usize) < start);
                tail_work += postings.len() - cut;
                candidates.push((item, cut));
            }
        }
        // The cost model: delta work is proportional to the candidates'
        // tail postings (scan states make the prefix free), so fall back
        // only when the appended tail itself is a sizeable fraction of the
        // stream — not merely because the dirty items are frequent.
        let mode = if tail_work * 100 > self.len() * DELTA_TAIL_BUDGET_PCT {
            DeltaMode::Full(FullReason::FrontierExceeded)
        } else {
            DeltaMode::Delta
        };
        Plan { mode, touched: self.len() - start, dirty, candidates, tail_work }
    }

    /// Mines the stream, re-measuring only the candidates touched by the
    /// appended tail (resuming their checkpointed scans) and splicing every
    /// untouched pattern from the store. The result is **bit-identical** to
    /// [`IncrementalMiner::mine`]; on success the store is refreshed to the
    /// new snapshot. Falls back to a full mine when the store cannot
    /// support a sound delta (see [`FullReason`]).
    ///
    /// ```
    /// use rpm_core::{IncrementalMiner, PatternStore, ResolvedParams};
    ///
    /// let mut miner = IncrementalMiner::new(ResolvedParams::new(2, 2, 1));
    /// let mut store = PatternStore::new();
    /// for ts in 1..20 {
    ///     miner.append(ts, &["a", "b"]).unwrap();
    ///     if (5..=7).contains(&ts) {
    ///         miner.append(ts, &["z"]).unwrap(); // merges into the same ts
    ///     }
    /// }
    /// let (full, _) = miner.mine_delta(&mut store); // cold: full mine
    /// miner.append(20, &["z"]).unwrap();
    /// let (delta, stats) = miner.mine_delta(&mut store); // warm: delta
    /// assert!(stats.mode.is_delta());
    /// assert_eq!(delta.patterns, miner.mine().patterns);
    /// assert_eq!(full.patterns.len(), delta.patterns.len());
    /// ```
    pub fn mine_delta(&self, store: &mut PatternStore) -> (MiningResult, DeltaStats) {
        let (result, abort, stats) =
            self.mine_delta_controlled(store, &RunControl::new(), &mut MineScratch::new(), 1);
        debug_assert!(abort.is_none(), "an unlimited control cannot abort");
        (result, stats)
    }

    /// Like [`IncrementalMiner::mine_delta`], under engine control and with
    /// a caller-held scratch arena. `threads` sizes only the full fallback,
    /// which mines on up to that many work-stealing workers (output
    /// bit-identical to `threads == 1`); the delta path walks the frontier
    /// on the calling thread and ignores it. When a limit trips, the
    /// partial result is still sound (every emitted pattern is genuinely
    /// recurring) and the store is left at its previous snapshot,
    /// untouched.
    pub fn mine_delta_controlled(
        &self,
        store: &mut PatternStore,
        control: &RunControl,
        scratch: &mut MineScratch,
        threads: usize,
    ) -> (MiningResult, Option<AbortReason>, DeltaStats) {
        let plan = self.delta_plan(store);
        match plan.mode {
            DeltaMode::Full(_) => {
                let list = self.live_list();
                let mut resume = Vec::new();
                let (result, abort) = mine_list(
                    self.db(),
                    &list,
                    self.params(),
                    threads,
                    control,
                    &NOOP,
                    scratch,
                    Some(&mut resume),
                );
                if abort.is_none() {
                    store.refresh(self, &result, resume, true);
                }
                (result, abort, plan.stats())
            }
            DeltaMode::Unchanged => {
                let mut stats = plan.stats();
                stats.retained_patterns = store.patterns.len();
                let result = MiningResult { patterns: store.patterns.clone(), stats: store.stats };
                (result, None, stats)
            }
            DeltaMode::Delta => self.mine_frontier(store, control, scratch, plan),
        }
    }

    /// The delta path proper: tail-window enumeration, checkpointed
    /// re-measurement, splice.
    fn mine_frontier(
        &self,
        store: &mut PatternStore,
        control: &RunControl,
        scratch: &mut MineScratch,
        plan: Plan,
    ) -> (MiningResult, Option<AbortReason>, DeltaStats) {
        let params = self.params();
        let frontier = Frontier {
            miner: self,
            params,
            store,
            items: plan.candidates.iter().map(|&(item, _)| item).collect(),
            tails: plan.candidates.iter().map(|&(item, cut)| &self.postings(item)[cut..]).collect(),
            bits: plan.candidates.iter().map(|_| OnceCell::new()).collect(),
        };
        let mut out = RegionOut::default();
        let mut abort = None;
        let mut probe = control.start();
        for r in 0..frontier.items.len() {
            if frontier.grow_region(r, &mut probe, &mut out) {
                abort = probe.tripped();
                break;
            }
        }
        canonical_order(&mut out.fresh);

        // Retained = stored patterns the tail never touched. A stored
        // pattern co-occurring in the tail window was examined (its whole
        // extension chain keeps `Erec >= minRec` — Erec never decreases
        // under append) and re-emitted with fresh measures, so splicing it
        // too would duplicate it. The examined sets are every frontier
        // singleton (each region starts with one) and the multi-item sets
        // whose states the walk staged. The store is in canonical order, so
        // each is looked up by binary search.
        let singletons = frontier.items.iter().map(std::slice::from_ref);
        let multi = out.updates.iter().map(|(items, _)| items.as_slice());
        let mut keep = vec![true; store.patterns.len()];
        for items in singletons.chain(multi) {
            if let Ok(pi) = store.patterns.binary_search_by(|p| canonical_cmp(&p.items, items)) {
                if let Some(k) = keep.get_mut(pi) {
                    *k = false;
                }
            }
        }
        // On an abort the enumeration may not have reached a stored pattern
        // whose members are all dirty — its measures could be stale, so it
        // is dropped from the (still sound) partial result instead of
        // spliced. A completed enumeration proves the opposite: not
        // examined means no tail co-occurrence, hence unchanged.
        if abort.is_some() {
            let mut dirty_mask = vec![false; self.db().item_count()];
            for &item in &plan.dirty {
                dirty_mask[item.index()] = true;
            }
            for (k, p) in keep.iter_mut().zip(&store.patterns) {
                if p.items.iter().all(|i| dirty_mask[i.index()]) {
                    *k = false;
                }
            }
        }
        // A completed delta moves the retained patterns out of the store
        // (the refresh below gives the store its one copy of the result);
        // until then the store is cold, so a panic in between costs a full
        // re-mine, never a splice of a half-moved set. An aborted delta
        // leaves the store untouched and copies what it retains.
        let stored = if abort.is_none() {
            store.params = None;
            std::mem::take(&mut store.patterns)
        } else {
            store.patterns.clone()
        };

        // Canonical-order merge (both inputs are already canonical; the sets
        // are disjoint: retained patterns were not examined, fresh ones
        // all were).
        let remined = out.fresh.len();
        let mut merged: Vec<RecurringPattern> = Vec::with_capacity(stored.len() + remined);
        let mut fi = out.fresh.into_iter().peekable();
        for p in stored.into_iter().zip(keep).filter_map(|(p, k)| k.then_some(p)) {
            while let Some(f) = fi.next_if(|f| canonical_cmp(&f.items, &p.items).is_lt()) {
                merged.push(f);
            }
            merged.push(p);
        }
        merged.extend(fi);

        let mut stats = plan.stats();
        stats.retained_patterns = merged.len() - remined;
        stats.remined_patterns = remined;
        stats.tail_transactions = plan.touched;
        stats.checkpoint_hits = out.hits;

        let mstats = MiningStats {
            candidate_items: plan.candidates.len(),
            scanned_items: plan.dirty.len(),
            candidates_checked: out.examined,
            recurrence_tests: out.examined,
            max_depth: out.max_depth,
            patterns_found: merged.len(),
            scratch_bytes_peak: scratch.footprint_bytes(),
            ..MiningStats::default()
        };

        let result = MiningResult { patterns: merged, stats: mstats };
        if abort.is_none() {
            store.refresh(self, &result, out.updates, false);
        }
        (result, abort, stats)
    }
}

/// Context of one frontier re-measurement.
struct Frontier<'a> {
    miner: &'a IncrementalMiner,
    params: ResolvedParams,
    store: &'a PatternStore,
    /// Dirty candidates, ascending by item id.
    items: Vec<ItemId>,
    /// Per candidate: its postings inside the tail window.
    tails: Vec<&'a [u32]>,
    /// Per candidate: its whole-stream posting bitset, built on the first
    /// resume miss that needs it.
    bits: Vec<OnceCell<Vec<u64>>>,
}

/// Accumulated output of the frontier regions.
#[derive(Default)]
struct RegionOut {
    fresh: Vec<RecurringPattern>,
    updates: Vec<ResumeEntry>,
    examined: usize,
    hits: usize,
    max_depth: usize,
}

impl Frontier<'_> {
    /// The whole-stream posting bitset of the frontier candidate `item`,
    /// built once per call.
    fn bits(&self, item: ItemId) -> &[u64] {
        let rank = self.items.partition_point(|&c| c < item);
        debug_assert_eq!(self.items.get(rank), Some(&item), "sets grow from candidates only");
        self.bits[rank].get_or_init(|| posting_bits(self.miner.postings(item), self.miner.len()))
    }

    /// Enumerates and re-measures every frontier set whose lowest-ranked
    /// candidate is `r`. Returns `true` when the probe tripped mid-region.
    fn grow_region(&self, r: usize, probe: &mut ControlProbe<'_>, out: &mut RegionOut) -> bool {
        let mut set = vec![self.items[r]];
        self.grow_set(&mut set, self.tails[r], r + 1, probe, out)
    }

    fn grow_set(
        &self,
        set: &mut Vec<ItemId>,
        occ: &[u32],
        from: usize,
        probe: &mut ControlProbe<'_>,
        out: &mut RegionOut,
    ) -> bool {
        if probe.poll().is_some() {
            return true;
        }
        out.examined += 1;
        out.max_depth = out.max_depth.max(set.len());

        let (per, min_ps) = (self.params.per, self.params.min_ps);
        let (summary, intervals) = match set.as_slice() {
            // A singleton's whole-stream measures are the miner's live
            // state; it counts as a hit when the item occurs before the tail
            // window (`occ` is its postings from the window on).
            &[item] => {
                if occ.len() < self.miner.postings(item).len() {
                    out.hits += 1;
                }
                self.miner.item_state(item).map(|s| s.finished(min_ps)).unwrap_or_default()
            }
            // A multi-item set resumes its cached state over the tail, or on
            // a miss rescans its whole `TS^X`, the AND of its members'
            // posting bitsets. Feeding skips timestamps at or before the
            // state's last fed one, which absorbs the rewritten boundary
            // transaction after a same-timestamp merge.
            items => {
                let db = self.miner.db();
                let next = match self.store.resume.get(items) {
                    Some(prior) => {
                        out.hits += 1;
                        let ts_of = |&tx: &u32| db.transaction(tx as usize).timestamp();
                        prior.advanced(per, min_ps, occ.iter().map(ts_of))
                    }
                    None => {
                        let members: Vec<&[u64]> = items.iter().map(|&i| self.bits(i)).collect();
                        PatternCheckpoint::default().advanced(
                            per,
                            min_ps,
                            cooccurrence(db, &members),
                        )
                    }
                };
                let measured = next.finished(min_ps);
                out.updates.push((items.to_vec(), next));
                measured
            }
        };
        if summary.interesting >= self.params.min_rec {
            out.fresh.push(RecurringPattern::new(set.clone(), summary.support, intervals));
        }
        if summary.erec >= self.params.min_rec {
            for j in from..self.items.len() {
                let child = intersect_sorted(occ, self.tails[j]);
                if child.is_empty() {
                    continue;
                }
                set.push(self.items[j]);
                let aborted = self.grow_set(set, &child, j + 1, probe, out);
                set.pop();
                if aborted {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::RpGrowth;
    use crate::measures::RecurrenceScan;
    use crate::params::RpParams;
    use crate::pattern::PeriodicInterval;
    use rpm_timeseries::{running_example_db, TransactionDb};

    fn mine_resolved(db: &TransactionDb, p: ResolvedParams) -> MiningResult {
        RpGrowth::new(RpParams::new(p.per, p.min_ps, p.min_rec)).mine(db)
    }

    fn assert_bit_identical(miner: &IncrementalMiner, got: &MiningResult, ctx: &str) {
        let batch = mine_resolved(miner.db(), miner.params());
        assert_eq!(got.patterns, batch.patterns, "{ctx}");
    }

    #[test]
    fn cold_store_runs_full_then_delta_takes_over() {
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..40 {
            let labels: Vec<&str> = if ts % 7 == 0 { vec!["a", "b"] } else { vec!["a"] };
            miner.append(ts, &labels).unwrap();
        }
        let (first, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Full(FullReason::ColdStore));
        assert!(store.is_warm());
        assert_eq!(store.base_len(), 40);
        assert_eq!(
            store.checkpoint_count(),
            first.patterns.iter().filter(|p| p.items.len() > 1).count(),
            "a full refresh caches one resume state per multi-item pattern"
        );
        assert_bit_identical(&miner, &first, "cold full mine");

        // Appending a transaction of a brand-new rare item keeps the dirty
        // tail small: the delta path must engage and stay identical.
        miner.append(40, &["z"]).unwrap();
        miner.append(41, &["z"]).unwrap();
        let (second, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta);
        assert!(stats.retained_patterns > 0, "clean patterns were spliced");
        assert_bit_identical(&miner, &second, "delta after append");
        assert_eq!(store.patterns(), second.patterns, "the store holds a copy of the result");
        assert!(store.is_warm(), "the refresh re-warms the store after the move");
    }

    #[test]
    fn cold_store_full_mine_runs_on_the_requested_workers() {
        let params = ResolvedParams::new(2, 3, 1);
        let db = running_example_db();
        let mut miner = IncrementalMiner::with_items(db.items().clone(), params);
        for t in db.transactions() {
            miner.append_ids(t.timestamp(), t.items().to_vec()).unwrap();
        }
        let control = RunControl::new();
        let mut store = PatternStore::new();
        let (full, abort, stats) =
            miner.mine_delta_controlled(&mut store, &control, &mut MineScratch::new(), 3);
        assert!(abort.is_none());
        assert_eq!(stats.mode, DeltaMode::Full(FullReason::ColdStore));
        let batch = mine_resolved(miner.db(), params);
        assert_eq!(full.patterns, batch.patterns);
        assert_eq!(full.stats.normalized(), batch.stats.normalized());
    }

    #[test]
    fn full_mine_hands_the_store_the_states_intersection_would_rebuild() {
        // The full refresh takes the multi-item resume states from the
        // mine's own scans. Entry for entry, they must equal what the miss
        // path rebuilds — a fresh scan of the pattern's whole `TS^X` — at
        // every worker count.
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(15);
        let mut compared = 0usize;
        for case in 0..20 {
            let width = rng.random_range(4..12usize);
            let density = 0.15 + 0.5 * rng.random_f64();
            let params = ResolvedParams::new(
                rng.random_range(1..5i64),
                rng.random_range(1..5usize),
                rng.random_range(1..4usize),
            );
            let mut miner = IncrementalMiner::new(params);
            let mut ts = 0i64;
            for _ in 0..rng.random_range(60..240usize) {
                ts += rng.random_range(1..3i64);
                let labels: Vec<String> = (0..width)
                    .filter(|_| rng.random_f64() < density)
                    .map(|i| format!("i{i}"))
                    .collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    miner.append(ts, &refs).unwrap();
                }
            }
            let mut scan = RecurrenceScan::new();
            for threads in 1..=3 {
                let ctx = format!("case {case} threads {threads} params {params:?}");
                let mut store = PatternStore::new();
                let (_, abort, stats) = miner.mine_delta_controlled(
                    &mut store,
                    &RunControl::new(),
                    &mut MineScratch::new(),
                    threads,
                );
                assert!(abort.is_none(), "{ctx}");
                assert_eq!(stats.mode, DeltaMode::Full(FullReason::ColdStore), "{ctx}");
                let multi: Vec<&RecurringPattern> =
                    store.patterns().iter().filter(|p| p.items.len() > 1).collect();
                assert_eq!(store.resume.len(), multi.len(), "{ctx}: one entry per pattern");
                for p in multi {
                    scan.reset(params.per, params.min_ps);
                    for t in miner.db().timestamps_of(&p.items) {
                        scan.feed(t);
                    }
                    let reference = PatternCheckpoint {
                        ck: scan.checkpoint(),
                        intervals: scan.intervals().to_vec(),
                    };
                    assert_eq!(store.resume.get(&p.items), Some(&reference), "{ctx} {p:?}");
                    compared += 1;
                }
            }
        }
        assert!(compared > 100, "the streams produced multi-item patterns ({compared})");
    }

    #[test]
    fn unchanged_stream_returns_stored_result_without_mining() {
        let params = ResolvedParams::new(1, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..10 {
            miner.append(ts, &["x"]).unwrap();
        }
        let (first, _) = miner.mine_delta(&mut store);
        let (again, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Unchanged);
        assert_eq!(again.patterns, first.patterns);
        assert_eq!(stats.retained_patterns, first.patterns.len());
    }

    #[test]
    fn params_change_and_foreign_store_fall_back() {
        let mut a = IncrementalMiner::new(ResolvedParams::new(2, 2, 1));
        let mut store = PatternStore::new();
        for ts in 0..8 {
            a.append(ts, &["p", "q"]).unwrap();
        }
        a.mine_delta(&mut store);

        // Same data, different params: the snapshot is useless.
        let mut b = IncrementalMiner::new(ResolvedParams::new(2, 3, 1));
        for ts in 0..8 {
            b.append(ts, &["p", "q"]).unwrap();
        }
        let (result, stats) = b.mine_delta(&mut store.clone());
        assert_eq!(stats.mode, DeltaMode::Full(FullReason::ParamsChanged));
        assert_bit_identical(&b, &result, "params-changed fallback");

        // Same params, diverged history: the prefix hash catches it.
        let mut c = IncrementalMiner::new(ResolvedParams::new(2, 2, 1));
        for ts in 0..8 {
            c.append(ts, &["q"]).unwrap();
        }
        c.append(8, &["p"]).unwrap();
        let (result, stats) = c.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Full(FullReason::StoreMismatch));
        assert_bit_identical(&c, &result, "foreign-store fallback");
    }

    #[test]
    fn same_timestamp_merge_into_boundary_is_re_mined() {
        // The append merges into the last snapshotted transaction — the case
        // where "dirty = appended suffix" alone would be unsound, and where
        // the checkpointed feed guard must not double-count the boundary.
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..30 {
            miner.append(ts, &["a"]).unwrap();
            if ts % 3 == 0 {
                miner.append(ts, &["b"]).unwrap();
            }
        }
        miner.mine_delta(&mut store);
        let base = store.base_len();
        miner.append(29, &["b"]).unwrap(); // merges into ts 29
        assert_eq!(miner.len(), base, "merge does not grow the stream");
        let (result, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta, "a boundary merge stays on the delta path");
        assert_bit_identical(&miner, &result, "boundary merge");
    }

    #[test]
    fn isolated_last_occurrence_counts_on_the_delta_path() {
        // At minPS 1, an item appended once, as the stream's last
        // transaction, has only the open run that Algorithm 1 folds at the
        // end of the stream. The live state read by the delta must count
        // it (Erec = Rec = 1), so the item is emitted.
        let params = ResolvedParams::new(2, 1, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..30 {
            miner.append(ts, &["a"]).unwrap();
        }
        miner.mine_delta(&mut store);
        miner.append(40, &["late"]).unwrap();
        let (result, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta);
        assert_bit_identical(&miner, &result, "isolated last occurrence");
        let late = miner.db().items().id("late").unwrap();
        let p = result.patterns.iter().find(|p| p.items == [late]).expect("the one run counts");
        assert_eq!(p.intervals, [PeriodicInterval { start: 40, end: 40, periodic_support: 1 }]);
    }

    #[test]
    fn frontier_threshold_boundary_falls_back_to_full() {
        // Appending a tail that is itself a third of the stream drives the
        // tail work past DELTA_TAIL_BUDGET_PCT: the store must refuse the
        // delta and full-mine instead — with identical output.
        let params = ResolvedParams::new(1, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..20 {
            miner.append(ts, &["a", "b"]).unwrap();
        }
        miner.mine_delta(&mut store);
        for ts in 20..32 {
            miner.append(ts, &["a", "b"]).unwrap();
        }
        let (result, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Full(FullReason::FrontierExceeded));
        assert!(
            stats.reachable_transactions * 100 > miner.len() * DELTA_TAIL_BUDGET_PCT,
            "the trigger fired because the tail work really was too large"
        );
        assert_bit_identical(&miner, &result, "frontier fallback");
        // The fallback refreshed the store, so a quiet stream is Unchanged.
        let (_, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Unchanged);
    }

    #[test]
    fn batch_appends_of_common_items_stay_on_delta_path() {
        // The workload the tail cost model exists for: batch appends of
        // ubiquitous items onto a long stream. The pre-checkpoint gate
        // (which summed full posting lists) always fell back here; the tail
        // model must keep every batch on the delta path, bit-identically,
        // resuming from checkpoints rather than intersecting.
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..1200 {
            let mut labels = vec!["u", "v"];
            if ts % 3 == 0 {
                labels.push("w");
            }
            miner.append(ts, &labels).unwrap();
        }
        miner.mine_delta(&mut store);
        let mut ts = 1200i64;
        for batch in [10usize, 100] {
            for _ in 0..batch {
                let mut labels = vec!["u", "v"];
                if ts % 3 == 0 {
                    labels.push("w");
                }
                miner.append(ts, &labels).unwrap();
                ts += 1;
            }
            let (result, stats) = miner.mine_delta(&mut store);
            assert_eq!(stats.mode, DeltaMode::Delta, "batch {batch} stayed on the delta path");
            assert!(stats.checkpoint_hits > 0, "batch {batch} resumed from checkpoints");
            assert_eq!(stats.tail_transactions, batch);
            assert!(
                stats.reachable_transactions <= 3 * batch,
                "tail work {} tracks the batch, not the stream",
                stats.reachable_transactions
            );
            assert_bit_identical(&miner, &result, "common-item batch append");
        }
    }

    #[test]
    fn resume_cache_miss_intersects_and_then_hits() {
        // Two frequent items that never co-occurred before suddenly do: the
        // pair has no cached state, so the first delta rebuilds it from the
        // posting bitsets; the refresh then caches it and the next delta
        // resumes it.
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..120 {
            miner.append(ts, if ts % 2 == 0 { &["a"] } else { &["b"] }).unwrap();
        }
        miner.mine_delta(&mut store);
        for ts in 120..126 {
            miner.append(ts, &["a", "b"]).unwrap();
        }
        let (result, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta);
        assert_bit_identical(&miner, &result, "fresh co-occurrence");
        let first_hits = stats.checkpoint_hits;
        for ts in 126..130 {
            miner.append(ts, &["a", "b"]).unwrap();
        }
        let (result, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta);
        assert!(
            stats.checkpoint_hits > first_hits,
            "the pair's state was cached by the previous delta"
        );
        assert_bit_identical(&miner, &result, "cached co-occurrence");
    }

    #[test]
    fn every_resume_miss_rebuilds_the_batch_result() {
        // With the resume cache emptied before each delta, every multi-item
        // candidate misses and is rebuilt from the posting bitsets, built
        // lazily once per candidate. The result must stay bit-identical to
        // batch and both naive miners.
        use crate::naive::{apriori_rp, brute_force};
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(19);
        let mut rebuilt = 0usize;
        for round in 0..6 {
            let params = ResolvedParams::new(
                rng.random_range(1..4i64),
                rng.random_range(1..4usize),
                rng.random_range(1..3usize),
            );
            let mut miner = IncrementalMiner::new(params);
            let mut ts = 0i64;
            let mut grow = |miner: &mut IncrementalMiner, n: usize| {
                for _ in 0..n {
                    ts += rng.random_range(0..3i64);
                    let labels: Vec<String> = (0..7)
                        .filter(|_| rng.random_f64() < 0.4)
                        .map(|i| format!("i{i}"))
                        .collect();
                    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                    if !refs.is_empty() {
                        miner.append(ts, &refs).unwrap();
                    }
                }
            };
            grow(&mut miner, 150);
            let mut store = PatternStore::new();
            miner.mine_delta(&mut store);
            for step in 0..4 {
                grow(&mut miner, 5);
                let batch = mine_resolved(miner.db(), params);
                let ctx = format!("round {round} step {step} params {params:?}");
                assert_eq!(brute_force(miner.db(), params), batch.patterns, "{ctx}");
                assert_eq!(apriori_rp(miner.db(), params).0, batch.patterns, "{ctx}");
                store.resume.clear();
                let (result, stats) = miner.mine_delta(&mut store);
                assert_eq!(result.patterns, batch.patterns, "{ctx}");
                if stats.mode == DeltaMode::Delta {
                    // Every region starts at a singleton; everything else it
                    // examined was a multi-item miss.
                    assert!(stats.checkpoint_hits <= stats.dirty_candidates, "{ctx}");
                    rebuilt += result.stats.candidates_checked - stats.dirty_candidates;
                }
            }
        }
        assert!(rebuilt > 100, "the deltas rebuilt multi-item states ({rebuilt})");
    }

    #[test]
    fn running_example_grows_delta_equal_to_batch() {
        // Stream the paper's Table 1 database one transaction at a time,
        // delta-mining after each append: every step bit-identical to batch.
        let oracle = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for t in oracle.transactions() {
            let labels: Vec<&str> = t.items().iter().map(|&i| oracle.items().label(i)).collect();
            miner.append(t.timestamp(), &labels).unwrap();
            let (result, _) = miner.mine_delta(&mut store);
            assert_bit_identical(&miner, &result, "running example step");
        }
        assert_eq!(miner.mine_delta(&mut store).0.patterns.len(), 8); // Table 2
    }

    #[test]
    fn delta_avoids_touching_the_clean_prefix() {
        // A long stream of common items followed by appends of a rare item:
        // the delta work must be bounded by the rare item's tail, which
        // shows up as a small work bound.
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..400 {
            miner.append(ts, &["u", "v", "w"]).unwrap();
        }
        miner.mine_delta(&mut store);
        for k in 0..3i64 {
            miner.append(400 + k, &["rare"]).unwrap();
        }
        let (result, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta);
        assert!(
            stats.reachable_transactions <= 10,
            "tail work {} must track the rare frontier, not the database",
            stats.reachable_transactions
        );
        assert!(result.stats.candidates_checked <= 4, "only the frontier was re-measured");
        assert_bit_identical(&miner, &result, "rare-item delta");
    }

    /// Checks every item's live scan state against a fresh scan of the
    /// item's timestamps in the accumulated database: the measures API and
    /// Algorithm 5, which shares no code with the state machine.
    fn assert_live_states_match_oracles(miner: &IncrementalMiner, ctx: &str) {
        use crate::measures::{erec, get_recurrence, interesting_intervals, recurrence};
        let p = miner.params();
        for idx in 0..miner.db().item_count() {
            let item = ItemId(idx as u32);
            let ts = miner.db().timestamps_of(&[item]);
            let (s, intervals) =
                miner.item_state(item).map(|st| st.finished(p.min_ps)).unwrap_or_default();
            let fresh = (ts.len(), erec(&ts, p.per, p.min_ps), recurrence(&ts, p.per, p.min_ps));
            assert_eq!((s.support, s.erec, s.interesting), fresh, "{ctx} item {idx}");
            assert_eq!(intervals, interesting_intervals(&ts, p.per, p.min_ps), "{ctx} item {idx}");
            let verdict = (s.interesting >= p.min_rec).then_some(intervals);
            assert_eq!(get_recurrence(&ts, p), verdict, "{ctx} item {idx}");
        }
    }

    #[test]
    fn randomized_interleaving_of_append_mine_delta_and_mine() {
        // The randomized-equivalence suite of `incremental.rs`, extended to
        // interleave batch appends / mine_delta / mine across the stream:
        // the delta path must be bit-identical to batch at every probe
        // point, across both sides of the tail cost model (early dense
        // probes append a tail comparable to the stream and cross it,
        // later ones stay under). At every probe a second store mined at two
        // threads (its full steps warm it through the regions' capture), the
        // naive miners and the per-item states are checked too;
        // `ts += 0..3` makes same-timestamp merges common.
        use crate::naive::{apriori_rp, brute_force};
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(7);
        let mut delta_steps = 0usize;
        let mut full_steps = 0usize;
        let mut saw_frontier_exceeded = false;
        for round in 0..12 {
            let params = ResolvedParams::new(
                rng.random_range(1..4i64),
                rng.random_range(1..4usize),
                rng.random_range(1..3usize),
            );
            let mut miner = IncrementalMiner::new(params);
            let mut store = PatternStore::new();
            let mut par_store = PatternStore::new();
            let mut ts = 0;
            let density = if round % 2 == 0 { 0.15 } else { 0.5 };
            for step in 0..80 {
                ts += rng.random_range(0..3i64);
                let labels: Vec<String> = (0..8)
                    .filter(|_| rng.random_f64() < density)
                    .map(|i| format!("i{i}"))
                    .collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    miner.append(ts, &refs).unwrap();
                }
                if step % 5 == 0 {
                    let (result, stats) = miner.mine_delta(&mut store);
                    match stats.mode {
                        DeltaMode::Delta | DeltaMode::Unchanged => delta_steps += 1,
                        DeltaMode::Full(reason) => {
                            full_steps += 1;
                            saw_frontier_exceeded |= reason == FullReason::FrontierExceeded;
                        }
                    }
                    let batch = mine_resolved(miner.db(), params);
                    let ctx = format!("round {round} step {step} params {params:?}");
                    assert_eq!(result.patterns, batch.patterns, "{ctx} mode {:?}", stats.mode);
                    // The incremental (non-delta) miner stays on the same
                    // stream: interleaving it must not disturb the store.
                    assert_eq!(miner.mine().patterns, batch.patterns);
                    let (par, abort, par_stats) = miner.mine_delta_controlled(
                        &mut par_store,
                        &RunControl::new(),
                        &mut MineScratch::new(),
                        2,
                    );
                    assert!(abort.is_none(), "{ctx}");
                    assert_eq!(par.patterns, batch.patterns, "{ctx}: two-thread store");
                    assert_eq!(par_stats.mode, stats.mode, "{ctx}");
                    assert_eq!(par_stats.checkpoint_hits, stats.checkpoint_hits, "{ctx}");
                    assert_eq!(brute_force(miner.db(), params), batch.patterns, "{ctx}");
                    assert_eq!(apriori_rp(miner.db(), params).0, batch.patterns, "{ctx}");
                    assert_live_states_match_oracles(&miner, &ctx);
                }
            }
        }
        assert!(delta_steps > 0, "the interleaving exercised the delta path");
        assert!(full_steps > 0, "the interleaving exercised the fallback path");
        assert!(saw_frontier_exceeded, "the interleaving crossed the tail budget");
    }

    #[test]
    fn controlled_delta_abort_is_sound_and_preserves_the_store() {
        use crate::engine::CancelToken;
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..50 {
            miner.append(ts, &["a", "b", "c"]).unwrap();
        }
        let token = CancelToken::new();
        token.cancel();
        let control = RunControl::new().with_cancel(token);
        // An aborted cold full mine drops the states it captured with the
        // rest of the refresh: the store stays cold.
        for threads in 1..=2 {
            let (_, abort, stats) =
                miner.mine_delta_controlled(&mut store, &control, &mut MineScratch::new(), threads);
            assert!(abort.is_some());
            assert_eq!(stats.mode, DeltaMode::Full(FullReason::ColdStore));
            assert!(!store.is_warm(), "threads {threads}: the store stays cold");
            assert!(store.resume.is_empty(), "threads {threads}: no resume state is kept");
        }
        miner.mine_delta(&mut store);
        let base = store.base_len();
        let stored = store.patterns().to_vec();
        miner.append(50, &["c", "d"]).unwrap();
        let (result, abort, _) =
            miner.mine_delta_controlled(&mut store, &control, &mut MineScratch::new(), 1);
        assert!(abort.is_some(), "pre-cancelled control aborts immediately");
        assert_eq!(store.base_len(), base, "aborted runs do not refresh the store");
        assert_eq!(store.patterns(), stored, "aborted runs copy, never move, the stored set");
        // Soundness of the partial result: everything in it is genuinely
        // recurring in the full database.
        let batch = mine_resolved(miner.db(), params);
        for p in &result.patterns {
            assert!(batch.patterns.contains(p), "partial result contains only true patterns");
        }
        // The untouched store still supports an exact delta.
        let (full, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta);
        assert_eq!(full.patterns, batch.patterns);
    }

    #[test]
    fn stats_report_less_work_than_batch_on_delta_path() {
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        let mut store = PatternStore::new();
        for ts in 0..200 {
            let mut labels = vec!["m", "n"];
            if ts % 5 == 0 {
                labels.push("o");
            }
            miner.append(ts, &labels).unwrap();
        }
        miner.mine_delta(&mut store);
        miner.append(200, &["rare"]).unwrap();
        let (result, stats) = miner.mine_delta(&mut store);
        assert_eq!(stats.mode, DeltaMode::Delta);
        let batch = mine_resolved(miner.db(), params);
        assert!(
            result.stats.candidates_checked < batch.stats.candidates_checked,
            "delta explored a strict subset of the search space"
        );
        assert_eq!(result.stats.patterns_found, batch.patterns.len());
    }
}
