//! RP-growth (paper §4.2, Algorithm 4): pattern-growth mining of the RP-tree
//! with `Erec`-based conditional-tree pruning and ts-list push-up.
//!
//! The recursion is allocation-free after warm-up: every temporary the
//! seed implementation allocated per candidate (merged ts-lists, prefix
//! paths, per-rank projections, conditional trees) lives in a reusable
//! [`MineScratch`] arena threaded through the recursion. Candidate scans
//! run as k-way merges over the tree's sorted per-node segments, fused with
//! the `Erec`/`Rec` state machine, so a pruned candidate never materializes
//! its ts-list at all. See DESIGN.md §"Performance architecture".

use std::sync::atomic::{AtomicUsize, Ordering};

use rpm_timeseries::{ItemId, Timestamp, TransactionDb};

use crate::checkpoint::{PatternCheckpoint, ResumeEntry};
use crate::engine::control::{AbortReason, ControlProbe, RunControl};
use crate::engine::observer::{Observer, Phase, NOOP};
use crate::measures::{RecurrenceScan, ScanCheckpoint};
use crate::merge::MergeHeap;
use crate::parallel::{grow_regions, insert_chunked};
use crate::params::{ResolvedParams, RpParams};
use crate::pattern::{canonical_order, RecurringPattern};
use crate::rplist::RpList;
use crate::tree::{NodeIdx, TsTree, ROOT};

/// Counters describing the work a mining run performed — used by the
/// pruning-ablation experiment (DESIGN.md, A1/A2) and surfaced to users who
/// want to reason about cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Candidate items after the RP-list scan.
    pub candidate_items: usize,
    /// Distinct items seen in the database.
    pub scanned_items: usize,
    /// Suffix patterns whose merged ts-list was examined (Algorithm 4
    /// line 2) — the size of the explored search space.
    pub candidates_checked: usize,
    /// Patterns that passed `Erec ≥ minRec` and were recurrence-tested.
    pub recurrence_tests: usize,
    /// Patterns emitted.
    pub patterns_found: usize,
    /// Conditional trees constructed.
    pub conditional_trees: usize,
    /// Item nodes allocated across all trees.
    pub tree_nodes: usize,
    /// Deepest suffix length reached.
    pub max_depth: usize,
    /// Estimated bytes of reusable scratch memory (merge heaps, path
    /// buffers, the conditional-tree pool) held when the run finished.
    /// Scratch capacities only grow, so this is the run's high-water mark.
    /// An execution-strategy counter: the parallel miner reports the sum
    /// over its workers, so it is excluded from
    /// [`MiningStats::normalized`] comparisons.
    pub scratch_bytes_peak: usize,
    /// Work-stealing events in the parallel miner: regions claimed by a
    /// different worker than a static round-robin schedule would have used.
    /// Always 0 for sequential runs; excluded from
    /// [`MiningStats::normalized`] comparisons.
    pub regions_stolen: usize,
}

impl MiningStats {
    /// The algorithmic subset of the counters: everything that must be
    /// identical between the sequential and parallel miners (and across
    /// thread counts). Zeroes the execution-strategy counters
    /// `scratch_bytes_peak` and `regions_stolen`, which legitimately vary
    /// with scheduling.
    pub fn normalized(&self) -> MiningStats {
        MiningStats { scratch_bytes_peak: 0, regions_stolen: 0, ..*self }
    }
}

/// Result of a mining run: the patterns plus work counters.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// Discovered recurring patterns in canonical order (by length, then by
    /// item ids).
    pub patterns: Vec<RecurringPattern>,
    /// Work counters.
    pub stats: MiningStats,
}

impl MiningResult {
    /// Derives the output of mining at a **higher** `minRec` from this
    /// result, without re-mining.
    ///
    /// Sound because the recurring predicate is evaluated per pattern
    /// (`Rec(X) ≥ minRec`, Definition 9) and `per`/`minPS` — which shape
    /// the intervals — are unchanged: the `minRec = k` output is exactly
    /// the `minRec = 1` output filtered to `Rec ≥ k`. Parameter sweeps
    /// over `minRec` (Tables 5/7's columns) therefore need one mining run
    /// per `(per, minPS)` pair. Equivalence is property-tested in
    /// `tests/prop_invariants.rs`.
    pub fn filter_min_rec(&self, min_rec: usize) -> Vec<RecurringPattern> {
        self.patterns.iter().filter(|p| p.recurrence() >= min_rec).cloned().collect()
    }
}

/// Byte offsets of one conditional-pattern-base path inside
/// [`MineScratch`]'s flattened buffers: `path_ranks[rs..re]` is the prefix
/// path (ascending ranks), `path_ts[ts..te]` its sorted ts-list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathBounds {
    pub(crate) rs: u32,
    pub(crate) re: u32,
    pub(crate) ts: u32,
    pub(crate) te: u32,
}

/// Reusable working memory for a mining run. One instance serves any number
/// of runs (and the whole recursion of each): every buffer is cleared, not
/// dropped, between uses, so after warm-up the hot path performs no heap
/// allocation for candidates, paths, projections or conditional trees —
/// only emitted patterns allocate.
///
/// The buffers obey a stack discipline: everything filled while processing
/// one rank is dead before the recursion into that rank's conditional tree,
/// so a single instance can be threaded through the entire depth-first
/// search. Conditional trees themselves are recycled through a pool
/// ([`TsTree::reset`] keeps their arenas warm).
#[derive(Debug, Default)]
pub struct MineScratch {
    /// K-way merge scratch shared by every candidate scan.
    pub(crate) heap: MergeHeap,
    /// Fused `Erec`/`Rec`/interval scan.
    pub(crate) scan: RecurrenceScan,
    /// Transaction projection buffer (tree construction).
    pub(crate) ranks: Vec<u32>,
    /// Ancestor-walk buffer (deepest rank first, reversed on use).
    pub(crate) walk: Vec<u32>,
    /// Flattened prefix paths of the current conditional-pattern-base.
    pub(crate) path_ranks: Vec<u32>,
    /// Flattened sorted ts-lists of the current base, parallel to paths.
    pub(crate) path_ts: Vec<Timestamp>,
    /// Per-path offsets into `path_ranks` / `path_ts`.
    pub(crate) paths: Vec<PathBounds>,
    /// Subtree segment gathering (parallel region derivation).
    pub(crate) segs: Vec<NodeIdx>,
    /// Per-tail-node `[start, end)` ranges into `segs`.
    pub(crate) seg_bounds: Vec<(u32, u32)>,
    /// DFS stack for subtree traversal.
    pub(crate) stack: Vec<NodeIdx>,
    /// `rank_paths[r]` = indices of base paths containing rank `r`.
    rank_paths: Vec<Vec<u32>>,
    /// Ranks with non-empty `rank_paths`, for cheap cleanup.
    touched: Vec<u32>,
    /// Ranks surviving the conditional `Erec` filter.
    keep: Vec<bool>,
    /// Filtered-path buffer for conditional-tree insertion.
    filtered: Vec<u32>,
    /// Recycled conditional trees (and the global tree between runs).
    pool: Vec<TsTree>,
}

impl MineScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a tree from the pool (arena reset, allocations kept) or
    /// creates one.
    pub(crate) fn take_tree(&mut self, n_ranks: usize) -> TsTree {
        match self.pool.pop() {
            Some(mut t) => {
                t.reset(n_ranks);
                t
            }
            None => TsTree::new(n_ranks),
        }
    }

    /// Returns a tree to the pool for reuse.
    pub(crate) fn recycle(&mut self, tree: TsTree) {
        self.pool.push(tree);
    }

    /// Discards the current conditional-pattern-base.
    pub(crate) fn clear_base(&mut self) {
        self.path_ranks.clear();
        self.path_ts.clear();
        self.paths.clear();
    }

    /// Appends the prefix path and ts-list of tail node `n` to the base
    /// (skipping empty ts-lists and empty prefixes, which cannot contribute
    /// to a conditional tree).
    pub(crate) fn push_tail_path(&mut self, tree: &TsTree, n: NodeIdx) {
        let node = tree.node(n);
        if node.ts.is_empty() {
            return;
        }
        self.walk.clear();
        let mut cur = node.parent;
        while cur != ROOT {
            let (rank, parent) = tree.rank_parent(cur);
            self.walk.push(rank);
            cur = parent;
        }
        if self.walk.is_empty() {
            return;
        }
        let rs = self.path_ranks.len() as u32;
        self.path_ranks.extend(self.walk.iter().rev().copied());
        let ts = self.path_ts.len() as u32;
        self.path_ts.extend_from_slice(&node.ts);
        self.paths.push(PathBounds {
            rs,
            re: self.path_ranks.len() as u32,
            ts,
            te: self.path_ts.len() as u32,
        });
    }

    /// Builds the conditional tree of the base accumulated via
    /// [`MineScratch::push_tail_path`] (or the parallel miner's region
    /// derivation): computes each prefix rank's projected `Erec` with a
    /// k-way merge over the ts-lists of the paths containing it, prunes
    /// ranks below `minRec` (Properties 1–2), and inserts the filtered
    /// paths into a pooled tree. Returns `None` when nothing survives.
    pub(crate) fn build_conditional(&mut self, params: ResolvedParams) -> Option<TsTree> {
        let Self {
            heap,
            path_ranks,
            path_ts,
            paths,
            rank_paths,
            touched,
            keep,
            filtered,
            pool,
            ..
        } = self;
        if paths.is_empty() {
            return None;
        }
        for (pi, pb) in paths.iter().enumerate() {
            for &r in &path_ranks[pb.rs as usize..pb.re as usize] {
                let r = r as usize;
                if rank_paths.len() <= r {
                    rank_paths.resize_with(r + 1, Vec::new);
                    keep.resize(r + 1, false);
                }
                if rank_paths[r].is_empty() {
                    touched.push(r as u32);
                }
                rank_paths[r].push(pi as u32);
            }
        }
        let mut max_kept: Option<u32> = None;
        for &r in touched.iter() {
            let segs = &rank_paths[r as usize];
            // Support bound: `Erec ≤ support / minPS`, so a rank whose whole
            // projection holds fewer than `minPS · minRec` timestamps can
            // never qualify — skip its merge outright.
            let support: usize = segs
                .iter()
                .map(|&pi| {
                    let pb = &paths[pi as usize];
                    (pb.te - pb.ts) as usize
                })
                .sum();
            if support < params.min_ps * params.min_rec {
                continue;
            }
            let mut scan = ScanCheckpoint::default();
            let mut proven = false;
            // Only `Erec ≥ minRec` matters here, and the bound read off the
            // scanned prefix is monotone in it — bail out of the merge the
            // moment the rank is proven, instead of draining its whole
            // projection (a drained merge leaves the final verdict).
            heap.merge_while(
                segs.len() as u32,
                |i| {
                    let pb = &paths[segs[i as usize] as usize];
                    &path_ts[pb.ts as usize..pb.te as usize]
                },
                |t| {
                    scan.feed(t, params.per, params.min_ps);
                    proven = scan.finished(params.min_ps).erec >= params.min_rec;
                    !proven
                },
            );
            if proven {
                keep[r as usize] = true;
                max_kept = Some(max_kept.map_or(r, |m: u32| m.max(r)));
            }
        }
        let result = max_kept.and_then(|mk| {
            let n_ranks = mk as usize + 1;
            let mut cond = match pool.pop() {
                Some(mut t) => {
                    t.reset(n_ranks);
                    t
                }
                None => TsTree::new(n_ranks),
            };
            for pb in paths.iter() {
                filtered.clear();
                filtered.extend(
                    path_ranks[pb.rs as usize..pb.re as usize]
                        .iter()
                        .copied()
                        .filter(|&r| keep[r as usize]),
                );
                if !filtered.is_empty() {
                    cond.insert_with_ts_list(filtered, &path_ts[pb.ts as usize..pb.te as usize]);
                }
            }
            if cond.is_empty() {
                pool.push(cond);
                None
            } else {
                Some(cond)
            }
        });
        for &r in touched.iter() {
            rank_paths[r as usize].clear();
            keep[r as usize] = false;
        }
        touched.clear();
        result
    }

    /// Estimated bytes held by the scratch arena: buffer capacities plus
    /// the pooled trees. Capacities are monotone within a run, so sampling
    /// at the end of a run yields its high-water mark.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.heap.capacity_bytes() + self.scan.capacity_bytes();
        bytes += (self.ranks.capacity()
            + self.walk.capacity()
            + self.path_ranks.capacity()
            + self.filtered.capacity()
            + self.touched.capacity())
            * size_of::<u32>();
        bytes += self.path_ts.capacity() * size_of::<Timestamp>();
        bytes += self.paths.capacity() * size_of::<PathBounds>();
        bytes += (self.segs.capacity() + self.stack.capacity()) * size_of::<NodeIdx>();
        bytes += self.seg_bounds.capacity() * size_of::<(u32, u32)>();
        bytes += self.keep.capacity() * size_of::<bool>();
        bytes += self.rank_paths.iter().map(|v| v.capacity() * size_of::<u32>()).sum::<usize>()
            + self.rank_paths.capacity() * size_of::<Vec<u32>>();
        bytes += self.pool.iter().map(TsTree::memory_bytes).sum::<usize>();
        bytes
    }
}

/// The RP-growth miner.
///
/// ```
/// use rpm_core::{RpGrowth, RpParams};
/// use rpm_timeseries::running_example_db;
///
/// let db = running_example_db();
/// let result = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db);
/// assert_eq!(result.patterns.len(), 8); // Table 2 of the paper
/// ```
#[derive(Debug, Clone)]
pub struct RpGrowth {
    params: RpParams,
}

impl RpGrowth {
    /// Creates a miner with the given constraints.
    pub fn new(params: RpParams) -> Self {
        Self { params }
    }

    /// The miner's parameters.
    pub fn params(&self) -> &RpParams {
        &self.params
    }

    /// Mines all recurring patterns of `db`.
    pub fn mine(&self, db: &TransactionDb) -> MiningResult {
        let params = self.params.resolve(db.len());
        let list = RpList::build(db, params);
        mine_list(db, &list, params, 1, &RunControl::new(), &NOOP, &mut MineScratch::new(), None).0
    }
}

/// The per-run execution context threaded through the recursion: the
/// control probe polled at candidate boundaries, the observer, the
/// (possibly worker-shared) suffix-progress counter, and the resume sink
/// of [`mine_list`] (per worker when the run is parallel).
pub(crate) struct Exec<'e> {
    pub(crate) probe: ControlProbe<'e>,
    pub(crate) observer: &'e dyn Observer,
    pub(crate) done: &'e AtomicUsize,
    pub(crate) total: usize,
    pub(crate) resume: Option<&'e mut Vec<ResumeEntry>>,
}

impl Exec<'_> {
    /// Reports one completed suffix region and the candidates it explored.
    pub(crate) fn suffix_done(&self, candidates_delta: usize) {
        let d = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.observer.on_suffix_done(d, self.total);
        if candidates_delta > 0 {
            self.observer.on_candidate_batch(candidates_delta);
        }
    }
}

/// The one RP-growth pipeline behind every miner: tree construction over
/// the RP-list `list` (Algorithm 2), then pattern growth (Algorithm 4).
/// With `threads > 1` the projection pass is chunked across workers and
/// growth runs on the work-stealing regions of [`crate::parallel`]; with
/// one worker the sequential recursion mines the tree directly. The output
/// is identical either way. The run is interruptible through `control`
/// and observable through `observer`; it returns the (possibly partial)
/// result plus the abort reason when a limit tripped. Partial results are
/// always sound: every emitted pattern passed the full recurrence test
/// before the run stopped.
///
/// `resume`, when given, is a capture sink: for every multi-item pattern
/// the run emits, growth pushes the pattern's items and the scan state its
/// recurrence scan reached just before `finish` (with the intervals closed
/// by then) — exactly the entry the pattern store's resume cache needs, so
/// the store never rebuilds it by intersecting posting lists. Entries come
/// in no particular order. Only the delta miner's full path
/// ([`crate::IncrementalMiner::mine_delta_controlled`]) passes a sink; every
/// other miner passes `None`. The sink is output, not scratch: it is not
/// part of [`MineScratch::footprint_bytes`] or the scratch budget.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mine_list(
    db: &TransactionDb,
    list: &RpList,
    params: ResolvedParams,
    threads: usize,
    control: &RunControl,
    observer: &dyn Observer,
    scratch: &mut MineScratch,
    resume: Option<&mut Vec<ResumeEntry>>,
) -> (MiningResult, Option<AbortReason>) {
    let threads = threads.max(1);
    let mut stats = MiningStats {
        candidate_items: list.len(),
        scanned_items: list.scanned_items(),
        ..MiningStats::default()
    };
    if list.is_empty() {
        return (MiningResult { patterns: Vec::new(), stats }, None);
    }

    // Second scan: insert candidate projections (Algorithm 2).
    observer.on_phase(Phase::TreeBuild);
    let mut tree = scratch.take_tree(list.len());
    if threads == 1 || db.len() < 2 * threads {
        for t in db.transactions() {
            list.project_into(t.items(), &mut scratch.ranks);
            if !scratch.ranks.is_empty() {
                tree.insert(&scratch.ranks, t.timestamp());
            }
        }
    } else {
        insert_chunked(db, list, threads, &mut tree);
    }
    stats.tree_nodes += tree.node_count();

    observer.on_phase(Phase::Growth);
    let (mut patterns, reason) = if threads == 1 {
        // A single worker gains nothing from the immutable-tree regions (it
        // would re-merge subtrees the push-ups get almost for free), so the
        // sequential recursion mines the tree in place.
        let mut patterns = Vec::new();
        let done = AtomicUsize::new(0);
        let mut exec =
            Exec { probe: control.start(), observer, done: &done, total: list.len(), resume };
        let aborted = grow(
            &mut tree,
            list,
            params,
            &mut Vec::new(),
            &mut patterns,
            &mut stats,
            scratch,
            &mut exec,
            true,
        );
        scratch.recycle(tree);
        stats.scratch_bytes_peak = scratch.footprint_bytes();
        (patterns, if aborted { exec.probe.tripped() } else { None })
    } else {
        let mined =
            grow_regions(&tree, list, params, threads, control, observer, &mut stats, resume);
        scratch.recycle(tree);
        mined
    };
    canonical_order(&mut patterns);
    stats.patterns_found = patterns.len();
    (MiningResult { patterns, stats }, reason)
}

/// Algorithm 4 (`RP-growth`): processes the tree's ranks bottom-up. For each
/// rank, a fused k-way merge over the rank's sorted per-node ts segments
/// computes `Erec`, `Rec` and the interesting intervals in one streaming
/// pass (lines 2–4 + Algorithm 5) without materializing the merged list;
/// surviving suffixes are expanded through a pooled conditional tree
/// (lines 4–7); finally the rank's ts-lists are merged into the parents and
/// the rank removed (line 9).
///
/// `top` marks the call on the top-level (global) tree, whose ranks are the
/// RP-list candidates themselves: their merged singleton ts-lists are
/// exactly the per-item streams the list was built from, so the list's
/// [`RpList::singleton`] measures are used instead of re-merging the whole
/// tree. Recursive calls on conditional trees pass `false`.
///
/// Returns `true` when the run was aborted by `exec`'s probe; everything
/// pushed to `out` up to that point is a sound partial result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow(
    tree: &mut TsTree,
    list: &RpList,
    params: ResolvedParams,
    suffix: &mut Vec<ItemId>,
    out: &mut Vec<RecurringPattern>,
    stats: &mut MiningStats,
    scratch: &mut MineScratch,
    exec: &mut Exec<'_>,
    top: bool,
) -> bool {
    stats.max_depth = stats.max_depth.max(suffix.len() + 1);
    for rank in (0..tree.rank_count() as u32).rev() {
        if exec.probe.poll_with(|| scratch.footprint_bytes()).is_some() {
            return true;
        }
        if tree.links(rank).is_empty() {
            tree.push_up_and_remove(rank);
            if top {
                exec.suffix_done(0);
            }
            continue;
        }
        let candidates_before = stats.candidates_checked;
        stats.candidates_checked += 1;
        let stored = if top { list.singleton(rank) } else { None };
        let (summary, ck) = match stored {
            Some((summary, _)) => (summary, None),
            None => {
                let MineScratch { heap, scan, .. } = &mut *scratch;
                scan.reset(params.per, params.min_ps);
                tree.for_each_ts(rank, heap, |t| scan.feed(t));
                // A multi-item candidate's resumable state, for the resume
                // sink: `finish` closes the open run, so take it first.
                let ck = (!suffix.is_empty() && exec.resume.is_some()).then(|| scan.checkpoint());
                (scan.finish(), ck)
            }
        };
        if summary.erec >= params.min_rec {
            stats.recurrence_tests += 1;
            suffix.push(list.item_at(rank));
            if summary.interesting >= params.min_rec {
                // Rec(X) ≥ minRec ⇔ Algorithm 5 succeeds; the intervals were
                // collected during the same merge pass (or, for top-level
                // singletons, by the RP-list's per-item state).
                let intervals = match stored {
                    Some((_, intervals)) => intervals.to_vec(),
                    None => scratch.scan.intervals().to_vec(),
                };
                let pattern = RecurringPattern::new(suffix.clone(), summary.support, intervals);
                if let (Some(sink), Some(ck)) = (exec.resume.as_deref_mut(), ck) {
                    let state = PatternCheckpoint::before_finish(ck, &pattern.intervals);
                    sink.push((pattern.items.clone(), state));
                }
                out.push(pattern);
            }
            // Conditional pattern base → conditional tree, keeping only the
            // prefix items whose Erec (within this projection) can still
            // reach minRec (Properties 1–2).
            if let Some(mut cond) = conditional_tree(tree, rank, params, scratch) {
                stats.conditional_trees += 1;
                stats.tree_nodes += cond.node_count();
                let aborted =
                    grow(&mut cond, list, params, suffix, out, stats, scratch, exec, false);
                scratch.recycle(cond);
                if aborted {
                    suffix.pop();
                    return true;
                }
            }
            suffix.pop();
        }
        tree.push_up_and_remove(rank);
        if top {
            exec.suffix_done(stats.candidates_checked - candidates_before);
        }
    }
    false
}

/// Collects `rank`'s conditional-pattern-base into scratch buffers and
/// builds the filtered conditional tree from the pool.
fn conditional_tree(
    tree: &TsTree,
    rank: u32,
    params: ResolvedParams,
    scratch: &mut MineScratch,
) -> Option<TsTree> {
    scratch.clear_base();
    for &n in tree.links(rank) {
        scratch.push_tail_path(tree, n);
    }
    scratch.build_conditional(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RpParams;
    use rpm_timeseries::running_example_db;

    /// Renders mined patterns as `label-string → (sup, rec, intervals)` for
    /// comparison against Table 2.
    fn mined(per: i64, min_ps: usize, min_rec: usize) -> Vec<String> {
        let db = running_example_db();
        let res = RpGrowth::new(RpParams::new(per, min_ps, min_rec)).mine(&db);
        res.patterns.iter().map(|p| p.display(db.items()).to_string()).collect()
    }

    #[test]
    fn running_example_reproduces_table_2() {
        let got = mined(2, 3, 2);
        let expected = vec![
            "{a} [support=8, recurrence=2, {[1,4]:4}, {[11,14]:3}]",
            "{b} [support=7, recurrence=2, {[1,4]:3}, {[11,14]:3}]",
            "{d} [support=6, recurrence=2, {[2,5]:3}, {[9,12]:3}]",
            "{e} [support=6, recurrence=2, {[3,6]:3}, {[10,12]:3}]",
            "{f} [support=6, recurrence=2, {[3,6]:3}, {[10,12]:3}]",
            "{a,b} [support=7, recurrence=2, {[1,4]:3}, {[11,14]:3}]",
            "{c,d} [support=6, recurrence=2, {[2,5]:3}, {[9,12]:3}]",
            "{e,f} [support=6, recurrence=2, {[3,6]:3}, {[10,12]:3}]",
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn c_is_candidate_but_not_recurring_example_10() {
        // 'c' must be recurrence-tested (Erec(c)=2 ≥ minRec) yet rejected,
        // while its superset 'cd' is emitted — the anti-monotonicity failure
        // the model is built around.
        let db = running_example_db();
        let res = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db);
        let c = db.items().id("c").unwrap();
        let has_c_alone = res.patterns.iter().any(|p| p.items == vec![c]);
        assert!(!has_c_alone);
        let cd = db.pattern_ids(&["c", "d"]).unwrap();
        assert!(res.patterns.iter().any(|p| p.items == cd));
    }

    #[test]
    fn stats_reflect_pruning() {
        let db = running_example_db();
        let res = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db);
        let s = res.stats;
        assert_eq!(s.candidate_items, 6);
        assert_eq!(s.scanned_items, 7);
        assert_eq!(s.patterns_found, 8);
        assert!(s.candidates_checked >= 8);
        assert!(s.recurrence_tests <= s.candidates_checked);
        assert!(s.max_depth >= 2);
        assert!(s.conditional_trees >= 3); // at least for f, d, b
        assert!(s.scratch_bytes_peak > 0, "scratch footprint is accounted");
        assert_eq!(s.regions_stolen, 0, "sequential runs never steal");
        assert_eq!(s.normalized().scratch_bytes_peak, 0);
    }

    #[test]
    fn min_rec_one_recovers_all_periodic_interval_patterns() {
        // With minRec=1 every candidate with one interesting interval
        // qualifies; 'c' and 'g' now appear.
        let db = running_example_db();
        let res = RpGrowth::new(RpParams::new(2, 3, 1)).mine(&db);
        let c = db.items().id("c").unwrap();
        let g = db.items().id("g").unwrap();
        assert!(res.patterns.iter().any(|p| p.items == vec![c]));
        assert!(res.patterns.iter().any(|p| p.items == vec![g]));
        assert!(res.patterns.len() > 8);
    }

    #[test]
    fn stricter_parameters_yield_fewer_patterns() {
        let loose = mined(2, 3, 1).len();
        let base = mined(2, 3, 2).len();
        let strict_ps = mined(2, 4, 2).len();
        let strict_rec = mined(2, 3, 3).len();
        assert!(loose >= base);
        assert!(base >= strict_ps);
        assert!(base >= strict_rec);
    }

    #[test]
    fn empty_db_mines_nothing() {
        let db = rpm_timeseries::TransactionDb::builder().build();
        let res = RpGrowth::new(RpParams::new(2, 1, 1)).mine(&db);
        assert!(res.patterns.is_empty());
        assert_eq!(res.stats.candidates_checked, 0);
    }

    #[test]
    fn single_transaction_db() {
        let mut b = rpm_timeseries::TransactionDb::builder();
        b.add_labeled(5, &["x", "y"]);
        let db = b.build();
        let res = RpGrowth::new(RpParams::new(1, 1, 1)).mine(&db);
        // x, y and xy all have one singleton interval [5,5]:1.
        assert_eq!(res.patterns.len(), 3);
        for p in &res.patterns {
            assert_eq!(p.recurrence(), 1);
            assert_eq!(p.intervals[0].start, 5);
            assert_eq!(p.intervals[0].periodic_support, 1);
        }
    }

    #[test]
    fn patterns_are_verifiable_against_raw_db() {
        // Every emitted pattern's support/intervals must match a from-scratch
        // recomputation on the database.
        let db = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let res = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db);
        for p in &res.patterns {
            let ts = db.timestamps_of(&p.items);
            assert_eq!(ts.len(), p.support);
            let intervals =
                crate::measures::get_recurrence(&ts, params).expect("pattern must be recurring");
            assert_eq!(intervals, p.intervals);
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        // One warm scratch across many runs (different databases and
        // parameters) must produce byte-identical output to cold runs —
        // the regression test for stale scratch state.
        use rpm_timeseries::prng::Pcg32;
        let mut cases: Vec<(TransactionDb, ResolvedParams)> =
            [(2, 3, 2), (1, 1, 1), (2, 3, 1), (3, 2, 2), (2, 3, 2)]
                .into_iter()
                .map(|(per, min_ps, min_rec)| {
                    (running_example_db(), ResolvedParams::new(per, min_ps, min_rec))
                })
                .collect();
        // Twenty seeded databases of varied width, length and density.
        let mut rng = Pcg32::seed_from_u64(20);
        for _ in 0..20 {
            let width = rng.random_range(4..14usize);
            let density = 0.15 + 0.5 * rng.random_f64();
            let mut b = TransactionDb::builder();
            for ts in 0..rng.random_range(40..240i64) {
                let labels: Vec<String> = (0..width)
                    .filter(|_| rng.random_f64() < density)
                    .map(|i| format!("i{i}"))
                    .collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    b.add_labeled(ts, &refs);
                }
            }
            let params = ResolvedParams::new(
                rng.random_range(1..5i64),
                rng.random_range(1..6usize),
                rng.random_range(1..4usize),
            );
            cases.push((b.build(), params));
        }
        let mut scratch = MineScratch::new();
        for (case, (db, params)) in cases.iter().enumerate() {
            let list = RpList::build(db, *params);
            let mine = |scratch: &mut MineScratch| {
                mine_list(db, &list, *params, 1, &RunControl::new(), &NOOP, scratch, None).0
            };
            let warm = mine(&mut scratch);
            let cold = mine(&mut MineScratch::new());
            assert_eq!(warm.patterns, cold.patterns, "case {case} params {params:?}");
            assert_eq!(
                warm.stats.normalized(),
                cold.stats.normalized(),
                "stats diverged for case {case} params {params:?}"
            );
        }
    }
}
