//! Parallel RP-growth: the same search, partitioned by suffix item, scheduled
//! by work-stealing.
//!
//! After the RP-list scan, the pattern space splits into disjoint regions —
//! all patterns whose **lowest-ranked** (least frequent) item is `r`. One
//! global RP-tree is built (its projection pass chunked across threads by
//! `insert_chunked`, the inserts replayed in transaction order so the tree
//! is bit-identical to the sequential one), then `grow_regions` derives
//! each region from the immutable tree with no locking:
//!
//! * the singleton `TS^r` — the ts-lists of all nodes in the subtrees of
//!   `r`'s node-links, exactly the list the sequential miner sees after
//!   pushing ranks `> r` up (Property 3 makes the segments disjoint) — is
//!   the candidate's per-item stream, so its measures are read off the
//!   RP-list;
//! * each `r`-node's conditional-pattern-base entry is its ancestor path
//!   plus its subtree-merged ts-list, reproducing the sequential
//!   `prefix_paths` at the moment `r` is bottom-most.
//!
//! Regions are queued largest-first (estimated by `support · rank`, a proxy
//! for projected-database volume times recursion depth) behind a shared
//! atomic cursor; idle workers steal the next region instead of idling
//! behind a static partition. Each worker owns a [`MineScratch`], so the
//! hot path stays allocation-free per worker.
//!
//! Both helpers are stages of the one pipeline, `growth::mine_list`, which
//! runs them whenever a miner is given more than one thread — the delta
//! miner's full fallback included. Its frontier walk over an append's tail
//! uses neither: it runs on the calling thread (`crate::delta`). The output —
//! patterns **and** the algorithmic counters of [`MiningStats`] (see
//! [`MiningStats::normalized`]) — is exactly the sequential recursion's,
//! asserted across thread counts by `tests/parallel_equivalence.rs`; only
//! the execution strategy differs. The paper evaluates a single-threaded
//! implementation, so this module is an engineering extension, benchmarked
//! in `rpm-bench`'s `hotpath` binary.

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

use rpm_timeseries::{ItemId, Timestamp, TransactionDb};

use crate::checkpoint::ResumeEntry;
use crate::engine::control::{AbortReason, RunControl};
use crate::engine::observer::Observer;
use crate::growth::{grow, Exec, MineScratch, MiningStats, PathBounds};
use crate::params::ResolvedParams;
use crate::pattern::RecurringPattern;
use crate::rplist::RpList;
use crate::tree::{TsTree, ROOT};

/// First-win slot for the abort reason of [`grow_regions`]: whichever
/// worker trips a limit first records why; siblings observing the shared
/// halt flag keep their (derived) reasons to themselves.
struct AbortCell(AtomicU8);

impl AbortCell {
    fn new() -> Self {
        AbortCell(AtomicU8::new(0))
    }

    fn record(&self, reason: AbortReason) {
        let code = match reason {
            AbortReason::Cancelled => 1,
            AbortReason::DeadlineExceeded => 2,
            AbortReason::ScratchBudgetExceeded => 3,
        };
        let _ = self.0.compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    fn get(&self) -> Option<AbortReason> {
        match self.0.load(Ordering::Relaxed) {
            1 => Some(AbortReason::Cancelled),
            2 => Some(AbortReason::DeadlineExceeded),
            3 => Some(AbortReason::ScratchBudgetExceeded),
            _ => None,
        }
    }
}

/// The second scan (Algorithm 2), chunked: `threads` workers project
/// disjoint transaction ranges into flat rank buffers, then the inserts
/// are replayed into `tree` in transaction order, so the tree is
/// bit-identical to the sequential build, which the region derivation of
/// [`grow_regions`] relies on.
pub(crate) fn insert_chunked(db: &TransactionDb, list: &RpList, threads: usize, tree: &mut TsTree) {
    let nt = db.len();
    let chunk = nt.div_ceil(threads);
    type Projected = (Vec<u32>, Vec<(u32, u32, Timestamp)>);
    let parts: Vec<Projected> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let lo = w * chunk;
                    let hi = nt.min(lo + chunk);
                    let mut flat: Vec<u32> = Vec::new();
                    let mut rows: Vec<(u32, u32, Timestamp)> = Vec::new();
                    let mut ranks: Vec<u32> = Vec::new();
                    for i in lo..hi {
                        let t = db.transaction(i);
                        list.project_into(t.items(), &mut ranks);
                        if !ranks.is_empty() {
                            let s0 = flat.len() as u32;
                            flat.extend_from_slice(&ranks);
                            rows.push((s0, flat.len() as u32, t.timestamp()));
                        }
                    }
                    (flat, rows)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("projection worker panicked")).collect()
    });
    for (flat, rows) in &parts {
        for &(s0, s1, ts) in rows {
            tree.insert(&flat[s0 as usize..s1 as usize], ts);
        }
    }
}

/// Grows every region of the immutable global `tree` on `threads`
/// work-stealing workers, folding their counters into `stats`. Workers
/// poll the shared control between stolen regions *and* at every candidate
/// boundary inside a region; the first to trip raises a shared halt flag so
/// siblings stop within one candidate as well. Returns the patterns (not
/// yet in canonical order) and the abort reason when a limit tripped. With
/// a `resume` sink, each worker collects its patterns' resume entries
/// locally and they are appended to the sink after the join.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_regions(
    tree: &TsTree,
    list: &RpList,
    params: ResolvedParams,
    threads: usize,
    control: &RunControl,
    observer: &dyn Observer,
    stats: &mut MiningStats,
    mut resume: Option<&mut Vec<ResumeEntry>>,
) -> (Vec<RecurringPattern>, Option<AbortReason>) {
    let n = list.len();
    // Largest-regions-first queue: support(r) bounds the region's total
    // ts volume and the rank bounds its recursion width, so their product
    // is a cheap work estimate. Workers claim regions through a shared
    // cursor — whoever is free takes the next one.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&r| {
        std::cmp::Reverse(list.candidates()[r as usize].support as u64 * (r as u64 + 1))
    });
    let order = &order;
    let cursor = &AtomicUsize::new(0);
    let halt = &AtomicBool::new(false);
    let abort_cell = &AbortCell::new();
    let done = &AtomicUsize::new(0);
    let capture = resume.is_some();

    type WorkerOut = (Vec<RecurringPattern>, MiningStats, Vec<ResumeEntry>);
    let results: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = MineScratch::new();
                    let mut out: Vec<RecurringPattern> = Vec::new();
                    let mut local = MiningStats::default();
                    let mut suffix: Vec<ItemId> = Vec::new();
                    let mut captured: Vec<ResumeEntry> = Vec::new();
                    let mut exec = Exec {
                        probe: control.start_with_halt(Some(halt)),
                        observer,
                        done,
                        total: n,
                        resume: capture.then_some(&mut captured),
                    };
                    loop {
                        if let Some(r) = exec.probe.poll_with(|| scratch.footprint_bytes()) {
                            abort_cell.record(r);
                            halt.store(true, Ordering::Relaxed);
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= order.len() {
                            break;
                        }
                        if i % threads != w {
                            local.regions_stolen += 1;
                        }
                        let before = local.candidates_checked;
                        let aborted = mine_region(
                            order[i],
                            tree,
                            list,
                            params,
                            &mut scratch,
                            &mut suffix,
                            &mut out,
                            &mut local,
                            &mut exec,
                        );
                        if aborted {
                            if let Some(r) = exec.probe.tripped() {
                                abort_cell.record(r);
                            }
                            halt.store(true, Ordering::Relaxed);
                            break;
                        }
                        exec.suffix_done(local.candidates_checked - before);
                    }
                    local.scratch_bytes_peak = scratch.footprint_bytes();
                    (out, local, captured)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut patterns = Vec::new();
    for (mut out, local, mut captured) in results {
        patterns.append(&mut out);
        merge_stats(stats, &local);
        if let Some(sink) = resume.as_deref_mut() {
            sink.append(&mut captured);
        }
    }
    (patterns, abort_cell.get())
}

/// Mines one region — the patterns whose lowest-ranked item is `r` — from
/// the immutable global tree, mirroring the sequential processing of rank
/// `r` exactly (same scans, same conditional tree, same counters). Returns
/// `true` when `exec`'s probe tripped mid-region.
#[allow(clippy::too_many_arguments)]
fn mine_region(
    r: u32,
    tree: &TsTree,
    list: &RpList,
    params: ResolvedParams,
    scratch: &mut MineScratch,
    suffix: &mut Vec<ItemId>,
    out: &mut Vec<RecurringPattern>,
    local: &mut MiningStats,
    exec: &mut Exec<'_>,
) -> bool {
    local.max_depth = local.max_depth.max(1);
    local.candidates_checked += 1;

    // Gather the subtree ts segments of every r-node (disjoint by
    // Property 3) for the base construction below.
    {
        let MineScratch { segs, seg_bounds, stack, .. } = &mut *scratch;
        segs.clear();
        seg_bounds.clear();
        for &rn in tree.links(r) {
            let s0 = segs.len() as u32;
            debug_assert!(stack.is_empty());
            stack.push(rn);
            while let Some(x) = stack.pop() {
                let node = tree.node(x);
                if !node.ts.is_empty() {
                    segs.push(x);
                }
                stack.extend_from_slice(&node.children);
            }
            seg_bounds.push((s0, segs.len() as u32));
        }
    }
    // The region's singleton ts-list is exactly the candidate's per-item
    // stream, whose measures the RP-list carries. Every rank of the global
    // tree is a candidate, so the lookup always succeeds.
    let Some((summary, intervals)) = list.singleton(r) else { return false };
    if summary.erec < params.min_rec {
        return false;
    }
    local.recurrence_tests += 1;
    suffix.clear();
    suffix.push(list.item_at(r));
    if summary.interesting >= params.min_rec {
        out.push(RecurringPattern::new(suffix.clone(), summary.support, intervals.to_vec()));
    }

    // Conditional-pattern-base: per r-node, the ancestor path plus the
    // node's subtree-merged ts-list (what the sequential push-ups would
    // have accumulated on it by the time rank r is bottom-most).
    {
        let MineScratch { heap, walk, path_ranks, path_ts, paths, segs, seg_bounds, .. } =
            &mut *scratch;
        path_ranks.clear();
        path_ts.clear();
        paths.clear();
        for (k, &rn) in tree.links(r).iter().enumerate() {
            walk.clear();
            let mut cur = tree.node(rn).parent;
            while cur != ROOT {
                let (rank, parent) = tree.rank_parent(cur);
                walk.push(rank);
                cur = parent;
            }
            if walk.is_empty() {
                continue;
            }
            let rs = path_ranks.len() as u32;
            path_ranks.extend(walk.iter().rev().copied());
            let t0 = path_ts.len() as u32;
            let (s0, s1) = seg_bounds[k];
            heap.merge(s1 - s0, |i| &tree.node(segs[(s0 + i) as usize]).ts, |t| path_ts.push(t));
            if path_ts.len() as u32 == t0 {
                path_ranks.truncate(rs as usize);
                continue;
            }
            paths.push(PathBounds {
                rs,
                re: path_ranks.len() as u32,
                ts: t0,
                te: path_ts.len() as u32,
            });
        }
    }
    if let Some(mut cond) = scratch.build_conditional(params) {
        local.conditional_trees += 1;
        local.tree_nodes += cond.node_count();
        let aborted = grow(&mut cond, list, params, suffix, out, local, scratch, exec, false);
        scratch.recycle(cond);
        return aborted;
    }
    false
}

fn merge_stats(into: &mut MiningStats, from: &MiningStats) {
    into.candidates_checked += from.candidates_checked;
    into.recurrence_tests += from.recurrence_tests;
    into.conditional_trees += from.conditional_trees;
    into.tree_nodes += from.tree_nodes;
    into.max_depth = into.max_depth.max(from.max_depth);
    into.scratch_bytes_peak += from.scratch_bytes_peak;
    into.regions_stolen += from.regions_stolen;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MiningSession;
    use crate::growth::MiningResult;
    use rpm_timeseries::running_example_db;

    fn mine(db: &TransactionDb, params: ResolvedParams, threads: usize) -> MiningResult {
        let session = MiningSession::builder().resolved(params).threads(threads).build().unwrap();
        session.mine(db).unwrap().into_result()
    }

    #[test]
    fn matches_sequential_on_running_example() {
        let db = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let seq = mine(&db, params, 1);
        for threads in [2, 4, 8] {
            let par = mine(&db, params, threads);
            assert_eq!(par.patterns, seq.patterns, "threads={threads}");
            assert_eq!(
                par.stats.normalized(),
                seq.stats.normalized(),
                "stats diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn matches_sequential_on_random_databases() {
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(7);
        for case in 0..8 {
            let mut b = TransactionDb::builder();
            for ts in 0..150i64 {
                let labels: Vec<String> =
                    (0..8).filter(|_| rng.random_f64() < 0.3).map(|i| format!("i{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    b.add_labeled(ts, &refs);
                }
            }
            let db = b.build();
            let params = ResolvedParams::new(
                rng.random_range(1..5i64),
                rng.random_range(2..5usize),
                rng.random_range(1..3usize),
            );
            let par = mine(&db, params, 4);
            let seq = mine(&db, params, 1);
            assert_eq!(par.patterns, seq.patterns, "case {case} params {params:?}");
            assert_eq!(
                par.stats.normalized(),
                seq.stats.normalized(),
                "case {case} params {params:?}"
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        use crate::engine::observer::NOOP;
        use crate::growth::mine_list;
        let db = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let list = RpList::build(&db, params);
        let control = RunControl::new();
        let (par, _) =
            mine_list(&db, &list, params, 0, &control, &NOOP, &mut MineScratch::new(), None);
        assert_eq!(par.patterns.len(), 8);
    }

    #[test]
    fn stats_aggregate_across_workers() {
        let db = running_example_db();
        let par = mine(&db, ResolvedParams::new(2, 3, 2), 3);
        assert_eq!(par.stats.patterns_found, 8);
        assert_eq!(par.stats.candidate_items, 6);
        assert!(par.stats.candidates_checked >= 6);
        assert!(par.stats.scratch_bytes_peak > 0);
    }

    #[test]
    fn single_thread_steals_nothing() {
        let db = running_example_db();
        let seq = mine(&db, ResolvedParams::new(2, 3, 2), 1);
        assert_eq!(seq.stats.regions_stolen, 0);
    }
}
