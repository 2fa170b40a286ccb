//! The RP-tree (paper §4.2.1–4.2.2, Algorithms 2–3): a prefix tree over
//! candidate-item projections whose **tail nodes** carry the timestamps of
//! the transactions ending there. No node stores a support count — unlike an
//! FP-tree — because both the frequency *and* the periodic behaviour of a
//! pattern are recoverable from ts-lists alone (Lemma 1).
//!
//! Nodes live in a flat arena (`Vec<Node>`) addressed by `u32` indices;
//! parent / child / node-link "pointers" are indices, which keeps ownership
//! trivial and traversal cache friendly.
//!
//! Two invariants hold at all times and carry the mining hot path:
//!
//! * **Every ts-list is sorted ascending.** Appends that would break order
//!   are merged in place (transaction projections arrive in timestamp
//!   order, so the common case is a plain append). Sorted segments are what
//!   make the k-way merge of [`TsTree::for_each_ts`] and the
//!   order-preserving [`TsTree::push_up_and_remove`] possible.
//! * **Children are sorted by rank**, so [`TsTree::insert`] locates or
//!   creates a child with a binary search instead of a linear scan.
//!
//! The arena is reusable: [`TsTree::reset`] clears the tree while keeping
//! every allocation (node structs, per-node child/ts buffers, node links),
//! which lets the miner recycle conditional trees from a pool instead of
//! rebuilding them from cold allocations.

use rpm_timeseries::Timestamp;

use crate::merge::{merge_into_sorted, MergeHeap};

/// Index of a node within the arena. The root is always `ROOT`.
pub type NodeIdx = u32;

/// Arena index of the root node.
pub const ROOT: NodeIdx = 0;

/// A node of the prefix tree. `ts` is empty for *ordinary* nodes and
/// non-empty for *tail* nodes (the last item of at least one inserted
/// transaction) — and, during mining, for nodes that received pushed-up
/// ts-lists (Lemma 3).
#[derive(Debug, Clone)]
pub struct Node {
    /// Rank of the node's item in the tree's item order (`u32::MAX` at root).
    pub rank: u32,
    /// Parent node index (`ROOT`'s parent is itself).
    pub parent: NodeIdx,
    /// Child node indices, sorted by the children's ranks.
    pub children: Vec<NodeIdx>,
    /// Accumulated timestamps, always sorted ascending.
    pub ts: Vec<Timestamp>,
}

/// A prefix tree over item *ranks* with tail-node ts-lists and per-rank node
/// links. Used both for the global RP-tree and for every prefix/conditional
/// tree built during mining, as well as by the PF-tree baseline.
#[derive(Debug, Clone)]
pub struct TsTree {
    /// Node arena; `nodes[..live]` are in use, the rest are recycled
    /// capacity from before the last [`TsTree::reset`].
    nodes: Vec<Node>,
    live: usize,
    /// `links[r]` = indices of all live nodes whose item has rank `r`, in
    /// creation order. May be longer than `n_ranks` after a shrinking reset.
    links: Vec<Vec<NodeIdx>>,
    n_ranks: usize,
    /// Ranks whose link list was touched since the last reset (so reset
    /// clears only those).
    used_ranks: Vec<u32>,
    /// Compact `(rank, parent)` per node, parallel to `nodes`. Ancestor
    /// walks and child binary searches read this 8-byte array instead of
    /// the ~10× larger node structs — the walks are pure pointer chasing,
    /// so cache-line density is what bounds them.
    compact: Vec<(u32, NodeIdx)>,
    /// Scratch for order-preserving ts merges.
    merge_buf: Vec<Timestamp>,
}

impl TsTree {
    /// Creates a tree able to hold items with ranks `0..n_ranks`.
    pub fn new(n_ranks: usize) -> Self {
        let root = Node { rank: u32::MAX, parent: ROOT, children: Vec::new(), ts: Vec::new() };
        Self {
            nodes: vec![root],
            live: 1,
            links: vec![Vec::new(); n_ranks],
            n_ranks,
            used_ranks: Vec::new(),
            compact: vec![(u32::MAX, ROOT)],
            merge_buf: Vec::new(),
        }
    }

    /// Clears the tree for reuse with `n_ranks` ranks, keeping every buffer
    /// allocation (the node arena, per-node child/ts capacity, link lists).
    pub fn reset(&mut self, n_ranks: usize) {
        for &r in &self.used_ranks {
            if let Some(links) = self.links.get_mut(r as usize) {
                links.clear();
            }
        }
        self.used_ranks.clear();
        if self.links.len() < n_ranks {
            self.links.resize_with(n_ranks, Vec::new);
        }
        self.n_ranks = n_ranks;
        self.live = 1;
        if let Some(root) = self.nodes.get_mut(ROOT as usize) {
            root.children.clear();
            root.ts.clear();
        }
    }

    /// Number of ranks the tree was created (or last reset) for.
    pub fn rank_count(&self) -> usize {
        self.n_ranks
    }

    /// Total number of nodes, excluding the root. Counts every node created
    /// since the last reset, including nodes already removed by push-up —
    /// i.e. allocation work, matching the paper's node-count experiments.
    pub fn node_count(&self) -> usize {
        self.live - 1
    }

    /// Whether the tree holds no item nodes.
    pub fn is_empty(&self) -> bool {
        self.live == 1
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, idx: NodeIdx) -> &Node {
        &self.nodes[idx as usize]
    }

    /// The node-link list for `rank`.
    #[inline]
    pub fn links(&self, rank: u32) -> &[NodeIdx] {
        &self.links[rank as usize]
    }

    /// The `(rank, parent)` of node `idx`, read from the compact side array
    /// — ancestor walks should chase parents through this instead of
    /// [`TsTree::node`].
    #[inline]
    pub fn rank_parent(&self, idx: NodeIdx) -> (u32, NodeIdx) {
        self.compact[idx as usize]
    }

    /// Inserts a transaction projection (Algorithm 3, `insert_tree`):
    /// `ranks` must be sorted ascending (the candidate order established by
    /// the RP-list); `ts` is appended to the ts-list of the path's last node,
    /// making it a tail node.
    ///
    /// # Panics
    /// Panics (debug) if `ranks` is unsorted.
    pub fn insert(&mut self, ranks: &[u32], ts: Timestamp) {
        self.insert_with_ts_list(ranks, &[ts]);
    }

    /// Like [`TsTree::insert`] but appends a whole sorted ts-list at the
    /// tail — used when inserting conditional-pattern-base paths, whose
    /// tails carry the full ts-list of the originating node. The tail's
    /// ts-list stays sorted: out-of-order segments are merged in place.
    pub fn insert_with_ts_list(&mut self, ranks: &[u32], ts: &[Timestamp]) {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks must be strictly ascending");
        debug_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts segment must be sorted");
        if ranks.is_empty() {
            return;
        }
        let mut cur = ROOT;
        for &r in ranks {
            cur = self.child_or_insert(cur, r);
        }
        let Self { nodes, merge_buf, .. } = self;
        merge_into_sorted(&mut nodes[cur as usize].ts, ts, merge_buf);
    }

    fn child_or_insert(&mut self, parent: NodeIdx, rank: u32) -> NodeIdx {
        debug_assert!((rank as usize) < self.n_ranks, "rank out of range");
        let found = {
            let Self { nodes, compact, .. } = &*self;
            nodes[parent as usize].children.binary_search_by(|&c| compact[c as usize].0.cmp(&rank))
        };
        match found {
            Ok(i) => self.nodes[parent as usize].children[i],
            Err(i) => {
                let idx = self.alloc_node(rank, parent);
                self.nodes[parent as usize].children.insert(i, idx);
                let link = &mut self.links[rank as usize];
                if link.is_empty() {
                    self.used_ranks.push(rank);
                }
                link.push(idx);
                idx
            }
        }
    }

    /// Takes a node from the recycled arena tail, or grows the arena.
    fn alloc_node(&mut self, rank: u32, parent: NodeIdx) -> NodeIdx {
        let idx = self.live;
        if idx == self.nodes.len() {
            self.nodes.push(Node { rank, parent, children: Vec::new(), ts: Vec::new() });
            self.compact.push((rank, parent));
        } else {
            let n = &mut self.nodes[idx];
            n.rank = rank;
            n.parent = parent;
            n.children.clear();
            n.ts.clear();
            self.compact[idx] = (rank, parent);
        }
        self.live = idx + 1;
        idx as NodeIdx
    }

    /// Visits the sorted union of every `rank` node's ts-list — the
    /// pattern's `TS` list under the current projection (Algorithm 4
    /// line 2) — via a k-way merge of the per-node sorted segments, without
    /// materializing the union. `heap` is caller-owned scratch.
    ///
    /// Timestamps across nodes are disjoint (each transaction is mapped to
    /// exactly one path, Property 3), so the stream has no duplicates.
    #[inline]
    pub fn for_each_ts<F: FnMut(Timestamp)>(&self, rank: u32, heap: &mut MergeHeap, emit: F) {
        let link = &self.links[rank as usize];
        heap.merge(link.len() as u32, |i| &self.nodes[link[i as usize] as usize].ts, emit);
    }

    /// Materializes the sorted union of `rank`'s ts-lists into `out`
    /// (cleared first), reusing `heap` as merge scratch.
    pub fn merged_ts_into(&self, rank: u32, heap: &mut MergeHeap, out: &mut Vec<Timestamp>) {
        out.clear();
        self.for_each_ts(rank, heap, |t| out.push(t));
    }

    /// Allocating convenience wrapper around [`TsTree::merged_ts_into`].
    pub fn merged_ts(&self, rank: u32) -> Vec<Timestamp> {
        let mut heap = MergeHeap::new();
        let mut out = Vec::new();
        self.merged_ts_into(rank, &mut heap, &mut out);
        out
    }

    /// Enumerates the conditional-pattern-base of `rank`: for every node of
    /// `rank` with a non-empty ts-list, the prefix path (ranks from just
    /// below the root down to the node's parent, ascending) paired with the
    /// node's ts-list (sorted by invariant).
    ///
    /// This is the allocating convenience form; the miner's hot path builds
    /// the base into reusable scratch buffers instead (`MineScratch`).
    pub fn prefix_paths(&self, rank: u32) -> Vec<(Vec<u32>, Vec<Timestamp>)> {
        let mut out = Vec::new();
        for &n in self.links(rank) {
            let node = &self.nodes[n as usize];
            if node.ts.is_empty() {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = node.parent;
            while cur != ROOT {
                path.push(self.nodes[cur as usize].rank);
                cur = self.nodes[cur as usize].parent;
            }
            path.reverse();
            out.push((path, node.ts.clone()));
        }
        out
    }

    /// Removes every node of `rank` after pushing its ts-list up to its
    /// parent (Algorithm 4 line 9, justified by Lemma 3), merging so the
    /// parent's ts-list stays sorted. Assumes `rank` is the bottom-most live
    /// rank, i.e. its nodes have no children.
    pub fn push_up_and_remove(&mut self, rank: u32) {
        for k in 0..self.links[rank as usize].len() {
            let n = self.links[rank as usize][k];
            debug_assert!(
                self.nodes[n as usize].children.is_empty(),
                "push_up_and_remove requires the bottom-most rank"
            );
            let parent = self.nodes[n as usize].parent;
            debug_assert!(parent < n, "parents are allocated before their children");
            let Self { nodes, merge_buf, .. } = self;
            let (head, tail) = nodes.split_at_mut(n as usize);
            let child = &mut tail[0];
            let parent_node = &mut head[parent as usize];
            if parent_node.ts.is_empty() {
                // Keep both capacities: the child's buffer moves up whole.
                std::mem::swap(&mut parent_node.ts, &mut child.ts);
            } else {
                merge_into_sorted(&mut parent_node.ts, &child.ts, merge_buf);
                child.ts.clear();
            }
            // Bottom-up processing makes the removed child the highest rank
            // among its siblings, i.e. the last entry of the sorted list.
            if parent_node.children.last() == Some(&n) {
                parent_node.children.pop();
            } else {
                parent_node.children.retain(|&c| c != n);
            }
        }
        self.links[rank as usize].clear();
    }

    /// Timestamps accumulated at the root by push-ups (only used in tests to
    /// check conservation of transactions).
    pub fn root_ts_len(&self) -> usize {
        self.nodes[ROOT as usize].ts.len()
    }

    /// Total timestamps stored across all live nodes. For a freshly built
    /// tree this equals the number of inserted transactions — the paper's
    /// §4.2.1 memory argument: only tail nodes store occurrence
    /// information, versus one entry *per node on the path* in a naive
    /// design (`Σ |CI(t)|`, Lemma 2's bound).
    pub fn ts_entries(&self) -> usize {
        self.nodes[..self.live].iter().map(|n| n.ts.len()).sum()
    }

    /// Estimated heap footprint in bytes: node structs plus the allocated
    /// capacity of children and ts vectors — including recycled arena
    /// capacity, since reuse is the point of the pool. An estimate
    /// (allocator slack is not modelled), good enough for the A4 memory
    /// experiment and the scratch accounting.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.nodes.capacity() * std::mem::size_of::<Node>();
        for n in &self.nodes {
            bytes += n.children.capacity() * std::mem::size_of::<NodeIdx>();
            bytes += n.ts.capacity() * std::mem::size_of::<Timestamp>();
        }
        for links in &self.links {
            bytes += links.capacity() * std::mem::size_of::<NodeIdx>();
        }
        bytes += self.used_ranks.capacity() * std::mem::size_of::<u32>();
        bytes += self.compact.capacity() * std::mem::size_of::<(u32, NodeIdx)>();
        bytes += self.merge_buf.capacity() * std::mem::size_of::<Timestamp>();
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the RP-tree of the running example (Figure 5(b)).
    /// Ranks: a=0 b=1 c=2 d=3 e=4 f=5 (from the RP-list of Figure 4(f)).
    fn running_example_tree() -> TsTree {
        let mut t = TsTree::new(6);
        // Candidate projections of Table 1's transactions in ts order.
        let rows: [(&[u32], Timestamp); 12] = [
            (&[0, 1], 1),              // a,b,(g)
            (&[0, 2, 3], 2),           // a,c,d
            (&[0, 1, 4, 5], 3),        // a,b,e,f
            (&[0, 1, 2, 3], 4),        // a,b,c,d
            (&[2, 3, 4, 5], 5),        // c,d,e,f,(g)
            (&[4, 5], 6),              // e,f,(g)
            (&[0, 1, 2], 7),           // a,b,c,(g)
            (&[2, 3], 9),              // c,d
            (&[2, 3, 4, 5], 10),       // c,d,e,f
            (&[0, 1, 4, 5], 11),       // a,b,e,f
            (&[0, 1, 2, 3, 4, 5], 12), // all,(g)
            (&[0, 1], 14),             // a,b,(g)
        ];
        for (ranks, ts) in rows {
            t.insert(ranks, ts);
        }
        t
    }

    fn assert_invariants(t: &TsTree) {
        for rank in 0..t.rank_count() as u32 {
            for &n in t.links(rank) {
                let node = t.node(n);
                assert!(node.ts.windows(2).all(|w| w[0] <= w[1]), "ts sorted at node {n}");
                assert!(
                    node.children.windows(2).all(|w| t.node(w[0]).rank < t.node(w[1]).rank),
                    "children sorted by rank at node {n}"
                );
            }
        }
    }

    #[test]
    fn figure_5b_structure() {
        let t = running_example_tree();
        // Figure 5(b) has 16 item nodes.
        assert_eq!(t.node_count(), 16);
        // Tail 'b:1,14' under a: node of rank 1 with ts [1,14].
        let b_nodes = t.links(1);
        assert_eq!(b_nodes.len(), 1, "all b's share the a-prefix");
        assert_eq!(t.node(b_nodes[0]).ts, vec![1, 14]);
        // Four e-f chains: under a-b, under c-d, under a-b-c-d, under root.
        assert_eq!(t.links(4).len(), 4);
        assert_eq!(t.links(5).len(), 4);
        assert_invariants(&t);
    }

    #[test]
    fn merged_ts_recovers_pattern_timestamps_bottom_up() {
        // merged_ts(r) equals TS^X only once r is the bottom-most live rank
        // (deeper tails push their ts-lists up first) — the invariant
        // Algorithm 4 maintains by processing ranks bottom-up.
        let mut t = running_example_tree();
        // Rank 5 = f is bottom-most from the start: TS^f = {3,5,6,10,11,12}.
        assert_eq!(t.merged_ts(5), vec![3, 5, 6, 10, 11, 12]);
        // Before push-up, d's nodes only hold the transactions that *end*
        // at d (Table 1's ts 2, 4 and 9).
        assert_eq!(t.merged_ts(3), vec![2, 4, 9]);
        t.push_up_and_remove(5);
        t.push_up_and_remove(4);
        // Now d is bottom-most: TS^d = {2,4,5,9,10,12}.
        assert_eq!(t.merged_ts(3), vec![2, 4, 5, 9, 10, 12]);
        assert_invariants(&t);
    }

    #[test]
    fn prefix_paths_of_f_match_figure_6a() {
        let t = running_example_tree();
        let mut paths = t.prefix_paths(5);
        paths.sort();
        // PT_f: a,b,e → {3,11}; c,d,e → {5,10}; e → {6}; a,b,c,d,e → {12}.
        assert_eq!(
            paths,
            vec![
                (vec![0, 1, 2, 3, 4], vec![12]),
                (vec![0, 1, 4], vec![3, 11]),
                (vec![2, 3, 4], vec![5, 10]),
                (vec![4], vec![6]),
            ]
        );
    }

    #[test]
    fn push_up_moves_ts_to_parents_figure_6c() {
        let mut t = running_example_tree();
        t.push_up_and_remove(5);
        // After pruning f, the e-nodes carry f's ts-lists (Figure 6(c)):
        // e under a,b: [3,11]; e under c,d: [5,10]; e directly under root: [6];
        // e under a,b,c,d: [12].
        let mut flat: Vec<Timestamp> =
            t.links(4).iter().flat_map(|&n| t.node(n).ts.iter().copied()).collect();
        flat.sort_unstable();
        assert_eq!(flat, vec![3, 5, 6, 10, 11, 12]);
        assert!(t.links(5).is_empty());
        assert_eq!(t.merged_ts(5), Vec::<Timestamp>::new());
        assert_invariants(&t);
    }

    #[test]
    fn push_up_merges_keep_parent_ts_sorted() {
        // Parent that is itself a tail (ts [4]) receives child lists [1,9]
        // and [2,6]; the merge must interleave, not append.
        let mut t = TsTree::new(3);
        t.insert(&[0], 4);
        t.insert_with_ts_list(&[0, 1], &[1, 9]);
        t.insert_with_ts_list(&[0, 2], &[2, 6]);
        t.push_up_and_remove(2);
        t.push_up_and_remove(1);
        let a = t.links(0)[0];
        assert_eq!(t.node(a).ts, vec![1, 2, 4, 6, 9]);
    }

    #[test]
    fn insert_shares_prefixes() {
        let mut t = TsTree::new(3);
        t.insert(&[0, 1], 1);
        t.insert(&[0, 1, 2], 2);
        t.insert(&[0, 2], 3);
        // Nodes: 0, 1 (under 0), 2 (under 1), 2 (under 0) = 4.
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.links(0).len(), 1);
        assert_eq!(t.links(2).len(), 2);
        assert_invariants(&t);
    }

    #[test]
    fn insert_with_ts_list_keeps_tail_sorted() {
        let mut t = TsTree::new(2);
        t.insert_with_ts_list(&[0, 1], &[5, 9]);
        t.insert_with_ts_list(&[0, 1], &[2]); // out-of-order segment: merged
        let tail = t.links(1)[0];
        assert_eq!(t.node(tail).ts, vec![2, 5, 9]);
        t.insert_with_ts_list(&[0, 1], &[11]); // in-order segment: appended
        assert_eq!(t.node(tail).ts, vec![2, 5, 9, 11]);
        assert_eq!(t.merged_ts(1), vec![2, 5, 9, 11]);
    }

    #[test]
    fn children_stay_rank_sorted_under_any_insertion_order() {
        let mut t = TsTree::new(6);
        for &r in &[4u32, 1, 5, 0, 3, 2] {
            t.insert(&[r], r as Timestamp);
        }
        let root_children = &t.node(ROOT).children;
        let ranks: Vec<u32> = root_children.iter().map(|&c| t.node(c).rank).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
        // Re-inserting finds the existing child (no duplicates).
        t.insert(&[3], 10);
        assert_eq!(t.links(3).len(), 1);
        assert_eq!(t.node_count(), 6);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut t = TsTree::new(2);
        t.insert_with_ts_list(&[], &[1]);
        assert!(t.is_empty());
    }

    #[test]
    fn reset_recycles_arena_without_stale_state() {
        let mut t = running_example_tree();
        let bytes_before = t.memory_bytes();
        t.reset(3);
        assert!(t.is_empty());
        assert_eq!(t.rank_count(), 3);
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.ts_entries(), 0);
        for r in 0..3 {
            assert!(t.links(r).is_empty(), "stale links at rank {r}");
        }
        t.insert(&[0, 2], 1);
        t.insert(&[0, 1], 2);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.merged_ts(0), Vec::<Timestamp>::new());
        assert_eq!(t.merged_ts(2), vec![1]);
        // Node slots are recycled, not re-allocated.
        assert!(t.memory_bytes() <= bytes_before + 64, "arena was not reused");
        // Identical reset+insert cycles reach a steady state: no growth.
        let bytes_cycle = t.memory_bytes();
        t.reset(3);
        t.insert(&[0, 2], 1);
        t.insert(&[0, 1], 2);
        assert_eq!(t.memory_bytes(), bytes_cycle, "steady-state cycle still allocates");
        // Growing the rank space on reset works too.
        t.reset(10);
        t.insert(&[9], 5);
        assert_eq!(t.merged_ts(9), vec![5]);
        assert_invariants(&t);
    }

    #[test]
    fn ts_entries_equal_transactions_and_memory_is_positive() {
        let t = running_example_tree();
        assert_eq!(t.ts_entries(), 12, "one entry per inserted transaction");
        // Naive per-node storage would hold Σ|CI(t)| = 42 entries.
        let naive: usize = 42;
        assert!(t.ts_entries() < naive);
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn total_ts_is_conserved_under_push_up() {
        let mut t = running_example_tree();
        let total: usize = (0..6).map(|r| t.merged_ts(r).len()).sum();
        for rank in (0..6).rev() {
            t.push_up_and_remove(rank);
        }
        // Every inserted timestamp ends up at the root exactly once per
        // transaction (12 transactions).
        assert_eq!(t.root_ts_len(), 12);
        assert!(total >= 12);
    }
}
