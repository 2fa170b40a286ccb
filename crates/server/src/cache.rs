//! The LRU result cache: complete mining results keyed by
//! `(dataset fingerprint, ResolvedParams)`.
//!
//! Popular thresholds repeat — a dashboard polling "patterns at 2%" should
//! re-mine only when the dataset changes. The key's dataset half is the
//! content fingerprint ([`rpm_timeseries::fingerprint`]), so an append
//! *implicitly* invalidates every entry of the old content; the server
//! additionally retires them with [`ResultCache::invalidate_fingerprint`]
//! once no head names that content, so stale entries free their memory
//! immediately instead of aging out. The entries are dropped after the
//! cache's mutex is released.
//!
//! Only **complete** results are cached. A partial result reflects a
//! deadline, not the data; serving it from cache would return different
//! answers for identical state.
//!
//! Because the key names content, not a dataset, a hit is a complete
//! result for one committed version whatever lock its reader holds. That
//! is what lets `POST …/mine` serve a hit from the dataset's published
//! head without the dataset lock ([`ResultCache::hit`]). An append moves
//! the head only once [`ResultCache::patch`] holds the new version's hot
//! entry, and retires the old version only after that, so a hot fetch
//! meanwhile is a hit on the version before it.
//!
//! An entry at a dataset's hot parameters also keeps where each pattern's
//! line ends in its body: the next append's patch splices its body from
//! them ([`rpm_core::splice_patterns_json`]) instead of rendering every
//! line again.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rpm_core::pattern::RecurringPattern;
use rpm_core::sync::lock_recover;
use rpm_core::{PatternIndex, RenderedLines, ResolvedParams};

/// One cached complete result: the rendered JSON-lines body served byte-for-
/// byte on a hit, the patterns themselves, and a lazily built stabbing index
/// for `active?at=` queries against the same key.
#[derive(Debug)]
pub struct CachedResult {
    /// JSON-lines body exactly as first served.
    pub body: Arc<Vec<u8>>,
    /// The mined pattern set.
    pub patterns: Arc<Vec<RecurringPattern>>,
    /// Where each pattern's line ends in `body`; kept only at a dataset's
    /// hot parameters, empty elsewhere.
    line_ends: Vec<u32>,
    index: OnceLock<Arc<PatternIndex>>,
}

impl CachedResult {
    /// Creates an entry without line ends; the index is built on first
    /// [`CachedResult::index`]. The body is trimmed to its length, so the
    /// cache holds exactly the bytes its budget charges for.
    pub fn new(body: Vec<u8>, patterns: Vec<RecurringPattern>) -> Self {
        Self::with_line_ends(body, Vec::new(), patterns)
    }

    /// Creates an entry that keeps where each pattern's line ends in
    /// `body`, as [`rpm_core::splice_patterns_json`] returned them.
    pub(crate) fn with_line_ends(
        mut body: Vec<u8>,
        mut line_ends: Vec<u32>,
        patterns: Vec<RecurringPattern>,
    ) -> Self {
        body.shrink_to_fit();
        line_ends.shrink_to_fit();
        Self {
            body: Arc::new(body),
            patterns: Arc::new(patterns),
            line_ends,
            index: OnceLock::new(),
        }
    }

    /// The patterns, body and line ends a splice starts from.
    pub(crate) fn lines(&self) -> RenderedLines<'_> {
        (&self.patterns, &self.body, &self.line_ends)
    }

    /// The interval-stabbing index over the cached patterns, built once.
    pub fn index(&self) -> Arc<PatternIndex> {
        self.index.get_or_init(|| Arc::new(PatternIndex::build(&self.patterns))).clone()
    }

    /// Approximate heap footprint, for the cache's byte budget.
    fn cost_bytes(&self) -> usize {
        let pattern_bytes: usize =
            self.patterns.iter().map(|p| p.items.len() * 4 + p.intervals.len() * 24 + 64).sum();
        // The index (if built) roughly doubles the pattern storage; charge
        // for it up front so building it cannot blow the budget later.
        self.body.len() + self.line_ends.len() * 4 + pattern_bytes * 2
    }
}

#[derive(Debug)]
struct Slot {
    result: Arc<CachedResult>,
    cost: usize,
    last_used: u64,
    /// The fingerprint of the entry that [`ResultCache::patch`] installed
    /// as this one's successor. A superseded entry is still served until it
    /// is retired, but retiring it is not an invalidation.
    successor: Option<u64>,
}

#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<(u64, ResolvedParams), Slot>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    patches: u64,
}

impl CacheState {
    /// Removes every entry keyed to the dataset content `fingerprint` and
    /// hands them back, so the caller drops them after releasing the lock.
    /// Each one not superseded by a patch counts as an invalidation.
    fn remove_fingerprint(&mut self, fingerprint: u64) -> Vec<Slot> {
        let stale: Vec<(u64, ResolvedParams)> =
            self.slots.keys().filter(|(fp, _)| *fp == fingerprint).copied().collect();
        let removed: Vec<Slot> = stale.iter().filter_map(|key| self.slots.remove(key)).collect();
        for slot in &removed {
            self.bytes -= slot.cost;
            self.invalidations += u64::from(slot.successor.is_none());
        }
        removed
    }

    /// Inserts one entry and evicts LRU victims until `budget` holds.
    fn insert_evicting(
        &mut self,
        key: (u64, ResolvedParams),
        result: Arc<CachedResult>,
        cost: usize,
        budget: usize,
    ) {
        self.tick += 1;
        let slot = Slot { result, cost, last_used: self.tick, successor: None };
        if let Some(old) = self.slots.insert(key, slot) {
            self.bytes -= old.cost;
        }
        self.bytes += cost;
        while self.bytes > budget {
            let Some((&victim, _)) = self.slots.iter().min_by_key(|(_, slot)| slot.last_used)
            else {
                break;
            };
            let Some(slot) = self.slots.remove(&victim) else { break };
            self.bytes -= slot.cost;
            self.evictions += 1;
        }
    }
}

/// A byte-budgeted LRU cache of complete mining results. All methods take
/// `&self`; interior state is behind one mutex (operations are O(entries),
/// which is dwarfed by the mining work they save).
#[derive(Debug)]
pub struct ResultCache {
    state: Mutex<CacheState>,
    budget_bytes: usize,
}

/// Counters describing cache effectiveness, reported by `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to mine.
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries dropped by append-driven invalidation.
    pub invalidations: u64,
    /// Append-driven patches: a delta mine replaced the old content's entry
    /// in place instead of invalidating it ([`ResultCache::patch`]).
    pub patches: u64,
    /// Current entry count.
    pub entries: usize,
    /// Current approximate footprint in bytes.
    pub bytes: usize,
}

impl ResultCache {
    /// A cache bounded to roughly `budget_bytes` of result data. A zero
    /// budget disables caching (every lookup is a miss).
    pub fn new(budget_bytes: usize) -> Self {
        Self { state: Mutex::new(CacheState::default()), budget_bytes }
    }

    /// Looks up a complete result, refreshing its recency on a hit.
    pub fn get(&self, fingerprint: u64, params: ResolvedParams) -> Option<Arc<CachedResult>> {
        self.lookup(fingerprint, params, true)
    }

    /// Like [`ResultCache::get`], but only a hit is counted: the lock-free
    /// hit path of `mine` falls through on a miss to a locked
    /// [`ResultCache::get`], which counts the request's one lookup.
    pub(crate) fn hit(
        &self,
        fingerprint: u64,
        params: ResolvedParams,
    ) -> Option<Arc<CachedResult>> {
        self.lookup(fingerprint, params, false)
    }

    /// The entry under `(fingerprint, params)`, counted as neither a hit
    /// nor a miss: what an append's patch splices its body from.
    pub(crate) fn peek(
        &self,
        fingerprint: u64,
        params: ResolvedParams,
    ) -> Option<Arc<CachedResult>> {
        lock_recover(&self.state).slots.get(&(fingerprint, params)).map(|slot| slot.result.clone())
    }

    fn lookup(
        &self,
        fingerprint: u64,
        params: ResolvedParams,
        count_miss: bool,
    ) -> Option<Arc<CachedResult>> {
        let mut state = lock_recover(&self.state);
        state.tick += 1;
        let tick = state.tick;
        match state.slots.get_mut(&(fingerprint, params)) {
            Some(slot) => {
                slot.last_used = tick;
                let result = slot.result.clone();
                state.hits += 1;
                Some(result)
            }
            None => {
                state.misses += u64::from(count_miss);
                None
            }
        }
    }

    /// Inserts a complete result, evicting least-recently-used entries until
    /// the byte budget holds. An entry larger than the whole budget is not
    /// cached at all.
    pub fn insert(&self, fingerprint: u64, params: ResolvedParams, result: Arc<CachedResult>) {
        let cost = result.cost_bytes();
        if cost > self.budget_bytes {
            return;
        }
        let mut state = lock_recover(&self.state);
        // lint:allow(lock-order): insert_evicting touches only the guarded CacheState; its `slots.insert` is HashMap::insert, which the name-based resolver confuses with ResultCache::insert — no re-entry
        state.insert_evicting((fingerprint, params), result, cost, self.budget_bytes);
    }

    /// Drops every entry mined from the dataset content `fingerprint` —
    /// called when no head names that content any more: after an append
    /// has moved its dataset's head past it, or after a replacing upload.
    /// The entries are freed after the cache's lock is released.
    pub fn invalidate_fingerprint(&self, fingerprint: u64) {
        let mut state = lock_recover(&self.state);
        let removed = state.remove_fingerprint(fingerprint);
        drop(state);
        drop(removed);
    }

    /// Installs a fresh delta-mined result under `(new_fingerprint,
    /// params)` as the successor of the `(old_fingerprint, params)` entry —
    /// the append path's alternative to a plain invalidation when the
    /// dataset's pattern store could absorb the append incrementally. It
    /// counts as a patch, not a miss-then-insert.
    ///
    /// The old content's entries stay in place, so readers whose head still
    /// names it keep hitting, until [`ResultCache::invalidate_fingerprint`]
    /// retires them: the superseded entry then leaves uncounted, and
    /// entries at *other* parameters, which the delta could not patch,
    /// count as invalidations. A caller that never retires loses them at
    /// the next patch along the same line of versions, so no more than one
    /// superseded version outlives its successor's patch.
    pub fn patch(
        &self,
        old_fingerprint: u64,
        new_fingerprint: u64,
        params: ResolvedParams,
        result: Arc<CachedResult>,
    ) {
        let cost = result.cost_bytes();
        if cost > self.budget_bytes {
            // Too big to hold: retiring the old content will invalidate it.
            return;
        }
        let mut state = lock_recover(&self.state);
        let unretired: Vec<u64> = state
            .slots
            .iter()
            .filter(|(_, slot)| slot.successor == Some(old_fingerprint))
            .map(|(&(fp, _), _)| fp)
            .collect();
        let removed: Vec<Slot> =
            unretired.into_iter().flat_map(|fp| state.remove_fingerprint(fp)).collect();
        if let Some(slot) = state.slots.get_mut(&(old_fingerprint, params)) {
            slot.successor = Some(new_fingerprint);
        }
        state.patches += 1;
        // lint:allow(lock-order): insert_evicting touches only the guarded CacheState; its `slots.insert` is HashMap::insert, which the name-based resolver confuses with ResultCache::insert — no re-entry
        state.insert_evicting((new_fingerprint, params), result, cost, self.budget_bytes);
        drop(state);
        drop(removed);
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let state = lock_recover(&self.state);
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            invalidations: state.invalidations,
            patches: state.patches,
            entries: state.slots.len(),
            bytes: state.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n_bytes: usize) -> Arc<CachedResult> {
        Arc::new(CachedResult::new(vec![b'x'; n_bytes], Vec::new()))
    }

    fn params(per: i64) -> ResolvedParams {
        ResolvedParams::new(per, 1, 1)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ResultCache::new(1 << 20);
        assert!(cache.get(7, params(1)).is_none());
        cache.insert(7, params(1), entry(10));
        let hit = cache.get(7, params(1)).expect("cached");
        assert_eq!(hit.body.len(), 10);
        // Different params or fingerprint miss.
        assert!(cache.get(7, params(2)).is_none());
        assert!(cache.get(8, params(1)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 1));
    }

    #[test]
    fn hit_counts_hits_but_not_misses() {
        let cache = ResultCache::new(1 << 20);
        assert!(cache.hit(7, params(1)).is_none());
        cache.insert(7, params(1), entry(10));
        assert_eq!(cache.hit(7, params(1)).expect("cached").body.len(), 10);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        // Budget fits two entries; touching the first makes the second the
        // eviction victim when a third arrives.
        let cache = ResultCache::new(250);
        cache.insert(1, params(1), entry(100));
        cache.insert(2, params(1), entry(100));
        assert!(cache.get(1, params(1)).is_some(), "refresh entry 1");
        cache.insert(3, params(1), entry(100));
        assert!(cache.get(1, params(1)).is_some(), "survivor");
        assert!(cache.get(2, params(1)).is_none(), "evicted as LRU");
        assert!(cache.get(3, params(1)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = ResultCache::new(50);
        cache.insert(1, params(1), entry(1000));
        assert!(cache.get(1, params(1)).is_none());
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert(1, params(1), entry(1));
        assert!(cache.get(1, params(1)).is_none());
    }

    #[test]
    fn invalidation_clears_only_the_fingerprint() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(1, params(1), entry(10));
        cache.insert(1, params(2), entry(10));
        cache.insert(2, params(1), entry(10));
        cache.invalidate_fingerprint(1);
        assert!(cache.get(1, params(1)).is_none());
        assert!(cache.get(1, params(2)).is_none());
        assert!(cache.get(2, params(1)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 2);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn patch_replaces_hot_entry_and_retiring_invalidates_the_rest() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(1, params(1), entry(10)); // hot-params entry
        cache.insert(1, params(2), entry(10)); // other-params entry
        cache.insert(9, params(1), entry(10)); // unrelated dataset
        cache.patch(1, 2, params(1), entry(20));
        // Until the old content is retired, readers on it still hit.
        assert_eq!(cache.peek(1, params(1)).unwrap().body.len(), 10);
        assert!(cache.peek(1, params(2)).is_some());
        assert_eq!(cache.peek(2, params(1)).unwrap().body.len(), 20);
        assert_eq!(cache.stats().invalidations, 0);
        cache.invalidate_fingerprint(1);
        assert!(cache.get(1, params(1)).is_none());
        assert!(cache.get(1, params(2)).is_none());
        assert_eq!(cache.get(2, params(1)).unwrap().body.len(), 20);
        assert!(cache.get(9, params(1)).is_some(), "other datasets untouched");
        let stats = cache.stats();
        assert_eq!(stats.patches, 1);
        assert_eq!(stats.invalidations, 1, "only the unpatchable params entry");
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn an_unretired_version_goes_at_the_next_patch_along_its_line() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(1, params(1), entry(10));
        cache.insert(1, params(2), entry(10));
        cache.insert(7, params(1), entry(10)); // another line of versions
        cache.patch(7, 8, params(1), entry(10));
        cache.patch(1, 2, params(1), entry(10));
        cache.patch(2, 3, params(1), entry(10));
        // Version 1 was never retired; patching its successor retires it.
        assert!(cache.peek(1, params(1)).is_none());
        assert!(cache.peek(1, params(2)).is_none());
        assert!(cache.peek(2, params(1)).is_some(), "the version just superseded stays");
        assert!(cache.peek(7, params(1)).is_some(), "other lines untouched");
        assert_eq!(cache.stats().invalidations, 1, "the unpatchable params entry");
        cache.invalidate_fingerprint(2);
        let stats = cache.stats();
        assert_eq!((stats.patches, stats.invalidations, stats.entries), (3, 1, 3));
    }

    #[test]
    fn oversized_patch_degenerates_to_invalidation() {
        let cache = ResultCache::new(50);
        cache.insert(1, params(1), entry(10));
        cache.patch(1, 2, params(1), entry(1000));
        assert!(cache.get(2, params(1)).is_none());
        cache.invalidate_fingerprint(1);
        let stats = cache.stats();
        assert_eq!(stats.patches, 0);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let cache = ResultCache::new(1 << 10);
        cache.insert(1, params(1), entry(100));
        cache.insert(1, params(1), entry(200));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(1, params(1)).unwrap().body.len(), 200);
    }

    #[test]
    fn bodies_are_stored_exact_size() {
        let mut body = Vec::with_capacity(4096);
        body.extend_from_slice(b"{}\n");
        let entry = CachedResult::new(body, Vec::new());
        assert_eq!(entry.body.capacity(), entry.body.len());
    }

    #[test]
    fn index_is_built_once_and_shared() {
        let result = entry(4);
        let a = result.index();
        let b = result.index();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.is_empty());
    }
}
