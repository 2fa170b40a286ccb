//! The LRU result cache: complete mining results keyed by
//! `(dataset fingerprint, ResolvedParams)`.
//!
//! Popular thresholds repeat — a dashboard polling "patterns at 2%" should
//! re-mine only when the dataset changes. The key's dataset half is the
//! content fingerprint ([`rpm_timeseries::fingerprint`]), so an append
//! *implicitly* invalidates every entry of the old content; the registry
//! additionally calls [`ResultCache::invalidate_fingerprint`] on append so
//! stale entries free their memory immediately instead of aging out.
//!
//! Only **complete** results are cached. A partial result reflects a
//! deadline, not the data; serving it from cache would return different
//! answers for identical state.
//!
//! Because the key names content, not a dataset, a hit is a complete
//! result for one committed version whatever lock its reader holds. That
//! is what lets `POST …/mine` serve a hit from the dataset's published
//! head without the dataset lock ([`ResultCache::hit`]): a head that is
//! one append behind still names a version that existed, and a head that
//! is ahead of the cache misses and falls through to the locked path,
//! which waits for the append's patch.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rpm_core::pattern::RecurringPattern;
use rpm_core::sync::lock_recover;
use rpm_core::{PatternIndex, ResolvedParams};

/// One cached complete result: the rendered JSON-lines body served byte-for-
/// byte on a hit, the patterns themselves, and a lazily built stabbing index
/// for `active?at=` queries against the same key.
#[derive(Debug)]
pub struct CachedResult {
    /// JSON-lines body exactly as first served.
    pub body: Arc<Vec<u8>>,
    /// The mined pattern set.
    pub patterns: Arc<Vec<RecurringPattern>>,
    index: OnceLock<Arc<PatternIndex>>,
}

impl CachedResult {
    /// Creates an entry; the index is built on first [`CachedResult::index`].
    /// The body is trimmed to its length, so the cache holds exactly the
    /// bytes its budget charges for.
    pub fn new(mut body: Vec<u8>, patterns: Vec<RecurringPattern>) -> Self {
        body.shrink_to_fit();
        Self { body: Arc::new(body), patterns: Arc::new(patterns), index: OnceLock::new() }
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
        self.body.len() + pattern_bytes * 2
    }
}

#[derive(Debug)]
struct Slot {
    result: Arc<CachedResult>,
    cost: usize,
    last_used: u64,
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
    /// Removes every entry keyed to the dataset content `fingerprint`,
    /// returning how many were dropped. The caller decides which counter
    /// they land in (invalidations vs. part of a patch).
    fn remove_fingerprint(&mut self, fingerprint: u64) -> u64 {
        let stale: Vec<(u64, ResolvedParams)> =
            self.slots.keys().filter(|(fp, _)| *fp == fingerprint).copied().collect();
        let mut dropped = 0;
        for key in stale {
            if let Some(slot) = self.slots.remove(&key) {
                self.bytes -= slot.cost;
                dropped += 1;
            }
        }
        dropped
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
        let tick = self.tick;
        if let Some(old) = self.slots.insert(key, Slot { result, cost, last_used: tick }) {
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
    /// called by the registry when an append retires that content.
    pub fn invalidate_fingerprint(&self, fingerprint: u64) {
        let mut state = lock_recover(&self.state);
        let dropped = state.remove_fingerprint(fingerprint);
        state.invalidations += dropped;
    }

    /// Atomically retires every entry of `old_fingerprint` and installs a
    /// fresh delta-mined result under `(new_fingerprint, params)` — the
    /// append path's alternative to [`ResultCache::invalidate_fingerprint`]
    /// when the dataset's pattern store could absorb the append
    /// incrementally. Entries of the old content at *other* parameters
    /// cannot be patched (the delta ran at the hot parameters only); they
    /// count as invalidations as usual, while the in-place replacement
    /// counts as a patch, not a miss-then-insert.
    pub fn patch(
        &self,
        old_fingerprint: u64,
        new_fingerprint: u64,
        params: ResolvedParams,
        result: Arc<CachedResult>,
    ) {
        let cost = result.cost_bytes();
        let mut state = lock_recover(&self.state);
        let dropped = state.remove_fingerprint(old_fingerprint);
        if cost > self.budget_bytes {
            // Too big to hold: the patch degenerates to an invalidation.
            state.invalidations += dropped;
            return;
        }
        state.invalidations += dropped.saturating_sub(1);
        state.patches += 1;
        // lint:allow(lock-order): insert_evicting touches only the guarded CacheState; its `slots.insert` is HashMap::insert, which the name-based resolver confuses with ResultCache::insert — no re-entry
        state.insert_evicting((new_fingerprint, params), result, cost, self.budget_bytes);
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
    fn patch_replaces_hot_entry_and_invalidates_the_rest() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(1, params(1), entry(10)); // hot-params entry
        cache.insert(1, params(2), entry(10)); // other-params entry
        cache.insert(9, params(1), entry(10)); // unrelated dataset
        cache.patch(1, 2, params(1), entry(20));
        // Old content fully retired; the patched key serves immediately.
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
    fn oversized_patch_degenerates_to_invalidation() {
        let cache = ResultCache::new(50);
        cache.insert(1, params(1), entry(10));
        cache.patch(1, 2, params(1), entry(1000));
        assert!(cache.get(2, params(1)).is_none());
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
