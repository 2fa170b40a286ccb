//! Incremental mining over an append-only stream — the "incremental, online
//! … mining of partial periodic patterns" direction of Aref et al. (IEEE
//! TKDE 2004, the paper's reference \[12\]) transplanted to the recurring-
//! pattern model.
//!
//! [`IncrementalMiner`] ingests transactions in timestamp order and
//! maintains, per item, the crate's one per-item scan state: Algorithm 1's
//! `(idl, ps, erec)` record plus the interesting intervals closed so far. A
//! call to [`IncrementalMiner::mine`] therefore skips RP-growth's first
//! database pass entirely: the RP-list, singleton measures included, is
//! read off the live states, so only the tree construction and growth run
//! over the stored transactions. The delta miner ([`crate::delta`]) reads
//! its full fallback's list and every dirty singleton's measures the same
//! way.
//!
//! The miner also keeps the content [`rpm_timeseries::fingerprint`] of its
//! stream running: each label is folded into the label chain as it is
//! interned, and each transaction into the transaction chain, whose value
//! after every prefix is kept. [`IncrementalMiner::fingerprint`] joins the
//! two in O(1) instead of hashing the whole database per append.

use rpm_timeseries::{
    chain_label, chain_transaction, join_fingerprint, ItemId, ItemTable, Timestamp, TransactionDb,
    FNV1A_OFFSET,
};

use crate::checkpoint::PatternCheckpoint;
use crate::engine::observer::NOOP;
use crate::engine::RunControl;
use crate::growth::{mine_list, MineScratch, MiningResult};
use crate::params::ResolvedParams;
use crate::rplist::RpList;

/// An append-only recurring-pattern miner.
///
/// Parameters are fixed at construction with an **absolute** `minPS`: a
/// fractional threshold would change meaning as the stream grows, silently
/// reinterpreting past state.
///
/// ```
/// use rpm_core::{IncrementalMiner, ResolvedParams};
///
/// let mut miner = IncrementalMiner::new(ResolvedParams::new(2, 2, 1));
/// miner.append(1, &["a", "b"]).unwrap();
/// miner.append(2, &["a"]).unwrap();
/// miner.append(3, &["a", "b"]).unwrap();
/// let result = miner.mine();
/// assert!(!result.patterns.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalMiner {
    params: ResolvedParams,
    db: TransactionDb,
    /// Per item: Algorithm 1's resumable state over the whole stream and
    /// the interesting intervals it has closed.
    scans: Vec<PatternCheckpoint>,
    /// Per-item postings: ascending indices of the transactions containing
    /// the item. The delta miner ([`IncrementalMiner::mine_delta`]) unions
    /// the postings of the dirty candidates to visit only the transactions
    /// its frontier-projected tree needs, so delta cost tracks the dirty
    /// items' support instead of the database length.
    postings: Vec<Vec<u32>>,
    /// `prefix_hashes[i]` = the fingerprint's transaction chain
    /// ([`chain_transaction`]) over `transactions[0..=i]`. A same-timestamp
    /// merge rewrites only the last slot, so [`crate::delta::PatternStore`]
    /// snapshots can verify in O(1) that they describe a prefix of *this*
    /// stream (and whether the boundary transaction changed) without
    /// rescanning the database.
    prefix_hashes: Vec<u64>,
    /// The fingerprint's label chain ([`chain_label`]) over the item table.
    /// Labels are folded as they are interned, so the labels of a row
    /// rejected for time order, which stay in the table, count too.
    label_hash: u64,
}

impl IncrementalMiner {
    /// Creates an empty miner.
    pub fn new(params: ResolvedParams) -> Self {
        Self::with_items(ItemTable::new(), params)
    }

    /// Creates an empty miner with a pre-seeded vocabulary, so that
    /// [`IncrementalMiner::append_ids`] can be fed ids interned elsewhere
    /// (e.g. when replaying an existing [`TransactionDb`]).
    pub fn with_items(items: ItemTable, params: ResolvedParams) -> Self {
        let label_hash = items.labels().fold(FNV1A_OFFSET, chain_label);
        let mut db = TransactionDb::builder().build();
        *db.items_mut() = items;
        Self {
            params,
            db,
            scans: Vec::new(),
            postings: Vec::new(),
            prefix_hashes: Vec::new(),
            label_hash,
        }
    }

    /// The parameters the miner was created with.
    pub fn params(&self) -> ResolvedParams {
        self.params
    }

    /// Number of transactions ingested.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Read access to the accumulated database.
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// Content fingerprint of the accumulated database, equal to
    /// [`rpm_timeseries::fingerprint`] of [`IncrementalMiner::db`] but
    /// answered in O(1) from the running chains. Changes on every
    /// successful append, so serving layers can use it to key — and
    /// invalidate — caches of results mined from this stream.
    pub fn fingerprint(&self) -> u64 {
        join_fingerprint(self.label_hash, self.prefix_hash_at(self.db.len()))
    }

    /// Ingests one transaction. `ts` must be `>=` the last appended
    /// timestamp (equal timestamps merge); item state is updated in O(|t|).
    /// New labels are interned (and fingerprinted) before the order check,
    /// so a rejected row leaves them in the table.
    pub fn append(&mut self, ts: Timestamp, labels: &[&str]) -> rpm_timeseries::Result<()> {
        let mut ids = Vec::with_capacity(labels.len());
        for &label in labels {
            let known = self.db.item_count();
            let id = self.db.items_mut().intern(label);
            if id.index() == known {
                self.label_hash = chain_label(self.label_hash, label);
            }
            ids.push(id);
        }
        self.append_ids(ts, ids)
    }

    /// Ingests one transaction of pre-interned ids.
    pub fn append_ids(
        &mut self,
        ts: Timestamp,
        mut ids: Vec<ItemId>,
    ) -> rpm_timeseries::Result<()> {
        ids.sort_unstable();
        ids.dedup();
        // Validate order first so scanner state is never updated for a
        // rejected transaction.
        let before = self.db.len();
        self.db.append(ts, ids.clone())?;
        let tx = (self.db.len() - 1) as u32;
        for id in ids {
            let idx = id.index();
            if idx >= self.scans.len() {
                self.scans.resize_with(idx + 1, PatternCheckpoint::default);
                self.postings.resize_with(idx + 1, Vec::new);
            }
            // The open run's `idl` is the same-timestamp guard: an item
            // re-mentioned by a merge into the last transaction is skipped,
            // as the batch scan sees each (item, transaction) incidence once.
            self.scans[idx].feed(ts, self.params.per, self.params.min_ps);
            if self.postings[idx].last() != Some(&tx) {
                self.postings[idx].push(tx);
            }
        }
        // A same-timestamp merge rewrites the boundary transaction, so its
        // chained hash is recomputed from the immutable prefix either way.
        let base = if tx == 0 { FNV1A_OFFSET } else { self.prefix_hashes[tx as usize - 1] };
        let t = self.db.transaction(tx as usize);
        let h = chain_transaction(base, t.timestamp(), t.items());
        if self.db.len() == before {
            self.prefix_hashes[tx as usize] = h;
        } else {
            self.prefix_hashes.push(h);
        }
        Ok(())
    }

    /// Ascending indices of the transactions containing `item` (empty for
    /// items never appended).
    pub(crate) fn postings(&self, item: ItemId) -> &[u32] {
        self.postings.get(item.index()).map_or(&[], Vec::as_slice)
    }

    /// The fingerprint's transaction chain over the first `len`
    /// transactions, O(1).
    pub(crate) fn prefix_hash_at(&self, len: usize) -> u64 {
        if len == 0 {
            FNV1A_OFFSET
        } else {
            self.prefix_hashes[len - 1]
        }
    }

    /// The live scan state of `item` over the whole accumulated stream —
    /// what the batch RP-list scan reaches for it — or `None` for an item
    /// never appended.
    pub(crate) fn item_state(&self, item: ItemId) -> Option<&PatternCheckpoint> {
        self.scans.get(item.index())
    }

    /// The RP-list of the whole accumulated stream, singletons included,
    /// materialised from the live per-item states instead of a first
    /// database scan.
    pub(crate) fn live_list(&self) -> RpList {
        RpList::from_states(&self.scans, self.db.item_count(), self.params)
    }

    /// Mines the recurring patterns of everything ingested so far. The
    /// RP-list comes from the live per-item states (no first scan); tree
    /// construction and growth run as in the batch miner, so the output is
    /// identical to a [`crate::RpGrowth`] mine of [`IncrementalMiner::db`].
    pub fn mine(&self) -> MiningResult {
        let list = self.live_list();
        let control = RunControl::new();
        mine_list(&self.db, &list, self.params, 1, &control, &NOOP, &mut MineScratch::new(), None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MiningSession;
    use crate::pattern::PeriodicInterval;
    use rpm_timeseries::running_example_db;

    /// Batch-mining oracle, routed through the public engine entry point.
    fn mine_resolved(db: &TransactionDb, params: ResolvedParams) -> MiningResult {
        let session = MiningSession::builder().resolved(params).build().expect("valid params");
        session.mine(db).expect("mine").into_result()
    }

    #[test]
    fn matches_batch_miner_on_running_example() {
        let oracle_db = running_example_db();
        let params = ResolvedParams::new(2, 3, 2);
        let mut miner = IncrementalMiner::new(params);
        for t in oracle_db.transactions() {
            let labels: Vec<&str> = t.items().iter().map(|&i| oracle_db.items().label(i)).collect();
            miner.append(t.timestamp(), &labels).unwrap();
        }
        assert_eq!(miner.len(), 12);
        let incremental = miner.mine();
        let batch = mine_resolved(miner.db(), params);
        assert_eq!(incremental.patterns, batch.patterns);
        assert_eq!(incremental.patterns.len(), 8); // Table 2
    }

    #[test]
    fn mining_midstream_then_continuing() {
        let params = ResolvedParams::new(2, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        miner.append(1, &["x", "y"]).unwrap();
        miner.append(2, &["x", "y"]).unwrap();
        let early = miner.mine();
        assert!(early.patterns.iter().any(|p| p.items.len() == 2));
        // Continue the stream; state must keep accumulating correctly.
        miner.append(10, &["x"]).unwrap();
        miner.append(11, &["x"]).unwrap();
        let late = miner.mine();
        assert_eq!(late.patterns, mine_resolved(miner.db(), params).patterns);
        let x = miner.db().items().id("x").unwrap();
        let x_pat = late.patterns.iter().find(|p| p.items == vec![x]).unwrap();
        assert_eq!(x_pat.recurrence(), 2, "two separate runs of x");
    }

    #[test]
    fn rejects_time_regressions_without_corrupting_state() {
        let params = ResolvedParams::new(1, 1, 1);
        let mut miner = IncrementalMiner::new(params);
        miner.append(5, &["a"]).unwrap();
        assert!(miner.append(3, &["a", "b"]).is_err());
        // 'b' must not have been fed (the transaction was rejected)…
        miner.append(6, &["a"]).unwrap();
        let result = miner.mine();
        let batch = mine_resolved(miner.db(), params);
        assert_eq!(result.patterns, batch.patterns);
        assert_eq!(miner.len(), 2);
    }

    #[test]
    fn merges_equal_timestamps() {
        let params = ResolvedParams::new(1, 1, 1);
        let mut miner = IncrementalMiner::new(params);
        miner.append(1, &["a"]).unwrap();
        miner.append(1, &["b"]).unwrap();
        assert_eq!(miner.len(), 1);
        let result = miner.mine();
        // {a,b} co-occur at ts 1.
        assert!(result.patterns.iter().any(|p| p.items.len() == 2));
        // An isolated last occurrence: `c`'s only run is the open one, which
        // Algorithm 1 folds at the end of the stream whatever its
        // periodic-support. At minPS 1 it counts towards Erec and Rec.
        miner.append(5, &["c"]).unwrap();
        let result = miner.mine();
        assert_eq!(result.patterns, mine_resolved(miner.db(), params).patterns);
        let c = miner.db().items().id("c").unwrap();
        let c_pat = result.patterns.iter().find(|p| p.items == [c]).expect("c's one run counts");
        assert_eq!(c_pat.intervals, [PeriodicInterval { start: 5, end: 5, periodic_support: 1 }]);
    }

    #[test]
    fn duplicate_items_within_one_append_feed_once() {
        // A duplicated label must not double-feed the scanner: ps would
        // inflate and diverge from the batch miner.
        let params = ResolvedParams::new(1, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        miner.append(1, &["a", "a"]).unwrap();
        miner.append(2, &["a"]).unwrap();
        let inc = miner.mine();
        let batch = mine_resolved(miner.db(), params);
        assert_eq!(inc.patterns, batch.patterns);
    }

    #[test]
    fn same_item_in_same_timestamp_merge_feeds_once() {
        // Two appends at one timestamp mentioning the same item must count
        // as a single incidence, like the merged transaction does.
        let params = ResolvedParams::new(1, 2, 1);
        let mut miner = IncrementalMiner::new(params);
        miner.append(1, &["a"]).unwrap();
        miner.append(1, &["a", "b"]).unwrap();
        miner.append(2, &["a"]).unwrap();
        let inc = miner.mine();
        let batch = mine_resolved(miner.db(), params);
        assert_eq!(inc.patterns, batch.patterns);
        let a = miner.db().items().id("a").unwrap();
        let a_pat = inc.patterns.iter().find(|p| p.items == vec![a]).unwrap();
        assert_eq!(a_pat.support, 2);
    }

    #[test]
    fn append_ids_requires_a_seeded_vocabulary() {
        let params = ResolvedParams::new(1, 1, 1);
        let mut blank = IncrementalMiner::new(params);
        assert!(blank.append_ids(1, vec![rpm_timeseries::ItemId(0)]).is_err());

        let source = running_example_db();
        let mut seeded = IncrementalMiner::with_items(source.items().clone(), params);
        for t in source.transactions() {
            seeded.append_ids(t.timestamp(), t.items().to_vec()).unwrap();
        }
        assert_eq!(seeded.len(), source.len());
        assert_eq!(seeded.mine().patterns, mine_resolved(&source, params).patterns);
    }

    #[test]
    fn running_fingerprint_equals_the_whole_database_hash_after_every_append() {
        // Seeded streams covering the three ways the running chains can
        // drift from a whole-database hash: same-timestamp merges (the last
        // transaction is re-folded), rows rejected for time order after
        // interning new labels (the labels stay), and a seeded table with
        // labels no transaction uses.
        use rpm_timeseries::prng::Pcg32;
        for seed in 0..12u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let params = ResolvedParams::new(2, 2, 1);
            let mut miner = if seed % 3 == 0 {
                let mut table = ItemTable::new();
                for i in 0..rng.random_range(1..6usize) {
                    table.intern(&format!("unused-{i}"));
                }
                IncrementalMiner::with_items(table, params)
            } else {
                IncrementalMiner::new(params)
            };
            assert_eq!(miner.fingerprint(), rpm_timeseries::fingerprint(miner.db()), "seed {seed}");
            let (mut ts, mut merges, mut rejected) = (0i64, 0, 0);
            for step in 0..80 {
                // Mostly forward, sometimes the same timestamp (a merge),
                // sometimes backwards (a rejection).
                let next = match rng.random_range(0..10u32) {
                    0..=1 => ts,
                    2 => ts - rng.random_range(1..4i64),
                    _ => ts + rng.random_range(1..4i64),
                };
                let fresh = format!("new-{seed}-{step}");
                let mut labels: Vec<String> =
                    (0..6).filter(|_| rng.random_f64() < 0.35).map(|i| format!("i{i}")).collect();
                if rng.random_f64() < 0.2 {
                    labels.push(fresh);
                }
                if labels.is_empty() {
                    continue;
                }
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                let len = miner.len();
                match miner.append(next, &refs) {
                    Ok(()) => {
                        merges += usize::from(miner.len() == len && len > 0);
                        ts = next;
                    }
                    Err(_) => rejected += 1,
                }
                assert_eq!(
                    miner.fingerprint(),
                    rpm_timeseries::fingerprint(miner.db()),
                    "seed {seed}, step {step}"
                );
            }
            assert!(
                merges > 0 && rejected > 0,
                "seed {seed}: {merges} merges, {rejected} rejected"
            );
        }
    }

    #[test]
    fn a_rejected_row_still_fingerprints_its_new_labels() {
        let mut miner = IncrementalMiner::new(ResolvedParams::new(1, 1, 1));
        miner.append(5, &["a"]).unwrap();
        let before = miner.fingerprint();
        assert!(miner.append(3, &["a", "late-label"]).is_err());
        assert_eq!(miner.len(), 1, "the row was rejected");
        assert_eq!(miner.db().item_count(), 2, "its new label was interned");
        assert_ne!(miner.fingerprint(), before, "and counts towards the fingerprint");
        assert_eq!(miner.fingerprint(), rpm_timeseries::fingerprint(miner.db()));
    }

    #[test]
    fn empty_miner_mines_nothing() {
        let miner = IncrementalMiner::new(ResolvedParams::new(1, 1, 1));
        assert!(miner.is_empty());
        assert!(miner.mine().patterns.is_empty());
    }

    #[test]
    fn randomized_equivalence_with_batch() {
        use rpm_timeseries::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(99);
        for _ in 0..10 {
            let params = ResolvedParams::new(
                rng.random_range(1..4i64),
                rng.random_range(1..4usize),
                rng.random_range(1..3usize),
            );
            let mut miner = IncrementalMiner::new(params);
            let mut ts = 0;
            for _ in 0..60 {
                ts += rng.random_range(0..3i64);
                let labels: Vec<String> =
                    (0..5).filter(|_| rng.random_f64() < 0.4).map(|i| format!("i{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    miner.append(ts, &refs).unwrap();
                }
            }
            let inc = miner.mine();
            let batch = mine_resolved(miner.db(), params);
            assert_eq!(inc.patterns, batch.patterns, "params {params:?}");
            assert_eq!(inc.stats.candidate_items, batch.stats.candidate_items);
        }
    }
}
