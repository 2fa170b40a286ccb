//! Re-implementation of the IBM Quest synthetic transaction generator
//! (Agrawal & Srikant's procedure, cited by the paper as "\[23\]"), used to
//! produce the `T10I4D100K` database of the evaluation (§5.1): 100,000
//! transactions over 941 distinct items, average transaction size 10,
//! average potential-itemset size 4.
//!
//! The generative process follows the published description:
//!
//! 1. Draw `L` *potential maximal itemsets*. Sizes are Poisson with mean
//!    `I`; a fraction of each itemset's items (governed by an exponentially
//!    distributed correlation level) is copied from the previous itemset,
//!    the rest drawn uniformly. Each itemset gets an exponential weight
//!    (normalised to a probability) and a corruption level from
//!    `N(0.5, 0.1²)`.
//! 2. Each transaction draws a size from Poisson with mean `T` and is
//!    filled with weighted itemsets; each chosen itemset is *corrupted* by
//!    repeatedly dropping items while a uniform draw is below its corruption
//!    level. An itemset that overflows the transaction is carried over to
//!    the next transaction half of the time.
//!
//! Timestamps are the 1-based transaction index, matching how the paper
//! applies minute-denominated `per` values (360/720/1440) to this dataset.

use rpm_timeseries::prng::Pcg32;
use rpm_timeseries::{DbBuilder, TransactionDb};

use crate::zipf::{clamped_normal, poisson_at_least};

/// Parameters of the Quest generator. `Default` yields T10I4D100K at the
/// paper's cardinalities.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestConfig {
    /// Number of transactions (`D`).
    pub transactions: usize,
    /// Average transaction size (`T`).
    pub avg_transaction_size: f64,
    /// Average potential-itemset size (`I`).
    pub avg_pattern_size: f64,
    /// Number of distinct items (`N`); 941 in the paper's instance.
    pub items: usize,
    /// Number of potential maximal itemsets (`L`).
    pub patterns: usize,
    /// Mean correlation between consecutive potential itemsets.
    pub correlation: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuestConfig {
    fn default() -> Self {
        Self {
            transactions: 100_000,
            avg_transaction_size: 10.0,
            avg_pattern_size: 4.0,
            items: 941,
            patterns: 2000,
            correlation: 0.5,
            seed: 0x7105_74D1_0014_u64,
        }
    }
}

impl QuestConfig {
    /// Scales the transaction count by `scale` (used by the harness's
    /// `--scale` flag), keeping all densities unchanged.
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
        self.transactions = ((self.transactions as f64 * scale) as usize).max(1);
        self
    }
}

/// Generates a Quest-style transactional database.
pub fn generate_quest(config: &QuestConfig) -> TransactionDb {
    let mut rng = Pcg32::seed_from_u64(config.seed);
    let n_items = config.items;

    // Step 1: potential maximal itemsets.
    let mut itemsets: Vec<Vec<u32>> = Vec::with_capacity(config.patterns);
    let mut weights: Vec<f64> = Vec::with_capacity(config.patterns);
    let mut corruption: Vec<f64> = Vec::with_capacity(config.patterns);
    for p in 0..config.patterns {
        let size = poisson_at_least(&mut rng, config.avg_pattern_size, 1).min(n_items);
        let mut set: Vec<u32> = Vec::with_capacity(size);
        if p > 0 {
            // Exponentially distributed correlation fraction.
            let frac =
                (-config.correlation * rng.random_f64().max(f64::MIN_POSITIVE).ln()).min(1.0);
            let carry = ((size as f64) * frac).round() as usize;
            let prev = &itemsets[p - 1];
            for _ in 0..carry.min(prev.len()) {
                let pick = prev[rng.random_range(0..prev.len())];
                if !set.contains(&pick) {
                    set.push(pick);
                }
            }
        }
        while set.len() < size {
            let pick = rng.random_range(0..n_items) as u32;
            if !set.contains(&pick) {
                set.push(pick);
            }
        }
        set.sort_unstable();
        itemsets.push(set);
        weights.push(-rng.random_f64().max(f64::MIN_POSITIVE).ln()); // Exp(1)
        corruption.push(clamped_normal(&mut rng, 0.5, 0.1, 0.0, 0.9));
    }
    // Normalise weights into a cumulative table.
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    // Step 2: transactions.
    let mut b = DbBuilder::with_capacity(config.transactions);
    // Pre-intern item labels "i0".."iN" so ids are stable.
    for i in 0..n_items {
        b.items_mut().intern(&format!("i{i}"));
    }
    let mut carry_over: Option<Vec<u32>> = None;
    for ts in 1..=config.transactions as i64 {
        let size = poisson_at_least(&mut rng, config.avg_transaction_size, 1);
        let mut txn: Vec<u32> = Vec::with_capacity(size + 4);
        if let Some(items) = carry_over.take() {
            txn.extend(items);
        }
        let mut guard = 0;
        while txn.len() < size && guard < 50 {
            guard += 1;
            let u = rng.random_f64();
            let idx = cdf.partition_point(|&c| c < u).min(itemsets.len() - 1);
            let mut chosen = itemsets[idx].clone();
            // Corruption: drop items while uniform < corruption level.
            while chosen.len() > 1 && rng.random_f64() < corruption[idx] {
                let drop = rng.random_range(0..chosen.len());
                chosen.swap_remove(drop);
            }
            if txn.len() + chosen.len() > size + 2 && !txn.is_empty() {
                // Overflow: half the time the itemset moves to the next
                // transaction, otherwise it is discarded.
                if rng.random_bool(0.5) {
                    carry_over = Some(chosen);
                }
                break;
            }
            txn.extend(chosen);
        }
        txn.sort_unstable();
        txn.dedup();
        let ids: Vec<rpm_timeseries::ItemId> =
            txn.into_iter().map(rpm_timeseries::ItemId).collect();
        b.add_ids(ts, ids);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpm_timeseries::DbStats;

    fn small() -> QuestConfig {
        QuestConfig { transactions: 3000, seed: 42, ..QuestConfig::default() }
    }

    #[test]
    fn cardinalities_match_config() {
        let db = generate_quest(&small());
        // Every transaction index produces a non-empty transaction.
        assert_eq!(db.len(), 3000);
        let stats = DbStats::compute(&db);
        assert!(stats.items <= 941);
        assert!(stats.items > 400, "most of the vocabulary should be touched");
        // Average size should be near T=10 (within generous tolerance: the
        // overflow rule trims large itemsets).
        assert!(
            (6.0..14.0).contains(&stats.avg_transaction_len),
            "avg len {}",
            stats.avg_transaction_len
        );
    }

    #[test]
    fn timestamps_are_contiguous_indices() {
        let db = generate_quest(&QuestConfig { transactions: 100, ..small() });
        let ts: Vec<i64> = db.transactions().iter().map(|t| t.timestamp()).collect();
        assert_eq!(ts, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_quest(&small());
        let b = generate_quest(&small());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.transactions().iter().zip(b.transactions()) {
            assert_eq!(x.items(), y.items());
        }
        let c = generate_quest(&QuestConfig { seed: 43, ..small() });
        let differs =
            a.transactions().iter().zip(c.transactions()).any(|(x, y)| x.items() != y.items());
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn item_popularity_is_skewed_by_itemset_weights() {
        let db = generate_quest(&small());
        let stats = DbStats::compute(&db);
        let top = stats.top_items[0].1 as f64;
        let min = stats.min_item_support.unwrap_or(0) as f64;
        assert!(top > 10.0 * min.max(1.0), "weighted itemsets must create skew");
    }

    #[test]
    fn scaled_reduces_transactions() {
        let cfg = QuestConfig::default().scaled(0.01);
        assert_eq!(cfg.transactions, 1000);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn scale_out_of_range_panics() {
        let _ = QuestConfig::default().scaled(0.0);
    }
}
