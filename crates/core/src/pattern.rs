//! Recurring-pattern output types (paper Definition 9, Equation 1).

use std::fmt;

use rpm_timeseries::{ItemId, ItemTable, Timestamp};

/// A periodic-interval `pi = [start, end]` together with its
/// periodic-support `ps` (Definitions 5–6). The two are in one-to-one
/// correspondence, so they are stored together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PeriodicInterval {
    /// First timestamp of the maximal periodic run.
    pub start: Timestamp,
    /// Last timestamp of the maximal periodic run.
    pub end: Timestamp,
    /// Number of timestamps in the run (`ps`).
    pub periodic_support: usize,
}

impl PeriodicInterval {
    /// Length of the interval in time units (`end - start`).
    pub fn duration(&self) -> Timestamp {
        self.end - self.start
    }
}

impl fmt::Display for PeriodicInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{[{},{}]:{}}}", self.start, self.end, self.periodic_support)
    }
}

/// A discovered recurring pattern, expressed as in the paper's Equation (1):
/// `X [Sup(X), Rec(X), {{pi_k : ps_k} | ∀ pi_k ∈ IPI^X}]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurringPattern {
    /// The pattern's items, sorted by id.
    pub items: Vec<ItemId>,
    /// `Sup(X)` — total number of transactions containing the pattern.
    pub support: usize,
    /// The interesting periodic-intervals `IPI^X`, in temporal order.
    pub intervals: Vec<PeriodicInterval>,
}

impl RecurringPattern {
    /// Builds a pattern, normalising item order.
    pub fn new(mut items: Vec<ItemId>, support: usize, intervals: Vec<PeriodicInterval>) -> Self {
        items.sort_unstable();
        debug_assert!(
            intervals.windows(2).all(|w| w[0].end < w[1].start),
            "interesting intervals must be disjoint and ordered"
        );
        Self { items, support, intervals }
    }

    /// `Rec(X)` — the number of interesting periodic-intervals.
    pub fn recurrence(&self) -> usize {
        self.intervals.len()
    }

    /// Number of items in the pattern (its *length*; Table 8's column `II`).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pattern has no items (never produced by the miners).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders the pattern in Equation (1) notation using `items` for labels:
    /// `{a,b} [support=7, recurrence=2, {[1,4]:3}, {[11,14]:3}]`.
    pub fn display<'a>(&'a self, items: &'a ItemTable) -> PatternDisplay<'a> {
        PatternDisplay { pattern: self, items }
    }
}

/// Display adapter pairing a [`RecurringPattern`] with its item table.
pub struct PatternDisplay<'a> {
    pattern: &'a RecurringPattern,
    items: &'a ItemTable,
}

impl fmt::Display for PatternDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [support={}, recurrence={}",
            self.items.pattern_string(&self.pattern.items),
            self.pattern.support,
            self.pattern.recurrence()
        )?;
        for ipi in &self.pattern.intervals {
            write!(f, ", {ipi}")?;
        }
        write!(f, "]")
    }
}

/// Orders patterns for deterministic output: by length, then by item ids.
pub fn canonical_order(patterns: &mut [RecurringPattern]) {
    patterns.sort_by(|a, b| canonical_cmp(&a.items, &b.items));
}

/// The comparison behind [`canonical_order`], on item sets.
pub(crate) fn canonical_cmp(a: &[ItemId], b: &[ItemId]) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ItemTable {
        let mut t = ItemTable::new();
        t.intern("a");
        t.intern("b");
        t
    }

    #[test]
    fn display_matches_equation_1_example_9() {
        let t = table();
        let p = RecurringPattern::new(
            vec![ItemId(1), ItemId(0)],
            7,
            vec![
                PeriodicInterval { start: 1, end: 4, periodic_support: 3 },
                PeriodicInterval { start: 11, end: 14, periodic_support: 3 },
            ],
        );
        assert_eq!(
            p.display(&t).to_string(),
            "{a,b} [support=7, recurrence=2, {[1,4]:3}, {[11,14]:3}]"
        );
        assert_eq!(p.recurrence(), 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn construction_sorts_items() {
        let p = RecurringPattern::new(vec![ItemId(3), ItemId(1)], 1, vec![]);
        assert_eq!(p.items, vec![ItemId(1), ItemId(3)]);
    }

    #[test]
    fn interval_duration() {
        let pi = PeriodicInterval { start: 5, end: 12, periodic_support: 4 };
        assert_eq!(pi.duration(), 7);
        assert_eq!(pi.to_string(), "{[5,12]:4}");
    }

    #[test]
    fn canonical_order_sorts_by_length_then_items() {
        let mk = |ids: &[u32]| {
            RecurringPattern::new(ids.iter().map(|&i| ItemId(i)).collect(), 0, vec![])
        };
        let mut v = vec![mk(&[2]), mk(&[0, 1]), mk(&[1]), mk(&[0, 2])];
        canonical_order(&mut v);
        let lens: Vec<usize> = v.iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![1, 1, 2, 2]);
        assert_eq!(v[0].items, vec![ItemId(1)]);
        assert_eq!(v[2].items, vec![ItemId(0), ItemId(1)]);
    }
}
