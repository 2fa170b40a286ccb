//! Items (event types) and the interner mapping labels to dense ids.
//!
//! Every miner in this workspace keeps per-item state in flat `Vec`s indexed
//! by [`ItemId`], so ids are dense `u32`s assigned in first-seen order.

use std::collections::HashMap;
use std::fmt;

use crate::error::{Error, Result};

/// A dense identifier for an item (event type).
///
/// Ids are assigned by an [`ItemTable`] in first-insertion order and are
/// contiguous, so they can index `Vec`s directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl ItemId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An item together with its human-readable label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Dense id of the item.
    pub id: ItemId,
    /// Label the item was interned with (e.g. `"a"` or `"#oklahoma"`).
    pub label: String,
}

/// Bidirectional mapping between item labels and dense [`ItemId`]s.
///
/// ```
/// use rpm_timeseries::ItemTable;
///
/// let mut table = ItemTable::new();
/// let a = table.intern("a");
/// let b = table.intern("b");
/// assert_ne!(a, b);
/// assert_eq!(table.intern("a"), a); // idempotent
/// assert_eq!(table.label(a), "a");
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ItemTable {
    labels: Vec<String>,
    by_label: HashMap<String, ItemId>,
}

impl ItemTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with capacity for `n` items.
    pub fn with_capacity(n: usize) -> Self {
        Self { labels: Vec::with_capacity(n), by_label: HashMap::with_capacity(n) }
    }

    /// Interns `label`, returning its id; existing labels keep their id.
    pub fn intern(&mut self, label: &str) -> ItemId {
        if let Some(&id) = self.by_label.get(label) {
            return id;
        }
        let id = ItemId(u32::try_from(self.labels.len()).expect("more than u32::MAX items"));
        self.labels.push(label.to_owned());
        self.by_label.insert(label.to_owned(), id);
        id
    }

    /// Looks up the id of `label` without interning it.
    pub fn id(&self, label: &str) -> Option<ItemId> {
        self.by_label.get(label).copied()
    }

    /// Looks up the id of `label`, returning an error if absent.
    pub fn require(&self, label: &str) -> Result<ItemId> {
        self.id(label).ok_or_else(|| Error::UnknownItemLabel(label.to_owned()))
    }

    /// Returns the label of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn label(&self, id: ItemId) -> &str {
        &self.labels[id.index()]
    }

    /// Returns the label of `id`, or an error for foreign ids.
    pub fn try_label(&self, id: ItemId) -> Result<&str> {
        self.labels.get(id.index()).map(String::as_str).ok_or(Error::UnknownItemId(id.0))
    }

    /// Number of distinct items interned.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over the labels in id order, without copying them.
    pub fn labels(&self) -> impl Iterator<Item = &str> + '_ {
        self.labels.iter().map(String::as_str)
    }

    /// Iterates over all items in id order.
    pub fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, label)| Item { id: ItemId(i as u32), label: label.clone() })
    }

    /// Renders a set of item ids as a compact pattern string such as `{a,b}`.
    ///
    /// Items are printed in id order, matching the paper's notation where a
    /// pattern is an (unordered) set of items.
    pub fn pattern_string(&self, ids: &[ItemId]) -> String {
        let mut sorted: Vec<ItemId> = ids.to_vec();
        sorted.sort_unstable();
        let mut out = String::from("{");
        for (k, id) in sorted.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(self.labels.get(id.index()).map(String::as_str).unwrap_or("?"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_assigns_dense_first_seen_ids() {
        let mut t = ItemTable::new();
        assert_eq!(t.intern("x"), ItemId(0));
        assert_eq!(t.intern("y"), ItemId(1));
        assert_eq!(t.intern("x"), ItemId(0));
        assert_eq!(t.intern("z"), ItemId(2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn lookup_roundtrips() {
        let mut t = ItemTable::new();
        let id = t.intern("jackets");
        assert_eq!(t.id("jackets"), Some(id));
        assert_eq!(t.label(id), "jackets");
        assert!(t.id("gloves").is_none());
    }

    #[test]
    fn require_reports_missing_labels() {
        let t = ItemTable::new();
        let err = t.require("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn try_label_rejects_foreign_ids() {
        let t = ItemTable::new();
        assert!(t.try_label(ItemId(5)).is_err());
    }

    #[test]
    fn iter_yields_items_in_id_order() {
        let mut t = ItemTable::new();
        t.intern("a");
        t.intern("b");
        let items: Vec<Item> = t.iter().collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].label, "a");
        assert_eq!(items[1].id, ItemId(1));
    }

    #[test]
    fn pattern_string_sorts_by_id() {
        let mut t = ItemTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.pattern_string(&[b, a]), "{a,b}");
        assert_eq!(t.pattern_string(&[]), "{}");
    }

    #[test]
    fn with_capacity_starts_empty() {
        let t = ItemTable::with_capacity(16);
        assert!(t.is_empty());
    }
}
