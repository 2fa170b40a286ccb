//! Time-based event sequences and temporally ordered transactional databases.
//!
//! This crate implements the data model of Section 3 of *"Discovering
//! Recurring Patterns in Time Series"* (Kiran et al., EDBT 2015):
//!
//! * an **event** is a pair `(item, timestamp)` (Definition 1);
//! * an **event sequence** is an ordered collection of events, which implies
//!   a **point sequence** per item (Definition 2);
//! * a time series is modelled as a **temporally ordered transactional
//!   database** by grouping the items that occur at the same timestamp —
//!   this conversion is lossless with respect to each pattern's point
//!   sequence (paper §3, Example 2).
//!
//! The types here are shared by every miner in the workspace (RP-growth and
//! all baselines) and by the synthetic data generators.
//!
//! # Quick tour
//!
//! ```
//! use rpm_timeseries::{EventSequence, TransactionDb};
//!
//! // The paper's running example (Figure 1) as an event sequence.
//! let mut seq = EventSequence::new();
//! for (label, ts) in [("a", 1), ("b", 1), ("g", 1), ("a", 2), ("c", 2), ("d", 2)] {
//!     seq.push(label, ts);
//! }
//! let db = TransactionDb::from_events(&seq);
//! assert_eq!(db.len(), 2);
//! assert_eq!(db.transaction(0).timestamp(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binio;
pub mod convert;
pub mod database;
pub mod datetime;
pub mod discretize;
pub mod error;
pub mod event;
pub mod io;
pub mod item;
pub mod prng;
pub mod select;
pub mod stats;
pub mod timestamp;
pub mod transaction;

pub use binio::{
    chain_label, chain_transaction, fingerprint, fnv1a, from_bytes, join_fingerprint, load_binary,
    save_binary, snapshot_from_bytes, snapshot_to_bytes, to_bytes, SnapshotHeader, FNV1A_OFFSET,
    SNAPSHOT_VERSION,
};
pub use convert::{db_to_events, events_to_db, rebin};
pub use database::{running_example_db, DbBuilder, TransactionDb};
pub use datetime::{format_datetime_minutes, parse_datetime_minutes};
pub use discretize::{Binning, Discretizer};
pub use error::{Error, Result};
pub use event::{Event, EventSequence, PointSequence};
pub use item::{Item, ItemId, ItemTable};
pub use prng::Pcg32;
pub use select::{intersect_sorted, project_items, slice_time, split_at};
pub use stats::DbStats;
pub use timestamp::Timestamp;
pub use transaction::Transaction;
