//! The recurring-pattern model and the **RP-growth** algorithm from
//! *"Discovering Recurring Patterns in Time Series"* (Kiran, Shang, Toyoda,
//! Kitsuregawa — EDBT 2015).
//!
//! A *recurring pattern* is a set of items that exhibits periodic behaviour
//! during particular time intervals of a series — e.g. `{jackets, gloves}`
//! bought almost daily each winter — as opposed to *regular* patterns that
//! are periodic throughout. The model (paper §3) judges a pattern `X` by:
//!
//! * `per` — the maximum inter-arrival time still considered periodic;
//! * `minPS` — the minimum number of consecutive periodic appearances
//!   (periodic-support) an interval must have to be *interesting*;
//! * `minRec` — the minimum number of interesting periodic-intervals.
//!
//! Recurring patterns are **not anti-monotone**, so RP-growth prunes with
//! the `Erec` upper bound (§4.1) which is.
//!
//! # Example
//!
//! ```
//! use rpm_core::{RpGrowth, RpParams};
//! use rpm_timeseries::running_example_db;
//!
//! let db = running_example_db(); // Table 1 of the paper
//! let result = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db);
//! for p in &result.patterns {
//!     println!("{}", p.display(db.items()));
//! }
//! assert_eq!(result.patterns.len(), 8); // Table 2
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
pub mod closed;
pub mod delta;
pub mod duration;
pub mod engine;
pub mod export;
pub mod growth;
pub mod incremental;
pub mod index;
pub mod measures;
pub mod merge;
pub mod naive;
pub mod parallel;
pub mod params;
pub mod pattern;
pub mod relaxed;
pub mod rplist;
pub mod rules;
pub mod spectrum;
pub mod summary;
pub mod sync;
pub mod topk;
pub mod tree;
pub mod verify;

pub use closed::{closed_patterns, maximal_patterns};
pub use delta::{
    DeltaMode, DeltaStats, FullReason, PatternStore, DELTA_TAIL_BUDGET_PCT, RESUME_CACHE_MAX,
};
pub use duration::{get_duration_recurrence, mine_durations, DurationParams};
pub use engine::{
    AbortReason, CancelToken, MetricsCollector, MiningError, MiningOutcome, MiningSession,
    NoopObserver, Observer, ProgressReporter, RunControl,
};
pub use export::{
    push_json_str, splice_patterns_json, write_patterns_json, write_patterns_tsv, write_rules_json,
    RenderedLines,
};
pub use growth::{MineScratch, MiningResult, MiningStats, RpGrowth};
pub use incremental::IncrementalMiner;
pub use index::PatternIndex;
pub use measures::{
    erec, get_recurrence, interesting_intervals, periodic_intervals, recurrence, OpenRun,
    RecurrenceScan, ScanCheckpoint, ScanSummary,
};
pub use merge::MergeHeap;
pub use naive::{apriori_rp, apriori_support_only, brute_force, AprioriStats};
pub use params::{ResolvedParams, RpParams, Threshold};
pub use pattern::{canonical_order, PeriodicInterval, RecurringPattern};
pub use relaxed::{get_relaxed_recurrence, mine_relaxed, relaxed_intervals, NoiseParams};
pub use rplist::{RpList, RpListEntry};
pub use rules::{generate_rules, RecurringRule};
pub use spectrum::{rec_at, recurrence_spectrum, SpectrumStep};
pub use summary::{summarize, PatternSetSummary};
pub use topk::{top_k, RankBy};
pub use verify::{verify_all, verify_pattern, VerifyError};
