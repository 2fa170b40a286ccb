//! **recurring-patterns** — a from-scratch Rust implementation of
//! *"Discovering Recurring Patterns in Time Series"* (R. Uday Kiran,
//! Haichuan Shang, Masashi Toyoda, Masaru Kitsuregawa — EDBT 2015), with
//! every baseline it compares against and a harness that regenerates every
//! table and figure of its evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`timeseries`] — events, point sequences, temporally ordered
//!   transactional databases (the paper's §3 data model);
//! * [`core`] — the recurring-pattern measures, the `Erec` pruning bound,
//!   and the RP-growth miner (§3–4);
//! * [`baselines`] — p-patterns, periodic-frequent patterns, segment-wise
//!   partial periodic patterns (§2, §5.4);
//! * [`datagen`] — the simulated evaluation datasets with planted ground
//!   truth (§5.1);
//! * [`server`] — a dependency-free HTTP serving layer (dataset registry,
//!   result cache, live append) exposed as `rpm serve`.
//!
//! # Quickstart
//!
//! ```
//! use recurring_patterns::prelude::*;
//!
//! // Build a time-based sequence (or use TransactionDb::builder()).
//! let mut b = TransactionDb::builder();
//! b.add_labeled(1, &["jackets", "gloves"]);
//! b.add_labeled(3, &["jackets", "gloves"]);
//! b.add_labeled(4, &["jackets", "gloves", "sunscreen"]);
//! b.add_labeled(11, &["jackets", "gloves"]);
//! b.add_labeled(12, &["jackets", "gloves"]);
//! b.add_labeled(14, &["jackets", "gloves"]);
//! let db = b.build();
//!
//! // per=2, minPS=3, minRec=2: periodic at least 3 times in a row, in at
//! // least two separate stretches.
//! let session = MiningSession::builder()
//!     .params(RpParams::new(2, 3, 2))
//!     .build()
//!     .unwrap();
//! let outcome = session.mine(&db).unwrap();
//! for pattern in outcome.patterns() {
//!     println!("{}", pattern.display(db.items()));
//! }
//! assert!(outcome.is_complete() && !outcome.patterns().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rpm_baselines as baselines;
pub use rpm_core as core;
pub use rpm_datagen as datagen;
pub use rpm_server as server;
pub use rpm_timeseries as timeseries;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use rpm_baselines::{
        mine_periodic_first, mine_segments, PPatternMiner, PPatternParams, PfGrowth, PfParams,
        SegmentMiner, SegmentParams,
    };
    pub use rpm_core::engine::{
        AbortReason, CancelToken, EngineMetrics, MetricsCollector, MinedPattern, Miner, MinerRun,
        MiningError, MiningOutcome, MiningSession, NoopObserver, Observer, Phase, ProgressReporter,
        RunControl,
    };
    pub use rpm_core::{
        closed_patterns, generate_rules, get_recurrence, get_relaxed_recurrence, maximal_patterns,
        mine_durations, mine_relaxed, recurrence_spectrum, top_k, verify_all, verify_pattern,
        DurationParams, IncrementalMiner, MiningResult, NoiseParams, PatternIndex,
        PeriodicInterval, RankBy, RecurringPattern, RecurringRule, ResolvedParams, RpGrowth,
        RpParams, Threshold,
    };
    pub use rpm_datagen::{
        evaluate_recovery, generate_clickstream, generate_quest, generate_twitter, QuestConfig,
        ShopConfig, TwitterConfig,
    };
    pub use rpm_datagen::{inject_noise, NoiseConfig};
    pub use rpm_timeseries::{
        project_items, slice_time, split_at, DbBuilder, EventSequence, Item, ItemId, ItemTable,
        Timestamp, Transaction, TransactionDb,
    };
}
