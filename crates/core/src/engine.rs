//! The mining engine: run control, observability and the unified
//! [`MiningSession`] entry point.
//!
//! The paper's algorithm is a batch computation; a production miner also
//! needs a *control plane* — a way to bound, observe and abort a run
//! without giving up the hot path's speed. This module wraps the kernel in
//! exactly that:
//!
//! * [`control`] — cooperative cancellation ([`CancelToken`]), wall-clock
//!   deadlines and scratch-memory budgets, resolved into a cheap
//!   [`ControlProbe`] polled at candidate boundaries;
//! * [`observer`] — the [`Observer`] callback trait with shipped
//!   implementations ([`NoopObserver`], [`ProgressReporter`],
//!   [`MetricsCollector`]);
//! * [`session`] — [`MiningSession`], the builder-configured entry point
//!   onto the one mining pipeline, returning a typed [`MiningOutcome`]
//!   (complete or sound-partial);
//! * [`miner`] — the algorithm-agnostic [`Miner`] trait for generic
//!   dispatch across RP-growth and the baselines;
//! * [`error`] — [`MiningError`], the unified error enum of user-reachable
//!   paths.

pub mod control;
pub mod error;
pub mod miner;
pub mod observer;
pub mod session;

pub use control::{AbortReason, CancelToken, ControlProbe, RunControl, PROBE_PERIOD};
pub use error::MiningError;
pub use miner::{MinedPattern, Miner, MinerRun};
pub use observer::{
    EngineMetrics, MetricsCollector, NoopObserver, Observer, Phase, ProgressReporter,
};
pub use session::{MiningOutcome, MiningSession, SessionBuilder};
