//! The configurable entry point of the miner: configure once, mine many.
//!
//! A [`MiningSession`] is one builder-configured object owning the resolved
//! parameters, the thread count, the [`RunControl`] limits and the
//! [`Observer`]. It runs the RP-list scan and hands the list to the same
//! pipeline every miner uses (`growth::mine_list`), sequential or
//! work-stealing by thread count. A session is immutable and
//! `Send + Sync`, so one configuration can mine many databases (threshold
//! sweeps, re-mining after appends) from any thread.
//!
//! ```
//! use rpm_core::engine::MiningSession;
//! use rpm_core::RpParams;
//! use rpm_timeseries::running_example_db;
//!
//! let session = MiningSession::builder()
//!     .params(RpParams::new(2, 3, 2))
//!     .build()
//!     .unwrap();
//! let outcome = session.mine(&running_example_db()).unwrap();
//! assert!(outcome.is_complete());
//! assert_eq!(outcome.patterns().len(), 8); // Table 2 of the paper
//! ```

use std::fmt;
use std::sync::Arc;

use rpm_timeseries::TransactionDb;

use crate::growth::{mine_list, MineScratch, MiningResult, MiningStats};
use crate::params::{ResolvedParams, RpParams};
use crate::pattern::RecurringPattern;
use crate::rplist::RpList;

use super::control::{AbortReason, RunControl};
use super::error::MiningError;
use super::observer::{NoopObserver, Observer, Phase};

/// Parameters as the caller supplied them: either model-level (fractional
/// thresholds resolved per database) or already resolved.
#[derive(Debug, Clone)]
enum ParamSpec {
    Model(RpParams),
    Resolved(ResolvedParams),
}

/// How a mining run ended: exhaustively, or early with everything found so
/// far. Partial results are sound — every pattern passed the full
/// recurrence test before the run stopped — but not complete.
#[derive(Debug, Clone)]
pub enum MiningOutcome {
    /// The search space was exhausted; the result is exact.
    Complete(MiningResult),
    /// A [`RunControl`] limit tripped; `patterns_so_far` holds the sound
    /// prefix of the full result mined before `reason` fired.
    Partial {
        /// Patterns (and counters) accumulated before the abort.
        patterns_so_far: MiningResult,
        /// The limit that stopped the run.
        reason: AbortReason,
    },
}

impl MiningOutcome {
    /// Whether the run exhausted the search space.
    pub fn is_complete(&self) -> bool {
        matches!(self, MiningOutcome::Complete(_))
    }

    /// The abort reason of a partial run.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            MiningOutcome::Complete(_) => None,
            MiningOutcome::Partial { reason, .. } => Some(*reason),
        }
    }

    /// The mined result, complete or partial.
    pub fn result(&self) -> &MiningResult {
        match self {
            MiningOutcome::Complete(r) => r,
            MiningOutcome::Partial { patterns_so_far, .. } => patterns_so_far,
        }
    }

    /// Consumes the outcome, yielding the result either way.
    pub fn into_result(self) -> MiningResult {
        match self {
            MiningOutcome::Complete(r) => r,
            MiningOutcome::Partial { patterns_so_far, .. } => patterns_so_far,
        }
    }

    /// The mined patterns, complete or partial.
    pub fn patterns(&self) -> &[RecurringPattern] {
        &self.result().patterns
    }

    /// The run's work counters.
    pub fn stats(&self) -> &MiningStats {
        &self.result().stats
    }
}

/// A configured mining run factory — see the [module docs](self) for the
/// full story and [`MiningSession::builder`] for construction.
pub struct MiningSession {
    params: ParamSpec,
    threads: usize,
    control: RunControl,
    observer: Arc<dyn Observer>,
}

impl fmt::Debug for MiningSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MiningSession")
            .field("params", &self.params)
            .field("threads", &self.threads)
            .field("control", &self.control)
            .finish_non_exhaustive()
    }
}

impl MiningSession {
    /// Starts building a session. Parameters are mandatory; everything else
    /// defaults to a sequential, unlimited, unobserved run.
    pub fn builder() -> SessionBuilder {
        SessionBuilder { params: None, threads: 1, control: RunControl::new(), observer: None }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured run limits.
    pub fn control(&self) -> &RunControl {
        &self.control
    }

    /// Mines `db` under this session's configuration.
    ///
    /// Errors on an empty database or unresolvable parameters; an
    /// interrupted run is **not** an error — it yields
    /// [`MiningOutcome::Partial`] with everything mined so far.
    pub fn mine(&self, db: &TransactionDb) -> Result<MiningOutcome, MiningError> {
        if db.is_empty() {
            return Err(MiningError::EmptyDatabase);
        }
        let params = match &self.params {
            ParamSpec::Model(p) => p.try_resolve(db.len())?,
            ParamSpec::Resolved(p) => *p,
        };
        let observer: &dyn Observer = &*self.observer;
        observer.on_phase(Phase::ListScan);
        let list = RpList::build(db, params);
        let (result, reason) = mine_list(
            db,
            &list,
            params,
            self.threads,
            &self.control,
            observer,
            &mut MineScratch::new(),
            None,
        );
        observer.on_complete(&result.stats, reason);
        Ok(match reason {
            None => MiningOutcome::Complete(result),
            Some(reason) => MiningOutcome::Partial { patterns_so_far: result, reason },
        })
    }
}

/// Configures a [`MiningSession`]; obtained from [`MiningSession::builder`].
pub struct SessionBuilder {
    params: Option<ParamSpec>,
    threads: usize,
    control: RunControl,
    observer: Option<Arc<dyn Observer>>,
}

impl SessionBuilder {
    /// Sets the model parameters (fractional `minPS` resolves per database).
    pub fn params(mut self, params: RpParams) -> Self {
        self.params = Some(ParamSpec::Model(params));
        self
    }

    /// Sets already-resolved parameters, bypassing per-database resolution.
    pub fn resolved(mut self, params: ResolvedParams) -> Self {
        self.params = Some(ParamSpec::Resolved(params));
        self
    }

    /// Sets the worker-thread count (clamped to at least 1). With more than
    /// one thread the work-stealing parallel miner runs; its output is
    /// bit-identical to the sequential one.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches run limits: cancellation, deadline, scratch budget.
    pub fn control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// Attaches an observer for progress and metrics callbacks.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Finishes the configuration. Errors with
    /// [`MiningError::InvalidParams`] when no parameters were supplied.
    pub fn build(self) -> Result<MiningSession, MiningError> {
        let params = self.params.ok_or_else(|| {
            MiningError::InvalidParams(
                "a mining session needs parameters: call .params(..) or .resolved(..)".into(),
            )
        })?;
        Ok(MiningSession {
            params,
            threads: self.threads,
            control: self.control,
            observer: self.observer.unwrap_or_else(|| Arc::new(NoopObserver)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::control::CancelToken;
    use crate::growth::RpGrowth;
    use rpm_timeseries::running_example_db;
    use std::time::Duration;

    #[test]
    fn session_matches_classic_miner() {
        let db = running_example_db();
        let classic = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db);
        let session = MiningSession::builder().params(RpParams::new(2, 3, 2)).build().unwrap();
        let outcome = session.mine(&db).unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.patterns(), &classic.patterns[..]);
        assert_eq!(outcome.stats().normalized(), classic.stats.normalized());
    }

    #[test]
    fn parallel_session_matches_sequential() {
        let db = running_example_db();
        let seq = MiningSession::builder().resolved(ResolvedParams::new(2, 3, 2));
        let seq = seq.build().unwrap().mine(&db).unwrap();
        for threads in [2, 4] {
            let par = MiningSession::builder()
                .resolved(ResolvedParams::new(2, 3, 2))
                .threads(threads)
                .build()
                .unwrap()
                .mine(&db)
                .unwrap();
            assert_eq!(par.patterns(), seq.patterns(), "threads={threads}");
        }
    }

    #[test]
    fn builder_without_params_errors() {
        let err = MiningSession::builder().build().unwrap_err();
        assert!(err.to_string().contains("invalid parameters"));
    }

    #[test]
    fn empty_database_is_an_error() {
        let db = TransactionDb::builder().build();
        let session = MiningSession::builder().params(RpParams::new(2, 3, 2)).build().unwrap();
        assert!(matches!(session.mine(&db), Err(MiningError::EmptyDatabase)));
    }

    #[test]
    fn pre_cancelled_run_returns_empty_partial() {
        let db = running_example_db();
        let token = CancelToken::new();
        token.cancel();
        let session = MiningSession::builder()
            .params(RpParams::new(2, 3, 2))
            .control(RunControl::new().with_cancel(token))
            .build()
            .unwrap();
        let outcome = session.mine(&db).unwrap();
        assert_eq!(outcome.abort_reason(), Some(AbortReason::Cancelled));
        assert!(outcome.patterns().is_empty());
    }

    #[test]
    fn zero_deadline_returns_partial_with_sound_prefix() {
        let db = running_example_db();
        let session = MiningSession::builder()
            .params(RpParams::new(2, 3, 2))
            .control(RunControl::new().with_timeout(Duration::ZERO))
            .build()
            .unwrap();
        let outcome = session.mine(&db).unwrap();
        assert_eq!(outcome.abort_reason(), Some(AbortReason::DeadlineExceeded));
        let full = RpGrowth::new(RpParams::new(2, 3, 2)).mine(&db);
        for p in outcome.patterns() {
            assert!(full.patterns.contains(p), "partial pattern not in full result");
        }
    }

    #[test]
    fn fractional_threshold_resolves_per_database() {
        let db = running_example_db();
        let session = MiningSession::builder()
            .params(RpParams::with_threshold(2, crate::params::Threshold::Fraction(0.25), 2))
            .build()
            .unwrap();
        // 0.25 · 12 = 3 — same as the absolute running-example minPS.
        assert_eq!(session.mine(&db).unwrap().patterns().len(), 8);
    }
}
