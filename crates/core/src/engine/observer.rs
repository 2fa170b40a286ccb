//! Observability hooks for mining runs: phase transitions, progress
//! estimates and end-to-end metrics.
//!
//! The engine reports through the [`Observer`] trait. Callbacks are
//! designed to be cheap and rare — one [`Observer::on_suffix_done`] per
//! suffix region (top-level RP-list candidate), one
//! [`Observer::on_candidate_batch`] carrying the *count* of candidates a
//! region explored rather than one call per candidate — so even a
//! heavyweight observer cannot slow the per-candidate hot path. Three
//! implementations ship:
//!
//! * [`NoopObserver`] — the default; within measurement noise of no engine
//!   at all (asserted by the `hotpath` bench);
//! * [`ProgressReporter`] — throttled fraction-complete lines on stderr,
//!   estimated from the suffix work queue;
//! * [`MetricsCollector`] — extends [`MiningStats`] with wall-time per
//!   phase, peak scratch bytes and the abort reason, snapshottable as
//!   [`EngineMetrics`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::growth::MiningStats;
use crate::sync::lock_recover;

use super::control::AbortReason;

/// The coarse phases of a mining run, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// First database scan: RP-list construction (Algorithm 1).
    ListScan,
    /// Second database scan: RP-tree construction (Algorithms 2–3).
    TreeBuild,
    /// Recursive pattern growth (Algorithm 4) — the long phase.
    Growth,
}

impl Phase {
    /// Stable lower-case name, used in progress lines and metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ListScan => "list_scan",
            Phase::TreeBuild => "tree_build",
            Phase::Growth => "growth",
        }
    }
}

/// Callback hooks invoked by the mining engine. Implementations must be
/// `Send + Sync`: the parallel miner invokes them concurrently from its
/// workers (use atomics or a mutex for interior state).
///
/// All hooks default to no-ops, so an observer implements only what it
/// needs.
pub trait Observer: Send + Sync {
    /// A new phase began. Phases arrive in order; the previous phase ends
    /// when the next begins, and the last ends at
    /// [`Observer::on_complete`].
    fn on_phase(&self, phase: Phase) {
        let _ = phase;
    }

    /// One suffix region (top-level candidate item) finished: `done` of
    /// `total` regions are now complete. With work-stealing workers the
    /// calls interleave, but `done` is a monotone shared counter.
    fn on_suffix_done(&self, done: usize, total: usize) {
        let _ = (done, total);
    }

    /// A region explored `candidates` pattern candidates (its own item plus
    /// everything grown beneath it). Summing the batches of a run yields
    /// [`MiningStats::candidates_checked`].
    fn on_candidate_batch(&self, candidates: usize) {
        let _ = candidates;
    }

    /// The run finished. `abort` is `None` for a complete run, the trip
    /// reason for a partial one. Final counters are in `stats`.
    fn on_complete(&self, stats: &MiningStats, abort: Option<AbortReason>) {
        let _ = (stats, abort);
    }
}

/// The do-nothing observer — the engine default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// The shared no-op instance the engine plugs in when no observer is
/// configured.
pub(crate) static NOOP: NoopObserver = NoopObserver;

/// Periodic fraction-complete estimates on stderr.
///
/// Progress is estimated from the suffix work queue: after the RP-list scan
/// the search space splits into one region per candidate item, and regions
/// complete monotonically. Region sizes are skewed (popular items grow
/// deeper trees), so the fraction is an estimate, not a promise — but it is
/// monotone and free.
#[derive(Debug)]
pub struct ProgressReporter {
    interval: Duration,
    last: Mutex<Option<Instant>>,
}

impl ProgressReporter {
    /// Reports at most every `interval` (plus once at every phase change).
    pub fn new(interval: Duration) -> Self {
        Self { interval, last: Mutex::new(None) }
    }
}

impl Default for ProgressReporter {
    /// Half-second cadence — frequent enough for an interactive terminal,
    /// rare enough to never matter.
    fn default() -> Self {
        Self::new(Duration::from_millis(500))
    }
}

impl Observer for ProgressReporter {
    fn on_phase(&self, phase: Phase) {
        eprintln!("progress: phase {}", phase.name());
        *lock_recover(&self.last) = None;
    }

    fn on_suffix_done(&self, done: usize, total: usize) {
        // lint:allow(no-raw-clock-in-hot-path): observer callback cadence, already amortised by the probe
        let now = Instant::now();
        let mut last = lock_recover(&self.last);
        let due = last.is_none_or(|t| now.duration_since(t) >= self.interval);
        if due {
            *last = Some(now);
            let pct = if total == 0 { 100.0 } else { done as f64 * 100.0 / total as f64 };
            eprintln!("progress: {done}/{total} suffix regions ({pct:.1}%)");
        }
    }

    fn on_complete(&self, stats: &MiningStats, abort: Option<AbortReason>) {
        match abort {
            None => eprintln!("progress: complete, {} patterns", stats.patterns_found),
            Some(r) => {
                eprintln!("progress: aborted ({r}), {} patterns so far", stats.patterns_found)
            }
        }
    }
}

/// Everything [`MetricsCollector`] measured about one run: the algorithmic
/// counters plus the engine-level observations the plain
/// [`MiningStats`] cannot carry.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Final work counters of the run.
    pub stats: MiningStats,
    /// Wall time spent in each phase, in run order.
    pub phase_wall: Vec<(Phase, Duration)>,
    /// High-water mark of the reusable scratch arenas, summed over workers.
    pub peak_scratch_bytes: usize,
    /// Why the run stopped early, if it did.
    pub abort: Option<AbortReason>,
    /// Suffix regions completed (equals the candidate-item count for a
    /// complete run).
    pub suffixes_done: usize,
    /// Candidates summed over every [`Observer::on_candidate_batch`].
    pub candidates_seen: usize,
}

impl EngineMetrics {
    /// Total wall time across phases.
    pub fn total_wall(&self) -> Duration {
        self.phase_wall.iter().map(|&(_, d)| d).sum()
    }

    /// Serialises the metrics as a small JSON object (no external
    /// dependencies, matching the repo's other hand-rolled reports).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"phases\": {");
        for (i, (p, d)) in self.phase_wall.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {:.3}", p.name(), d.as_secs_f64() * 1e3));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"total_wall_ms\": {:.3},\n",
            self.total_wall().as_secs_f64() * 1e3
        ));
        s.push_str(&format!("  \"peak_scratch_bytes\": {},\n", self.peak_scratch_bytes));
        s.push_str(&format!(
            "  \"abort\": {},\n",
            match self.abort {
                None => "null".to_string(),
                Some(r) => format!("\"{r}\""),
            }
        ));
        s.push_str(&format!("  \"suffixes_done\": {},\n", self.suffixes_done));
        s.push_str(&format!("  \"candidates_checked\": {},\n", self.stats.candidates_checked));
        s.push_str(&format!("  \"patterns_found\": {}\n", self.stats.patterns_found));
        s.push('}');
        s
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    phase_wall: Vec<(Phase, Duration)>,
    current: Option<(Phase, Instant)>,
    stats: MiningStats,
    abort: Option<AbortReason>,
    complete: bool,
}

/// Collects [`EngineMetrics`] across a run. Share it with the session via
/// [`std::sync::Arc`] and read [`MetricsCollector::snapshot`] afterwards.
///
/// ```
/// use std::sync::Arc;
/// use rpm_core::engine::{MetricsCollector, MiningSession};
/// use rpm_core::RpParams;
/// use rpm_timeseries::running_example_db;
///
/// let metrics = Arc::new(MetricsCollector::new());
/// let session = MiningSession::builder()
///     .params(RpParams::new(2, 3, 2))
///     .observer(metrics.clone())
///     .build()
///     .unwrap();
/// let outcome = session.mine(&running_example_db()).unwrap();
/// let m = metrics.snapshot();
/// assert!(m.abort.is_none());
/// assert_eq!(m.stats.patterns_found, outcome.patterns().len());
/// ```
#[derive(Debug, Default)]
pub struct MetricsCollector {
    inner: Mutex<MetricsInner>,
    suffixes_done: AtomicUsize,
    candidates_seen: AtomicUsize,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything measured so far. Complete once
    /// [`Observer::on_complete`] has fired.
    pub fn snapshot(&self) -> EngineMetrics {
        let inner = lock_recover(&self.inner);
        EngineMetrics {
            stats: inner.stats,
            phase_wall: inner.phase_wall.clone(),
            peak_scratch_bytes: inner.stats.scratch_bytes_peak,
            abort: inner.abort,
            suffixes_done: self.suffixes_done.load(Ordering::Relaxed),
            candidates_seen: self.candidates_seen.load(Ordering::Relaxed),
        }
    }

    /// Whether the observed run has finished.
    pub fn is_complete(&self) -> bool {
        lock_recover(&self.inner).complete
    }
}

impl Observer for MetricsCollector {
    fn on_phase(&self, phase: Phase) {
        // lint:allow(no-raw-clock-in-hot-path): phase transitions are rare; this is the phase-wall stopwatch
        let now = Instant::now();
        let mut inner = lock_recover(&self.inner);
        if let Some((p, t0)) = inner.current.take() {
            inner.phase_wall.push((p, now.duration_since(t0)));
        }
        inner.current = Some((phase, now));
    }

    fn on_suffix_done(&self, _done: usize, _total: usize) {
        self.suffixes_done.fetch_add(1, Ordering::Relaxed);
    }

    fn on_candidate_batch(&self, candidates: usize) {
        self.candidates_seen.fetch_add(candidates, Ordering::Relaxed);
    }

    fn on_complete(&self, stats: &MiningStats, abort: Option<AbortReason>) {
        // lint:allow(no-raw-clock-in-hot-path): fires once at run end to close the phase stopwatch
        let now = Instant::now();
        let mut inner = lock_recover(&self.inner);
        if let Some((p, t0)) = inner.current.take() {
            inner.phase_wall.push((p, now.duration_since(t0)));
        }
        inner.stats = *stats;
        inner.abort = abort;
        inner.complete = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_collector_times_phases_in_order() {
        let m = MetricsCollector::new();
        m.on_phase(Phase::ListScan);
        m.on_phase(Phase::TreeBuild);
        m.on_phase(Phase::Growth);
        m.on_suffix_done(1, 4);
        m.on_suffix_done(2, 4);
        m.on_candidate_batch(7);
        m.on_candidate_batch(3);
        let stats = MiningStats { candidates_checked: 10, ..MiningStats::default() };
        m.on_complete(&stats, None);
        assert!(m.is_complete());
        let snap = m.snapshot();
        let phases: Vec<Phase> = snap.phase_wall.iter().map(|&(p, _)| p).collect();
        assert_eq!(phases, vec![Phase::ListScan, Phase::TreeBuild, Phase::Growth]);
        assert_eq!(snap.suffixes_done, 2);
        assert_eq!(snap.candidates_seen, 10);
        assert_eq!(snap.stats.candidates_checked, 10);
        assert!(snap.abort.is_none());
    }

    #[test]
    fn metrics_json_is_well_formed_enough() {
        let m = MetricsCollector::new();
        m.on_phase(Phase::Growth);
        m.on_complete(&MiningStats::default(), Some(AbortReason::DeadlineExceeded));
        let json = m.snapshot().to_json();
        assert!(json.contains("\"growth\""));
        assert!(json.contains("\"abort\": \"deadline exceeded\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn noop_observer_is_a_unit() {
        let o = NoopObserver;
        o.on_phase(Phase::ListScan);
        o.on_suffix_done(1, 1);
        o.on_candidate_batch(5);
        o.on_complete(&MiningStats::default(), None);
    }

    #[test]
    fn progress_reporter_throttles_without_panicking() {
        let p = ProgressReporter::new(Duration::from_secs(3600));
        p.on_phase(Phase::Growth);
        for i in 0..100 {
            p.on_suffix_done(i, 100);
        }
        p.on_complete(&MiningStats::default(), Some(AbortReason::Cancelled));
    }
}
