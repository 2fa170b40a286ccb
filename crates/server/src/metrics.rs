//! Service-level metrics: request counters plus engine metrics aggregated
//! across every mining run the server has executed.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rpm_core::engine::AbortReason;
use rpm_core::MiningStats;

use crate::cache::CacheStats;
use crate::persist::PersistCounters;
use crate::replica::ReplState;

/// Monotone counters describing the server's lifetime. All fields are
/// relaxed atomics — the numbers are for observability, not coordination.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests fully parsed and routed.
    pub requests_total: AtomicU64,
    /// Requests answered with 4xx.
    pub client_errors: AtomicU64,
    /// Requests answered with 5xx (including backpressure 503s sent by the
    /// acceptor).
    pub server_errors: AtomicU64,
    /// Connections refused by the acceptor because the queue was full.
    pub rejected_backpressure: AtomicU64,
    /// `mine` and `active` requests that ran the engine (cache misses).
    pub mine_runs: AtomicU64,
    /// Engine runs that completed exhaustively.
    pub mine_complete: AtomicU64,
    /// Engine runs interrupted by a deadline or shutdown.
    pub mine_partial: AtomicU64,
    /// Engine runs that skipped the first scan via the incremental miner's
    /// live per-item states (request params matched the dataset's hot
    /// params).
    pub mine_fastpath: AtomicU64,
    /// Delta-mine calls that stayed on the incremental path (dirty-frontier
    /// re-growth or an unchanged-stream no-op), across the mine fast path
    /// and append-driven cache patches.
    pub delta_mines: AtomicU64,
    /// Delta-mine calls that fell back to a full re-mine (cold store,
    /// changed params, foreign stream, or a too-wide dirty frontier).
    pub delta_full: AtomicU64,
    /// Patterns spliced unchanged from pattern stores across delta mines.
    pub delta_retained: AtomicU64,
    /// Patterns recomputed by dirty-frontier re-growth across delta mines.
    pub delta_remined: AtomicU64,
    /// Tail-window transactions scanned by checkpointed delta mines.
    pub delta_tail_tx: AtomicU64,
    /// Candidate re-measurements that continued a scan state instead of
    /// rebuilding one: multi-item candidates resumed from a pattern store's
    /// cache (the remainder rebuilt state from posting bitsets), and
    /// singletons whose item occurs before the tail window, measured by the
    /// miner's live per-item state.
    pub delta_checkpoint_hits: AtomicU64,
    /// Append requests absorbed.
    pub appends: AtomicU64,
    /// Appends that patched the hot cache entry in place via a delta mine
    /// instead of invalidating it.
    pub appends_patched: AtomicU64,
    /// Transactions ingested across appends.
    pub appended_transactions: AtomicU64,
    /// `active` stabbing queries served.
    pub active_queries: AtomicU64,
    /// Total wall time the engine spent mining, in microseconds.
    pub mining_wall_micros: AtomicU64,
    /// Candidates checked across all engine runs.
    pub candidates_checked: AtomicU64,
    /// Patterns returned across all engine runs.
    pub patterns_found: AtomicU64,
}

impl ServerMetrics {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment helper (relaxed).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one mining run — a session mine or a hot mine through a
    /// dataset's pattern store — into the lifetime aggregates.
    pub fn absorb_mine(&self, wall: Duration, stats: &MiningStats, abort: Option<AbortReason>) {
        self.mining_wall_micros.fetch_add(wall.as_micros() as u64, Ordering::Relaxed);
        self.candidates_checked.fetch_add(stats.candidates_checked as u64, Ordering::Relaxed);
        self.patterns_found.fetch_add(stats.patterns_found as u64, Ordering::Relaxed);
        Self::bump(if abort.is_some() { &self.mine_partial } else { &self.mine_complete });
    }

    /// Folds one delta-mine outcome into the delta-vs-full counters.
    pub fn absorb_delta(&self, stats: &rpm_core::DeltaStats) {
        if stats.mode.is_delta() {
            Self::bump(&self.delta_mines);
            self.delta_retained.fetch_add(stats.retained_patterns as u64, Ordering::Relaxed);
            self.delta_remined.fetch_add(stats.remined_patterns as u64, Ordering::Relaxed);
            self.delta_tail_tx.fetch_add(stats.tail_transactions as u64, Ordering::Relaxed);
            self.delta_checkpoint_hits.fetch_add(stats.checkpoint_hits as u64, Ordering::Relaxed);
        } else {
            Self::bump(&self.delta_full);
        }
    }

    /// Renders the `/metrics` JSON document, merging in the cache counters,
    /// the dataset count, and — when configured — the persistence and
    /// replication counter groups.
    pub fn to_json(
        &self,
        cache: &CacheStats,
        datasets: usize,
        persist: Option<&PersistCounters>,
        repl: Option<&ReplState>,
    ) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let wall_ms = format!("{:.3}", get(&self.mining_wall_micros) as f64 / 1e3);
        let top: [Row; 9] = [
            ("requests_total", &get(&self.requests_total)),
            ("client_errors", &get(&self.client_errors)),
            ("server_errors", &get(&self.server_errors)),
            ("rejected_backpressure", &get(&self.rejected_backpressure)),
            ("datasets", &datasets),
            ("appends", &get(&self.appends)),
            ("appends_patched", &get(&self.appends_patched)),
            ("appended_transactions", &get(&self.appended_transactions)),
            ("active_queries", &get(&self.active_queries)),
        ];
        let mine: [Row; 13] = [
            ("runs", &get(&self.mine_runs)),
            ("complete", &get(&self.mine_complete)),
            ("partial", &get(&self.mine_partial)),
            ("fastpath", &get(&self.mine_fastpath)),
            ("delta", &get(&self.delta_mines)),
            ("delta_full", &get(&self.delta_full)),
            ("delta_retained", &get(&self.delta_retained)),
            ("delta_remined", &get(&self.delta_remined)),
            ("delta_tail_tx", &get(&self.delta_tail_tx)),
            ("delta_checkpoint_hits", &get(&self.delta_checkpoint_hits)),
            ("wall_ms", &wall_ms),
            ("candidates_checked", &get(&self.candidates_checked)),
            ("patterns_found", &get(&self.patterns_found)),
        ];
        let cache: [Row; 7] = [
            ("hits", &cache.hits),
            ("misses", &cache.misses),
            ("evictions", &cache.evictions),
            ("invalidations", &cache.invalidations),
            ("patches", &cache.patches),
            ("entries", &cache.entries),
            ("bytes", &cache.bytes),
        ];
        let mut s = String::from("{\n");
        push_rows(&mut s, "  ", &top);
        push_group(&mut s, "mine", &mine);
        push_group(&mut s, "cache", &cache);
        if let Some(p) = persist {
            let persist: [Row; 5] = [
                ("wal_records", &get(&p.wal_records)),
                ("wal_bytes", &get(&p.wal_bytes)),
                ("snapshots", &get(&p.snapshots)),
                ("recovered_datasets", &get(&p.recovered_datasets)),
                ("torn_tail_truncations", &get(&p.torn_tail_truncations)),
            ];
            push_group(&mut s, "persist", &persist);
        }
        if let Some(r) = repl {
            s.push_str(",\n  \"repl\": ");
            s.push_str(&r.metrics_json());
        }
        s.push_str("\n}");
        s
    }
}

/// One `"key": value` line of the metrics document.
type Row<'a> = (&'a str, &'a dyn fmt::Display);

/// The one writer of the metrics document: appends `rows` at `indent`,
/// separated by commas (none after the last row).
fn push_rows(s: &mut String, indent: &str, rows: &[Row]) {
    for (i, (key, value)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(s, "{sep}{indent}\"{key}\": {value}");
    }
}

/// Appends the nested group `name` holding `rows`.
fn push_group(s: &mut String, name: &str, rows: &[Row]) {
    let _ = write!(s, ",\n  \"{name}\": {{\n");
    push_rows(s, "    ", rows);
    s.push_str("\n  }");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_counter_group() {
        let m = ServerMetrics::new();
        ServerMetrics::bump(&m.requests_total);
        ServerMetrics::bump(&m.mine_runs);
        let stats = MiningStats { candidates_checked: 10, patterns_found: 3, ..Default::default() };
        m.absorb_mine(Duration::from_millis(2), &stats, None);
        let json =
            m.to_json(&CacheStats { hits: 5, patches: 4, ..CacheStats::default() }, 2, None, None);
        assert!(json.contains("\"requests_total\": 1"));
        assert!(json.contains("\"datasets\": 2"));
        assert!(json.contains("\"hits\": 5"));
        assert!(json.contains("\"patches\": 4"));
        assert!(json.contains("\"patterns_found\": 3"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains("\"persist\""), "no persist group without persistence");

        let counters = PersistCounters::default();
        counters.wal_records.store(12, Ordering::Relaxed);
        counters.torn_tail_truncations.store(1, Ordering::Relaxed);
        let json = m.to_json(&CacheStats::default(), 2, Some(&counters), None);
        assert!(json.contains("\"wal_records\": 12"));
        assert!(json.contains("\"torn_tail_truncations\": 1"));
        assert!(json.contains("\"snapshots\": 0"));
        assert!(json.ends_with('}'));
        assert!(!json.contains("\"repl\""), "no repl group without replication");
    }

    #[test]
    fn json_document_is_byte_stable() {
        // Every counter holds a distinct value, so a key rendered from the
        // wrong counter, a lost separator or a reordered group changes the
        // bytes. Clients split the body on `"key": `, so its layout is part
        // of the contract.
        let m = ServerMetrics::new();
        let persist = PersistCounters::default();
        let counters = [
            &m.requests_total,
            &m.client_errors,
            &m.server_errors,
            &m.rejected_backpressure,
            &m.mine_runs,
            &m.mine_complete,
            &m.mine_partial,
            &m.mine_fastpath,
            &m.delta_mines,
            &m.delta_full,
            &m.delta_retained,
            &m.delta_remined,
            &m.delta_tail_tx,
            &m.delta_checkpoint_hits,
            &m.appends,
            &m.appends_patched,
            &m.appended_transactions,
            &m.active_queries,
            &m.mining_wall_micros,
            &m.candidates_checked,
            &m.patterns_found,
            &persist.wal_records,
            &persist.wal_bytes,
            &persist.snapshots,
            &persist.recovered_datasets,
            &persist.torn_tail_truncations,
        ];
        for (c, v) in counters.into_iter().zip(1u64..) {
            c.store(v, Ordering::Relaxed);
        }
        m.mining_wall_micros.store(1_234_567, Ordering::Relaxed);
        let cache = CacheStats {
            hits: 31,
            misses: 32,
            evictions: 33,
            invalidations: 34,
            patches: 35,
            entries: 36,
            bytes: 37,
        };
        let json = m.to_json(&cache, 9, Some(&persist), None);
        let golden = r#"{
  "requests_total": 1,
  "client_errors": 2,
  "server_errors": 3,
  "rejected_backpressure": 4,
  "datasets": 9,
  "appends": 15,
  "appends_patched": 16,
  "appended_transactions": 17,
  "active_queries": 18,
  "mine": {
    "runs": 5,
    "complete": 6,
    "partial": 7,
    "fastpath": 8,
    "delta": 9,
    "delta_full": 10,
    "delta_retained": 11,
    "delta_remined": 12,
    "delta_tail_tx": 13,
    "delta_checkpoint_hits": 14,
    "wall_ms": 1234.567,
    "candidates_checked": 20,
    "patterns_found": 21
  },
  "cache": {
    "hits": 31,
    "misses": 32,
    "evictions": 33,
    "invalidations": 34,
    "patches": 35,
    "entries": 36,
    "bytes": 37
  },
  "persist": {
    "wal_records": 22,
    "wal_bytes": 23,
    "snapshots": 24,
    "recovered_datasets": 25,
    "torn_tail_truncations": 26
  }
}"#;
        assert_eq!(json, golden);
    }

    #[test]
    fn repl_group_rides_along_when_configured() {
        use crate::replica::{ReplMetrics, ReplRole, REPL_MAX_LAG_SEQS};
        let m = ServerMetrics::new();
        let state = ReplState::new(ReplRole::Replica, REPL_MAX_LAG_SEQS);
        ReplMetrics::bump(&state.metrics.records_applied, 9);
        let json = m.to_json(&CacheStats::default(), 0, None, Some(&state));
        assert!(json.contains("\"repl\": {"), "{json}");
        assert!(json.contains("\"records_applied\":9"), "{json}");
        assert!(json.contains("\"role\":\"replica\""), "{json}");
        assert!(json.ends_with('}'));
    }

    #[test]
    fn delta_stats_fold_into_delta_or_full() {
        use rpm_core::{DeltaMode, DeltaStats, FullReason};
        let m = ServerMetrics::new();
        let mut stats = DeltaStats {
            mode: DeltaMode::Delta,
            touched_transactions: 1,
            dirty_items: 1,
            dirty_candidates: 1,
            reachable_transactions: 2,
            retained_patterns: 7,
            remined_patterns: 3,
            tail_transactions: 5,
            checkpoint_hits: 4,
        };
        m.absorb_delta(&stats);
        stats.mode = DeltaMode::Full(FullReason::ColdStore);
        m.absorb_delta(&stats);
        let json = m.to_json(&CacheStats::default(), 1, None, None);
        assert!(json.contains("\"delta\": 1"));
        assert!(json.contains("\"delta_full\": 1"));
        assert!(json.contains("\"delta_retained\": 7"));
        assert!(json.contains("\"delta_remined\": 3"));
        assert!(json.contains("\"delta_tail_tx\": 5"));
        assert!(json.contains("\"delta_checkpoint_hits\": 4"));
    }

    #[test]
    fn mines_fold_into_complete_or_partial() {
        let m = ServerMetrics::new();
        let stats = MiningStats { candidates_checked: 5, patterns_found: 2, ..Default::default() };
        m.absorb_mine(Duration::from_micros(1500), &stats, None);
        m.absorb_mine(Duration::from_micros(500), &stats, Some(AbortReason::Cancelled));
        assert_eq!(m.mine_complete.load(Ordering::Relaxed), 1);
        assert_eq!(m.mine_partial.load(Ordering::Relaxed), 1);
        assert_eq!(m.candidates_checked.load(Ordering::Relaxed), 10);
        assert_eq!(m.patterns_found.load(Ordering::Relaxed), 4);
        assert_eq!(m.mining_wall_micros.load(Ordering::Relaxed), 2000);
    }
}
