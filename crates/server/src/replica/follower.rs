//! Follower-side replication: the client that keeps a replica converged.
//!
//! One thread owns the whole follower life cycle: connect to the primary's
//! replication address, handshake, then apply the stream — bootstrap
//! snapshots through [`Registry::apply_snapshot`] and shipped records
//! through [`Registry::apply_record`], the same journal-apply semantics
//! recovery uses, so the incremental miner, pattern store, and result
//! cache stay warm. Every `Snapshot`/`Record` message is acknowledged with
//! the replica's post-apply stream fingerprint; when the primary attached
//! its own fingerprint the replica also checks it locally and abandons the
//! session on a mismatch. Any abnormal session end — corrupt frame,
//! fingerprint divergence, heartbeat silence, plain disconnect — counts a
//! resync and reconnects from scratch, which re-runs bootstrap and is what
//! forces convergence after divergence.
//!
//! The loop ends cleanly on shutdown or promotion
//! (`POST /v1/admin/promote` seals the stream; the next loop iteration
//! observes the flag and exits, leaving the journal open for local writes).
//!
//! [`Registry::apply_snapshot`]: crate::Registry::apply_snapshot
//! [`Registry::apply_record`]: crate::Registry::apply_record

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use rpm_core::sync::read_recover;

use crate::persist::wal;
use crate::replica::proto::{self, Msg};
use crate::replica::{ReplMetrics, ReplState};
use crate::Shared;

/// Pause between reconnect attempts while the primary is unreachable.
const RECONNECT_BACKOFF_MILLIS: u64 = 200;

/// How one replication session ended.
enum SessionEnd {
    /// Shutdown or promotion: leave the loop for good.
    Sealed,
    /// The primary could not be reached or refused the handshake; retry
    /// without counting a resync.
    NeverEstablished,
    /// An established session broke (corruption, divergence, heartbeat
    /// silence, disconnect): count a resync and re-bootstrap.
    Dropped,
}

/// Spawns the follower client thread.
pub(crate) fn spawn_client(shared: Arc<Shared>, primary: String) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || client_loop(&shared, &primary))
}

fn client_loop(shared: &Arc<Shared>, primary: &str) {
    let Some(repl) = shared.repl.as_ref() else { return };
    loop {
        if shared.shutdown_started.load(Ordering::SeqCst) || repl.is_promoted() {
            return;
        }
        match run_session(shared, repl, primary) {
            SessionEnd::Sealed => return,
            SessionEnd::NeverEstablished => {}
            SessionEnd::Dropped => ReplMetrics::bump(&repl.metrics.resyncs, 1),
        }
        // Not a pool worker: this dedicated client thread owns no requests,
        // and the backoff is what keeps a dead primary from being hammered.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(RECONNECT_BACKOFF_MILLIS));
    }
}

fn run_session(shared: &Arc<Shared>, repl: &ReplState, primary: &str) -> SessionEnd {
    let Ok(mut stream) = TcpStream::connect(primary) else {
        return SessionEnd::NeverEstablished;
    };
    let _ = stream.set_nodelay(true);
    if proto::write_msg(&mut stream, &Msg::Hello { version: proto::PROTO_VERSION }).is_err() {
        return SessionEnd::NeverEstablished;
    }
    let heartbeat_millis = match proto::read_msg(&mut stream) {
        Ok(Msg::Welcome { version, http_addr, heartbeat_millis })
            if version == proto::PROTO_VERSION =>
        {
            repl.set_primary_http(&http_addr);
            heartbeat_millis.max(1)
        }
        _ => return SessionEnd::NeverEstablished,
    };
    // Three missed heartbeats of silence and the session is declared dead.
    if stream.set_read_timeout(Some(Duration::from_millis(3 * heartbeat_millis))).is_err() {
        return SessionEnd::NeverEstablished;
    }
    loop {
        if shared.shutdown_started.load(Ordering::SeqCst) || repl.is_promoted() {
            return SessionEnd::Sealed;
        }
        let msg = match proto::read_msg(&mut stream) {
            Ok(msg) => msg,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                ReplMetrics::bump(&repl.metrics.heartbeat_misses, 1);
                return SessionEnd::Dropped;
            }
            // Corrupt frames (CRC/decode) and disconnects both land here.
            Err(_) => return SessionEnd::Dropped,
        };
        match msg {
            Msg::Snapshot { name, expected_fp, snapshot } => {
                let Ok((header, db)) = rpm_timeseries::snapshot_from_bytes(&snapshot) else {
                    return SessionEnd::Dropped;
                };
                let Ok((old_fp, fp)) = shared.registry.apply_snapshot(&name, &header, &db) else {
                    return SessionEnd::Dropped;
                };
                ReplMetrics::bump(&repl.metrics.snapshots_applied, 1);
                if let Some(old_fp) = old_fp {
                    crate::retire(shared, old_fp, fp);
                }
                if !ack(&mut stream, &name, header.seq, fp) {
                    return SessionEnd::Dropped;
                }
                if expected_fp != 0 && fp != expected_fp {
                    ReplMetrics::bump(&repl.metrics.divergences, 1);
                    return SessionEnd::Dropped;
                }
            }
            Msg::Record { name, expected_fp, payload } => {
                let Some(record) = wal::decode_payload(&payload) else {
                    return SessionEnd::Dropped;
                };
                let seq = record.seq();
                let Ok(outcome) = shared.registry.apply_record(&name, &record) else {
                    return SessionEnd::Dropped;
                };
                let ack_fp = if outcome.applied {
                    ReplMetrics::bump(&repl.metrics.records_applied, 1);
                    refresh_cache(shared, &name, &outcome);
                    outcome.fingerprint
                } else if expected_fp != 0 {
                    // Seq-skipped duplicate (catch-up overlap): nothing new
                    // applied, nothing to compare — echo the expectation.
                    expected_fp
                } else {
                    outcome.fingerprint
                };
                if !ack(&mut stream, &name, seq, ack_fp) {
                    return SessionEnd::Dropped;
                }
                if outcome.applied && expected_fp != 0 && outcome.fingerprint != expected_fp {
                    ReplMetrics::bump(&repl.metrics.divergences, 1);
                    return SessionEnd::Dropped;
                }
            }
            Msg::Heartbeat { seqs } => {
                let lag = worst_lag(shared, &seqs);
                repl.metrics.lag_seqs.store(lag, Ordering::Relaxed);
                repl.set_bootstrapped();
            }
            // Anything else mid-stream is protocol confusion.
            _ => return SessionEnd::Dropped,
        }
    }
}

/// Keeps the result cache warm across an applied record, mirroring the
/// primary's append handler: patch the hot-params entry via a
/// dirty-frontier delta mine when possible, then publish the dataset's
/// head and retire the version it named before. A register record is a
/// full reset, so it is never patched.
fn refresh_cache(shared: &Arc<Shared>, name: &str, outcome: &crate::ApplyOutcome) {
    if outcome.fingerprint == outcome.old_fingerprint {
        return;
    }
    let Some(dataset) = shared.registry.get(name) else {
        return;
    };
    let ds = read_recover(&dataset);
    // The client thread is the only writer on a fenced replica, so the
    // fingerprint cannot move between apply and patch, and the read lock
    // keeps a promoted writer out until the head is published.
    if !outcome.register && ds.fingerprint() == outcome.fingerprint {
        crate::patch_hot_cache(shared, &ds);
    }
    crate::publish_and_retire(shared, ds);
}

fn ack(stream: &mut TcpStream, name: &str, seq: u64, fingerprint: u64) -> bool {
    let msg = Msg::Ack { name: name.to_string(), seq, fingerprint };
    proto::write_msg(stream, &msg).is_ok()
}

/// The worst per-dataset gap between the primary's journal and ours.
fn worst_lag(shared: &Arc<Shared>, seqs: &[(String, u64)]) -> u64 {
    let mut worst = 0u64;
    for (name, primary_seq) in seqs {
        let local = shared
            .registry
            .get(name)
            .and_then(|dataset| read_recover(&dataset).last_seq())
            .unwrap_or(0);
        worst = worst.max(primary_seq.saturating_sub(local));
    }
    worst
}
