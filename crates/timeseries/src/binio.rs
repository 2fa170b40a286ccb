//! Compact binary (de)serialisation of transactional databases.
//!
//! The text format (`io`) is greppable but verbose; a full-scale Twitter
//! simulation (177k transactions, ~2M incidences) round-trips much faster
//! in this binary format: LEB128 varints throughout, delta-encoded
//! timestamps, delta-encoded item ids within each (sorted) transaction.
//! Implemented on plain `Vec<u8>` / slice cursors — `std` is all the
//! format needs, and the workspace must build offline.
//!
//! Layout: magic `RPMB`, version byte, item table (count + length-prefixed
//! UTF-8 labels), transaction count, then per transaction a zigzag-varint
//! timestamp delta and a varint item count followed by varint id deltas.
//!
//! The module also defines the content [`fingerprint`] that keys served
//! results. It hashes the same content — labels in id order, then each
//! transaction as (timestamp, item count, ids) — but as two running
//! FNV-1a chains rather than over this encoding, so a holder of an
//! append-only stream extends it per transaction instead of re-encoding
//! the whole database on every append.

use crate::database::TransactionDb;
use crate::error::{Error, Result};
use crate::item::ItemId;
use crate::timestamp::Timestamp;

const MAGIC: &[u8; 4] = b"RPMB";
const VERSION: u8 = 1;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// A read cursor over the serialised byte slice.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> Result<u8> {
        let b = *self.data.get(self.pos).ok_or_else(|| parse("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn get_slice(&mut self, len: usize) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(parse("unexpected end of input"));
        }
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn get_varint(&mut self) -> Result<u64> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            if self.remaining() == 0 {
                return Err(parse("truncated varint"));
            }
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(parse("varint overflow"));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn parse(message: &str) -> Error {
    Error::Parse { line: 0, message: message.to_string() }
}

/// Serialises `db` into a compact byte buffer.
pub fn to_bytes(db: &TransactionDb) -> Vec<u8> {
    let mut buf = Vec::with_capacity(db.len() * 8 + 64);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    put_varint(&mut buf, db.item_count() as u64);
    for item in db.items().iter() {
        put_varint(&mut buf, item.label.len() as u64);
        buf.extend_from_slice(item.label.as_bytes());
    }
    put_varint(&mut buf, db.len() as u64);
    let mut prev_ts = 0i64;
    for t in db.transactions() {
        put_varint(&mut buf, zigzag(t.timestamp() - prev_ts));
        prev_ts = t.timestamp();
        put_varint(&mut buf, t.len() as u64);
        let mut prev_id = 0u32;
        for &item in t.items() {
            // Items are sorted, so deltas are non-negative and small.
            put_varint(&mut buf, u64::from(item.0 - prev_id));
            prev_id = item.0;
        }
    }
    buf
}

/// Deserialises a database from [`to_bytes`] output.
pub fn from_bytes(data: &[u8]) -> Result<TransactionDb> {
    let mut buf = Reader { data, pos: 0 };
    if buf.remaining() < 5 || buf.get_slice(4)? != MAGIC {
        return Err(parse("bad magic (not an RPMB file)"));
    }
    let version = buf.get_u8()?;
    if version != VERSION {
        return Err(parse(&format!("unsupported version {version}")));
    }
    let mut db = TransactionDb::builder().build();
    let n_items = buf.get_varint()? as usize;
    for _ in 0..n_items {
        let len = buf.get_varint()? as usize;
        let raw = buf.get_slice(len).map_err(|_| parse("truncated label"))?;
        let label = std::str::from_utf8(raw).map_err(|_| parse("label is not valid UTF-8"))?;
        db.items_mut().intern(label);
    }
    let n_txns = buf.get_varint()? as usize;
    let mut ts = 0i64;
    for _ in 0..n_txns {
        ts += unzigzag(buf.get_varint()?);
        let len = buf.get_varint()? as usize;
        let mut ids = Vec::with_capacity(len.min(buf.remaining()));
        let mut id = 0u32;
        for _ in 0..len {
            let delta = buf.get_varint()?;
            id = id
                .checked_add(u32::try_from(delta).map_err(|_| parse("id delta overflow"))?)
                .ok_or_else(|| parse("id overflow"))?;
            ids.push(ItemId(id));
        }
        db.append(ts, ids)?;
    }
    if buf.remaining() > 0 {
        return Err(parse("trailing bytes after database"));
    }
    Ok(db)
}

/// Magic prefix of a serving-layer snapshot file (a versioned header
/// followed by an embedded [`to_bytes`] database).
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"RPMS";
/// Current snapshot envelope version. Readers reject versions they do not
/// know; *within* a version, the header block is length-prefixed so later
/// revisions may append fields that old readers skip.
pub const SNAPSHOT_VERSION: u8 = 1;

/// The versioned metadata a serving snapshot carries ahead of the database:
/// enough for a recovering server to rebuild the dataset's incremental
/// miner (hot parameters), resume its WAL cursor (`seq`) and restore its
/// bookkeeping (`appends`) without any side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Highest WAL sequence number folded into the snapshot; recovery
    /// replays only log records with a larger sequence.
    pub seq: u64,
    /// Hot mining period the dataset's scanners are maintained for.
    pub per: Timestamp,
    /// Hot minimum periodic-support (absolute count).
    pub min_ps: u64,
    /// Hot minimum recurrence.
    pub min_rec: u64,
    /// Append requests the dataset had absorbed when the snapshot was cut.
    pub appends: u64,
}

/// Serialises a snapshot: magic, version, length-prefixed header block,
/// then the [`to_bytes`] encoding of `db` running to the end of the buffer.
pub fn snapshot_to_bytes(header: &SnapshotHeader, db: &TransactionDb) -> Vec<u8> {
    let mut head = Vec::with_capacity(64);
    put_varint(&mut head, header.seq);
    put_varint(&mut head, zigzag(header.per));
    put_varint(&mut head, header.min_ps);
    put_varint(&mut head, header.min_rec);
    put_varint(&mut head, header.appends);
    let mut buf = Vec::with_capacity(head.len() + db.len() * 8 + 80);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.push(SNAPSHOT_VERSION);
    put_varint(&mut buf, head.len() as u64);
    buf.extend_from_slice(&head);
    buf.extend_from_slice(&to_bytes(db));
    buf
}

/// Deserialises a snapshot produced by [`snapshot_to_bytes`]. Unknown
/// versions and truncated or trailing bytes are parse errors — a snapshot
/// is only trusted whole.
pub fn snapshot_from_bytes(data: &[u8]) -> Result<(SnapshotHeader, TransactionDb)> {
    let mut buf = Reader { data, pos: 0 };
    if buf.remaining() < 5 || buf.get_slice(4)? != SNAPSHOT_MAGIC {
        return Err(parse("bad magic (not an RPMS snapshot)"));
    }
    let version = buf.get_u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(parse(&format!("unsupported snapshot version {version}")));
    }
    let head_len = buf.get_varint()? as usize;
    if buf.remaining() < head_len {
        return Err(parse("truncated snapshot header"));
    }
    let body_at = buf.pos + head_len;
    let header = SnapshotHeader {
        seq: buf.get_varint()?,
        per: unzigzag(buf.get_varint()?),
        min_ps: buf.get_varint()?,
        min_rec: buf.get_varint()?,
        appends: buf.get_varint()?,
    };
    if buf.pos > body_at {
        return Err(parse("snapshot header overruns its declared length"));
    }
    // A same-version writer may have appended header fields we don't know;
    // the length prefix says where the database starts regardless.
    let db = from_bytes(&data[body_at..])?;
    Ok((header, db))
}

/// A 64-bit content fingerprint of `db`, so two databases fingerprint equal
/// exactly when their item tables and transactions are identical. Serving
/// layers use it as the dataset half of a result-cache key — any append,
/// relabel or reorder changes the fingerprint and thereby invalidates
/// cached results — and replication compares it across processes.
///
/// It joins two chained FNV-1a hashes: the label chain
/// ([`chain_label`] over the item table in id order) and the transaction
/// chain ([`chain_transaction`] over the transactions in order). Both only
/// ever extend as a stream grows (a same-timestamp merge re-folds its last
/// transaction from the prefix before it), so an append-only holder such
/// as `rpm_core::IncrementalMiner` keeps them running and answers in O(1)
/// what this function computes in one pass. The value is never persisted.
pub fn fingerprint(db: &TransactionDb) -> u64 {
    let labels = db.items().labels().fold(FNV1A_OFFSET, chain_label);
    let transactions = db
        .transactions()
        .iter()
        .fold(FNV1A_OFFSET, |h, t| chain_transaction(h, t.timestamp(), t.items()));
    join_fingerprint(labels, transactions)
}

/// Folds one item label, length-prefixed, into a [`fingerprint`]'s label
/// chain (seeded with [`FNV1A_OFFSET`] for the empty table).
#[inline]
pub fn chain_label(hash: u64, label: &str) -> u64 {
    fnv1a(fnv1a(hash, &(label.len() as u64).to_le_bytes()), label.as_bytes())
}

/// Folds one transaction — timestamp, item count, then its sorted ids —
/// into a [`fingerprint`]'s transaction chain (seeded with
/// [`FNV1A_OFFSET`] for the empty stream). The chain value after the
/// first `n` transactions is also the incremental miner's prefix hash,
/// which its pattern store uses to check it describes a prefix of the
/// stream.
#[inline]
pub fn chain_transaction(hash: u64, ts: Timestamp, items: &[ItemId]) -> u64 {
    let head = fnv1a(fnv1a(hash, &ts.to_le_bytes()), &(items.len() as u64).to_le_bytes());
    items.iter().fold(head, |h, item| fnv1a(h, &item.0.to_le_bytes()))
}

/// The [`fingerprint`] of a database whose label chain is `labels` and
/// whose transaction chain is `transactions`.
#[inline]
pub fn join_fingerprint(labels: u64, transactions: u64) -> u64 {
    fnv1a(labels, &transactions.to_le_bytes())
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes, and the seed of
/// every [`fnv1a`] chain.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a `hash`. Seed with [`FNV1A_OFFSET`];
/// chained calls hash the concatenation of their inputs. Inlined so the
/// fingerprint chains, which fold a few bytes per call, compile to
/// straight-line code in the caller's crate.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Writes `db` in binary format to `path`.
pub fn save_binary<P: AsRef<std::path::Path>>(db: &TransactionDb, path: P) -> Result<()> {
    std::fs::write(path, to_bytes(db))?;
    Ok(())
}

/// Reads a binary database from `path`.
pub fn load_binary<P: AsRef<std::path::Path>>(path: P) -> Result<TransactionDb> {
    let data = std::fs::read(path)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::running_example_db;

    #[test]
    fn roundtrip_preserves_everything() {
        let db = running_example_db();
        let bytes = to_bytes(&db);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.item_count(), db.item_count());
        for (a, b) in db.transactions().iter().zip(back.transactions()) {
            assert_eq!(a.timestamp(), b.timestamp());
            assert_eq!(a.items(), b.items());
        }
        // Labels survive with identical ids.
        for item in db.items().iter() {
            assert_eq!(back.items().label(item.id), item.label);
        }
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let db = running_example_db();
        let bin = to_bytes(&db);
        let mut text = Vec::new();
        crate::io::write_timestamped(&db, &mut text).unwrap();
        assert!(bin.len() < text.len(), "{} vs {}", bin.len(), text.len());
    }

    #[test]
    fn varint_and_zigzag_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader { data: &buf, pos: 0 };
            assert_eq!(r.get_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicking() {
        assert!(from_bytes(b"").is_err());
        assert!(from_bytes(b"NOPE\x01").is_err());
        assert!(from_bytes(b"RPMB\x09").is_err(), "future version rejected");
        // Truncations at every prefix of a valid file must error, not panic.
        let db = running_example_db();
        let bytes = to_bytes(&db);
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Trailing garbage rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(from_bytes(&extended).is_err());
    }

    #[test]
    fn hostile_length_prefix_does_not_overallocate() {
        // A huge claimed transaction length with no data behind it must
        // fail cleanly rather than reserving gigabytes.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        put_varint(&mut buf, 0); // no items
        put_varint(&mut buf, 1); // one transaction
        put_varint(&mut buf, zigzag(1)); // ts
        put_varint(&mut buf, u64::MAX); // absurd item count
        assert!(from_bytes(&buf).is_err());
    }

    #[test]
    fn negative_timestamps_roundtrip() {
        let mut b = crate::database::DbBuilder::new();
        b.add_labeled(-500, &["x"]);
        b.add_labeled(-2, &["x", "y"]);
        b.add_labeled(1000, &["y"]);
        let db = b.build();
        let back = from_bytes(&to_bytes(&db)).unwrap();
        let stamps: Vec<i64> = back.transactions().iter().map(|t| t.timestamp()).collect();
        assert_eq!(stamps, vec![-500, -2, 1000]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("rpm_binio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.rpmb");
        let db = running_example_db();
        save_binary(&db, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(back.len(), 12);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = crate::database::DbBuilder::new().build();
        let back = from_bytes(&to_bytes(&db)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.item_count(), 0);
        assert_eq!(fingerprint(&db), fingerprint(&back));
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let db = running_example_db();
        let fp = fingerprint(&db);
        assert_eq!(fp, fingerprint(&from_bytes(&to_bytes(&db)).unwrap()));
        // Appending changes the fingerprint; an empty db differs from both.
        let mut grown = db.clone();
        let id = grown.items_mut().intern("late-arrival");
        grown.append(99, vec![id]).unwrap();
        assert_ne!(fp, fingerprint(&grown));
        assert_ne!(fp, fingerprint(&crate::database::DbBuilder::new().build()));
        // Fingerprints travel in replication acks and append answers: the
        // value is part of the wire format.
        assert_eq!(fp, 0xc683_cc41_269e_8d4a);
        assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, b"ab"), b"c"), fnv1a(FNV1A_OFFSET, b"abc"));
    }

    #[test]
    fn fingerprint_changes_with_one_label_timestamp_or_boundary() {
        let build = |rows: &[(i64, &[&str])]| {
            let mut b = crate::database::DbBuilder::new();
            for (ts, labels) in rows {
                b.add_labeled(*ts, labels);
            }
            b.build()
        };
        let base = build(&[(1, &["a", "b"]), (2, &["c"])]);
        let fp = fingerprint(&base);
        assert_eq!(fp, fingerprint(&build(&[(1, &["a", "b"]), (2, &["c"])])), "equal content");
        // One label.
        assert_ne!(fp, fingerprint(&build(&[(1, &["a", "b"]), (2, &["d"])])));
        // One timestamp.
        assert_ne!(fp, fingerprint(&build(&[(1, &["a", "b"]), (3, &["c"])])));
        // One boundary: the same ids split differently across two
        // timestamps, and across a label boundary.
        assert_ne!(fp, fingerprint(&build(&[(1, &["a"]), (2, &["b", "c"])])));
        assert_ne!(
            fingerprint(&build(&[(1, &["ab", "c"])])),
            fingerprint(&build(&[(1, &["a", "bc"])]))
        );
        // A label no transaction uses still counts.
        let mut unused = base.clone();
        unused.items_mut().intern("unused");
        assert_ne!(fp, fingerprint(&unused));
        // The chains compose: folding the pieces by hand gives the value.
        let labels = ["a", "b", "c"].into_iter().fold(FNV1A_OFFSET, chain_label);
        let txs = base
            .transactions()
            .iter()
            .fold(FNV1A_OFFSET, |h, t| chain_transaction(h, t.timestamp(), t.items()));
        assert_eq!(fp, join_fingerprint(labels, txs));
    }

    #[test]
    fn snapshot_roundtrip_preserves_header_and_db() {
        let db = running_example_db();
        let header = SnapshotHeader { seq: 42, per: 2, min_ps: 3, min_rec: 2, appends: 7 };
        let bytes = snapshot_to_bytes(&header, &db);
        let (back_header, back_db) = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back_header, header);
        assert_eq!(fingerprint(&back_db), fingerprint(&db));
    }

    #[test]
    fn snapshot_rejects_corruption_never_panics() {
        let db = running_example_db();
        let header = SnapshotHeader { seq: 1, per: -5, min_ps: 1, min_rec: 1, appends: 0 };
        let bytes = snapshot_to_bytes(&header, &db);
        // Wrong magic, unknown version, and every truncation must error.
        assert!(snapshot_from_bytes(b"RPMB\x01").is_err(), "a bare db is not a snapshot");
        let mut wrong_version = bytes.clone();
        wrong_version[4] = SNAPSHOT_VERSION + 1;
        assert!(snapshot_from_bytes(&wrong_version).is_err());
        for cut in 0..bytes.len() {
            assert!(snapshot_from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(snapshot_from_bytes(&extended).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn snapshot_header_skips_unknown_same_version_fields() {
        // A same-version writer that appends header fields must still be
        // readable: the length prefix tells old readers where the db starts.
        let db = running_example_db();
        let header = SnapshotHeader { seq: 9, per: 3, min_ps: 4, min_rec: 2, appends: 1 };
        let bytes = snapshot_to_bytes(&header, &db);
        // Rebuild with one extra header byte.
        let mut head = Vec::new();
        put_varint(&mut head, header.seq);
        put_varint(&mut head, zigzag(header.per));
        put_varint(&mut head, header.min_ps);
        put_varint(&mut head, header.min_rec);
        put_varint(&mut head, header.appends);
        head.push(0xAB); // future field
        let mut extended = Vec::new();
        extended.extend_from_slice(SNAPSHOT_MAGIC);
        extended.push(SNAPSHOT_VERSION);
        put_varint(&mut extended, head.len() as u64);
        extended.extend_from_slice(&head);
        extended.extend_from_slice(&to_bytes(&db));
        let (back, back_db) = snapshot_from_bytes(&extended).unwrap();
        assert_eq!(back, header);
        assert_eq!(back_db.len(), db.len());
        let _ = bytes;
    }

    #[test]
    fn randomized_snapshot_header_roundtrip() {
        // Seeded-PRNG stand-in for the (network-gated) proptest suite:
        // header round-trip across the value space (including negative
        // periods and u64-extreme sequence numbers) over varied databases.
        use crate::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(777);
        for case in 0..40 {
            let mut b = crate::database::DbBuilder::new();
            let mut ts = rng.random_range(-100..100i64);
            for _ in 0..(case % 9) {
                ts += rng.random_range(0..9i64);
                b.add_labeled(ts, &["a", "b"]);
            }
            let db = b.build();
            let seq = if case % 5 == 0 {
                u64::MAX - case as u64
            } else {
                rng.random_range(0..1i64 << 40) as u64
            };
            let header = SnapshotHeader {
                seq,
                per: rng.random_range(-(1i64 << 30)..1i64 << 30),
                min_ps: rng.random_range(0..1i64 << 20) as u64,
                min_rec: rng.random_range(0..1i64 << 10) as u64,
                appends: rng.random_range(0..1i64 << 30) as u64,
            };
            let bytes = snapshot_to_bytes(&header, &db);
            let (back, back_db) = snapshot_from_bytes(&bytes).unwrap();
            assert_eq!(back, header, "case {case}");
            assert_eq!(fingerprint(&back_db), fingerprint(&db), "case {case}");
            assert_eq!(
                snapshot_to_bytes(&back, &back_db),
                bytes,
                "snapshot re-encode is byte-stable, case {case}"
            );
        }
    }

    #[test]
    fn randomized_roundtrip_preserves_equality_and_fingerprint() {
        // Seeded-PRNG stand-in for the (network-gated) proptest suite: the
        // round-trip law `from_bytes(to_bytes(db)) == db` plus fingerprint
        // stability, across item-count/density/timestamp-gap regimes and the
        // empty database.
        use crate::prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(2025);
        for case in 0..25 {
            let mut b = crate::database::DbBuilder::new();
            let n_items = case % 7; // includes 0 => empty db
            let n_txns = (case * 3) % 40;
            let mut ts = rng.random_range(-1000..1000i64);
            for _ in 0..n_txns {
                ts += rng.random_range(0..500i64);
                let labels: Vec<String> = (0..n_items)
                    .filter(|_| rng.random_f64() < 0.5)
                    .map(|i| format!("item-{i}"))
                    .collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                if !refs.is_empty() {
                    b.add_labeled(ts, &refs);
                }
            }
            let db = b.build();
            let bytes = to_bytes(&db);
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back.len(), db.len(), "case {case}");
            assert_eq!(back.item_count(), db.item_count(), "case {case}");
            for (a, b) in db.transactions().iter().zip(back.transactions()) {
                assert_eq!((a.timestamp(), a.items()), (b.timestamp(), b.items()), "case {case}");
            }
            for item in db.items().iter() {
                assert_eq!(back.items().label(item.id), item.label, "case {case}");
            }
            assert_eq!(to_bytes(&back), bytes, "re-encoding is byte-stable, case {case}");
            assert_eq!(fingerprint(&db), fingerprint(&back), "case {case}");
        }
    }
}
