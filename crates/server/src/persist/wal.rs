//! The per-dataset append-only write-ahead log.
//!
//! Framing: every record is `[len: u32 LE][crc: u32 LE][payload]`, where
//! `crc` is CRC-32 (IEEE) over the payload. Records are only ever appended;
//! the file is truncated to zero after a successful snapshot (the snapshot
//! header's sequence number keeps replay idempotent when a crash lands
//! between the two steps).
//!
//! Recovery reads records in order and stops at the first frame that does
//! not check out — a short header, a length overrunning the file, a CRC
//! mismatch, or an undecodable payload. Everything before that point is
//! replayed; everything from it on is a *torn tail* (the classic shape of
//! a crash mid-`write`) and is physically truncated away so the next
//! append extends a clean log.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use rpm_timeseries::{from_bytes, to_bytes, Timestamp, TransactionDb};

use super::{FsyncPolicy, FSYNC_INTERVAL_MILLIS};

/// Hard cap on a single record's payload. Register records embed a whole
/// database in [`rpm_timeseries::to_bytes`] form, so the cap matches the
/// HTTP body cap; its real job is keeping recovery from allocating
/// gigabytes on a corrupt length prefix.
pub const WAL_MAX_RECORD_BYTES: usize = 256 * 1024 * 1024;

/// Bytes of framing ahead of every payload (length + checksum).
pub const WAL_FRAME_BYTES: usize = 8;

const TAG_REGISTER: u8 = 1;
const TAG_APPEND: u8 = 2;

/// One durable mutation of a dataset.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// Dataset (re)creation: resets the stream to `db`, mined at the given
    /// hot parameters. Also journalled by `replace=true` re-registration,
    /// in which case it supersedes everything before it in the log.
    Register {
        /// Monotone per-dataset sequence number.
        seq: u64,
        /// Hot mining period.
        per: Timestamp,
        /// Hot minimum periodic-support (absolute count).
        min_ps: u64,
        /// Hot minimum recurrence.
        min_rec: u64,
        /// The uploaded content, already normalised by the miner.
        db: TransactionDb,
    },
    /// The rows of one append request, in arrival order.
    Append {
        /// Monotone per-dataset sequence number.
        seq: u64,
        /// `(timestamp, labels)` rows exactly as the handler parsed them.
        rows: Vec<(Timestamp, Vec<String>)>,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Register { seq, .. } | WalRecord::Append { seq, .. } => *seq,
        }
    }
}

impl PartialEq for WalRecord {
    /// Structural equality; databases compare by canonical `.rpmb`
    /// encoding (test and diagnostic use — not a hot path).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                WalRecord::Register { seq, per, min_ps, min_rec, db },
                WalRecord::Register {
                    seq: seq2,
                    per: per2,
                    min_ps: min_ps2,
                    min_rec: min_rec2,
                    db: db2,
                },
            ) => {
                seq == seq2
                    && per == per2
                    && min_ps == min_ps2
                    && min_rec == min_rec2
                    && to_bytes(db) == to_bytes(db2)
            }
            (WalRecord::Append { seq, rows }, WalRecord::Append { seq: seq2, rows: rows2 }) => {
                seq == seq2 && rows == rows2
            }
            _ => false,
        }
    }
}

// --- CRC-32 (IEEE 802.3, reflected) -------------------------------------

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

/// CRC-32 of `data` — the per-record checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // lint:allow(panic-reachability): the index is masked to 0..256 and the table has 256 entries
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- payload codec -------------------------------------------------------
// The varint/zigzag primitives are shared with the replication protocol
// (`crate::replica::proto`), whose messages wrap WAL payloads in the same
// `[len][crc32][payload]` framing.

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) struct Cursor<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn get_u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn get_slice(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.data.len() - self.pos < len {
            return None;
        }
        // lint:allow(panic-reachability): the length check above guarantees pos + len <= data.len()
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Some(s)
    }

    pub(crate) fn get_varint(&mut self) -> Option<u64> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return None;
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(out);
            }
            shift += 7;
        }
    }

    pub(crate) fn rest(self) -> &'a [u8] {
        // lint:allow(panic-reachability): pos only advances past bounds-checked reads, so pos <= data.len()
        &self.data[self.pos..]
    }
}

/// Serialises a record's payload (the CRC-protected bytes).
pub fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match record {
        WalRecord::Register { seq, per, min_ps, min_rec, db } => {
            buf.push(TAG_REGISTER);
            put_varint(&mut buf, *seq);
            put_varint(&mut buf, zigzag(*per));
            put_varint(&mut buf, *min_ps);
            put_varint(&mut buf, *min_rec);
            buf.extend_from_slice(&to_bytes(db));
        }
        WalRecord::Append { seq, rows } => {
            buf.push(TAG_APPEND);
            put_varint(&mut buf, *seq);
            put_varint(&mut buf, rows.len() as u64);
            for (ts, labels) in rows {
                put_varint(&mut buf, zigzag(*ts));
                put_varint(&mut buf, labels.len() as u64);
                for label in labels {
                    put_varint(&mut buf, label.len() as u64);
                    buf.extend_from_slice(label.as_bytes());
                }
            }
        }
    }
    buf
}

/// Decodes a payload whose CRC already checked out. `None` means the
/// payload is structurally invalid despite the checksum (e.g. written by a
/// future format) — recovery treats the record as unreadable.
pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor { data: payload, pos: 0 };
    match c.get_u8()? {
        TAG_REGISTER => {
            let seq = c.get_varint()?;
            let per = unzigzag(c.get_varint()?);
            let min_ps = c.get_varint()?;
            let min_rec = c.get_varint()?;
            let db = from_bytes(c.rest()).ok()?;
            Some(WalRecord::Register { seq, per, min_ps, min_rec, db })
        }
        TAG_APPEND => {
            let seq = c.get_varint()?;
            let n_rows = c.get_varint()? as usize;
            if n_rows > payload.len() {
                return None; // a row costs ≥ 1 byte; reject absurd counts
            }
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let ts = unzigzag(c.get_varint()?);
                let n_labels = c.get_varint()? as usize;
                if n_labels > payload.len() {
                    return None;
                }
                let mut labels = Vec::with_capacity(n_labels);
                for _ in 0..n_labels {
                    let len = c.get_varint()? as usize;
                    let raw = c.get_slice(len)?;
                    labels.push(std::str::from_utf8(raw).ok()?.to_string());
                }
                rows.push((ts, labels));
            }
            Some(WalRecord::Append { seq, rows })
        }
        _ => None,
    }
}

// --- reading & repair ----------------------------------------------------

/// The outcome of reading a WAL back at startup.
#[derive(Debug)]
pub struct WalReplay {
    /// Every intact record, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of intact prefix (the post-repair file length).
    pub valid_len: u64,
    /// Whether a torn tail was found past the intact prefix
    /// (`read_and_repair` truncates it away; `read_records` leaves the
    /// file untouched).
    pub truncated_tail: bool,
}

/// Reads every intact record of the log at `path` **without touching the
/// file** — the scan used for replication catch-up, where the log belongs
/// to a live primary and must never be modified by a reader.
pub fn read_records(path: &Path) -> std::io::Result<WalReplay> {
    let data = std::fs::read(path)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if data.len() - pos < WAL_FRAME_BYTES {
            break;
        }
        let mut word = [0u8; 4];
        // lint:allow(panic-reachability): the frame-size check above guarantees WAL_FRAME_BYTES (8) bytes remain
        word.copy_from_slice(&data[pos..pos + 4]);
        let len = u32::from_le_bytes(word) as usize;
        // lint:allow(panic-reachability): same frame-size guarantee as above
        word.copy_from_slice(&data[pos + 4..pos + 8]);
        let crc = u32::from_le_bytes(word);
        if len > WAL_MAX_RECORD_BYTES || data.len() - pos - WAL_FRAME_BYTES < len {
            break; // torn mid-payload (or absurd length prefix)
        }
        // lint:allow(panic-reachability): the torn-payload check above guarantees len bytes remain after the frame
        let payload = &data[pos + WAL_FRAME_BYTES..pos + WAL_FRAME_BYTES + len];
        if crc32(payload) != crc {
            break; // bit rot or a torn rewrite
        }
        let Some(record) = decode_payload(payload) else {
            break; // checksum fine, structure not: unreadable from here on
        };
        records.push(record);
        pos += WAL_FRAME_BYTES + len;
    }
    let truncated_tail = pos != data.len();
    Ok(WalReplay { records, valid_len: pos as u64, truncated_tail })
}

/// Reads every intact record of the log at `path` and, if the file ends in
/// a torn or corrupt tail, truncates it back to the last intact frame.
pub fn read_and_repair(path: &Path) -> std::io::Result<WalReplay> {
    let replay = read_records(path)?;
    if replay.truncated_tail {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(replay.valid_len)?;
        file.sync_all()?;
    }
    Ok(replay)
}

// --- writing -------------------------------------------------------------

/// An open, append-only WAL file plus its fsync policy state.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    last_sync: Instant,
}

impl WalWriter {
    /// Opens the log for appending, creating it if absent. `truncate`
    /// discards any existing content first (fresh registration).
    pub fn open(path: &Path, policy: FsyncPolicy, truncate: bool) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).truncate(false).open(path)?;
        if truncate {
            file.set_len(0)?;
        }
        Ok(Self { file, policy, last_sync: Instant::now() })
    }

    /// Appends one framed record; returns the bytes written. Durability
    /// follows the policy: `Always` syncs before returning (an acknowledged
    /// append survives power loss), `Interval` syncs at most once per
    /// `FSYNC_INTERVAL_MILLIS`, `Never` leaves flushing to the OS.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<u64> {
        let payload = encode_payload(record);
        let mut framed = Vec::with_capacity(payload.len() + WAL_FRAME_BYTES);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        self.file.write_all(&framed)?;
        self.maybe_sync()?;
        Ok(framed.len() as u64)
    }

    fn maybe_sync(&mut self) -> std::io::Result<()> {
        match self.policy {
            FsyncPolicy::Always => self.file.sync_data(),
            FsyncPolicy::Interval => {
                if self.last_sync.elapsed() >= Duration::from_millis(FSYNC_INTERVAL_MILLIS) {
                    self.file.sync_data()?;
                    self.last_sync = Instant::now();
                }
                Ok(())
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Empties the log — called right after a successful snapshot, whose
    /// sequence number keeps replay correct even if this step never runs.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rpm_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.wal", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        let db = rpm_timeseries::running_example_db();
        vec![
            WalRecord::Register { seq: 1, per: 2, min_ps: 3, min_rec: 2, db },
            WalRecord::Append { seq: 2, rows: vec![(20, vec!["a".into(), "b".into()])] },
            WalRecord::Append {
                seq: 3,
                rows: vec![(21, vec!["café".into()]), (25, vec!["x".into()])],
            },
        ]
    }

    #[test]
    fn payload_roundtrip() {
        for record in sample_records() {
            let payload = encode_payload(&record);
            assert_eq!(decode_payload(&payload).unwrap(), record);
        }
    }

    #[test]
    fn crc32_known_answer() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn write_read_roundtrip_and_idempotent_repair() {
        let path = temp_wal("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, FsyncPolicy::Always, true).unwrap();
        for record in sample_records() {
            w.append(&record).unwrap();
        }
        drop(w);
        let replay = read_and_repair(&path).unwrap();
        assert_eq!(replay.records, sample_records());
        assert!(!replay.truncated_tail);
        assert_eq!(replay.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let path = temp_wal("torn");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, FsyncPolicy::Never, true).unwrap();
        for record in sample_records() {
            w.append(&record).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Cutting the file anywhere must recover a prefix of the records
        // and leave the file physically truncated to that prefix.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = read_and_repair(&path).unwrap();
            assert!(replay.records.len() <= 3, "cut {cut}");
            assert_eq!(
                replay.truncated_tail,
                replay.valid_len != cut as u64,
                "cut {cut}: torn flag must track whether bytes were dropped"
            );
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                replay.valid_len,
                "cut {cut}: file must be truncated to the intact prefix"
            );
            for (got, want) in replay.records.iter().zip(sample_records()) {
                assert_eq!(*got, want, "cut {cut}: intact prefix replays unchanged");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flips_stop_replay_before_the_flip() {
        let path = temp_wal("bitflip");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, FsyncPolicy::Never, true).unwrap();
        for record in sample_records() {
            w.append(&record).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the second record's payload.
        let mut corrupt = full.clone();
        let at = full.len() - 10;
        corrupt[at] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        let replay = read_and_repair(&path).unwrap();
        assert!(replay.truncated_tail);
        assert!(replay.records.len() < 3);
        for (got, want) in replay.records.iter().zip(sample_records()) {
            assert_eq!(*got, want, "intact prefix replays unchanged");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn absurd_length_prefix_is_a_torn_tail_not_an_allocation() {
        let path = temp_wal("absurd");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_and_repair(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.truncated_tail);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
