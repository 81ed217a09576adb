//! Checksummed, length-prefixed write-ahead log for live-table appends
//! (DESIGN.md §17).
//!
//! Every acknowledged ingest batch is committed here *before* the
//! in-memory revision swap, so a crash can lose at most batches the
//! server never acknowledged. The format is deliberately dumb:
//!
//! ```text
//! file   := magic record*
//! magic  := "VOXWAL01"                          (8 bytes)
//! record := len:u32le crc:u32le payload         (crc32-IEEE over payload)
//! payload:= version:u64le nrows:u32le row*
//! row    := ndims:u16le dim* nvals:u16le f64le*
//! dim    := 0x00 str | 0x01 nsteps:u16le str*   (phrase | path)
//! str    := len:u32le utf8
//! ```
//!
//! A record is valid iff its length prefix fits in the file and its CRC
//! matches; the first invalid record marks the torn tail and everything
//! before it is the recoverable prefix — always a whole number of
//! batches.
//!
//! ## Fsync policy
//!
//! [`FsyncMode`] picks the durability/throughput trade: `Always` syncs
//! after every batch, `Batch` group-commits (one sync per
//! [`GROUP_COMMIT_BATCHES`] appends, plus on graceful shutdown), `Off`
//! never syncs (page cache only — still crash-consistent by CRC, but a
//! power cut may drop acknowledged tails). A *failed* fsync follows the
//! fsyncgate rule: the write may be silently gone from the page cache,
//! so the log is poisoned — every later append fails until the process
//! restarts and recovers from disk. Retrying would re-acknowledge
//! possibly-lost pages. Before it poisons, an append whose fsync failed
//! cuts the log back to the last acknowledged length, so the refused
//! batch is not replayed by the next boot.
//!
//! ## Forced failures
//!
//! Tests reach these error paths through [`WalFaults`]: each switch makes
//! one storage call fail on every attempt (the record write, the fsync,
//! the cut). No binary sets them.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::durable::DurabilityStats;
use crate::error::DataError;
use crate::table::{DimValue, IngestRow, TableVersion};

/// Leading file magic of the WAL.
pub const MAGIC: [u8; 8] = *b"VOXWAL01";

/// Appends per fsync under [`FsyncMode::Batch`] group commit.
pub const GROUP_COMMIT_BATCHES: u64 = 8;

/// Sanity cap on a single record's payload (a batch of this size would
/// have been rejected far upstream); anything larger is a torn length
/// prefix, not a real record.
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// When the write-ahead log calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncMode {
    /// Sync after every batch: an acknowledged batch survives power loss.
    Always,
    /// Group commit: sync every [`GROUP_COMMIT_BATCHES`] appends and on
    /// graceful shutdown. An OS crash may drop the last unsynced group.
    Batch,
    /// Never sync (page cache only); a process crash loses nothing, a
    /// power cut may lose acknowledged tails.
    Off,
}

impl FsyncMode {
    /// Parse a `--fsync-mode` value.
    pub fn parse(s: &str) -> Result<FsyncMode, String> {
        match s {
            "always" => Ok(FsyncMode::Always),
            "batch" => Ok(FsyncMode::Batch),
            "off" => Ok(FsyncMode::Off),
            other => Err(format!("unknown fsync mode {other:?} (want always|batch|off)")),
        }
    }

    /// Stable wire name (stamped into `/stats` and BENCH headers).
    pub fn name(self) -> &'static str {
        match self {
            FsyncMode::Always => "always",
            FsyncMode::Batch => "batch",
            FsyncMode::Off => "off",
        }
    }
}

/// Storage calls of the log forced to fail on every attempt, for tests
/// of its error paths. All off by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalFaults {
    /// Fail every record write: the batch is refused and the log stays
    /// usable.
    pub write: bool,
    /// Fail every fsync: the refused record is cut and the log poisoned.
    pub fsync: bool,
    /// Fail the `set_len` that cuts a refused record back out of the log:
    /// the batch's outcome is unknown.
    pub cut: bool,
}

/// One decoded log record: the batch that produced `version`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    /// Table version this batch produced when first applied.
    pub version: TableVersion,
    /// The rows, exactly as ingested (paths preserved, so replay onto a
    /// fresh seed recreates dictionary members in the original order).
    pub rows: Vec<IngestRow>,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven; no external crates by workspace policy.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Payload encoding.

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode one batch into a record payload.
pub(crate) fn encode_batch(version: TableVersion, rows: &[IngestRow]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * rows.len().max(1));
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        out.extend_from_slice(&(row.dims.len() as u16).to_le_bytes());
        for dim in &row.dims {
            match dim {
                DimValue::Phrase(p) => {
                    out.push(0);
                    put_str(&mut out, p);
                }
                DimValue::Path(steps) => {
                    out.push(1);
                    out.extend_from_slice(&(steps.len() as u16).to_le_bytes());
                    for step in steps {
                        put_str(&mut out, step);
                    }
                }
            }
        }
        out.extend_from_slice(&(row.values.len() as u16).to_le_bytes());
        for v in &row.values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

/// Cursor over a payload during decode; every read is bounds-checked so a
/// corrupt record surfaces as an error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(format!("record truncated at byte {}", self.pos));
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string in record".to_string())
    }
}

/// Decode one record payload back into a batch.
pub(crate) fn decode_batch(payload: &[u8]) -> Result<WalBatch, String> {
    let mut c = Cursor { buf: payload, pos: 0 };
    let version = c.u64()?;
    let nrows = c.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(1 << 20));
    for _ in 0..nrows {
        let ndims = c.u16()? as usize;
        let mut dims = Vec::with_capacity(ndims.min(256));
        for _ in 0..ndims {
            match c.u8()? {
                0 => dims.push(DimValue::Phrase(c.str()?)),
                1 => {
                    let nsteps = c.u16()? as usize;
                    let mut steps = Vec::with_capacity(nsteps.min(256));
                    for _ in 0..nsteps {
                        steps.push(c.str()?);
                    }
                    dims.push(DimValue::Path(steps));
                }
                tag => return Err(format!("unknown dim tag {tag}")),
            }
        }
        let nvals = c.u16()? as usize;
        let mut values = Vec::with_capacity(nvals.min(256));
        for _ in 0..nvals {
            values.push(f64::from_bits(c.u64()?));
        }
        rows.push(IngestRow { dims, values });
    }
    if c.pos != payload.len() {
        return Err(format!("{} trailing bytes after batch", payload.len() - c.pos));
    }
    Ok(WalBatch { version, rows })
}

// ---------------------------------------------------------------------------
// Log reading.

/// Result of scanning a log file for its valid record prefix.
#[derive(Debug)]
pub(crate) struct LogRead {
    /// Decoded batches of the valid prefix, in file order.
    pub batches: Vec<WalBatch>,
    /// Bytes of the valid prefix (magic included); the torn-tail
    /// truncation point.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` exist (a torn tail).
    pub torn: bool,
}

/// Scan `path` for its valid prefix of whole, checksummed records. A
/// missing magic makes the whole file invalid (`valid_len` 0).
pub(crate) fn read_log(path: &Path) -> std::io::Result<LogRead> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Ok(LogRead { batches: Vec::new(), valid_len: 0, torn: file_len > 0 });
    }
    let mut batches = Vec::new();
    let mut pos = MAGIC.len();
    loop {
        let rest = bytes.len() - pos;
        if rest == 0 {
            return Ok(LogRead { batches, valid_len: pos as u64, torn: false });
        }
        let torn = |batches: Vec<WalBatch>, pos: usize| {
            Ok(LogRead { batches, valid_len: pos as u64, torn: true })
        };
        if rest < 8 {
            return torn(batches, pos);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES || rest - 8 < len as usize {
            return torn(batches, pos);
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return torn(batches, pos);
        }
        match decode_batch(payload) {
            Ok(batch) => batches.push(batch),
            Err(_) => return torn(batches, pos),
        }
        pos += 8 + len as usize;
    }
}

// ---------------------------------------------------------------------------
// The appendable log.

/// An open write-ahead log positioned at its end.
#[derive(Debug)]
pub struct Wal {
    file: File,
    mode: FsyncMode,
    /// Current file length (magic included).
    bytes: u64,
    /// Appends since the last fsync (group-commit trigger).
    unsynced: u64,
    /// Set by a failed fsync (fsyncgate): the log refuses all further
    /// writes until the process restarts and recovers from disk.
    poisoned: bool,
    stats: Arc<DurabilityStats>,
    faults: WalFaults,
}

impl Wal {
    /// Open `path` for appending, creating it (with magic) if missing.
    /// The caller must have truncated any torn tail first.
    pub(crate) fn open_at(
        path: &Path,
        mode: FsyncMode,
        stats: Arc<DurabilityStats>,
        faults: Option<WalFaults>,
    ) -> Result<Wal, DataError> {
        let io = |e: std::io::Error| DataError::Wal { op: "open", message: e.to_string() };
        let mut file = OpenOptions::new()
            .create(true)
            // The log is the acknowledged batches: reopening keeps it.
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        let bytes = if len < MAGIC.len() as u64 {
            file.set_len(0).map_err(io)?;
            file.seek(SeekFrom::Start(0)).map_err(io)?;
            file.write_all(&MAGIC).map_err(io)?;
            file.sync_all().map_err(io)?;
            MAGIC.len() as u64
        } else {
            file.seek(SeekFrom::End(0)).map_err(io)?;
            len
        };
        stats.wal_bytes.store(bytes, Ordering::Relaxed);
        let faults = faults.unwrap_or_default();
        Ok(Wal { file, mode, bytes, unsynced: 0, poisoned: false, stats, faults })
    }

    /// Current file length in bytes (magic included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether a failed fsync has poisoned the log (fsyncgate).
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Refuse `op` once the log is poisoned: every later write fails
    /// until a restart recovers from what disk really has.
    pub(crate) fn check_writable(&self, op: &'static str) -> Result<(), DataError> {
        if self.poisoned {
            return Err(DataError::Wal {
                op,
                message: "log poisoned by an earlier fsync failure; restart to recover".into(),
            });
        }
        Ok(())
    }

    /// Commit one batch: write the record, then apply the fsync policy.
    /// On any failure the batch is *not* durable and the caller must not
    /// publish it. A failed fsync cuts the log back to the last
    /// acknowledged length and poisons it; if even that cut fails, the
    /// error says the batch's outcome is unknown.
    pub(crate) fn append_batch(
        &mut self,
        version: TableVersion,
        rows: &[IngestRow],
    ) -> Result<(), DataError> {
        self.check_writable("append")?;
        if self.faults.write {
            return Err(DataError::Wal { op: "append", message: "injected write fault".into() });
        }
        let payload = encode_batch(version, rows);
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        if let Err(e) = self.file.write_all(&record) {
            // A short write leaves a torn (unacknowledged) tail; recovery
            // truncates it by CRC. Rewind our notion of the end so a
            // later append overwrites the torn bytes.
            let _ = self.file.seek(SeekFrom::Start(self.bytes));
            let _ = self.file.set_len(self.bytes);
            return Err(DataError::Wal { op: "append", message: e.to_string() });
        }
        let acked = self.bytes;
        self.bytes += record.len() as u64;
        self.stats.wal_bytes.store(self.bytes, Ordering::Relaxed);
        self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.unsynced += 1;
        let synced = match self.mode {
            FsyncMode::Always => self.fsync(),
            FsyncMode::Batch if self.unsynced >= GROUP_COMMIT_BATCHES => self.fsync(),
            _ => Ok(()),
        };
        synced.map_err(|e| self.cut_back(acked, e))
    }

    /// After a failed fsync, drop the refused record so recovery does not
    /// replay a batch the caller answers as not durable: set the file back
    /// to `acked` bytes, then sync the cut, best effort. Batches
    /// acknowledged before (the rest of a group commit) stay.
    fn cut_back(&mut self, acked: u64, err: DataError) -> DataError {
        let cut = if self.faults.cut {
            Err(std::io::Error::other("injected cut fault"))
        } else {
            self.file.set_len(acked)
        };
        if let Err(cut) = cut {
            return DataError::Wal {
                op: "fsync",
                message: format!(
                    "{err}; cutting the refused batch failed too ({cut}): outcome unknown"
                ),
            };
        }
        let _ = self.file.sync_all();
        self.bytes = acked;
        self.stats.wal_bytes.store(acked, Ordering::Relaxed);
        err
    }

    /// One fsync, honoring the forced failure and the fsyncgate rule.
    fn fsync(&mut self) -> Result<(), DataError> {
        let result = if self.faults.fsync {
            Err(std::io::Error::other("injected fsync fault"))
        } else {
            self.file.sync_all()
        };
        match result {
            Ok(()) => {
                self.unsynced = 0;
                self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                // fsyncgate: the kernel may have dropped the dirty pages
                // and cleared the error — a retry would report success
                // for data that never reached disk. Poison the log; only
                // a restart (which re-reads what disk really has) can
                // clear it.
                self.poisoned = true;
                self.stats.fsync_failures.fetch_add(1, Ordering::Relaxed);
                Err(DataError::Wal { op: "fsync", message: e.to_string() })
            }
        }
    }

    /// Flush and fsync regardless of mode (graceful shutdown); respects
    /// poisoning.
    pub(crate) fn flush_and_sync(&mut self) -> Result<(), DataError> {
        self.check_writable("fsync")?;
        if self.unsynced > 0 || self.mode == FsyncMode::Off {
            self.fsync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurabilityStats;
    use std::path::PathBuf;

    fn row(phrase: &str, v: f64) -> IngestRow {
        IngestRow { dims: vec![DimValue::Phrase(phrase.into())], values: vec![v] }
    }

    fn path_row(steps: &[&str], v: f64) -> IngestRow {
        IngestRow {
            dims: vec![DimValue::Path(steps.iter().map(|s| s.to_string()).collect())],
            values: vec![v],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn batch_roundtrips_through_encode_decode() {
        let rows = vec![row("the North East", 1.5), path_row(&["NY", "JFK"], -0.25)];
        let batch = decode_batch(&encode_batch(7, &rows)).unwrap();
        assert_eq!(batch.version, 7);
        assert_eq!(batch.rows, rows);
    }

    #[test]
    fn decode_rejects_truncated_and_trailing_garbage() {
        let payload = encode_batch(1, &[row("x", 1.0)]);
        assert!(decode_batch(&payload[..payload.len() - 1]).is_err());
        let mut longer = payload.clone();
        longer.push(0);
        assert!(decode_batch(&longer).is_err());
    }

    #[test]
    fn append_then_read_recovers_batches() {
        let dir = tempdir("wal_roundtrip");
        let path = dir.join("wal.log");
        let stats = Arc::new(DurabilityStats::default());
        let mut wal = Wal::open_at(&path, FsyncMode::Always, stats.clone(), None).unwrap();
        wal.append_batch(1, &[row("a", 1.0)]).unwrap();
        wal.append_batch(2, &[row("b", 2.0), row("c", 3.0)]).unwrap();
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 2, "always mode syncs per batch");
        let read = read_log(&path).unwrap();
        assert!(!read.torn);
        assert_eq!(read.valid_len, wal.bytes());
        assert_eq!(read.batches.len(), 2);
        assert_eq!(read.batches[1].version, 2);
        assert_eq!(read.batches[1].rows.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = tempdir("wal_group");
        let stats = Arc::new(DurabilityStats::default());
        let mut wal =
            Wal::open_at(&dir.join("wal.log"), FsyncMode::Batch, stats.clone(), None).unwrap();
        for v in 1..=GROUP_COMMIT_BATCHES {
            wal.append_batch(v, &[row("a", 1.0)]).unwrap();
        }
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 1, "one sync per group");
        wal.append_batch(GROUP_COMMIT_BATCHES + 1, &[row("a", 1.0)]).unwrap();
        wal.flush_and_sync().unwrap();
        assert_eq!(stats.fsyncs.load(Ordering::Relaxed), 2, "shutdown flush syncs the tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_yields_the_whole_batch_prefix() {
        let dir = tempdir("wal_torn");
        let path = dir.join("wal.log");
        let stats = Arc::new(DurabilityStats::default());
        let mut wal = Wal::open_at(&path, FsyncMode::Off, stats, None).unwrap();
        wal.append_batch(1, &[row("a", 1.0)]).unwrap();
        let good_len = wal.bytes();
        wal.append_batch(2, &[row("b", 2.0)]).unwrap();
        drop(wal);
        // Truncate mid-second-record: exactly batch 1 must survive.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(good_len + 5).unwrap();
        drop(f);
        let read = read_log(&path).unwrap();
        assert!(read.torn);
        assert_eq!(read.valid_len, good_len);
        assert_eq!(read.batches.len(), 1);
        assert_eq!(read.batches[0].version, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let dir = tempdir("wal_crc");
        let path = dir.join("wal.log");
        let stats = Arc::new(DurabilityStats::default());
        let mut wal = Wal::open_at(&path, FsyncMode::Off, stats, None).unwrap();
        wal.append_batch(1, &[row("a", 1.0)]).unwrap();
        let good_len = wal.bytes();
        wal.append_batch(2, &[row("b", 2.0)]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = good_len as usize + 10;
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_log(&path).unwrap();
        assert!(read.torn);
        assert_eq!(read.batches.len(), 1, "corrupt record invalidates itself, not the prefix");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_failure_poisons_the_log() {
        let dir = tempdir("wal_fsyncgate");
        let stats = Arc::new(DurabilityStats::default());
        let faults = Some(WalFaults { fsync: true, ..WalFaults::default() });
        let mut wal =
            Wal::open_at(&dir.join("wal.log"), FsyncMode::Always, stats.clone(), faults).unwrap();
        let err = wal.append_batch(1, &[row("a", 1.0)]).unwrap_err();
        assert!(matches!(err, DataError::Wal { op: "fsync", .. }), "{err}");
        assert!(wal.poisoned());
        assert_eq!(wal.bytes(), MAGIC.len() as u64, "the refused record is cut");
        // fsyncgate: no retry — every later append refuses.
        let err = wal.append_batch(2, &[row("b", 2.0)]).unwrap_err();
        assert!(matches!(err, DataError::Wal { op: "append", .. }), "{err}");
        assert_eq!(stats.fsync_failures.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_cut_after_a_failed_fsync_leaves_the_outcome_unknown() {
        let dir = tempdir("wal_cut_fails");
        let stats = Arc::new(DurabilityStats::default());
        let faults = Some(WalFaults { fsync: true, cut: true, ..WalFaults::default() });
        let mut wal = Wal::open_at(&dir.join("wal.log"), FsyncMode::Always, stats, faults).unwrap();
        let err = wal.append_batch(1, &[row("a", 1.0)]).unwrap_err();
        assert!(matches!(err, DataError::Wal { op: "fsync", .. }), "{err}");
        assert!(err.to_string().ends_with("outcome unknown"), "{err}");
        assert!(wal.poisoned());
        assert!(wal.bytes() > MAGIC.len() as u64, "the refused record is still counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Seeded mutational fuzz (ROADMAP 12b): bit flips, truncations,
    /// extensions and splices of valid batch payloads (2 048 cases) and of
    /// a whole valid log file (512 cases). Neither decoder panics; a
    /// payload that decodes re-encodes byte-identically; the valid prefix
    /// never runs past the file; and a checksummed scan recovers a prefix
    /// of the batches written.
    #[test]
    fn mutated_payloads_and_logs_never_panic_and_recover_a_prefix() {
        // splitmix64, as in `crate::chunk`: the case list is its seed.
        let mut state = 0x12b_0a1_u64;
        let mut below = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let x = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((x ^ (x >> 31)) % bound.max(1) as u64) as usize
        };
        let mut mutate = |mut buf: Vec<u8>| {
            for _ in 0..=below(3) {
                let at = below(buf.len() + 1);
                match below(4) {
                    0 if at < buf.len() => buf[at] ^= 1 << below(8),
                    1 => buf.truncate(at),
                    2 => buf.extend((0..1 + below(64)).map(|_| below(256) as u8)),
                    _ => drop(buf.splice(at..at, (0..1 + below(16)).map(|_| below(256) as u8))),
                }
            }
            buf
        };
        let wide = IngestRow {
            dims: vec![DimValue::Phrase("é😀".into()), DimValue::Path(vec![])],
            values: vec![0.0, -0.0, 1e300],
        };
        let rows = [vec![row("a", 1.5)], vec![path_row(&["NY", "JFK"], f64::NAN), wide], vec![]];
        let payloads: Vec<Vec<u8>> =
            rows.iter().enumerate().map(|(v, rows)| encode_batch(v as u64 + 1, rows)).collect();
        let encoded = |b: &WalBatch| encode_batch(b.version, &b.rows);

        let mut decoded = 0;
        for case in 0..2048 {
            let buf = mutate(payloads[case % payloads.len()].clone());
            if let Ok(batch) = decode_batch(&buf) {
                assert_eq!(encoded(&batch), buf, "case {case}");
                decoded += 1;
            }
        }
        assert!(decoded > 0, "some mutants must still decode");

        let dir = tempdir("wal_fuzz");
        let path = dir.join("wal.log");
        let stats = Arc::new(DurabilityStats::default());
        let mut wal = Wal::open_at(&path, FsyncMode::Off, stats, None).unwrap();
        for (v, rows) in rows.iter().enumerate() {
            wal.append_batch(v as u64 + 1, rows).unwrap();
        }
        drop(wal);
        let log = std::fs::read(&path).unwrap();
        let mut shortened = 0;
        for case in 0..512 {
            let buf = mutate(log.clone());
            std::fs::write(&path, &buf).unwrap();
            let read = read_log(&path).unwrap();
            assert!(read.valid_len <= buf.len() as u64, "case {case}");
            assert_eq!(read.torn, read.valid_len < buf.len() as u64, "case {case}");
            let got: Vec<Vec<u8>> = read.batches.iter().map(encoded).collect();
            assert_eq!(got, payloads[..got.len()], "case {case}");
            shortened += usize::from(got.len() < payloads.len());
        }
        assert!(shortened > 0, "some mutants must cut the recovered prefix");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "voxolap_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
