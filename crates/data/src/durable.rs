//! Crash-safe wrapper around [`LiveTable`]: WAL commit before the
//! revision swap, periodic snapshot compaction, and startup recovery
//! (DESIGN.md §17).
//!
//! ## On-disk layout (inside `--data-dir`)
//!
//! ```text
//! wal.log              append-only log of batches since the snapshot
//! snapshot-<V>.snap    compacted log of every batch up to version V
//! clean                clean-shutdown marker (version + wal length)
//! *.tmp                in-flight snapshot/marker writes (deleted on boot)
//! ```
//!
//! A snapshot is *not* a serialized table — it is the same record format
//! as the WAL, produced by concatenating the previous snapshot's records
//! with the current WAL's (compaction is a byte-level copy). Replaying a
//! snapshot therefore recreates every batch in original order, which
//! reproduces the exact [`TableVersion`] sequence and dictionary-member
//! assignment order; engine caches keyed by version repair correctly
//! against a recovered table with no special cases.
//!
//! ## Recovery state machine
//!
//! ```text
//! boot ─▶ delete *.tmp
//!      ─▶ newest valid snapshot? ──replay──▶ version V
//!      ─▶ clean marker matches wal.log? ──yes──▶ trust framing (no CRC scan)
//!                                       └─no───▶ CRC-scan, truncate torn tail
//!      ─▶ replay WAL batches with version > current (idempotent skip ≤)
//!      ─▶ delete marker (now dirty) ─▶ open WAL for append ─▶ serve
//! ```
//!
//! The idempotent version check makes a crash *between* snapshot rename
//! and WAL truncation safe: the next boot replays the snapshot, then
//! skips the WAL records it already contains.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use voxolap_faults::{FaultInjector, FaultSite};

use crate::error::DataError;
use crate::live::{AppendReport, LiveTable};
use crate::table::{IngestRow, Table, TableVersion};
use crate::wal::{self, FsyncMode, Wal, MAGIC};

const WAL_FILE: &str = "wal.log";
const MARKER_FILE: &str = "clean";

/// Tuning for [`DurableTable::open`].
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// When the WAL fsyncs (see [`FsyncMode`]).
    pub fsync_mode: FsyncMode,
    /// Compact the WAL into a snapshot every this many batches
    /// (0 disables snapshots; the WAL then grows unbounded).
    pub snapshot_every_batches: u64,
    /// Fault injector whose `WalAppend`/`WalFsync`/`SnapshotWrite` sites
    /// fire inside the storage path.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions { fsync_mode: FsyncMode::Batch, snapshot_every_batches: 32, faults: None }
    }
}

/// Monotonic storage counters, shared with the WAL writer.
#[derive(Debug, Default)]
pub struct DurabilityStats {
    /// Current WAL file length in bytes (gauge).
    pub wal_bytes: AtomicU64,
    /// Batches committed to the WAL since boot.
    pub wal_appends: AtomicU64,
    /// Successful fsyncs.
    pub fsyncs: AtomicU64,
    /// Failed fsyncs (each poisons the log — fsyncgate).
    pub fsync_failures: AtomicU64,
    /// Snapshot compactions completed.
    pub snapshots_written: AtomicU64,
    /// Snapshot compactions that failed (data stays safe in the WAL;
    /// retried once the next batch lands).
    pub snapshot_failures: AtomicU64,
}

/// Point-in-time copy of [`DurabilityStats`] plus recovery facts.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilitySnapshot {
    /// WAL fsync policy in force.
    pub fsync_mode: &'static str,
    /// Current WAL file length in bytes.
    pub wal_bytes: u64,
    /// Batches committed to the WAL since boot.
    pub wal_appends: u64,
    /// Successful fsyncs since boot.
    pub fsyncs: u64,
    /// Failed (poisoning) fsyncs since boot.
    pub fsync_failures: u64,
    /// Snapshot compactions completed since boot.
    pub snapshots_written: u64,
    /// Snapshot compactions that failed since boot.
    pub snapshot_failures: u64,
    /// Batches replayed during boot recovery (snapshot + WAL).
    pub replayed_batches: u64,
    /// Rows replayed during boot recovery.
    pub replayed_rows: u64,
    /// Torn tails truncated during boot recovery.
    pub torn_tail_truncations: u64,
    /// Whether the previous shutdown left a valid clean marker.
    pub clean_start: bool,
    /// Wall-clock milliseconds spent in boot recovery.
    pub recovery_ms: f64,
    /// Whether a failed fsync poisoned the WAL (fsyncgate): every append
    /// is refused until a restart recovers from disk.
    pub wal_poisoned: bool,
}

/// What startup recovery found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Batches replayed from the snapshot file.
    pub snapshot_batches: u64,
    /// Batches replayed from the WAL suffix (after idempotent skips).
    pub replayed_batches: u64,
    /// Rows replayed in total (snapshot + WAL).
    pub replayed_rows: u64,
    /// Torn tails truncated (0 or 1 per file scanned).
    pub torn_tail_truncations: u64,
    /// Whether a valid clean-shutdown marker let recovery skip the
    /// CRC tail scan.
    pub clean_start: bool,
    /// Table version after recovery.
    pub version: TableVersion,
    /// Total rows after recovery.
    pub total_rows: usize,
    /// Wall-clock milliseconds spent recovering.
    pub recovery_ms: f64,
}

impl RecoveryReport {
    fn in_memory(version: TableVersion, total_rows: usize) -> Self {
        RecoveryReport {
            snapshot_batches: 0,
            replayed_batches: 0,
            replayed_rows: 0,
            torn_tail_truncations: 0,
            clean_start: true,
            version,
            total_rows,
            recovery_ms: 0.0,
        }
    }
}

/// Serialized WAL state: the open log plus compaction bookkeeping. One
/// mutex orders appends, compaction, and shutdown flush against each
/// other (readers never touch it).
#[derive(Debug)]
struct WalState {
    wal: Wal,
    /// Batches appended since the last completed snapshot.
    batches_since_snapshot: u64,
    /// Current snapshot file, if any.
    snapshot: Option<PathBuf>,
}

#[derive(Debug)]
struct Store {
    dir: PathBuf,
    state: Mutex<WalState>,
    stats: Arc<DurabilityStats>,
    fsync_mode: FsyncMode,
    snapshot_every: u64,
    faults: Option<Arc<FaultInjector>>,
    recovery: RecoveryReport,
}

/// A [`LiveTable`] with optional crash-safety. Built with
/// [`DurableTable::memory`] it is a zero-cost passthrough (today's
/// in-memory behavior, byte for byte); built with [`DurableTable::open`]
/// every acknowledged append is WAL-committed before it becomes visible.
#[derive(Debug)]
pub struct DurableTable {
    live: LiveTable,
    store: Option<Store>,
}

impl DurableTable {
    /// Purely in-memory table: appends never touch disk.
    pub fn memory(table: Table) -> DurableTable {
        DurableTable { live: LiveTable::new(table), store: None }
    }

    /// Open (or create) the durable store in `dir`, recovering any prior
    /// state on top of `seed`. `seed` must be the same seed table the
    /// store was first opened with — recovery replays logged batches onto
    /// it and verifies the version sequence lines up.
    pub fn open(
        seed: Table,
        dir: impl AsRef<Path>,
        options: DurabilityOptions,
    ) -> Result<(DurableTable, RecoveryReport), DataError> {
        let t0 = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        let io = |op: &'static str| {
            move |e: std::io::Error| DataError::Wal { op, message: e.to_string() }
        };
        fs::create_dir_all(&dir).map_err(io("open"))?;

        let live = LiveTable::new(seed);
        let stats = Arc::new(DurabilityStats::default());
        let mut report = RecoveryReport::in_memory(live.version(), live.snapshot().row_count());
        report.clean_start = false;

        // 1. Sweep in-flight temp files from a crashed snapshot/marker write.
        for entry in fs::read_dir(&dir).map_err(io("recovery"))? {
            let path = entry.map_err(io("recovery"))?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                fs::remove_file(&path).ok();
            }
        }

        // 2. Newest valid snapshot wins; unreadable ones are skipped (the
        //    WAL still has everything since the one before).
        let mut snapshot: Option<PathBuf> = None;
        for (path, _version) in snapshots_newest_first(&dir).map_err(io("recovery"))? {
            let read = wal::read_log(&path, true).map_err(io("recovery"))?;
            if read.torn || read.batches.is_empty() {
                continue;
            }
            replay(&live, read.batches, &mut report, true)?;
            snapshot = Some(path);
            break;
        }

        // 3. The WAL suffix. A clean marker matching the file lets us
        //    trust record framing without the CRC scan.
        let wal_path = dir.join(WAL_FILE);
        let marker_path = dir.join(MARKER_FILE);
        if wal_path.exists() {
            let marker = read_marker(&marker_path);
            let wal_len = fs::metadata(&wal_path).map_err(io("recovery"))?.len();
            let clean = marker.is_some_and(|(_, len)| len == wal_len);
            let read = wal::read_log(&wal_path, !clean).map_err(io("recovery"))?;
            if read.torn {
                // Truncate the torn (never-acknowledged) tail so the next
                // append starts from a valid record boundary. If even the
                // magic is gone, rewrite it.
                let f = OpenOptions::new().write(true).open(&wal_path).map_err(io("recovery"))?;
                if read.valid_len >= MAGIC.len() as u64 {
                    f.set_len(read.valid_len).map_err(io("recovery"))?;
                } else {
                    f.set_len(0).map_err(io("recovery"))?;
                    (&f).write_all(&MAGIC).map_err(io("recovery"))?;
                }
                f.sync_all().map_err(io("recovery"))?;
                report.torn_tail_truncations += 1;
            }
            report.clean_start = clean && !read.torn;
            replay(&live, read.batches, &mut report, false)?;
        } else {
            // Fresh directory: nothing to recover is a clean start.
            report.clean_start = !marker_path.exists() && snapshot.is_none();
        }

        // 4. Running ⇒ dirty: only a graceful shutdown rewrites the marker.
        fs::remove_file(&marker_path).ok();

        let version = live.version();
        report.version = version;
        report.total_rows = live.snapshot().row_count();
        let wal = Wal::open_at(
            &wal_path,
            options.fsync_mode,
            version,
            Arc::clone(&stats),
            options.faults.clone(),
        )?;
        report.recovery_ms = t0.elapsed().as_secs_f64() * 1e3;

        let store = Store {
            dir,
            state: Mutex::new(WalState {
                wal,
                batches_since_snapshot: report.replayed_batches,
                snapshot,
            }),
            stats,
            fsync_mode: options.fsync_mode,
            snapshot_every: options.snapshot_every_batches,
            faults: options.faults,
            recovery: report.clone(),
        };
        Ok((DurableTable { live, store: Some(store) }, report))
    }

    /// The wrapped live table (readers pin snapshots through it).
    pub fn live(&self) -> &LiveTable {
        &self.live
    }

    /// Pin the current revision (see [`LiveTable::snapshot`]).
    pub fn snapshot(&self) -> Arc<Table> {
        self.live.snapshot()
    }

    /// Version of the current revision.
    pub fn version(&self) -> TableVersion {
        self.live.version()
    }

    /// Append a batch. In durable mode the batch is committed to the WAL
    /// (under the configured fsync policy) *before* the revision swap, so
    /// a success here means the batch survives a crash; any storage error
    /// leaves the in-memory revision untouched and unpublished. A log
    /// poisoned by a failed fsync refuses the batch before its revision is
    /// built.
    pub fn append_rows(&self, rows: &[IngestRow]) -> Result<AppendReport, DataError> {
        let Some(store) = &self.store else {
            return self.live.append_rows(rows);
        };
        store.state.lock().wal.check_writable("append")?;
        let report = self.live.append_rows_with(rows, |report, rows| {
            let mut state = store.state.lock();
            state.wal.append_batch(report.version, rows)?;
            state.batches_since_snapshot += 1;
            Ok(())
        })?;
        if report.appended > 0 && store.snapshot_every > 0 {
            self.maybe_compact(store);
        }
        Ok(report)
    }

    /// Compact WAL into a snapshot if the interval elapsed. Failure is
    /// non-fatal: the WAL still holds every batch, and the next append
    /// retries. Runs outside the table's writer lock — only the WAL mutex
    /// is held, so readers and (brief) appenders queue behind the copy.
    fn maybe_compact(&self, store: &Store) {
        let mut state = store.state.lock();
        if state.batches_since_snapshot < store.snapshot_every {
            return;
        }
        let injected = store
            .faults
            .as_ref()
            .and_then(|f| f.roll(FaultSite::SnapshotWrite))
            .inspect(|f| f.stall())
            .is_some_and(|f| f.error);
        let result = if injected {
            Err(DataError::Wal { op: "snapshot", message: "injected snapshot fault".into() })
        } else {
            write_snapshot(&store.dir, &mut state)
        };
        match result {
            Ok(()) => {
                state.batches_since_snapshot = 0;
                store.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                store.stats.snapshot_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Force a compaction now regardless of the interval (tests, CLI).
    pub fn compact_now(&self) -> Result<(), DataError> {
        let Some(store) = &self.store else { return Ok(()) };
        let mut state = store.state.lock();
        write_snapshot(&store.dir, &mut state)?;
        state.batches_since_snapshot = 0;
        store.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Graceful shutdown: flush and fsync the WAL (whatever the mode),
    /// then write the clean-shutdown marker so the next boot can skip
    /// the CRC tail scan. In-memory mode is a no-op.
    pub fn shutdown_clean(&self) -> Result<(), DataError> {
        let Some(store) = &self.store else { return Ok(()) };
        let mut state = store.state.lock();
        state.wal.flush_and_sync()?;
        let marker =
            format!("version={} wal_len={}\n", state.wal.last_version(), state.wal.bytes());
        let io = |e: std::io::Error| DataError::Wal { op: "marker", message: e.to_string() };
        let tmp = store.dir.join("clean.tmp");
        let mut f = File::create(&tmp).map_err(io)?;
        f.write_all(marker.as_bytes()).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        fs::rename(&tmp, store.dir.join(MARKER_FILE)).map_err(io)?;
        Ok(())
    }

    /// What boot recovery found (None for in-memory tables).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.store.as_ref().map(|s| &s.recovery)
    }

    /// Current storage counters (None for in-memory tables).
    pub fn stats(&self) -> Option<DurabilitySnapshot> {
        let store = self.store.as_ref()?;
        let s = &store.stats;
        let r = &store.recovery;
        Some(DurabilitySnapshot {
            fsync_mode: store.fsync_mode.name(),
            wal_bytes: s.wal_bytes.load(Ordering::Relaxed),
            wal_appends: s.wal_appends.load(Ordering::Relaxed),
            fsyncs: s.fsyncs.load(Ordering::Relaxed),
            fsync_failures: s.fsync_failures.load(Ordering::Relaxed),
            snapshots_written: s.snapshots_written.load(Ordering::Relaxed),
            snapshot_failures: s.snapshot_failures.load(Ordering::Relaxed),
            replayed_batches: r.snapshot_batches + r.replayed_batches,
            replayed_rows: r.replayed_rows,
            torn_tail_truncations: r.torn_tail_truncations,
            clean_start: r.clean_start,
            recovery_ms: r.recovery_ms,
            wal_poisoned: store.state.lock().wal.poisoned(),
        })
    }
}

/// Replay recovered batches onto the live table, skipping versions the
/// table already has (idempotence — replaying the same log twice is a
/// no-op, and a crash between snapshot rename and WAL truncation leaves
/// duplicates that are skipped here).
fn replay(
    live: &LiveTable,
    batches: Vec<wal::WalBatch>,
    report: &mut RecoveryReport,
    from_snapshot: bool,
) -> Result<(), DataError> {
    for batch in batches {
        if batch.version <= live.version() {
            continue;
        }
        let applied = live.append_rows(&batch.rows).map_err(|e| DataError::Wal {
            op: "recovery",
            message: format!("replaying batch for version {} failed: {e}", batch.version),
        })?;
        if applied.version != batch.version {
            return Err(DataError::Wal {
                op: "recovery",
                message: format!(
                    "log gap: replay produced version {}, log says {}",
                    applied.version, batch.version
                ),
            });
        }
        if from_snapshot {
            report.snapshot_batches += 1;
        } else {
            report.replayed_batches += 1;
        }
        report.replayed_rows += applied.appended as u64;
    }
    Ok(())
}

/// Enumerate `snapshot-<V>.snap` files, newest version first.
fn snapshots_newest_first(dir: &Path) -> std::io::Result<Vec<(PathBuf, TableVersion)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some(version) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".snap"))
            .and_then(|v| v.parse::<TableVersion>().ok())
        else {
            continue;
        };
        found.push((path, version));
    }
    found.sort_by_key(|&(_, version)| std::cmp::Reverse(version));
    Ok(found)
}

/// Parse the clean marker: `version=<V> wal_len=<N>`.
fn read_marker(path: &Path) -> Option<(TableVersion, u64)> {
    let mut text = String::new();
    File::open(path).ok()?.read_to_string(&mut text).ok()?;
    let mut version = None;
    let mut wal_len = None;
    for part in text.split_whitespace() {
        if let Some(v) = part.strip_prefix("version=") {
            version = v.parse().ok();
        } else if let Some(n) = part.strip_prefix("wal_len=") {
            wal_len = n.parse().ok();
        }
    }
    Some((version?, wal_len?))
}

/// Compact: new snapshot = old snapshot records + WAL records, copied
/// byte-for-byte (same framing), written tmp → fsync → rename, then the
/// WAL is truncated and the old snapshot deleted. A crash at any point
/// is safe: before the rename the tmp is swept on boot; between rename
/// and truncation the idempotent replay skips the duplicated batches.
fn write_snapshot(dir: &Path, state: &mut WalState) -> Result<(), DataError> {
    let io = |e: std::io::Error| DataError::Wal { op: "snapshot", message: e.to_string() };
    let version = state.wal.last_version();
    let tmp = dir.join(format!("snapshot-{version}.tmp"));
    let mut out = File::create(&tmp).map_err(io)?;
    out.write_all(&MAGIC).map_err(io)?;
    if let Some(prev) = &state.snapshot {
        copy_records(prev, &mut out).map_err(io)?;
    }
    copy_records(state.wal.path(), &mut out).map_err(io)?;
    out.sync_all().map_err(io)?;
    drop(out);
    let final_path = dir.join(format!("snapshot-{version}.snap"));
    fs::rename(&tmp, &final_path).map_err(io)?;
    // Make the rename itself durable before dropping the WAL bytes.
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
    state.wal.truncate_to_magic()?;
    if let Some(prev) = state.snapshot.take() {
        if prev != final_path {
            fs::remove_file(&prev).ok();
        }
    }
    state.snapshot = Some(final_path);
    Ok(())
}

/// Append every record byte of `src` (sans magic) to `out`.
fn copy_records(src: &Path, out: &mut File) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    File::open(src)?.read_to_end(&mut bytes)?;
    if bytes.len() > MAGIC.len() {
        out.write_all(&bytes[MAGIC.len()..])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionBuilder;
    use crate::schema::{MeasureUnit, Schema};
    use crate::table::{DimValue, TableBuilder};

    fn seed_table() -> Table {
        let mut b = DimensionBuilder::new("region", "in", "anywhere");
        let l = b.add_level("region");
        let ne = b.add_member(l, b.root(), "the North East");
        let mw = b.add_member(l, b.root(), "the Midwest");
        let dim = b.build();
        let schema = Schema::new("t", vec![dim], "value", MeasureUnit::Plain);
        let mut tb = TableBuilder::new(schema);
        for (m, v) in [(ne, 1.0), (mw, 2.0)] {
            tb.push_row(&[m], v).unwrap();
        }
        tb.build()
    }

    fn row(phrase: &str, v: f64) -> IngestRow {
        IngestRow { dims: vec![DimValue::Phrase(phrase.into())], values: vec![v] }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "voxolap_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_mode_is_passthrough() {
        let t = DurableTable::memory(seed_table());
        assert!(t.stats().is_none());
        let report = t.append_rows(&[row("the North East", 3.0)]).unwrap();
        assert_eq!(report.version, 1);
        t.shutdown_clean().unwrap();
    }

    #[test]
    fn reopen_recovers_acknowledged_batches() {
        let dir = tempdir("dur_reopen");
        let opts = DurabilityOptions { fsync_mode: FsyncMode::Always, ..Default::default() };
        let (t, rec) = DurableTable::open(seed_table(), &dir, opts.clone()).unwrap();
        assert_eq!(rec.version, 0);
        assert!(rec.clean_start, "fresh dir counts as clean");
        t.append_rows(&[row("the North East", 3.0)]).unwrap();
        t.append_rows(&[row("the Midwest", 4.0), row("the Midwest", 5.0)]).unwrap();
        drop(t); // hard crash: no clean marker

        let (t2, rec2) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        assert_eq!(rec2.replayed_batches, 2);
        assert_eq!(rec2.replayed_rows, 3);
        assert_eq!(rec2.version, 2);
        assert!(!rec2.clean_start);
        assert_eq!(t2.version(), 2);
        assert_eq!(t2.snapshot().row_count(), 5);
        assert_eq!(t2.snapshot().segments(), &[2, 1, 2], "batch boundaries survive replay");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_shutdown_marker_marks_next_boot_clean() {
        let dir = tempdir("dur_clean");
        let opts = DurabilityOptions { fsync_mode: FsyncMode::Batch, ..Default::default() };
        let (t, _) = DurableTable::open(seed_table(), &dir, opts.clone()).unwrap();
        t.append_rows(&[row("the North East", 3.0)]).unwrap();
        t.shutdown_clean().unwrap();
        drop(t);
        assert!(dir.join(MARKER_FILE).exists());

        let (t2, rec) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        assert!(rec.clean_start, "marker lets recovery skip the tail scan");
        assert_eq!(rec.replayed_batches, 1);
        assert_eq!(t2.version(), 1);
        assert!(!dir.join(MARKER_FILE).exists(), "running process is dirty");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_compaction_truncates_the_wal_and_survives_reopen() {
        let dir = tempdir("dur_compact");
        let opts = DurabilityOptions {
            fsync_mode: FsyncMode::Off,
            snapshot_every_batches: 3,
            faults: None,
        };
        let (t, _) = DurableTable::open(seed_table(), &dir, opts.clone()).unwrap();
        for i in 0..7 {
            t.append_rows(&[row("the North East", i as f64)]).unwrap();
        }
        let stats = t.stats().unwrap();
        assert_eq!(stats.snapshots_written, 2, "compactions at batches 3 and 6");
        assert!(dir.join("snapshot-6.snap").exists());
        assert!(!dir.join("snapshot-3.snap").exists(), "old snapshot deleted");
        assert_eq!(stats.wal_appends, 7);
        drop(t);

        let (t2, rec) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        assert_eq!(rec.snapshot_batches, 6);
        assert_eq!(rec.replayed_batches, 1, "wal holds the post-snapshot suffix");
        assert_eq!(t2.version(), 7);
        assert_eq!(t2.snapshot().row_count(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_failure_leaves_revision_unpublished() {
        use voxolap_faults::{FaultPlan, SiteSchedule};
        let dir = tempdir("dur_walfail");
        let plan = FaultPlan::new(9).with_site(FaultSite::WalAppend, SiteSchedule::error(1.0));
        let opts = DurabilityOptions {
            fsync_mode: FsyncMode::Off,
            snapshot_every_batches: 0,
            faults: Some(Arc::new(FaultInjector::new(plan))),
        };
        let (t, _) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        let err = t.append_rows(&[row("the North East", 3.0)]).unwrap_err();
        assert!(matches!(err, DataError::Wal { op: "append", .. }), "{err}");
        assert_eq!(t.version(), 0, "failed WAL commit must not publish");
        assert_eq!(t.snapshot().row_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_failure_is_nonfatal_and_retried() {
        use voxolap_faults::{FaultPlan, SiteSchedule};
        let dir = tempdir("dur_snapfail");
        // Roughly half the snapshot attempts fail; ingest must never fail
        // and the data must always recover.
        let plan = FaultPlan::new(5).with_site(FaultSite::SnapshotWrite, SiteSchedule::error(0.5));
        let opts = DurabilityOptions {
            fsync_mode: FsyncMode::Off,
            snapshot_every_batches: 2,
            faults: Some(Arc::new(FaultInjector::new(plan))),
        };
        let (t, _) = DurableTable::open(seed_table(), &dir, opts.clone()).unwrap();
        for i in 0..10 {
            t.append_rows(&[row("the Midwest", i as f64)]).unwrap();
        }
        let stats = t.stats().unwrap();
        assert!(stats.snapshot_failures > 0, "seed 5 should fail at least one snapshot");
        drop(t);
        let (t2, _) = DurableTable::open(seed_table(), &dir, DurabilityOptions::default()).unwrap();
        assert_eq!(t2.version(), 10);
        assert_eq!(t2.snapshot().row_count(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replaying_the_same_log_twice_is_idempotent() {
        let dir = tempdir("dur_idem");
        let opts = DurabilityOptions { fsync_mode: FsyncMode::Off, ..Default::default() };
        let (t, _) = DurableTable::open(seed_table(), &dir, opts.clone()).unwrap();
        t.append_rows(&[row("the North East", 1.5)]).unwrap();
        t.append_rows(&[row("the Midwest", 2.5)]).unwrap();
        drop(t);
        // Duplicate every WAL record (simulates crash between snapshot
        // rename and WAL truncation: same batches present twice).
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes[MAGIC.len()..]);
        std::fs::write(&wal_path, &doubled).unwrap();

        let (t2, rec) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        assert_eq!(rec.replayed_batches, 2, "duplicates skipped by version");
        assert_eq!(t2.version(), 2);
        assert_eq!(t2.snapshot().row_count(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
