//! Crash-safe wrapper around [`LiveTable`]: WAL commit before the
//! revision swap, and startup recovery (DESIGN.md §17).
//!
//! ## On-disk layout (inside `--data-dir`)
//!
//! ```text
//! wal.log    append-only log of every acknowledged batch since the seed
//! ```
//!
//! The durable store is the seed table plus this one log. There is no
//! snapshot: replaying the log onto the seed recreates every batch in
//! original order, which reproduces the exact [`TableVersion`] sequence
//! and dictionary-member assignment order, so engine caches keyed by
//! version repair correctly against a recovered table with no special
//! cases. A directory that still holds a `snapshot-<V>.snap` of the
//! older two-file layout is refused: its log no longer holds the
//! batches the snapshot took.
//!
//! ## Recovery state machine
//!
//! ```text
//! boot ─▶ snapshot-*.snap present? ──yes──▶ refuse (name the file)
//!      ─▶ CRC-scan wal.log, truncate the torn tail
//!      ─▶ replay batches with version > current (idempotent skip ≤)
//!      ─▶ open WAL for append ─▶ serve
//! ```
//!
//! Every boot runs the same path, after a crash or a graceful shutdown.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use voxolap_faults::FaultInjector;

use crate::error::DataError;
use crate::live::{AppendReport, LiveTable};
use crate::table::{IngestRow, Table, TableVersion};
use crate::wal::{self, FsyncMode, Wal, MAGIC};

const WAL_FILE: &str = "wal.log";

/// Tuning for [`DurableTable::open`].
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// When the WAL fsyncs (see [`FsyncMode`]).
    pub fsync_mode: FsyncMode,
    /// Unread: the store is one log and never compacts. Kept only because
    /// the benchmark builds this struct field by field; it goes with that
    /// code (ROADMAP item 11c). *None.*
    pub snapshot_every_batches: u64,
    /// Fault injector whose `WalAppend`/`WalFsync` sites fire inside the
    /// storage path.
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
    /// Batches replayed during boot recovery.
    pub replayed_batches: u64,
    /// Rows replayed during boot recovery.
    pub replayed_rows: u64,
    /// Torn tails truncated during boot recovery.
    pub torn_tail_truncations: u64,
    /// Wall-clock milliseconds spent in boot recovery.
    pub recovery_ms: f64,
    /// Whether a failed fsync poisoned the WAL (fsyncgate): every append
    /// is refused until a restart recovers from disk.
    pub wal_poisoned: bool,
}

/// What startup recovery found and did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Always 0: every batch is replayed from the one log. Kept only
    /// because the benchmark reads it; it goes with that code (ROADMAP
    /// item 11c). *None.*
    pub snapshot_batches: u64,
    /// Batches replayed from the log (after idempotent skips).
    pub replayed_batches: u64,
    /// Rows replayed in total.
    pub replayed_rows: u64,
    /// Torn tails truncated (0 or 1).
    pub torn_tail_truncations: u64,
    /// Table version after recovery.
    pub version: TableVersion,
    /// Total rows after recovery.
    pub total_rows: usize,
    /// Wall-clock milliseconds spent recovering.
    pub recovery_ms: f64,
}

#[derive(Debug)]
struct Store {
    /// The open log. Its mutex orders appends against the shutdown flush
    /// (readers never touch it).
    wal: Mutex<Wal>,
    stats: Arc<DurabilityStats>,
    fsync_mode: FsyncMode,
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
        let dir = dir.as_ref();
        let io = |op: &'static str| {
            move |e: std::io::Error| DataError::Wal { op, message: e.to_string() }
        };
        fs::create_dir_all(dir).map_err(io("open"))?;
        for entry in fs::read_dir(dir).map_err(io("recovery"))? {
            let path = entry.map_err(io("recovery"))?.path();
            if path.extension().is_some_and(|e| e == "snap") {
                return Err(DataError::Wal {
                    op: "recovery",
                    message: format!(
                        "{} is a snapshot of the older two-file layout, which this version \
                         cannot read; its batches are not in {WAL_FILE}",
                        path.display()
                    ),
                });
            }
        }

        let live = LiveTable::new(seed);
        let mut report = RecoveryReport::default();
        let wal_path = dir.join(WAL_FILE);
        if wal_path.exists() {
            let read = wal::read_log(&wal_path).map_err(io("recovery"))?;
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
            replay(&live, read.batches, &mut report)?;
        }

        report.version = live.version();
        report.total_rows = live.snapshot().row_count();
        let stats = Arc::new(DurabilityStats::default());
        let wal = Wal::open_at(&wal_path, options.fsync_mode, Arc::clone(&stats), options.faults)?;
        report.recovery_ms = t0.elapsed().as_secs_f64() * 1e3;

        let store = Store {
            wal: Mutex::new(wal),
            stats,
            fsync_mode: options.fsync_mode,
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
        store.wal.lock().check_writable("append")?;
        self.live.append_rows_with(rows, |report, rows| {
            store.wal.lock().append_batch(report.version, rows)
        })
    }

    /// Graceful shutdown: flush and fsync the WAL, whatever the mode. The
    /// next boot recovers exactly as after a crash. In-memory mode is a
    /// no-op.
    pub fn shutdown_clean(&self) -> Result<(), DataError> {
        let Some(store) = &self.store else { return Ok(()) };
        store.wal.lock().flush_and_sync()
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
            replayed_batches: r.replayed_batches,
            replayed_rows: r.replayed_rows,
            torn_tail_truncations: r.torn_tail_truncations,
            recovery_ms: r.recovery_ms,
            wal_poisoned: store.wal.lock().poisoned(),
        })
    }
}

/// Replay recovered batches onto the live table, skipping versions the
/// table already has (idempotence — replaying the same log twice is a
/// no-op).
fn replay(
    live: &LiveTable,
    batches: Vec<wal::WalBatch>,
    report: &mut RecoveryReport,
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
        report.replayed_batches += 1;
        report.replayed_rows += applied.appended as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionBuilder;
    use crate::schema::{MeasureUnit, Schema};
    use crate::table::{DimValue, TableBuilder};
    use std::path::PathBuf;

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
        t.append_rows(&[row("the North East", 3.0)]).unwrap();
        t.append_rows(&[row("the Midwest", 4.0), row("the Midwest", 5.0)]).unwrap();
        drop(t); // hard crash: no graceful flush

        let (t2, rec2) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        assert_eq!(rec2.replayed_batches, 2);
        assert_eq!(rec2.replayed_rows, 3);
        assert_eq!(rec2.version, 2);
        assert_eq!(t2.version(), 2);
        assert_eq!(t2.snapshot().row_count(), 5);
        assert_eq!(t2.snapshot().segments(), &[2, 1, 2], "batch boundaries survive replay");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_failure_leaves_revision_unpublished() {
        use voxolap_faults::{FaultPlan, FaultSite, SiteSchedule};
        let dir = tempdir("dur_walfail");
        let plan = FaultPlan::new(9).with_site(FaultSite::WalAppend, SiteSchedule::error(1.0));
        let opts = DurabilityOptions {
            fsync_mode: FsyncMode::Off,
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..Default::default()
        };
        let (t, _) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        let err = t.append_rows(&[row("the North East", 3.0)]).unwrap_err();
        assert!(matches!(err, DataError::Wal { op: "append", .. }), "{err}");
        assert_eq!(t.version(), 0, "failed WAL commit must not publish");
        assert_eq!(t.snapshot().row_count(), 2);
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
        // Duplicate every WAL record: the same batches present twice.
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

    #[test]
    fn a_graceful_shutdown_leaves_only_the_log_and_the_next_boot_verifies_it() {
        let dir = tempdir("dur_one_file");
        let opts = DurabilityOptions { fsync_mode: FsyncMode::Batch, ..Default::default() };
        let (t, _) = DurableTable::open(seed_table(), &dir, opts.clone()).unwrap();
        for i in 0..40 {
            t.append_rows(&[row("the North East", i as f64)]).unwrap();
        }
        t.shutdown_clean().unwrap();
        drop(t);
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, [WAL_FILE], "one file, however many batches");

        // A graceful shutdown vouches for nothing: a flipped byte in the
        // last record is found by the next boot's CRC scan.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&wal_path, &bytes).unwrap();
        let (t2, rec) = DurableTable::open(seed_table(), &dir, opts).unwrap();
        assert_eq!(rec.torn_tail_truncations, 1);
        assert_eq!(rec.replayed_batches, 39);
        assert_eq!(t2.version(), 39);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_directory_of_the_snapshot_layout_is_refused_naming_the_file() {
        let dir = tempdir("dur_old_layout");
        fs::write(dir.join(WAL_FILE), MAGIC).unwrap();
        fs::write(dir.join("snapshot-6.snap"), MAGIC).unwrap();
        let err = DurableTable::open(seed_table(), &dir, DurabilityOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Wal { op: "recovery", .. }), "{err}");
        assert!(err.to_string().contains("snapshot-6.snap"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
