//! Integration tests for the §17 durability layer: seeded crash-point
//! injection, exhaustive byte-level torn-tail recovery, and replay
//! idempotence — all at the public `DurableTable` API.
//!
//! The crash model: everything the process `write()`s before dying is on
//! disk (the batches it acknowledged), plus possibly a *partial* tail
//! from a batch it never acknowledged. Corruption is therefore only ever
//! injected beyond the acknowledged prefix; recovery must keep every
//! acked batch and truncate the rest.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use voxolap_data::flights::FlightsConfig;
use voxolap_data::schema::MeasureId;
use voxolap_data::{DimId, DimValue, DurabilityOptions, DurableTable, FsyncMode, IngestRow, Table};

fn seed_table() -> Table {
    FlightsConfig { rows: 120, seed: 7 }.generate()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("voxolap-durtest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Clone `n` existing rows (cycling from `start`) so appends are always
/// valid under the flights schema.
fn echo_rows(table: &Table, start: usize, n: usize) -> Vec<IngestRow> {
    let schema = table.schema();
    (0..n)
        .map(|i| {
            let row = (start + i) % table.row_count();
            IngestRow {
                dims: (0..schema.dimensions().len())
                    .map(|d| {
                        let id = DimId(d as u8);
                        let member = table.member_at(id, row);
                        DimValue::Phrase(schema.dimension(id).member(member).phrase.clone())
                    })
                    .collect(),
                values: (0..schema.measures().len())
                    .map(|m| table.measure_value(MeasureId(m as u8), row))
                    .collect(),
            }
        })
        .collect()
}

fn opts() -> DurabilityOptions {
    DurabilityOptions { fsync_mode: FsyncMode::Off, ..DurabilityOptions::default() }
}

fn append_junk(path: &Path, bytes: &[u8]) {
    let mut f = OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(bytes).unwrap();
}

/// Deterministic per-seed randomness (no `rand` in the workspace).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The core guarantee: across 50 seeded crash points — varying batch
/// counts, batch sizes, and the shape of the torn tail — reopening
/// recovers *exactly* the acknowledged state, then keeps accepting
/// appends.
#[test]
fn zero_acked_batch_loss_across_50_seeded_crash_points() {
    let seed = seed_table();
    for s in 0u64..50 {
        let dir = tempdir(&format!("crash{s}"));
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15 ^ s);
        let (t, _) = DurableTable::open(seed.clone(), &dir, opts()).unwrap();

        let crash_mode = s % 5;
        // Mode 4 tears a log of at least two batches.
        let batches = (1 + (s % 6) as usize).max(1 + usize::from(crash_mode == 4));
        let mut acked_rows = 0usize;
        for b in 0..batches {
            let n = 1 + (rng.next() % 4) as usize;
            t.append_rows(&echo_rows(&seed, b * 7 + s as usize, n)).unwrap();
            acked_rows += n;
        }
        let acked_version = t.version();
        drop(t); // crash: no graceful flush

        // Inject the never-acknowledged tail a dying writer could leave.
        let wal = dir.join("wal.log");
        let expect_torn = match crash_mode {
            0 => 0u64, // died exactly at a record boundary
            1 => {
                // Truncated length field.
                append_junk(&wal, &[0x7F, 0x00]);
                1
            }
            2 => {
                // Valid-looking header promising more payload than exists.
                let mut junk = 100u32.to_le_bytes().to_vec();
                junk.extend(0xDEAD_BEEFu32.to_le_bytes());
                junk.extend([0xAB; 10]);
                append_junk(&wal, &junk);
                1
            }
            3 => {
                // A whole record whose CRC does not match its payload.
                let mut junk = 8u32.to_le_bytes().to_vec();
                junk.extend(0xDEAD_BEEFu32.to_le_bytes());
                junk.extend([0xCD; 8]);
                append_junk(&wal, &junk);
                1
            }
            _ => {
                // Garbage after the last whole record of a multi-batch log.
                append_junk(&wal, &(rng.next() as u32).to_le_bytes());
                1
            }
        };

        let (t2, rec) = DurableTable::open(seed.clone(), &dir, opts()).unwrap();
        assert_eq!(t2.version(), acked_version, "seed {s}: acked version lost");
        assert_eq!(
            t2.snapshot().row_count(),
            seed.row_count() + acked_rows,
            "seed {s}: acked rows lost"
        );
        assert_eq!(rec.torn_tail_truncations, expect_torn, "seed {s}");
        assert_eq!(rec.replayed_batches, batches as u64, "seed {s}: every batch is in the log");

        // The repaired log accepts new appends and survives another cycle.
        t2.append_rows(&echo_rows(&seed, 3, 2)).unwrap();
        let grown = t2.version();
        drop(t2);
        let (t3, rec3) = DurableTable::open(seed.clone(), &dir, opts()).unwrap();
        assert_eq!(t3.version(), grown, "seed {s}: post-recovery append lost");
        assert_eq!(rec3.torn_tail_truncations, 0, "seed {s}: recovery must repair the file");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Property: for *every* byte-level truncation of the log, recovery
/// yields exactly the longest prefix of whole batches — never a partial
/// batch, never a lost whole one — and the truncation repair leaves a
/// file the next boot reads without finding a torn tail.
#[test]
fn every_byte_truncation_recovers_exactly_a_whole_batch_prefix() {
    let seed = seed_table();
    let no_snap =
        DurabilityOptions { fsync_mode: FsyncMode::Off, snapshot_every_batches: 0, faults: None };
    let dir = tempdir("torn-master");
    let (t, _) = DurableTable::open(seed.clone(), &dir, no_snap.clone()).unwrap();
    let wal = dir.join("wal.log");
    // (byte offset of the record boundary, version, total ingested rows)
    let mut boundaries = Vec::new();
    let mut total = 0usize;
    for b in 0..3usize {
        t.append_rows(&echo_rows(&seed, b * 11, b + 1)).unwrap();
        total += b + 1;
        boundaries.push((std::fs::metadata(&wal).unwrap().len() as usize, t.version(), total));
    }
    drop(t);
    let master = std::fs::read(&wal).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // Whole-file prefixes that are *not* torn: empty, magic-only, and
    // each exact record boundary.
    let clean_cuts: Vec<usize> =
        [0, 8].into_iter().chain(boundaries.iter().map(|&(len, _, _)| len)).collect();

    let scratch = tempdir("torn-scratch");
    for cut in 0..=master.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join("wal.log"), &master[..cut]).unwrap();

        let (t2, rec) = DurableTable::open(seed.clone(), &scratch, no_snap.clone()).unwrap();
        let whole = boundaries.iter().filter(|&&(len, _, _)| len <= cut).count();
        let expect_rows = if whole == 0 { 0 } else { boundaries[whole - 1].2 };
        assert_eq!(t2.snapshot().row_count(), seed.row_count() + expect_rows, "cut at byte {cut}");
        if whole > 0 {
            assert_eq!(t2.version(), boundaries[whole - 1].1, "cut at byte {cut}");
        }
        let expect_torn = cut > 0 && !clean_cuts.contains(&cut);
        assert_eq!(rec.torn_tail_truncations, expect_torn as u64, "cut at byte {cut}");

        drop(t2);
        let (t3, rec3) = DurableTable::open(seed.clone(), &scratch, no_snap.clone()).unwrap();
        assert_eq!(rec3.torn_tail_truncations, 0, "cut at byte {cut}: repair must stick");
        assert_eq!(t3.snapshot().row_count(), seed.row_count() + expect_rows);
    }
    std::fs::remove_dir_all(&scratch).ok();
}

/// Replaying the same records twice (a log that holds every record a
/// second time: recovery skips each version the table already has)
/// converges to the same version and row count as replaying them once.
#[test]
fn replaying_a_doubled_log_is_idempotent() {
    let seed = seed_table();
    let no_snap =
        DurabilityOptions { fsync_mode: FsyncMode::Off, snapshot_every_batches: 0, faults: None };
    let dir = tempdir("idem");
    let (t, _) = DurableTable::open(seed.clone(), &dir, no_snap.clone()).unwrap();
    t.append_rows(&echo_rows(&seed, 0, 2)).unwrap();
    t.append_rows(&echo_rows(&seed, 5, 3)).unwrap();
    let once_version = t.version();
    let once_rows = t.snapshot().row_count();
    drop(t);

    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    append_junk(&wal, &bytes[8..]); // duplicate every record past the magic

    let (t2, rec) = DurableTable::open(seed.clone(), &dir, no_snap).unwrap();
    assert_eq!(t2.version(), once_version);
    assert_eq!(t2.snapshot().row_count(), once_rows);
    assert_eq!(rec.replayed_batches, 2, "duplicates are skipped, not reapplied");
    assert_eq!(rec.torn_tail_truncations, 0, "a doubled log is validly framed");
    std::fs::remove_dir_all(&dir).ok();
}
