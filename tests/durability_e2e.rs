//! End-to-end pins for §17 over real TCP: graceful shutdown flushes the
//! WAL and the next boot recovers every acknowledged batch from it, and
//! a batch refused with `503` because its fsync failed stays refused
//! after a restart.

mod support;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use voxolap_data::flights::FlightsConfig;
use voxolap_data::{DurabilityOptions, DurableTable, FsyncMode, Table, WalFaults};
use voxolap_json::Value;
use voxolap_server::{serve, AppState};

use support::{echo_line, request, small_table};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("voxolap-dur-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn graceful_shutdown_flushes_the_wal_and_the_next_boot_recovers_every_batch() {
    let table = small_table();
    let dir = tempdir("graceful");
    let opts = DurabilityOptions { fsync_mode: FsyncMode::Batch, ..DurabilityOptions::default() };

    // Boot one: serve over real TCP, ingest over HTTP, drain, shut down.
    let (durable, recovery) = DurableTable::open(table.clone(), &dir, opts.clone()).unwrap();
    assert_eq!(recovery.replayed_batches, 0, "a fresh directory has nothing to replay");
    let state = Arc::new(AppState::durable(durable));
    let handler = Arc::clone(&state);
    let handle = serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
    let addr = handle.addr;

    let mut acked_version = 0;
    for b in 0..3 {
        let body = format!("{}\n{}\n", echo_line(&table, b * 2), echo_line(&table, b * 2 + 1));
        let (status, resp) = request(addr, "POST", "/ingest", &body);
        assert_eq!(status, 200, "{resp}");
        acked_version = Value::parse(&resp).unwrap()["version"].as_u64().unwrap();
    }
    let (_, stats) = request(addr, "GET", "/stats", "");
    let stats = Value::parse(&stats).unwrap();
    assert_eq!(stats["durability"]["fsync_mode"].as_str(), Some("batch"));
    assert!(!stats["durability"].is_null(), "durable server must report durability stats");

    // The deadline-bounded drain, then the durability flush — the exact
    // sequence the server binary runs on SIGTERM.
    handle.shutdown_within(Duration::from_secs(5));
    state.shutdown_durability().unwrap();

    // Boot two: the same recovery as after a crash, and nothing acked
    // was lost.
    let (durable, recovery) = DurableTable::open(table.clone(), &dir, opts.clone()).unwrap();
    assert_eq!(recovery.torn_tail_truncations, 0);
    assert_eq!(recovery.replayed_batches, 3);
    assert_eq!(recovery.version, acked_version);
    assert_eq!(durable.snapshot().row_count(), table.row_count() + 6);

    // Boot three, after a crash (drop with no shutdown_clean): the
    // acked batches still all survive.
    drop(durable);
    let (durable, recovery) = DurableTable::open(table.clone(), &dir, opts).unwrap();
    assert_eq!(recovery.version, acked_version);
    assert_eq!(durable.snapshot().row_count(), table.row_count() + 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// Serve a durable `table` from `dir` whose every fsync fails, POST
/// `batches` one-row batches, and return each batch's status.
fn ingest_with_failing_fsync(
    table: &Table,
    dir: &Path,
    mode: FsyncMode,
    batches: usize,
) -> Vec<u16> {
    let faults = Some(WalFaults { fsync: true, ..WalFaults::default() });
    let opts = DurabilityOptions { fsync_mode: mode, faults, ..DurabilityOptions::default() };
    let (durable, _) = DurableTable::open(table.clone(), dir, opts).unwrap();
    let state = Arc::new(AppState::durable(durable));
    let handler = Arc::clone(&state);
    let handle = serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
    let statuses = (0..batches)
        .map(|b| request(handle.addr, "POST", "/ingest", &format!("{}\n", echo_line(table, b))).0)
        .collect();
    handle.shutdown_within(Duration::from_secs(5));
    statuses
}

#[test]
fn a_batch_refused_by_a_failed_fsync_stays_refused_after_a_restart() {
    let table = FlightsConfig { rows: 1_000, seed: 42 }.generate();
    let reopen = |dir: &Path| {
        let (durable, recovery) =
            DurableTable::open(table.clone(), dir, DurabilityOptions::default()).unwrap();
        (recovery.version, durable.snapshot().row_count())
    };

    // Every batch syncs: the first one's fsync fails, so nothing was
    // acknowledged and nothing comes back.
    let dir = tempdir("refused-always");
    assert_eq!(ingest_with_failing_fsync(&table, &dir, FsyncMode::Always, 1), [503]);
    assert_eq!(reopen(&dir), (0, 1_000), "the refused row must not be replayed");
    std::fs::remove_dir_all(&dir).ok();

    // Group commit: seven batches are acknowledged unsynced, the eighth
    // runs the group's fsync and is refused; the seven stay, the eighth
    // does not, and the poisoned log refuses the ninth.
    let dir = tempdir("refused-batch");
    let mut expect = vec![200; 7];
    expect.extend([503, 503]);
    assert_eq!(ingest_with_failing_fsync(&table, &dir, FsyncMode::Batch, 9), expect);
    assert_eq!(reopen(&dir), (7, 1_007), "acked batches stay, the refused one goes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_memory_state_has_no_durability_section_and_parity_is_preserved() {
    // `--data-dir` unset: the durable wrapper is a pure passthrough and
    // /stats advertises no durability section.
    let state = Arc::new(AppState::new(small_table()));
    let handler = Arc::clone(&state);
    let handle = serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
    let (status, stats) = request(handle.addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = Value::parse(&stats).unwrap();
    assert!(stats["durability"].is_null());
    state.shutdown_durability().unwrap(); // no-op, must not error
    handle.shutdown_within(Duration::from_secs(5));
}
