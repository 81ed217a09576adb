//! End-to-end pin for §17 graceful shutdown: after the deadline-bounded
//! drain, the WAL must be flushed + fsynced and the clean-shutdown
//! marker written, so the next boot reports `clean_start` — i.e. skips
//! the CRC tail scan entirely. A dropped (crashed) handle must *not*
//! leave that marker behind.

mod support;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use voxolap_data::{DurabilityOptions, DurableTable, FsyncMode};
use voxolap_json::Value;
use voxolap_server::{serve, AppState};

use support::{echo_line, request, small_table};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("voxolap-dur-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn graceful_shutdown_writes_the_clean_marker_and_the_next_boot_skips_the_scan() {
    let table = small_table();
    let dir = tempdir("graceful");
    let opts =
        DurabilityOptions { fsync_mode: FsyncMode::Batch, snapshot_every_batches: 0, faults: None };

    // Boot one: serve over real TCP, ingest over HTTP, drain, shut down.
    let (durable, recovery) = DurableTable::open(table.clone(), &dir, opts.clone()).unwrap();
    assert!(recovery.clean_start, "a fresh directory is a clean start");
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
    assert!(dir.join("clean").exists(), "graceful shutdown must leave the marker");

    // Boot two: the marker is honored (no tail scan) and nothing acked
    // was lost.
    let (durable, recovery) = DurableTable::open(table.clone(), &dir, opts.clone()).unwrap();
    assert!(recovery.clean_start, "marker must let the next boot skip the tail scan");
    assert_eq!(recovery.torn_tail_truncations, 0);
    assert_eq!(recovery.version, acked_version);
    assert_eq!(durable.snapshot().row_count(), table.row_count() + 6);
    assert!(!dir.join("clean").exists(), "a running process is dirty: boot eats the marker");

    // Boot three, after a crash (drop with no shutdown_clean): the boot
    // is dirty, the scan runs, and the acked batches still all survive.
    drop(durable);
    let (durable, recovery) = DurableTable::open(table.clone(), &dir, opts).unwrap();
    assert!(!recovery.clean_start, "no marker ⇒ the boot must scan the tail");
    assert_eq!(recovery.version, acked_version);
    assert_eq!(durable.snapshot().row_count(), table.row_count() + 6);
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
