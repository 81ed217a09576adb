//! `voxolap-server` — serve the JSON API for voice-based OLAP.
//!
//! ```text
//! voxolap-server [--port 8080] [--data flights|salary] [--rows N]
//!                [--scale-rows N] [--threads N] [--cache-mb N]
//!                [--fault-plan SPEC] [--http-threads N] [--http-queue N]
//!                [--http-timeout-ms N] [--http-idle-ms N] [--max-conns N]
//!                [--session-idle-ms N] [--heartbeat-ms N]
//!                [--utterance-deadline-ms N] [--data-dir PATH]
//!                [--fsync-mode always|batch|off] [--snapshot-every N]
//!                [--shutdown-drain-ms N]
//! ```
//!
//! `--data-dir` makes ingest crash-safe (DESIGN.md §17): acknowledged
//! batches are committed to a write-ahead log in that directory before
//! they become visible, periodically compacted into snapshot files, and
//! recovered on boot — *before* the listener accepts its first
//! connection. `--fsync-mode` picks the log's durability/throughput
//! trade (default `batch` group-commit), `--snapshot-every` the
//! compaction interval in batches (default 32, `0` disables). On
//! `SIGTERM`/`SIGINT` the server drains in-flight requests (bounded by
//! `--shutdown-drain-ms`, default 2000), flushes + fsyncs the WAL, and
//! writes a clean-shutdown marker so the next boot skips tail scanning.
//! Without `--data-dir` the table is purely in-memory, exactly as
//! before.
//!
//! `--scale-rows` selects the paper-scale synthetic scale-up (5.3M–50M
//! flights rows) and takes precedence over `--rows`.
//!
//! `--threads` bounds the planning threads used by the `parallel`
//! approach (default: all cores). `--cache-mb` sizes the cross-query
//! semantic cache shared by all requests (default 64; `0` disables it).
//! `--fault-plan` attaches a deterministic fault-injection schedule to
//! the degradation policy every vocalizer carries (e.g.
//! `seed=7,read=0.2,budget=64`; DESIGN.md §12); degraded answers carry
//! `"degraded":true` and the `"degradation"` section of `GET /stats`
//! (always present) counts the ladder's rungs.
//!
//! The serving layer is an epoll reactor feeding a bounded worker pool
//! (DESIGN.md §15): `--http-threads` sets the pool size (default 8),
//! `--http-queue` the pending-request queue capacity beyond which
//! clients get `503` + `Retry-After` (default 64), `--http-timeout-ms`
//! the one socket timeout — a stalled request gets a `408` after it, a
//! write to a client that stops reading fails after it (default 5000,
//! at least 1) — `--http-idle-ms` how long a parked keep-alive connection
//! may idle (default 30000; keep-alive is the client's choice, per
//! request), and `--max-conns` the open-connection cap. Long-lived
//! session connections (`GET /session/<id>/attach`, NDJSON both ways)
//! heartbeat every `--heartbeat-ms` (default 15000) and are reaped after
//! `--session-idle-ms` of silence (default 120000); the transport's
//! `hello` announces both values. `POST /ingest` bodies may be up to
//! 1 MiB, every other request body up to 64 KiB.
//! `--utterance-deadline-ms` bounds the planning time of every turn on
//! every answer route and every approach with a planning loop (`optimal`
//! and `unmerged` too) — past it the answer is committed through the §12
//! anytime path with `"degraded":true` (default: run to convergence),
//! keeping one wide-scope turn from pinning a serving worker. Each request is
//! logged to stderr with its status, byte counts, queue wait, and
//! handler latency; the same counters are served under `"http"` in
//! `GET /stats`.
//!
//! Then:
//!
//! ```text
//! curl -s localhost:8080/health
//! curl -s localhost:8080/stats
//! curl -s -X POST localhost:8080/ask \
//!   -d '{"question": "how does the cancellation probability depend on region and season?"}'
//! curl -s -X POST localhost:8080/session/worker7/input \
//!   -d '{"text": "break down by region", "approach": "prior"}'
//! ```

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::{DurabilityOptions, DurableTable, FsyncMode};
use voxolap_faults::Resilience;
use voxolap_server::{serve_with, AppState, HttpMetrics, ServerConfig};

fn arg(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let port: u16 = arg("--port").and_then(|v| v.parse().ok()).unwrap_or(8080);
    let rows: usize = arg("--scale-rows")
        .or_else(|| arg("--rows"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let data = arg("--data").unwrap_or_else(|| "flights".to_string());

    let mut config = ServerConfig { log_requests: true, ..ServerConfig::default() };
    if let Some(n) = arg("--http-threads").and_then(|v| v.parse().ok()) {
        config.threads = n;
    }
    if let Some(n) = arg("--http-queue").and_then(|v| v.parse().ok()) {
        config.queue = n;
    }
    if let Some(ms) = arg("--http-timeout-ms").and_then(|v| v.parse().ok()) {
        config = config.with_timeout_ms(ms);
    }
    if let Some(ms) = arg("--http-idle-ms").and_then(|v| v.parse().ok()) {
        config.idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = arg("--session-idle-ms").and_then(|v| v.parse().ok()) {
        config.session_idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = arg("--heartbeat-ms").and_then(|v| v.parse().ok()) {
        config.heartbeat = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = arg("--max-conns").and_then(|v| v.parse().ok()) {
        config.max_connections = n;
    }
    // Thousands of parked sessions need thousands of fds; the default
    // soft limit is often 1024.
    let fd_limit = voxolap_server::raise_nofile_limit();

    let table = match data.as_str() {
        "salary" => SalaryConfig::paper_scale().generate(),
        _ => {
            eprintln!("generating flights dataset ({rows} rows)...");
            FlightsConfig { rows, seed: 42 }.generate()
        }
    };

    // The fault plan is parsed before the durable table opens so the
    // storage sites (wal/fsync/snap) share the planner's injector.
    let resilience = match arg("--fault-plan") {
        None => Arc::default(),
        Some(spec) => match Resilience::from_spec(&spec) {
            Ok(r) => {
                eprintln!("fault plan attached: {spec}");
                Arc::new(r)
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
    };

    // Recovery runs here, before the listener exists: no request can
    // observe a partially recovered table.
    let durable = match arg("--data-dir") {
        Some(dir) => {
            let fsync_mode =
                match FsyncMode::parse(arg("--fsync-mode").as_deref().unwrap_or("batch")) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                };
            let options = DurabilityOptions {
                fsync_mode,
                snapshot_every_batches: arg("--snapshot-every")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(32),
                faults: resilience.injector().cloned(),
            };
            match DurableTable::open(table, &dir, options) {
                Ok((durable, recovery)) => {
                    eprintln!(
                        "durability: data-dir={dir} fsync={} recovered version={} rows={} \
                         (snapshot_batches={} wal_batches={} torn_truncations={} clean={} {:.1}ms)",
                        fsync_mode.name(),
                        recovery.version,
                        recovery.total_rows,
                        recovery.snapshot_batches,
                        recovery.replayed_batches,
                        recovery.torn_tail_truncations,
                        recovery.clean_start,
                        recovery.recovery_ms,
                    );
                    durable
                }
                Err(e) => {
                    eprintln!("error: recovery from {dir} failed: {e}");
                    std::process::exit(3);
                }
            }
        }
        None => DurableTable::memory(table),
    };

    let metrics = HttpMetrics::new();
    let mut state = AppState::durable(durable).with_http_metrics(metrics.clone());
    if let Some(threads) = arg("--threads").and_then(|v| v.parse().ok()) {
        state = state.with_threads(threads);
    }
    if let Some(ms) = arg("--utterance-deadline-ms").and_then(|v| v.parse().ok()) {
        state = state.with_utterance_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(mb) = arg("--cache-mb").and_then(|v| v.parse().ok()) {
        state = state.with_cache_mb(mb);
    }
    let state = Arc::new(state.with_resilience(resilience));
    let state_for_shutdown = Arc::clone(&state);

    let shutdown = voxolap_server::install_shutdown_signals();
    let handle = serve_with(&format!("127.0.0.1:{port}"), config.clone(), metrics, move |req| {
        state.handle(req)
    })
    .expect("bind server port");
    eprintln!(
        "voxolap-server listening on http://{} (workers={} queue={} timeout={}ms fd_limit={})",
        handle.addr,
        config.threads,
        config.queue,
        config.timeout.as_millis(),
        fd_limit,
    );

    // Serve until SIGTERM/SIGINT requests a graceful exit (or the process
    // is SIGKILLed, in which case the next boot recovers from the WAL).
    while !shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(100));
    }
    let drain = Duration::from_millis(
        arg("--shutdown-drain-ms").and_then(|v| v.parse().ok()).unwrap_or(2000),
    );
    eprintln!("shutdown: draining in-flight requests (up to {}ms)...", drain.as_millis());
    handle.shutdown_within(drain);
    match state_for_shutdown.shutdown_durability() {
        Ok(()) => eprintln!("shutdown: WAL flushed, clean marker written"),
        Err(e) => {
            eprintln!("shutdown: WAL flush failed ({e}); next boot will scan the tail");
            std::process::exit(1);
        }
    }
}
