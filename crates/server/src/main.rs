//! `voxolap-server` — serve the JSON API for voice-based OLAP.
//!
//! ```text
//! voxolap-server [--port 8080] [--data flights|salary] [--rows N]
//!                [--threads N] [--cache-mb N]
//!                [--fault-plan SPEC] [--http-threads N] [--http-queue N]
//!                [--http-timeout-ms N] [--http-idle-ms N] [--max-conns N]
//!                [--session-idle-ms N] [--heartbeat-ms N]
//!                [--utterance-deadline-ms N] [--data-dir PATH]
//!                [--fsync-mode always|batch|off] [--shutdown-drain-ms N]
//! ```
//!
//! `--data-dir` makes ingest crash-safe (DESIGN.md §17): acknowledged
//! batches are committed to a write-ahead log (`wal.log`, the directory's
//! one file) before they become visible, and every boot CRC-checks and
//! replays that log onto the generated table — *before* the listener
//! accepts its first connection. `--fsync-mode` picks the log's
//! durability/throughput trade (default `batch` group-commit). On
//! `SIGTERM`/`SIGINT` the server drains in-flight requests (bounded by
//! `--shutdown-drain-ms`, default 2000), then flushes + fsyncs the WAL.
//! Without `--data-dir` the table is purely in-memory, exactly as
//! before.
//!
//! Each flag takes one value. An unknown flag, a missing value, or a value
//! its flag cannot take (`--rows 5.3e6`, `--threads two`, `--data salry`)
//! is refused with `usage error: …` and exit status 2.
//!
//! `--rows` sets the generated flights rows (default 200 000; the paper's
//! scale is 5 300 000).
//!
//! `--threads` bounds the planning threads used by the `parallel`
//! approach (default: all cores). `--cache-mb` sizes the cross-query
//! semantic cache shared by all requests (default 64; `0` disables it).
//! `--fault-plan` attaches a deterministic fault-injection schedule to
//! the sites where this process can really fail (e.g.
//! `seed=7,shard=0.2,fsync=0.01`; DESIGN.md §12): `shard` tears
//! sample-cache stripes as a worker panicking under their lock would, and
//! `wal` and `fsync` fail the storage writes of `--data-dir`. Any
//! other key is refused with exit status 2. Answers cut by a deadline
//! carry `"degraded":true`; the `"degradation"` section of `GET /stats`
//! (always present) counts clean and degraded answers and rebuilt locks.
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

use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::{DurabilityOptions, DurableTable, FsyncMode};
use voxolap_faults::{FaultPlan, Resilience};
use voxolap_server::{serve_with, AppState, HttpMetrics, ServerConfig};

/// Every flag of the module docs, checked once: a value is stored only
/// after it parsed as its flag's type.
#[derive(Debug, Default, PartialEq)]
struct Args {
    port: Option<u16>,
    salary: bool,
    rows: Option<usize>,
    threads: Option<usize>,
    cache_mb: Option<usize>,
    fault_plan: Option<String>,
    http_threads: Option<usize>,
    http_queue: Option<usize>,
    http_timeout_ms: Option<u64>,
    http_idle_ms: Option<u64>,
    max_conns: Option<usize>,
    session_idle_ms: Option<u64>,
    heartbeat_ms: Option<u64>,
    utterance_deadline_ms: Option<u64>,
    data_dir: Option<String>,
    fsync_mode: Option<FsyncMode>,
    shutdown_drain_ms: Option<u64>,
}

/// Parse `args` (program name excluded). An unknown flag, a flag without a
/// value, or a value its flag cannot take is an error naming it.
fn parse_args(args: &[String]) -> Result<Args, String> {
    fn num<T: FromStr>(flag: &str, value: &str) -> Result<Option<T>, String> {
        let err = |_| format!("{flag}: `{value}` is not a whole number in range");
        value.parse().map(Some).map_err(err)
    }
    let mut a = Args::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = match args.next() {
            Some(value) if !value.starts_with("--") => value.as_str(),
            _ => return Err(format!("{flag} needs a value")),
        };
        match flag.as_str() {
            "--port" => a.port = num(flag, value)?,
            "--data" => {
                a.salary = match value {
                    "flights" => false,
                    "salary" => true,
                    _ => return Err(format!("--data: `{value}` is not flights or salary")),
                }
            }
            "--rows" => a.rows = num(flag, value)?,
            "--threads" => a.threads = num(flag, value)?,
            "--cache-mb" => a.cache_mb = num(flag, value)?,
            "--fault-plan" => a.fault_plan = Some(value.to_string()),
            "--http-threads" => a.http_threads = num(flag, value)?,
            "--http-queue" => a.http_queue = num(flag, value)?,
            "--http-timeout-ms" => a.http_timeout_ms = num(flag, value)?,
            "--http-idle-ms" => a.http_idle_ms = num(flag, value)?,
            "--max-conns" => a.max_conns = num(flag, value)?,
            "--session-idle-ms" => a.session_idle_ms = num(flag, value)?,
            "--heartbeat-ms" => a.heartbeat_ms = num(flag, value)?,
            "--utterance-deadline-ms" => a.utterance_deadline_ms = num(flag, value)?,
            "--data-dir" => a.data_dir = Some(value.to_string()),
            "--fsync-mode" => {
                a.fsync_mode =
                    Some(FsyncMode::parse(value).map_err(|e| format!("--fsync-mode: {e}"))?)
            }
            "--shutdown-drain-ms" => a.shutdown_drain_ms = num(flag, value)?,
            _ => {
                return Err(format!(
                    "unknown flag `{flag}` (the flags are listed in the module docs)"
                ))
            }
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("usage error: {e}");
        std::process::exit(2)
    });
    let port = args.port.unwrap_or(8080);
    let rows = args.rows.unwrap_or(200_000);

    let mut config = ServerConfig { log_requests: true, ..ServerConfig::default() };
    if let Some(n) = args.http_threads {
        config.threads = n;
    }
    if let Some(n) = args.http_queue {
        config.queue = n;
    }
    if let Some(ms) = args.http_timeout_ms {
        config = config.with_timeout_ms(ms);
    }
    if let Some(ms) = args.http_idle_ms {
        config.idle_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = args.session_idle_ms {
        config.session_idle_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = args.heartbeat_ms {
        config.heartbeat = Duration::from_millis(ms);
    }
    if let Some(n) = args.max_conns {
        config.max_connections = n;
    }
    // Thousands of parked sessions need thousands of fds; the default
    // soft limit is often 1024.
    let fd_limit = voxolap_server::raise_nofile_limit();

    let table = if args.salary {
        SalaryConfig::paper_scale().generate()
    } else {
        eprintln!("generating flights dataset ({rows} rows)...");
        FlightsConfig { rows, seed: 42 }.generate()
    };

    // The fault plan is parsed before the durable table opens so the
    // storage sites (wal/fsync) share the planner's injector.
    let resilience = match &args.fault_plan {
        None => Arc::default(),
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => {
                eprintln!("fault plan attached: {spec}");
                Arc::new(Resilience::new(Some(plan)))
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
    };

    // Recovery runs here, before the listener exists: no request can
    // observe a partially recovered table.
    let durable = match &args.data_dir {
        Some(dir) => {
            let fsync_mode = args.fsync_mode.unwrap_or(FsyncMode::Batch);
            let options = DurabilityOptions {
                fsync_mode,
                faults: resilience.injector().cloned(),
                ..DurabilityOptions::default()
            };
            match DurableTable::open(table, dir, options) {
                Ok((durable, recovery)) => {
                    eprintln!(
                        "durability: data-dir={dir} fsync={} recovered version={} rows={} \
                         (wal_batches={} torn_truncations={} {:.1}ms)",
                        fsync_mode.name(),
                        recovery.version,
                        recovery.total_rows,
                        recovery.replayed_batches,
                        recovery.torn_tail_truncations,
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
    if let Some(threads) = args.threads {
        state = state.with_threads(threads);
    }
    if let Some(ms) = args.utterance_deadline_ms {
        state = state.with_utterance_deadline(Duration::from_millis(ms));
    }
    if let Some(mb) = args.cache_mb {
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
    let drain = Duration::from_millis(args.shutdown_drain_ms.unwrap_or(2000));
    eprintln!("shutdown: draining in-flight requests (up to {}ms)...", drain.as_millis());
    handle.shutdown_within(drain);
    match state_for_shutdown.shutdown_durability() {
        Ok(()) => eprintln!("shutdown: WAL flushed"),
        Err(e) => {
            eprintln!("shutdown: WAL flush failed ({e}); the next boot recovers what reached disk");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(&args.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn every_flag_parses_to_its_type() {
        let a = parse(
            "--port 8099 --data salary --rows 5300000 --threads 2 \
             --cache-mb 0 --fault-plan seed=7,shard=0.2 --http-threads 4 --http-queue 8 \
             --http-timeout-ms 200 --http-idle-ms 300 --max-conns 9 --session-idle-ms 400 \
             --heartbeat-ms 500 --utterance-deadline-ms 1 --data-dir data \
             --fsync-mode off --shutdown-drain-ms 600",
        )
        .unwrap();
        assert_eq!(
            (a.port, a.salary, a.rows, a.fault_plan.as_deref(), a.data_dir.as_deref()),
            (Some(8099), true, Some(5_300_000), Some("seed=7,shard=0.2"), Some("data"))
        );
        assert_eq!(
            (a.fsync_mode, a.http_timeout_ms, a.max_conns),
            (Some(FsyncMode::Off), Some(200), Some(9))
        );
        assert_eq!(parse("").unwrap(), Args::default());
    }

    #[test]
    fn bad_values_unknown_flags_and_missing_values_are_refused() {
        for (args, names) in [
            ("--rows 5.3e6", "--rows: `5.3e6`"),
            ("--threads two", "--threads: `two`"),
            ("--port 70000", "--port: `70000`"),
            ("--data salry", "--data: `salry`"),
            ("--fsync-mode sometimes", "--fsync-mode"),
            ("--verbose 1", "`--verbose`"),
            ("--scale-rows 5", "`--scale-rows`"),
            ("--snapshot-every 8", "`--snapshot-every`"),
            ("--rows", "--rows needs a value"),
            ("--rows --threads 2", "--rows needs a value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(names), "{args}: {err}");
        }
    }
}
