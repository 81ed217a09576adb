//! Crash-recovery smoke over the real server binary (DESIGN.md §17).
//!
//! Spawns `voxolap-server` with `--data-dir`, streams ingest batches over
//! HTTP, SIGKILLs the process mid-stream, restarts it on the same
//! directory, and asserts that **every acknowledged batch survived** —
//! the server's ack contract is "durable before 200", and that every
//! recovered batch came from the one log. A second pass SIGTERMs the
//! recovered server and asserts the next boot keeps its version and rows
//! and finds no torn tail.
//!
//! ```text
//! cargo run --release --bin crash_smoke \
//!     [--port N] [--rows N] [--batches N] [--batch N] [--kill-after N]
//!     [--data-dir PATH] [--out PATH]
//! ```
//!
//! The server binary is found via `VOXOLAP_SERVER_BIN` or as a sibling of
//! this executable in the same target directory. Writes `CRASH_SMOKE.json`
//! and exits non-zero on any failure, so CI can gate on it.

use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_bench::{flights_table, usage_error, Flags};
use voxolap_data::schema::MeasureId;
use voxolap_data::{DimId, Table};
use voxolap_json::Value;

// Same no-libc idiom as the server's reactor: raw syscall wrappers.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

fn server_bin() -> PathBuf {
    if let Ok(p) = std::env::var("VOXOLAP_SERVER_BIN") {
        return PathBuf::from(p);
    }
    let me = std::env::current_exe().expect("current_exe");
    me.parent().expect("target dir").join("voxolap-server")
}

/// One `Connection: close` HTTP exchange; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status: u16 =
        text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    let payload = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, payload))
}

fn wait_health(addr: &str, deadline: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if matches!(http(addr, "GET", "/health", ""), Ok((200, _))) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

fn spawn_server(bin: &Path, port: usize, rows: usize, dir: &Path, log: &Path) -> Child {
    let logfile = std::fs::File::create(log).expect("create server log");
    let logfile2 = logfile.try_clone().expect("clone log handle");
    Command::new(bin)
        .args([
            "--port",
            &port.to_string(),
            "--rows",
            &rows.to_string(),
            "--data-dir",
            &dir.display().to_string(),
            "--fsync-mode",
            "always",
            "--http-threads",
            "2",
        ])
        .stdout(Stdio::from(logfile))
        .stderr(Stdio::from(logfile2))
        .spawn()
        .expect("spawn voxolap-server")
}

/// A valid flights ingest line echoing an existing row (same generator +
/// seed as the server's `--rows N`, so member phrases always resolve).
fn echo_line(table: &Table, row: usize) -> String {
    let schema = table.schema();
    let row = row % table.row_count();
    let dims: Vec<Value> = (0..schema.dimensions().len())
        .map(|d| {
            let id = DimId(d as u8);
            let member = table.member_at(id, row);
            Value::Str(schema.dimension(id).member(member).phrase.clone())
        })
        .collect();
    let values: Vec<Value> = (0..schema.measures().len())
        .map(|m| Value::Num(table.measure_value(MeasureId(m as u8), row)))
        .collect();
    Value::obj([("dims", Value::Array(dims)), ("values", Value::Array(values))]).to_string()
}

fn main() {
    let flags = Flags::from_env(&[
        "--port",
        "--rows",
        "--batches",
        "--batch",
        "--kill-after",
        "--data-dir",
        "--out",
    ]);
    let number = |key: &str, default: usize| flags.usize(key, default).unwrap_or_else(usage_error);
    let port = number("--port", 18231);
    let rows = number("--rows", 4_000);
    let batches = number("--batches", 40);
    let batch = number("--batch", 25);
    let kill_after = number("--kill-after", batches * 3 / 5);
    let out = flags.str("--out").unwrap_or("CRASH_SMOKE.json").to_string();
    let dir = flags.str("--data-dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("voxolap-crash-smoke-{}", std::process::id()))
    });
    let addr = format!("127.0.0.1:{port}");
    let bin = server_bin();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    eprintln!(
        "crash_smoke: bin={} dir={} batches={batches}x{batch} kill after {kill_after} acks",
        bin.display(),
        dir.display()
    );

    let table = flights_table(rows);
    let mut failures: Vec<String> = Vec::new();

    // ---- Phase A: ingest, then SIGKILL mid-stream ----------------------
    let mut child = spawn_server(&bin, port, rows, &dir, &dir.join("server-a.log"));
    if !wait_health(&addr, Duration::from_secs(30)) {
        eprintln!("FATAL: server never became healthy (see {}/server-a.log)", dir.display());
        let _ = unsafe { kill(child.id() as i32, SIGKILL) };
        std::process::exit(1);
    }
    let acked = Arc::new(AtomicU64::new(0));
    let stream_done = Arc::new(AtomicU64::new(0));
    let killer = {
        // Fire SIGKILL from a side thread as soon as `kill_after` batches
        // are acknowledged, so the kill lands while ingest is in flight.
        // Kills unconditionally once the stream ends: phase B reuses the
        // port, so the first process must be gone either way.
        let acked = Arc::clone(&acked);
        let stream_done = Arc::clone(&stream_done);
        let pid = child.id() as i32;
        let threshold = kill_after as u64;
        std::thread::spawn(move || {
            while acked.load(Ordering::Relaxed) < threshold
                && stream_done.load(Ordering::Relaxed) == 0
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            unsafe { kill(pid, SIGKILL) };
        })
    };
    let mut acked_rows = 0u64;
    let mut last_acked_version = 0u64;
    for b in 0..batches {
        let body: String = (0..batch).map(|i| echo_line(&table, b * batch + i) + "\n").collect();
        match http(&addr, "POST", "/ingest", &body) {
            Ok((200, resp)) => {
                let v = Value::parse(&resp).expect("ingest ack json");
                last_acked_version = v["version"].as_u64().expect("ack version");
                acked_rows += v["appended"].as_u64().expect("ack appended");
                acked.fetch_add(1, Ordering::Relaxed);
            }
            // Anything else — connection reset by the SIGKILL, a refused
            // dial, a 503 — is an unacknowledged batch: the client owns
            // it, the durability contract does not.
            Ok((status, _)) => eprintln!("batch {b}: status {status} (unacked)"),
            Err(e) => {
                eprintln!("batch {b}: {e} (unacked, server presumed killed)");
                break;
            }
        }
    }
    stream_done.store(1, Ordering::Relaxed);
    killer.join().expect("killer thread");
    let _ = child.wait();
    let acked_batches = acked.load(Ordering::Relaxed);
    eprintln!(
        "phase A: {acked_batches} acked batches ({acked_rows} rows), last acked version {last_acked_version}"
    );
    if acked_batches < kill_after as u64 {
        failures.push(format!(
            "only {acked_batches} batches acked before the kill threshold {kill_after}"
        ));
    }

    // ---- Phase B: restart and audit recovery ---------------------------
    let mut child = spawn_server(&bin, port, rows, &dir, &dir.join("server-b.log"));
    if !wait_health(&addr, Duration::from_secs(30)) {
        eprintln!("FATAL: server did not recover (see {}/server-b.log)", dir.display());
        let _ = unsafe { kill(child.id() as i32, SIGKILL) };
        std::process::exit(1);
    }
    let (status, stats) = http(&addr, "GET", "/stats", "").expect("stats after recovery");
    assert_eq!(status, 200, "stats after recovery: {stats}");
    let stats = Value::parse(&stats).expect("stats json");
    let recovered_version = stats["version"].as_u64().unwrap_or(0);
    let recovered_rows = stats["rows"].as_u64().unwrap_or(0);
    let durability = &stats["durability"];
    // Every acked batch bumped the version by one; recovery replays the
    // whole logged prefix, so the recovered version can only meet or
    // exceed the last ack (a logged-but-unacked tail batch is allowed).
    if recovered_version < last_acked_version {
        failures.push(format!(
            "acked-batch LOSS: recovered version {recovered_version} < last acked {last_acked_version}"
        ));
    }
    if recovered_rows < rows as u64 + acked_rows {
        failures.push(format!(
            "acked-row LOSS: recovered {recovered_rows} rows < seed {rows} + acked {acked_rows}"
        ));
    }
    // Appends are atomic: a torn tail must truncate to whole batches, so
    // whatever survived beyond the seed divides evenly. (A shortfall is
    // already flagged as row loss above.)
    if let Some(ingested) = recovered_rows.checked_sub(rows as u64) {
        if ingested % batch as u64 != 0 {
            failures.push(format!(
                "partial batch visible: {ingested} recovered ingest rows is not a multiple of {batch}"
            ));
        }
    }
    if durability.is_null() {
        failures.push("stats has no durability section after recovery".to_string());
    } else {
        // Every batch since the seed lives in the one log, so a fresh
        // process replays all of them.
        let replayed = durability["replayed_batches"].as_u64().unwrap_or(0);
        if replayed != recovered_version {
            failures.push(format!(
                "recovery replayed {replayed} batches for version {recovered_version}"
            ));
        }
        eprintln!(
            "phase B: recovered version {recovered_version}, {recovered_rows} rows \
             (replayed {replayed} batches, recovery {} ms)",
            durability["recovery_ms"].as_f64().unwrap_or(0.0)
        );
    }

    // ---- Phase C: graceful SIGTERM, restart -----------------------------
    unsafe { kill(child.id() as i32, SIGTERM) };
    let status = child.wait().expect("wait for graceful exit");
    if !status.success() {
        failures.push(format!("graceful shutdown exited with {status}"));
    }
    let mut child = spawn_server(&bin, port, rows, &dir, &dir.join("server-c.log"));
    let mut torn_after_sigterm = Value::Null;
    if !wait_health(&addr, Duration::from_secs(30)) {
        failures.push("server did not restart after graceful shutdown".to_string());
    } else {
        let (_, stats) = http(&addr, "GET", "/stats", "").expect("stats after graceful restart");
        let stats = Value::parse(&stats).expect("stats json");
        let torn = stats["durability"]["torn_tail_truncations"].as_u64();
        if torn != Some(0) {
            failures.push(format!("boot after graceful shutdown truncated a torn tail: {torn:?}"));
        }
        if stats["version"].as_u64().unwrap_or(0) != recovered_version {
            failures.push("graceful restart changed the table version".to_string());
        }
        if stats["rows"].as_u64().unwrap_or(0) != recovered_rows {
            failures.push("graceful restart changed the row count".to_string());
        }
        torn_after_sigterm = torn.map_or(Value::Null, Value::from);
        eprintln!("phase C: torn_tail_truncations={torn:?}");
    }
    let _ = unsafe { kill(child.id() as i32, SIGKILL) };
    let _ = child.wait();

    let record = Value::obj([
        ("bench", "crash_smoke".into()),
        ("batches_sent", batches.into()),
        ("batch_rows", batch.into()),
        ("acked_batches", acked_batches.into()),
        ("acked_rows", acked_rows.into()),
        ("last_acked_version", last_acked_version.into()),
        ("recovered_version", recovered_version.into()),
        ("recovered_rows", recovered_rows.into()),
        ("torn_tail_truncations_after_sigterm", torn_after_sigterm),
        ("failures", Value::Array(failures.iter().map(|f| Value::Str(f.clone())).collect())),
    ]);
    std::fs::write(&out, format!("{record}\n")).expect("write crash smoke record");
    eprintln!("wrote {out}");
    if flags.str("--data-dir").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    if failures.is_empty() {
        eprintln!("crash smoke ok: zero acknowledged batches lost");
    } else {
        for f in &failures {
            eprintln!("CRASH SMOKE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
