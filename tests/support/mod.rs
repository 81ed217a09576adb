//! Helpers the end-to-end suites share: a hard per-test watchdog, one
//! `Connection: close` request over real TCP, the small flights table they
//! serve, and an ingest line echoing one of its rows.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_data::flights::FlightsConfig;
use voxolap_data::schema::MeasureId;
use voxolap_data::{DimId, Table};
use voxolap_json::Value;

/// Abort the whole test process if the caller is still running after
/// `secs` — a hard per-test timeout (std's harness has none, and a
/// serving bug shows up as a silent hang).
pub struct Watchdog(Arc<AtomicBool>);

pub fn watchdog(secs: u64) -> Watchdog {
    let done = Arc::new(AtomicBool::new(false));
    let observer = done.clone();
    std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            if observer.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        eprintln!("watchdog: test exceeded {secs}s hard timeout — aborting");
        std::process::abort();
    });
    Watchdog(done)
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Connect and send one request; the response is still to be read.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    s
}

/// Read the whole response to a [`send`]: status and body.
pub fn response(mut s: TcpStream) -> (u16, String) {
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let status: u16 =
        out.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let (_, body) = out.split_once("\r\n\r\n").expect("header end");
    (status, body.to_string())
}

/// One request, read to the server's close: status and body.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    response(send(addr, method, path, body))
}

/// [`request`], with the body read as JSON lines: one for a plain body,
/// one per event for a chunked NDJSON body (the chunk-size lines between
/// them are dropped).
pub fn ndjson_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<Value>) {
    let (status, body) = request(addr, method, path, body);
    let lines = body.lines().filter(|l| l.starts_with('{'));
    (status, lines.map(|l| Value::parse(l).unwrap_or_else(|e| panic!("{l:?}: {e:?}"))).collect())
}

pub fn small_table() -> Table {
    FlightsConfig { rows: 6_000, seed: 42 }.generate()
}

/// A valid ingest NDJSON line echoing an existing row of `table`.
pub fn echo_line(table: &Table, row: usize) -> String {
    let schema = table.schema();
    let row = row % table.row_count();
    let dims: Vec<Value> = (0..schema.dimensions().len())
        .map(|d| {
            let id = DimId(d as u8);
            Value::Str(schema.dimension(id).member(table.member_at(id, row)).phrase.clone())
        })
        .collect();
    let values: Vec<Value> = (0..schema.measures().len())
        .map(|m| Value::Num(table.measure_value(MeasureId(m as u8), row)))
        .collect();
    Value::obj([("dims", Value::Array(dims)), ("values", Value::Array(values))]).to_string()
}
