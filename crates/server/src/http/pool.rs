//! The accept thread, one thread per open connection (kept, once its
//! connection closes, for the next one), the planning permits those
//! threads share, and shutdown.
//!
//! Each connection is read and written only by its own thread, so every
//! admitted request is answered at most once by construction. The permit
//! counter and the connection registry are plain locks; a handler runs
//! under `catch_unwind` with neither held, so a panic is answered `500` and
//! counted in `panics`; no critical section here can panic.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, SendError, Sender};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::metrics::HttpMetrics;
use super::wire::{
    head_end, parse_request, response_bytes, session_handshake, write_streaming, LineSink, Parsed,
    Request, Response, SessionCallback, SessionUpgrade, SessionVerdict, MAX_HEADER_BYTES,
    MAX_INGEST_BODY, MAX_SESSION_LINE,
};
use super::{ServerConfig, REJECT_LINGER};

/// State shared between the accept thread, the connection threads and the
/// handle.
struct Shared {
    stop: AtomicBool,
    permits: Mutex<Permits>,
    /// Signaled when a permit is given back, and when shutdown sets the
    /// drain deadline.
    freed: Condvar,
    /// Every open connection, by id: a clone of its stream (what shutdown
    /// interrupts) and whether its thread is in a turn rather than
    /// waiting for input. Its length is the connection count.
    open: Mutex<HashMap<u64, (TcpStream, bool)>>,
    /// Connection threads whose connection has closed, each waiting to
    /// serve the next one. Threads outlive their connections, so the heap
    /// a thread's allocator arena holds is reused by the next connection
    /// instead of new threads spreading it over new arenas.
    idle: Mutex<Vec<Sender<Conn>>>,
    config: ServerConfig,
    metrics: Arc<HttpMetrics>,
}

/// The planning permits: `config.threads` of them.
struct Permits {
    busy: usize,
    waiting: usize,
    /// Set by shutdown: a waiter still without a permit at this instant
    /// is turned away.
    drain_until: Option<Instant>,
}

/// One planning permit, given back on drop.
struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.permits.lock().busy -= 1;
        self.0.freed.notify_one();
    }
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Take a planning permit, waiting for one if all are busy. A request
    /// (`bounded`) finds at most `queue` others waiting or is refused at
    /// once; a session line waits regardless. Once shutdown has begun,
    /// waiting ends at the drain deadline. Waiting counts in `queued`; a
    /// refusal is the message of its `503`.
    fn acquire(&self, bounded: bool) -> Result<Permit<'_>, &'static str> {
        let threads = self.config.threads;
        let mut permits = self.permits.lock();
        if permits.busy < threads {
            permits.busy += 1;
            return Ok(Permit(self));
        }
        if bounded && permits.waiting >= self.config.queue {
            return Err("server overloaded, retry shortly");
        }
        HttpMetrics::add(&self.metrics.queued, 1);
        permits.waiting += 1;
        let taken = loop {
            if permits.busy < threads {
                permits.busy += 1;
                break Ok(Permit(self));
            }
            permits = match permits.drain_until {
                None => self.freed.wait(permits).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break Err("server shutting down");
                    }
                    let waited = self.freed.wait_timeout(permits, deadline - now);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        };
        permits.waiting -= 1;
        taken
    }

    /// Mark connection `id` as in a turn (`busy`) or waiting for input.
    /// Returns whether it may go on reading: shutdown interrupts only the
    /// connections it sees waiting, so one that comes back from a turn
    /// after shutdown began must see `stop` here and close.
    fn mark(&self, id: u64, busy: bool) -> bool {
        if let Some(entry) = self.open.lock().get_mut(&id) {
            entry.1 = busy;
        }
        !self.stopped()
    }
}

/// One client connection, owned by its thread.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// Bytes read but not yet consumed: a partial request or line, and
    /// whatever the client pipelined behind it.
    buf: Vec<u8>,
    /// Requests answered on this connection (keep-alive reuse).
    served: u64,
}

/// What one read brought.
enum Fill {
    Data,
    Eof,
    Timeout,
    Error,
}

impl Conn {
    /// Read once into the buffer, waiting at most `timeout`.
    fn fill(&mut self, timeout: Duration) -> Fill {
        if self.buf.len() > MAX_HEADER_BYTES + MAX_INGEST_BODY + 4096 {
            return Fill::Error; // hard cap; the parser has refused long before
        }
        let _ = self.stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return Fill::Eof,
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    return Fill::Data;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Fill::Timeout
                }
                Err(_) => return Fill::Error,
            }
        }
    }

    /// Take one complete line off the buffer, without its `\n` or `\r\n`.
    fn take_line(&mut self) -> Option<String> {
        let nl = self.buf.iter().position(|&b| b == b'\n')?;
        let rest = self.buf.split_off(nl + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }
}

/// A connection thread: serve `conn`, then wait among the idle threads
/// for the next connection, until shutdown.
fn connection_thread<F>(shared: &Shared, mut conn: Conn, handler: &F)
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    loop {
        connection(shared, conn, handler);
        let (tx, rx) = channel();
        {
            let mut idle = shared.idle.lock();
            if shared.stopped() {
                return; // shutdown clears the idle list once, after `stop`
            }
            idle.push(tx);
        }
        match rx.recv() {
            Ok(next) => conn = next,
            Err(_) => return, // shutdown
        }
    }
}

/// One connection: HTTP requests until it closes or upgrades, then the
/// session loop. The one close site: the connection leaves the registry,
/// and a session counts in `sessions_closed`.
fn connection<F>(shared: &Shared, mut conn: Conn, handler: &F)
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    let _ = conn.stream.set_write_timeout(Some(shared.config.timeout));
    if let Some(on_line) = http_loop(shared, &mut conn, handler) {
        session_loop(shared, &mut conn, &on_line);
        HttpMetrics::add(&shared.metrics.sessions_closed, 1);
    }
    shared.open.lock().remove(&conn.id);
}

/// Serve HTTP requests on `conn` until it closes; returns the session
/// callback if a handler upgraded it.
fn http_loop<F>(shared: &Shared, conn: &mut Conn, handler: &F) -> Option<SessionCallback>
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    let (metrics, config) = (&*shared.metrics, &shared.config);
    loop {
        let (req, consumed) = match parse_request(&conn.buf) {
            Parsed::Request { req, consumed } => (req, consumed),
            Parsed::Error { status, message } => {
                HttpMetrics::add(&metrics.parse_errors, 1);
                refuse(&conn.stream, Response::error(status, message), metrics);
                return None;
            }
            Parsed::NeedMore => {
                // A fresh connection, or one with a partial request
                // buffered, is mid-request (408 on a stall); a kept-alive
                // one between requests idles out silently.
                let mid_request = !conn.buf.is_empty() || conn.served == 0;
                let wait = if mid_request { config.timeout } else { config.idle_timeout };
                match conn.fill(wait) {
                    Fill::Data => continue,
                    // Shutdown interrupted the read, or a clean close (end
                    // of a keep-alive run, a connect-and-leave probe):
                    // nothing to answer.
                    Fill::Eof if conn.buf.is_empty() || shared.stopped() => {}
                    Fill::Eof => {
                        // The client half-closed mid-request: answer the
                        // framing error — a shut write half still reads.
                        HttpMetrics::add(&metrics.parse_errors, 1);
                        let message = match head_end(&conn.buf) {
                            Some(_) => "truncated request body",
                            None => "truncated headers",
                        };
                        refuse(&conn.stream, Response::error(400, message), metrics);
                    }
                    Fill::Timeout if mid_request => {
                        HttpMetrics::add(&metrics.timeouts, 1);
                        refuse(&conn.stream, Response::error(408, "request timed out"), metrics);
                    }
                    Fill::Timeout => HttpMetrics::add(&metrics.idle_closed, 1),
                    Fill::Error if !conn.buf.is_empty() => HttpMetrics::add(&metrics.io_errors, 1),
                    Fill::Error => {}
                }
                return None;
            }
        };
        // Bytes past the parsed request (pipelined follow-ups) stay in
        // the buffer for the next round.
        conn.buf.drain(..consumed);
        if conn.served > 0 {
            HttpMetrics::add(&metrics.keepalive_reuses, 1);
        }
        shared.mark(conn.id, true);
        let queued_at = Instant::now();
        let permit = match shared.acquire(true) {
            Ok(permit) => permit,
            Err(message) => {
                refuse(&conn.stream, Response::error(503, message), metrics);
                return None;
            }
        };
        let outcome = turn(conn, req, queued_at.elapsed(), shared, handler);
        drop(permit);
        match outcome {
            Outcome::Keep if shared.mark(conn.id, false) => {}
            // Handler responses are fully framed, so a plain close (no
            // linger) is correct here; linger is for the error paths where
            // the request body may still be in flight.
            Outcome::Keep | Outcome::Close => return None,
            Outcome::Session(on_line) => return Some(on_line),
        }
    }
}

/// What a request turn leaves the connection to do next.
enum Outcome {
    Keep,
    Close,
    Session(SessionCallback),
}

/// One request turn, with its permit held: the handler under
/// `catch_unwind` with panic counting, the response or the session
/// upgrade, `bytes_out`, and the log line.
fn turn<F>(
    conn: &mut Conn,
    req: Request,
    queue_wait: Duration,
    shared: &Shared,
    handler: &F,
) -> Outcome
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    let (metrics, config) = (&*shared.metrics, &shared.config);
    HttpMetrics::add(&metrics.queue_wait_us, queue_wait.as_micros() as u64);
    let started = Instant::now();
    HttpMetrics::add(&metrics.requests, 1);
    HttpMetrics::add(&metrics.bytes_in, req.body.len() as u64);
    let mut response = guarded(metrics, || handler(&req))
        .unwrap_or_else(|| Response::error(500, "internal server error"));
    let reused = conn.served > 0;
    conn.served += 1;
    if let Some(upgrade) = response.session.take() {
        return open_session(&mut conn.stream, upgrade, config, metrics);
    }
    let status = response.status;
    // Keep-alive only when the client asked and the response isn't a
    // serving-layer failure.
    let keep = req.keep_alive && !shared.stopped() && status < 500;
    let (bytes_out, keep) = respond(&mut conn.stream, response, keep, metrics);
    HttpMetrics::add(&metrics.bytes_out, bytes_out);
    let handle = started.elapsed();
    HttpMetrics::add(&metrics.handle_us, handle.as_micros() as u64);
    if config.log_requests {
        eprintln!(
            "http method={} path={} status={} bytes_in={} bytes_out={} queue_ms={:.2} handler_ms={:.2} reused={}",
            req.method,
            req.path,
            status,
            req.body.len(),
            bytes_out,
            queue_wait.as_secs_f64() * 1e3,
            handle.as_secs_f64() * 1e3,
            reused,
        );
    }
    if keep {
        Outcome::Keep
    } else {
        Outcome::Close
    }
}

/// Run a handler or a session callback under `catch_unwind`; a panic is
/// counted and comes back as `None`.
fn guarded<T>(metrics: &HttpMetrics, work: impl FnOnce() -> T) -> Option<T> {
    let outcome = catch_unwind(AssertUnwindSafe(work));
    if outcome.is_err() {
        HttpMetrics::add(&metrics.panics, 1);
    }
    outcome.ok()
}

/// Write a handler's response. Returns the body bytes written and whether
/// the connection may be reused: `keep`, and the response went out whole.
fn respond(
    stream: &mut TcpStream,
    mut response: Response,
    keep: bool,
    metrics: &HttpMetrics,
) -> (u64, bool) {
    metrics.count_status(response.status);
    match response.stream.take() {
        Some(body_fn) => {
            let (bytes, complete) = write_streaming(stream, response.status, body_fn, keep);
            (bytes, keep && complete)
        }
        None => match stream.write_all(&response_bytes(&response, keep)) {
            Ok(()) => (response.body.len() as u64, keep),
            Err(_) => {
                HttpMetrics::add(&metrics.io_errors, 1);
                (0, false)
            }
        },
    }
}

/// Answer an upgrade: the `101` handshake and the transport's `hello` in
/// one write, after which the connection speaks the session transport.
fn open_session(
    stream: &mut TcpStream,
    upgrade: SessionUpgrade,
    config: &ServerConfig,
    metrics: &HttpMetrics,
) -> Outcome {
    metrics.count_status(101);
    let handshake = session_handshake(&upgrade.id, config.heartbeat, config.session_idle_timeout);
    if stream.write_all(handshake.as_bytes()).and_then(|()| stream.flush()).is_err() {
        HttpMetrics::add(&metrics.io_errors, 1);
        return Outcome::Close;
    }
    HttpMetrics::add(&metrics.sessions_opened, 1);
    HttpMetrics::add(&metrics.bytes_out, handshake.len() as u64);
    Outcome::Session(upgrade.on_line)
}

/// Serve an upgraded session until it ends: every line goes to `on_line`
/// with a permit held; between lines the thread heartbeats, and reaps the
/// session once it has been silent for `session_idle_timeout`.
fn session_loop(shared: &Shared, conn: &mut Conn, on_line: &SessionCallback) {
    let (metrics, config) = (&*shared.metrics, &shared.config);
    let mut last_activity = Instant::now();
    let mut last_heartbeat = last_activity;
    loop {
        let Some(line) = conn.take_line() else {
            if conn.buf.len() > MAX_SESSION_LINE {
                return; // a line that never ends is a protocol violation
            }
            let now = Instant::now();
            let reap_at = last_activity + config.session_idle_timeout;
            let beat_at = last_heartbeat + config.heartbeat;
            if now >= reap_at {
                HttpMetrics::add(&metrics.idle_closed, 1);
                let _ = conn.stream.write_all(b"{\"type\":\"bye\",\"reason\":\"idle\"}\n");
                return;
            }
            if now >= beat_at {
                if conn.stream.write_all(b"{\"type\":\"heartbeat\"}\n").is_err() {
                    return; // a dead peer, or one that stopped reading
                }
                HttpMetrics::add(&metrics.heartbeats_sent, 1);
                last_heartbeat = now;
                continue;
            }
            match conn.fill(reap_at.min(beat_at) - now) {
                Fill::Data => last_activity = Instant::now(),
                Fill::Timeout => {}
                Fill::Error if !conn.buf.is_empty() => {
                    HttpMetrics::add(&metrics.io_errors, 1);
                    return;
                }
                // EOF is the client hanging up — or shutdown interrupting
                // the read, which says goodbye first.
                Fill::Eof | Fill::Error => {
                    if shared.stopped() {
                        farewell(&mut conn.stream);
                    }
                    return;
                }
            }
            continue;
        };
        HttpMetrics::add(&metrics.session_lines, 1);
        // A blank keep-alive line needs no permit.
        if !line.is_empty() {
            shared.mark(conn.id, true);
            let queued_at = Instant::now();
            let Ok(permit) = shared.acquire(false) else {
                farewell(&mut conn.stream);
                return;
            };
            HttpMetrics::add(&metrics.queue_wait_us, queued_at.elapsed().as_micros() as u64);
            let mut sink =
                LineSink { stream: &mut conn.stream, chunked: false, bytes_out: 0, failed: false };
            let verdict = guarded(metrics, || on_line(&line, &mut sink)).unwrap_or_else(|| {
                sink.send_line("{\"type\":\"error\",\"message\":\"internal error\"}");
                SessionVerdict::Continue
            });
            drop(permit);
            HttpMetrics::add(&metrics.bytes_out, sink.bytes_out);
            if verdict == SessionVerdict::Close || sink.failed {
                return;
            }
            if !shared.mark(conn.id, false) {
                farewell(&mut conn.stream);
                return;
            }
        }
        last_activity = Instant::now();
        last_heartbeat = last_activity;
    }
}

/// The shutdown goodbye of a session.
fn farewell(stream: &mut TcpStream) {
    let _ = stream.write_all(b"{\"type\":\"bye\",\"reason\":\"shutdown\"}\n");
}

/// Answer a serving-layer error (a parse error, a `408`, a `503`) and
/// close: one write and a lingering close, both within `REJECT_LINGER`. A
/// `503` is a rejection: it counts in `rejected`, and so does a write of
/// it that fails, in `reject_write_failures`.
fn refuse(mut stream: &TcpStream, response: Response, metrics: &HttpMetrics) {
    let deadline = Instant::now() + REJECT_LINGER;
    let reject = response.status == 503;
    if reject {
        HttpMetrics::add(&metrics.rejected, 1);
    }
    metrics.count_status(response.status);
    let _ = stream.set_write_timeout(Some(REJECT_LINGER));
    if stream.write_all(&response_bytes(&response, false)).is_err() {
        if reject {
            HttpMetrics::add(&metrics.reject_write_failures, 1);
        }
        return;
    }
    linger_close(stream, deadline);
}

/// Close the write half and drain whatever the client already sent until
/// EOF or `deadline`, so closing a socket with unread input yields a FIN
/// the client can read the response through, not an RST. The total time
/// is bounded by `deadline` regardless of how slowly the client dribbles.
fn linger_close(mut stream: &TcpStream, deadline: Instant) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 1024];
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let _ = stream.set_read_timeout(Some((deadline - now).min(Duration::from_millis(100))));
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// The accept thread: a blocking accept loop that hands every connection
/// to a thread of its own — an idle one, or a new one — until shutdown
/// wakes it. Returns every connection thread it started.
fn accept_loop<F>(
    listener: TcpListener,
    shared: Arc<Shared>,
    handler: Arc<F>,
) -> Vec<JoinHandle<()>>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let metrics = &shared.metrics;
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0;
    for stream in listener.incoming() {
        if shared.stopped() {
            break;
        }
        let Ok(stream) = stream else {
            // Out of file descriptors, or a connection aborted before it
            // was accepted: back off briefly rather than spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // Every event is written and flushed on its own. With Nagle on, a
        // line that follows another within the peer's delayed-ACK window
        // (the preamble right behind the response head on a reused
        // connection) would sit in the kernel for ~40 ms.
        let _ = stream.set_nodelay(true);
        let mut open = shared.open.lock();
        if open.len() >= shared.config.max_connections {
            drop(open);
            // At capacity: a best-effort immediate 503 into the fresh
            // socket's empty send buffer, which never blocks.
            HttpMetrics::add(&metrics.rejected, 1);
            metrics.count_status(503);
            let response = Response::error(503, "server at connection capacity");
            let mut s = stream;
            if s.write_all(&response_bytes(&response, false)).is_err() {
                HttpMetrics::add(&metrics.reject_write_failures, 1);
            }
            let _ = s.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(clone) = stream.try_clone() else { continue };
        next_id += 1;
        open.insert(next_id, (clone, false));
        drop(open);
        HttpMetrics::add(&metrics.accepted, 1);
        let conn = Conn { id: next_id, stream, buf: Vec::new(), served: 0 };
        let idle = shared.idle.lock().pop();
        let conn = match idle {
            Some(thread) => match thread.send(conn) {
                Ok(()) => continue,
                Err(SendError(conn)) => conn,
            },
            None => conn,
        };
        let (for_conn, handler) = (Arc::clone(&shared), Arc::clone(&handler));
        let spawned = std::thread::Builder::new()
            .name("http-conn".to_string())
            .spawn(move || connection_thread(&for_conn, conn, handler.as_ref()));
        match spawned {
            Ok(t) => threads.push(t),
            Err(_) => {
                shared.open.lock().remove(&next_id);
            }
        }
    }
    threads
}

// ---------------------------------------------------------------------------
// Handle, serve, shutdown.

/// Handle to a running server: its bound address, metrics, and shutdown.
pub struct ServerHandle {
    /// The address the listener bound (useful with port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: JoinHandle<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The serving-layer counters for this server.
    pub fn metrics(&self) -> Arc<HttpMetrics> {
        self.shared.metrics.clone()
    }

    /// Gracefully stop with a 5-second drain deadline.
    pub fn shutdown(self) {
        self.shutdown_within(Duration::from_secs(5));
    }

    /// Stop accepting, end the idle connection threads, interrupt every
    /// connection waiting for input (an idle one closes, a session is told
    /// `bye(shutdown)`), let the turns in flight finish, and give a
    /// request still waiting for a permit until `drain` to get one — past
    /// it, it is answered `503`. Returns once every connection thread has
    /// ended.
    pub fn shutdown_within(self, drain: Duration) {
        let ServerHandle { addr, shared, accept_thread } = self;
        shared.stop.store(true, Ordering::SeqCst);
        shared.permits.lock().drain_until = Some(Instant::now() + drain);
        shared.freed.notify_all();
        // One connection wakes the blocked accept; it sees `stop` and
        // drops the listener. (On Linux, connecting to an unspecified
        // address reaches this host.)
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        let threads = accept_thread.join().unwrap_or_default();
        shared.idle.lock().clear();
        for (stream, busy) in shared.open.lock().values() {
            if !busy {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Start serving on `addr` with default [`ServerConfig`] and fresh
/// metrics. See [`serve_with`].
pub fn serve<F>(addr: &str, handler: F) -> std::io::Result<ServerHandle>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    serve_with(addr, ServerConfig::default(), HttpMetrics::new(), handler)
}

/// Start serving on `addr` (e.g. `"127.0.0.1:0"`): an accept thread gives
/// every connection a thread of its own, and handlers run under
/// `config.threads` permits. Returns once the listener is bound; all
/// threads run in the background until [`ServerHandle::shutdown`].
///
/// Pass the same `metrics` to the request handler (e.g. via
/// `AppState::with_http_metrics`) to surface the counters in `GET /stats`.
pub fn serve_with<F>(
    addr: &str,
    config: ServerConfig,
    metrics: Arc<HttpMetrics>,
    handler: F,
) -> std::io::Result<ServerHandle>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        permits: Mutex::new(Permits { busy: 0, waiting: 0, drain_until: None }),
        freed: Condvar::new(),
        open: Mutex::new(HashMap::new()),
        idle: Mutex::new(Vec::new()),
        config: ServerConfig { threads: config.threads.max(1), ..config },
        metrics,
    });
    let accept_thread = {
        let shared = Arc::clone(&shared);
        let handler = Arc::new(handler);
        std::thread::Builder::new()
            .name("http-accept".to_string())
            .spawn(move || accept_loop(listener, shared, handler))?
    };
    Ok(ServerHandle { addr: bound, shared, accept_thread })
}
