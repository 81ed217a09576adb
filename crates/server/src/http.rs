//! Evented HTTP/1.1 serving over `std::net` — a readiness-driven reactor
//! with a worker pool, built to hold huge fleets of mostly-idle voice
//! sessions (DESIGN.md §15).
//!
//! The previous serving layer (§10) was thread-per-connection behind a
//! bounded queue: correct under load, but one OS thread per in-flight
//! connection and `Connection: close` on every response. This layer keeps
//! the §10 guarantees (admission control, timeouts, panic isolation,
//! deadline-bounded graceful shutdown, metrics) on a different substrate:
//!
//! - **Reactor thread** — a nonblocking accept loop plus per-connection
//!   state machines (`ReadHead/ReadBody → dispatch → write/linger`)
//!   multiplexed over `epoll` ([`crate::reactor`]). Idle connections cost
//!   a couple hundred bytes of state, not a thread.
//! - **Worker pool** — parsed requests are executed on a small fixed pool
//!   fed by a bounded queue; when the queue is full the *reactor* answers
//!   `503` + `Retry-After` through its nonblocking write path, so slow or
//!   absent readers can never stall the accept path.
//! - **Keep-alive** — clients that send `Connection: keep-alive` get
//!   their connection parked back in the reactor after each response and
//!   reused for follow-up queries (semantic-cache warm starts then hit on
//!   a warm connection). Parse errors and serving-layer failures still
//!   close, with a deadline-bounded lingering close (FIN, not RST).
//! - **Session transport** — a handler can answer an HTTP request with
//!   [`Response::upgrade_session`]: the connection leaves HTTP framing
//!   (`101 Switching Protocols`, `Upgrade: voxolap-session`) and becomes
//!   a long-lived bidirectional NDJSON link. The client writes one JSON
//!   line per utterance; each line is dispatched to the worker pool,
//!   which streams reply events (one §11 `SpeechStream` per utterance)
//!   straight onto the socket. Parked sessions get server heartbeats and
//!   an idle reaper.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use voxolap_engine::poison::RecoveringMutex;
use voxolap_json::Value;

use crate::reactor::{Event, Interest, Poller};

/// Upper bound on accepted request bodies (64 KiB — questions are short).
const MAX_BODY: usize = 64 * 1024;

/// Upper bound on the request line + header section.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Upper bound on one NDJSON line from an upgraded session connection.
const MAX_SESSION_LINE: usize = 64 * 1024;

/// Reactor tick: upper bound between deadline sweeps (heartbeats, idle
/// reaping, read timeouts) and the stop-flag recheck latency.
const TICK: Duration = Duration::from_millis(25);

/// How often idle workers recheck the stop flag while waiting for work.
const WORKER_POLL: Duration = Duration::from_millis(100);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Request path (without query string).
    pub path: String,
    /// Request body (empty for bodyless methods).
    pub body: Vec<u8>,
    /// The client sent `Connection: keep-alive` and may reuse the
    /// connection for follow-up requests.
    pub keep_alive: bool,
}

impl Request {
    /// Build a request by hand (handler unit tests).
    pub fn new(method: &str, path: &str, body: &[u8]) -> Self {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_vec(),
            keep_alive: false,
        }
    }
}

/// A callback producing a chunked response body incrementally.
pub type StreamBody = Box<dyn FnOnce(&mut LineSink<'_>) + Send>;

/// What a session-line handler decides about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionVerdict {
    /// Park the connection back in the reactor and await the next line.
    Continue,
    /// Close the session (the handler already wrote any farewell event).
    Close,
}

/// Per-line callback of an upgraded session connection: receives one
/// NDJSON line from the client and writes reply events through the sink.
pub type SessionCallback = Arc<dyn Fn(&str, &mut LineSink<'_>) -> SessionVerdict + Send + Sync>;

/// Everything the serving layer needs to run a long-lived session
/// connection after the HTTP upgrade (see [`Response::upgrade_session`]).
pub struct SessionUpgrade {
    /// Session identifier (for close notifications and logs).
    pub id: String,
    /// Greeting event(s) written right after the `101` handshake, before
    /// the connection parks (e.g. a `hello` line carrying negotiated
    /// heartbeat and idle-timeout values).
    pub hello: Option<String>,
    /// Invoked on the worker pool for every complete line the client
    /// sends.
    pub on_line: SessionCallback,
    /// Invoked exactly once when the session connection closes for any
    /// reason (client hangup, idle reap, shutdown, handler verdict).
    pub on_close: Arc<dyn Fn(&str) + Send + Sync>,
}

/// An HTTP response to send.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON). Ignored when `stream` is set.
    pub body: String,
    /// When set, the response is sent `Transfer-Encoding: chunked` and
    /// this callback writes the body through a [`LineSink`], one chunk
    /// per line, flushed to the socket as it is produced.
    pub stream: Option<StreamBody>,
    /// When set, the response is a `101 Switching Protocols` handshake
    /// and the connection becomes a long-lived NDJSON session.
    pub(crate) session: Option<SessionUpgrade>,
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Response")
            .field("status", &self.status)
            .field("body", &self.body)
            .field("streaming", &self.stream.is_some())
            .field("session", &self.session.as_ref().map(|s| s.id.clone()))
            .finish()
    }
}

impl Response {
    /// A 200 response with a JSON body.
    pub fn ok(body: String) -> Self {
        Response { status: 200, body, stream: None, session: None }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        Response {
            status,
            body: format!("{{\"error\":{}}}", voxolap_json::escape(message)),
            stream: None,
            session: None,
        }
    }

    /// A 200 response whose body is produced incrementally by `body` and
    /// delivered with chunked transfer encoding as it is written — used
    /// for NDJSON sentence streams.
    pub fn streaming(body: impl FnOnce(&mut LineSink<'_>) + Send + 'static) -> Self {
        Response { status: 200, body: String::new(), stream: Some(Box::new(body)), session: None }
    }

    /// A `101 Switching Protocols` response upgrading the connection to a
    /// long-lived NDJSON session (see [`SessionUpgrade`]).
    pub fn upgrade_session(upgrade: SessionUpgrade) -> Self {
        Response { status: 101, body: String::new(), stream: None, session: Some(upgrade) }
    }

    fn status_text(&self) -> &'static str {
        status_text(self.status)
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        101 => "Switching Protocols",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// NDJSON line writer handed to [`Response::streaming`] callbacks and to
/// [`SessionCallback`]s: one event per [`send_line`](LineSink::send_line),
/// flushed immediately so the client sees every sentence the moment it is
/// planned. The two transports differ only in framing — a streaming
/// response wraps each line in an HTTP chunk, an upgraded session
/// connection (which left HTTP at the `101`) writes it raw.
pub struct LineSink<'a> {
    stream: &'a mut TcpStream,
    chunked: bool,
    bytes_out: u64,
    failed: bool,
}

impl LineSink<'_> {
    /// Write one event line (a trailing `\n` is appended) and flush it to
    /// the socket. Returns `false` once the client is unreachable;
    /// subsequent sends are no-ops.
    pub fn send_line(&mut self, line: &str) -> bool {
        if self.failed {
            return false;
        }
        let framed = if self.chunked {
            format!("{:x}\r\n{line}\n\r\n", line.len() + 1)
        } else {
            format!("{line}\n")
        };
        match self.stream.write_all(framed.as_bytes()).and_then(|()| self.stream.flush()) {
            Ok(()) => self.bytes_out += line.len() as u64 + 1,
            Err(_) => self.failed = true,
        }
        !self.failed
    }

    /// Whether the client has hung up: a nonblocking 1-byte peek, cheap
    /// enough to poll between sentences, that lets the producer abort
    /// planning early. A readable EOF (or a reset) means the peer is gone;
    /// a would-block read, or pending bytes (a pipelined request, the next
    /// utterance), means it is still there.
    pub fn client_gone(&mut self) -> bool {
        self.failed |= peer_hung_up(self.stream);
        self.failed
    }
}

/// Nonblocking 1-byte peek: has the peer closed (EOF) or reset? Incoming
/// data and a would-block both mean the peer is still there.
fn peer_hung_up(stream: &mut TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Send a chunked streaming response: status line + headers, then each
/// line as the handler produces it, then the terminal zero-length chunk.
/// Returns the body bytes successfully written and whether the response
/// completed (terminal chunk delivered) so the connection may be reused.
fn write_streaming(
    stream: &mut TcpStream,
    status: u16,
    status_text: &str,
    body: StreamBody,
    keep: bool,
) -> (u64, bool) {
    let conn = if keep { "keep-alive" } else { "close" };
    let header = format!(
        "HTTP/1.1 {status} {status_text}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: {conn}\r\n\r\n"
    );
    if stream.write_all(header.as_bytes()).and_then(|()| stream.flush()).is_err() {
        return (0, false);
    }
    let mut sink = LineSink { stream, chunked: true, bytes_out: 0, failed: false };
    body(&mut sink);
    let complete = !sink.failed && sink.stream.write_all(b"0\r\n\r\n").is_ok();
    (sink.bytes_out, complete)
}

/// Serialize a plain (non-streaming) response with the given connection
/// disposition.
fn response_bytes(response: &Response, keep: bool) -> Vec<u8> {
    // Overloaded / shutting-down responses invite a quick retry.
    let retry = if response.status == 503 { "Retry-After: 1\r\n" } else { "" };
    let conn = if keep { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n{}\r\n{}",
        response.status,
        response.status_text(),
        response.body.len(),
        conn,
        retry,
        response.body
    )
    .into_bytes()
}

fn write_response(stream: &mut TcpStream, response: &Response, keep: bool) -> std::io::Result<()> {
    stream.write_all(&response_bytes(response, keep))
}

/// Tuning knobs for the serving layer (the server's `--http-*` flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fixed worker-pool size.
    pub threads: usize,
    /// Bounded queue capacity between the reactor and the workers;
    /// requests beyond it are answered `503` + `Retry-After`.
    pub queue: usize,
    /// A connection mid-request (bytes expected) that goes silent for
    /// this long gets a `408`.
    pub read_timeout: Duration,
    /// Per-write socket timeout while a worker owns the connection.
    pub write_timeout: Duration,
    /// Emit one structured log line per request to stderr.
    pub log_requests: bool,
    /// Parked keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Upgraded session connections idle longer than this are reaped
    /// (a `bye` event is sent best-effort first).
    pub session_idle_timeout: Duration,
    /// Interval between server heartbeat events on parked session
    /// connections.
    pub heartbeat: Duration,
    /// Hard cap on concurrently open connections; beyond it new sockets
    /// get a best-effort `503` and are closed immediately.
    pub max_connections: usize,
    /// Total time budget for writing a reactor-side error/rejection
    /// response *and* the lingering close that follows — slow readers
    /// are cut off at this deadline instead of stalling the reactor.
    pub reject_linger: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 8,
            queue: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            log_requests: false,
            idle_timeout: Duration::from_secs(30),
            session_idle_timeout: Duration::from_secs(120),
            heartbeat: Duration::from_secs(15),
            max_connections: 200_000,
            reject_linger: Duration::from_millis(500),
        }
    }
}

impl ServerConfig {
    /// Set both socket timeouts from one `--http-timeout-ms` value.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout = Duration::from_millis(ms.max(1));
        self.write_timeout = self.read_timeout;
        self
    }
}

/// Declares the serving counters once: the shared atomic block, its
/// plain-integer snapshot and the `"http"` object of `GET /stats` are all
/// generated from this one list. `=> "key" / d` renames a counter in
/// `/stats` and divides it (the two microsecond totals are served in ms).
macro_rules! http_counters {
    ($($(#[$doc:meta])* $name:ident $(=> $key:literal / $div:literal)?,)*) => {
        /// Monotonic serving-layer counters, shared between the server and
        /// whoever renders `GET /stats`. All updates are relaxed atomics —
        /// the counters are observability, not synchronization.
        #[derive(Debug, Default)]
        pub struct HttpMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A plain-integer copy of [`HttpMetrics`] at one point in time.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct HttpMetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl HttpMetrics {
            /// Read every counter (relaxed; values are monotonic but
            /// mutually unsynchronized).
            pub fn snapshot(&self) -> HttpMetricsSnapshot {
                HttpMetricsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }

        impl HttpMetricsSnapshot {
            /// The `"http"` object of `GET /stats`.
            pub fn to_json(&self) -> Value {
                Value::obj([$(http_counters!(@field self $name $($key $div)?),)*])
            }
        }
    };
    (@field $s:ident $name:ident) => {
        (stringify!($name), $s.$name.into())
    };
    (@field $s:ident $name:ident $key:literal $div:literal) => {
        ($key, ($s.$name as f64 / $div).into())
    };
}

http_counters! {
    /// Connections accepted and parked in the reactor.
    accepted,
    /// Requests answered `503` (queue full, connection cap, shutdown).
    rejected,
    /// Requests successfully parsed and dispatched to the handler.
    requests,
    /// Responses by status class (1xx/2xx count together).
    responses_2xx,
    /// 4xx responses (including parse rejections and timeouts).
    responses_4xx,
    /// 5xx responses (including panics and admission rejections).
    responses_5xx,
    /// Connections answered `408` after a read deadline expired.
    timeouts,
    /// Handler panics converted into `500`s (or session error events).
    panics,
    /// Requests rejected at the parsing layer (`400`/`413`/`431`).
    parse_errors,
    /// Connections dropped on unrecoverable I/O errors (no response sent).
    io_errors,
    /// Rejection/error responses whose write failed or timed out before
    /// the client got the bytes (the connection was closed at the linger
    /// deadline).
    reject_write_failures,
    /// Follow-up requests served on a reused keep-alive connection.
    keepalive_reuses,
    /// Connections upgraded to long-lived NDJSON sessions.
    sessions_opened,
    /// Session connections closed (any reason).
    sessions_closed,
    /// NDJSON lines received from session clients.
    session_lines,
    /// Heartbeat events written to parked sessions.
    heartbeats_sent,
    /// Connections reaped by the idle sweeps (keep-alive + session).
    idle_closed,
    /// Request body bytes read.
    bytes_in,
    /// Response body bytes written.
    bytes_out,
    /// Total time requests spent queued, in microseconds.
    queue_wait_us => "queue_wait_ms_total" / 1e3,
    /// Total time spent handling + responding, in microseconds.
    handle_us => "handler_ms_total" / 1e3,
    /// Shared-state locks (job queue, return lane) found poisoned or torn
    /// and rebuilt by the next locker instead of crashing the pool.
    poison_recoveries,
}

impl HttpMetrics {
    /// A fresh, shareable counter block.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn count_status(&self, status: u16) {
        let class = match status {
            100..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        Self::add(class, 1);
    }
}

// ---------------------------------------------------------------------------
// Incremental request parsing (reactor side).

/// Outcome of trying to parse one request from the accumulated bytes.
enum Parsed {
    /// Not enough bytes yet.
    NeedMore,
    /// One complete request; `consumed` bytes of the buffer were used.
    Request { req: Request, consumed: usize },
    /// Malformed request — answer `status` and close.
    Error { status: u16, message: &'static str },
}

/// Find the end of the header section (index just past the first blank
/// line). Both CRLF and bare-LF framing are tolerated, like the old line
/// reader — and whichever blank line comes first ends the head, so bytes
/// after this request (a pipelined one) never move its boundary.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut at = 0;
    while let Some(lf) = buf[at..].iter().position(|&b| b == b'\n') {
        at += lf + 1;
        match &buf[at..] {
            [b'\n', ..] => return Some(at + 1),
            [b'\r', b'\n', ..] => return Some(at + 2),
            _ => {}
        }
    }
    None
}

/// Incremental HTTP/1.1 request parser over the reactor's per-connection
/// buffer. Framing rules match the §10 parser: capped header section,
/// strict `Content-Length` validation, oversized bodies rejected without
/// being read.
fn parse_request(buf: &[u8]) -> Parsed {
    let Some(head_len) = head_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Parsed::Error { status: 431, message: "headers too large" };
        }
        return Parsed::NeedMore;
    };
    if head_len > MAX_HEADER_BYTES {
        return Parsed::Error { status: 431, message: "headers too large" };
    }
    let head = String::from_utf8_lossy(&buf[..head_len]);
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Parsed::Error { status: 400, message: "malformed request line" };
    };
    let path = target.split('?').next().unwrap_or(target).to_string();
    let method = method.to_string();

    let mut content_length: Option<usize> = None;
    let mut keep_alive = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.trim().parse::<usize>() else {
                return Parsed::Error { status: 400, message: "invalid Content-Length" };
            };
            // Identical repeats are tolerated; conflicting values would
            // desynchronize body framing — reject them.
            if content_length.is_some_and(|prev| prev != n) {
                return Parsed::Error {
                    status: 400,
                    message: "conflicting Content-Length headers",
                };
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive |= value.to_ascii_lowercase().contains("keep-alive");
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Parsed::Error { status: 413, message: "request body too large" };
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Parsed::NeedMore;
    }
    let body = buf[head_len..total].to_vec();
    Parsed::Request { req: Request { method, path, body, keep_alive }, consumed: total }
}

// ---------------------------------------------------------------------------
// Reactor ↔ worker plumbing.

/// Context of an upgraded session connection, carried with the
/// connection as it bounces between reactor and workers.
#[derive(Clone)]
struct SessionCtx {
    id: Arc<str>,
    on_line: SessionCallback,
    on_close: Arc<dyn Fn(&str) + Send + Sync>,
}

impl SessionCtx {
    /// Fire the close notification (idempotence is the caller's duty —
    /// each connection reaches exactly one close site by construction).
    fn closed(&self, metrics: &HttpMetrics) {
        HttpMetrics::add(&metrics.sessions_closed, 1);
        (self.on_close)(&self.id);
    }
}

/// The shutdown farewell, and the close site of every session connection
/// still attached when `stop` flips — wherever it is at that moment: a
/// reactor slot (`Reactor::teardown`), the return channel
/// (`Reactor::drain_returns`, or `shutdown_within` once the reactor is
/// gone), or the job queue (`reject_late`). A worker holding the socket
/// parks it as usual, which lands it in the return channel.
fn farewell(mut stream: &TcpStream, ctx: &SessionCtx, metrics: &HttpMetrics) {
    let _ = stream.write_all(b"{\"type\":\"bye\",\"reason\":\"shutdown\"}\n");
    ctx.closed(metrics);
}

/// A unit of work for the pool.
enum Job {
    Request(RequestJob),
    SessionLine(SessionLineJob),
}

struct RequestJob {
    stream: TcpStream,
    req: Request,
    queued_at: Instant,
    /// Bytes past the parsed request (pipelined follow-ups) that must
    /// survive the round-trip through the worker.
    leftover: Vec<u8>,
    /// Requests previously served on this connection (keep-alive reuse).
    served: u64,
}

struct SessionLineJob {
    stream: TcpStream,
    ctx: SessionCtx,
    line: String,
    queued_at: Instant,
    leftover: Vec<u8>,
}

/// A connection a worker hands back to the reactor for further requests.
struct Returned {
    stream: TcpStream,
    mode: Mode,
    leftover: Vec<u8>,
    served: u64,
}

/// State shared between the reactor, the workers, and the handle.
struct Shared {
    queue: RecoveringMutex<VecDeque<Job>>,
    /// Signaled when work is pushed (workers wait here).
    ready: Condvar,
    /// Signaled when the queue becomes empty (shutdown drains wait here —
    /// no busy-polling).
    drained: Condvar,
    stop: AtomicBool,
    /// Connections coming back from workers for keep-alive / session
    /// parking; the reactor drains this after every `notify`.
    returns: RecoveringMutex<Vec<Returned>>,
    poller: Poller,
    config: ServerConfig,
    metrics: Arc<HttpMetrics>,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        // Handlers run under catch_unwind and the lock is never held
        // across them, so poisoning should be unreachable; if a holder
        // dies anyway, the torn queue is dropped (each pending connection
        // closes, clients see a reset and retry) and the pool keeps
        // serving — counted, not fatal.
        self.queue.lock_recovering(|q| {
            q.clear();
            HttpMetrics::add(&self.metrics.poison_recoveries, 1);
        })
    }

    fn lock_returns(&self) -> std::sync::MutexGuard<'_, Vec<Returned>> {
        self.returns.lock_recovering(|r| {
            r.clear();
            HttpMetrics::add(&self.metrics.poison_recoveries, 1);
        })
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Hand a connection back to the reactor.
    fn park(&self, conn: Returned) {
        self.lock_returns().push(conn);
        self.poller.notify();
    }
}

// ---------------------------------------------------------------------------
// The reactor: connection slab and state machines.

/// Token carried in epoll events: slot index in the low 32 bits, a
/// generation counter in the high 32 so stale events for a recycled slot
/// are ignored.
fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Per-connection phase within the reactor.
enum Phase {
    /// Accumulating request bytes (HTTP) or an utterance line (session).
    Read,
    /// Writing a reactor-generated response (errors, rejections); when
    /// the write completes the connection moves to a lingering close.
    Write { out: Vec<u8>, pos: usize, deadline: Instant, is_reject: bool },
    /// Write half shut; draining client bytes so the close is a FIN the
    /// client can read the response through, not an RST.
    Linger { deadline: Instant },
}

/// How a parked connection speaks.
enum Mode {
    Http,
    Session { ctx: SessionCtx, last_heartbeat: Instant },
}

struct Slot {
    stream: TcpStream,
    gen: u32,
    buf: Vec<u8>,
    phase: Phase,
    mode: Mode,
    last_activity: Instant,
    served: u64,
    interest: Interest,
}

struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    slots: Vec<Option<Slot>>,
    /// Generation counter per slot index (incremented whenever a slot is
    /// vacated) so stale epoll events for a recycled slot are ignored.
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

/// One step of the nonblocking write state machine (computed under the
/// slot borrow, acted on after it ends).
enum WriteStep {
    Done { linger_deadline: Instant },
    WouldBlock,
    Fail { is_reject: bool },
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let _ = self.shared.poller.wait(&mut events, Some(TICK));
            if self.shared.stopped() {
                break;
            }
            let harvested = std::mem::take(&mut events);
            for ev in &harvested {
                if ev.token == LISTENER_TOKEN {
                    self.accept_burst();
                } else {
                    self.drive(*ev);
                }
            }
            events = harvested;
            self.drain_returns();
            self.sweep_deadlines();
        }
        self.teardown();
    }

    /// Accept every pending connection (the listener is level-triggered,
    /// but draining the backlog per wakeup keeps accept latency flat).
    fn accept_burst(&mut self) {
        let shared = Arc::clone(&self.shared);
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    // Every event is written and flushed on its own. With
                    // Nagle on, a line that follows another within the
                    // peer's delayed-ACK window (the preamble right behind
                    // the response head on a reused connection) would sit
                    // in the kernel for ~40 ms.
                    let _ = stream.set_nodelay(true);
                    if self.live >= shared.config.max_connections {
                        // No slot capacity: best-effort immediate 503,
                        // never blocking the accept path.
                        HttpMetrics::add(&shared.metrics.rejected, 1);
                        shared.metrics.count_status(503);
                        let mut s = stream;
                        let response = Response::error(503, "server at connection capacity");
                        if s.write_all(&response_bytes(&response, false)).is_err() {
                            HttpMetrics::add(&shared.metrics.reject_write_failures, 1);
                        }
                        let _ = s.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    HttpMetrics::add(&shared.metrics.accepted, 1);
                    self.insert(stream, Mode::Http, Vec::new(), 0);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Park a connection in the slab with read interest and immediately
    /// try to parse any carried-over bytes (level-triggered epoll won't
    /// re-report bytes that already sit in our buffer).
    fn insert(&mut self, stream: TcpStream, mode: Mode, leftover: Vec<u8>, served: u64) {
        let shared = Arc::clone(&self.shared);
        let _ = stream.set_nonblocking(true);
        let has_buffered = !leftover.is_empty();
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if idx >= self.gens.len() {
            self.gens.resize(idx + 1, 0);
        }
        let gen = self.gens[idx];
        let fd = stream.as_raw_fd();
        let slot = Slot {
            stream,
            gen,
            buf: leftover,
            phase: Phase::Read,
            mode,
            last_activity: Instant::now(),
            served,
            interest: Interest::Read,
        };
        if shared.poller.add(fd, token_of(idx, gen), Interest::Read).is_err() {
            // Registration failure (fd-table churn): drop the connection.
            if let Mode::Session { ctx, .. } = &slot.mode {
                ctx.closed(&shared.metrics);
            }
            self.free.push(idx);
            return;
        }
        self.slots[idx] = Some(slot);
        self.live += 1;
        if has_buffered {
            self.advance_read(idx);
        }
    }

    fn close_slot(&mut self, idx: usize) {
        if let Some(slot) = self.slots[idx].take() {
            self.shared.poller.remove(slot.stream.as_raw_fd());
            if let Mode::Session { ctx, .. } = &slot.mode {
                ctx.closed(&self.shared.metrics);
            }
            self.free.push(idx);
            self.live -= 1;
            self.gens[idx] = self.gens[idx].wrapping_add(1);
        }
    }

    /// Remove the slot for dispatch to a worker, deregistering the fd but
    /// keeping the stream alive (it travels with the job).
    fn take_for_dispatch(&mut self, idx: usize) -> Option<Slot> {
        let slot = self.slots[idx].take()?;
        self.shared.poller.remove(slot.stream.as_raw_fd());
        self.free.push(idx);
        self.live -= 1;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        Some(slot)
    }

    fn drive(&mut self, ev: Event) {
        enum Kind {
            Read,
            Write { is_reject: bool },
            Linger,
        }
        let idx = (ev.token & 0xFFFF_FFFF) as usize;
        let gen = (ev.token >> 32) as u32;
        let kind = {
            let Some(slot) = self.slots.get(idx).and_then(|s| s.as_ref()) else { return };
            if slot.gen != gen {
                return; // stale event for a recycled slot
            }
            match &slot.phase {
                Phase::Read => Kind::Read,
                Phase::Write { is_reject, .. } => Kind::Write { is_reject: *is_reject },
                Phase::Linger { .. } => Kind::Linger,
            }
        };
        if ev.error {
            // Peer reset: a rejection in flight counts as an undelivered
            // write; everything closes.
            if let Kind::Write { is_reject: true } = kind {
                HttpMetrics::add(&self.shared.metrics.reject_write_failures, 1);
            }
            self.close_slot(idx);
            return;
        }
        match kind {
            Kind::Read if ev.readable => self.advance_read(idx),
            Kind::Write { .. } if ev.writable || ev.readable => self.advance_write(idx),
            Kind::Linger if ev.readable => self.advance_linger(idx),
            _ => {}
        }
    }

    /// Pull available bytes into the buffer; returns `(eof, io_error)`.
    fn fill_buf(&mut self, idx: usize) -> (bool, bool) {
        let Some(slot) = self.slots[idx].as_mut() else { return (false, true) };
        let mut tmp = [0u8; 4096];
        loop {
            if slot.buf.len() > MAX_HEADER_BYTES + MAX_BODY + 4096 {
                return (false, false); // hard cap; the parser will reject
            }
            match slot.stream.read(&mut tmp) {
                Ok(0) => return (true, false),
                Ok(n) => {
                    slot.buf.extend_from_slice(&tmp[..n]);
                    slot.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return (false, false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, true),
            }
        }
    }

    fn advance_read(&mut self, idx: usize) {
        let (eof, io_error) = self.fill_buf(idx);
        let (mid_request, is_session) = {
            let Some(slot) = self.slots[idx].as_ref() else { return };
            (!slot.buf.is_empty(), matches!(slot.mode, Mode::Session { .. }))
        };
        if io_error {
            if mid_request {
                HttpMetrics::add(&self.shared.metrics.io_errors, 1);
            }
            self.close_slot(idx);
            return;
        }
        if is_session {
            self.advance_session_read(idx, eof);
        } else {
            self.advance_http_read(idx, eof);
        }
    }

    fn advance_http_read(&mut self, idx: usize, eof: bool) {
        let shared = Arc::clone(&self.shared);
        let parsed = {
            let Some(slot) = self.slots[idx].as_ref() else { return };
            parse_request(&slot.buf)
        };
        match parsed {
            Parsed::NeedMore => {
                if eof {
                    let (empty, headers_done) = {
                        let Some(slot) = self.slots[idx].as_ref() else { return };
                        (slot.buf.is_empty(), head_end(&slot.buf).is_some())
                    };
                    if empty {
                        // Clean close (end of a keep-alive run, or a
                        // connect-and-leave probe): nothing to answer.
                        self.close_slot(idx);
                    } else {
                        // The client half-closed mid-request: answer the
                        // framing error — a shut write half still reads.
                        HttpMetrics::add(&shared.metrics.parse_errors, 1);
                        let message = if headers_done {
                            "truncated request body"
                        } else {
                            "truncated headers"
                        };
                        self.respond_error(idx, Response::error(400, message), false);
                    }
                }
                // else: keep reading.
            }
            Parsed::Error { status, message } => {
                HttpMetrics::add(&shared.metrics.parse_errors, 1);
                self.respond_error(idx, Response::error(status, message), false);
            }
            Parsed::Request { req, consumed } => {
                let (leftover, served) = {
                    let Some(slot) = self.slots[idx].as_mut() else { return };
                    let leftover = slot.buf.split_off(consumed);
                    slot.buf.clear();
                    (leftover, slot.served)
                };
                if served > 0 {
                    HttpMetrics::add(&shared.metrics.keepalive_reuses, 1);
                }
                // Admission control: a full queue answers 503 through the
                // reactor's nonblocking write path, never a worker.
                let admitted = {
                    let mut q = shared.lock_queue();
                    if q.len() >= shared.config.queue {
                        false
                    } else {
                        let Some(slot) = self.take_for_dispatch(idx) else { return };
                        q.push_back(Job::Request(RequestJob {
                            stream: slot.stream,
                            req,
                            queued_at: Instant::now(),
                            leftover,
                            served,
                        }));
                        true
                    }
                };
                if admitted {
                    shared.ready.notify_one();
                } else {
                    HttpMetrics::add(&shared.metrics.rejected, 1);
                    shared.metrics.count_status(503);
                    self.respond_error(
                        idx,
                        Response::error(503, "server overloaded, retry shortly"),
                        true,
                    );
                }
            }
        }
    }

    fn advance_session_read(&mut self, idx: usize, eof: bool) {
        let shared = Arc::clone(&self.shared);
        let line = {
            let Some(slot) = self.slots[idx].as_mut() else { return };
            match slot.buf.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let rest = slot.buf.split_off(nl + 1);
                    let mut line_bytes = std::mem::replace(&mut slot.buf, rest);
                    line_bytes.pop(); // trailing \n
                    if line_bytes.last() == Some(&b'\r') {
                        line_bytes.pop();
                    }
                    Some(String::from_utf8_lossy(&line_bytes).into_owned())
                }
                None => None,
            }
        };
        let Some(line) = line else {
            let too_long = self.slots[idx].as_ref().is_some_and(|s| s.buf.len() > MAX_SESSION_LINE);
            if too_long || eof {
                // A line that never ends is a protocol violation; EOF is
                // the client hanging up. Either way the session is over.
                self.close_slot(idx);
            }
            return;
        };
        HttpMetrics::add(&shared.metrics.session_lines, 1);
        let Some(slot) = self.take_for_dispatch(idx) else { return };
        let Mode::Session { ctx, .. } = slot.mode else { return };
        shared.lock_queue().push_back(Job::SessionLine(SessionLineJob {
            stream: slot.stream,
            ctx,
            line,
            queued_at: Instant::now(),
            leftover: slot.buf,
        }));
        shared.ready.notify_one();
    }

    /// Begin a reactor-side response (error or rejection): nonblocking
    /// write with a hard deadline, then a deadline-bounded lingering
    /// close. Never blocks the reactor thread.
    fn respond_error(&mut self, idx: usize, response: Response, is_reject: bool) {
        if !is_reject {
            self.shared.metrics.count_status(response.status);
        }
        let out = response_bytes(&response, false);
        let deadline = Instant::now() + self.shared.config.reject_linger;
        if let Some(slot) = self.slots[idx].as_mut() {
            slot.phase = Phase::Write { out, pos: 0, deadline, is_reject };
        }
        self.advance_write(idx);
    }

    fn advance_write(&mut self, idx: usize) {
        let step = loop {
            let Some(slot) = self.slots[idx].as_mut() else { return };
            let Phase::Write { out, pos, deadline, is_reject } = &mut slot.phase else {
                return;
            };
            if *pos >= out.len() {
                break WriteStep::Done { linger_deadline: *deadline };
            }
            match slot.stream.write(&out[*pos..]) {
                Ok(0) => break WriteStep::Fail { is_reject: *is_reject },
                Ok(n) => *pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break WriteStep::WouldBlock,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break WriteStep::Fail { is_reject: *is_reject },
            }
        };
        match step {
            WriteStep::WouldBlock => self.arm(idx, Interest::Write),
            WriteStep::Fail { is_reject } => {
                if is_reject {
                    HttpMetrics::add(&self.shared.metrics.reject_write_failures, 1);
                }
                self.close_slot(idx);
            }
            WriteStep::Done { linger_deadline } => {
                if let Some(slot) = self.slots[idx].as_mut() {
                    let _ = slot.stream.shutdown(std::net::Shutdown::Write);
                    slot.phase = Phase::Linger { deadline: linger_deadline };
                }
                self.arm(idx, Interest::Read);
                self.advance_linger(idx);
            }
        }
    }

    fn advance_linger(&mut self, idx: usize) {
        let done = {
            let Some(slot) = self.slots[idx].as_mut() else { return };
            let mut tmp = [0u8; 1024];
            loop {
                match slot.stream.read(&mut tmp) {
                    Ok(0) => break true,
                    Ok(_) => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            }
        };
        if done {
            self.close_slot(idx);
        }
    }

    /// Re-arm epoll interest if it changed.
    fn arm(&mut self, idx: usize, interest: Interest) {
        let shared = Arc::clone(&self.shared);
        let Some(slot) = self.slots[idx].as_mut() else { return };
        if slot.interest == interest {
            return;
        }
        let fd = slot.stream.as_raw_fd();
        let token = token_of(idx, slot.gen);
        if shared.poller.modify(fd, token, interest).is_ok() {
            slot.interest = interest;
        }
    }

    /// Reinsert connections handed back by workers.
    fn drain_returns(&mut self) {
        let returned: Vec<Returned> = std::mem::take(&mut *self.shared.lock_returns());
        for conn in returned {
            if self.shared.stopped() {
                if let Mode::Session { ctx, .. } = &conn.mode {
                    farewell(&conn.stream, ctx, &self.shared.metrics);
                }
                continue;
            }
            self.insert(conn.stream, conn.mode, conn.leftover, conn.served);
        }
    }

    /// Time-based transitions: read timeouts, keep-alive idling, session
    /// heartbeats and reaping, write/linger deadlines.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let read_timeout = self.shared.config.read_timeout;
        let idle_timeout = self.shared.config.idle_timeout;
        let session_idle = self.shared.config.session_idle_timeout;
        let heartbeat = self.shared.config.heartbeat;
        let metrics = Arc::clone(&self.shared.metrics);

        enum Action {
            Timeout408,
            CloseIdle,
            CloseSilent,
            CloseReject,
            SessionReap,
            Heartbeat,
        }
        let mut actions: Vec<(usize, Action)> = Vec::new();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            match &slot.phase {
                Phase::Read => match &mut slot.mode {
                    Mode::Http => {
                        // A fresh connection or one with a partial request
                        // buffered is "mid-request" (408 on stall); a
                        // parked keep-alive connection idles out silently.
                        let mid_request = !slot.buf.is_empty() || slot.served == 0;
                        if mid_request && now >= slot.last_activity + read_timeout {
                            actions.push((idx, Action::Timeout408));
                        } else if !mid_request && now >= slot.last_activity + idle_timeout {
                            actions.push((idx, Action::CloseIdle));
                        }
                    }
                    Mode::Session { last_heartbeat, .. } => {
                        if now >= slot.last_activity + session_idle {
                            actions.push((idx, Action::SessionReap));
                        } else if now >= *last_heartbeat + heartbeat {
                            *last_heartbeat = now;
                            actions.push((idx, Action::Heartbeat));
                        }
                    }
                },
                Phase::Write { deadline, is_reject, .. } => {
                    if now >= *deadline {
                        actions.push((
                            idx,
                            if *is_reject { Action::CloseReject } else { Action::CloseSilent },
                        ));
                    }
                }
                Phase::Linger { deadline } => {
                    if now >= *deadline {
                        actions.push((idx, Action::CloseSilent));
                    }
                }
            }
        }
        for (idx, action) in actions {
            match action {
                Action::Timeout408 => {
                    HttpMetrics::add(&metrics.timeouts, 1);
                    self.respond_error(idx, Response::error(408, "request timed out"), false);
                }
                Action::CloseIdle => {
                    HttpMetrics::add(&metrics.idle_closed, 1);
                    self.close_slot(idx);
                }
                Action::CloseSilent => self.close_slot(idx),
                Action::CloseReject => {
                    HttpMetrics::add(&metrics.reject_write_failures, 1);
                    self.close_slot(idx);
                }
                Action::SessionReap => {
                    HttpMetrics::add(&metrics.idle_closed, 1);
                    if let Some(slot) = self.slots[idx].as_mut() {
                        let _ = slot.stream.write_all(b"{\"type\":\"bye\",\"reason\":\"idle\"}\n");
                    }
                    self.close_slot(idx);
                }
                Action::Heartbeat => {
                    let beat = b"{\"type\":\"heartbeat\"}\n";
                    let wrote = {
                        let Some(slot) = self.slots[idx].as_mut() else { continue };
                        slot.stream.write(beat)
                    };
                    match wrote {
                        Ok(n) if n == beat.len() => {
                            HttpMetrics::add(&metrics.heartbeats_sent, 1);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            // Send buffer full: skip this beat; the idle
                            // reaper handles a client that never drains.
                        }
                        // A partial write would corrupt NDJSON framing and
                        // only happens with an undrained send buffer —
                        // treat it like a dead peer.
                        Ok(_) | Err(_) => self.close_slot(idx),
                    }
                }
            }
        }
    }

    fn teardown(&mut self) {
        for idx in 0..self.slots.len() {
            // Vacating the slot closes a plain HTTP connection by drop.
            if let Some(Slot { stream, mode: Mode::Session { ctx, .. }, .. }) =
                self.take_for_dispatch(idx)
            {
                farewell(&stream, &ctx, &self.shared.metrics);
            }
        }
        // Connections still parked in the return channel when the reactor
        // exits are farewelled by shutdown_within after workers join.
    }
}

// ---------------------------------------------------------------------------
// Workers.

fn worker_loop<F>(shared: &Shared, handler: &F)
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    if queue.is_empty() {
                        shared.drained.notify_all();
                    }
                    break Some(job);
                }
                if shared.stopped() {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(queue, WORKER_POLL)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        match job {
            Some(Job::Request(job)) => handle_request(job, shared, handler),
            Some(Job::SessionLine(job)) => handle_session_line(job, shared),
            None => return,
        }
    }
}

fn handle_request<F>(job: RequestJob, shared: &Shared, handler: &F)
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    let RequestJob { mut stream, req, queued_at, leftover, served } = job;
    let metrics = &shared.metrics;
    let config = &shared.config;
    let queue_wait = queued_at.elapsed();
    HttpMetrics::add(&metrics.queue_wait_us, queue_wait.as_micros() as u64);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));

    let started = Instant::now();
    HttpMetrics::add(&metrics.requests, 1);
    HttpMetrics::add(&metrics.bytes_in, req.body.len() as u64);
    let mut response = match catch_unwind(AssertUnwindSafe(|| handler(&req))) {
        Ok(response) => response,
        Err(_) => {
            HttpMetrics::add(&metrics.panics, 1);
            Response::error(500, "internal server error")
        }
    };

    // Session upgrade: handshake, greet, park as a session connection.
    if let Some(upgrade) = response.session.take() {
        metrics.count_status(101);
        let mut handshake = String::from(
            "HTTP/1.1 101 Switching Protocols\r\nUpgrade: voxolap-session\r\nConnection: Upgrade\r\n\r\n",
        );
        if let Some(hello) = &upgrade.hello {
            handshake.push_str(hello);
            if !hello.ends_with('\n') {
                handshake.push('\n');
            }
        }
        let ctx = SessionCtx {
            id: Arc::from(upgrade.id.as_str()),
            on_line: upgrade.on_line,
            on_close: upgrade.on_close,
        };
        if stream.write_all(handshake.as_bytes()).and_then(|()| stream.flush()).is_err() {
            HttpMetrics::add(&metrics.io_errors, 1);
            ctx.closed(metrics);
            return;
        }
        HttpMetrics::add(&metrics.bytes_out, handshake.len() as u64);
        HttpMetrics::add(&metrics.sessions_opened, 1);
        shared.park(Returned {
            stream,
            mode: Mode::Session { ctx, last_heartbeat: Instant::now() },
            leftover,
            served: served + 1,
        });
        return;
    }

    metrics.count_status(response.status);
    // Keep-alive only when the client asked and the response isn't a
    // serving-layer failure.
    let keep = req.keep_alive && !shared.stopped() && response.status < 500;
    let mut bytes_out = 0u64;
    let mut reusable = keep;
    match response.stream.take() {
        Some(body_fn) => {
            let (bytes, complete) = write_streaming(
                &mut stream,
                response.status,
                response.status_text(),
                body_fn,
                keep,
            );
            bytes_out = bytes;
            HttpMetrics::add(&metrics.bytes_out, bytes_out);
            reusable &= complete;
        }
        None => match write_response(&mut stream, &response, keep) {
            Ok(()) => {
                bytes_out = response.body.len() as u64;
                HttpMetrics::add(&metrics.bytes_out, bytes_out);
            }
            Err(_) => {
                HttpMetrics::add(&metrics.io_errors, 1);
                reusable = false;
            }
        },
    }
    let handle = started.elapsed();
    HttpMetrics::add(&metrics.handle_us, handle.as_micros() as u64);
    if config.log_requests {
        eprintln!(
            "http method={} path={} status={} bytes_in={} bytes_out={} queue_ms={:.2} handler_ms={:.2} reused={}",
            req.method,
            req.path,
            response.status,
            req.body.len(),
            bytes_out,
            queue_wait.as_secs_f64() * 1e3,
            handle.as_secs_f64() * 1e3,
            served > 0,
        );
    }
    if reusable {
        shared.park(Returned { stream, mode: Mode::Http, leftover, served: served + 1 });
    }
    // else: drop → close. Handler responses are fully framed, so a plain
    // close (no linger) is correct here; linger is for the error paths
    // where the request body may still be in flight.
}

fn handle_session_line(job: SessionLineJob, shared: &Shared) {
    let SessionLineJob { mut stream, ctx, line, queued_at, leftover } = job;
    let metrics = &shared.metrics;
    HttpMetrics::add(&metrics.queue_wait_us, queued_at.elapsed().as_micros() as u64);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));

    if line.is_empty() {
        // Blank keep-alive line: just park again.
        shared.park(Returned {
            stream,
            mode: Mode::Session { ctx, last_heartbeat: Instant::now() },
            leftover,
            served: 0,
        });
        return;
    }

    let mut sink = LineSink { stream: &mut stream, chunked: false, bytes_out: 0, failed: false };
    let verdict = match catch_unwind(AssertUnwindSafe(|| (ctx.on_line)(&line, &mut sink))) {
        Ok(v) => v,
        Err(_) => {
            HttpMetrics::add(&metrics.panics, 1);
            sink.send_line("{\"type\":\"error\",\"message\":\"internal error\"}");
            SessionVerdict::Continue
        }
    };
    let failed = sink.failed;
    HttpMetrics::add(&metrics.bytes_out, sink.bytes_out);

    if verdict == SessionVerdict::Continue && !failed {
        shared.park(Returned {
            stream,
            mode: Mode::Session { ctx, last_heartbeat: Instant::now() },
            leftover,
            served: 0,
        });
    } else {
        ctx.closed(metrics);
    }
}

// ---------------------------------------------------------------------------
// Handle, serve, shutdown.

/// Handle to a running server: its bound address, metrics, and shutdown.
pub struct ServerHandle {
    /// The address the listener bound (useful with port 0).
    pub addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    metrics: Arc<HttpMetrics>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The serving-layer counters for this server.
    pub fn metrics(&self) -> Arc<HttpMetrics> {
        self.metrics.clone()
    }

    /// Gracefully stop with a 5-second drain deadline.
    pub fn shutdown(self) {
        self.shutdown_within(Duration::from_secs(5));
    }

    /// Stop accepting, let workers drain queued requests until `drain`
    /// elapses, then answer whatever is still queued with a `503` — each
    /// admitted request is answered exactly once (workers pop and the
    /// late drain both run under the queue lock; the drain waits on a
    /// condvar the workers signal, no polling).
    pub fn shutdown_within(mut self, drain: Duration) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.poller.notify();
        self.shared.ready.notify_all();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join(); // bounded by TICK
        }
        let deadline = Instant::now() + drain;
        let stale: Vec<Job> = {
            let mut queue = self.shared.lock_queue();
            loop {
                if queue.is_empty() {
                    break Vec::new();
                }
                let now = Instant::now();
                if now >= deadline {
                    break queue.drain(..).collect();
                }
                let (guard, _) = self
                    .shared
                    .drained
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        for job in stale {
            reject_late(job, &self.shared);
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join(); // workers exit once stopped and drained
        }
        // Connections workers handed back after the reactor exited.
        for conn in self.shared.lock_returns().drain(..) {
            if let Mode::Session { ctx, .. } = &conn.mode {
                farewell(&conn.stream, ctx, &self.metrics);
            }
        }
    }
}

/// Answer a request that was still queued when the drain deadline fired.
/// Blocking writes with short timeouts are fine here: shutdown runs on
/// the caller's thread, not the reactor.
fn reject_late(job: Job, shared: &Shared) {
    let metrics = &shared.metrics;
    match job {
        Job::Request(job) => {
            HttpMetrics::add(&metrics.rejected, 1);
            metrics.count_status(503);
            let mut stream = job.stream;
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            let response = Response::error(503, "server shutting down");
            if write_response(&mut stream, &response, false).is_err() {
                HttpMetrics::add(&metrics.reject_write_failures, 1);
                return;
            }
            linger_close(stream, Instant::now() + shared.config.reject_linger);
        }
        Job::SessionLine(job) => {
            let stream = job.stream;
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            farewell(&stream, &job.ctx, metrics);
        }
    }
}

/// Close the write half and drain whatever the client already sent until
/// EOF or `deadline`, so closing a socket with unread input yields a FIN
/// the client can read the response through, not an RST. The total time
/// is bounded by `deadline` regardless of how slowly the client dribbles.
fn linger_close(mut stream: TcpStream, deadline: Instant) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let _ = stream.set_read_timeout(Some((deadline - now).min(Duration::from_millis(100))));
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
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

/// Start serving on `addr` (e.g. `"127.0.0.1:0"`): a reactor thread
/// multiplexes all connections over epoll and dispatches parsed requests
/// to a fixed pool of `config.threads` workers through a bounded queue.
/// Returns once the listener is bound; all threads run in the background
/// until [`ServerHandle::shutdown`].
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
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let poller = Poller::new()?;
    let shared = Arc::new(Shared {
        queue: RecoveringMutex::new(VecDeque::new()),
        ready: Condvar::new(),
        drained: Condvar::new(),
        stop: AtomicBool::new(false),
        returns: RecoveringMutex::new(Vec::new()),
        poller,
        config: ServerConfig { threads: config.threads.max(1), ..config },
        metrics: metrics.clone(),
    });
    let handler = Arc::new(handler);

    let workers = (0..shared.config.threads)
        .map(|i| {
            let shared = shared.clone();
            let handler = handler.clone();
            std::thread::Builder::new()
                .name(format!("http-worker-{i}"))
                .spawn(move || worker_loop(&shared, handler.as_ref()))
                .expect("spawn http worker")
        })
        .collect();

    shared.poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)?;
    let reactor_thread = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("http-reactor".to_string())
            .spawn(move || {
                Reactor {
                    listener,
                    shared,
                    slots: Vec::new(),
                    gens: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                }
                .run()
            })
            .expect("spawn http reactor")
    };

    Ok(ServerHandle { addr: bound, shared, metrics, reactor_thread: Some(reactor_thread), workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn start_echo() -> ServerHandle {
        serve("127.0.0.1:0", |req| {
            Response::ok(format!(
                "{{\"method\":{:?},\"path\":{:?},\"len\":{}}}",
                req.method,
                req.path,
                req.body.len()
            ))
        })
        .expect("bind")
    }

    fn raw_request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    /// Read exactly one `Content-Length`-framed response off a keep-alive
    /// connection (header section + declared body bytes).
    fn read_one_response(s: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut tmp = [0u8; 1024];
        let head_len = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = s.read(&mut tmp).unwrap();
            assert!(n > 0, "EOF before headers: {:?}", String::from_utf8_lossy(&buf));
            buf.extend_from_slice(&tmp[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_len]).to_string();
        let body_len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string)
            })
            .map(|v| v.trim().parse().unwrap())
            .unwrap_or(0);
        while buf.len() < head_len + body_len {
            let n = s.read(&mut tmp).unwrap();
            assert!(n > 0, "EOF mid-body");
            buf.extend_from_slice(&tmp[..n]);
        }
        String::from_utf8_lossy(&buf[..head_len + body_len]).to_string()
    }

    #[test]
    fn parses_method_path_and_body() {
        let server = start_echo();
        let out = raw_request(
            server.addr,
            "POST /ask?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        );
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("\"method\":\"POST\""));
        assert!(out.contains("\"path\":\"/ask\""), "query string stripped: {out}");
        assert!(out.contains("\"len\":4"));
        server.shutdown();
    }

    #[test]
    fn bodyless_get() {
        let server = start_echo();
        let out = raw_request(server.addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.contains("\"path\":\"/health\""));
        assert!(out.contains("\"len\":0"));
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_rejected_without_reading_it() {
        let server = start_echo();
        // Only the headers are sent — the server must answer 413 from the
        // declared length alone, without waiting for body bytes.
        let out = raw_request(
            server.addr,
            &format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 10),
        );
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        assert_eq!(server.metrics().snapshot().parse_errors, 1);
        server.shutdown();
    }

    #[test]
    fn non_numeric_content_length_is_a_400() {
        let server = start_echo();
        let out =
            raw_request(server.addr, "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\nabcd");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("invalid Content-Length"), "{out}");
        server.shutdown();
    }

    #[test]
    fn conflicting_content_lengths_are_a_400() {
        let server = start_echo();
        let out = raw_request(
            server.addr,
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("conflicting Content-Length"), "{out}");
        // Identical duplicates stay accepted.
        let out = raw_request(
            server.addr,
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        );
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        server.shutdown();
    }

    #[test]
    fn truncated_body_is_a_400() {
        let server = start_echo();
        // Fewer bytes than declared, then EOF (not a stall): the client
        // must close its write half so the server sees EOF, not silence.
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.shutdown();
    }

    #[test]
    fn oversized_headers_are_a_431() {
        let server = start_echo();
        let huge = format!("GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n", "j".repeat(MAX_HEADER_BYTES));
        let mut s = TcpStream::connect(server.addr).unwrap();
        // The server may respond and close before the write finishes;
        // tolerate the resulting EPIPE.
        let _ = s.write_all(huge.as_bytes());
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        server.shutdown();
    }

    /// Seeded mutational fuzz of [`parse_request`] (ROADMAP 10b): 512
    /// cases grown from three valid requests by bit flips, truncation and
    /// splices. The parser never panics, never claims more bytes than it
    /// was given nor a body over the cap, and what it parsed does not
    /// depend on what follows the bytes it consumed — the next pipelined
    /// request, here garbage.
    #[test]
    fn parse_request_survives_mutated_requests() {
        const VALID: [&[u8]; 3] = [
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /ask?x=1 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\
              Content-Length: 17\r\n\r\n{\"question\":\"hi\"}",
            b"POST /ingest HTTP/1.1\nContent-Length: 4\nContent-Length: 4\n\nabcd",
        ];
        const GARBAGE: &[u8] = b"\xff\n\nGET /next HTTP/1.1\r\nContent-Length: 9\r\n\r\n\0";
        // splitmix64, as in voxolap-faults: the case list is its seed.
        let mut state = 0x10b_f022_u64;
        let mut below = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((x ^ (x >> 31)) % bound.max(1) as u64) as usize
        };
        let parts = |p: Parsed| match p {
            Parsed::Request { req, consumed } => {
                Some((req.method, req.path, req.body, req.keep_alive, consumed))
            }
            _ => None,
        };
        let check = |buf: &[u8], case: &str| {
            let Some(first) = parts(parse_request(buf)) else { return false };
            let consumed = first.4;
            assert!(consumed <= buf.len() && first.2.len() <= MAX_BODY, "{case}");
            let followed = [&buf[..consumed], GARBAGE].concat();
            assert_eq!(parts(parse_request(&followed)), Some(first), "{case}");
            true
        };
        for valid in VALID {
            assert!(check(valid, "unmutated"), "{:?}", String::from_utf8_lossy(valid));
        }
        let mut parsed = 0;
        for case in 0..512 {
            let mut buf = VALID[below(3)].to_vec();
            for _ in 0..=below(3) {
                match below(3) {
                    0 if !buf.is_empty() => {
                        let at = below(buf.len());
                        buf[at] ^= 1 << below(8);
                    }
                    1 => buf.truncate(below(buf.len() + 1)),
                    _ => {
                        let donor = VALID[below(3)];
                        let from = below(donor.len());
                        let piece = &donor[from..from + below(donor.len() - from + 1)];
                        let at = below(buf.len() + 1);
                        buf.splice(at..at, piece.iter().copied());
                    }
                }
            }
            let case = format!("case {case}: {:?}", String::from_utf8_lossy(&buf));
            parsed += usize::from(check(&buf, &case));
        }
        assert!(parsed > 64, "most mutants must not be trivially rejected: {parsed}");
    }

    #[test]
    fn stalled_body_times_out_with_a_408() {
        let config = ServerConfig::default().with_timeout_ms(200);
        let metrics = HttpMetrics::new();
        let server =
            serve_with("127.0.0.1:0", config, metrics, |_| Response::ok("{}".to_string())).unwrap();
        let start = Instant::now();
        let mut s = TcpStream::connect(server.addr).unwrap();
        // Headers promise 10 bytes; the body never comes.
        s.write_all(b"POST /ask HTTP/1.1\r\nContent-Length: 10\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        assert!(start.elapsed() < Duration::from_secs(3), "timeout fired late");
        assert_eq!(server.metrics().snapshot().timeouts, 1);
        server.shutdown();
    }

    #[test]
    fn panicking_handler_returns_500_and_counts() {
        let server = serve("127.0.0.1:0", |req| {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::ok("{}".to_string())
        })
        .unwrap();
        let out = raw_request(server.addr, "GET /boom HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 500"), "{out}");
        assert!(out.contains("{\"error\":\"internal server error\"}"), "{out}");
        // The worker survives the panic and keeps serving.
        let out = raw_request(server.addr, "GET /fine HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        let snap = server.metrics().snapshot();
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.responses_5xx, 1);
        server.shutdown();
    }

    #[test]
    fn saturated_queue_yields_503_with_retry_after() {
        use std::sync::mpsc;
        // One worker stuck in the handler + a single queue slot: the
        // third concurrent connection must be rejected up front.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let config = ServerConfig { threads: 1, queue: 1, ..ServerConfig::default() };
        let server = serve_with("127.0.0.1:0", config, HttpMetrics::new(), move |_| {
            let _ = release_rx
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .recv_timeout(Duration::from_secs(5));
            Response::ok("{}".to_string())
        })
        .unwrap();
        let addr = server.addr;

        let mut occupy = Vec::new();
        // First connection: wait until its request is *in the handler*
        // (the `requests` counter ticks just before dispatch), so the
        // single worker is provably busy before the next one arrives.
        occupy.push(std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().snapshot().requests < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Second connection: fills the single queue slot.
        occupy.push(std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while {
            let q = server.shared.lock_queue().len();
            q < 1 && Instant::now() < deadline
        } {
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = raw_request(addr, "GET /rejected HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        assert!(out.contains("Retry-After: 1"), "{out}");
        assert_eq!(server.metrics().snapshot().rejected, 1);

        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        for h in occupy {
            assert!(h.join().unwrap().starts_with("HTTP/1.1 200"));
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = start_echo();
        let addr = server.addr;
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    raw_request(addr, &format!("GET /r{i} HTTP/1.1\r\n\r\n"))
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.join().unwrap();
            assert!(out.contains(&format!("/r{i}")));
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.requests, 8);
        assert_eq!(snap.responses_2xx, 8);
        server.shutdown();
    }

    #[test]
    fn streaming_response_is_chunked_with_terminal_chunk() {
        let server = serve("127.0.0.1:0", |_req| {
            Response::streaming(|w| {
                assert!(w.send_line("{\"n\":1}"));
                assert!(w.send_line("{\"n\":2}"));
            })
        })
        .unwrap();
        let out = raw_request(server.addr, "GET /s HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.contains("Transfer-Encoding: chunked"), "{out}");
        assert!(out.contains("application/x-ndjson"), "{out}");
        assert!(out.contains("{\"n\":1}"), "{out}");
        assert!(out.contains("{\"n\":2}"), "{out}");
        assert!(out.ends_with("0\r\n\r\n"), "terminal chunk present: {out:?}");
        let snap = server.metrics().snapshot();
        assert_eq!(snap.bytes_out, 16, "two 8-byte chunks counted");
        server.shutdown();
    }

    #[test]
    fn stream_writer_detects_client_disconnect() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel::<bool>();
        let tx = Mutex::new(tx);
        let server = serve("127.0.0.1:0", move |_req| {
            let tx = tx.lock().unwrap_or_else(|e| e.into_inner()).clone();
            Response::streaming(move |w| {
                assert!(w.send_line("{\"n\":1}"));
                let deadline = Instant::now() + Duration::from_secs(5);
                let mut gone = false;
                while !gone && Instant::now() < deadline {
                    gone = w.client_gone();
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = tx.send(gone);
            })
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(b"GET /s HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf); // first chunk arrived
        drop(s);
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "writer saw the disconnect");
        server.shutdown();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = start_echo();
        let addr = server.addr;
        server.shutdown();
        // After shutdown the port refuses or resets; either way no 200.
        let result = TcpStream::connect(addr);
        if let Ok(mut s) = result {
            let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(!out.contains("200 OK"), "{out}");
        }
    }

    #[test]
    fn shutdown_is_deadline_bounded() {
        // Even with traffic in flight, shutdown_within returns promptly.
        let server = start_echo();
        let start = Instant::now();
        server.shutdown_within(Duration::from_millis(500));
        assert!(start.elapsed() < Duration::from_secs(5), "shutdown hung");
    }

    #[test]
    fn keep_alive_reuses_one_connection_for_many_requests() {
        let server = start_echo();
        let mut s = TcpStream::connect(server.addr).unwrap();
        for i in 0..3 {
            s.write_all(
                format!("GET /ka{i} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").as_bytes(),
            )
            .unwrap();
            let out = read_one_response(&mut s);
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
            assert!(out.contains("Connection: keep-alive"), "{out}");
            assert!(out.contains(&format!("/ka{i}")), "{out}");
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.keepalive_reuses, 2, "follow-ups counted as reuses");
        assert_eq!(snap.accepted, 1, "one TCP connection for all three");
        server.shutdown();
    }

    #[test]
    fn keep_alive_is_opt_in_per_request() {
        // Without the header the server closes after one response, so
        // legacy read-to-EOF clients keep working.
        let server = start_echo();
        let out = raw_request(server.addr, "GET /one HTTP/1.1\r\n\r\n");
        assert!(out.contains("Connection: close"), "{out}");
        assert_eq!(server.metrics().snapshot().keepalive_reuses, 0);
        server.shutdown();
    }

    #[test]
    fn session_upgrade_carries_ndjson_lines_both_ways() {
        let server = serve("127.0.0.1:0", |req| {
            if req.path == "/attach" {
                Response::upgrade_session(SessionUpgrade {
                    id: "s1".to_string(),
                    hello: Some("{\"type\":\"hello\",\"session\":\"s1\"}".to_string()),
                    on_line: Arc::new(|line, sink| {
                        if line.contains("bye") {
                            sink.send_line("{\"type\":\"bye\"}");
                            return SessionVerdict::Close;
                        }
                        sink.send_line(&format!("{{\"type\":\"echo\",\"got\":{}}}", line.len()));
                        SessionVerdict::Continue
                    }),
                    on_close: Arc::new(|_| {}),
                })
            } else {
                Response::error(404, "not found")
            }
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(b"GET /attach HTTP/1.1\r\nConnection: Upgrade\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        use std::io::BufRead;
        // 101 + empty line + hello.
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 101"), "{line}");
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
        }
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"hello\""), "{line}");
        // Two utterances on the same connection.
        for n in [3usize, 7] {
            s.write_all(format!("{{\"utter\":\"{}\"}}\n", "x".repeat(n)).as_bytes()).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"echo\""), "{line}");
        }
        // Farewell closes the connection server-side.
        s.write_all(b"{\"cmd\":\"bye\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"bye\""), "{line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after bye: {line}");
        let snap = server.metrics().snapshot();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_closed, 1);
        assert_eq!(snap.session_lines, 3);
        server.shutdown();
    }

    #[test]
    fn idle_session_gets_heartbeats_and_is_eventually_reaped() {
        let config = ServerConfig {
            heartbeat: Duration::from_millis(80),
            session_idle_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        };
        let closed = Arc::new(AtomicU64::new(0));
        let closed2 = closed.clone();
        let server = serve_with("127.0.0.1:0", config, HttpMetrics::new(), move |_| {
            let closed = closed2.clone();
            Response::upgrade_session(SessionUpgrade {
                id: "idle".to_string(),
                hello: None,
                on_line: Arc::new(|_, _| SessionVerdict::Continue),
                on_close: Arc::new(move |_| {
                    closed.fetch_add(1, Ordering::Relaxed);
                }),
            })
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(b"GET /attach HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        // The server heartbeats, then reaps the idle session and closes,
        // unblocking read_to_string.
        s.read_to_string(&mut out).unwrap();
        assert!(out.contains("\"heartbeat\""), "{out}");
        assert!(out.contains("\"reason\":\"idle\""), "{out}");
        let snap = server.metrics().snapshot();
        assert!(snap.heartbeats_sent >= 1, "{snap:?}");
        assert_eq!(snap.idle_closed, 1);
        assert_eq!(closed.load(Ordering::Relaxed), 1, "on_close fired exactly once");
        server.shutdown();
    }

    #[test]
    fn reject_write_failure_is_counted_not_panicked() {
        // A client that vanishes before its 503 can be written: the
        // reactor counts the failed delivery and moves on.
        let config = ServerConfig { max_connections: 1, ..ServerConfig::default() };
        let server = serve_with("127.0.0.1:0", config, HttpMetrics::new(), |_| {
            Response::ok("{}".to_string())
        })
        .unwrap();
        // Occupy the single slot with a parked connection.
        let _held = TcpStream::connect(server.addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().snapshot().accepted < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Over-capacity connections get an immediate best-effort 503.
        let mut over = TcpStream::connect(server.addr).unwrap();
        let mut out = String::new();
        let _ = over.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 503") || out.is_empty(), "{out}");
        assert!(server.metrics().snapshot().rejected >= 1);
        server.shutdown();
    }
}
