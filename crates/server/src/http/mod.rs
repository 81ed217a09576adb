//! Evented HTTP/1.1 serving over `std::net` — a readiness-driven reactor
//! with a worker pool, built to hold huge fleets of mostly-idle voice
//! sessions while keeping the §10 guarantees (admission control, timeouts,
//! panic isolation, deadline-bounded graceful shutdown, metrics; DESIGN.md
//! §10 and §15):
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
//!
//! One file per stage a request passes through: `wire` (bytes in and out,
//! no threads), `metrics`, `reactor` (the slot table and its state
//! machine) and `pool` (workers, the hand-back to the reactor, shutdown).
//! A connection is one `Conn` record in all of them.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

mod metrics;
mod pool;
mod reactor;
#[cfg(test)]
mod tests;
mod wire;

pub use metrics::{HttpMetrics, HttpMetricsSnapshot};
pub use pool::{serve, serve_with, ServerHandle};
pub use wire::{
    LineSink, Request, Response, SessionCallback, SessionUpgrade, SessionVerdict, StreamBody,
};

/// Total time budget for writing a reject or error response *and* the
/// lingering close that follows — slow readers are cut off at this
/// deadline instead of stalling the reactor (or a late shutdown).
const REJECT_LINGER: Duration = Duration::from_millis(500);

/// Tuning knobs for the serving layer (the server's `--http-*` flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fixed worker-pool size.
    pub threads: usize,
    /// Bounded queue capacity between the reactor and the workers;
    /// requests beyond it are answered `503` + `Retry-After`.
    pub queue: usize,
    /// The socket timeout: a connection mid-request (bytes expected) that
    /// goes silent this long gets a `408`, and a worker's write to a
    /// client that stops reading fails after it.
    pub timeout: Duration,
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
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 8,
            queue: 64,
            timeout: Duration::from_secs(5),
            log_requests: false,
            idle_timeout: Duration::from_secs(30),
            session_idle_timeout: Duration::from_secs(120),
            heartbeat: Duration::from_secs(15),
            max_connections: 200_000,
        }
    }
}

impl ServerConfig {
    /// Set the socket timeout from one `--http-timeout-ms` value (at
    /// least 1 ms).
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout = Duration::from_millis(ms.max(1));
        self
    }
}

/// One client connection, the same record at every hand-off: a reactor
/// slot wraps it, a worker job carries it, `Shared::park` hands it back.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed: a partial request or line, and
    /// whatever the client pipelined behind it.
    buf: Vec<u8>,
    mode: Mode,
    /// Requests answered on this connection (keep-alive reuse).
    served: u64,
}

/// How a connection speaks.
enum Mode {
    Http,
    /// Upgraded to the session transport: every line goes to `on_line`.
    Session {
        on_line: SessionCallback,
        last_heartbeat: Instant,
    },
}

impl Conn {
    /// Close the connection. Each connection reaches exactly one close
    /// site, so a session's close is counted here exactly once.
    fn close(self, metrics: &HttpMetrics) {
        if let Mode::Session { .. } = self.mode {
            HttpMetrics::add(&metrics.sessions_closed, 1);
        }
    }

    /// The shutdown close: a session is told `bye(shutdown)` first. This
    /// is the close site of every session still attached when `stop`
    /// flips — wherever it is at that moment: a reactor slot (teardown),
    /// the return lane (drained by the reactor, or by `shutdown_within`
    /// once the reactor is gone), or the job queue (the late reject). A
    /// worker holding the socket parks it as usual, which lands it in the
    /// return lane.
    fn farewell(mut self, metrics: &HttpMetrics) {
        if let Mode::Session { .. } = self.mode {
            let _ = self.stream.write_all(b"{\"type\":\"bye\",\"reason\":\"shutdown\"}\n");
        }
        self.close(metrics);
    }
}
