//! HTTP/1.1 serving over blocking `std::net`, one thread per open
//! connection, keeping the §10 guarantees (admission control, timeouts,
//! panic isolation, deadline-bounded graceful shutdown, metrics; DESIGN.md
//! §10 and §15):
//!
//! - **Accept thread** — a blocking accept loop. Past `max_connections`
//!   it answers a best-effort `503` itself; otherwise it registers the
//!   connection and hands it to an idle `http-conn` thread, or starts one.
//!   A thread whose connection closes waits for the next one.
//! - **Connection thread** — reads into the connection's buffer under the
//!   socket timeout, parses, and answers, all on its own thread. A
//!   handler runs only while holding one of `threads` *permits*; at most
//!   `queue` requests wait for one, and the next gets `503` +
//!   `Retry-After` on its own thread, so slow or absent readers never
//!   stall the accept path.
//! - **Keep-alive** — clients that send `Connection: keep-alive` keep
//!   their connection (and its thread) for follow-up queries (semantic-
//!   cache warm starts then hit on a warm connection). Parse errors and
//!   serving-layer failures still close, with a deadline-bounded
//!   lingering close (FIN, not RST).
//! - **Session transport** — a handler can answer an HTTP request with
//!   [`Response::upgrade_session`]: the connection leaves HTTP framing
//!   (`101 Switching Protocols`, `Upgrade: voxolap-session`) and becomes
//!   a long-lived bidirectional NDJSON link. The client writes one JSON
//!   line per utterance; each line takes a permit and streams its reply
//!   events (one §11 `SpeechStream` per utterance) straight onto the
//!   socket. Between lines the thread heartbeats and reaps the idle.
//!
//! One file per stage a request passes through: `wire` (bytes in and out,
//! no threads), `metrics`, and `pool` (the accept thread, the connection
//! loops, permits, shutdown).

use std::time::Duration;

mod metrics;
mod pool;
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
/// deadline instead of holding their thread (or a late shutdown).
const REJECT_LINGER: Duration = Duration::from_millis(500);

/// Tuning knobs for the serving layer (the server's `--http-*` flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Planning permits: at most this many requests and session lines
    /// run their handler at once (at least 1).
    pub threads: usize,
    /// Requests that may wait for a permit; the next one is answered
    /// `503` + `Retry-After`. Session lines wait without this bound.
    pub queue: usize,
    /// The socket timeout: a connection mid-request (bytes expected) that
    /// goes silent this long gets a `408`, and a write to a client that
    /// stops reading fails after it.
    pub timeout: Duration,
    /// Emit one structured log line per request to stderr.
    pub log_requests: bool,
    /// Keep-alive connections idle longer than this between requests are
    /// closed.
    pub idle_timeout: Duration,
    /// Upgraded session connections idle longer than this are reaped
    /// (a `bye` event is sent best-effort first).
    pub session_idle_timeout: Duration,
    /// Interval between server heartbeat events on idle session
    /// connections.
    pub heartbeat: Duration,
    /// Hard cap on concurrently open connections, and so on connection
    /// threads; beyond it new sockets get a best-effort `503` and are
    /// closed immediately.
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
            max_connections: 1_024,
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
