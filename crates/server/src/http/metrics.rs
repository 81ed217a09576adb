//! The serving-layer counters behind the `"http"` object of `GET /stats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use voxolap_json::Value;

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
}

impl HttpMetrics {
    /// A fresh, shareable counter block.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub(super) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(super) fn count_status(&self, status: u16) {
        let class = match status {
            100..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        Self::add(class, 1);
    }
}
