//! Bytes in and out: the incremental request parser, response framing, the
//! NDJSON [`LineSink`] and the session handshake. No threads, no shared
//! state.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use voxolap_json::Value;

/// Upper bound on accepted request bodies (64 KiB — questions are short).
pub(super) const MAX_BODY: usize = 64 * 1024;

/// Upper bound on a `POST /ingest` body (1 MiB): a whole NDJSON batch, of
/// which 2 000 flights rows take about a quarter.
pub(super) const MAX_INGEST_BODY: usize = 1024 * 1024;

/// Upper bound on the request line + header section.
pub(super) const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Upper bound on one NDJSON line from an upgraded session connection.
pub(super) const MAX_SESSION_LINE: usize = 64 * 1024;

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
/// The transport writes its own events: the `hello` right after the `101`
/// (carrying the heartbeat and idle timeout of the
/// [`ServerConfig`](super::ServerConfig) serving the connection),
/// heartbeats, and the `bye` of an idle reap or a shutdown.
pub struct SessionUpgrade {
    /// Session identifier, announced in the `hello` event.
    pub id: String,
    /// Invoked on the worker pool for every complete line the client
    /// sends.
    pub on_line: SessionCallback,
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
    pub(super) stream: &'a mut TcpStream,
    pub(super) chunked: bool,
    pub(super) bytes_out: u64,
    pub(super) failed: bool,
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
pub(super) fn write_streaming(
    stream: &mut TcpStream,
    status: u16,
    body: StreamBody,
    keep: bool,
) -> (u64, bool) {
    let conn = if keep { "keep-alive" } else { "close" };
    let status_text = status_text(status);
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
pub(super) fn response_bytes(response: &Response, keep: bool) -> Vec<u8> {
    // Overloaded / shutting-down responses invite a quick retry.
    let retry = if response.status == 503 { "Retry-After: 1\r\n" } else { "" };
    let conn = if keep { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n{}\r\n{}",
        response.status,
        status_text(response.status),
        response.body.len(),
        conn,
        retry,
        response.body
    )
    .into_bytes()
}

/// The `101` handshake and the session transport's `hello` event, sent as
/// one write: the session id and the cadence the client should expect.
pub(super) fn session_handshake(id: &str, heartbeat: Duration, idle_timeout: Duration) -> String {
    let hello = Value::obj([
        ("type", "hello".into()),
        ("session", id.into()),
        ("heartbeat_ms", (heartbeat.as_millis() as u64).into()),
        ("idle_timeout_ms", (idle_timeout.as_millis() as u64).into()),
    ]);
    format!(
        "HTTP/1.1 101 Switching Protocols\r\nUpgrade: voxolap-session\r\nConnection: Upgrade\r\n\r\n{hello}\n"
    )
}

// ---------------------------------------------------------------------------
// Incremental request parsing (reactor side).

/// Outcome of trying to parse one request from the accumulated bytes.
pub(super) enum Parsed {
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
pub(super) fn head_end(buf: &[u8]) -> Option<usize> {
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

/// The body cap of a route: `POST /ingest` carries a whole NDJSON batch,
/// every other route a short JSON object.
fn body_cap(method: &str, path: &str) -> usize {
    if method == "POST" && path == "/ingest" {
        MAX_INGEST_BODY
    } else {
        MAX_BODY
    }
}

/// Incremental HTTP/1.1 request parser over the reactor's per-connection
/// buffer. Framing rules match the §10 parser: capped header section,
/// strict `Content-Length` validation, oversized bodies rejected without
/// being read.
pub(super) fn parse_request(buf: &[u8]) -> Parsed {
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
    if content_length > body_cap(&method, &path) {
        return Parsed::Error { status: 413, message: "request body too large" };
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Parsed::NeedMore;
    }
    let body = buf[head_len..total].to_vec();
    Parsed::Request { req: Request { method, path, body, keep_alive }, consumed: total }
}
