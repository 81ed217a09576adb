//! The worker pool: the bounded job queue the reactor feeds, one worker
//! turn per job, the hand-back of a connection to the reactor, and
//! shutdown.
//!
//! The queue and the return lane are plain locks. A handler runs under
//! `catch_unwind` with neither held, so a panic is answered `500` and
//! counted in `panics`; no critical section here can panic.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::reactor::{Interest, Poller};

use super::metrics::HttpMetrics;
use super::reactor::{Reactor, LISTENER_TOKEN};
use super::wire::{
    response_bytes, session_handshake, write_streaming, LineSink, Request, Response,
    SessionUpgrade, SessionVerdict,
};
use super::{Conn, Mode, ServerConfig, REJECT_LINGER};

/// How often idle workers recheck the stop flag while waiting for work.
const WORKER_POLL: Duration = Duration::from_millis(100);

/// A unit of work for the pool: a connection and what to answer on it.
pub(super) struct Job {
    pub(super) conn: Conn,
    pub(super) queued_at: Instant,
    pub(super) work: Work,
}

pub(super) enum Work {
    /// A parsed HTTP request, answered by the handler.
    Request(Request),
    /// One NDJSON line of an upgraded session, answered by its callback.
    Line(String),
}

/// State shared between the reactor, the workers, and the handle.
pub(super) struct Shared {
    /// Jobs waiting for a worker.
    pub(super) queue: Mutex<VecDeque<Job>>,
    /// Signaled when work is pushed (workers wait here).
    pub(super) ready: Condvar,
    /// Signaled when the queue becomes empty (shutdown drains wait here —
    /// no busy-polling).
    drained: Condvar,
    stop: AtomicBool,
    /// Connections coming back from workers for keep-alive / session
    /// parking; the reactor drains this after every `notify`.
    pub(super) returns: Mutex<Vec<Conn>>,
    pub(super) poller: Poller,
    pub(super) config: ServerConfig,
    pub(super) metrics: Arc<HttpMetrics>,
}

impl Shared {
    pub(super) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Hand a connection back to the reactor.
    fn park(&self, conn: Conn) {
        self.returns.lock().push(conn);
        self.poller.notify();
    }
}

fn worker_loop<F>(shared: &Shared, handler: &F)
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    loop {
        let job = {
            let mut queue = shared.queue.lock();
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
            Some(job) => turn(job, shared, handler),
            None => return,
        }
    }
}

/// One worker turn. Every job shares the steps around the work: the
/// queue-wait metric, blocking mode and the write timeout, `catch_unwind`
/// with panic counting, `bytes_out`, and park or close. Only the work
/// differs — a request goes to the handler, a session line to its
/// connection's callback.
fn turn<F>(job: Job, shared: &Shared, handler: &F)
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    let Job { mut conn, queued_at, work } = job;
    let (metrics, config) = (&*shared.metrics, &shared.config);
    let queue_wait = queued_at.elapsed();
    HttpMetrics::add(&metrics.queue_wait_us, queue_wait.as_micros() as u64);
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(config.timeout));

    let (bytes_out, keep) = match work {
        Work::Request(req) => {
            let started = Instant::now();
            HttpMetrics::add(&metrics.requests, 1);
            HttpMetrics::add(&metrics.bytes_in, req.body.len() as u64);
            let mut response = guarded(metrics, || handler(&req))
                .unwrap_or_else(|| Response::error(500, "internal server error"));
            let reused = conn.served > 0;
            conn.served += 1;
            match response.session.take() {
                Some(upgrade) => open_session(&mut conn, upgrade, config, metrics),
                None => {
                    let status = response.status;
                    // Keep-alive only when the client asked and the
                    // response isn't a serving-layer failure.
                    let keep = req.keep_alive && !shared.stopped() && status < 500;
                    let (bytes_out, keep) = respond(&mut conn.stream, response, keep, metrics);
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
                    (bytes_out, keep)
                }
            }
        }
        // Blank keep-alive line: just park again.
        Work::Line(line) if line.is_empty() => (0, true),
        Work::Line(line) => {
            let Mode::Session { on_line, .. } = &conn.mode else {
                unreachable!("the reactor reads lines only on session connections")
            };
            let mut sink =
                LineSink { stream: &mut conn.stream, chunked: false, bytes_out: 0, failed: false };
            let verdict = guarded(metrics, || on_line(&line, &mut sink)).unwrap_or_else(|| {
                sink.send_line("{\"type\":\"error\",\"message\":\"internal error\"}");
                SessionVerdict::Continue
            });
            (sink.bytes_out, verdict == SessionVerdict::Continue && !sink.failed)
        }
    };
    HttpMetrics::add(&metrics.bytes_out, bytes_out);
    if keep {
        shared.park(conn);
    } else {
        // Handler responses are fully framed, so a plain close (no
        // linger) is correct here; linger is for the error paths where
        // the request body may still be in flight.
        conn.close(metrics);
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
/// Returns the bytes written and whether to park it.
fn open_session(
    conn: &mut Conn,
    upgrade: SessionUpgrade,
    config: &ServerConfig,
    metrics: &HttpMetrics,
) -> (u64, bool) {
    metrics.count_status(101);
    let handshake = session_handshake(&upgrade.id, config.heartbeat, config.session_idle_timeout);
    conn.mode = Mode::Session { on_line: upgrade.on_line, last_heartbeat: Instant::now() };
    if conn.stream.write_all(handshake.as_bytes()).and_then(|()| conn.stream.flush()).is_err() {
        HttpMetrics::add(&metrics.io_errors, 1);
        return (0, false);
    }
    HttpMetrics::add(&metrics.sessions_opened, 1);
    (handshake.len() as u64, true)
}

// ---------------------------------------------------------------------------
// Handle, serve, shutdown.

/// Handle to a running server: its bound address, metrics, and shutdown.
pub struct ServerHandle {
    /// The address the listener bound (useful with port 0).
    pub addr: std::net::SocketAddr,
    pub(super) shared: Arc<Shared>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
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
            let mut queue = self.shared.queue.lock();
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
        for conn in self.shared.returns.lock().drain(..) {
            conn.farewell(&self.shared.metrics);
        }
    }
}

/// Answer a job that was still queued when the drain deadline fired.
/// Blocking writes with short timeouts are fine here: shutdown runs on
/// the caller's thread, not the reactor.
fn reject_late(job: Job, shared: &Shared) {
    let metrics = &shared.metrics;
    let Job { mut conn, work, .. } = job;
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(250)));
    match work {
        Work::Request(_) => {
            HttpMetrics::add(&metrics.rejected, 1);
            metrics.count_status(503);
            let response = Response::error(503, "server shutting down");
            if conn.stream.write_all(&response_bytes(&response, false)).is_err() {
                HttpMetrics::add(&metrics.reject_write_failures, 1);
                return;
            }
            linger_close(conn.stream, Instant::now() + REJECT_LINGER);
        }
        Work::Line(_) => conn.farewell(metrics),
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
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        drained: Condvar::new(),
        stop: AtomicBool::new(false),
        returns: Mutex::new(Vec::new()),
        poller,
        config: ServerConfig { threads: config.threads.max(1), ..config },
        metrics,
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
            .spawn(move || Reactor::new(listener, shared).run())
            .expect("spawn http reactor")
    };

    Ok(ServerHandle { addr: bound, shared, reactor_thread: Some(reactor_thread), workers })
}
