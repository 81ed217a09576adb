//! The reactor: one thread owning every connection no worker holds — the
//! slot table and its state machine (read → dispatch, or write → linger →
//! close), heartbeats and deadline sweeps.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::reactor::{Event, Interest};

use super::metrics::HttpMetrics;
use super::pool::{Job, Shared, Work};
use super::wire::{
    head_end, parse_request, response_bytes, Parsed, Response, MAX_HEADER_BYTES, MAX_INGEST_BODY,
    MAX_SESSION_LINE,
};
use super::{Conn, Mode, REJECT_LINGER};

/// Reactor tick: upper bound between deadline sweeps (heartbeats, idle
/// reaping, read timeouts) and the stop-flag recheck latency.
const TICK: Duration = Duration::from_millis(25);

/// Token carried in epoll events: slot index in the low 32 bits, a
/// generation counter in the high 32 so stale events for a recycled slot
/// are ignored.
fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

pub(super) const LISTENER_TOKEN: u64 = u64::MAX - 1;

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

/// A connection parked in the reactor.
struct Slot {
    conn: Conn,
    gen: u32,
    phase: Phase,
    last_activity: Instant,
    interest: Interest,
}

pub(super) struct Reactor {
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
    pub(super) fn new(listener: TcpListener, shared: Arc<Shared>) -> Self {
        Reactor { listener, shared, slots: Vec::new(), gens: Vec::new(), free: Vec::new(), live: 0 }
    }

    pub(super) fn run(mut self) {
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
                    self.insert(Conn { stream, buf: Vec::new(), mode: Mode::Http, served: 0 });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Park a connection in the slab with read interest and immediately
    /// try to parse any carried-over bytes (level-triggered epoll won't
    /// re-report bytes that already sit in our buffer). Its activity and
    /// heartbeat clocks start now.
    fn insert(&mut self, mut conn: Conn) {
        let shared = Arc::clone(&self.shared);
        let _ = conn.stream.set_nonblocking(true);
        let has_buffered = !conn.buf.is_empty();
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if idx >= self.gens.len() {
            self.gens.resize(idx + 1, 0);
        }
        let gen = self.gens[idx];
        let fd = conn.stream.as_raw_fd();
        if shared.poller.add(fd, token_of(idx, gen), Interest::Read).is_err() {
            // Registration failure (fd-table churn): drop the connection.
            conn.close(&shared.metrics);
            self.free.push(idx);
            return;
        }
        let now = Instant::now();
        if let Mode::Session { last_heartbeat, .. } = &mut conn.mode {
            *last_heartbeat = now;
        }
        self.slots[idx] = Some(Slot {
            conn,
            gen,
            phase: Phase::Read,
            last_activity: now,
            interest: Interest::Read,
        });
        self.live += 1;
        if has_buffered {
            self.advance_read(idx);
        }
    }

    /// Vacate a slot — deregister the fd, recycle the index under a new
    /// generation — and hand its connection to the caller: a worker job,
    /// or [`Conn::close`] through [`Reactor::close_slot`].
    fn remove(&mut self, idx: usize) -> Option<Conn> {
        let slot = self.slots[idx].take()?;
        self.shared.poller.remove(slot.conn.stream.as_raw_fd());
        self.free.push(idx);
        self.live -= 1;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        Some(slot.conn)
    }

    fn close_slot(&mut self, idx: usize) {
        if let Some(conn) = self.remove(idx) {
            conn.close(&self.shared.metrics);
        }
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
            if slot.conn.buf.len() > MAX_HEADER_BYTES + MAX_INGEST_BODY + 4096 {
                return (false, false); // hard cap; the parser will reject
            }
            match slot.conn.stream.read(&mut tmp) {
                Ok(0) => return (true, false),
                Ok(n) => {
                    slot.conn.buf.extend_from_slice(&tmp[..n]);
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
            (!slot.conn.buf.is_empty(), matches!(slot.conn.mode, Mode::Session { .. }))
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
            parse_request(&slot.conn.buf)
        };
        match parsed {
            Parsed::NeedMore => {
                if eof {
                    let (empty, headers_done) = {
                        let Some(slot) = self.slots[idx].as_ref() else { return };
                        (slot.conn.buf.is_empty(), head_end(&slot.conn.buf).is_some())
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
                let served = {
                    let Some(slot) = self.slots[idx].as_mut() else { return };
                    // Bytes past the parsed request (pipelined follow-ups)
                    // travel with the connection.
                    slot.conn.buf = slot.conn.buf.split_off(consumed);
                    slot.conn.served
                };
                if served > 0 {
                    HttpMetrics::add(&shared.metrics.keepalive_reuses, 1);
                }
                // Admission control: a full queue answers 503 through the
                // reactor's nonblocking write path, never a worker.
                let admitted = {
                    let mut q = shared.queue.lock();
                    if q.len() >= shared.config.queue {
                        false
                    } else {
                        let Some(conn) = self.remove(idx) else { return };
                        q.push_back(Job {
                            conn,
                            queued_at: Instant::now(),
                            work: Work::Request(req),
                        });
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
            match slot.conn.buf.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let rest = slot.conn.buf.split_off(nl + 1);
                    let mut line_bytes = std::mem::replace(&mut slot.conn.buf, rest);
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
            let too_long =
                self.slots[idx].as_ref().is_some_and(|s| s.conn.buf.len() > MAX_SESSION_LINE);
            if too_long || eof {
                // A line that never ends is a protocol violation; EOF is
                // the client hanging up. Either way the session is over.
                self.close_slot(idx);
            }
            return;
        };
        HttpMetrics::add(&shared.metrics.session_lines, 1);
        let Some(conn) = self.remove(idx) else { return };
        shared.queue.lock().push_back(Job {
            conn,
            queued_at: Instant::now(),
            work: Work::Line(line),
        });
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
        let deadline = Instant::now() + REJECT_LINGER;
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
            match slot.conn.stream.write(&out[*pos..]) {
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
                    let _ = slot.conn.stream.shutdown(std::net::Shutdown::Write);
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
                match slot.conn.stream.read(&mut tmp) {
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
        let fd = slot.conn.stream.as_raw_fd();
        let token = token_of(idx, slot.gen);
        if shared.poller.modify(fd, token, interest).is_ok() {
            slot.interest = interest;
        }
    }

    /// Reinsert connections handed back by workers.
    fn drain_returns(&mut self) {
        let returned: Vec<Conn> = std::mem::take(&mut *self.shared.returns.lock());
        for conn in returned {
            if self.shared.stopped() {
                conn.farewell(&self.shared.metrics);
            } else {
                self.insert(conn);
            }
        }
    }

    /// Time-based transitions: read timeouts, keep-alive idling, session
    /// heartbeats and reaping, write/linger deadlines.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let read_timeout = self.shared.config.timeout;
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
                Phase::Read => match &mut slot.conn.mode {
                    Mode::Http => {
                        // A fresh connection or one with a partial request
                        // buffered is "mid-request" (408 on stall); a
                        // parked keep-alive connection idles out silently.
                        let mid_request = !slot.conn.buf.is_empty() || slot.conn.served == 0;
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
                        let _ =
                            slot.conn.stream.write_all(b"{\"type\":\"bye\",\"reason\":\"idle\"}\n");
                    }
                    self.close_slot(idx);
                }
                Action::Heartbeat => {
                    let beat = b"{\"type\":\"heartbeat\"}\n";
                    let wrote = {
                        let Some(slot) = self.slots[idx].as_mut() else { continue };
                        slot.conn.stream.write(beat)
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

    /// Farewell every connection still in the slab. Connections still in
    /// the return lane when the reactor exits are farewelled by
    /// `shutdown_within` after the workers join.
    fn teardown(&mut self) {
        for idx in 0..self.slots.len() {
            if let Some(conn) = self.remove(idx) {
                conn.farewell(&self.shared.metrics);
            }
        }
    }
}
