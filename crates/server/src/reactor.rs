//! Readiness polling over raw `epoll(7)` — the substrate of the evented
//! serving layer (DESIGN.md §15).
//!
//! The workspace is dependency-free by policy (no `mio`, no `libc`
//! crate), so the three syscalls the reactor needs are declared directly
//! against the C library `std` already links. Linux-only, like the rest
//! of the serving layer's `/proc` probes; every call site funnels through
//! [`Poller`], which owns the epoll instance and an `eventfd` used to
//! interrupt a blocked `epoll_wait` from other threads (worker handoffs,
//! shutdown).
//!
//! Registration is level-triggered: the reactor re-arms interest
//! explicitly per connection phase (read vs write), which keeps the state
//! machine in `http/reactor.rs` free of edge-trigger starvation bugs at the cost
//! of one `epoll_ctl` per phase change — negligible against a planner
//! dispatch.

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

// epoll_ctl ops.
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

// Event bits (uapi/linux/eventpoll.h).
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// `epoll_event`. The kernel ABI packs this struct on x86-64 (only).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;

/// Set by the `SIGTERM`/`SIGINT` handler installed by
/// [`install_shutdown_signals`].
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn note_shutdown(_signum: c_int) {
    // A relaxed atomic store is async-signal-safe; everything else
    // (draining, WAL flush, marker write) happens on the main thread.
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Install `SIGTERM`/`SIGINT` handlers that request a graceful shutdown
/// instead of killing the process outright, and return the flag the main
/// loop polls. Graceful shutdown is what lets the server drain in-flight
/// requests and flush + fsync the WAL (DESIGN.md §17) — a `SIGKILL`
/// skips both, and the next boot recovers what reached the log.
pub fn install_shutdown_signals() -> &'static std::sync::atomic::AtomicBool {
    unsafe {
        signal(SIGINT, note_shutdown);
        signal(SIGTERM, note_shutdown);
    }
    &SHUTDOWN_REQUESTED
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Raise the soft `RLIMIT_NOFILE` to the hard limit and return the new
/// soft limit — thousands of concurrent sessions need thousands of file
/// descriptors, and the default soft limit is often 1024. Best-effort:
/// on failure the current soft limit is returned unchanged.
pub fn raise_nofile_limit() -> u64 {
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.cur >= lim.max {
            return lim.cur;
        }
        let raised = RLimit { cur: lim.max, max: lim.max };
        if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
            lim.max
        } else {
            lim.cur
        }
    }
}

/// Readiness interest for one registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when readable (or the peer half-closed).
    Read,
    /// Wake when writable.
    Write,
    /// Wake on either direction.
    ReadWrite,
}

impl Interest {
    fn bits(self) -> u32 {
        match self {
            Interest::Read => EPOLLIN | EPOLLRDHUP,
            Interest::Write => EPOLLOUT,
            Interest::ReadWrite => EPOLLIN | EPOLLRDHUP | EPOLLOUT,
        }
    }
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (includes peer half-close, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup — the connection is (or is about to be) dead.
    pub error: bool,
}

/// Token reserved for the internal wake `eventfd`; never delivered.
const WAKE_TOKEN: u64 = u64::MAX;

/// An owned epoll instance plus a wake `eventfd`.
///
/// `wait` runs on the reactor thread; `notify` may be called from any
/// thread to interrupt a blocked `wait` (the eventfd is drained
/// internally and never surfaces as an [`Event`]).
pub struct Poller {
    epfd: RawFd,
    wakefd: RawFd,
}

// RawFds are just integers; the kernel side is thread-safe for the
// operations used here (epoll_ctl/epoll_wait may race by design, and the
// eventfd write is how cross-thread wakeups work).
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

impl Poller {
    /// Create an epoll instance with its wake eventfd registered.
    pub fn new() -> io::Result<Self> {
        let epfd = unsafe { cvt(epoll_create1(EPOLL_CLOEXEC))? };
        let wakefd = match unsafe { cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) } {
            Ok(fd) => fd,
            Err(e) => {
                unsafe { close(epfd) };
                return Err(e);
            }
        };
        let poller = Poller { epfd, wakefd };
        poller.add(wakefd, WAKE_TOKEN, Interest::Read)?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest.bits(), data: token };
        unsafe { cvt(epoll_ctl(self.epfd, op, fd, &mut ev)) }.map(|_| ())
    }

    /// Register `fd` under `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest of an already registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove `fd` from the instance (safe to call on already-closed fds;
    /// errors are swallowed because closing an fd deregisters it anyway).
    pub fn remove(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        unsafe {
            let _ = epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev);
        }
    }

    /// Interrupt a blocked [`wait`](Self::wait) from another thread.
    pub fn notify(&self) {
        let one: u64 = 1;
        unsafe {
            let _ = write(self.wakefd, (&one as *const u64).cast(), 8);
        }
    }

    /// Wait up to `timeout` (forever when `None`), appending readiness
    /// events into `events` (cleared first). Wakeup-eventfd events are
    /// drained and filtered out; a `notify` therefore shows up only as an
    /// early return with possibly zero events.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a sub-millisecond deadline does not spin at 0.
            Some(d) => {
                let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
                ms.min(c_int::MAX as u128) as c_int
            }
        };
        let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            let r =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as c_int, timeout_ms) };
            if r >= 0 {
                break r as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            let (bits, data) = (ev.events, ev.data);
            if data == WAKE_TOKEN {
                let mut buf = 0u64;
                unsafe {
                    let _ = read(self.wakefd, (&mut buf as *mut u64).cast(), 8);
                }
                continue;
            }
            events.push(Event {
                token: data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.wakefd);
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write as IoWrite};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn poller_sees_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7, Interest::Read).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "no data yet: {events:?}");

        client.write_all(b"hi").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let mut s = server;
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 2);
    }

    #[test]
    fn notify_interrupts_wait_without_events() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let p2 = poller.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            p2.notify();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "notify did not interrupt");
        assert!(events.is_empty(), "wake eventfd must be filtered: {events:?}");
        t.join().unwrap();
    }

    #[test]
    fn modify_switches_interest_direction() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // Write interest on an idle socket: immediately writable.
        poller.add(server.as_raw_fd(), 1, Interest::Write).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable), "{events:?}");

        // Switch to read interest: silent until the peer writes.
        poller.modify(server.as_raw_fd(), 1, Interest::Read).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "{events:?}");
        client.write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable), "{events:?}");
    }

    #[test]
    fn raise_nofile_limit_reports_a_positive_limit() {
        assert!(raise_nofile_limit() > 0);
    }
}
