//! The server's one foreign-function module: the two process settings
//! `std` has no API for — `SIGTERM`/`SIGINT` handlers and the open-file
//! limit — declared directly against the C library `std` already links
//! (the workspace takes no `libc` crate). Linux-only.

#![allow(unsafe_code)]

use std::os::raw::c_int;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
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
    // (draining, the WAL flush) happens on the main thread.
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Install `SIGTERM`/`SIGINT` handlers that request a graceful shutdown
/// instead of killing the process outright, and return the flag the main
/// loop polls. Graceful shutdown is what lets the server drain in-flight
/// requests and flush + fsync the WAL (DESIGN.md §17) — a `SIGKILL`
/// skips both, and the next boot recovers what reached the log.
pub fn install_shutdown_signals() -> &'static std::sync::atomic::AtomicBool {
    // SAFETY: `signal` takes a signal number and a handler with the C ABI;
    // `note_shutdown` is one, and it only stores to an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, note_shutdown);
        signal(SIGTERM, note_shutdown);
    }
    &SHUTDOWN_REQUESTED
}

/// Raise the soft `RLIMIT_NOFILE` to the hard limit and return the new
/// soft limit — thousands of concurrent sessions need thousands of file
/// descriptors, and the default soft limit is often 1024. Best-effort:
/// on failure the current soft limit is returned unchanged.
pub fn raise_nofile_limit() -> u64 {
    // SAFETY: both calls read or write one `RLimit`, which matches the C
    // `struct rlimit` on the 64-bit Linux targets this runs on, through a
    // pointer to a live local.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_nofile_limit_reports_a_positive_limit() {
        assert!(raise_nofile_limit() > 0);
    }
}
