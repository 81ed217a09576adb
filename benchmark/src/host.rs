//! Facts about the host and the process: the result header, CPU time and
//! peak memory.

use std::process::Command;

use voxolap_json::Value;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines().find(|l| l.starts_with(key))?.split_whitespace().nth(1)?.parse().ok()
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` (linux/time.h).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far (all threads),
/// at the scheduler's nanosecond resolution: `/proc/self/stat` counts in
/// 10-ms ticks, too coarse for the CPU of one request.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // 64-bit Linux C library expects, and the call keeps no pointer to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn rss_peak_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resident set right now (`VmRSS`) in MiB.
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Start a new peak, so that every pass of a workload reads its own: what
/// the benchmark allocates between two passes (a reopened table, the
/// judging) is then billed to neither. Best effort — where the kernel
/// refuses, the peak stays cumulative.
pub fn reset_rss_peak() {
    // "5" clears the peak resident set size (proc(5), clear_refs).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header stamped on every result: without it a number cannot be
/// compared with one taken elsewhere.
pub fn header(fields: Vec<(&str, Value)>) -> Value {
    let ram_mb = proc_field("/proc/meminfo", "MemTotal:").map_or(0, |kb| kb / 1024);
    let mut all = vec![
        ("nproc", nproc().into()),
        ("ram_mb", ram_mb.into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        ("git_commit", command_line("git", &["rev-parse", "--short", "HEAD"]).into()),
    ];
    all.extend(fields);
    Value::obj(all)
}
