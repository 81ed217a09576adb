//! # voxolap-faults
//!
//! Deterministic fault injection at the sites where this process can
//! really fail, and the counters that say how often it did (DESIGN.md
//! §12).
//!
//! A **fault site** ([`FaultSite`]) names one failure this process can
//! meet: a worker panicking while it holds a sample-cache stripe
//! (`CacheShard`), and the storage layer's write-ahead-log write and
//! fsync (`WalAppend`, `WalFsync`). A
//! seeded [`FaultPlan`] assigns a probability/latency/error schedule to
//! any subset of sites; a [`FaultInjector`] rolls against it with a
//! counter-hash (splitmix64 over `seed ^ site ^ counter`), so a schedule
//! is reproducible from its seed alone, independent of thread
//! interleaving, and consumes **no planner randomness**: with no schedule
//! attached every roll is a branch on a `None` — planning output stays
//! bit-identical to a build without the harness.
//!
//! The third failure, a deadline, needs no injector: when it passes
//! mid-plan the planner commits the best baseline it has and stops,
//! tagging the answer degraded in its [`RunState`]. Every run has one,
//! injector or not, so a deadline means this on every engine.
//! [`DegradeStats`] counts clean and degraded answers and rebuilt stripes
//! across runs for observability (`GET /stats`).

mod hub;
mod plan;
mod stats;

pub use hub::{Resilience, RunState};
pub use plan::{Fault, FaultInjector, FaultPlan, FaultSite, SiteSchedule};
pub use stats::{DegradeSnapshot, DegradeStats};

/// splitmix64 — the crate's only randomness primitive. Stateless: the
/// caller supplies the full input, so identical inputs give identical
/// outputs on every thread.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map a hash to a uniform f64 in `[0, 1)`.
#[inline]
pub(crate) fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stateless_and_spread() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        let u = unit_f64(splitmix64(7));
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn unit_f64_covers_range() {
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for i in 0..10_000u64 {
            let u = unit_f64(splitmix64(i));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01, "min {lo}");
        assert!(hi > 0.99, "max {hi}");
    }
}
