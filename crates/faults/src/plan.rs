//! Seeded fault plans and the injector that rolls against them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::{splitmix64, unit_f64};

/// Named injection points: the failures this process can meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// An access to a sharded sample-cache bucket — models a thread dying
    /// while holding a shard lock (the bucket is marked torn).
    CacheShard = 0,
    /// A write-ahead-log record write during a durable ingest commit —
    /// Storage stage (transient: the batch fails but the log stays
    /// usable).
    WalAppend = 1,
    /// A WAL fsync — Storage stage. Fatal for the log by the fsyncgate
    /// rule: a failed fsync may have lost pages silently, so the log is
    /// poisoned rather than retried.
    WalFsync = 2,
}

/// Number of distinct fault sites.
pub const N_SITES: usize = 3;

impl FaultSite {
    /// All sites, in wire order.
    pub const ALL: [FaultSite; N_SITES] =
        [FaultSite::CacheShard, FaultSite::WalAppend, FaultSite::WalFsync];

    /// Stable short name (used by the `--fault-plan` spec).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CacheShard => "shard",
            FaultSite::WalAppend => "wal",
            FaultSite::WalFsync => "fsync",
        }
    }

    /// Per-site hash salt so the same counter value rolls independently
    /// at different sites.
    fn salt(self) -> u64 {
        [0xE703_7ED1_A0B4_28DB, 0x1D8E_4E27_C47D_124F, 0xEB44_ACCA_B455_D165][self as usize]
    }
}

/// What happens at a site when its roll comes up: an added stall, an
/// error, or both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSchedule {
    /// Per-roll fault probability in `[0, 1]`.
    pub probability: f64,
    /// Stall injected on each fault (zero = none).
    pub latency: Duration,
    /// Whether the fault is an error (vs. latency only).
    pub error: bool,
}

impl SiteSchedule {
    /// An error schedule with the given probability and no added latency.
    pub fn error(probability: f64) -> Self {
        SiteSchedule { probability, latency: Duration::ZERO, error: true }
    }
}

/// A seeded, per-site fault schedule. Empty by default; sites opt in via
/// [`with_site`](FaultPlan::with_site) or the [`parse`](FaultPlan::parse)
/// spec string.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the deterministic roll stream.
    pub seed: u64,
    sites: [Option<SiteSchedule>; N_SITES],
}

impl FaultPlan {
    /// An empty plan (no site faults) rolling under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, sites: [None; N_SITES] }
    }

    /// Attach a schedule to one site.
    pub fn with_site(mut self, site: FaultSite, schedule: SiteSchedule) -> Self {
        self.sites[site as usize] = Some(schedule);
        self
    }

    /// The schedule at `site`, if any.
    pub fn site(&self, site: FaultSite) -> Option<SiteSchedule> {
        self.sites[site as usize]
    }

    /// Parse a `--fault-plan` spec: comma-separated `key=value` pairs.
    ///
    /// Plan keys: `seed=N`, per-site probabilities `shard=P`, `wal=P`,
    /// `fsync=P` (each in `[0,1]`), `latency_us=N` (stall added
    /// to every enabled site), and `latency_only` (faults stall but do not
    /// error). Unknown keys are rejected so typos surface immediately.
    ///
    /// ```
    /// use voxolap_faults::{FaultPlan, FaultSite};
    /// let plan = FaultPlan::parse("seed=7,shard=0.2,fsync=0.05").unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.site(FaultSite::CacheShard).unwrap().probability, 0.2);
    /// assert!(plan.site(FaultSite::WalAppend).is_none());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut latency = Duration::ZERO;
        let mut error = true;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "latency_only" {
                error = false;
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan: expected key=value, got {part:?}"))?;
            let bad = |what: &str| format!("fault-plan: bad {what} in {part:?}");
            match key.trim() {
                "seed" => plan.seed = value.trim().parse().map_err(|_| bad("seed"))?,
                "latency_us" => {
                    latency =
                        Duration::from_micros(value.trim().parse().map_err(|_| bad("latency"))?);
                }
                site_key => {
                    let site = FaultSite::ALL
                        .into_iter()
                        .find(|s| s.name() == site_key)
                        .ok_or_else(|| format!("fault-plan: unknown key {site_key:?}"))?;
                    let p: f64 = value.trim().parse().map_err(|_| bad("probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(bad("probability (must be in [0,1])"));
                    }
                    plan.sites[site as usize] =
                        Some(SiteSchedule { probability: p, latency: Duration::ZERO, error: true });
                }
            }
        }
        for slot in plan.sites.iter_mut().flatten() {
            slot.latency = latency;
            slot.error = error;
        }
        Ok(plan)
    }
}

/// One fault that came up at a site.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Where it was injected.
    pub site: FaultSite,
    /// Stall to apply (already the schedule's value).
    pub latency: Duration,
    /// Whether this fault is an error (vs. latency only).
    pub error: bool,
    /// The roll's hash — a deterministic token that names the fault in
    /// error messages.
    pub token: u64,
}

impl Fault {
    /// Apply the fault's latency (no-op for zero stalls).
    pub fn stall(&self) {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
    }
}

/// Rolls faults against a [`FaultPlan`].
///
/// Each site keeps its own atomic roll counter; roll `n` at a site hashes
/// `seed ^ salt(site) ^ f(n)`, so outcomes are a pure function of
/// `(seed, site, n)` — reproducible across thread interleavings for any
/// fixed per-site roll order, and trivially so single-threaded. A site
/// with no schedule short-circuits before touching its counter.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counters: [AtomicU64; N_SITES],
    injected: [AtomicU64; N_SITES],
}

impl FaultInjector {
    /// Create an injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Roll at `site`: `None` (nothing happens) or the fault to apply.
    #[inline]
    pub fn roll(&self, site: FaultSite) -> Option<Fault> {
        let sched = self.plan.sites[site as usize]?;
        let n = self.counters[site as usize].fetch_add(1, Ordering::Relaxed);
        let token =
            splitmix64(self.plan.seed ^ site.salt() ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        if unit_f64(token) < sched.probability {
            self.injected[site as usize].fetch_add(1, Ordering::Relaxed);
            Some(Fault { site, latency: sched.latency, error: sched.error, token })
        } else {
            None
        }
    }

    /// Faults injected so far at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize].load(Ordering::Relaxed)
    }

    /// Faults injected so far across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults_and_keeps_counters_idle() {
        let inj = FaultInjector::new(FaultPlan::new(9));
        for _ in 0..1000 {
            assert!(inj.roll(FaultSite::CacheShard).is_none());
        }
        assert_eq!(inj.total_injected(), 0);
        // The site had no schedule, so its counter never advanced.
        assert_eq!(inj.counters[FaultSite::CacheShard as usize].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn rolls_are_deterministic_under_seed() {
        let plan = FaultPlan::new(3).with_site(FaultSite::CacheShard, SiteSchedule::error(0.3));
        let run = || {
            let inj = FaultInjector::new(plan.clone());
            (0..200).map(|_| inj.roll(FaultSite::CacheShard).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert!(run().iter().any(|&f| f), "p=0.3 over 200 rolls fires");
        assert!(run().iter().any(|&f| !f), "p=0.3 over 200 rolls also misses");
    }

    #[test]
    fn probability_is_roughly_honored() {
        let plan = FaultPlan::new(11).with_site(FaultSite::CacheShard, SiteSchedule::error(0.2));
        let inj = FaultInjector::new(plan);
        for _ in 0..10_000 {
            inj.roll(FaultSite::CacheShard);
        }
        let rate = inj.injected(FaultSite::CacheShard) as f64 / 10_000.0;
        assert!((0.15..0.25).contains(&rate), "rate {rate}");
    }

    #[test]
    fn sites_roll_independently() {
        let plan = FaultPlan::new(5)
            .with_site(FaultSite::CacheShard, SiteSchedule::error(1.0))
            .with_site(FaultSite::WalAppend, SiteSchedule::error(0.0));
        let inj = FaultInjector::new(plan);
        assert!(inj.roll(FaultSite::CacheShard).is_some());
        assert!(inj.roll(FaultSite::WalAppend).is_none());
        assert!(inj.roll(FaultSite::WalFsync).is_none(), "unscheduled site is silent");
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("seed=17, shard=0.5, wal=0.1, latency_us=250").unwrap();
        assert_eq!(plan.seed, 17);
        let shard = plan.site(FaultSite::CacheShard).unwrap();
        assert_eq!(shard.probability, 0.5);
        assert_eq!(shard.latency, Duration::from_micros(250));
        assert!(shard.error);
    }

    #[test]
    fn parse_storage_sites() {
        let plan = FaultPlan::parse("seed=4,wal=0.2,fsync=0.1").unwrap();
        assert_eq!(plan.site(FaultSite::WalAppend).unwrap().probability, 0.2);
        assert_eq!(plan.site(FaultSite::WalFsync).unwrap().probability, 0.1);
        assert!(plan.site(FaultSite::CacheShard).is_none());
        let inj = FaultInjector::new(
            FaultPlan::new(1).with_site(FaultSite::WalFsync, SiteSchedule::error(1.0)),
        );
        assert!(inj.roll(FaultSite::WalFsync).is_some());
        assert!(inj.roll(FaultSite::WalAppend).is_none(), "storage sites roll independently");
    }

    #[test]
    fn parse_latency_only_and_rejects_garbage() {
        let plan = FaultPlan::parse("shard=1.0,latency_only,latency_us=10").unwrap();
        let shard = plan.site(FaultSite::CacheShard).unwrap();
        assert!(!shard.error);
        assert_eq!(shard.latency, Duration::from_micros(10));
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("shard=1.5").is_err());
        assert!(FaultPlan::parse("shard").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        // Keys of sites and ladder rungs this process cannot meet fail
        // loudly instead of being ignored.
        let removed = [
            "read",
            "sample",
            "emit",
            "snap",
            "budget",
            "retries",
            "backoff_us",
            "breaker",
            "cooldown_ms",
        ];
        for key in removed {
            assert!(FaultPlan::parse(&format!("{key}=1")).is_err(), "{key}");
        }
    }
}
