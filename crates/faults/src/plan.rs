//! Seeded fault plans and the injector that rolls against them.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{splitmix64, unit_f64};

/// Named injection points: the storage layer's failures this process can
/// meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A write-ahead-log record write during a durable ingest commit —
    /// Storage stage (transient: the batch fails but the log stays
    /// usable).
    WalAppend = 0,
    /// A WAL fsync — Storage stage. Fatal for the log by the fsyncgate
    /// rule: a failed fsync may have lost pages silently, so the log is
    /// poisoned rather than retried.
    WalFsync = 1,
}

/// Number of distinct fault sites.
pub const N_SITES: usize = 2;

impl FaultSite {
    /// All sites, in wire order.
    pub const ALL: [FaultSite; N_SITES] = [FaultSite::WalAppend, FaultSite::WalFsync];

    /// Stable short name (used by the `--fault-plan` spec).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalAppend => "wal",
            FaultSite::WalFsync => "fsync",
        }
    }

    /// Per-site hash salt so the same counter value rolls independently
    /// at different sites. Fixed per site, so a plan's `wal` and `fsync`
    /// rolls do not move when a site is added or removed.
    fn salt(self) -> u64 {
        match self {
            FaultSite::WalAppend => 0x1D8E_4E27_C47D_124F,
            FaultSite::WalFsync => 0xEB44_ACCA_B455_D165,
        }
    }
}

/// How often a site fails when rolled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSchedule {
    /// Per-roll fault probability in `[0, 1]`.
    pub probability: f64,
}

impl SiteSchedule {
    /// An error schedule with the given probability.
    pub fn error(probability: f64) -> Self {
        SiteSchedule { probability }
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

    /// Parse a `--fault-plan` spec: comma-separated `key=value` pairs,
    /// `seed=N` and the per-site probabilities `wal=P` and `fsync=P`
    /// (each in `[0,1]`). Unknown keys are rejected so typos surface
    /// immediately.
    ///
    /// ```
    /// use voxolap_faults::{FaultPlan, FaultSite};
    /// let plan = FaultPlan::parse("seed=7,fsync=0.05").unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.site(FaultSite::WalFsync).unwrap().probability, 0.05);
    /// assert!(plan.site(FaultSite::WalAppend).is_none());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan: expected key=value, got {part:?}"))?;
            let bad = |what: &str| format!("fault-plan: bad {what} in {part:?}");
            match key.trim() {
                "seed" => plan.seed = value.trim().parse().map_err(|_| bad("seed"))?,
                site_key => {
                    let site = FaultSite::ALL
                        .into_iter()
                        .find(|s| s.name() == site_key)
                        .ok_or_else(|| format!("fault-plan: unknown key {site_key:?}"))?;
                    let p: f64 = value.trim().parse().map_err(|_| bad("probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(bad("probability (must be in [0,1])"));
                    }
                    plan.sites[site as usize] = Some(SiteSchedule::error(p));
                }
            }
        }
        Ok(plan)
    }
}

/// One fault that came up at a site.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Where it was injected.
    pub site: FaultSite,
    /// The roll's hash — a deterministic token that names the fault in
    /// error messages.
    pub token: u64,
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
}

impl FaultInjector {
    /// Create an injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, counters: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Roll at `site`: `None` (nothing happens) or the fault to apply.
    #[inline]
    pub fn roll(&self, site: FaultSite) -> Option<Fault> {
        let sched = self.plan.sites[site as usize]?;
        let n = self.counters[site as usize].fetch_add(1, Ordering::Relaxed);
        let token =
            splitmix64(self.plan.seed ^ site.salt() ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        (unit_f64(token) < sched.probability).then_some(Fault { site, token })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults_and_keeps_counters_idle() {
        let inj = FaultInjector::new(FaultPlan::new(9));
        for _ in 0..1000 {
            assert!(inj.roll(FaultSite::WalAppend).is_none());
        }
        // The site had no schedule, so its counter never advanced.
        assert_eq!(inj.counters[FaultSite::WalAppend as usize].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn rolls_are_deterministic_under_seed() {
        let plan = FaultPlan::new(3).with_site(FaultSite::WalAppend, SiteSchedule::error(0.3));
        let run = || {
            let inj = FaultInjector::new(plan.clone());
            (0..200).map(|_| inj.roll(FaultSite::WalAppend).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert!(run().iter().any(|&f| f), "p=0.3 over 200 rolls fires");
        assert!(run().iter().any(|&f| !f), "p=0.3 over 200 rolls also misses");
    }

    #[test]
    fn probability_is_roughly_honored() {
        let plan = FaultPlan::new(11).with_site(FaultSite::WalAppend, SiteSchedule::error(0.2));
        let inj = FaultInjector::new(plan);
        let fired = (0..10_000).filter(|_| inj.roll(FaultSite::WalAppend).is_some()).count();
        let rate = fired as f64 / 10_000.0;
        assert!((0.15..0.25).contains(&rate), "rate {rate}");
    }

    #[test]
    fn sites_roll_independently() {
        let plan = FaultPlan::new(5)
            .with_site(FaultSite::WalAppend, SiteSchedule::error(1.0))
            .with_site(FaultSite::WalFsync, SiteSchedule::error(0.0));
        let inj = FaultInjector::new(plan);
        assert!(inj.roll(FaultSite::WalAppend).is_some());
        assert!(inj.roll(FaultSite::WalFsync).is_none());
        let inj = FaultInjector::new(
            FaultPlan::new(5).with_site(FaultSite::WalFsync, SiteSchedule::error(1.0)),
        );
        assert!(inj.roll(FaultSite::WalAppend).is_none(), "unscheduled site is silent");
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("seed=17, wal=0.1, fsync=0.5").unwrap();
        assert_eq!(plan.seed, 17);
        assert_eq!(plan.site(FaultSite::WalAppend).unwrap().probability, 0.1);
        assert_eq!(plan.site(FaultSite::WalFsync).unwrap().probability, 0.5);
    }

    #[test]
    fn parse_storage_sites() {
        let plan = FaultPlan::parse("seed=4,fsync=0.1").unwrap();
        assert_eq!(plan.site(FaultSite::WalFsync).unwrap().probability, 0.1);
        assert!(plan.site(FaultSite::WalAppend).is_none());
        let inj = FaultInjector::new(
            FaultPlan::new(1).with_site(FaultSite::WalFsync, SiteSchedule::error(1.0)),
        );
        assert!(inj.roll(FaultSite::WalFsync).is_some());
        assert!(inj.roll(FaultSite::WalAppend).is_none(), "storage sites roll independently");
    }

    #[test]
    fn parse_latency_only_and_rejects_garbage() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("wal=1.5").is_err());
        assert!(FaultPlan::parse("wal").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        // Keys of sites and ladder rungs this process cannot meet fail
        // loudly instead of being ignored.
        let removed = [
            "read",
            "sample",
            "emit",
            "snap",
            "shard",
            "latency_us",
            "budget",
            "retries",
            "backoff_us",
            "breaker",
            "cooldown_ms",
        ];
        for key in removed {
            assert!(FaultPlan::parse(&format!("{key}=1")).is_err(), "{key}");
        }
        assert!(FaultPlan::parse("latency_only").is_err());
        assert!(FaultPlan::parse("wal=0.5,latency_only").is_err());
    }
}
