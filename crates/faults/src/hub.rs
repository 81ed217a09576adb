//! The resilience bundle an engine carries, and per-run degrade state.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::breaker::CircuitBreaker;
use crate::plan::{Fault, FaultInjector, FaultPlan, FaultSite};
use crate::retry::RetryPolicy;
use crate::stats::DegradeStats;

/// Why a run's answer was degraded (the first cause wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The planning deadline expired; an anytime answer was emitted.
    Deadline = 1,
    /// The run's fault budget was exhausted mid-plan.
    FaultBudget = 2,
    /// The data source's breaker opened; planning continued on cached
    /// samples only.
    CacheFallback = 3,
    /// Sentence emission failed; the speech was cut short.
    EmitFailure = 4,
}

impl DegradeReason {
    fn from_u8(v: u8) -> Option<DegradeReason> {
        match v {
            1 => Some(DegradeReason::Deadline),
            2 => Some(DegradeReason::FaultBudget),
            3 => Some(DegradeReason::CacheFallback),
            4 => Some(DegradeReason::EmitFailure),
            _ => None,
        }
    }
}

/// Per-run degrade state: the fault tally against the budget, and the
/// degraded flag the answer is tagged with. Every run has one, shared
/// (via `Arc`) between the samplers, the sentence source, and the
/// emitting stream.
#[derive(Debug)]
pub struct RunState {
    faults: AtomicU64,
    budget: u64,
    reason: AtomicU8,
    fell_back: AtomicBool,
}

impl RunState {
    /// Fresh state with the given fault budget (`u64::MAX` = unlimited).
    pub fn new(budget: u64) -> Self {
        RunState {
            faults: AtomicU64::new(0),
            budget,
            reason: AtomicU8::new(0),
            fell_back: AtomicBool::new(false),
        }
    }

    /// Count one observed fault; returns the new tally.
    pub fn note_fault(&self) -> u64 {
        self.faults.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Faults observed so far.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Whether the fault budget is exhausted (the anytime-answer trigger).
    pub fn budget_exhausted(&self) -> bool {
        self.faults.load(Ordering::Relaxed) >= self.budget
    }

    /// Tag the run degraded; the first recorded reason is kept.
    pub fn mark_degraded(&self, reason: DegradeReason) {
        let _ = self.reason.compare_exchange(0, reason as u8, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Record that this run fell back to cached samples because its data
    /// source became unavailable; `true` exactly once per run, so the
    /// caller can count fallbacks without double-counting.
    pub fn note_fallback(&self) -> bool {
        !self.fell_back.swap(true, Ordering::Relaxed)
    }

    /// Whether the answer must be tagged `degraded: true`.
    pub fn degraded(&self) -> bool {
        self.reason.load(Ordering::Relaxed) != 0
    }

    /// The first degrade cause, if any.
    pub fn reason(&self) -> Option<DegradeReason> {
        DegradeReason::from_u8(self.reason.load(Ordering::Relaxed))
    }
}

impl Default for RunState {
    fn default() -> Self {
        RunState::new(u64::MAX)
    }
}

/// Everything an engine needs to degrade gracefully, bundled: the
/// (optional) fault injector, the retry policy, the data source's circuit
/// breaker, the per-run fault budget, and the process-wide
/// [`DegradeStats`]. Every engine holds one behind an `Arc`; the default
/// has no injector and is inert — every roll is a `None` branch and no
/// planner randomness or iteration count changes — but a deadline cut is
/// still committed through the anytime path and marked degraded.
#[derive(Debug)]
pub struct Resilience {
    injector: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    fault_budget: u64,
    stats: Arc<DegradeStats>,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience::new(None)
    }
}

/// Default breaker trip threshold and cooldown.
const BREAKER_DEFAULTS: (u32, Duration) = (5, Duration::from_millis(10));

impl Resilience {
    /// A bundle with default ladder settings; `plan` enables injection.
    pub fn new(plan: Option<FaultPlan>) -> Self {
        Resilience {
            injector: plan.map(|p| Arc::new(FaultInjector::new(p))),
            retry: RetryPolicy::default(),
            breaker: CircuitBreaker::new(BREAKER_DEFAULTS.0, BREAKER_DEFAULTS.1),
            fault_budget: 256,
            stats: Arc::new(DegradeStats::default()),
        }
    }

    /// Parse the full `--fault-plan` spec: every [`FaultPlan::parse`] key
    /// plus the ladder keys `budget=N` (per-run fault budget),
    /// `retries=N`, `backoff_us=N` (retry base), `breaker=N` (trip
    /// threshold), and `cooldown_ms=N`.
    pub fn from_spec(spec: &str) -> Result<Resilience, String> {
        let mut plan_parts: Vec<&str> = Vec::new();
        let mut out = Resilience::new(None);
        let (mut threshold, mut cooldown) = BREAKER_DEFAULTS;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let bad = |what: &str| format!("fault-plan: bad {what} in {part:?}");
            match part.split_once('=').map(|(k, v)| (k.trim(), v.trim())) {
                Some(("budget", v)) => out.fault_budget = v.parse().map_err(|_| bad("budget"))?,
                Some(("retries", v)) => {
                    out.retry.max_retries = v.parse().map_err(|_| bad("retries"))?;
                }
                Some(("backoff_us", v)) => {
                    out.retry.base = Duration::from_micros(v.parse().map_err(|_| bad("backoff"))?);
                }
                Some(("breaker", v)) => {
                    threshold = v.parse().map_err(|_| bad("breaker threshold"))?;
                }
                Some(("cooldown_ms", v)) => {
                    cooldown = Duration::from_millis(v.parse().map_err(|_| bad("cooldown"))?);
                }
                _ => plan_parts.push(part),
            }
        }
        let plan = FaultPlan::parse(&plan_parts.join(","))?;
        if !plan.is_empty() || plan.seed != 0 {
            out.injector = Some(Arc::new(FaultInjector::new(plan)));
        }
        Ok(out.with_breaker(threshold, cooldown))
    }

    /// Rebuild the data-source breaker with this trip threshold and
    /// cooldown.
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.breaker = CircuitBreaker::new(threshold, cooldown);
        self
    }

    /// Override the per-run fault budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.fault_budget = budget;
        self
    }

    /// The attached injector, if any (shared with engine caches).
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Roll the injector at `site` (`None` without an injector or when
    /// the roll misses).
    #[inline]
    pub fn roll(&self, site: FaultSite) -> Option<Fault> {
        self.injector.as_ref()?.roll(site)
    }

    /// The retry policy for source reads.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// A fresh per-run state carrying this bundle's fault budget.
    pub fn new_run(&self) -> Arc<RunState> {
        Arc::new(RunState::new(self.fault_budget))
    }

    /// The breaker guarding the data source, shared by every run.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The shared degradation counters.
    pub fn stats(&self) -> &Arc<DegradeStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteSchedule;

    #[test]
    fn inert_bundle_never_rolls_faults() {
        let r = Resilience::default();
        assert!(r.injector().is_none());
        for site in FaultSite::ALL {
            assert!(r.roll(site).is_none());
        }
    }

    #[test]
    fn run_state_counts_fallback_once() {
        let run = RunState::default();
        assert!(run.note_fallback(), "first fallback counts");
        assert!(!run.note_fallback(), "repeat fallbacks do not");
    }

    #[test]
    fn run_state_tracks_budget_and_first_reason() {
        let run = RunState::new(2);
        assert!(!run.budget_exhausted());
        run.note_fault();
        assert!(!run.budget_exhausted());
        run.note_fault();
        assert!(run.budget_exhausted());
        assert!(!run.degraded());
        run.mark_degraded(DegradeReason::FaultBudget);
        run.mark_degraded(DegradeReason::Deadline);
        assert_eq!(run.reason(), Some(DegradeReason::FaultBudget), "first cause wins");
        assert!(run.degraded());
    }

    #[test]
    fn from_spec_parses_plan_and_ladder_keys() {
        let r = Resilience::from_spec(
            "seed=9,read=0.25,budget=32,retries=4,backoff_us=10,breaker=3,cooldown_ms=5",
        )
        .unwrap();
        let inj = r.injector().expect("plan attached");
        assert_eq!(inj.plan().seed, 9);
        assert_eq!(inj.plan().site(FaultSite::DataRead).unwrap().probability, 0.25);
        assert_eq!(r.retry().max_retries, 4);
        assert_eq!(r.retry().base, Duration::from_micros(10));
        assert_eq!(r.fault_budget, 32);
        let run = r.new_run();
        for _ in 0..32 {
            run.note_fault();
        }
        assert!(run.budget_exhausted());
        assert!(Resilience::from_spec("nonsense").is_err());
    }

    #[test]
    fn roll_respects_attached_plan() {
        let plan = FaultPlan::new(1).with_site(FaultSite::Emit, SiteSchedule::error(1.0));
        let r = Resilience::new(Some(plan));
        assert!(r.roll(FaultSite::Emit).is_some());
        assert!(r.roll(FaultSite::DataRead).is_none());
        assert_eq!(r.stats().snapshot().retries, 0);
    }
}
