//! The resilience bundle an engine carries, and per-run degrade state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::plan::{FaultInjector, FaultPlan};
use crate::stats::DegradeStats;

/// Per-run degrade state: the degraded flag the answer is tagged with.
/// Every run has one, shared (via `Arc`) between the samplers, the
/// sentence source, and the emitting stream.
#[derive(Debug, Default)]
pub struct RunState {
    degraded: AtomicBool,
}

impl RunState {
    /// Tag the run degraded.
    pub fn mark_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Whether the answer must be tagged `degraded: true`.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// Everything an engine needs to count and inject failures, bundled: the
/// (optional) fault injector its sample cache rolls, and the process-wide
/// [`DegradeStats`]. Every engine holds one behind an `Arc`; the default
/// has no injector and is inert — every roll is a `None` branch and no
/// planner randomness or iteration count changes — but a deadline cut is
/// still committed through the anytime path and counted degraded.
#[derive(Debug, Default)]
pub struct Resilience {
    injector: Option<Arc<FaultInjector>>,
    stats: Arc<DegradeStats>,
}

impl Resilience {
    /// A bundle counting into fresh stats; `plan` enables injection.
    pub fn new(plan: Option<FaultPlan>) -> Self {
        Resilience {
            injector: plan.map(|p| Arc::new(FaultInjector::new(p))),
            stats: Arc::default(),
        }
    }

    /// The attached injector, if any (shared with engine caches and the
    /// storage layer).
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// The shared degradation counters.
    pub fn stats(&self) -> &Arc<DegradeStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultSite, SiteSchedule};

    #[test]
    fn inert_bundle_never_rolls_faults() {
        let r = Resilience::default();
        assert!(r.injector().is_none());
        assert_eq!(r.stats().snapshot(), Default::default());
    }

    #[test]
    fn roll_respects_attached_plan() {
        let plan = FaultPlan::new(1).with_site(FaultSite::CacheShard, SiteSchedule::error(1.0));
        let r = Resilience::new(Some(plan));
        let inj = r.injector().expect("plan attached");
        assert!(inj.roll(FaultSite::CacheShard).is_some());
        assert!(inj.roll(FaultSite::WalAppend).is_none());
        assert_eq!(r.stats().snapshot().poison_recoveries, 0);
    }
}
