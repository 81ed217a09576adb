//! Engine-side graceful degradation (DESIGN.md §12).
//!
//! Every run opens a [`ResCtx`] on its engine's bundle and threads it
//! through ingestion, sampling and emission. Each data-read batch walks
//! the degradation ladder:
//!
//! 1. **retry** — a failed read is retried with exponential backoff and
//!    deterministic jitter;
//! 2. **circuit breaker** — repeated consecutive failures trip the
//!    source's breaker; while it is open, reads are skipped entirely and
//!    planning continues on whatever the sample cache already holds (a
//!    warm start's replay is itself such a read: a source that is down
//!    from the start leaves only the exact and stale-exact rungs);
//! 3. **anytime answer** — when the run's deadline passes or its fault
//!    budget is exhausted mid-plan, the driver commits what it has: a
//!    shortened but grammar-valid speech tagged `degraded: true`.
//!
//! The engine has two states, not three: a bundle without an injector
//! (the default of every engine) and one with. Without an injector the
//! fault sites roll nothing and consume no randomness, so fault-free runs
//! stay bit-identical to the pre-fault engines (guarded by parity tests);
//! rung 3 needs no injector, so a deadline means the same thing on both.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use voxolap_faults::{DegradeReason, FaultSite, Resilience, RunState};

use crate::pipeline::cancel::{CancelKind, CancelToken};

/// One run's resilience context: the engine's shared [`Resilience`] bundle
/// and this run's [`RunState`]. Opened once per vocalization; the stream,
/// the sentence source and every worker hold a clone.
#[derive(Debug, Clone)]
pub(crate) struct ResCtx {
    pub(crate) bundle: Arc<Resilience>,
    pub(crate) run: Arc<RunState>,
}

impl ResCtx {
    /// Open a run on `bundle`, with a fresh degrade state carrying its
    /// fault budget.
    pub(crate) fn new(bundle: &Arc<Resilience>) -> Self {
        ResCtx { bundle: bundle.clone(), run: bundle.new_run() }
    }

    /// A run on an inert bundle of its own, for planning outside any
    /// engine (the prior baseline, solo workers of tests and tools).
    pub(crate) fn inert() -> Self {
        ResCtx::new(&Arc::default())
    }

    /// Gate one read batch through the degradation ladder. `true` means
    /// the batch may stream rows; `false` means the source is unavailable
    /// (breaker open or just tripped) — the caller reads nothing and
    /// planning continues on cached samples, with the run marked degraded.
    ///
    /// Transient faults never yield `false`: a failed read is retried
    /// with backoff, and even an exhausted retry budget only counts one
    /// consecutive failure against the breaker before trying afresh.
    pub(crate) fn read_allowed(&self) -> bool {
        if self.bundle.injector().is_none() {
            return true;
        }
        let breaker = self.bundle.breaker();
        loop {
            if !breaker.allow() {
                self.fallback();
                return false;
            }
            let Some(fault) = self.bundle.roll(FaultSite::DataRead) else {
                breaker.on_success();
                return true;
            };
            self.run.note_fault();
            fault.stall();
            if !fault.error {
                breaker.on_success();
                return true;
            }
            // The read failed: retry with exponential backoff before
            // declaring this attempt a consecutive failure.
            let retry = self.bundle.retry();
            let stats = self.bundle.stats();
            let mut recovered = false;
            for attempt in 0..retry.max_retries {
                stats.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(retry.delay(attempt, fault.token));
                match self.bundle.roll(FaultSite::DataRead) {
                    None => {
                        recovered = true;
                        break;
                    }
                    Some(f) => {
                        self.run.note_fault();
                        f.stall();
                        if !f.error {
                            recovered = true;
                            break;
                        }
                    }
                }
            }
            if recovered {
                breaker.on_success();
                return true;
            }
            if breaker.on_failure() {
                stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
            // Not tripped yet: take another full attempt at the source.
        }
    }

    /// The source's breaker is open: record the cache fallback (once per
    /// run) and tag the answer degraded.
    fn fallback(&self) {
        if self.run.note_fallback() {
            self.bundle.stats().cache_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.run.mark_degraded(DegradeReason::CacheFallback);
    }

    /// Consult the Sample fault site before one sampling iteration.
    /// `true` means the iteration is lost (the caller still counts it, so
    /// progress floors terminate); a latency-only fault just stalls.
    pub(crate) fn sample_faulted(&self) -> bool {
        let Some(fault) = self.bundle.roll(FaultSite::Sample) else {
            return false;
        };
        self.run.note_fault();
        fault.stall();
        fault.error
    }
}

/// How a sampling round ends when interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundEnd {
    /// Keep sampling.
    Continue,
    /// Stop: yield no further sentence.
    Stop,
    /// Commit what the tree holds right now — the anytime answer.
    Anytime,
}

/// Decide how a per-sentence round reacts to cancellation and the fault
/// budget. `at_root` means no body sentence was committed yet (an anytime
/// commit is needed for the answer to contain at least a baseline);
/// `at_leaf` means the speech is already complete (nothing is lost, so
/// nothing is marked degraded). A client cancel always stops unmarked: the
/// consumer is gone.
pub(crate) fn round_status(
    cancel: &CancelToken,
    run: &RunState,
    at_root: bool,
    at_leaf: bool,
) -> RoundEnd {
    let cut = match cancel.fired_kind() {
        Some(CancelKind::Client) => return RoundEnd::Stop,
        Some(CancelKind::Deadline) => DegradeReason::Deadline,
        None if run.budget_exhausted() => DegradeReason::FaultBudget,
        None => return RoundEnd::Continue,
    };
    if at_leaf {
        return RoundEnd::Stop;
    }
    run.mark_degraded(cut);
    if at_root {
        RoundEnd::Anytime
    } else {
        RoundEnd::Stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use voxolap_faults::{FaultPlan, SiteSchedule};

    fn ctx(res: Resilience) -> (Arc<Resilience>, Arc<RunState>, ResCtx) {
        let rc = ResCtx::new(&Arc::new(res));
        (rc.bundle.clone(), rc.run.clone(), rc)
    }

    #[test]
    fn inert_context_always_allows_reads() {
        let (_res, run, rc) = ctx(Resilience::default());
        for _ in 0..100 {
            assert!(rc.read_allowed());
            assert!(!rc.sample_faulted());
        }
        assert_eq!(run.faults(), 0);
        assert!(!run.degraded());
    }

    #[test]
    fn transient_read_faults_recover_via_retry() {
        // 30% error rate: most batches succeed, failed ones recover on a
        // retry roll with overwhelming probability before the breaker
        // (threshold 5 consecutive) can trip.
        let plan = FaultPlan::new(3).with_site(FaultSite::DataRead, SiteSchedule::error(0.3));
        let res = Resilience::new(Some(plan))
            .with_breaker(50, Duration::from_millis(1))
            .with_budget(u64::MAX);
        let (res, run, rc) = ctx(res);
        for _ in 0..200 {
            assert!(rc.read_allowed(), "retries absorb transient faults");
        }
        assert!(run.faults() > 0, "faults were observed");
        assert!(res.stats().snapshot().retries > 0, "retries were counted");
        assert_eq!(res.stats().snapshot().cache_fallbacks, 0);
        assert!(!run.degraded());
    }

    #[test]
    fn permanent_failure_trips_breaker_and_falls_back() {
        let plan = FaultPlan::new(1).with_site(FaultSite::DataRead, SiteSchedule::error(1.0));
        let res = Resilience::new(Some(plan)).with_breaker(3, Duration::from_secs(3600));
        let (res, run, rc) = ctx(res);
        assert!(!rc.read_allowed(), "a dead source denies the batch");
        assert!(!rc.read_allowed(), "breaker stays open within cooldown");
        let snap = res.stats().snapshot();
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.cache_fallbacks, 1, "fallback counted once per run");
        assert!(snap.retries >= 3 * 2, "each failure cycle retried");
        assert!(run.degraded());
        assert_eq!(run.reason(), Some(DegradeReason::CacheFallback));
    }

    #[test]
    fn breaker_probe_recovers_after_cooldown() {
        let plan = FaultPlan::new(1).with_site(FaultSite::DataRead, SiteSchedule::error(1.0));
        let res = Resilience::new(Some(plan)).with_breaker(2, Duration::from_millis(5));
        let (res, run, rc) = ctx(res);
        assert!(!rc.read_allowed());
        // Exhaust the deterministic failing prefix so later rolls can
        // pass, then wait out the cooldown: the half-open probe closes
        // the breaker and reads resume.
        let inj = res.injector().unwrap();
        let mut probe_plan_done = false;
        for _ in 0..200 {
            if inj.roll(FaultSite::DataRead).is_none() {
                probe_plan_done = true;
                break;
            }
        }
        // p = 1.0 never rolls a miss; flip expectations accordingly.
        assert!(!probe_plan_done, "p=1.0 always faults");
        std::thread::sleep(Duration::from_millis(6));
        assert!(!rc.read_allowed(), "probe fails against p=1.0 and re-opens");
        assert!(res.stats().snapshot().breaker_trips >= 2, "failed probe re-trips");
        assert!(run.degraded());
    }

    #[test]
    fn sample_faults_stall_or_skip() {
        let plan = FaultPlan::new(9).with_site(
            FaultSite::Sample,
            SiteSchedule { probability: 1.0, latency: Duration::ZERO, error: true },
        );
        let (_res, run, rc) = ctx(Resilience::new(Some(plan)));
        assert!(rc.sample_faulted(), "error faults skip the iteration");
        assert_eq!(run.faults(), 1);
    }

    #[test]
    fn deadline_with_run_yields_anytime_at_root_only() {
        let late = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let run = RunState::default();
        assert_eq!(round_status(&late, &run, true, false), RoundEnd::Anytime);
        assert_eq!(run.reason(), Some(DegradeReason::Deadline));
        let run = RunState::default();
        assert_eq!(round_status(&late, &run, false, false), RoundEnd::Stop);
        assert!(run.degraded(), "mid-speech deadline still degrades the answer");
        let run = RunState::default();
        assert_eq!(round_status(&late, &run, false, true), RoundEnd::Stop);
        assert!(!run.degraded(), "a complete speech is never degraded");
        // A client cancel stops unmarked.
        let client = CancelToken::new();
        client.cancel();
        let run = RunState::default();
        assert_eq!(round_status(&client, &run, true, false), RoundEnd::Stop);
        assert!(!run.degraded());
    }

    #[test]
    fn fault_budget_exhaustion_yields_anytime_at_root() {
        let live = CancelToken::new();
        let run = RunState::new(2);
        run.note_fault();
        assert_eq!(round_status(&live, &run, true, false), RoundEnd::Continue);
        run.note_fault();
        assert_eq!(round_status(&live, &run, true, false), RoundEnd::Anytime);
        assert_eq!(run.reason(), Some(DegradeReason::FaultBudget));
        let run = RunState::new(1);
        run.note_fault();
        assert_eq!(round_status(&live, &run, false, false), RoundEnd::Stop);
        assert_eq!(round_status(&live, &run, false, true), RoundEnd::Stop);
    }
}
