//! Engine-side graceful degradation (DESIGN.md §12).
//!
//! Every run opens a [`ResCtx`] on its engine's bundle and threads it
//! through ingestion, sampling and emission. Of the failures this process
//! can meet, two reach the planner:
//!
//! - **a deadline** — when the run's deadline passes mid-plan, the driver
//!   commits what it has ([`round_status`]): a shortened but
//!   grammar-valid speech tagged `degraded: true`. A version-stale exact
//!   entry is served (`stale: true`) only once the deadline has fired.
//! - **a panicking worker** — its panic ends the run (`Team::sample`
//!   re-raises it), and the server's pool answers the request with a 500.
//!   The sample cache is built per run, so no later answer reads what the
//!   dead worker left behind.
//!
//! Storage failures stay in the storage layer (`voxolap_data::wal`). The
//! planners inject nothing, so a run is a pure function of its seed, table
//! and deadline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use voxolap_faults::Resilience;

use crate::pipeline::cancel::{CancelKind, CancelToken};

/// Per-run degrade state: the degraded flag the answer is tagged with.
/// Every run has one, shared (via `Arc`) between the samplers, the
/// sentence source, and the emitting stream.
#[derive(Debug, Default)]
pub(crate) struct RunState {
    degraded: AtomicBool,
}

impl RunState {
    /// Tag the run degraded.
    pub(crate) fn mark_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Whether the answer must be tagged `degraded: true`.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// One run's resilience context: the engine's shared [`Resilience`] bundle
/// and this run's [`RunState`]. Opened once per vocalization; the stream,
/// the sentence source and every worker hold a clone.
#[derive(Debug, Clone)]
pub(crate) struct ResCtx {
    pub(crate) bundle: Arc<Resilience>,
    pub(crate) run: Arc<RunState>,
}

impl ResCtx {
    /// Open a run on `bundle`, with a fresh degrade state.
    pub(crate) fn new(bundle: &Arc<Resilience>) -> Self {
        ResCtx { bundle: bundle.clone(), run: Arc::default() }
    }

    /// A run on a bundle of its own, for planning outside any engine (the
    /// prior baseline, solo workers of tests and tools).
    pub(crate) fn inert() -> Self {
        ResCtx::new(&Arc::default())
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

/// Decide how a per-sentence round reacts to cancellation. `at_root`
/// means no body sentence was committed yet (an anytime commit is needed
/// for the answer to contain at least a baseline); `at_leaf` means the
/// speech is already complete (nothing is lost, so nothing is marked
/// degraded). A client cancel always stops unmarked: the consumer is gone.
pub(crate) fn round_status(
    cancel: &CancelToken,
    run: &RunState,
    at_root: bool,
    at_leaf: bool,
) -> RoundEnd {
    match cancel.fired_kind() {
        None => RoundEnd::Continue,
        Some(CancelKind::Client) => RoundEnd::Stop,
        Some(CancelKind::Deadline) if at_leaf => RoundEnd::Stop,
        Some(CancelKind::Deadline) => {
            run.mark_degraded();
            if at_root {
                RoundEnd::Anytime
            } else {
                RoundEnd::Stop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn deadline_with_run_yields_anytime_at_root_only() {
        let late = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let run = RunState::default();
        assert_eq!(round_status(&late, &run, true, false), RoundEnd::Anytime);
        assert!(run.degraded());
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
        // A live token keeps sampling.
        let live = CancelToken::new();
        assert_eq!(round_status(&live, &run, true, false), RoundEnd::Continue);
    }
}
