//! The answer counters an engine carries, and per-run degrade state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// How an engine's answers ended: clean, or degraded by a deadline cut
/// committed through the anytime path. Every engine holds one behind an
/// `Arc`, typically shared for a whole process (CLI session, server) and
/// fed by every run; counting consumes no planner randomness.
#[derive(Debug, Default)]
pub struct Resilience {
    degraded_answers: AtomicU64,
    clean_answers: AtomicU64,
}

impl Resilience {
    /// Count one finished answer.
    pub fn count_answer(&self, degraded: bool) {
        let tally = if degraded { &self.degraded_answers } else { &self.clean_answers };
        tally.fetch_add(1, Ordering::Relaxed);
    }

    /// Answers completed with `degraded: true`.
    pub fn degraded_answers(&self) -> u64 {
        self.degraded_answers.load(Ordering::Relaxed)
    }

    /// Answers completed clean.
    pub fn clean_answers(&self) -> u64 {
        self.clean_answers.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_bundle_never_rolls_faults() {
        let r = Resilience::default();
        assert_eq!((r.clean_answers(), r.degraded_answers()), (0, 0));
        assert!(!RunState::default().degraded());
    }

    #[test]
    fn counters_reflect_each_answer() {
        let r = Resilience::default();
        r.count_answer(true);
        r.count_answer(false);
        r.count_answer(false);
        assert_eq!(r.degraded_answers(), 1);
        assert_eq!(r.clean_answers(), 2);
    }
}
