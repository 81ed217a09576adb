//! The answer counters an engine carries.

use std::sync::atomic::{AtomicU64, Ordering};

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
    fn a_fresh_bundle_has_counted_no_answers() {
        let r = Resilience::default();
        assert_eq!((r.clean_answers(), r.degraded_answers()), (0, 0));
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
