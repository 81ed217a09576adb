//! Degradation observability counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters recording how answers ended and how often a
/// torn cache stripe was rebuilt. One instance typically lives for a
/// whole process (CLI session, server) and is fed by every run.
#[derive(Debug, Default)]
pub struct DegradeStats {
    /// Cache shards rebuilt after lock poisoning / torn state.
    pub poison_recoveries: AtomicU64,
    /// Answers completed with `degraded: true`.
    pub degraded_answers: AtomicU64,
    /// Answers completed clean.
    pub clean_answers: AtomicU64,
}

impl DegradeStats {
    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> DegradeSnapshot {
        DegradeSnapshot {
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            degraded_answers: self.degraded_answers.load(Ordering::Relaxed),
            clean_answers: self.clean_answers.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`DegradeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradeSnapshot {
    /// See [`DegradeStats::poison_recoveries`].
    pub poison_recoveries: u64,
    /// See [`DegradeStats::degraded_answers`].
    pub degraded_answers: u64,
    /// See [`DegradeStats::clean_answers`].
    pub clean_answers: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = DegradeStats::default();
        s.poison_recoveries.fetch_add(3, Ordering::Relaxed);
        s.degraded_answers.fetch_add(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.poison_recoveries, 3);
        assert_eq!(snap.degraded_answers, 1);
        assert_eq!(snap.clean_answers, 0);
    }
}
