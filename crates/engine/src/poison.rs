//! Poison-recovering mutexes for state that outlives a request.
//!
//! The semantic cache and the HTTP pool's queues live for the whole
//! process and are shared by every request; with a plain
//! `lock().unwrap()` a single request panicking while it held a lock
//! would permanently poison it and take every later request down with
//! it. [`RecoveringMutex`] instead treats a poisoned lock as *damaged
//! data, not a damaged program*: the next locker hands the poisoned value
//! to a reset closure that rebuilds a consistent (if emptier) state,
//! clears the poison flag, and proceeds. Degradation is counted by the
//! caller inside its reset closure, so the recovery shows up in `/stats`
//! instead of as a crash.
//!
//! The planners' sample cache needs none of this: it lives for one run,
//! and a member's panic ends that run (see `Team::sample`).

use std::sync::{Mutex, MutexGuard};

/// A `std::sync::Mutex` whose lock path rebuilds a poisoned value instead
/// of panicking: a thread panicked while holding the guard (std's
/// `PoisonError`).
#[derive(Debug, Default)]
pub struct RecoveringMutex<T> {
    inner: Mutex<T>,
}

impl<T> RecoveringMutex<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        RecoveringMutex { inner: Mutex::new(value) }
    }

    /// Lock, recovering first if the previous holder died mid-update:
    /// `reset` receives the poisoned value and must leave it consistent
    /// (callers also count the recovery there). Exactly one locker sees
    /// the poison, since it is cleared under the lock.
    pub fn lock_recovering(&self, reset: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            self.inner.clear_poison();
            let mut guard = poisoned.into_inner();
            reset(&mut guard);
            guard
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn plain_locking_never_resets() {
        let m = RecoveringMutex::new(vec![1, 2, 3]);
        let resets = AtomicU64::new(0);
        {
            let mut g = m.lock_recovering(|_| {
                resets.fetch_add(1, Ordering::Relaxed);
            });
            g.push(4);
        }
        let g = m.lock_recovering(|_| {
            resets.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(*g, vec![1, 2, 3, 4]);
        assert_eq!(resets.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn real_panic_poison_is_recovered_once() {
        let m = Arc::new(RecoveringMutex::new(vec![1, 2, 3]));
        let m2 = m.clone();
        // A thread dies while holding the guard: std poisons the mutex.
        let joined = std::thread::spawn(move || {
            let _g = m2.inner.lock().unwrap();
            panic!("holder dies mid-update");
        })
        .join();
        assert!(joined.is_err(), "the holder really panicked");
        let recoveries = AtomicU64::new(0);
        let reset = |v: &mut Vec<i32>| {
            v.clear();
            recoveries.fetch_add(1, Ordering::Relaxed);
        };
        {
            let g = m.lock_recovering(reset);
            assert!(g.is_empty(), "torn state rebuilt");
        }
        assert_eq!(recoveries.load(Ordering::Relaxed), 1);
        // Poison was cleared: later locks take the fast path.
        let g = m.lock_recovering(|v: &mut Vec<i32>| {
            v.push(99);
            recoveries.fetch_add(1, Ordering::Relaxed);
        });
        assert!(g.is_empty());
        assert_eq!(recoveries.load(Ordering::Relaxed), 1);
    }
}
