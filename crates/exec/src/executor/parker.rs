//! Idle-worker parking: the condvar epoch the worker loop sleeps on
//! (DESIGN.md §7; the Dekker pairing of its epoch is argued in §8).

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};
use tss_sim::CachePadded;

/// Condvar epoch for idle-worker parking. A worker reads the epoch
/// *before* scanning for work and only sleeps if the epoch is unchanged
/// since — any wake between its read and its sleep is therefore
/// observed (the epoch moved) and the sleep aborts. The epoch ops are
/// `SeqCst`: the worker's *read epoch → scan queues* and a producer's
/// *push work → bump epoch* form the classic store-load (Dekker)
/// pattern, which weaker orderings do not close (§8). The mutex and
/// condvar are touched only when someone actually parks or wakes.
pub(super) struct Parker {
    epoch: CachePadded<AtomicU64>,
    idle: CachePadded<AtomicUsize>,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    pub(super) fn new() -> Self {
        Parker {
            epoch: CachePadded::new(AtomicU64::new(0)),
            idle: CachePadded::new(AtomicUsize::new(0)),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    #[inline]
    pub(super) fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether any worker is parked (a hint for wake throttling; a
    /// missed hint delays a thief until the next wake, it never loses
    /// work — the producer itself still holds the tasks).
    #[inline]
    pub(super) fn has_idle(&self) -> bool {
        // relaxed: idle-count hint for wake elision; the SeqCst parker
        // epoch is the real sleep/wake edge
        self.idle.load(Ordering::Relaxed) > 0
    }

    /// Wakes one parked worker (throttled wake: surplus in one deque
    /// needs one thief, not a stampede).
    pub(super) fn wake_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _g = self.lock.lock().expect("parker poisoned");
        self.cv.notify_one();
    }

    /// Wakes all parked workers (window commits, termination).
    pub(super) fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Taking the lock orders the bump against a parker that has
        // checked the epoch but not yet entered `wait` (it holds the
        // lock across that window), so the notify cannot land in the
        // gap.
        let _g = self.lock.lock().expect("parker poisoned");
        self.cv.notify_all();
    }

    /// Parks until the epoch moves past `seen` or `done` returns true.
    pub(super) fn park(&self, seen: u64, done: impl Fn() -> bool) {
        self.idle.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock().expect("parker poisoned");
        while self.epoch.load(Ordering::SeqCst) == seen && !done() {
            g = self.cv.wait(g).expect("parker poisoned");
        }
        drop(g);
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Model-checked interleaving tests for the parker (DESIGN.md §10.3).
/// Compiled only under `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests {
    use super::*;
    use crate::sync::atomic::AtomicU32;
    use shuttle::thread;
    use std::sync::Arc;

    /// The park/wake handoff: a worker that sees no work parks against
    /// an epoch snapshot; a producer publishes work and bumps the
    /// epoch. In every interleaving (exhaustive) the worker terminates
    /// having observed the work — the epoch protocol closes the classic
    /// lost-wakeup window (wake landing between the worker's scan and
    /// its sleep). A lost wakeup here shows up as a model-detected
    /// deadlock, not a hang.
    #[test]
    fn model_parker_handoff_never_loses_the_wake() {
        let report = shuttle::check_exhaustive(300_000, || {
            let parker = Arc::new(Parker::new());
            let work = Arc::new(AtomicU32::new(0));
            let (p2, w2) = (parker.clone(), work.clone());
            let worker = thread::spawn(move || {
                // The real worker loop shape: snapshot epoch, scan,
                // park only if the scan came up empty.
                loop {
                    let seen = p2.current_epoch();
                    if w2.load(Ordering::SeqCst) == 1 {
                        break;
                    }
                    p2.park(seen, || false);
                }
            });
            work.store(1, Ordering::SeqCst);
            parker.wake_one();
            worker.join().unwrap();
            assert_eq!(work.load(Ordering::SeqCst), 1);
        });
        assert!(report.complete, "budget too small: {} schedules", report.schedules);
    }

    /// `wake_all` reaches both parked workers (the window-commit path):
    /// no schedule leaves a worker asleep once the producer has bumped
    /// the epoch.
    #[test]
    fn model_parker_wake_all_reaches_every_worker() {
        shuttle::check_pct(0xAB5E_1200, 400, 3, || {
            let parker = Arc::new(Parker::new());
            let work = Arc::new(AtomicU32::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (p2, w2) = (parker.clone(), work.clone());
                    thread::spawn(move || loop {
                        let seen = p2.current_epoch();
                        if w2.load(Ordering::SeqCst) == 1 {
                            break;
                        }
                        p2.park(seen, || false);
                    })
                })
                .collect();
            work.store(1, Ordering::SeqCst);
            parker.wake_all();
            for w in workers {
                w.join().unwrap();
            }
        });
    }
}
