//! The run deadline and external cancellation (DESIGN.md §11.3,
//! §14.3): the watchdog role that polls them, and the interruptible
//! tick it sleeps on.

use std::time::Duration;

use super::shared::Shared;
use crate::sched::SchedPolicy;
use crate::sync::atomic::Ordering;
use crate::sync::{Condvar, Mutex};

/// The watchdog's poll period: the bound on how late the run deadline
/// or a fired [`CancelToken`](super::CancelToken) is noticed (DESIGN.md
/// §11.3).
pub(super) const WATCHDOG_TICK: Duration = Duration::from_micros(200);

/// The watchdog's interruptible tick: a timed condvar wait that the end
/// of the run interrupts. The tick therefore bounds how late an expiry
/// or cancellation is noticed, never how long a finished run waits for
/// its watchdog role.
pub(super) struct WatchGate {
    lock: Mutex<()>,
    cv: Condvar,
}

impl WatchGate {
    pub(super) fn new() -> Self {
        WatchGate { lock: Mutex::new(()), cv: Condvar::new() }
    }

    /// Waits out one `tick`, or less if interrupted. Returns whether
    /// `stopped` holds (checked before the wait, so a run that is
    /// already over costs no tick, and again after it).
    pub(super) fn tick(&self, tick: Duration, stopped: impl Fn() -> bool) -> bool {
        {
            let gate = self.lock.lock().expect("watchdog gate poisoned");
            if stopped() {
                return true;
            }
            // The check above and this wait share one hold of the
            // gate, so an `interrupt` cannot fall between them.
            let _woken = self.cv.wait_timeout(gate, tick).expect("watchdog gate poisoned");
        }
        stopped()
    }

    /// Ends the current tick early. The caller has already stored the
    /// state that makes `stopped` true; taking the gate orders this
    /// notify against a watchdog that has checked `stopped` but not
    /// yet entered its wait (it holds the gate across that window), so
    /// the notify is either seen by the check or wakes the wait —
    /// never lost (model: `model_watchdog_stop_is_never_lost`).
    pub(super) fn interrupt(&self) {
        let _gate = self.lock.lock().expect("watchdog gate poisoned");
        self.cv.notify_one();
    }
}

/// The watchdog: a crew role that aborts the run past its deadline or
/// on a fired token, polling once per [`WATCHDOG_TICK`] (noise against
/// ms-scale deadlines). Part of the run only when a run deadline or a
/// token is armed; returns as soon as the run stops ([`WatchGate`]).
pub(super) fn watchdog_loop<P: SchedPolicy>(shared: &Shared<'_, P>) {
    loop {
        // The gate is released before the poll: `request_abort` below
        // takes it again to interrupt (by then nobody's) tick.
        if shared.watch_gate.tick(WATCHDOG_TICK, || shared.stopping()) {
            return;
        }
        let now = shared.t0.elapsed().as_nanos() as u64;
        // Past the run deadline, or the external token fired (DESIGN.md
        // §14.3): one abort protocol, reported as `RunDeadline` or as
        // `Cancelled` by the flag it raises.
        let hit = if shared.run_deadline_ns != 0 && now >= shared.run_deadline_ns {
            Some(&shared.run_deadline_hit)
        } else if shared.cancel.as_ref().is_some_and(|token| token.is_cancelled()) {
            Some(&shared.cancel_hit)
        } else {
            None
        };
        if let Some(hit) = hit {
            hit.store(1, Ordering::Release);
            // The abort flag is also what every in-flight guarded
            // payload polls: workers observe `Aborted` attempts and
            // exit without completing them.
            shared.request_abort();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::diamond_plus_loner;
    use super::super::{CancelToken, ExecConfig, Executor};
    use crate::fault::ExecError;
    use crate::payload::PayloadMode;
    use std::time::Duration;
    use tss_trace::TaskTrace;

    #[test]
    fn run_deadline_aborts_a_long_run() {
        let mut tr = TaskTrace::new("slow");
        let k = tr.add_kernel("k");
        for _ in 0..64 {
            tr.push_task(k, 3_200_000_000, vec![]); // 1 s each at 3.2 GHz
        }
        let cfg = ExecConfig {
            threads: 2,
            payload: PayloadMode::Spin { time_scale: 1.0 },
            run_deadline: Some(Duration::from_millis(30)),
            ..ExecConfig::default()
        };
        match Executor::new(cfg).run(&tr) {
            Err(ExecError::RunDeadline { tasks, completed, .. }) => {
                assert_eq!(tasks, 64);
                assert!(completed < 64);
            }
            other => panic!("expected RunDeadline, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_aborts_a_long_run() {
        let mut tr = TaskTrace::new("cancellable");
        let k = tr.add_kernel("k");
        for _ in 0..64 {
            tr.push_task(k, 3_200_000_000, vec![]); // 1 s each at 3.2 GHz
        }
        let token = CancelToken::new();
        let cfg = ExecConfig {
            threads: 2,
            payload: PayloadMode::Spin { time_scale: 1.0 },
            cancel: Some(token.clone()),
            ..ExecConfig::default()
        };
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                token.cancel();
            })
        };
        match Executor::new(cfg).run(&tr) {
            Err(ExecError::Cancelled { tasks, completed }) => {
                assert_eq!(tasks, 64);
                assert!(completed < 64);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        canceller.join().expect("canceller thread");
        assert!(token.is_cancelled());
    }

    #[test]
    fn unfired_cancel_token_changes_nothing() {
        let tr = diamond_plus_loner();
        let token = CancelToken::new();
        let cfg = ExecConfig { threads: 2, cancel: Some(token.clone()), ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&tr).expect("armed-but-unfired run failed");
        assert_eq!(report.completed(), tr.len());
        assert!(!token.is_cancelled());
    }
}

/// Model-checked interleaving test for the watchdog's tick (DESIGN.md
/// §10.3). Compiled only under `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests {
    use super::*;
    use crate::sync::atomic::AtomicU32;
    use shuttle::thread;
    use std::sync::Arc;

    /// Watchdog stop (§11.3): the run's end — stop state stored, then
    /// `interrupt` — racing the watchdog's tick. With the tick disabled
    /// (`Duration::MAX` never times out in the model) the watchdog can
    /// only leave through the stop check or the notify, so an interrupt
    /// lost between its check and its wait would be a model deadlock:
    /// in every interleaving it exits without waiting a tick out. With
    /// a real tick the timeout may additionally fire at any point, and
    /// the loop still always terminates.
    #[test]
    fn model_watchdog_stop_is_never_lost() {
        for tick in [Duration::MAX, WATCHDOG_TICK] {
            let report = shuttle::check_exhaustive(300_000, move || {
                let gate = Arc::new(WatchGate::new());
                let stop = Arc::new(AtomicU32::new(0));
                let (g2, s2) = (gate.clone(), stop.clone());
                // watchdog_loop's shape, minus the poll body.
                let dog =
                    thread::spawn(
                        move || {
                            while !g2.tick(tick, || s2.load(Ordering::Acquire) != 0) {}
                        },
                    );
                // The final `complete` / `request_abort` shape.
                stop.store(1, Ordering::Release);
                gate.interrupt();
                dog.join().unwrap();
            });
            assert!(report.complete, "budget too small: {} schedules", report.schedules);
        }
    }
}
