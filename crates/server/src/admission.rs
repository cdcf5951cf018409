//! The one admission point (DESIGN.md §14.2): everything the server
//! keeps about "admitted and not finished" is in this one mutex-guarded
//! state — the FIFO of admitted jobs, the admitted-graph and
//! admitted-task counts the watermarks shed on, and the closed flag —
//! as the paper's gateway is the one place decoded tasks wait and the
//! one place the generator stalls. A graph passes through it as
//! `reserve` (session, at `Seal`) → `enqueue` (session, once `Accepted`
//! is written) → `next` (a runner) → `finish` (that runner, before
//! `Done` is written); a drain request is `set_draining`, and
//! `Server::wait` then calls `close` and, past its deadline, fires
//! `cancel`. DESIGN.md §14.2 tabulates what each call may observe.
//!
//! Shedding at `reserve` rather than at `enqueue` keeps the failure
//! cheap for the client: nothing was queued, nothing must be unwound,
//! and the `retry_after_ms` hint scales with the depth that caused it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tss_exec::CancelToken;
use tss_proto::RejectReason;

/// Cap on the computed backoff hint.
const MAX_RETRY_AFTER_MS: u32 = 2_000;

struct State<J> {
    /// Admitted jobs no runner has taken yet, oldest first.
    queue: VecDeque<J>,
    /// Graphs admitted and not finished: reserved, queued or running.
    graphs: u64,
    /// Tasks of those graphs (the memory proxy: their traces are
    /// resident).
    tasks: u64,
    /// Drain is under way and the accept loop is gone: runners may
    /// leave once nothing is admitted.
    closed: bool,
}

/// Cross-session admission state over jobs of type `J`.
pub(crate) struct Admission<J> {
    state: Mutex<State<J>>,
    /// Wakes runners: a job was enqueued, or the last one finished
    /// after `close`.
    work: Condvar,
    /// Wakes the drain waiter: drain was requested, or nothing is
    /// admitted any more.
    drained: Condvar,
    /// Drain was requested: no further admissions, ever. Written only
    /// under the lock, so `reserve` reads it exactly; readable without
    /// it (`OpenGraph`, the accept loop's poll).
    draining: AtomicBool,
    /// The server-lifetime token every run's `ExecConfig` carries.
    /// Drain fires it past its deadline (DESIGN.md §14.4): running
    /// graphs stop within the stop bound of DESIGN.md §11.3, and a job
    /// popped from then on stops at its run's first stop check, before
    /// any task completes.
    pub(crate) cancel: CancelToken,
    max_graphs: u64,
    max_tasks: u64,
    retry_base_ms: u32,
}

impl<J> Admission<J> {
    pub(crate) fn new(max_graphs: u64, max_tasks: u64, retry_base_ms: u32) -> Admission<J> {
        Admission {
            state: Mutex::new(State { queue: VecDeque::new(), graphs: 0, tasks: 0, closed: false }),
            work: Condvar::new(),
            drained: Condvar::new(),
            draining: AtomicBool::new(false),
            cancel: CancelToken::new(),
            max_graphs: max_graphs.max(1),
            max_tasks: max_tasks.max(1),
            retry_base_ms: retry_base_ms.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().expect("admission state poisoned")
    }

    /// Counts a sealed graph of `tasks` tasks against both watermarks
    /// until [`Admission::finish`], or says why not. Checked and
    /// counted under one lock: of two racing graphs at the last slot
    /// exactly one is admitted.
    pub(crate) fn reserve(&self, tasks: u64) -> Result<(), RejectReason> {
        let mut st = self.lock();
        if self.draining() {
            return Err(RejectReason::Draining);
        }
        if st.graphs >= self.max_graphs || st.tasks.saturating_add(tasks) > self.max_tasks {
            // The hint grows with the depth that caused the shed: a
            // client hitting a deep queue backs off harder than one
            // that grazed the watermark.
            let depth = (st.graphs + 1).min(u64::from(MAX_RETRY_AFTER_MS)) as u32;
            let hint = self.retry_base_ms.saturating_mul(depth).min(MAX_RETRY_AFTER_MS);
            return Err(RejectReason::Overloaded { retry_after_ms: hint });
        }
        st.graphs += 1;
        st.tasks += tasks;
        Ok(())
    }

    /// Queues a job whose graph was reserved. Called after `Accepted`
    /// is written, so the `Done` a runner sends can never precede it.
    pub(crate) fn enqueue(&self, job: J) {
        self.lock().queue.push_back(job);
        self.work.notify_one();
    }

    /// The oldest queued job, blocking while there is none. `None`
    /// once the state is closed and nothing is admitted — a reserved
    /// graph not yet enqueued keeps the runners waiting for it.
    pub(crate) fn next(&self) -> Option<J> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.queue.pop_front() {
                return Some(job);
            }
            if st.closed && st.graphs == 0 {
                return None;
            }
            st = self.work.wait(st).expect("admission state poisoned");
        }
    }

    /// Returns a graph's reservation: its run ended, whatever the
    /// outcome.
    pub(crate) fn finish(&self, tasks: u64) {
        let mut st = self.lock();
        st.graphs -= 1;
        st.tasks -= tasks;
        // Before `close` nobody waits for empty: the drain waiter is
        // in `wait_draining` or joining the accept loop, and runners
        // only leave once closed — so a closed-loop server pays no
        // wake-up per graph here.
        if st.graphs == 0 && st.closed {
            self.drained.notify_all();
            self.work.notify_all();
        }
    }

    /// Requests drain (idempotent, irreversible): no `reserve`
    /// succeeds from here on.
    pub(crate) fn set_draining(&self) {
        let st = self.lock();
        self.draining.store(true, Ordering::Release);
        drop(st);
        self.drained.notify_all();
    }

    /// Whether drain has been requested.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Blocks until drain is requested.
    pub(crate) fn wait_draining(&self) {
        let mut st = self.lock();
        while !self.draining() {
            st = self.drained.wait(st).expect("admission state poisoned");
        }
    }

    /// Lets the runners go once nothing is admitted. Drain calls it
    /// after the accept loop is joined, so runners outlive it as they
    /// always have (thread exit order decides which allocator arena
    /// the next server's threads inherit — EXPERIMENTS.md "PR 22").
    pub(crate) fn close(&self) {
        debug_assert!(self.draining(), "close follows set_draining");
        self.lock().closed = true;
        self.work.notify_all();
    }

    /// After `close`: blocks until nothing is admitted or `timeout`
    /// passes; `true` if it emptied. Every admitted graph has then been
    /// *finished*; its `Done` may still be on its runner's way out,
    /// which joining the runners covers.
    pub(crate) fn wait_empty(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while st.graphs > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            st = self.drained.wait_timeout(st, left).expect("admission state poisoned").0;
        }
        true
    }

    /// Current admitted-graph and admitted-task counts.
    #[cfg(test)]
    fn counts(&self) -> (u64, u64) {
        let st = self.lock();
        (st.graphs, st.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn admission(max_graphs: u64, max_tasks: u64, retry_base_ms: u32) -> Admission<u32> {
        Admission::new(max_graphs, max_tasks, retry_base_ms)
    }

    fn hint(r: Result<(), RejectReason>) -> u32 {
        match r {
            Err(RejectReason::Overloaded { retry_after_ms }) => retry_after_ms,
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn depth_watermark_sheds_with_growing_hint() {
        let a = admission(2, 1_000_000, 10);
        a.reserve(5).expect("first fits");
        a.reserve(5).expect("second fits");
        assert_eq!(hint(a.reserve(5)), 30, "hint scales with depth");
        // Shedding must not leak a reservation.
        assert_eq!(a.counts(), (2, 10));
        a.finish(5);
        a.reserve(5).expect("finished slot is reusable");
    }

    #[test]
    fn task_watermark_sheds_independently_of_depth() {
        let a = admission(100, 10, 25);
        a.reserve(8).expect("under the watermark");
        hint(a.reserve(8)); // 16 tasks would breach 10
        assert_eq!(a.counts(), (1, 8), "a refused graph is not counted");
        a.reserve(2).expect("exactly at the watermark is admitted");
    }

    #[test]
    fn draining_admission_refuses_everything() {
        let a = admission(100, 100, 25);
        assert!(!a.draining());
        a.set_draining();
        a.wait_draining();
        assert!(a.draining());
        assert_eq!(a.reserve(1), Err(RejectReason::Draining));
        assert_eq!(a.counts(), (0, 0));
    }

    #[test]
    fn retry_hint_is_capped() {
        let a = admission(1, 1_000_000, 1_500);
        a.reserve(1).expect("fits");
        assert_eq!(hint(a.reserve(1)), MAX_RETRY_AFTER_MS);
    }

    #[test]
    fn racing_reservers_at_the_last_slot_admit_exactly_one() {
        for _ in 0..200 {
            let a = Arc::new(admission(3, 1_000_000, 10));
            a.reserve(7).expect("first fits");
            a.reserve(7).expect("second fits");
            let start = Arc::new(Barrier::new(2));
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let (a, start) = (Arc::clone(&a), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        a.reserve(7)
                    })
                })
                .collect();
            let results: Vec<_> = racers.into_iter().map(|r| r.join().expect("racer")).collect();
            let admitted = results.iter().filter(|r| r.is_ok()).count();
            let shed = results
                .iter()
                .filter(|r| matches!(r, Err(RejectReason::Overloaded { retry_after_ms: 40 })))
                .count();
            assert_eq!((admitted, shed), (1, 1), "{results:?}");
            assert_eq!(a.counts(), (3, 21), "counts sit at the cap, not past it");
        }
    }

    #[test]
    fn reserve_enqueue_next_finish_accounting() {
        let a = admission(4, 100, 10);
        for (job, tasks) in [(1u32, 10u64), (2, 20), (3, 30)] {
            a.reserve(tasks).expect("fits");
            a.enqueue(job);
        }
        assert_eq!(a.counts(), (3, 60));
        assert!(!a.wait_empty(Duration::ZERO));
        // FIFO, and a popped job still counts until it is finished.
        assert_eq!(a.next(), Some(1));
        assert_eq!(a.next(), Some(2));
        assert_eq!(a.counts(), (3, 60));
        a.finish(10);
        a.finish(20);
        assert_eq!(a.counts(), (1, 30));
        assert_eq!(a.next(), Some(3));
        a.finish(30);
        assert_eq!(a.counts(), (0, 0));
        assert!(a.wait_empty(Duration::ZERO));
    }

    #[test]
    fn close_lets_runners_leave_only_once_empty() {
        let a = Arc::new(admission(4, 100, 10));
        // Reserved, `Accepted` still being written: not yet queued.
        a.reserve(5).expect("fits");
        a.set_draining();
        a.close();
        let runner = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(job) = a.next() {
                    seen.push(job);
                    a.finish(5);
                }
                seen
            })
        };
        assert!(!a.wait_empty(Duration::from_millis(20)), "the reserved graph is still owed");
        assert!(!runner.is_finished(), "a closed but non-empty state keeps its runners");
        a.enqueue(9);
        assert!(a.wait_empty(Duration::from_secs(10)));
        assert_eq!(runner.join().expect("runner"), vec![9], "the late job ran, then next() ended");
    }

    #[test]
    fn cancel_strands_each_queued_job_exactly_once() {
        let a = admission(8, 100, 10);
        for job in 0..3 {
            a.reserve(1).expect("fits");
            a.enqueue(job);
        }
        assert!(!a.cancel.is_cancelled());
        a.set_draining();
        a.close();
        a.cancel.cancel();
        let mut stranded = Vec::new();
        while let Some(job) = a.next() {
            assert!(a.cancel.is_cancelled(), "popped after the token fired");
            stranded.push(job);
            a.finish(1);
        }
        assert_eq!(stranded, vec![0, 1, 2]);
        assert_eq!(a.counts(), (0, 0));
    }
}
