//! The executor pool (DESIGN.md §14.3): a fixed set of runner threads
//! draining admitted graphs from a shared queue, each run wrapped in a
//! fault boundary so one hostile graph can neither poison another nor
//! take a runner down.
//!
//! Per-run containment, innermost to outermost:
//!
//! 1. The executor itself quarantines failed tasks
//!    ([`FailurePolicy::Quarantine`], DESIGN.md §11) — a faulty graph
//!    still *completes*, reporting its casualty counts.
//! 2. The client's propagated deadline becomes the executor's
//!    run-deadline watchdog, minus whatever the graph already burned
//!    waiting in this queue.
//! 3. Every run is armed with a [`CancelToken`] so drain
//!    (DESIGN.md §14.4) can stop it after the drain deadline.
//! 4. `catch_unwind` around the whole run *and* the oracle check that
//!    follows it: an executor-internal panic becomes a structured
//!    [`GraphOutcome::Failed`] instead of a dead runner, and so does a
//!    completion log the oracle rejects. The runner performs that check
//!    itself, after the run ([`check_log`]), because a served trace is
//!    single-use: the executor's own validation would build the
//!    memoized `DepGraph` for one `validate_order` call and drop it,
//!    which costs twice what checking the log against a streamed replay
//!    does (DESIGN.md §14.3). No graph is answered `Completed` unchecked.
//!
//! Whatever happens, exactly one [`GraphRecord`] is entered in the
//! outcome [`Ledger`] and one `Done` frame is attempted per admitted
//! graph — the no-silent-loss invariant the shutdown regression test
//! pins.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tss_exec::executor::check_order;
use tss_exec::{
    CancelToken, ExecConfig, ExecError, ExecReport, Executor, FailurePolicy, PayloadMode,
};
use tss_proto::{Frame, GraphOutcome};
use tss_trace::TaskTrace;

use crate::gate::Gate;
use crate::writer::SharedWriter;
use crate::{Counters, GraphRecord, Ledger};

/// One admitted graph, queued for execution.
pub(crate) struct Job {
    pub session: u64,
    pub graph: u64,
    pub trace: TaskTrace,
    /// Client deadline in ms from admission (0 = none).
    pub deadline_ms: u32,
    /// When the gate admitted the graph (queue wait burns deadline).
    pub admitted: Instant,
    /// The owning session's writer, for `Done` delivery.
    pub writer: SharedWriter,
    /// The owning session's inflight-graph counter (quota accounting).
    pub inflight: Arc<AtomicU64>,
}

/// Everything a runner needs besides the queue; shared with the server.
pub(crate) struct RunCtx {
    pub gate: Arc<Gate>,
    pub counters: Arc<Counters>,
    pub ledger: Arc<Mutex<Ledger>>,
    pub exec_threads: usize,
    pub payload: PayloadMode,
    pub seed: u64,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// Runners currently executing a job.
    busy: usize,
    /// Drain: runners exit once the queue is empty.
    closed: bool,
    /// Drain deadline fired: new pops are cancelled before they run.
    cancel_all: bool,
    /// Cancel tokens of in-flight runs, keyed by (session, graph).
    active: Vec<(u64, u64, CancelToken)>,
}

/// Queue + coordination state; sessions hold an `Arc` to submit.
pub(crate) struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes runners (work arrived, or close/cancel).
    work_cv: Condvar,
    /// Wakes the drain waiter (a runner went idle or exited).
    idle_cv: Condvar,
}

impl PoolShared {
    fn new() -> PoolShared {
        PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                busy: 0,
                closed: false,
                cancel_all: false,
                active: Vec::new(),
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        }
    }

    /// Enqueues an admitted graph. Callers hold a gate reservation;
    /// the runner releases it after the outcome is recorded.
    pub(crate) fn submit(&self, job: Job) {
        let mut st = self.state.lock().expect("pool state poisoned");
        st.queue.push_back(job);
        drop(st);
        self.work_cv.notify_one();
    }
}

/// The runner threads plus their shared queue. Owned by the server;
/// drained exactly once at shutdown.
pub(crate) struct Pool {
    pub shared: Arc<PoolShared>,
    ctx: Arc<RunCtx>,
    runners: Vec<JoinHandle<()>>,
}

impl Pool {
    pub(crate) fn start(runners: usize, ctx: Arc<RunCtx>) -> Pool {
        let shared = Arc::new(PoolShared::new());
        let handles = (0..runners.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                let cx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("tss-runner-{i}"))
                    .spawn(move || runner_loop(sh, cx))
                    .expect("spawn runner thread")
            })
            .collect();
        Pool { shared, ctx, runners: handles }
    }

    /// Starts drain: no new jobs will be submitted (the gate already
    /// refuses admissions); runners exit once the queue is empty.
    pub(crate) fn close(&self) {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        st.closed = true;
        drop(st);
        self.shared.work_cv.notify_all();
    }

    /// Blocks until the queue is empty and no runner is busy, or the
    /// timeout passes. Returns `true` if the pool went idle.
    pub(crate) fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        loop {
            if st.queue.is_empty() && st.busy == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, timed_out) =
                self.shared.idle_cv.wait_timeout(st, deadline - now).expect("pool state poisoned");
            st = next;
            if timed_out.timed_out() && st.queue.is_empty() && st.busy == 0 {
                return true;
            }
        }
    }

    /// Drain-deadline escalation (DESIGN.md §14.4): every queued job is
    /// reported `Cancelled{0, tasks}` without running, and every
    /// in-flight run's cancel token fires. Cancellation latency from
    /// here is one watchdog tick plus one in-flight payload (the tick
    /// bounds how late the token is noticed, not how long a run that
    /// finishes on its own takes).
    pub(crate) fn cancel_all(&self) {
        let (stranded, tokens) = {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.cancel_all = true;
            let stranded: Vec<Job> = st.queue.drain(..).collect();
            let tokens: Vec<CancelToken> = st.active.iter().map(|(_, _, t)| t.clone()).collect();
            (stranded, tokens)
        };
        for t in &tokens {
            t.cancel();
        }
        for job in stranded {
            let tasks = job.trace.len() as u64;
            deliver(&job, GraphOutcome::Cancelled { completed: 0, tasks }, &self.ctx);
        }
        self.shared.work_cv.notify_all();
        self.shared.idle_cv.notify_all();
    }

    /// Joins the runners. Call after `close` + `wait_idle`.
    pub(crate) fn join(self) {
        for h in self.runners {
            // A panicked runner already had its job contained; losing
            // the thread at join time is not worth tearing drain down.
            let _ = h.join();
        }
    }
}

fn runner_loop(shared: Arc<PoolShared>, ctx: Arc<RunCtx>) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(j) = st.queue.pop_front() {
                    st.busy += 1;
                    break Some(j);
                }
                if st.closed {
                    break None;
                }
                st = shared.work_cv.wait(st).expect("pool state poisoned");
            }
        };
        let Some(job) = job else {
            shared.idle_cv.notify_all();
            return;
        };

        let cancel = CancelToken::new();
        {
            let mut st = shared.state.lock().expect("pool state poisoned");
            if st.cancel_all {
                // Drain already escalated; this run starts cancelled
                // and aborts at its watchdog's first poll, one tick in.
                cancel.cancel();
            }
            st.active.push((job.session, job.graph, cancel.clone()));
        }

        let outcome = run_job(&job, &cancel, &ctx);
        deliver(&job, outcome, &ctx);

        {
            let mut st = shared.state.lock().expect("pool state poisoned");
            st.active.retain(|(s, g, _)| !(*s == job.session && *g == job.graph));
            st.busy -= 1;
            if st.queue.is_empty() && st.busy == 0 {
                shared.idle_cv.notify_all();
            }
        }
    }
}

/// Runs one admitted graph inside the full containment stack and maps
/// the result onto the wire outcome.
fn run_job(job: &Job, cancel: &CancelToken, ctx: &RunCtx) -> GraphOutcome {
    let total = job.trace.len() as u64;
    let mut run_deadline = None;
    if job.deadline_ms > 0 {
        let budget = Duration::from_millis(u64::from(job.deadline_ms));
        let waited = job.admitted.elapsed();
        if waited >= budget {
            // The deadline burned out in the queue: report expiry
            // without spinning up an executor that would only confirm.
            return GraphOutcome::DeadlineExpired { completed: 0, tasks: total };
        }
        run_deadline = Some(budget - waited);
    }
    let cfg = ExecConfig {
        threads: ctx.exec_threads,
        payload: ctx.payload,
        // Per-graph seed so a graph's schedule does not depend on
        // which runner picks it up or what ran before it.
        seed: ctx.seed ^ job.graph,
        policy: FailurePolicy::Quarantine,
        run_deadline,
        cancel: Some(cancel.clone()),
        // Checked below instead, without the memoized oracle.
        validate: false,
        ..ExecConfig::default()
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        Executor::new(cfg).run(&job.trace).and_then(|report| check_log(&job.trace, report))
    }));
    outcome_of(total, result)
}

/// The oracle check every served graph gets before it may be reported
/// `Completed`: the run's full completion log — failed and poisoned
/// tasks included — must linearize the trace's enforced dependencies.
/// Same predicate and same error as `Executor::run` with
/// `validate: true`, minus the `DepGraph` build.
fn check_log(trace: &TaskTrace, report: ExecReport) -> Result<ExecReport, ExecError> {
    match check_order(trace, &report.order) {
        Ok(()) => Ok(report),
        Err(v) => Err(ExecError::OracleViolation { detail: v.to_string() }),
    }
}

/// Maps what the contained run (and its check) produced onto the wire
/// outcome for a graph of `total` tasks.
fn outcome_of(
    total: u64,
    result: std::thread::Result<Result<ExecReport, ExecError>>,
) -> GraphOutcome {
    match result {
        Ok(Ok(report)) => GraphOutcome::Completed {
            tasks: total,
            failed: report.fault.failed.len() as u32,
            poisoned: report.fault.poisoned.len() as u32,
            exec_wall_us: report.exec_wall.as_micros() as u64,
        },
        Ok(Err(ExecError::Cancelled { completed, tasks })) => {
            GraphOutcome::Cancelled { completed: completed as u64, tasks: tasks as u64 }
        }
        Ok(Err(ExecError::RunDeadline { completed, tasks, .. })) => {
            GraphOutcome::DeadlineExpired { completed: completed as u64, tasks: tasks as u64 }
        }
        Ok(Err(e)) => GraphOutcome::Failed { detail: e.to_string() },
        Err(panic) => {
            GraphOutcome::Failed { detail: format!("executor panicked: {}", panic_text(&*panic)) }
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The one exit path for an admitted graph: attempt `Done` delivery,
/// record the outcome server-side, return the gate reservation and the
/// session's quota slot. Runs for normal completions, drain
/// cancellations, and stranded-queue cancellations alike.
fn deliver(job: &Job, outcome: GraphOutcome, ctx: &RunCtx) {
    // Release capacity *before* the client can observe the outcome:
    // a client that reacts to `Done` by submitting again must find
    // the gate slot and its quota slot already free.
    ctx.gate.release(job.trace.len() as u64);
    job.inflight.fetch_sub(1, Ordering::AcqRel);
    let delivered = job.writer.send(&Frame::Done { graph: job.graph, outcome: outcome.clone() });
    if !delivered {
        ctx.counters.undelivered_done.fetch_add(1, Ordering::AcqRel);
    }
    ctx.ledger.lock().expect("outcome ledger poisoned").record(GraphRecord {
        session: job.session,
        graph: job.graph,
        outcome,
        delivered,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::OperandDesc;

    /// 0 writes A; 1 reads A and writes B; 2 reads B.
    fn chain() -> TaskTrace {
        let mut tr = TaskTrace::new("chain");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0xA0, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA0, 64), OperandDesc::output(0xB0, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xB0, 64)]);
        tr
    }

    fn unvalidated_run(trace: &TaskTrace) -> ExecReport {
        let cfg = ExecConfig { threads: 2, validate: false, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(trace).expect("clean run");
        assert!(!report.validated, "the runner, not the executor, checks a served graph");
        report
    }

    #[test]
    fn an_honest_log_is_completed() {
        let trace = chain();
        let result = check_log(&trace, unvalidated_run(&trace));
        let outcome = outcome_of(3, Ok(result));
        assert!(matches!(outcome, GraphOutcome::Completed { tasks: 3, failed: 0, .. }));
    }

    #[test]
    fn a_doctored_log_fails_naming_the_inverted_dependency() {
        let trace = chain();
        let mut report = unvalidated_run(&trace);
        assert_eq!(report.order, vec![0, 1, 2]);
        report.order.swap(1, 2); // consumer 2 now "completes" before its producer 1
        let outcome = outcome_of(3, Ok(check_log(&trace, report)));
        let GraphOutcome::Failed { detail } = outcome else {
            panic!("a log the oracle rejects must not be Completed: {outcome:?}");
        };
        assert!(detail.contains("oracle violation") && detail.contains("1 -> 2"), "{detail}");
    }

    #[test]
    fn a_short_or_padded_log_fails_too() {
        let trace = chain();
        let mut short = unvalidated_run(&trace);
        short.order.pop();
        let mut padded = unvalidated_run(&trace);
        padded.order[2] = 0;
        for report in [short, padded] {
            let outcome = outcome_of(3, Ok(check_log(&trace, report)));
            assert!(matches!(outcome, GraphOutcome::Failed { .. }), "{outcome:?}");
        }
    }
}
