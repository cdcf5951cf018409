//! The runners (DESIGN.md §14.3): a fixed set of threads, each taking
//! the oldest admitted graph from the [`Admission`](crate::admission)
//! state and running it inside a fault boundary, so one hostile graph
//! can neither poison another nor take a runner down. Nothing here
//! queues or counts; what is left is what only a server does to a run.
//!
//! Per-run containment, innermost to outermost:
//!
//! 1. The executor itself quarantines failed tasks
//!    ([`FailurePolicy::Quarantine`], DESIGN.md §11) — a faulty graph
//!    still *completes*, reporting its casualty counts.
//! 2. The client's propagated deadline becomes the executor's run
//!    deadline, minus what the graph burned in the queue.
//! 3. Every run carries the server-lifetime cancel token, so drain
//!    (DESIGN.md §14.4) can stop it after the drain deadline.
//! 4. `catch_unwind` around the whole run *and* the oracle check that
//!    follows it ([`check_log`] — the runner's, because a served trace
//!    is single-use and the executor's own validation would build a
//!    memoized `DepGraph` to use once): a panic or a rejected
//!    completion log becomes a structured [`GraphOutcome::Failed`], not
//!    a dead runner. No graph is answered `Completed` unchecked.
//!
//! Whatever happens, exactly one [`GraphRecord`] is entered in the
//! outcome ledger and one `Done` frame is attempted per admitted graph
//! — the no-silent-loss invariant the shutdown regression test pins.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tss_exec::executor::check_order;
use tss_exec::{ExecConfig, ExecError, ExecReport, Executor, FailurePolicy};
use tss_proto::{Frame, GraphOutcome};
use tss_trace::TaskTrace;

use crate::writer::SharedWriter;
use crate::{GraphRecord, ServerShared};

/// One admitted graph, queued for execution.
pub(crate) struct Job {
    pub session: u64,
    pub graph: u64,
    pub trace: TaskTrace,
    /// Client deadline in ms from admission (0 = none).
    pub deadline_ms: u32,
    /// When the graph was admitted (queue wait burns deadline).
    pub admitted: Instant,
    /// The owning session's writer, for `Done` delivery.
    pub writer: SharedWriter,
    /// The owning session's inflight-graph counter (quota accounting).
    pub inflight: Arc<AtomicU64>,
}

/// One runner thread: run and deliver admitted graphs until admission
/// is closed and empty. A graph popped after drain fired the cancel
/// token is stranded: reported `Cancelled{0, tasks}` without running.
pub(crate) fn runner_loop(shared: Arc<ServerShared>) {
    while let Some(job) = shared.admission.next() {
        let outcome = if shared.admission.cancel.is_cancelled() {
            GraphOutcome::Cancelled { completed: 0, tasks: job.trace.len() as u64 }
        } else {
            run_job(&job, &shared)
        };
        deliver(&job, outcome, &shared);
    }
}

/// Runs one admitted graph inside the full containment stack and maps
/// the result onto the wire outcome.
fn run_job(job: &Job, shared: &ServerShared) -> GraphOutcome {
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
        threads: shared.cfg.exec_threads.max(1),
        payload: shared.cfg.payload,
        // Per-graph seed so a graph's schedule does not depend on
        // which runner picks it up or what ran before it.
        seed: shared.cfg.seed ^ job.graph,
        policy: FailurePolicy::Quarantine,
        run_deadline,
        cancel: Some(shared.admission.cancel.clone()),
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

/// The one exit path for an admitted graph, run or stranded: return
/// its reservation and its session's quota slot, enter the outcome in
/// the ledger, then attempt `Done` delivery.
fn deliver(job: &Job, outcome: GraphOutcome, shared: &ServerShared) {
    // Release capacity *before* the client can observe the outcome:
    // a client that reacts to `Done` by submitting again must find
    // the admission slot and its quota slot already free.
    shared.admission.finish(job.trace.len() as u64);
    job.inflight.fetch_sub(1, Ordering::AcqRel);
    // The record goes in first for the same reason: that client's next
    // graph must be recorded after this one, whichever runner takes it,
    // or the ledger is not in completion order. It is entered as
    // delivered and corrected if the send fails — the ledger lock is
    // never held across a socket write, and nothing reads a record
    // before the runners are joined.
    let seq = shared.ledger.lock().expect("outcome ledger poisoned").record(GraphRecord {
        session: job.session,
        graph: job.graph,
        outcome: outcome.clone(),
        delivered: true,
    });
    if !job.writer.send(&Frame::Done { graph: job.graph, outcome }) {
        shared.counters.undelivered_done.fetch_add(1, Ordering::AcqRel);
        shared.ledger.lock().expect("outcome ledger poisoned").mark_undelivered(seq);
    }
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

    /// The anti-dependence the pipeline enforces (Figure 9): an inout
    /// writer waits for the readers of the version it overwrites.
    #[test]
    fn a_doctored_log_inverting_an_inout_anti_dependency_fails() {
        let mut trace = TaskTrace::new("anti");
        let k = trace.add_kernel("k");
        trace.push_task(k, 10, vec![OperandDesc::output(0xA0, 64)]);
        trace.push_task(k, 10, vec![OperandDesc::input(0xA0, 64)]);
        trace.push_task(k, 10, vec![OperandDesc::inout(0xA0, 64)]);
        let mut report = unvalidated_run(&trace);
        assert_eq!(report.order, vec![0, 1, 2]);
        report.order.swap(1, 2); // the inout "completes" before the reader of v0
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
