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
//! 4. `catch_unwind` around the whole run, the run's own oracle check
//!    included (a served trace is fresh, so its one check is the
//!    streamed one and builds no `DepGraph`, DESIGN.md §14.3): a panic
//!    or a rejected completion log becomes a structured
//!    [`GraphOutcome::Failed`], not a dead runner. No graph is answered
//!    `Completed` unchecked.
//!
//! Whatever happens, exactly one [`GraphRecord`] is entered in the
//! outcome ledger and one `Done` frame is attempted per admitted graph
//! — the no-silent-loss invariant the shutdown regression test pins.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// token runs too: the executor's first stop check comes before its
/// first completion, so it answers `Cancelled{0, tasks}`.
pub(crate) fn runner_loop(shared: Arc<ServerShared>) {
    while let Some(job) = shared.admission.next() {
        let outcome = run_job(&job, &shared);
        deliver(&job, outcome, &shared);
    }
}

/// Runs one admitted graph inside the full containment stack and maps
/// the result onto the wire outcome. A deadline that burned out in the
/// queue becomes a zero run deadline, which the executor's first stop
/// check answers `DeadlineExpired{0, tasks}` before any task completes.
fn run_job(job: &Job, shared: &ServerShared) -> GraphOutcome {
    let total = job.trace.len() as u64;
    let run_deadline = (job.deadline_ms > 0).then(|| {
        let budget = Duration::from_millis(u64::from(job.deadline_ms));
        budget.saturating_sub(job.admitted.elapsed())
    });
    let cfg = ExecConfig {
        threads: shared.cfg.exec_threads.max(1),
        payload: shared.cfg.payload,
        // Per-graph seed so a graph's schedule does not depend on
        // which runner picks it up or what ran before it.
        seed: shared.cfg.seed ^ job.graph,
        policy: FailurePolicy::Quarantine,
        run_deadline,
        cancel: Some(shared.admission.cancel.clone()),
        ..ExecConfig::default()
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| Executor::new(cfg).run(&job.trace)));
    outcome_of(total, result)
}

/// Maps what the contained run (its oracle check included) produced
/// onto the wire outcome for a graph of `total` tasks.
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

/// The one exit path for an admitted graph: return its reservation
/// and its session's quota slot, enter the outcome in the ledger, then
/// attempt `Done` delivery.
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
    use tss_trace::{OperandDesc, OrderViolation};

    /// A clean run is `Completed`; a run whose log the oracle refuses —
    /// the run's own check, inside the `catch_unwind` — is `Failed`,
    /// naming the violation. Which logs are refused is `tss-trace`'s to
    /// test (`task.rs::a_fresh_traces_first_check_refuses_every_doctored_log`).
    #[test]
    fn an_oracle_violation_fails_the_graph_naming_the_inverted_dependency() {
        let mut trace = TaskTrace::new("pair");
        let k = trace.add_kernel("k");
        trace.push_task(k, 10, vec![OperandDesc::output(0xA0, 64)]);
        trace.push_task(k, 10, vec![OperandDesc::input(0xA0, 64)]);
        let report = Executor::new(ExecConfig::default()).run(&trace).expect("clean run");
        let outcome = outcome_of(2, Ok(Ok(report)));
        assert!(matches!(outcome, GraphOutcome::Completed { tasks: 2, failed: 0, .. }));
        let v = OrderViolation::ProducerAfterConsumer { producer: 0, consumer: 1 };
        let violation = Err(ExecError::OracleViolation { detail: v.to_string() });
        let GraphOutcome::Failed { detail } = outcome_of(2, Ok(violation)) else {
            panic!("a log the oracle refuses must not be Completed");
        };
        assert!(detail.contains("oracle violation") && detail.contains("0 -> 1"), "{detail}");
    }
}
