//! The failure domain of the native executor (DESIGN.md §11).
//!
//! Everything here is *policy and vocabulary*; the mechanism (the
//! containment boundary, the POISONED readiness sentinel, the workers'
//! stop check, the `Faulty` payload's roll) lives in `executor/`.
//! Workers report [`TaskFailure`] values; the run-level verdict
//! ([`ExecError`] or a populated [`FaultReport`]) is assembled once at
//! join time.
//!
//! Determinism contract: every injected fault is a pure function of
//! `(fault seed, task id)` (see `tss_workloads::payload::fault_decision`).
//! The *set* of failed/poisoned tasks is therefore identical across
//! thread counts; the *interleaving* (which worker hit the fault, wall
//! times) is not.

use std::fmt;
use std::time::Duration;

pub use tss_workloads::payload::fault_decision;

/// Marker embedded in every injected panic's payload so the process
/// panic hook can keep chaos runs quiet without hiding real bugs.
pub const INJECTED_PANIC_MARKER: &str = "[tss-injected-fault]";

/// What the run does when a task fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Stop the run at the first failure and return it as an error.
    /// This is the pre-failure-domain semantics, minus the abort: the
    /// executor drains in-flight work, joins every worker, and returns
    /// `Err(ExecError::TaskFailed)`.
    #[default]
    FailFast,
    /// Mark the task failed, transitively poison its successor cone
    /// through the release protocol, and keep executing the rest of the
    /// graph — discard the cone, not the run.
    Quarantine,
}

impl FailurePolicy {
    /// Every policy, in menu order.
    pub fn all() -> [FailurePolicy; 2] {
        [FailurePolicy::FailFast, FailurePolicy::Quarantine]
    }

    /// CLI name → policy: the one in [`FailurePolicy::all`] whose
    /// [`name`](FailurePolicy::name) it is.
    pub fn parse(name: &str) -> Option<FailurePolicy> {
        FailurePolicy::all().into_iter().find(|p| p.name() == name)
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FailurePolicy::FailFast => "fail-fast",
            FailurePolicy::Quarantine => "quarantine",
        }
    }
}

/// Why one task failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// The payload panicked; the message is the stringified payload.
    Panicked {
        /// Panic payload rendered to a string (`"<non-string panic>"`
        /// when the payload was not a string).
        message: String,
    },
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskFailure::Panicked { message } => write!(f, "panicked: {message}"),
        }
    }
}

/// One task's final failure record, as surfaced in `FaultReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedTask {
    /// The failing task's id.
    pub task: u32,
    /// Why it failed.
    pub failure: TaskFailure,
}

/// Failure accounting for one run, carried in `ExecReport`. The
/// reconciliation invariant (checked by the harness and the chaos
/// tests): `completed + failed + poisoned = tasks`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Tasks whose payload failed, sorted by task id.
    pub failed: Vec<FailedTask>,
    /// Tasks transitively poisoned by a failed producer (quarantine
    /// cone, the failed tasks themselves excluded), sorted by task id.
    pub poisoned: Vec<u32>,
    /// Worker threads lost during the run (injected kills plus real
    /// thread deaths the survivors absorbed).
    pub workers_lost: usize,
}

impl FaultReport {
    /// Whether this run saw any failure activity at all.
    pub fn any(&self) -> bool {
        !self.failed.is_empty() || !self.poisoned.is_empty() || self.workers_lost > 0
    }
}

/// Why a run returned `Err` instead of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// `FailurePolicy::FailFast` and a task failed: the first failure
    /// observed (by completion-ticket order at one worker; ties under
    /// parallelism pick an arbitrary first).
    TaskFailed(FailedTask),
    /// The whole-run deadline expired before the graph drained.
    RunDeadline {
        /// The configured run deadline.
        deadline: Duration,
        /// Tasks that had completed (incl. failed/poisoned) at expiry.
        completed: usize,
        /// Total tasks in the run.
        tasks: usize,
    },
    /// An external [`CancelToken`](crate::CancelToken) fired
    /// (DESIGN.md §14.3): the run aborted cleanly and joined every
    /// thread, but the graph did not drain.
    Cancelled {
        /// Tasks that had completed (incl. failed/poisoned) at the
        /// abort.
        completed: usize,
        /// Total tasks in the run.
        tasks: usize,
    },
    /// A worker died from a non-payload panic (an executor bug, in a
    /// decode step too, or an injected worker kill under `FailFast`);
    /// the run still joined every surviving thread.
    WorkerPanic {
        /// Stringified panic payload from the first dead thread.
        message: String,
    },
    /// The post-run dependency oracle rejected the completion order.
    OracleViolation {
        /// Human-readable violation (task ids and the broken edge).
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::TaskFailed(t) => {
                write!(f, "task {} failed: {}", t.task, t.failure)
            }
            ExecError::RunDeadline { deadline, completed, tasks } => write!(
                f,
                "run deadline ({deadline:?}) expired with {completed}/{tasks} tasks complete"
            ),
            ExecError::Cancelled { completed, tasks } => {
                write!(f, "run cancelled with {completed}/{tasks} tasks complete")
            }
            ExecError::WorkerPanic { message } => write!(f, "worker thread panicked: {message}"),
            ExecError::OracleViolation { detail } => {
                write!(f, "dependency oracle violation: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Installs a process panic hook (once) that suppresses the default
/// backtrace spam for *injected* panics — identified by
/// [`INJECTED_PANIC_MARKER`] in the payload — while passing every other
/// panic to the previous hook untouched. Chaos runs at a 5% rate would
/// otherwise drown real diagnostics in expected noise.
pub fn install_quiet_hook() {
    use std::sync::OnceLock;
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC_MARKER))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&'static str>()
                        .map(|s| s.contains(INJECTED_PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Renders a caught panic payload for [`TaskFailure::Panicked`].
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_round_trips() {
        for p in FailurePolicy::all() {
            assert_eq!(FailurePolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FailurePolicy::parse("ignore"), None);
        assert_eq!(FailurePolicy::parse("retry"), None);
    }

    #[test]
    fn error_messages_name_the_cause() {
        let e = ExecError::TaskFailed(FailedTask {
            task: 7,
            failure: TaskFailure::Panicked { message: "boom".into() },
        });
        assert!(e.to_string().contains("task 7"));
        assert!(e.to_string().contains("panicked: boom"));
        let e =
            ExecError::RunDeadline { deadline: Duration::from_secs(1), completed: 3, tasks: 10 };
        assert!(e.to_string().contains("3/10"));
    }

    #[test]
    fn panic_message_renders_both_string_kinds() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str".to_string());
        assert_eq!(panic_message(&*s), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_message(&*s), "literal");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*s), "<non-string panic>");
    }
}
