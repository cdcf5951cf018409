//! The failure domain of the native executor (DESIGN.md §11).
//!
//! Everything here is *policy and vocabulary*; the mechanism (the
//! containment boundary, the POISONED readiness sentinel, the watchdog)
//! lives in `executor/`. The split keeps the executor's hot path free
//! of policy branching: workers consult a pre-resolved [`FaultPlan`]
//! and report [`TaskFailure`] values; the run-level verdict
//! ([`ExecError`] or a populated [`FaultReport`]) is assembled once at
//! join time.
//!
//! Determinism contract: every injected fault is a pure function of
//! `(fault seed, task id, attempt)` (see
//! `tss_workloads::payload::fault_decision`), and retry backoff is a
//! pure function of `(fault seed, task id, attempt)` too. The *set* of
//! failed/poisoned tasks is therefore identical across thread counts;
//! the *interleaving* (which worker hit the fault, wall times) is not.

use std::fmt;
use std::time::Duration;

pub use tss_workloads::payload::{fault_decision, InjectedFault};

/// Marker embedded in every injected panic's payload so the process
/// panic hook can keep chaos runs quiet without hiding real bugs.
pub const INJECTED_PANIC_MARKER: &str = "[tss-injected-fault]";

/// What the run does when a task attempt fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Stop the run at the first failure and return it as an error.
    /// This is the pre-failure-domain semantics, minus the abort: the
    /// executor drains in-flight work, joins every worker, and returns
    /// `Err(ExecError::TaskFailed)`.
    #[default]
    FailFast,
    /// Re-run a failed task up to `max_attempts` total attempts, with a
    /// seeded-deterministic backoff between attempts. A task that
    /// exhausts its attempts is quarantined (cone-poisoned) like under
    /// [`FailurePolicy::Quarantine`].
    Retry {
        /// Total attempts per task (first run included); >= 1.
        max_attempts: u32,
        /// Base backoff unit; attempt `k` waits roughly `k * backoff`
        /// with a seeded jitter. `Duration::ZERO` disables waiting.
        backoff: Duration,
    },
    /// Mark the task failed, transitively poison its successor cone
    /// through the release protocol, and keep executing the rest of the
    /// graph — discard the cone, not the run.
    Quarantine,
}

impl FailurePolicy {
    /// CLI name → policy (`fail-fast`, `retry`, `quarantine`).
    pub fn parse(name: &str, max_attempts: u32, backoff: Duration) -> Option<FailurePolicy> {
        match name {
            "fail-fast" => Some(FailurePolicy::FailFast),
            "retry" => Some(FailurePolicy::Retry { max_attempts, backoff }),
            "quarantine" => Some(FailurePolicy::Quarantine),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FailurePolicy::FailFast => "fail-fast",
            FailurePolicy::Retry { .. } => "retry",
            FailurePolicy::Quarantine => "quarantine",
        }
    }

    /// Total attempts a task gets under this policy.
    pub fn max_attempts(&self) -> u32 {
        match self {
            FailurePolicy::Retry { max_attempts, .. } => (*max_attempts).max(1),
            _ => 1,
        }
    }
}

/// Why one task (after all its attempts) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// The payload panicked; the message is the stringified payload.
    Panicked {
        /// Panic payload rendered to a string (`"<non-string panic>"`
        /// when the payload was not a string).
        message: String,
    },
    /// The payload exceeded the per-task deadline and was cancelled.
    Deadline,
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskFailure::Panicked { message } => write!(f, "panicked: {message}"),
            TaskFailure::Deadline => write!(f, "exceeded task deadline"),
        }
    }
}

/// One task's final failure record, as surfaced in `FaultReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedTask {
    /// The failing task's id.
    pub task: u32,
    /// Attempts consumed (1 for non-retry policies).
    pub attempts: u32,
    /// The last attempt's failure.
    pub failure: TaskFailure,
}

/// Failure accounting for one run, carried in `ExecReport`. The
/// reconciliation invariant (checked by the harness and the chaos
/// tests): `clean first-try completions + retried-into-success +
/// failed + poisoned = tasks`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Tasks that finally failed (every attempt consumed), sorted by
    /// task id.
    pub failed: Vec<FailedTask>,
    /// Tasks transitively poisoned by a failed producer (quarantine
    /// cone, the failed tasks themselves excluded), sorted by task id.
    pub poisoned: Vec<u32>,
    /// Tasks that failed at least one attempt but eventually completed.
    pub retried_ok: usize,
    /// `retry_hist[k]`: tasks whose final outcome (success or failure)
    /// consumed `k + 1` attempts. Empty unless the policy retries;
    /// poisoned tasks consume no attempts and are not counted.
    pub retry_hist: Vec<u64>,
    /// Worker threads lost during the run (injected kills plus real
    /// thread deaths the survivors absorbed).
    pub workers_lost: usize,
}

impl FaultReport {
    /// Whether this run saw any failure activity at all.
    pub fn any(&self) -> bool {
        !self.failed.is_empty()
            || !self.poisoned.is_empty()
            || self.retried_ok > 0
            || self.workers_lost > 0
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
    /// A worker or decoder thread died from a non-payload panic (an
    /// executor bug, or an injected worker kill under `FailFast`); the
    /// run still joined every surviving thread.
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
                write!(f, "task {} failed after {} attempt(s): {}", t.task, t.attempts, t.failure)
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

/// The resolved chaos configuration a run executes under. Built once by
/// `Executor::run` from the `PayloadMode` and `ExecConfig`; workers
/// only ever read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Injection probability in parts-per-million (0 = no injection).
    pub rate_ppm: u32,
    /// Seed for fault rolls and retry backoff jitter.
    pub seed: u64,
    /// Worker index whose thread is killed after its first task
    /// completes (exercises the worker-loss/deque-adoption path).
    pub kill_worker: Option<usize>,
}

impl FaultPlan {
    /// True when any chaos mechanism is armed.
    pub fn enabled(&self) -> bool {
        self.rate_ppm > 0 || self.kill_worker.is_some()
    }

    /// The deterministic fault roll for one `(task, attempt)`.
    pub fn decide(&self, task: u32, attempt: u32) -> Option<InjectedFault> {
        fault_decision(self.seed, task, attempt, self.rate_ppm)
    }

    /// The fault roll as the executor applies it: a [`InjectedFault::Delay`]
    /// stalls until the deadline watchdog cancels it, so when no
    /// per-task deadline is armed it is deterministically downgraded to
    /// a panic (a delay nobody cancels would hang the run). The chaos
    /// oracle mirrors this exact rule.
    pub fn effective(
        &self,
        task: u32,
        attempt: u32,
        deadline_armed: bool,
    ) -> Option<InjectedFault> {
        match self.decide(task, attempt) {
            Some(InjectedFault::Delay) if !deadline_armed => Some(InjectedFault::Panic),
            other => other,
        }
    }
}

/// Seeded-deterministic retry backoff for attempt `attempt` (1-based:
/// the wait before attempt 2 passes `attempt = 1`). Linear base with a
/// ±25% jitter hashed from `(seed, task, attempt)` — deterministic per
/// task, de-synchronized across tasks so retries don't stampede.
pub fn backoff_for(seed: u64, task: u32, attempt: u32, base: Duration) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let mut z = seed ^ 0xD6E8_FEB8_6659_FD93u64;
    z = z.wrapping_add((task as u64) << 32 | attempt as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let base_ns = base.as_nanos() as u64 * attempt as u64;
    // jitter in [-25%, +25%): base/4 scaled by a hash fraction.
    let jitter = ((z >> 32) * (base_ns / 2)) >> 32;
    Duration::from_nanos(base_ns - base_ns / 4 + jitter)
}

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
        for name in ["fail-fast", "retry", "quarantine"] {
            let p = FailurePolicy::parse(name, 3, Duration::ZERO).unwrap();
            assert_eq!(p.name(), name);
        }
        assert_eq!(FailurePolicy::parse("ignore", 3, Duration::ZERO), None);
    }

    #[test]
    fn max_attempts_respects_policy() {
        assert_eq!(FailurePolicy::FailFast.max_attempts(), 1);
        assert_eq!(FailurePolicy::Quarantine.max_attempts(), 1);
        let r = FailurePolicy::Retry { max_attempts: 4, backoff: Duration::ZERO };
        assert_eq!(r.max_attempts(), 4);
        // A degenerate retry config still gets one attempt.
        let r0 = FailurePolicy::Retry { max_attempts: 0, backoff: Duration::ZERO };
        assert_eq!(r0.max_attempts(), 1);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(10);
        for task in 0..32u32 {
            for attempt in 1..4u32 {
                let a = backoff_for(5, task, attempt, base);
                let b = backoff_for(5, task, attempt, base);
                assert_eq!(a, b);
                let scaled = base * attempt;
                assert!(a >= scaled * 3 / 4 && a < scaled * 5 / 4, "backoff {a:?} out of band");
            }
        }
        assert_eq!(backoff_for(5, 0, 1, Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn plan_enabled_logic() {
        assert!(!FaultPlan::default().enabled());
        assert!(FaultPlan { rate_ppm: 1, ..Default::default() }.enabled());
        assert!(FaultPlan { kill_worker: Some(0), ..Default::default() }.enabled());
    }

    #[test]
    fn error_messages_name_the_cause() {
        let e = ExecError::TaskFailed(FailedTask {
            task: 7,
            attempts: 2,
            failure: TaskFailure::Deadline,
        });
        assert!(e.to_string().contains("task 7"));
        assert!(e.to_string().contains("deadline"));
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
