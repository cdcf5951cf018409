//! What a run is asked to do: [`ExecConfig`], the [`ConfigError`] its
//! range check returns, and the external [`CancelToken`] it may carry.

use std::time::Duration;

use crate::fault::FailurePolicy;
use crate::payload::PayloadMode;
use crate::sync::atomic::{AtomicU32, Ordering};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker thread count (≥ 1).
    pub threads: usize,
    /// What each task execution does.
    pub payload: PayloadMode,
    /// Operand renaming in the frontend (off = WaR/WaW enforced too).
    pub renaming: bool,
    /// Seeds the per-worker steal-victim rotation.
    pub seed: u64,
    /// Streaming decode window: tasks committed to the executor per
    /// batch (≥ 1). Smaller windows overlap sooner but commit more
    /// often.
    pub window: usize,
    /// What the run does when a task fails (DESIGN.md §11).
    pub policy: FailurePolicy,
    /// Whole-run wall-clock budget: expiry aborts the run with
    /// [`ExecError::RunDeadline`](crate::fault::ExecError::RunDeadline).
    pub run_deadline: Option<Duration>,
    /// Chaos: kill this worker's thread after its first completed task
    /// (the survivors adopt its deque via the thief protocol). Requires
    /// `threads >= 2`.
    pub kill_worker: Option<usize>,
    /// External cancellation (DESIGN.md §14.3): when the token fires,
    /// the first worker to check it aborts the run and it returns
    /// [`ExecError::Cancelled`](crate::fault::ExecError::Cancelled) with
    /// its progress counts. `None` (the default) adds no machinery at
    /// all.
    pub cancel: Option<CancelToken>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 4,
            payload: PayloadMode::Noop,
            renaming: true,
            seed: 1,
            window: 1024,
            policy: FailurePolicy::FailFast,
            run_deadline: None,
            kill_worker: None,
            cancel: None,
        }
    }
}

/// Why an [`ExecConfig`] describes no run ([`ExecConfig::check`]).
/// `Display` is the text [`Executor::new`](super::Executor::new) panics
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads` is zero.
    NoWorkers,
    /// `kill_worker` is set with fewer than two workers: a lone killed
    /// worker could never finish the run.
    KillWorkerAlone,
    /// `kill_worker` names a worker the run does not have.
    KillWorkerOutOfRange,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConfigError::NoWorkers => "the executor needs at least one worker",
            ConfigError::KillWorkerAlone => "kill_worker needs at least two workers",
            ConfigError::KillWorkerOutOfRange => "kill_worker index out of range",
        })
    }
}

impl std::error::Error for ConfigError {}

impl ExecConfig {
    /// The one statement of the ranges a run needs: at least one worker,
    /// and a `kill_worker` that leaves a survivor and names a worker
    /// that exists. (`window` has no bad values — `Executor::new`
    /// clamps it.) Allocates nothing: the server
    /// builds an executor per served graph.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::NoWorkers);
        }
        match self.kill_worker {
            Some(_) if self.threads < 2 => Err(ConfigError::KillWorkerAlone),
            Some(k) if k >= self.threads => Err(ConfigError::KillWorkerOutOfRange),
            _ => Ok(()),
        }
    }
}

/// A cloneable external-cancellation handle. The serve layer
/// (DESIGN.md §14.3) arms one per accepted graph so a drain deadline
/// can stop a run that is already executing; anything else that embeds
/// the executor can do the same. Arming it changes nothing a task does:
/// the run's stop check — made by the worker loop between bursts and
/// by every real payload at its polls — loads the token, with no
/// thread, no timer and no clock read. A running worker notices a
/// firing within the stop bound of DESIGN.md §11.3 and wakes the
/// parked ones; completion latency is untouched.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<AtomicU32>);

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(1, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_returns_each_range_with_the_text_new_panics_with() {
        use ConfigError::*;
        let check = |threads, kill_worker| {
            ExecConfig { threads, kill_worker, ..ExecConfig::default() }.check()
        };
        assert_eq!(check(1, None), Ok(()));
        assert_eq!(check(2, Some(1)), Ok(()));
        assert_eq!(check(0, Some(0)), Err(NoWorkers));
        assert_eq!(check(1, Some(0)), Err(KillWorkerAlone));
        assert_eq!(check(4, Some(4)), Err(KillWorkerOutOfRange));
        assert_eq!(NoWorkers.to_string(), "the executor needs at least one worker");
        assert_eq!(KillWorkerAlone.to_string(), "kill_worker needs at least two workers");
        assert_eq!(KillWorkerOutOfRange.to_string(), "kill_worker index out of range");
    }
}
