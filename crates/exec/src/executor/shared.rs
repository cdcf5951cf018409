//! The state one run's roles share: queues, tickets, the release
//! table, the streaming front end, and the failure domain's flags
//! (DESIGN.md §7, §8.2, §11).

use std::time::Duration;

use tss_obs::clock::Stamp;
use tss_obs::SharedObs;
use tss_sim::CachePadded;
use tss_trace::TaskTrace;

use super::decode::DecodeShared;
use super::parker::Parker;
use super::release::{StreamRelease, HEALTHY};
use super::watchdog::{WatchGate, WatchSlot};
use super::{CancelToken, ExecConfig};
use crate::deque::{ChaseLev, Injector};
use crate::fault::{FailedTask, FailurePolicy, FaultPlan};
use crate::payload::PayloadMode;
use crate::sched::SchedPolicy;
use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::sync::Mutex;

/// Shared replay state (borrowed by every role of the run's crew).
pub(super) struct Shared<'a, P: SchedPolicy> {
    /// How completions find their successors.
    pub(super) release: StreamRelease,
    /// The decode steps a streamed run's workers take (§8.2); `None`
    /// for a graph decoded beforehand.
    pub(super) front: Option<DecodeShared<'a>>,
    /// The scheduling policy (DESIGN.md §13): statically dispatched,
    /// so the default [`LifoPolicy`] build monomorphizes every hook
    /// into the pre-§13 inline code.
    pub(super) sched: P,
    pub(super) trace: &'a TaskTrace,
    pub(super) n: usize,
    /// Completion tickets: `order[k]` is the k-th task to complete.
    pub(super) order: Vec<AtomicU32>,
    /// Ticket source *and* termination counter: ticket `n − 1` implies
    /// every task has executed.
    pub(super) next_ticket: CachePadded<AtomicUsize>,
    pub(super) deques: Vec<ChaseLev>,
    /// The committer's push-only root queue (DESIGN.md §8.1).
    pub(super) injector: Injector,
    pub(super) parker: Parker,
    pub(super) payload: PayloadMode,

    // --- failure domain (DESIGN.md §11) ---
    /// Per-task status byte (HEALTHY / POISONED / FAILED).
    pub(super) status: Vec<AtomicU8>,
    /// Nonzero = stop the run (fail-fast failure, run deadline, or an
    /// infrastructure panic). Checked on the idle path and the park
    /// predicate only — never per task.
    pub(super) abort: CachePadded<AtomicU32>,
    /// Nonzero once any attempt has failed: diverts subsequent tasks
    /// from the fast path onto the guarded path even when no chaos is
    /// armed (a real payload panic under Quarantine must still poison).
    pub(super) tainted: CachePadded<AtomicU32>,
    /// Resolved fault-injection plan (all-zero when disarmed).
    pub(super) plan: FaultPlan,
    pub(super) policy: FailurePolicy,
    pub(super) max_attempts: u32,
    pub(super) backoff_base: Duration,
    /// Per-task deadline (None = unarmed).
    pub(super) task_deadline: Option<Duration>,
    /// Absolute run deadline, ns since `t0` (0 = unarmed).
    pub(super) run_deadline_ns: u64,
    /// Wall anchor for every deadline computation.
    pub(super) t0: Stamp,
    /// Shared observability state (ready-time table + gauges); a ZST
    /// no-op unless the `obs` feature is on (DESIGN.md §12).
    pub(super) obs: SharedObs,
    /// True when any per-task machinery (injection, task deadline, or
    /// payload cancellation for the run deadline) must run: decided
    /// once, so a fault-free run's per-task path is unchanged.
    pub(super) guarded: bool,
    /// Per-worker watchdog slots (empty when no deadline is armed).
    pub(super) watch: Vec<WatchSlot>,
    /// Set by the watchdog when the run deadline expired.
    pub(super) run_deadline_hit: AtomicU32,
    /// External cancellation token (DESIGN.md §14.3), polled by the
    /// watchdog alongside the deadlines.
    pub(super) cancel: Option<CancelToken>,
    /// Set by the watchdog when the cancel token fired.
    pub(super) cancel_hit: AtomicU32,
    /// The watchdog's interruptible tick; whatever stops the run cuts
    /// it short ([`Shared::wake_watchdog`]).
    pub(super) watch_gate: WatchGate,
    /// Final failure records, in completion order.
    pub(super) failures: Mutex<Vec<FailedTask>>,
    /// First infrastructure (non-payload) panic message.
    pub(super) infra_panic: Mutex<Option<String>>,
    /// `retry_hist[k]`: outcomes that consumed k+1 attempts. Empty
    /// unless the policy grants more than one attempt: it is only ever
    /// reported then, and bumping `[0]` per task on one line all workers
    /// share was part of what an armed token used to cost (§11.4).
    pub(super) retry_hist: Vec<AtomicU64>,
    /// Tasks that failed an attempt but eventually completed.
    pub(super) retried_ok: CachePadded<AtomicUsize>,
}

impl<P: SchedPolicy> Shared<'_, P> {
    pub(super) fn new<'t>(
        trace: &'t TaskTrace,
        release: StreamRelease,
        front: Option<DecodeShared<'t>>,
        cfg: &ExecConfig,
    ) -> Shared<'t, P> {
        let n = trace.len();
        let threads = cfg.threads;
        let payload = cfg.payload;
        let plan = match payload {
            PayloadMode::Faulty { rate_ppm, seed } => {
                FaultPlan { rate_ppm, seed, kill_worker: cfg.kill_worker }
            }
            _ => FaultPlan { rate_ppm: 0, seed: 0, kill_worker: cfg.kill_worker },
        };
        // An armed cancel token counts as a deadline: it needs the
        // watch slots so a firing can stop in-flight payloads, not just
        // idle workers (otherwise cancellation latency is a full local
        // deque of payloads, DESIGN.md §14.3).
        let deadline_armed =
            cfg.task_deadline.is_some() || cfg.run_deadline.is_some() || cfg.cancel.is_some();
        let guarded = plan.enabled() || deadline_armed;
        let max_attempts = cfg.policy.max_attempts();
        let backoff_base = match cfg.policy {
            FailurePolicy::Retry { backoff, .. } => backoff,
            _ => Duration::ZERO,
        };
        let t0 = Stamp::now();
        let run_deadline_ns = cfg.run_deadline.map_or(0, |d| (d.as_nanos() as u64).max(1));
        Shared {
            release,
            front,
            sched: P::new(),
            trace,
            n,
            order: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
            next_ticket: CachePadded::new(AtomicUsize::new(0)),
            deques: (0..threads).map(|_| ChaseLev::with_capacity(256)).collect(),
            injector: Injector::with_capacity(1024),
            parker: Parker::new(),
            payload,
            status: (0..n).map(|_| AtomicU8::new(HEALTHY)).collect(),
            abort: CachePadded::new(AtomicU32::new(0)),
            tainted: CachePadded::new(AtomicU32::new(0)),
            plan,
            policy: cfg.policy,
            max_attempts,
            backoff_base,
            task_deadline: cfg.task_deadline,
            run_deadline_ns,
            t0,
            obs: SharedObs::new(),
            guarded,
            watch: if deadline_armed {
                (0..threads).map(|_| WatchSlot::new()).collect()
            } else {
                Vec::new()
            },
            run_deadline_hit: AtomicU32::new(0),
            cancel: cfg.cancel.clone(),
            cancel_hit: AtomicU32::new(0),
            watch_gate: WatchGate::new(),
            failures: Mutex::new(Vec::new()),
            infra_panic: Mutex::new(None),
            retry_hist: if max_attempts > 1 {
                (0..max_attempts).map(|_| AtomicU64::new(0)).collect()
            } else {
                Vec::new()
            },
            retried_ok: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    #[inline]
    pub(super) fn done(&self) -> bool {
        self.next_ticket.load(Ordering::Acquire) >= self.n
    }

    #[inline]
    pub(super) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire) != 0
    }

    /// Workers exit on this: normal termination *or* an abort.
    #[inline]
    pub(super) fn stopping(&self) -> bool {
        self.done() || self.aborted()
    }

    /// Raises the abort flag and flushes every parked worker into its
    /// `stopping()` check.
    pub(super) fn request_abort(&self) {
        self.abort.store(1, Ordering::Release);
        self.parker.wake_all();
        self.wake_watchdog();
    }

    /// Cuts the watchdog's tick short, so a finished run never waits
    /// one out. Call *after* the state `stopping()` reads has been
    /// stored (final ticket taken, or abort raised).
    pub(super) fn wake_watchdog(&self) {
        if self.watchdog_armed() {
            self.watch_gate.interrupt();
        }
    }

    /// Records a non-payload panic (an executor bug, caught at the
    /// role boundary so the run still finishes cleanly) and aborts.
    pub(super) fn note_infra_panic(&self, message: String) {
        let mut slot = self.infra_panic.lock().expect("infra panic slot poisoned");
        slot.get_or_insert(message);
        drop(slot);
        self.request_abort();
    }

    /// Whether the run needs a watchdog role.
    #[inline]
    pub(super) fn watchdog_armed(&self) -> bool {
        !self.watch.is_empty() || self.cancel.is_some()
    }
}
