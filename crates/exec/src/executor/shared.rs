//! The state one run's workers share: queues, tickets, the release
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
use super::{CancelToken, ExecConfig};
use crate::deque::{ChaseLev, Injector};
use crate::fault::{FailedTask, FailurePolicy};
use crate::payload::PayloadMode;
use crate::sched::SchedPolicy;
use crate::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use crate::sync::Mutex;

/// The values of [`Shared::abort`]: zero while the run runs, else the
/// cause that stopped it early. The first cause wins
/// ([`Shared::request_abort`]).
pub(super) const RUNNING: u32 = 0;
/// A task failed under `FailFast`.
pub(super) const FAILED_FAST: u32 = 1;
/// An executor bug: a role panicked outside any payload.
pub(super) const INFRA_PANIC: u32 = 2;
/// The run deadline passed.
pub(super) const RUN_DEADLINE: u32 = 3;
/// The external [`CancelToken`] fired.
pub(super) const CANCELLED: u32 = 4;

/// Shared replay state (borrowed by every worker of the run's crew).
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
    /// [`RUNNING`], or why the run stopped early ([`FAILED_FAST`],
    /// [`INFRA_PANIC`], [`RUN_DEADLINE`], [`CANCELLED`]). Read by the
    /// park predicate, and by [`Shared::poll_stop`] — the worker loop's
    /// stop checks and every real payload's polls — never per task.
    pub(super) abort: CachePadded<AtomicU32>,
    /// Nonzero once any task has failed: from then on every task checks
    /// its status byte before it runs (a real payload panic under
    /// Quarantine must still poison, DESIGN.md §11.4).
    pub(super) tainted: CachePadded<AtomicU32>,
    pub(super) policy: FailurePolicy,
    /// The run deadline, measured from `t0`, the run's start.
    pub(super) run_deadline: Option<Duration>,
    pub(super) t0: Stamp,
    /// Shared observability state (ready-time table + gauges); a ZST
    /// no-op unless the `obs` feature is on (DESIGN.md §12).
    pub(super) obs: SharedObs,
    /// External cancellation token (DESIGN.md §14.3), polled beside
    /// the run deadline ([`Shared::poll_stop`]).
    pub(super) cancel: Option<CancelToken>,
    /// Final failure records, in completion order.
    pub(super) failures: Mutex<Vec<FailedTask>>,
    /// First infrastructure (non-payload) panic message.
    pub(super) infra_panic: Mutex<Option<String>>,
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
        let t0 = Stamp::now();
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
            abort: CachePadded::new(AtomicU32::new(RUNNING)),
            tainted: CachePadded::new(AtomicU32::new(0)),
            policy: cfg.policy,
            run_deadline: cfg.run_deadline,
            t0,
            obs: SharedObs::new(),
            cancel: cfg.cancel.clone(),
            failures: Mutex::new(Vec::new()),
            infra_panic: Mutex::new(None),
        }
    }

    #[inline]
    pub(super) fn done(&self) -> bool {
        self.next_ticket.load(Ordering::Acquire) >= self.n
    }

    #[inline]
    pub(super) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire) != RUNNING
    }

    /// The worker loop's stop check, made once per burst and before
    /// every park, never per task (DESIGN.md §11.3): workers exit on
    /// normal termination *or* a stop. `--cfg
    /// tss_bug_loop_ignores_token` reads only the abort word here, so a
    /// fired token or a passed run deadline goes unseen until a real
    /// payload polls; `a_token_fired_before_the_run_completes_nothing`
    /// and `a_one_nanosecond_run_deadline_stops_a_no_op_run` fail when
    /// active (DESIGN.md §10.3).
    #[inline]
    pub(super) fn stopping(&self) -> bool {
        self.done()
            || if cfg!(tss_bug_loop_ignores_token) { self.aborted() } else { self.poll_stop() }
    }

    /// Whether the run is aborting: the stop check of the worker loop
    /// ([`Shared::stopping`]) and of every real payload's polls
    /// (DESIGN.md §11.3). It loads the abort word; the token only when
    /// one is set; the clock only when a run deadline is set. The first
    /// check to find the token fired or the run deadline passed records
    /// that cause and raises the abort, waking every parked worker: the
    /// workers still running are the run's only watch.
    #[inline]
    pub(super) fn poll_stop(&self) -> bool {
        if self.aborted() {
            return true;
        }
        let cause = if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            CANCELLED
        } else if self.run_deadline.is_some_and(|d| self.t0.elapsed() >= d) {
            RUN_DEADLINE
        } else {
            return false;
        };
        self.request_abort(cause);
        true
    }

    /// Records `cause` unless an earlier one stopped the run already,
    /// and flushes every parked worker into its park predicate.
    pub(super) fn request_abort(&self, cause: u32) {
        // A lost race means another cause won, and its caller wakes
        // everyone too.
        let _ = self.abort.compare_exchange(RUNNING, cause, Ordering::AcqRel, Ordering::Acquire);
        self.parker.wake_all();
    }

    /// Records a non-payload panic (an executor bug, caught at the
    /// role boundary so the run still finishes cleanly) and aborts.
    pub(super) fn note_infra_panic(&self, message: String) {
        let mut slot = self.infra_panic.lock().expect("infra panic slot poisoned");
        slot.get_or_insert(message);
        drop(slot);
        self.request_abort(INFRA_PANIC);
    }
}
