//! The execution core: real threads replaying a decoded task graph
//! out of order — now a *pipelined* core in which decode itself streams
//! concurrently with execution, the way the paper's distributed
//! ORT/OVT/TRS frontend feeds its backend without serializing it.
//!
//! Scheme (DESIGN.md §7 for the execution side, §8 for the streaming
//! protocol and memory orderings):
//!
//! - **Two run modes.** [`Executor::run`] streams: decode shard
//!   threads rename the trace window by window *while* workers execute
//!   already-committed windows (the decode cost overlaps execution —
//!   [`ExecReport::decode_overlap_pct`]). [`Executor::run_oneshot`]
//!   keeps PR 3's phases (decode fully, then replay) — it is the
//!   apples-to-apples replay-throughput measurement and the shape the
//!   microbenches time.
//! - **Resident threads.** A run's decode shards, workers and watchdog
//!   are *roles* handed to a crew of process-lifetime threads
//!   (`runtime.rs`, DESIGN.md §15) and awaited; no thread is spawned or
//!   joined per run.
//! - **Lock-free scheduling.** Per-worker [`ChaseLev`] deques (owner
//!   LIFO, thief FIFO, batch stealing takes half) replace the mutexed
//!   ring; the one lock left on the task hot path is gone.
//! - **Readiness.** Every task carries an atomic counter. In one-shot
//!   mode it starts at the decoded producer count. In streaming mode it
//!   starts at a large sentinel `UNPUBLISHED`: producers that finish
//!   *before* their successor is even decoded simply decrement through
//!   the sentinel, and the window commit adds `pred_count − UNPUBLISHED`
//!   back — whichever atomic op lands the counter exactly on zero owns
//!   the push. Early release needs no blocking and no side lookups.
//! - **Pending-release lists.** A producer's successor set is not fully
//!   known until later windows decode. Each task owns a lock-free
//!   pending list (CAS-push by the window committer); completion swaps
//!   the head with `CLOSED` and drains. A committer that observes
//!   `CLOSED` knows the producer already completed and drained, and
//!   counts the edge as satisfied itself — the exactly-once handshake
//!   (§8).
//! - **Parking without storms.** Workers park on a condvar epoch, but
//!   wakes are throttled: a completion wakes one thief only when it
//!   banked *surplus* ready tasks (≥ 2), a window commit wakes
//!   everyone once per window, and the final completion wakes everyone
//!   once. PR 3 notified on every completion that released anything —
//!   on an oversubscribed host that was a futex storm dominating the
//!   replay.
//! - **Completion tickets** are taken *before* successor release, so
//!   the ticket sequence is a linearization of the dependency order by
//!   construction; [`DepGraph::validate_order`] checks it on every
//!   validated run. The ticket counter doubles as the termination
//!   count: ticket `n−1` means every task has executed.
//!
//! With one worker there is no stealing and no ticket race. For a
//! *two-phase* replay ([`Executor::run_oneshot`]) the order is then a
//! pure function of the queue discipline (own deque LIFO over injector
//! FIFO, batch banking preserves root order) — bit-deterministic, and
//! the determinism tests pin it. A *streamed* 1-worker run is oracle-
//! deterministic only: whether a task arrives via the injector or via
//! a producer's pending list is the decode-vs-execution race itself
//! (`tests/streaming.rs` pins that contract).

use crate::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
// All wall-clock reads go through the tss-obs timestamp facade (tss-lint
// bans raw Instant::now() in this crate, DESIGN.md §12.1); the sinks
// are zero-sized no-ops unless the `obs` feature is on.
use tss_obs::clock::Stamp;
use tss_obs::{ObsReport, SharedObs, SpanStamp, WorkerObs};

use crate::deque::{ChaseLev, BATCH_MAX};
use crate::fault::{
    backoff_for, panic_message, ExecError, FailedTask, FailurePolicy, FaultPlan, FaultReport,
    InjectedFault, TaskFailure, INJECTED_PANIC_MARKER,
};
use crate::payload::{build_arena, PayloadMode, PayloadScratch};
use crate::renamer::{merge_window, RenameStats, Renamer, ShardState, TaskGraph};
use crate::runtime::{self, Role};
use crate::sched::{
    CostAwarePolicy, FifoPolicy, LifoPolicy, LocalityPolicy, SchedKind, SchedPolicy,
};
use tss_sim::{CachePadded, Cycle};
use tss_trace::{OrderViolation, TaskId, TaskTrace};

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
    /// Check the completion log against the `DepGraph` oracle after the
    /// run (on by default; a violating run panics — it is an executor
    /// bug, never a workload property).
    pub validate: bool,
    /// Streaming decode window: tasks committed to the executor per
    /// batch (≥ 1). Smaller windows overlap sooner but commit more
    /// often.
    pub window: usize,
    /// Decode shard threads for streaming runs (≥ 1): address interning
    /// is hash-partitioned this many ways and each shard renames its
    /// partition on its own thread (the distributed-ORT analogy).
    pub decode_shards: usize,
    /// What the run does when a task fails (DESIGN.md §11).
    pub policy: FailurePolicy,
    /// Per-task wall-clock budget: an attempt exceeding it is cancelled
    /// by the watchdog and counts as a [`TaskFailure::Deadline`].
    pub task_deadline: Option<Duration>,
    /// Whole-run wall-clock budget: expiry aborts the run with
    /// [`ExecError::RunDeadline`].
    pub run_deadline: Option<Duration>,
    /// Chaos: kill this worker's thread after its first completed task
    /// (the survivors adopt its deque via the thief protocol). Requires
    /// `threads >= 2`.
    pub kill_worker: Option<usize>,
    /// Scheduling policy (DESIGN.md §13). The default, [`SchedKind::Lifo`],
    /// monomorphizes to the pre-§13 worker loop.
    pub sched: SchedKind,
    /// Worker classes for [`SchedKind::Locality`] (clamped to 1..=2;
    /// 1 disables class routing). Ignored by the other policies.
    pub classes: usize,
    /// Affinity domains for [`SchedKind::Locality`] (clamped to
    /// 1..=threads). Ignored by the other policies.
    pub domains: usize,
    /// External cancellation (DESIGN.md §14.3): when the token fires,
    /// the watchdog aborts the run and it returns
    /// [`ExecError::Cancelled`] with its progress counts. `None` (the
    /// default) adds no machinery at all.
    pub cancel: Option<CancelToken>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 4,
            payload: PayloadMode::Noop,
            renaming: true,
            seed: 1,
            validate: true,
            window: 1024,
            decode_shards: 1,
            policy: FailurePolicy::FailFast,
            task_deadline: None,
            run_deadline: None,
            kill_worker: None,
            sched: SchedKind::Lifo,
            classes: 2,
            domains: 1,
            cancel: None,
        }
    }
}

/// A cloneable external-cancellation handle. The serve layer
/// (DESIGN.md §14.3) arms one per accepted graph so a drain deadline
/// can stop a run that is already executing; anything else that embeds
/// the executor can do the same. The token itself is polled by the
/// watchdog role (same 200 µs tick as the deadlines), never on the task
/// hot path: one extra load per tick. Arming it does put every task on
/// the guarded lane — a firing must be able to stop payloads in flight,
/// so each attempt runs under its worker's watch slot — and that lane
/// is not free: measured on Cholesky-paper (30,856 no-op tasks, one
/// CPU) an armed, unfired token costs +6…14 ns/task over the
/// 126–150 ns/task unarmed run. It cost +43…48 ns/task (a third more)
/// while the lane also read the clock, armed the deadline slot and
/// bumped a shared retry-histogram counter per task whether or not a
/// task deadline or a Retry policy was there to use them (DESIGN.md
/// §11.4). The tick bounds *cancellation* latency only — one tick plus
/// the longest in-flight payload — never completion latency: the
/// watchdog's wait is interrupted the moment the run stops (DESIGN.md
/// §11.3).
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

/// Per-worker counters. Each worker accumulates its own copy on its own
/// stack (the strongest form of false-sharing avoidance — nothing is
/// shared until the run's roles are done) and hands it back then.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Steal *events* (a batch steal of k tasks counts once).
    pub steals: u64,
    /// Steal events that crossed an affinity domain (always ≤ `steals`;
    /// zero under every domain-blind policy, where the check folds to
    /// constant `false` — DESIGN.md §13.4).
    pub cross_steals: u64,
    /// Wall time spent executing tasks, measured per work *burst* (the
    /// span from acquiring work to going idle), not per task: noop
    /// payloads pay two clock reads per burst instead of two per task,
    /// so `noop` throughput still measures scheduling, yet `busy_frac`
    /// is real for every payload (the ISSUE 5 regression was `busy`
    /// never accumulating on noop runs, printing 0.0000 for a worker
    /// that executed every task).
    pub busy: Duration,
}

/// Everything measured in one native replay.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Benchmark name (from the trace).
    pub benchmark: String,
    /// Tasks replayed.
    pub tasks: usize,
    /// Worker threads.
    pub threads: usize,
    /// Payload mode.
    pub payload: PayloadMode,
    /// Decode span. One-shot runs: the serial decode phase. Streaming
    /// runs: from thread start to the last window commit — a *span*
    /// that shares the host with execution, not a pure-work figure.
    pub decode_wall: Duration,
    /// Replay span. One-shot runs: the threaded replay, decode
    /// excluded. Streaming runs: the whole pipelined run — decode
    /// happens *inside* this span, which is the point.
    pub exec_wall: Duration,
    /// Share (percent) of `exec_wall` during which decode was still
    /// streaming. Zero for one-shot runs (decode is a serial phase
    /// before the replay); near 100 means the frontend streamed for the
    /// whole run and was never a standalone latency.
    pub decode_overlap_pct: f64,
    /// Whether this run streamed decode into execution.
    pub streaming: bool,
    /// Decode shard threads used (1 for one-shot runs).
    pub decode_shards: usize,
    /// The completion log: task ids in global completion-ticket order.
    pub order: Vec<TaskId>,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Renamer decode statistics.
    pub rename: RenameStats,
    /// Whether the completion log was checked against the oracle.
    pub validated: bool,
    /// Failure accounting (all-zero for a clean run).
    pub fault: FaultReport,
    /// RingSink observability data (latency histograms, per-worker
    /// event tracks, gauges) — `Some` exactly when the crate was built
    /// with the `obs` feature (DESIGN.md §12), `None` in the NoopSink
    /// default build.
    pub obs: Option<ObsReport>,
}

impl ExecReport {
    /// Decode throughput in nanoseconds per task (the native number the
    /// paper's ~700 ns/task software-decoder ceiling is compared to).
    /// For streaming runs this is a span over a shared host — see
    /// [`ExecReport::decode_wall`].
    pub fn decode_ns_per_task(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.decode_wall.as_nanos() as f64 / self.tasks as f64
    }

    /// Replay throughput in tasks per second (for streaming runs this
    /// is end-to-end: decode is inside the denominator).
    pub fn tasks_per_sec(&self) -> f64 {
        let s = self.exec_wall.as_secs_f64();
        if s > 0.0 {
            self.tasks as f64 / s
        } else {
            0.0
        }
    }

    /// Total steal events across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total cross-domain steal events across workers (§13.4).
    pub fn total_cross_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.cross_steals).sum()
    }

    /// A worker's busy fraction of the replay wall time (burst-timed;
    /// see [`WorkerStats::busy`]).
    pub fn utilization(&self, worker: usize) -> f64 {
        let wall = self.exec_wall.as_secs_f64();
        if wall > 0.0 {
            self.workers[worker].busy.as_secs_f64() / wall
        } else {
            0.0
        }
    }

    /// Tasks that completed (payload ran to success), from the workers'
    /// own counters — independent of the status-array scan that feeds
    /// [`ExecReport::fault`], which is what makes reconciliation a real
    /// cross-check.
    pub fn completed(&self) -> usize {
        self.workers.iter().map(|w| w.executed as usize).sum()
    }

    /// Tasks that completed without ever failing an attempt.
    pub fn completed_clean(&self) -> usize {
        self.completed() - self.fault.retried_ok
    }

    /// The §11 accounting identity: `clean + retried-into-success +
    /// failed + poisoned = tasks`, with `clean + retried` counted by
    /// the workers and `failed + poisoned` by the final status scan. A
    /// report that does not reconcile is an executor bug; the harness
    /// gates on this.
    pub fn accounting_reconciles(&self) -> bool {
        self.completed() + self.fault.failed.len() + self.fault.poisoned.len() == self.tasks
            && self.fault.retried_ok <= self.completed()
    }
}

// ---------------------------------------------------------------------
// Parker
// ---------------------------------------------------------------------

/// Condvar epoch for idle-worker parking. A worker reads the epoch
/// *before* scanning for work and only sleeps if the epoch is unchanged
/// since — any wake between its read and its sleep is therefore
/// observed (the epoch moved) and the sleep aborts. The epoch ops are
/// `SeqCst`: the worker's *read epoch → scan queues* and a producer's
/// *push work → bump epoch* form the classic store-load (Dekker)
/// pattern, which weaker orderings do not close (§8). The mutex and
/// condvar are touched only when someone actually parks or wakes.
struct Parker {
    epoch: CachePadded<AtomicU64>,
    idle: CachePadded<AtomicUsize>,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Self {
        Parker {
            epoch: CachePadded::new(AtomicU64::new(0)),
            idle: CachePadded::new(AtomicUsize::new(0)),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    #[inline]
    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether any worker is parked (a hint for wake throttling; a
    /// missed hint delays a thief until the next wake, it never loses
    /// work — the producer itself still holds the tasks).
    #[inline]
    fn has_idle(&self) -> bool {
        // relaxed: idle-count hint for wake elision; the SeqCst parker
        // epoch is the real sleep/wake edge
        self.idle.load(Ordering::Relaxed) > 0
    }

    /// Wakes one parked worker (throttled wake: surplus in one deque
    /// needs one thief, not a stampede).
    fn wake_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _g = self.lock.lock().expect("parker poisoned");
        self.cv.notify_one();
    }

    /// Wakes all parked workers (window commits, termination).
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Taking the lock orders the bump against a parker that has
        // checked the epoch but not yet entered `wait` (it holds the
        // lock across that window), so the notify cannot land in the
        // gap.
        let _g = self.lock.lock().expect("parker poisoned");
        self.cv.notify_all();
    }

    /// Parks until the epoch moves past `seen` or `done` returns true.
    fn park(&self, seen: u64, done: impl Fn() -> bool) {
        self.idle.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock().expect("parker poisoned");
        while self.epoch.load(Ordering::SeqCst) == seen && !done() {
            g = self.cv.wait(g).expect("parker poisoned");
        }
        drop(g);
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Task status (the POISONED readiness sentinel, DESIGN.md §11)
// ---------------------------------------------------------------------

/// Task ran (or will run) normally.
const HEALTHY: u8 = 0;
/// A producer in the task's ancestry failed: skip the payload, count it
/// quarantined, propagate.
const POISONED: u8 = 1;
/// The task itself failed every attempt.
const FAILED: u8 = 2;

/// Ordering of the *fail-path* pending-list close (the `swap` to
/// `PENDING_CLOSED` in `poison_release`). The release half is what
/// publishes the producer's FAILED/POISONED status byte to a window
/// committer that observes `PENDING_CLOSED` with its `Acquire` head
/// load: weaken it and the committer can read a stale HEALTHY status
/// and wrongly count the edge healthy-satisfied, executing a task whose
/// producer failed. `--cfg tss_bug_poison_relaxed` seeds exactly that
/// bug so CI can prove the model suite still catches it (§10.3).
#[cfg(not(tss_bug_poison_relaxed))]
const POISON_PUBLISH: Ordering = Ordering::AcqRel;
#[cfg(tss_bug_poison_relaxed)]
// relaxed: deliberately-weak seeded-bug arm, compiled only under --cfg
// tss_bug_poison_relaxed; model_poison_publish_reaches_the_committer fails
// when active (DESIGN.md §11.2)
const POISON_PUBLISH: Ordering = Ordering::Relaxed;

/// Marks a task poisoned. Plain store: the countdown RMW chain (or the
/// pending-close publish) that makes the task *ready* is what carries
/// the byte to whoever pops it.
#[inline]
fn mark_poisoned(status: &AtomicU8) {
    // relaxed: poison byte store; carried to the consumer by the countdown
    // AcqRel RMW chain or the pending-close publish (DESIGN.md §11.2)
    status.store(POISONED, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Release modes (how a completion finds its successors)
// ---------------------------------------------------------------------

/// How a completed task's successors are found and counted down. Two
/// implementations, one worker loop: the hot path is monomorphized per
/// mode, never dynamically dispatched.
trait ReleaseSuccs: Sync {
    /// Called exactly once per completed task `t`; appends every task
    /// made ready by this completion to `ready`. `obs` carries the
    /// sampled pending-drain gauge (a no-op in NoopSink builds).
    fn release(&self, t: u32, ready: &mut Vec<u32>, obs: &SharedObs);

    /// [`ReleaseSuccs::release`] for a FAILED or POISONED task `t`:
    /// marks every successor POISONED in `status` *before* counting it
    /// down, so a successor that becomes ready is observed poisoned by
    /// whichever worker pops it (the countdown's AcqRel chain plus the
    /// deque's push/steal protocol carry the byte).
    fn poison_release(&self, t: u32, status: &[AtomicU8], ready: &mut Vec<u32>);
}

/// One-shot mode: the successor CSR is fully decoded up front and the
/// counters start at the exact producer count.
struct PrebuiltRelease<'a> {
    graph: &'a TaskGraph,
    unready: Vec<AtomicI32>,
}

impl<'a> PrebuiltRelease<'a> {
    fn new(graph: &'a TaskGraph) -> Self {
        let unready =
            (0..graph.len()).map(|t| AtomicI32::new(graph.pred_count(t) as i32)).collect();
        PrebuiltRelease { graph, unready }
    }
}

impl ReleaseSuccs for PrebuiltRelease<'_> {
    #[inline]
    fn release(&self, t: u32, ready: &mut Vec<u32>, _obs: &SharedObs) {
        for &s in self.graph.succs(t as TaskId) {
            // AcqRel: release our payload writes to the successor's
            // executor, acquire the other producers' on the 1 → 0 edge.
            if self.unready[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.push(s);
            }
        }
    }

    fn poison_release(&self, t: u32, status: &[AtomicU8], ready: &mut Vec<u32>) {
        for &s in self.graph.succs(t as TaskId) {
            mark_poisoned(&status[s as usize]);
            if self.unready[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.push(s);
            }
        }
    }
}

/// Streaming mode sentinels (pending-list heads).
const PENDING_NIL: u32 = u32::MAX;
const PENDING_CLOSED: u32 = u32::MAX - 1;

/// Streaming mode readiness sentinel: a counter at `UNPUBLISHED − k`
/// means "not yet decoded, k producers already finished". Must exceed
/// any real producer count; `1 << 30` towers over the ≤ `3 ×
/// operands` edge bound.
const UNPUBLISHED: i32 = 1 << 30;

/// Streaming mode: successor sets grow as later windows decode, so each
/// task owns a lock-free pending-release list; counters start at the
/// [`UNPUBLISHED`] sentinel and are reconciled by the window commit.
struct StreamRelease {
    unready: Vec<AtomicI32>,
    /// Pending-list heads: `PENDING_NIL` empty, `PENDING_CLOSED` after
    /// the owner completed and drained, else a `nodes` index.
    pending: Vec<AtomicU32>,
    /// Node slab: `(next << 32) | succ`, bump-allocated by the window
    /// committer (the commit lock serializes allocation), capacity
    /// fixed at the `3 × operands` edge bound so nodes never move.
    nodes: Vec<AtomicU64>,
}

impl StreamRelease {
    fn new(n: usize, edge_cap: usize) -> Self {
        StreamRelease {
            unready: (0..n).map(|_| AtomicI32::new(UNPUBLISHED)).collect(),
            pending: (0..n).map(|_| AtomicU32::new(PENDING_NIL)).collect(),
            nodes: (0..edge_cap).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn countdown(&self, s: u32, ready: &mut Vec<u32>) {
        if self.unready[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            ready.push(s);
        }
    }

    /// Registers edge `p → s` (committer thread, under the commit
    /// lock), storing the list node at `node_idx`. Returns how the edge
    /// resolved; on either `Satisfied*` fate the node slot is unused.
    fn register_edge(&self, node_idx: u32, p: u32, s: u32, status: &[AtomicU8]) -> EdgeFate {
        loop {
            let head = self.pending[p as usize].load(Ordering::Acquire);
            if head == PENDING_CLOSED {
                // `p` completed and drained before this edge existed:
                // the committer owns the satisfaction (§8). The Acquire
                // head load synchronizes with the closing swap, so `p`'s
                // status byte (stored before the close) is visible —
                // unless the seeded §10.3 bug weakened the close.
                // relaxed: status byte read after the Acquire head load
                // observed PENDING_CLOSED; ordered by the AcqRel close
                // (DESIGN.md §11.2)
                return if status[p as usize].load(Ordering::Relaxed) == HEALTHY {
                    EdgeFate::SatisfiedHealthy
                } else {
                    EdgeFate::SatisfiedPoisoned
                };
            }
            // relaxed: node payload write; published to the drainer by the
            // AcqRel head CAS that links it
            self.nodes[node_idx as usize]
                .store(((head as u64) << 32) | s as u64, Ordering::Relaxed);
            if self.pending[p as usize]
                .compare_exchange(head, node_idx, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return EdgeFate::Registered;
            }
            // Lost to the drain swap (or another commit — impossible
            // under the commit lock): retry against the new head.
        }
    }
}

/// How a window-commit edge registration resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeFate {
    /// Pushed onto the producer's pending list; the producer's drain
    /// will count it down.
    Registered,
    /// The producer already completed healthy: the committer counts the
    /// edge satisfied.
    SatisfiedHealthy,
    /// The producer already completed FAILED/POISONED: the committer
    /// counts the edge satisfied *and* poisons the successor.
    SatisfiedPoisoned,
}

impl ReleaseSuccs for StreamRelease {
    #[inline]
    fn release(&self, t: u32, ready: &mut Vec<u32>, obs: &SharedObs) {
        // Close the list: every edge registered up to now is drained
        // here; every edge registered after sees CLOSED and counts
        // itself satisfied at the commit (§8 exactly-once handshake).
        let mut head = self.pending[t as usize].swap(PENDING_CLOSED, Ordering::AcqRel);
        let mut drained = 0u64;
        while head != PENDING_NIL {
            // relaxed: node read after winning the AcqRel swap of the
            // pending head; the swap orders the list
            let node = self.nodes[head as usize].load(Ordering::Relaxed);
            self.countdown(node as u32, ready);
            drained += 1;
            head = (node >> 32) as u32;
        }
        // Sampled pending-drain gauge: folds away in NoopSink builds
        // (`sampled` is const false), and on RingSink builds only 1-in-
        // SAMPLE_EVERY completions touch the shared gauge line.
        if tss_obs::sampled(t) {
            obs.note_pending_drain(drained as usize);
        }
    }

    fn poison_release(&self, t: u32, status: &[AtomicU8], ready: &mut Vec<u32>) {
        // Same close as `release`, but the swap's ordering is the
        // POISON_PUBLISH constant: its release half is what hands `t`'s
        // FAILED/POISONED status byte to a committer that sees CLOSED
        // (the §10.3 seeded bug weakens exactly this edge).
        let mut head = self.pending[t as usize].swap(PENDING_CLOSED, POISON_PUBLISH);
        while head != PENDING_NIL {
            // relaxed: node read after winning the POISON_PUBLISH swap of
            // the pending head; the swap orders the list
            let node = self.nodes[head as usize].load(Ordering::Relaxed);
            let s = node as u32;
            mark_poisoned(&status[s as usize]);
            self.countdown(s, ready);
            head = (node >> 32) as u32;
        }
    }
}

// ---------------------------------------------------------------------
// Shared replay state
// ---------------------------------------------------------------------

/// One worker's deadline-watchdog slot. The worker arms it around each
/// payload attempt; the watchdog thread polls armed slots and raises
/// `cancel` past the deadline. A worker that observes `cancel` verifies
/// the deadline really expired before failing the attempt (the arm ↔
/// poll race can, rarely, cancel a *fresh* attempt; the verification
/// turns that into a silent payload restart instead of a wrong
/// failure).
struct WatchSlot {
    /// Absolute attempt deadline, ns since `Shared::t0` (0 = unarmed).
    deadline_ns: CachePadded<AtomicU64>,
    /// Nonzero = stop the current payload.
    cancel: AtomicU32,
}

impl WatchSlot {
    fn new() -> Self {
        WatchSlot { deadline_ns: CachePadded::new(AtomicU64::new(0)), cancel: AtomicU32::new(0) }
    }
}

/// The watchdog's poll period: the bound on how late a deadline or a
/// fired [`CancelToken`] is noticed (DESIGN.md §11.3).
const WATCHDOG_TICK: Duration = Duration::from_micros(200);

/// The watchdog's interruptible tick: a timed condvar wait that the end
/// of the run interrupts. The tick therefore bounds how late an expiry
/// or cancellation is noticed, never how long a finished run waits for
/// its watchdog role.
struct WatchGate {
    lock: Mutex<()>,
    cv: Condvar,
}

impl WatchGate {
    fn new() -> Self {
        WatchGate { lock: Mutex::new(()), cv: Condvar::new() }
    }

    /// Waits out one `tick`, or less if interrupted. Returns whether
    /// `stopped` holds (checked before the wait, so a run that is
    /// already over costs no tick, and again after it).
    fn tick(&self, tick: Duration, stopped: impl Fn() -> bool) -> bool {
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
    fn interrupt(&self) {
        let _gate = self.lock.lock().expect("watchdog gate poisoned");
        self.cv.notify_one();
    }
}

/// Shared replay state (borrowed by every role of the run's crew).
struct Shared<'a, R: ReleaseSuccs, P: SchedPolicy> {
    mode: R,
    /// The scheduling policy (DESIGN.md §13): statically dispatched,
    /// so the default [`LifoPolicy`] build monomorphizes every hook
    /// into the pre-§13 inline code.
    sched: P,
    trace: &'a TaskTrace,
    /// Traced runtimes as a dense SoA column (only populated for spin
    /// payloads): the readiness/dispatch hot path must not drag each
    /// task's whole 72-byte `TaskDesc` (inline operand slots included)
    /// through the cache for one u64.
    runtimes: Vec<Cycle>,
    n: usize,
    /// Completion tickets: `order[k]` is the k-th task to complete.
    order: Vec<AtomicU32>,
    /// Ticket source *and* termination counter: ticket `n − 1` implies
    /// every task has executed.
    next_ticket: CachePadded<AtomicUsize>,
    deques: Vec<ChaseLev>,
    injector: ChaseLev,
    parker: Parker,
    payload: PayloadMode,

    // --- failure domain (DESIGN.md §11) ---
    /// Per-task status byte (HEALTHY / POISONED / FAILED).
    status: Vec<AtomicU8>,
    /// Nonzero = stop the run (fail-fast failure, run deadline, or an
    /// infrastructure panic). Checked on the idle path and the park
    /// predicate only — never per task.
    abort: CachePadded<AtomicU32>,
    /// Nonzero once any attempt has failed: diverts subsequent tasks
    /// from the fast path onto the guarded path even when no chaos is
    /// armed (a real payload panic under Quarantine must still poison).
    tainted: CachePadded<AtomicU32>,
    /// Resolved fault-injection plan (all-zero when disarmed).
    plan: FaultPlan,
    policy: FailurePolicy,
    max_attempts: u32,
    backoff_base: Duration,
    /// Per-task deadline (None = unarmed).
    task_deadline: Option<Duration>,
    /// Absolute run deadline, ns since `t0` (0 = unarmed).
    run_deadline_ns: u64,
    /// Wall anchor for every deadline computation.
    t0: Stamp,
    /// Shared observability state (ready-time table + gauges); a ZST
    /// no-op unless the `obs` feature is on (DESIGN.md §12).
    obs: SharedObs,
    /// True when any per-task machinery (injection, task deadline, or
    /// payload cancellation for the run deadline) must run: decided
    /// once, so a fault-free run's per-task path is unchanged.
    guarded: bool,
    /// Per-worker watchdog slots (empty when no deadline is armed).
    watch: Vec<WatchSlot>,
    /// Set by the watchdog when the run deadline expired.
    run_deadline_hit: AtomicU32,
    /// External cancellation token (DESIGN.md §14.3), polled by the
    /// watchdog alongside the deadlines.
    cancel: Option<CancelToken>,
    /// Set by the watchdog when the cancel token fired.
    cancel_hit: AtomicU32,
    /// The watchdog's interruptible tick; whatever stops the run cuts
    /// it short ([`Shared::wake_watchdog`]).
    watch_gate: WatchGate,
    /// Final failure records, in completion order.
    failures: Mutex<Vec<FailedTask>>,
    /// First infrastructure (non-payload) panic message.
    infra_panic: Mutex<Option<String>>,
    /// `retry_hist[k]`: outcomes that consumed k+1 attempts. Empty
    /// unless the policy grants more than one attempt: it is only ever
    /// reported then, and bumping `[0]` per task on one line all workers
    /// share was part of what an armed token used to cost (§11.4).
    retry_hist: Vec<AtomicU64>,
    /// Tasks that failed an attempt but eventually completed.
    retried_ok: CachePadded<AtomicUsize>,
}

impl<R: ReleaseSuccs, P: SchedPolicy> Shared<'_, R, P> {
    fn new_for<'t>(trace: &'t TaskTrace, mode: R, cfg: &ExecConfig) -> Shared<'t, R, P> {
        let n = trace.len();
        let threads = cfg.threads;
        let payload = cfg.payload;
        let runtimes = if matches!(payload, PayloadMode::Spin { .. }) {
            trace.iter().map(|t| t.runtime).collect()
        } else {
            Vec::new()
        };
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
            mode,
            sched: P::new(trace, payload, threads, cfg.classes, cfg.domains),
            trace,
            runtimes,
            n,
            order: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
            next_ticket: CachePadded::new(AtomicUsize::new(0)),
            deques: (0..threads).map(|_| ChaseLev::with_capacity(256)).collect(),
            injector: ChaseLev::with_capacity(1024),
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
    fn done(&self) -> bool {
        self.next_ticket.load(Ordering::Acquire) >= self.n
    }

    #[inline]
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire) != 0
    }

    /// Workers exit on this: normal termination *or* an abort.
    #[inline]
    fn stopping(&self) -> bool {
        self.done() || self.aborted()
    }

    /// Raises the abort flag and flushes every parked worker into its
    /// `stopping()` check.
    fn request_abort(&self) {
        self.abort.store(1, Ordering::Release);
        self.parker.wake_all();
        self.wake_watchdog();
    }

    /// Cuts the watchdog's tick short, so a finished run never waits
    /// one out. Call *after* the state `stopping()` reads has been
    /// stored (final ticket taken, or abort raised).
    fn wake_watchdog(&self) {
        if self.watchdog_armed() {
            self.watch_gate.interrupt();
        }
    }

    /// Records a non-payload panic (an executor bug, caught at the
    /// role boundary so the run still finishes cleanly) and aborts.
    fn note_infra_panic(&self, message: String) {
        let mut slot = self.infra_panic.lock().expect("infra panic slot poisoned");
        slot.get_or_insert(message);
        drop(slot);
        self.request_abort();
    }

    /// Whether the run needs a watchdog role.
    #[inline]
    fn watchdog_armed(&self) -> bool {
        !self.watch.is_empty() || self.cancel.is_some()
    }
}

/// Takes the completion ticket for `t` and releases its successors —
/// healthily or (for a FAILED/POISONED `t`) with cone poisoning. Every
/// task, whatever its fate, takes a ticket: the ticket counter is the
/// termination count, and because a failed/poisoned task still only
/// completes after its producers, the *full* log (completed + failed +
/// poisoned) stays a valid `DepGraph` linearization.
fn complete<R: ReleaseSuccs, P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, R, P>,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
    poisoned: bool,
) {
    // Policy bookkeeping (load-gauge decay) before the release: every
    // completed task — poisoned included — balances its dispatch
    // credit. A no-op for every policy without gauges.
    shared.sched.note_executed(w, t);
    // Ticket first, successor release second: any successor's ticket is
    // therefore strictly after every producer's (valid linearization).
    // Relaxed suffices: tickets on one counter are totally ordered, and
    // producer-before-successor follows from the release/acquire edge
    // on the readiness counter (§8).
    let ticket = shared.next_ticket.fetch_add(1, Ordering::AcqRel);
    // relaxed: order slot uniquely claimed by the AcqRel ticket fetch_add;
    // read only after all workers joined
    shared.order[ticket].store(t, Ordering::Relaxed);

    ready.clear();
    if poisoned {
        shared.mode.poison_release(t, &shared.status, ready);
    } else {
        shared.mode.release(t, ready, &shared.obs);
    }
    // Policy ordering of the batch (cost sort): dispatched in order,
    // popped LIFO, so ascending cost runs the costliest first. The
    // default is the identity and folds away.
    shared.sched.prepare(ready);
    let mut routed = 0usize;
    for &s in ready.iter() {
        // The policy decides where the task goes: the own deque (the
        // baseline, `own = true`) or a routed side queue (class
        // routing, `own = false`).
        let own = shared.sched.dispatch(w, s, &shared.deques[w]);
        if !own {
            routed += 1;
        }
        // Sampled spawn instrumentation: a Spawn ring event (the
        // queue-wait anchor, paired with the Task slice at drain) and
        // the deque-depth gauge — one clock read for both. `sampled`
        // is const false in NoopSink builds, so the whole block (the
        // `len()` call included) folds away (DESIGN.md §12.3).
        if tss_obs::sampled(s) {
            wobs.spawn(s, &shared.obs);
            shared.obs.note_deque_depth(shared.deques[w].len());
        }
    }
    if ticket + 1 == shared.n {
        // Final completion: unconditionally flush every parked worker
        // into their done() check, and the watchdog out of its tick.
        shared.parker.wake_all();
        shared.wake_watchdog();
        wobs.wake(&shared.obs);
    } else if routed > 0 {
        // Routed tasks are invisible to the deque/injector scans: only
        // `take_routed` on the idle path finds them, so flush every
        // parked worker — the targeted pool must get a chance to look,
        // and a single wake_one could land on a worker of the wrong
        // class with a full deque. Unreachable (routed is always 0)
        // under policies whose `dispatch` is the baseline.
        shared.parker.wake_all();
        wobs.wake(&shared.obs);
    } else if ready.len() >= 2 && shared.parker.has_idle() {
        // Surplus banked beyond what this worker immediately runs: one
        // thief's worth of news, one wake — not PR 3's per-completion
        // notify_all storm.
        shared.parker.wake_one();
        wobs.wake(&shared.obs);
    }
}

fn run_task<R: ReleaseSuccs, P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, R, P>,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
) {
    // relaxed: tainted poll; a poisoned task's delivery carries the flag
    // via the countdown/deque happens-before (DESIGN.md §11.4)
    if shared.guarded || shared.tainted.load(Ordering::Relaxed) != 0 {
        // Chaos, deadlines, or an earlier failure: the guarded lane
        // owns poison checks and the containment state machine.
        return run_task_guarded(t, w, shared, scratch, stats, ready, wobs);
    }
    // Sampled execution-latency span: a clock read only for 1-in-
    // SAMPLE_EVERY tasks on RingSink builds, nothing at all on NoopSink
    // builds (TaskStamp is zero-sized there).
    let tb = wobs.task_begin(t);
    let outcome: Result<(), Box<dyn std::any::Any + Send>> = match shared.payload {
        // No per-task clock reads on any path: busy time is accumulated
        // per burst by `worker_loop`, so noop runs still measure pure
        // decode + scheduling throughput. Nothing in the noop arm can
        // panic, so the fault-free noop lane is byte-identical to the
        // pre-§11 core.
        PayloadMode::Noop | PayloadMode::Faulty { .. } => Ok(()),
        // Real payloads run inside the containment boundary even on the
        // fast lane: a panicking payload becomes a TaskFailure, never a
        // dead worker. catch_unwind's happy path is a few instructions
        // against payloads that busy-work for microseconds.
        PayloadMode::Spin { time_scale } => catch_unwind(AssertUnwindSafe(|| {
            scratch.run_spin(shared.runtimes[t as usize], time_scale);
        })),
        PayloadMode::Memcpy => catch_unwind(AssertUnwindSafe(|| {
            scratch.run_memcpy(shared.trace.task(t as TaskId));
        })),
        PayloadMode::Mixed { time_scale } => catch_unwind(AssertUnwindSafe(|| {
            scratch.run_mixed(shared.trace.task(t as TaskId), time_scale);
        })),
    };
    match outcome {
        Ok(()) => {
            stats.executed += 1;
            complete(t, w, shared, ready, wobs, false);
            // After `complete`: the span covers payload + successor
            // release, the full service time a waiter observes.
            wobs.task_end(t, tb, &shared.obs);
        }
        Err(payload) => {
            // First failure of the run: taint (diverting everyone to
            // the guarded lane) and hand this task to the policy.
            // relaxed: tainted set on first failure; the failing task's
            // release edges publish it with the poison (DESIGN.md §11.4)
            shared.tainted.store(1, Ordering::Relaxed);
            let failure = TaskFailure::Panicked { message: panic_message(&*payload) };
            resolve_failure(t, w, shared, scratch, stats, ready, wobs, 1, failure);
        }
    }
}

/// The guarded lane: poison check, fault injection, deadline watch, and
/// the attempt loop. Split from [`run_task`] so the fault-free fast
/// lane never pays for any of it.
fn run_task_guarded<R: ReleaseSuccs, P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, R, P>,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
) {
    // The status byte was stored before the countdown/publish that made
    // `t` ready, and the deque transfer carries it here (§11).
    if shared.status[t as usize].load(Ordering::Acquire) != HEALTHY {
        complete(t, w, shared, ready, wobs, true);
        wobs.task_poisoned(t, &shared.obs);
        return;
    }
    let tb = wobs.task_begin(t);
    match attempt_payload(t, 1, w, shared, scratch) {
        Ok(()) => {
            stats.executed += 1;
            if !shared.retry_hist.is_empty() {
                // relaxed: retry histogram counter; aggregated after all
                // workers joined
                shared.retry_hist[0].fetch_add(1, Ordering::Relaxed);
            }
            complete(t, w, shared, ready, wobs, false);
            wobs.task_end(t, tb, &shared.obs);
        }
        Err(AttemptError::Failed(failure)) => {
            // relaxed: tainted set on first failure; the failing task's
            // release edges publish it with the poison (DESIGN.md §11.4)
            shared.tainted.store(1, Ordering::Relaxed);
            resolve_failure(t, w, shared, scratch, stats, ready, wobs, 1, failure);
        }
        Err(AttemptError::Aborted) => {}
    }
}

/// A task attempt's failure modes.
enum AttemptError {
    /// The attempt failed (panic or deadline): the policy decides next.
    Failed(TaskFailure),
    /// The run is aborting (run deadline / fail-fast elsewhere): drop
    /// the attempt without completing the task; the worker loop exits
    /// on its next `stopping()` check.
    Aborted,
}

/// Runs one payload attempt inside the containment boundary, with
/// injection and deadline watching. `attempt` is 1-based.
fn attempt_payload<R: ReleaseSuccs, P: SchedPolicy>(
    t: u32,
    attempt: u32,
    w: usize,
    shared: &Shared<'_, R, P>,
    scratch: &mut PayloadScratch<'_>,
) -> Result<(), AttemptError> {
    let injected = shared.plan.effective(t, attempt, shared.task_deadline.is_some());
    if let Some(InjectedFault::Panic) = injected {
        // Containment-boundary exercise: a real panic, caught exactly
        // where a payload panic would be. The marker keeps the process
        // panic hook quiet for expected chaos (fault::install_quiet_hook).
        let caught = catch_unwind(AssertUnwindSafe(|| {
            panic!("{INJECTED_PANIC_MARKER} task {t} attempt {attempt}");
        }));
        debug_assert!(caught.is_err());
        return match caught {
            Err(payload) => Err(AttemptError::Failed(TaskFailure::Panicked {
                message: panic_message(&*payload),
            })),
            Ok(()) => Ok(()),
        };
    }
    if shared.watch.is_empty() {
        // No deadline armed: plain payload under the boundary.
        // (`effective` already downgraded any Delay to a Panic.)
        let res = catch_unwind(AssertUnwindSafe(|| match shared.payload {
            PayloadMode::Noop | PayloadMode::Faulty { .. } => {}
            PayloadMode::Spin { time_scale } => {
                scratch.run_spin(shared.runtimes[t as usize], time_scale);
            }
            PayloadMode::Memcpy => {
                scratch.run_memcpy(shared.trace.task(t as TaskId));
            }
            PayloadMode::Mixed { time_scale } => {
                scratch.run_mixed(shared.trace.task(t as TaskId), time_scale);
            }
        }));
        return res.map_err(|p| {
            AttemptError::Failed(TaskFailure::Panicked { message: panic_message(&*p) })
        });
    }
    // Watched attempt: arm this worker's slot, run the cancellable
    // payload, verify any cancellation against the clock (see
    // `WatchSlot` for the race this closes).
    let slot = &shared.watch[w];
    loop {
        if shared.aborted() {
            return Err(AttemptError::Aborted);
        }
        // relaxed: cancel reset while the slot is disarmed; under a task
        // deadline the Release deadline_ns arm store publishes it to the
        // watchdog, otherwise the watchdog only raises it together with the
        // abort flag
        slot.cancel.store(0, Ordering::Relaxed);
        // Only a task deadline needs the clock and the deadline slot: a
        // run deadline or a cancel token stops payloads through
        // `slot.cancel` alone and pays neither (§11.4).
        let timed = shared.task_deadline.map(|dl| {
            let started = Stamp::now();
            let abs = shared.t0.elapsed() + dl;
            slot.deadline_ns.store((abs.as_nanos() as u64).max(1), Ordering::Release);
            (started, dl)
        });
        let outcome = match injected {
            Some(InjectedFault::Delay) => {
                // Stall until the watchdog cancels (only reachable with
                // a task deadline armed — `effective` guarantees it).
                scratch.stall_until_cancelled(&slot.cancel);
                Ok(true)
            }
            _ => catch_unwind(AssertUnwindSafe(|| {
                let task = shared.trace.task(t as TaskId);
                let (_, cancelled) = scratch.run_watched(shared.payload, task, &slot.cancel);
                cancelled
            })),
        };
        if timed.is_some() {
            slot.deadline_ns.store(0, Ordering::Release);
        }
        match outcome {
            Ok(false) => return Ok(()),
            Ok(true) => {
                if shared.run_deadline_hit.load(Ordering::Acquire) != 0 || shared.aborted() {
                    return Err(AttemptError::Aborted);
                }
                if timed.is_some_and(|(started, dl)| started.elapsed() >= dl) {
                    return Err(AttemptError::Failed(TaskFailure::Deadline));
                }
                // Stale cancel from the previous task's expiry racing
                // the re-arm: restart the attempt (payloads are
                // idempotent on private scratch).
            }
            Err(p) => {
                return Err(AttemptError::Failed(TaskFailure::Panicked {
                    message: panic_message(&*p),
                }))
            }
        }
    }
}

/// Applies the failure policy after attempt `attempt` of task `t`
/// failed with `failure`: retries (with seeded backoff) while attempts
/// remain, then fail-fasts or quarantines.
#[allow(clippy::too_many_arguments)]
fn resolve_failure<R: ReleaseSuccs, P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, R, P>,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    ready: &mut Vec<u32>,
    wobs: &mut WorkerObs,
    mut attempt: u32,
    mut failure: TaskFailure,
) {
    while attempt < shared.max_attempts && !shared.aborted() {
        let wait = backoff_for(shared.plan.seed, t, attempt, shared.backoff_base);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        attempt += 1;
        wobs.retry(t, &shared.obs);
        match attempt_payload(t, attempt, w, shared, scratch) {
            Ok(()) => {
                stats.executed += 1;
                // relaxed: retried-ok counter; aggregated after all workers
                // joined
                shared.retried_ok.fetch_add(1, Ordering::Relaxed);
                if !shared.retry_hist.is_empty() {
                    // relaxed: retry histogram counter; aggregated after
                    // all workers joined
                    shared.retry_hist[(attempt - 1) as usize].fetch_add(1, Ordering::Relaxed);
                }
                complete(t, w, shared, ready, wobs, false);
                return;
            }
            Err(AttemptError::Failed(f)) => failure = f,
            Err(AttemptError::Aborted) => return,
        }
    }
    if shared.aborted() {
        return;
    }
    // Attempts exhausted: record, then fail-fast or quarantine.
    {
        let mut failures = shared.failures.lock().expect("failure log poisoned");
        failures.push(FailedTask { task: t, attempts: attempt, failure });
    }
    if !shared.retry_hist.is_empty() {
        // relaxed: retry histogram counter; aggregated after all workers
        // joined
        shared.retry_hist[(attempt - 1) as usize].fetch_add(1, Ordering::Relaxed);
    }
    match shared.policy {
        FailurePolicy::FailFast => {
            // No ticket, no release: successors starve by design; the
            // abort flag (not the ticket count) ends the run.
            shared.request_abort();
        }
        FailurePolicy::Retry { .. } | FailurePolicy::Quarantine => {
            // FAILED is stored before `complete`'s poison_release
            // closes the pending list, so the §11 publish hands the
            // byte to any later window commit.
            // relaxed: FAILED byte store; published by the subsequent
            // POISON_PUBLISH pending-close or countdown chain
            // (DESIGN.md §11.2)
            shared.status[t as usize].store(FAILED, Ordering::Relaxed);
            complete(t, w, shared, ready, wobs, true);
            wobs.task_poisoned(t, &shared.obs);
        }
    }
}

/// How a worker role left the run. Either way it hands back its
/// counters and its observability sink (drained once the crew is done).
enum WorkerExit {
    /// Normal exit: ran until termination (or abort).
    Finished(WorkerStats, WorkerObs),
    /// Injected worker kill: the role returned mid-run with work possibly
    /// still in its deque — the survivors adopt it via the thief
    /// protocol (the Chase-Lev top end needs no owner).
    Killed(WorkerStats, WorkerObs),
}

fn worker_loop<R: ReleaseSuccs, P: SchedPolicy>(
    w: usize,
    shared: &Shared<'_, R, P>,
    arena: &[u8],
    seed: u64,
) -> WorkerExit {
    let mut stats = WorkerStats::default();
    let mut wobs = WorkerObs::new();
    // The whole-worker span guarantees every worker track carries at
    // least one event, even for a worker that never won a task.
    let span = SpanStamp::begin();
    let mut scratch = PayloadScratch::new(arena);
    let mut ready: Vec<u32> = Vec::with_capacity(64);
    let mut rng = seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let me = &shared.deques[w];
    // Victim scan order, refilled by the policy each idle scan (reused
    // so the steady state allocates nothing).
    let mut victims: Vec<usize> = Vec::with_capacity(shared.deques.len());
    // Injected worker loss: die *between* tasks after the first
    // completion — a clean kill (ticket taken, successors released), so
    // the run still terminates; only the parallelism degrades.
    let kill_after: u64 = match shared.plan.kill_worker {
        Some(k) if k == w => 1,
        _ => u64::MAX,
    };

    loop {
        // Fast path: drain the own deque depth-first. No epoch or done
        // loads per task — those belong to the idle path. The burst is
        // clocked as one span: two clock reads however many tasks
        // drain, and the Burst ring event reuses exactly those two
        // stamps (zero extra reads, DESIGN.md §12.3).
        if let Some(t) = shared.sched.take_local(w, me) {
            let burst = Stamp::now();
            let before = stats.executed;
            run_task(t, w, shared, &mut scratch, &mut stats, &mut ready, &mut wobs);
            while stats.executed < kill_after {
                match shared.sched.take_local(w, me) {
                    Some(t) => {
                        run_task(t, w, shared, &mut scratch, &mut stats, &mut ready, &mut wobs)
                    }
                    None => break,
                }
            }
            let end = Stamp::now();
            stats.busy += end.since(burst);
            wobs.burst(burst, end, stats.executed - before, &shared.obs);
            if stats.executed >= kill_after {
                // Leave abandoned work visible: wake everyone so the
                // survivors rescan and adopt this deque.
                shared.parker.wake_all();
                wobs.worker_span(w as u32, span, &shared.obs);
                return WorkerExit::Killed(stats, wobs);
            }
        }
        if shared.stopping() {
            break;
        }
        // Epoch before the scans: any push after a failed scan moves
        // the epoch and aborts the park (§8 Dekker pairing).
        let epoch = shared.parker.current_epoch();
        let task = shared
            .sched
            .take_routed(w)
            .or_else(|| shared.injector.steal_batch_into(me, BATCH_MAX))
            .or_else(|| {
                // The policy orders the victim scan (baseline: one
                // random rotation over everyone else; locality: own
                // domain first, cross-domain fallback after). The scan
                // stays *complete* — every deque is visited — which
                // the park/termination argument requires (§13.4).
                shared.sched.victims(w, &mut rng, &mut victims);
                victims.iter().find_map(|&victim| {
                    let t = shared.deques[victim].steal_batch_into(me, BATCH_MAX);
                    if t.is_some() {
                        stats.steals += 1;
                        if shared.sched.cross_domain(w, victim) {
                            stats.cross_steals += 1;
                        }
                        wobs.steal(victim as u32, &shared.obs);
                    }
                    t
                })
            });
        match task {
            Some(t) => {
                // A successful batch steal banked surplus: chain one
                // wake so other idle workers can re-balance too.
                if !me.is_empty() && shared.parker.has_idle() {
                    shared.parker.wake_one();
                    wobs.wake(&shared.obs);
                }
                let burst = Stamp::now();
                let before = stats.executed;
                run_task(t, w, shared, &mut scratch, &mut stats, &mut ready, &mut wobs);
                let end = Stamp::now();
                stats.busy += end.since(burst);
                wobs.burst(burst, end, stats.executed - before, &shared.obs);
                if stats.executed >= kill_after {
                    shared.parker.wake_all();
                    wobs.worker_span(w as u32, span, &shared.obs);
                    return WorkerExit::Killed(stats, wobs);
                }
            }
            None => {
                if shared.stopping() {
                    break;
                }
                let parked = wobs.park_begin();
                shared.parker.park(epoch, || shared.stopping());
                wobs.park(parked, &shared.obs);
            }
        }
    }
    wobs.worker_span(w as u32, span, &shared.obs);
    WorkerExit::Finished(stats, wobs)
}

/// The deadline watchdog: a crew role that cancels expired attempts and
/// aborts the run past its deadline or on a fired token, polling once
/// per [`WATCHDOG_TICK`] (noise against ms-scale deadlines). Part of
/// the run only when a deadline or token is armed; returns as soon as
/// the run stops ([`WatchGate`]).
fn watchdog_loop<R: ReleaseSuccs, P: SchedPolicy>(shared: &Shared<'_, R, P>) {
    loop {
        // The gate is released before the poll: `request_abort` below
        // takes it again to interrupt (by then nobody's) tick.
        if shared.watch_gate.tick(WATCHDOG_TICK, || shared.stopping()) {
            return;
        }
        let now = shared.t0.elapsed().as_nanos() as u64;
        for slot in &shared.watch {
            let dl = slot.deadline_ns.load(Ordering::Acquire);
            if dl != 0 && now >= dl {
                slot.cancel.store(1, Ordering::Release);
            }
        }
        if shared.run_deadline_ns != 0 && now >= shared.run_deadline_ns {
            shared.run_deadline_hit.store(1, Ordering::Release);
            // Cancel every in-flight payload, then abort: workers
            // observe `Aborted` attempts and exit without completing.
            for slot in &shared.watch {
                slot.cancel.store(1, Ordering::Release);
            }
            shared.request_abort();
            return;
        }
        // External cancellation (DESIGN.md §14.3): same abort protocol
        // as the run deadline, but reported as `ExecError::Cancelled`.
        // With no deadline armed there are no watch slots, so an
        // in-flight payload finishes before its worker observes the
        // abort on the idle path — cancellation is prompt, not
        // preemptive.
        if let Some(token) = &shared.cancel {
            if token.is_cancelled() {
                shared.cancel_hit.store(1, Ordering::Release);
                for slot in &shared.watch {
                    slot.cancel.store(1, Ordering::Release);
                }
                shared.request_abort();
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Streaming decode plumbing
// ---------------------------------------------------------------------

/// One window × shard pair buffer: `(consumer, producer)` in scan
/// order.
type PairBuf = Vec<(u32, u32)>;

/// Decode-side shared state for a streaming run.
struct DecodeShared<'a> {
    trace: &'a TaskTrace,
    window: usize,
    windows: usize,
    shards: usize,
    /// `scan_done[w]`: shards that have finished scanning window `w`.
    scan_done: Vec<AtomicUsize>,
    /// `bufs[w][sh]`: window `w`'s `(consumer, producer)` pairs from
    /// shard `sh`. Mutex-guarded but uncontended by construction (the
    /// owning shard writes before its `scan_done` bump; the committer
    /// reads after observing all bumps) — the lock is an auditability
    /// choice on a per-window cold path.
    bufs: Vec<Vec<Mutex<PairBuf>>>,
    /// Serializes window commits and owns the committer-side cursors.
    commit: Mutex<CommitState>,
    /// Wall-clock anchor for [`ExecReport::decode_wall`].
    started: Stamp,
    /// Nanoseconds from `started` to the last commit.
    decode_span_ns: AtomicU64,
}

struct CommitState {
    /// Next window to commit (windows commit strictly in order: that
    /// keeps injector pushes — and thus 1-worker replays —
    /// deterministic).
    next_window: usize,
    /// Bump cursor into the `StreamRelease` node slab.
    node_cursor: usize,
    /// Enforced (post-dedup) edges registered so far.
    edges: usize,
    scratch: Vec<u32>,
}

impl<'a> DecodeShared<'a> {
    fn new(trace: &'a TaskTrace, window: usize, shards: usize) -> Self {
        let n = trace.len();
        let windows = n.div_ceil(window.max(1));
        DecodeShared {
            trace,
            window,
            windows,
            shards,
            scan_done: (0..windows).map(|_| AtomicUsize::new(0)).collect(),
            bufs: (0..windows)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            commit: Mutex::new(CommitState {
                next_window: 0,
                node_cursor: 0,
                edges: 0,
                scratch: Vec::new(),
            }),
            started: Stamp::now(),
            decode_span_ns: AtomicU64::new(0),
        }
    }

    /// Commits every consecutively-ready window starting at the commit
    /// cursor. Called by whichever shard thread finished a window last;
    /// the commit mutex makes the committer role migrate safely (the
    /// injector's owner contract rides the same lock).
    fn commit_ready<P: SchedPolicy>(
        &self,
        shared: &Shared<'_, StreamRelease, P>,
        dobs: &mut WorkerObs,
    ) {
        let mut st = self.commit.lock().expect("commit state poisoned");
        let mut pushed_roots = false;
        while st.next_window < self.windows {
            let w = st.next_window;
            if self.scan_done[w].load(Ordering::Acquire) != self.shards {
                break;
            }
            let lo = w * self.window;
            let hi = ((w + 1) * self.window).min(self.trace.len());
            let views: Vec<PairBuf> = self.bufs[w]
                .iter()
                .map(|m| std::mem::take(&mut *m.lock().expect("window buffer poisoned")))
                .collect();
            let mut cursors = vec![0usize; self.shards];
            let mut scratch = std::mem::take(&mut st.scratch);
            let mut node_cursor = st.node_cursor;
            let mut edges = 0usize;
            merge_window(lo, hi, &views, &mut cursors, &mut scratch, |s, preds| {
                let mut satisfied = 0usize;
                for &p in preds {
                    let idx = node_cursor as u32;
                    node_cursor += 1;
                    match shared.mode.register_edge(idx, p, s, &shared.status) {
                        EdgeFate::Registered => {}
                        EdgeFate::SatisfiedHealthy => {
                            satisfied += 1;
                            node_cursor -= 1; // node unused: reuse the slot
                        }
                        EdgeFate::SatisfiedPoisoned => {
                            // The producer failed (or was poisoned)
                            // before this edge existed: the committer
                            // owns both the satisfaction *and* the
                            // poison propagation (§11).
                            mark_poisoned(&shared.status[s as usize]);
                            satisfied += 1;
                            node_cursor -= 1;
                        }
                    }
                }
                edges += preds.len();
                // Publish: fold the sentinel away. Whichever atomic op
                // lands the counter exactly on zero owns the push.
                let delta = preds.len() as i32 - satisfied as i32 - UNPUBLISHED;
                let old = shared.mode.unready[s as usize].fetch_add(delta, Ordering::AcqRel);
                if old + delta == 0 {
                    shared.injector.push(s);
                    pushed_roots = true;
                    // Injector-path Spawn event for sampled roots (the
                    // deque-path event lives in `complete`); the
                    // drain-time pairing in `SharedObs::finish` turns
                    // it into the task's queue-wait anchor.
                    if tss_obs::sampled(s) {
                        dobs.spawn(s, &shared.obs);
                    }
                }
            });
            st.scratch = scratch;
            st.node_cursor = node_cursor;
            st.edges += edges;
            st.next_window = w + 1;
            // Per-window commit event + commit-lag gauge (how far the
            // committed frontier runs ahead of completions). The whole
            // block folds away in NoopSink builds.
            if tss_obs::ENABLED {
                dobs.commit(w as u32, &shared.obs);
                // relaxed: commit-lag gauge sample of the ticket counter;
                // advisory observability snapshot, never a correctness
                // input (DESIGN.md §12.3)
                let lag = hi.saturating_sub(shared.next_ticket.load(Ordering::Relaxed));
                shared.obs.note_commit_lag(lag as u64);
            }
        }
        let finished = st.next_window == self.windows;
        drop(st);
        if finished {
            let ns = self.started.elapsed().as_nanos() as u64;
            // relaxed: decode-span metric fetch_max; diagnostic timing
            // only, never a correctness input
            self.decode_span_ns.fetch_max(ns, Ordering::Relaxed);
        }
        if pushed_roots {
            // One wake per commit, not per task: parked workers rescan
            // the injector and re-balance via batch steals.
            shared.parker.wake_all();
        }
    }
}

/// One decode shard thread: scan every window (in order — the shard's
/// rename state is sequential), commit whenever this shard is the last
/// to finish a window.
fn decode_loop<P: SchedPolicy>(
    shard: usize,
    renaming: bool,
    dec: &DecodeShared<'_>,
    shared: &Shared<'_, StreamRelease, P>,
) -> (RenameStats, WorkerObs) {
    let mut dobs = WorkerObs::new();
    let mut state = ShardState::new(renaming, shard as u32, dec.shards as u32);
    for w in 0..dec.windows {
        let lo = w * dec.window;
        let hi = ((w + 1) * dec.window).min(dec.trace.len());
        let sp = SpanStamp::begin();
        {
            let mut buf = dec.bufs[w][shard].lock().expect("window buffer poisoned");
            state.scan(dec.trace, lo, hi, &mut buf);
        }
        dobs.scan(w as u32, sp, &shared.obs);
        if dec.scan_done[w].fetch_add(1, Ordering::AcqRel) + 1 == dec.shards {
            dec.commit_ready(shared, &mut dobs);
        }
    }
    (*state.stats(), dobs)
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// The native out-of-order task executor.
///
/// ```
/// use tss_exec::{ExecConfig, Executor};
/// use tss_workloads::{Benchmark, Scale};
///
/// let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
/// let report = Executor::new(ExecConfig { threads: 2, ..ExecConfig::default() })
///     .run(&trace)
///     .expect("replay failed");
/// assert_eq!(report.tasks, trace.len());
/// assert!(report.validated);
/// assert!(report.streaming);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Executor {
    config: ExecConfig,
}

impl Executor {
    /// An executor with the given configuration (`window` and
    /// `decode_shards` are clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is zero, or if `kill_worker` is set
    /// with fewer than two workers / an out-of-range index (a lone
    /// killed worker could never finish the run).
    pub fn new(mut config: ExecConfig) -> Self {
        assert!(config.threads >= 1, "the executor needs at least one worker");
        if let Some(k) = config.kill_worker {
            assert!(config.threads >= 2, "kill_worker needs at least two workers");
            assert!(k < config.threads, "kill_worker index out of range");
        }
        config.window = config.window.max(1);
        config.decode_shards = config.decode_shards.max(1);
        config.classes = config.classes.clamp(1, crate::payload::NUM_CLASSES);
        config.domains = config.domains.clamp(1, config.threads);
        Executor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Streams `trace` through the pipelined core: decode shard threads
    /// rename window by window while workers already execute committed
    /// windows.
    ///
    /// # Errors
    ///
    /// [`ExecError::TaskFailed`] under `FailFast`, `RunDeadline` past
    /// the run budget, `WorkerPanic` for a non-payload thread death,
    /// and `OracleViolation` if validation rejects the completion log.
    /// Task failures under `Retry`/`Quarantine` are *not* errors: they
    /// come back inside [`ExecReport::fault`].
    pub fn run(&self, trace: &TaskTrace) -> Result<ExecReport, ExecError> {
        // The one policy dispatch of the run (DESIGN.md §13.1): each
        // arm monomorphizes the entire pipeline — worker loop, decode
        // commit, finish — over its policy type. No `dyn` anywhere.
        match self.config.sched {
            SchedKind::Lifo => self.run_inner::<LifoPolicy>(trace),
            SchedKind::Fifo => self.run_inner::<FifoPolicy>(trace),
            SchedKind::CostAware => self.run_inner::<CostAwarePolicy>(trace),
            SchedKind::Locality => self.run_inner::<LocalityPolicy>(trace),
        }
    }

    fn run_inner<P: SchedPolicy>(&self, trace: &TaskTrace) -> Result<ExecReport, ExecError> {
        let n = trace.len();
        let shards = self.config.decode_shards;
        let total_ops: usize = trace.iter().map(|t| t.operands.len()).sum();
        // Pre-dedup pair bound: ≤ 1 RaW per read + 1 WaW per write +
        // readers cleared per write (≤ total reads) — see renamer.rs.
        let edge_cap = 3 * total_ops + 8;
        let shared: Shared<'_, _, P> =
            Shared::new_for(trace, StreamRelease::new(n, edge_cap), &self.config);
        let arena = self.arena();
        // Constructed last: `dec.started` anchors the decode span, so
        // nothing non-decode (notably the memcpy arena build) may sit
        // between it and the run start.
        let dec = DecodeShared::new(trace, self.config.window, shards);

        let t0 = dec.started;
        let mut decoded: Vec<Option<(RenameStats, WorkerObs)>> =
            (0..shards).map(|_| None).collect();
        let decoders = decoded
            .iter_mut()
            .enumerate()
            .map(|(sh, out)| {
                let (dec, shared) = (&dec, &shared);
                let renaming = self.config.renaming;
                Box::new(move || {
                    // Role-boundary containment: a decoder panic (an
                    // executor bug) aborts the run with a structured
                    // error instead of unwinding into the crew.
                    *out =
                        catch_unwind(AssertUnwindSafe(|| decode_loop(sh, renaming, dec, shared)))
                            .map_err(|p| shared.note_infra_panic(panic_message(&*p)))
                            .ok();
                }) as Role<'_>
            })
            .collect();
        let crew = self.run_crew(&shared, &arena, decoders);
        let mut decode_obs: Vec<WorkerObs> = Vec::with_capacity(shards);
        let mut rename = RenameStats::default();
        for (stats, dobs) in decoded.into_iter().flatten() {
            rename.objects += stats.objects;
            rename.tracked_operands += stats.tracked_operands;
            rename.removed_by_renaming += stats.removed_by_renaming;
            decode_obs.push(dobs);
        }
        let exec_wall = t0.elapsed();
        rename.enforced_edges = dec.commit.lock().expect("commit state poisoned").edges;
        // relaxed: decode-span metric read after decode threads joined
        let decode_wall = Duration::from_nanos(dec.decode_span_ns.load(Ordering::Relaxed));
        let overlap = if exec_wall.as_secs_f64() > 0.0 {
            100.0 * decode_wall.as_secs_f64().min(exec_wall.as_secs_f64()) / exec_wall.as_secs_f64()
        } else {
            0.0
        };
        let extras = FinishExtras { decode_wall, exec_wall, overlap, streaming: true, decode_obs };
        self.finish(trace, shared, extras, crew, rename)
    }

    /// PR 3's two-phase shape: decode the whole trace first (timed as a
    /// pure serial phase), then replay it. This is the
    /// apples-to-apples *replay throughput* measurement — decode is
    /// excluded from `exec_wall` — and the fixed-graph shape the
    /// microbenches need.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn run_oneshot(&self, trace: &TaskTrace) -> Result<ExecReport, ExecError> {
        let t0 = Stamp::now();
        let graph = Renamer::new().renaming(self.config.renaming).decode(trace);
        let decode_wall = t0.elapsed();
        self.replay(trace, &graph, decode_wall)
    }

    /// Replays an already-decoded graph (one-shot mode without paying
    /// the decode: benchmark loops hoist it).
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn replay(
        &self,
        trace: &TaskTrace,
        graph: &TaskGraph,
        decode_wall: Duration,
    ) -> Result<ExecReport, ExecError> {
        match self.config.sched {
            SchedKind::Lifo => self.replay_inner::<LifoPolicy>(trace, graph, decode_wall),
            SchedKind::Fifo => self.replay_inner::<FifoPolicy>(trace, graph, decode_wall),
            SchedKind::CostAware => self.replay_inner::<CostAwarePolicy>(trace, graph, decode_wall),
            SchedKind::Locality => self.replay_inner::<LocalityPolicy>(trace, graph, decode_wall),
        }
    }

    fn replay_inner<P: SchedPolicy>(
        &self,
        trace: &TaskTrace,
        graph: &TaskGraph,
        decode_wall: Duration,
    ) -> Result<ExecReport, ExecError> {
        assert_eq!(graph.len(), trace.len(), "graph decoded from a different trace");
        let shared: Shared<'_, _, P> =
            Shared::new_for(trace, PrebuiltRelease::new(graph), &self.config);
        for r in graph.roots() {
            shared.injector.push(r as u32);
            // No Spawn events for roots: they are pushed by the submitter
            // before any worker role (and its ring) exists, so their
            // queue wait goes unmeasured — sampling loss, not bias
            // (DESIGN.md §12.3).
        }
        let arena = self.arena();

        let t0 = Stamp::now();
        let crew = self.run_crew(&shared, &arena, Vec::new());
        let exec_wall = t0.elapsed();
        let rename = *graph.stats();
        let extras = FinishExtras {
            decode_wall,
            exec_wall,
            overlap: 0.0,
            streaming: false,
            decode_obs: Vec::new(),
        };
        self.finish(trace, shared, extras, crew, rename)
    }

    /// Runs one graph's roles on a crew leased from the resident
    /// runtime (DESIGN.md §15) and returns once all of them have:
    /// `front` (the streaming mode's decode shards) on the first
    /// members, then one worker per configured thread, then — only when
    /// a deadline or cancel token is armed — the watchdog, last so that
    /// arming it does not move any other role to a different resident
    /// thread. An empty graph has nothing to run and leases nothing.
    fn run_crew<'r, R: ReleaseSuccs, P: SchedPolicy>(
        &self,
        shared: &'r Shared<'_, R, P>,
        arena: &'r [u8],
        front: Vec<Role<'r>>,
    ) -> CrewOut {
        let threads = self.config.threads;
        let mut exits: Vec<Option<WorkerExit>> = (0..threads).map(|_| None).collect();
        if shared.n > 0 {
            let mut roles: Vec<Role<'_>> = front;
            roles.reserve(threads + 1);
            let seed = self.config.seed;
            for (w, exit) in exits.iter_mut().enumerate() {
                roles.push(Box::new(move || {
                    *exit = catch_unwind(AssertUnwindSafe(|| worker_loop(w, shared, arena, seed)))
                        .map_err(|p| shared.note_infra_panic(panic_message(&*p)))
                        .ok();
                }));
            }
            if shared.watchdog_armed() {
                roles.push(Box::new(move || watchdog_loop(shared)));
            }
            runtime::global().run(roles);
        }
        let mut crew = CrewOut {
            workers: Vec::with_capacity(threads),
            worker_obs: Vec::with_capacity(threads),
            workers_lost: 0,
        };
        for exit in exits {
            // An empty slot after a run is a worker whose role died of
            // an (already noted) infrastructure panic.
            let (stats, wobs, lost) = match exit {
                Some(WorkerExit::Finished(stats, wobs)) => (stats, wobs, false),
                Some(WorkerExit::Killed(stats, wobs)) => (stats, wobs, true),
                None => (WorkerStats::default(), WorkerObs::new(), shared.n > 0),
            };
            crew.workers.push(stats);
            crew.worker_obs.push(wobs);
            crew.workers_lost += usize::from(lost);
        }
        crew
    }

    /// Only memcpy (and mixed, whose memory class memcpys) reads the
    /// source arena; noop/spin runs get a minimal zeroed one (building
    /// the 4 MB pattern would dominate short replays).
    fn arena(&self) -> Vec<u8> {
        match self.config.payload {
            PayloadMode::Memcpy | PayloadMode::Mixed { .. } => build_arena(),
            _ => vec![0u8; 2 * tss_workloads::payload::CHUNK_CAP],
        }
    }

    fn finish<R: ReleaseSuccs, P: SchedPolicy>(
        &self,
        trace: &TaskTrace,
        shared: Shared<'_, R, P>,
        extras: FinishExtras,
        crew: CrewOut,
        rename: RenameStats,
    ) -> Result<ExecReport, ExecError> {
        let FinishExtras { decode_wall, exec_wall, overlap, streaming, decode_obs } = extras;
        let CrewOut { workers, worker_obs, workers_lost } = crew;
        // Error resolution order: infrastructure death first (nothing
        // else is trustworthy after an executor-bug panic), then the
        // run deadline, then a fail-fast task failure.
        let infra = shared.infra_panic.lock().expect("infra panic slot poisoned").take();
        if let Some(message) = infra {
            return Err(ExecError::WorkerPanic { message });
        }
        let completed = shared.next_ticket.load(Ordering::Acquire).min(shared.n);
        if shared.cancel_hit.load(Ordering::Acquire) != 0 {
            return Err(ExecError::Cancelled { completed, tasks: shared.n });
        }
        if shared.run_deadline_hit.load(Ordering::Acquire) != 0 {
            return Err(ExecError::RunDeadline {
                deadline: self.config.run_deadline.unwrap_or_default(),
                completed,
                tasks: shared.n,
            });
        }
        let mut failed =
            std::mem::take(&mut *shared.failures.lock().expect("failure log poisoned"));
        failed.sort_by_key(|f| f.task);
        if matches!(self.config.policy, FailurePolicy::FailFast) && !failed.is_empty() {
            return Err(ExecError::TaskFailed(failed.remove(0)));
        }
        if shared.aborted() {
            // Aborted without an infra panic, deadline, or fail-fast
            // failure: cannot happen by construction; surface it rather
            // than fabricating a report.
            return Err(ExecError::WorkerPanic { message: "run aborted without a cause".into() });
        }
        // relaxed: order slots read after all workers joined
        let order: Vec<TaskId> =
            shared.order.iter().map(|s| s.load(Ordering::Relaxed) as TaskId).collect();
        assert_eq!(order.len(), trace.len(), "executor lost tasks");
        let validated = self.config.validate;
        if validated {
            // The *full* log — failed and poisoned tasks included — must
            // linearize the dependency order: every task, whatever its
            // fate, took its ticket only after its producers took
            // theirs.
            let oracle = trace.dep_graph();
            if let Err(v) = oracle.validate_order(&order) {
                return Err(ExecError::OracleViolation { detail: v.to_string() });
            }
        }
        // relaxed: final status-array scan after all workers joined
        let poisoned: Vec<u32> = (0..shared.n as u32)
            .filter(|&t| shared.status[t as usize].load(Ordering::Relaxed) == POISONED)
            .collect();
        let fault = FaultReport {
            failed,
            poisoned,
            // relaxed: retried-ok read after all workers joined
            retried_ok: shared.retried_ok.load(Ordering::Relaxed),
            // relaxed: retry histogram read after all workers joined
            retry_hist: shared.retry_hist.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
            workers_lost,
        };
        // Drain the per-worker sinks into the report (None in NoopSink
        // builds): histograms merge across workers, rings become
        // per-worker/per-shard tracks.
        let obs = shared.obs.finish(worker_obs, decode_obs);
        Ok(ExecReport {
            benchmark: trace.name().to_string(),
            tasks: trace.len(),
            threads: self.config.threads,
            payload: self.config.payload,
            decode_wall,
            exec_wall,
            decode_overlap_pct: overlap,
            streaming,
            decode_shards: if streaming { self.config.decode_shards } else { 1 },
            order,
            workers,
            rename,
            validated,
            fault,
            obs,
        })
    }
}

/// Mode-specific run measurements handed to `finish`.
struct FinishExtras {
    decode_wall: Duration,
    exec_wall: Duration,
    overlap: f64,
    streaming: bool,
    /// Per-decode-shard sinks (empty for one-shot replays).
    decode_obs: Vec<WorkerObs>,
}

/// What a run's worker roles handed back (`Executor::run_crew`).
struct CrewOut {
    /// Per-worker counters, in worker order.
    workers: Vec<WorkerStats>,
    /// Per-worker observability sinks, in worker order.
    worker_obs: Vec<WorkerObs>,
    /// Workers killed by injection or dead of an infrastructure panic.
    workers_lost: usize,
}

/// Convenience: stream with defaults, returning the report.
///
/// # Errors
///
/// As [`Executor::run`].
pub fn run_trace(trace: &TaskTrace, threads: usize) -> Result<ExecReport, ExecError> {
    Executor::new(ExecConfig { threads, ..ExecConfig::default() }).run(trace)
}

/// Checks a completion log against the dependency oracle without
/// panicking and without building it for the occasion
/// ([`TaskTrace::check_order`]). This is how the owner of a single-use
/// trace validates a run made with `validate: false` — the server does
/// exactly that for every graph it answers `Completed` (DESIGN.md
/// §14.3).
///
/// # Errors
///
/// The first [`OrderViolation`] found.
pub fn check_order(trace: &TaskTrace, order: &[TaskId]) -> Result<(), OrderViolation> {
    trace.check_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_trace::{OperandDesc, TaskTrace};

    fn diamond() -> TaskTrace {
        // 0 → {1, 2} → 3
        let mut tr = TaskTrace::new("diamond");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0xA, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xB, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xC, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xB, 64), OperandDesc::input(0xC, 64)]);
        tr
    }

    #[test]
    fn replays_a_diamond_in_dependency_order() {
        for threads in [1, 2, 4] {
            let report = run_trace(&diamond(), threads).expect("diamond replay failed");
            assert_eq!(report.tasks, 4);
            assert_eq!(report.order[0], 0);
            assert_eq!(report.order[3], 3);
            assert!(report.validated);
            assert!(report.streaming);
            let executed: u64 = report.workers.iter().map(|w| w.executed).sum();
            assert_eq!(executed, 4);
        }
    }

    #[test]
    fn oneshot_replays_the_diamond_too() {
        let cfg = ExecConfig { threads: 2, ..ExecConfig::default() };
        let report = Executor::new(cfg).run_oneshot(&diamond()).expect("oneshot failed");
        assert_eq!(report.tasks, 4);
        assert_eq!(report.order[0], 0);
        assert!(!report.streaming);
        assert_eq!(report.decode_overlap_pct, 0.0);
        assert!(!report.fault.any(), "clean run reported failure activity");
        assert!(report.accounting_reconciles());
    }

    #[test]
    fn empty_trace_is_a_clean_noop() {
        for streaming in [true, false] {
            let exec = Executor::new(ExecConfig { threads: 2, ..ExecConfig::default() });
            let report = if streaming {
                exec.run(&TaskTrace::new("empty")).expect("empty run failed")
            } else {
                exec.run_oneshot(&TaskTrace::new("empty")).expect("empty oneshot failed")
            };
            assert_eq!(report.tasks, 0);
            assert!(report.order.is_empty());
            assert_eq!(report.tasks_per_sec(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Executor::new(ExecConfig { threads: 0, ..ExecConfig::default() });
    }

    #[test]
    fn independent_tasks_all_run() {
        let mut tr = TaskTrace::new("indep");
        let k = tr.add_kernel("k");
        for i in 0..200u64 {
            tr.push_task(k, 10, vec![OperandDesc::output(0x1000 + i * 64, 64)]);
        }
        let report = run_trace(&tr, 4).expect("independent replay failed");
        assert_eq!(report.tasks, 200);
        let mut seen = report.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn no_renaming_serializes_a_waw_chain() {
        let mut tr = TaskTrace::new("waw");
        let k = tr.add_kernel("k");
        for _ in 0..8 {
            tr.push_task(k, 10, vec![OperandDesc::output(0xA, 64)]);
        }
        let cfg = ExecConfig { threads: 4, renaming: false, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&tr).expect("waw replay failed");
        // WaW enforced: completion order must be program order.
        assert_eq!(report.order, (0..8).collect::<Vec<_>>());
        assert_eq!(report.rename.removed_by_renaming, 0);
    }

    #[test]
    fn tiny_windows_and_many_shards_replay_validated() {
        // Window 1 with multiple shards maximizes cross-window edges
        // and pending-release traffic.
        let cfg = ExecConfig { threads: 3, window: 1, decode_shards: 3, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&diamond()).expect("tiny-window replay failed");
        assert!(report.validated);
        assert_eq!(report.order[0], 0);
        assert_eq!(report.order[3], 3);
    }

    #[test]
    fn streaming_rename_stats_match_oneshot() {
        let tr = diamond();
        let oneshot = Renamer::new().decode(&tr);
        let cfg = ExecConfig { threads: 2, window: 2, decode_shards: 2, ..ExecConfig::default() };
        let report = Executor::new(cfg).run(&tr).expect("streaming replay failed");
        assert_eq!(&report.rename, oneshot.stats());
    }

    #[test]
    fn busy_frac_is_positive_for_working_workers() {
        // ISSUE 5 satellite regression: a worker that executed > 0
        // tasks on a non-trivial replay must report busy_frac > 0. The
        // old per-payload accounting skipped noop entirely, so the
        // default BENCH_exec.json printed 0.0000 for a worker that
        // executed every task.
        let mut tr = TaskTrace::new("busy");
        let k = tr.add_kernel("k");
        for i in 0..400u64 {
            tr.push_task(k, 10, vec![OperandDesc::output(0x1000 + i * 64, 64)]);
        }
        for threads in [1, 2] {
            let exec = Executor::new(ExecConfig { threads, ..ExecConfig::default() });
            let report = exec.run_oneshot(&tr).expect("busy replay failed");
            assert!(report.workers.iter().any(|w| w.executed > 0));
            for (w, ws) in report.workers.iter().enumerate() {
                if ws.executed > 0 {
                    assert!(ws.busy > Duration::ZERO, "worker {w} executed, busy stayed zero");
                    assert!(
                        report.utilization(w) > 0.0,
                        "worker {w} executed {} tasks with busy_frac 0",
                        ws.executed
                    );
                }
            }
        }
    }

    #[test]
    fn report_rates_are_sane() {
        let report = run_trace(&diamond(), 2).expect("diamond replay failed");
        assert!(report.tasks_per_sec() > 0.0);
        assert!(report.utilization(0) >= 0.0);
        assert!((0.0..=100.0).contains(&report.decode_overlap_pct));
        assert_eq!(report.total_steals(), report.workers.iter().map(|w| w.steals).sum::<u64>());
    }

    // -----------------------------------------------------------------
    // Failure domain (DESIGN.md §11)
    // -----------------------------------------------------------------

    use crate::fault::{fault_decision, install_quiet_hook};

    /// The diamond plus an independent task 4 (survives any quarantine
    /// of the diamond).
    fn diamond_plus_loner() -> TaskTrace {
        let mut tr = diamond();
        let k = tr.add_kernel("loner");
        tr.push_task(k, 10, vec![OperandDesc::output(0xD, 64)]);
        tr
    }

    /// A seed where, at `rate` ppm, task 0 faults on attempt 1, is clean
    /// on attempt 2, and tasks `1..n` are clean on attempt 1 — found by
    /// scanning the pure `fault_decision` hash, so it is deterministic
    /// and survives any trace change.
    fn seed_failing_only_task0(rate: u32, n: u32) -> u64 {
        (0..10_000u64)
            .find(|&s| {
                fault_decision(s, 0, 1, rate).is_some()
                    && fault_decision(s, 0, 2, rate).is_none()
                    && (1..n).all(|t| fault_decision(s, t, 1, rate).is_none())
            })
            .expect("no qualifying seed in 10k")
    }

    fn chaos_cfg(rate_ppm: u32, seed: u64, policy: FailurePolicy) -> ExecConfig {
        ExecConfig {
            threads: 2,
            payload: PayloadMode::Faulty { rate_ppm, seed },
            policy,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn fail_fast_surfaces_the_injected_panic_as_an_error() {
        install_quiet_hook();
        let cfg = chaos_cfg(1_000_000, 7, FailurePolicy::FailFast);
        match Executor::new(cfg).run(&diamond()) {
            Err(ExecError::TaskFailed(f)) => {
                assert_eq!(f.task, 0, "only the root was ever ready");
                assert_eq!(f.attempts, 1);
                match f.failure {
                    TaskFailure::Panicked { ref message } => {
                        assert!(message.contains(INJECTED_PANIC_MARKER), "message: {message}")
                    }
                    ref other => panic!("expected an injected panic, got {other}"),
                }
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_poisons_exactly_the_successor_cone() {
        install_quiet_hook();
        let rate = 500_000;
        let seed = seed_failing_only_task0(rate, 5);
        let tr = diamond_plus_loner();
        for threads in [1, 2, 4] {
            for streaming in [true, false] {
                let cfg =
                    ExecConfig { threads, ..chaos_cfg(rate, seed, FailurePolicy::Quarantine) };
                let exec = Executor::new(cfg);
                let report = if streaming { exec.run(&tr) } else { exec.run_oneshot(&tr) }
                    .expect("quarantine run aborted");
                assert_eq!(report.fault.failed.len(), 1);
                assert_eq!(report.fault.failed[0].task, 0);
                assert_eq!(report.fault.poisoned, vec![1, 2, 3], "cone mismatch");
                assert_eq!(report.completed(), 1, "the loner still runs");
                assert!(report.fault.retry_hist.is_empty());
                assert!(report.accounting_reconciles());
                assert!(report.validated, "full log (incl. poisoned) passed the oracle");
            }
        }
    }

    #[test]
    fn retry_turns_a_transient_fault_into_success() {
        install_quiet_hook();
        let rate = 500_000;
        let seed = seed_failing_only_task0(rate, 5);
        let policy = FailurePolicy::Retry { max_attempts: 3, backoff: Duration::ZERO };
        let report = Executor::new(chaos_cfg(rate, seed, policy))
            .run(&diamond_plus_loner())
            .expect("retry run aborted");
        assert!(report.fault.failed.is_empty());
        assert!(report.fault.poisoned.is_empty());
        assert_eq!(report.fault.retried_ok, 1);
        assert_eq!(report.completed(), 5);
        assert_eq!(report.completed_clean(), 4);
        assert_eq!(report.fault.retry_hist, vec![4, 1, 0]);
        assert!(report.accounting_reconciles());
    }

    #[test]
    fn retry_exhaustion_fails_the_task_and_poisons_its_cone() {
        install_quiet_hook();
        let policy = FailurePolicy::Retry { max_attempts: 2, backoff: Duration::ZERO };
        let report = Executor::new(chaos_cfg(1_000_000, 3, policy))
            .run(&diamond())
            .expect("retry run aborted");
        assert_eq!(report.fault.failed.len(), 1, "poisoned tasks consume no attempts");
        assert_eq!(report.fault.failed[0].task, 0);
        assert_eq!(report.fault.failed[0].attempts, 2);
        assert_eq!(report.fault.poisoned, vec![1, 2, 3]);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.fault.retry_hist, vec![0, 1]);
        assert!(report.accounting_reconciles());
    }

    #[test]
    fn killed_worker_deque_is_adopted_and_the_run_completes() {
        let mut tr = TaskTrace::new("kill");
        let k = tr.add_kernel("k");
        for i in 0..400u64 {
            tr.push_task(k, 3200, vec![OperandDesc::output(0x1000 + i * 64, 64)]);
            // 1 µs
        }
        for streaming in [true, false] {
            // The kill fires after the victim's first *completed* task;
            // on a fast host the other workers can occasionally drain
            // everything before worker 1 ever runs one, so retry the
            // run until the kill landed (the spin payload makes the
            // first try overwhelmingly likely).
            let mut fired = false;
            for _ in 0..16 {
                let cfg = ExecConfig {
                    threads: 2,
                    kill_worker: Some(1),
                    payload: PayloadMode::Spin { time_scale: 1.0 },
                    ..ExecConfig::default()
                };
                let exec = Executor::new(cfg);
                let report = if streaming { exec.run(&tr) } else { exec.run_oneshot(&tr) }
                    .expect("degraded run failed");
                assert_eq!(report.completed(), 400, "run lost tasks");
                assert!(report.accounting_reconciles());
                if report.fault.workers_lost == 1 {
                    fired = true;
                    break;
                }
            }
            assert!(fired, "injected kill never fired in 16 runs (streaming={streaming})");
        }
    }

    #[test]
    #[should_panic(expected = "kill_worker")]
    fn kill_worker_requires_a_second_worker() {
        let _ =
            Executor::new(ExecConfig { threads: 1, kill_worker: Some(0), ..ExecConfig::default() });
    }

    #[test]
    fn task_deadline_cancels_a_stuck_payload() {
        let mut tr = TaskTrace::new("stuck");
        let k = tr.add_kernel("k");
        tr.push_task(k, 32_000_000_000, vec![]); // 10 s at 3.2 GHz
        let cfg = ExecConfig {
            threads: 2,
            payload: PayloadMode::Spin { time_scale: 1.0 },
            policy: FailurePolicy::Quarantine,
            task_deadline: Some(Duration::from_millis(20)),
            ..ExecConfig::default()
        };
        let report = Executor::new(cfg).run(&tr).expect("deadline run aborted");
        assert_eq!(report.fault.failed.len(), 1);
        assert_eq!(report.fault.failed[0].failure, TaskFailure::Deadline);
        assert_eq!(report.completed(), 0);
        assert!(report.accounting_reconciles());
    }

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

    #[test]
    fn faulty_single_worker_failure_sets_are_seed_deterministic() {
        install_quiet_hook();
        let tr = diamond_plus_loner();
        let collect = |seed: u64| {
            let cfg =
                ExecConfig { threads: 1, ..chaos_cfg(250_000, seed, FailurePolicy::Quarantine) };
            let r = Executor::new(cfg).run(&tr).expect("chaos run aborted");
            (r.fault.failed.clone(), r.fault.poisoned.clone())
        };
        for seed in 0..32u64 {
            assert_eq!(collect(seed), collect(seed), "seed {seed} not reproducible");
        }
    }
}

/// Model-checked interleaving tests for the parker (DESIGN.md §10.3).
/// Compiled only under `RUSTFLAGS="--cfg tss_model_check"`.
#[cfg(all(test, tss_model_check))]
mod model_tests {
    use super::*;
    use shuttle::thread;
    use std::sync::Arc;

    /// The park/wake handoff: a worker that sees no work parks against
    /// an epoch snapshot; a producer publishes work and bumps the
    /// epoch. In every interleaving (exhaustive) the worker terminates
    /// having observed the work — the epoch protocol closes the classic
    /// lost-wakeup window (wake landing between the worker's scan and
    /// its sleep). A lost wakeup here shows up as a model-detected
    /// deadlock, not a hang.
    #[test]
    fn model_parker_handoff_never_loses_the_wake() {
        let report = shuttle::check_exhaustive(300_000, || {
            let parker = Arc::new(Parker::new());
            let work = Arc::new(AtomicU32::new(0));
            let (p2, w2) = (parker.clone(), work.clone());
            let worker = thread::spawn(move || {
                // The real worker loop shape: snapshot epoch, scan,
                // park only if the scan came up empty.
                loop {
                    let seen = p2.current_epoch();
                    if w2.load(Ordering::SeqCst) == 1 {
                        break;
                    }
                    p2.park(seen, || false);
                }
            });
            work.store(1, Ordering::SeqCst);
            parker.wake_one();
            worker.join().unwrap();
            assert_eq!(work.load(Ordering::SeqCst), 1);
        });
        assert!(report.complete, "budget too small: {} schedules", report.schedules);
    }

    /// `wake_all` reaches both parked workers (the window-commit path):
    /// no schedule leaves a worker asleep once the producer has bumped
    /// the epoch.
    #[test]
    fn model_parker_wake_all_reaches_every_worker() {
        shuttle::check_pct(0xAB5E_1200, 400, 3, || {
            let parker = Arc::new(Parker::new());
            let work = Arc::new(AtomicU32::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (p2, w2) = (parker.clone(), work.clone());
                    thread::spawn(move || loop {
                        let seen = p2.current_epoch();
                        if w2.load(Ordering::SeqCst) == 1 {
                            break;
                        }
                        p2.park(seen, || false);
                    })
                })
                .collect();
            work.store(1, Ordering::SeqCst);
            parker.wake_all();
            for w in workers {
                w.join().unwrap();
            }
        });
    }

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

    /// The §11 poison-publish handshake: a failing producer stores its
    /// FAILED status byte and closes its pending list
    /// (`poison_release`) while a window committer races to register an
    /// edge from it (`register_edge`). In every interleaving the
    /// successor ends up POISONED — either the producer's drain marks
    /// it (edge registered in time) or the committer observes the
    /// CLOSED head *and* the FAILED byte behind it
    /// (`EdgeFate::SatisfiedPoisoned`). The release half of the
    /// `POISON_PUBLISH` swap is what carries the byte across the second
    /// path: `--cfg tss_bug_poison_relaxed` weakens exactly that swap
    /// and this test fails — without the release edge the committer's
    /// `Acquire` head loads are never forced past the stale head (the
    /// model flags the retry loop as a livelock), and a schedule that
    /// does observe CLOSED may still read a stale HEALTHY byte behind
    /// it. The CI negative gate proves the model keeps catching it.
    #[test]
    fn model_poison_publish_reaches_the_committer() {
        let report = shuttle::check_exhaustive(300_000, || {
            let sr = Arc::new(StreamRelease::new(2, 4));
            let status: Arc<Vec<AtomicU8>> =
                Arc::new((0..2).map(|_| AtomicU8::new(HEALTHY)).collect());
            let (sr2, st2) = (sr.clone(), status.clone());
            let producer = thread::spawn(move || {
                // The resolve_failure shape: FAILED first, close second.
                // relaxed: model test: producer-side plain store; the
                // poison_release close under test provides the publish edge
                st2[0].store(FAILED, Ordering::Relaxed);
                let mut ready = Vec::new();
                sr2.poison_release(0, &st2, &mut ready);
            });
            let fate = sr.register_edge(0, 0, 1, &status);
            producer.join().unwrap();
            match fate {
                EdgeFate::Registered => {
                    // The drain owned the edge: it must have poisoned
                    // the successor on its way through.
                    // relaxed: model test: assertion read after the
                    // producer joined
                    assert_eq!(
                        status[1].load(Ordering::Relaxed),
                        POISONED,
                        "drain missed a registered edge"
                    );
                }
                EdgeFate::SatisfiedPoisoned => {} // committer poisons s
                EdgeFate::SatisfiedHealthy => {
                    panic!("committer read a stale HEALTHY byte for a failed producer")
                }
            }
        });
        assert!(report.complete, "budget too small: {} schedules", report.schedules);
    }
}
