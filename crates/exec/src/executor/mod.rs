//! The execution core: real threads replaying a task graph out of
//! order — a *pipelined* core in which decode itself streams
//! concurrently with execution, the way the paper's distributed
//! ORT/OVT/TRS frontend feeds its backend without serializing it.
//!
//! Scheme (DESIGN.md §7 for the execution side and the map of this
//! module, §8 for the streaming protocol and memory orderings):
//!
//! - **One pipeline, two front ends.** Every run is the same crew of
//!   workers over the same release table; the entry points differ only
//!   in where the graph comes from. [`Executor::run`] streams: a worker
//!   with nothing to run takes a *decode step* — renames the next
//!   window and commits it — while the other workers execute the
//!   windows before it (the decode cost overlaps execution —
//!   [`ExecReport::decode_overlap_pct`]).
//!   [`Executor::replay`] takes a graph decoded beforehand and commits
//!   it whole before the crew starts; [`Executor::run_oneshot`] is
//!   decode-then-`replay` — PR 3's two phases, the apples-to-apples
//!   replay-throughput measurement and the shape the microbenches time.
//! - **Resident threads.** A run's workers are *roles* handed to a
//!   crew of process-lifetime threads (`runtime.rs`, DESIGN.md §15) and
//!   awaited; no thread is spawned or joined per run, and neither
//!   decoding nor a run deadline or cancel token adds one: the workers
//!   notice those at the stop check they already make (§11.3).
//! - **Lock-free scheduling.** Per-worker [`ChaseLev`](crate::ChaseLev)
//!   deques (owner LIFO, thief FIFO, batch stealing takes half) replace
//!   the mutexed ring; the one lock left on the task hot path is gone.
//!   The global ready queue is push-only by type
//!   ([`Injector`](crate::deque::Injector)): a batch of roots is
//!   claimed by one CAS. And a completion that readies successors keeps
//!   the last one for its own worker to run next, without a push and a
//!   pop, since the owner would have popped it straight back (the
//!   scheduler bypass, §13.1).
//! - **A locked instruction only where another thread can be racing.**
//!   A counter nobody can be counting down yet is published by a plain
//!   store; a pending list nobody can push onto any more is read, not
//!   swapped closed (§8.2).
//! - **Readiness.** Every task carries an atomic counter of producers
//!   still to finish; whichever atomic op lands it exactly on zero owns
//!   the push. A task no window has committed yet sits at a large
//!   sentinel `UNPUBLISHED`: producers that finish *before* their
//!   successor is even decoded simply decrement through the sentinel,
//!   and the window commit adds `pred_count − UNPUBLISHED` back — early
//!   release needs no blocking and no side lookups. A graph committed
//!   before the run has no such tasks: its counters start at the
//!   decoded producer counts.
//! - **Pending-release lists.** A producer's successor set is not fully
//!   known until later windows decode. Each task owns a lock-free
//!   pending list (CAS-push by the window committer); completion swaps
//!   the head with `CLOSED` and drains. A committer that observes
//!   `CLOSED` knows the producer already completed and drained, and
//!   counts the edge as satisfied itself — the exactly-once handshake
//!   (§8). It is the only way a completion finds its successors: a
//!   graph committed before the run arrives with every list already
//!   complete, linked in the order of the graph's successor rows. Once
//!   the last window has committed — from the start, for such a graph —
//!   the table is *sealed*: no committer is left to tell, and a drain
//!   reads its head instead of swapping it.
//! - **Two-phase window commits.** A window is committed privately and
//!   published once: first every edge of the window is registered —
//!   with plain stores when its producer is in the same, still
//!   unpublished window (it cannot have run, so nobody else can touch
//!   its list), through the handshake above otherwise — and only then
//!   are the window's tasks published, newest first: a task that waits
//!   only for still-unpublished producers gets its counter by a plain
//!   store, one an earlier window's drain may be counting down keeps
//!   the RMW. The window's roots are pushed last, in program order
//!   (§8.2).
//! - **Memory by what is committed.** The list nodes live in one slab
//!   sized to the edges runs register (`1.25 × operands`), with the rest
//!   of the proven `3 × operands` bound in an overflow segment nobody
//!   allocates until a commit crosses into it; a payload that never
//!   copies gets no arena and no copy buffers (§7).
//! - **Parking without storms.** Workers park on a condvar epoch, but
//!   wakes are throttled: a completion wakes one thief only when it
//!   banked *surplus* ready tasks (≥ 2), a window commit wakes
//!   everyone once per window, and the final completion wakes everyone
//!   once. PR 3 notified on every completion that released anything —
//!   on an oversubscribed host that was a futex storm dominating the
//!   replay.
//! - **Completion tickets** are taken *before* successor release, so
//!   the ticket sequence is a linearization of the dependency order by
//!   construction; [`TaskTrace::check_order`] checks it at the end of
//!   every run. The ticket counter doubles as the termination count:
//!   ticket `n−1` means every task has executed.
//!
//! With one worker there is no stealing and no ticket race, and the
//! order is a pure function of the queue discipline (own deque LIFO —
//! the held last task of a batch being the one a pop would have
//! returned — over injector FIFO, batch banking preserves root order,
//! a drain releases successors in the order its list holds them) —
//! bit-deterministic, and the determinism tests pin it across commits
//! for both front ends. A *streamed* one-worker run decodes on that
//! worker, only when it has nothing to run: there is no
//! decode-vs-execution race left, so whether a task arrives via the
//! injector or via a producer's pending list is decided by the trace
//! and the window size alone (`tests/streaming.rs`).

mod config;
mod decode;
mod parker;
mod release;
mod report;
mod shared;
mod worker;

pub use config::{CancelToken, ConfigError, ExecConfig};
pub use report::{ExecReport, WorkerStats};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use tss_obs::clock::{CpuStamp, Stamp};
use tss_obs::{Role as CpuRole, RoleCpu, WorkerObs};
use tss_trace::{OrderViolation, TaskId, TaskTrace};

use self::decode::DecodeShared;
use self::release::{StreamRelease, POISONED};
use self::shared::{Shared, CANCELLED, RUN_DEADLINE};
use self::worker::{worker_loop, WorkerExit};
use crate::fault::{panic_message, ExecError, FailurePolicy, FaultReport};
use crate::payload::shared_arena;
use crate::renamer::{RenameStats, Renamer, TaskGraph};
use crate::runtime::{self, Role};
use crate::sync::atomic::Ordering;

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

/// Where a run's graph comes from — the one thing that differs between
/// the entry points.
#[derive(Clone, Copy)]
enum FrontEnd<'g> {
    /// The workers rename the trace and commit it window by window, as
    /// decode steps between the tasks they execute ([`Executor::run`]).
    Stream,
    /// A graph decoded beforehand (in `decode_wall`), committed whole
    /// before the crew starts ([`Executor::replay`]).
    Graph { graph: &'g TaskGraph, decode_wall: Duration },
}

impl Executor {
    /// An executor with the given configuration (`window` is clamped
    /// to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is zero, or if `kill_worker` is set
    /// with fewer than two workers / an out-of-range index (a lone
    /// killed worker could never finish the run).
    pub fn new(mut config: ExecConfig) -> Self {
        if let Err(e) = config.check() {
            panic!("{e}");
        }
        config.window = config.window.max(1);
        Executor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Streams `trace` through the pipelined core: workers with nothing
    /// to run rename it window by window while the others execute the
    /// windows already committed.
    ///
    /// # Errors
    ///
    /// [`ExecError::TaskFailed`] under `FailFast`, `RunDeadline` past
    /// the run budget, `WorkerPanic` for a non-payload thread death,
    /// and `OracleViolation` if validation rejects the completion log.
    /// Task failures under `Quarantine` are *not* errors: they
    /// come back inside [`ExecReport::fault`].
    pub fn run(&self, trace: &TaskTrace) -> Result<ExecReport, ExecError> {
        self.pipeline(trace, FrontEnd::Stream)
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

    /// Replays an already-decoded graph (the two-phase shape without
    /// paying the decode: benchmark loops hoist it). `decode_wall` is
    /// reported as given.
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
        assert_eq!(graph.len(), trace.len(), "graph decoded from a different trace");
        self.pipeline(trace, FrontEnd::Graph { graph, decode_wall })
    }

    /// One run, whatever its entry point: build the shared state, let
    /// the front end put the graph into the release table — before the
    /// crew starts, or by decode steps its workers take — and run the
    /// workers until the last ticket.
    fn pipeline(&self, trace: &TaskTrace, front: FrontEnd<'_>) -> Result<ExecReport, ExecError> {
        let cfg = &self.config;
        // The submitter's two role clocks (DESIGN.md §12.6): set-up runs
        // to the crew hand-off, finish from the crew's return.
        // Zero-sized, and never read, in a NoopSink build.
        let mut cpu = RoleCpu::default();
        let setup = CpuStamp::now();
        let (release, decode) = match front {
            FrontEnd::Stream => {
                let operands: usize = trace.iter().map(|t| t.operands.len()).sum();
                let decode = DecodeShared::new(trace, cfg);
                (StreamRelease::new(trace.len(), operands), Some(decode))
            }
            FrontEnd::Graph { graph, .. } => (StreamRelease::from_graph(graph), None),
        };
        let shared = Shared::new(trace, release, decode, cfg);
        if let FrontEnd::Graph { graph, .. } = front {
            for r in graph.roots() {
                shared.injector.push(r as u32);
                // No Spawn events for roots: they are pushed by the
                // submitter before any worker role (and its ring)
                // exists, so their queue wait goes unmeasured —
                // sampling loss, not bias (DESIGN.md §12.3).
            }
        }
        let arena = self.arena();
        cpu.charge(CpuRole::Setup, setup);
        let started = Stamp::now();
        let crew = self.run_crew(&shared, arena);
        let exec_wall = started.elapsed();
        let (decode_wall, rename) = match front {
            FrontEnd::Stream => shared.front.as_ref().expect("a streamed run").finish(started),
            FrontEnd::Graph { graph, decode_wall } => (decode_wall, *graph.stats()),
        };
        let timing =
            RunTiming { decode_wall, exec_wall, streaming: shared.front.is_some(), rename };
        let finish = CpuStamp::now();
        let mut result = self.finish(trace, shared, timing, crew);
        if let Ok(ExecReport { obs: Some(obs), .. }) = &mut result {
            cpu.charge(CpuRole::Finish, finish);
            obs.role_cpu.merge(&cpu);
        }
        result
    }

    /// Runs one graph's workers, one per configured thread, on a crew
    /// leased from the resident runtime (DESIGN.md §15) and returns once
    /// all of them have. An empty graph has nothing to run and leases
    /// nothing.
    fn run_crew<'r>(&self, shared: &'r Shared<'_>, arena: &'r [u8]) -> CrewOut {
        let threads = self.config.threads;
        let mut exits: Vec<Option<WorkerExit>> = (0..threads).map(|_| None).collect();
        if shared.n > 0 {
            let mut roles: Vec<Role<'_>> = Vec::with_capacity(threads);
            let cfg = &self.config;
            for (w, exit) in exits.iter_mut().enumerate() {
                roles.push(Box::new(move || {
                    *exit = catch_unwind(AssertUnwindSafe(|| worker_loop(w, shared, arena, cfg)))
                        .map_err(|p| shared.note_infra_panic(panic_message(&*p)))
                        .ok();
                }));
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

    /// Only a payload that copies reads the source arena, and it
    /// borrows the process's one copy; every other run gets an empty
    /// slice — nothing built, nothing zero-filled (DESIGN.md §7).
    fn arena(&self) -> &'static [u8] {
        if self.config.payload.copies() {
            shared_arena()
        } else {
            &[]
        }
    }

    fn finish(
        &self,
        trace: &TaskTrace,
        shared: Shared<'_>,
        timing: RunTiming,
        crew: CrewOut,
    ) -> Result<ExecReport, ExecError> {
        let RunTiming { decode_wall, exec_wall, streaming, rename } = timing;
        let CrewOut { workers, worker_obs, workers_lost } = crew;
        // Error resolution order: infrastructure death first (nothing
        // else is trustworthy after an executor-bug panic, whatever
        // cause was recorded first), then the cause that stopped the
        // run, then a fail-fast task failure.
        let infra = shared.infra_panic.lock().expect("infra panic slot poisoned").take();
        if let Some(message) = infra {
            return Err(ExecError::WorkerPanic { message });
        }
        let completed = shared.next_ticket.load(Ordering::Acquire).min(shared.n);
        match shared.abort.load(Ordering::Acquire) {
            CANCELLED => return Err(ExecError::Cancelled { completed, tasks: shared.n }),
            RUN_DEADLINE => {
                return Err(ExecError::RunDeadline {
                    deadline: self.config.run_deadline.unwrap_or_default(),
                    completed,
                    tasks: shared.n,
                })
            }
            // Running, or a fail-fast abort, whose failure is logged
            // below (an infrastructure panic returned above).
            _ => {}
        }
        let mut failed =
            std::mem::take(&mut *shared.failures.lock().expect("failure log poisoned"));
        failed.sort_by_key(|f| f.task);
        if matches!(self.config.policy, FailurePolicy::FailFast) && !failed.is_empty() {
            return Err(ExecError::TaskFailed(failed.remove(0)));
        }
        // relaxed: order slots read after all workers joined
        let order: Vec<TaskId> =
            shared.order.iter().map(|s| s.load(Ordering::Relaxed) as TaskId).collect();
        assert_eq!(order.len(), trace.len(), "executor lost tasks");
        // The *full* log — failed and poisoned tasks included — must
        // linearize the dependency order: every task, whatever its fate,
        // took its ticket only after its producers took theirs. The
        // trace picks the algorithm (DESIGN.md §14.3).
        if let Err(v) = trace.check_order(&order) {
            return Err(ExecError::OracleViolation { detail: v.to_string() });
        }
        // relaxed: final status-array scan after all workers joined
        let poisoned: Vec<u32> = (0..shared.n as u32)
            .filter(|&t| shared.status[t as usize].load(Ordering::Relaxed) == POISONED)
            .collect();
        let fault = FaultReport { failed, poisoned, workers_lost };
        // Drain the per-worker sinks into the report (None in NoopSink
        // builds): histograms merge across workers, rings become
        // per-worker tracks.
        let obs = shared.obs.finish(worker_obs);
        Ok(ExecReport {
            benchmark: trace.name().to_string(),
            tasks: trace.len(),
            threads: self.config.threads,
            payload: self.config.payload,
            decode_wall,
            exec_wall,
            // A graph decoded beforehand overlapped nothing.
            decode_overlap_pct: if streaming && exec_wall > Duration::ZERO {
                let exec = exec_wall.as_secs_f64();
                100.0 * decode_wall.as_secs_f64().min(exec) / exec
            } else {
                0.0
            },
            streaming,
            order,
            workers,
            rename,
            validated: true,
            fault,
            obs,
        })
    }
}

/// What a run's front end measured, handed to `finish`.
struct RunTiming {
    decode_wall: Duration,
    exec_wall: Duration,
    streaming: bool,
    rename: RenameStats,
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
/// panicking ([`TaskTrace::check_order`]). No production code calls it:
/// every run checks its own log. It stays only because the frozen
/// benchmark's `probes.rs` imports it (ROADMAP item 1(d)).
///
/// # Errors
///
/// The first [`OrderViolation`] found.
pub fn check_order(trace: &TaskTrace, order: &[TaskId]) -> Result<(), OrderViolation> {
    trace.check_order(order)
}

/// Fixtures the unit tests of this module's files share.
#[cfg(test)]
mod testkit {
    use super::ExecConfig;
    use crate::fault::{fault_decision, FailurePolicy};
    use crate::payload::PayloadMode;
    use tss_trace::{OperandDesc, TaskTrace};

    pub fn diamond() -> TaskTrace {
        // 0 → {1, 2} → 3
        let mut tr = TaskTrace::new("diamond");
        let k = tr.add_kernel("k");
        tr.push_task(k, 10, vec![OperandDesc::output(0xA, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xB, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xA, 64), OperandDesc::output(0xC, 64)]);
        tr.push_task(k, 10, vec![OperandDesc::input(0xB, 64), OperandDesc::input(0xC, 64)]);
        tr
    }

    /// The diamond plus an independent task 4 (survives any quarantine
    /// of the diamond).
    pub fn diamond_plus_loner() -> TaskTrace {
        let mut tr = diamond();
        let k = tr.add_kernel("loner");
        tr.push_task(k, 10, vec![OperandDesc::output(0xD, 64)]);
        tr
    }

    /// A seed where, at `rate` ppm, task 0 faults and tasks `1..n` do
    /// not — found by scanning the pure `fault_decision` hash, so it is
    /// deterministic and survives any trace change.
    pub fn seed_failing_only_task0(rate: u32, n: u32) -> u64 {
        (0..10_000u64)
            .find(|&s| fault_decision(s, 0, rate) && (1..n).all(|t| !fault_decision(s, t, rate)))
            .expect("no qualifying seed in 10k")
    }

    pub fn chaos_cfg(rate_ppm: u32, seed: u64, policy: FailurePolicy) -> ExecConfig {
        ExecConfig {
            threads: 2,
            payload: PayloadMode::Faulty { rate_ppm, seed },
            policy,
            ..ExecConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::diamond;
    use super::*;
    use tss_trace::OperandDesc;

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

    #[test]
    #[should_panic(expected = "kill_worker")]
    fn kill_worker_requires_a_second_worker() {
        let _ =
            Executor::new(ExecConfig { threads: 1, kill_worker: Some(0), ..ExecConfig::default() });
    }
}
