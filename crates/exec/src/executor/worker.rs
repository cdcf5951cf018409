//! The worker role: take a task, run its payload, take the completion
//! ticket, release successors, and when there is nothing to take,
//! decode — on a streamed run — or park; between bursts, make the run's
//! stop check (DESIGN.md §7, §8.2, §11, §13).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

// All wall-clock reads go through the tss-obs timestamp facade (tss-lint
// bans raw Instant::now() in this crate, DESIGN.md §12.1); the sinks
// are zero-sized no-ops unless the `obs` feature is on.
use tss_obs::clock::{CpuStamp, Stamp};
use tss_obs::{Role as CpuRole, SpanStamp, WorkerObs};
use tss_trace::TaskId;

use super::release::{FAILED, HEALTHY};
use super::shared::{Shared, FAILED_FAST};
use super::{ExecConfig, WorkerStats};
use crate::deque::BATCH_MAX;
use crate::fault::{
    fault_decision, panic_message, FailedTask, FailurePolicy, TaskFailure, INJECTED_PANIC_MARKER,
};
use crate::payload::{PayloadMode, PayloadScratch};
use crate::sched::{victims, SchedPolicy};
use crate::sync::atomic::Ordering;

/// What a completion hands its worker's loop, beside what it pushed:
/// the reused batch buffer, and the scheduler bypass slot (DESIGN.md
/// §13.1) — the last task of the batch, when the policy runs it next
/// anyway, kept here instead of pushed to the deque and popped straight
/// back through §8.1's fence; or the task the idle path just claimed,
/// which opens the next burst. Worker-private: nobody can steal `next`,
/// so the loop takes it before anything else, and a worker that stops
/// between tasks ([`worker_loop`]'s kill) puts it back on its deque
/// first.
struct Released {
    batch: Vec<u32>,
    next: Option<u32>,
}

/// Takes the completion ticket for `t` and releases its successors —
/// healthily or (for a FAILED/POISONED `t`) with cone poisoning. Every
/// task, whatever its fate, takes a ticket: the ticket counter is the
/// termination count, and because a failed/poisoned task still only
/// completes after its producers, the *full* log (completed + failed +
/// poisoned) stays a valid `DepGraph` linearization.
fn complete<P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, P>,
    out: &mut Released,
    wobs: &mut WorkerObs,
    poisoned: bool,
) {
    let Released { batch: ready, next } = out;
    debug_assert!(next.is_none(), "the loop takes the held task before running another");
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
        shared.release.poison_release(t, &shared.status, ready);
    } else {
        shared.release.release(t, ready, &shared.obs);
    }
    let released = ready.len();
    // Scheduler bypass: under a policy whose owner would pop the last
    // task it pushes, that task is the one this worker runs next — it
    // skips the deque. A sampled one still leaves its Spawn event, so
    // the Task slice that follows pairs with a queue wait of ~zero.
    if shared.sched.runs_last_ready_next() {
        *next = ready.pop();
        if let Some(s) = *next {
            if tss_obs::sampled(s) {
                wobs.spawn(s, &shared.obs);
            }
        }
    }
    for &s in ready.iter() {
        shared.deques[w].push(s);
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
        // into their done() check.
        shared.parker.wake_all();
        wobs.wake(&shared.obs);
    } else if released >= 2 && shared.parker.has_idle() {
        // Surplus banked beyond what this worker immediately runs: one
        // thief's worth of news, one wake — not PR 3's per-completion
        // notify_all storm.
        shared.parker.wake_one();
        wobs.wake(&shared.obs);
    }
}

/// The executor's one payload dispatch: runs task `t`'s payload and
/// returns whether the run's stop check ([`Shared::poll_stop`]) stopped
/// it early, or the panic it died of. No per-task clock reads on any
/// arm: busy time is accumulated per burst by `worker_loop`, so no-op
/// runs measure pure decode + scheduling throughput.
#[inline]
fn run_payload<P: SchedPolicy>(
    t: u32,
    shared: &Shared<'_, P>,
    scratch: &mut PayloadScratch<'_>,
) -> Result<bool, Box<dyn Any + Send>> {
    match shared.payload {
        // Nothing here can panic or touches the task record.
        PayloadMode::Noop => Ok(false),
        // Containment-boundary exercise: the deterministic roll, and on
        // a hit a real panic, caught exactly where a payload panic would
        // be. The marker keeps the process panic hook quiet for expected
        // chaos (fault::install_quiet_hook).
        PayloadMode::Faulty { rate_ppm, seed } => catch_unwind(|| {
            if fault_decision(seed, t, rate_ppm) {
                panic!("{INJECTED_PANIC_MARKER} task {t}");
            }
            false
        }),
        // Real payloads run inside the containment boundary: a panicking
        // payload becomes a TaskFailure, never a dead worker, and one
        // that polls a stop is dropped. catch_unwind's happy path is a
        // few instructions against payloads that busy-work for
        // microseconds. Listed, not `_`: a new payload must decide here
        // whether it can panic.
        mode @ (PayloadMode::Spin { .. } | PayloadMode::Memcpy | PayloadMode::Mixed { .. }) => {
            let task = shared.trace.task(t as TaskId);
            catch_unwind(AssertUnwindSafe(|| {
                scratch.run_watched(mode, task, &|| shared.poll_stop()).1
            }))
        }
    }
}

/// Runs task `t`, the one lane every task takes (DESIGN.md §11.4), and
/// returns whether its worker's burst may go on: false once a payload
/// was stopped by the run's stop check — dropped, neither completed nor
/// failed, because the run is ending.
fn run_task<P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, P>,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    out: &mut Released,
    wobs: &mut WorkerObs,
) -> bool {
    // Only a failure poisons, and it taints the run first; the status
    // byte was stored before the countdown/publish that made `t` ready.
    // relaxed: tainted poll; a poisoned task's delivery carries the flag
    // via the countdown/deque happens-before (DESIGN.md §11.4)
    if shared.tainted.load(Ordering::Relaxed) != 0
        && shared.status[t as usize].load(Ordering::Acquire) != HEALTHY
    {
        complete(t, w, shared, out, wobs, true);
        wobs.task_poisoned(t, &shared.obs);
        return true;
    }
    // Sampled execution-latency span: a clock read only for 1-in-
    // SAMPLE_EVERY tasks on RingSink builds, nothing at all on NoopSink
    // builds (TaskStamp is zero-sized there).
    let tb = wobs.task_begin(t);
    match run_payload(t, shared, scratch) {
        Ok(false) => {
            stats.executed += 1;
            complete(t, w, shared, out, wobs, false);
            // After `complete`: the span covers payload + successor
            // release, the full service time a waiter observes.
            wobs.task_end(t, tb, &shared.obs);
            true
        }
        Ok(true) => false,
        Err(payload) => {
            // First failure of the run: taint (every later task checks
            // its status byte) and hand this task to the policy.
            // relaxed: tainted set on first failure; the failing task's
            // release edges publish it with the poison (DESIGN.md §11.4)
            shared.tainted.store(1, Ordering::Relaxed);
            let failure = TaskFailure::Panicked { message: panic_message(&*payload) };
            resolve_failure(t, w, shared, out, wobs, failure);
            true
        }
    }
}

/// Applies the failure policy to task `t`, whose payload failed with
/// `failure`: fail fast, or quarantine its successor cone.
fn resolve_failure<P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, P>,
    out: &mut Released,
    wobs: &mut WorkerObs,
    failure: TaskFailure,
) {
    if shared.aborted() {
        return;
    }
    shared.failures.lock().expect("failure log poisoned").push(FailedTask { task: t, failure });
    match shared.policy {
        FailurePolicy::FailFast => {
            // No ticket, no release: successors starve by design; the
            // abort flag (not the ticket count) ends the run.
            shared.request_abort(FAILED_FAST);
        }
        FailurePolicy::Quarantine => {
            // FAILED is stored before `complete`'s poison_release
            // closes the pending list, so the §11 publish hands the
            // byte to any later window commit.
            // relaxed: FAILED byte store; published by the subsequent
            // POISON_PUBLISH pending-close or countdown chain
            // (DESIGN.md §11.2)
            shared.status[t as usize].store(FAILED, Ordering::Relaxed);
            complete(t, w, shared, out, wobs, true);
            wobs.task_poisoned(t, &shared.obs);
        }
    }
}

/// How a worker role left the run. Either way it hands back its
/// counters and its observability sink (drained once the crew is done).
pub(super) enum WorkerExit {
    /// Normal exit: ran until termination (or abort).
    Finished(WorkerStats, WorkerObs),
    /// Injected worker kill: the role returned mid-run with work possibly
    /// still in its deque — the survivors adopt it via the thief
    /// protocol (the Chase-Lev top end needs no owner).
    Killed(WorkerStats, WorkerObs),
}

pub(super) fn worker_loop<P: SchedPolicy>(
    w: usize,
    shared: &Shared<'_, P>,
    arena: &[u8],
    cfg: &ExecConfig,
) -> WorkerExit {
    let mut stats = WorkerStats::default();
    let mut wobs = WorkerObs::new();
    // The whole-worker span guarantees every worker track carries at
    // least one event, even for a worker that never won a task; the
    // role clock beside it charges the loop's CPU, net of the decode
    // steps it took, to the workers' role (DESIGN.md §12.6). Both
    // close wherever the role returns.
    let span = SpanStamp::begin();
    let cpu = CpuStamp::now();
    let close_spans = |wobs: &mut WorkerObs| {
        wobs.worker_span(w as u32, span, &shared.obs);
        wobs.role_cpu_net(CpuRole::Workers, cpu);
    };
    let mut scratch = if shared.payload.copies() {
        PayloadScratch::new(arena)
    } else {
        PayloadScratch::without_buffers()
    };
    let mut out = Released { batch: Vec::with_capacity(64), next: None };
    let mut rng = cfg.seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let me = &shared.deques[w];
    // What this worker runs next: the task its last completion held
    // back (§13.1), else whatever the policy takes from its deque.
    let take_next = |out: &mut Released| out.next.take().or_else(|| shared.sched.take_local(me));
    // Victim scan order, refilled each idle scan (reused so the steady
    // state allocates nothing).
    let mut scan: Vec<usize> = Vec::with_capacity(shared.deques.len());
    // Injected worker loss: die *between* tasks after the first
    // completion — a clean kill (ticket taken, successors released), so
    // the run still terminates; only the parallelism degrades.
    let kill_after: u64 = match cfg.kill_worker {
        Some(k) if k == w => 1,
        _ => u64::MAX,
    };
    // What a killed role leaves behind: the task it held goes back on
    // its deque, where the survivors' steals adopt it with the rest,
    // and everyone is woken to rescan.
    let abandon = |out: &mut Released| {
        if let Some(t) = out.next.take() {
            me.push(t);
        }
        shared.parker.wake_all();
    };

    loop {
        // Fast path: drain the held task and the own deque depth-first
        // (the held task is the one the last completion held back, or
        // the one the idle path below claimed; the idle scans only ever
        // start with the slot empty). No epoch, done or stop loads per
        // task — those belong to the stop check after the burst. The burst is
        // clocked as one span: two clock reads however many tasks
        // drain, and the Burst ring event reuses exactly those two
        // stamps (zero extra reads, DESIGN.md §12.3). A payload the
        // run's stop stopped ends the burst.
        if let Some(t) = take_next(&mut out) {
            let burst = Stamp::now();
            let before = stats.executed;
            let mut go_on = run_task(t, w, shared, &mut scratch, &mut stats, &mut out, &mut wobs);
            while go_on && stats.executed < kill_after {
                match take_next(&mut out) {
                    Some(t) => {
                        go_on =
                            run_task(t, w, shared, &mut scratch, &mut stats, &mut out, &mut wobs)
                    }
                    None => break,
                }
            }
            let end = Stamp::now();
            stats.busy += end.since(burst);
            wobs.burst(burst, end, stats.executed - before, &shared.obs);
            if stats.executed >= kill_after {
                abandon(&mut out);
                close_spans(&mut wobs);
                return WorkerExit::Killed(stats, wobs);
            }
        }
        if shared.stopping() {
            break;
        }
        // Epoch before the scans: any push after a failed scan moves
        // the epoch and aborts the park (§8 Dekker pairing).
        let epoch = shared.parker.current_epoch();
        let task = shared.injector.claim_batch_into(me, BATCH_MAX).or_else(|| {
            // One random rotation over everyone else, under either
            // policy. The scan is *complete* — every deque is visited —
            // which the park/termination argument requires.
            victims(w, shared.deques.len(), &mut rng, &mut scan);
            scan.iter().find_map(|&victim| {
                let t = shared.deques[victim].steal_batch_into(me, BATCH_MAX);
                if t.is_some() {
                    stats.steals += 1;
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
                // The claimed task opens the next burst, which drains
                // the batch banked with it.
                out.next = Some(t);
            }
            None => {
                if shared.stopping() {
                    break;
                }
                // Nothing to run: decode before parking (§8.2). A
                // commit racing the park moves the epoch read above.
                if shared.front.as_ref().is_some_and(|front| front.step(shared, &mut wobs)) {
                    continue;
                }
                // The predicate reads the abort word only: whoever
                // raises it wakes every parked worker.
                let parked = wobs.park_begin();
                shared.parker.park(epoch, || shared.done() || shared.aborted());
                wobs.park(parked, &shared.obs);
            }
        }
    }
    close_spans(&mut wobs);
    WorkerExit::Finished(stats, wobs)
}

/// The failure domain end to end (DESIGN.md §11): what the lanes and
/// the policy resolution above do to a run's report.
#[cfg(test)]
mod tests {
    use super::super::testkit::{chaos_cfg, diamond, diamond_plus_loner, seed_failing_only_task0};
    use super::super::{CancelToken, ExecConfig, Executor};
    use crate::fault::{
        install_quiet_hook, ExecError, FailurePolicy, TaskFailure, INJECTED_PANIC_MARKER,
    };
    use crate::payload::PayloadMode;
    use std::time::Duration;
    use tss_obs::clock::Stamp;
    use tss_trace::{OperandDesc, TaskTrace};
    use tss_workloads::{Benchmark, Scale};

    #[test]
    fn fail_fast_surfaces_the_injected_panic_as_an_error() {
        install_quiet_hook();
        let cfg = chaos_cfg(1_000_000, 7, FailurePolicy::FailFast);
        match Executor::new(cfg).run(&diamond()) {
            Err(ExecError::TaskFailed(f)) => {
                assert_eq!(f.task, 0, "only the root was ever ready");
                let TaskFailure::Panicked { ref message } = f.failure;
                assert!(message.contains(INJECTED_PANIC_MARKER), "message: {message}");
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
                assert!(report.accounting_reconciles());
                assert!(report.validated, "full log (incl. poisoned) passed the oracle");
            }
        }
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

    /// The first stop check is the first attempt's, so a token that
    /// fired before the run stops it before any task completes — however
    /// short the graph.
    #[test]
    fn a_token_fired_before_the_run_completes_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let cfg = ExecConfig { threads: 2, cancel: Some(token), ..ExecConfig::default() };
        match Executor::new(cfg).run(&diamond_plus_loner()) {
            Err(ExecError::Cancelled { completed: 0, tasks: 5 }) => {}
            other => panic!("expected Cancelled with nothing complete, got {other:?}"),
        }
    }

    #[test]
    fn a_one_nanosecond_run_deadline_stops_a_no_op_run() {
        let trace = Benchmark::Cholesky.trace(Scale::Small, 1);
        let cfg = ExecConfig {
            threads: 2,
            run_deadline: Some(Duration::from_nanos(1)),
            ..ExecConfig::default()
        };
        match Executor::new(cfg).run(&trace) {
            Err(ExecError::RunDeadline { completed: 0, tasks, .. }) => {
                assert_eq!(tasks, trace.len());
            }
            other => panic!("expected RunDeadline with nothing complete, got {other:?}"),
        }
    }

    /// A chain of one-second payloads keeps three of four workers
    /// parked for the whole run: the one running the chain's current
    /// task is the only worker left to notice a stop, and it must, from
    /// inside the payload, then wake the others (DESIGN.md §11.3).
    #[test]
    fn one_unparked_worker_notices_the_stop_for_the_whole_crew() {
        let mut chain = TaskTrace::new("chain");
        let k = chain.add_kernel("k");
        for _ in 0..16 {
            // 1 s each at 3.2 GHz, each reading what the last one wrote.
            chain.push_task(k, 3_200_000_000, vec![OperandDesc::inout(0xA, 64)]);
        }
        let spin = ExecConfig {
            threads: 4,
            payload: PayloadMode::Spin { time_scale: 1.0 },
            ..ExecConfig::default()
        };
        let token = CancelToken::new();
        let cancelled = ExecConfig { cancel: Some(token.clone()), ..spin.clone() };
        let deadline = ExecConfig { run_deadline: Some(Duration::from_millis(20)), ..spin };
        let timed = |cfg| {
            let t0 = Stamp::now();
            let result = Executor::new(cfg).run(&chain);
            (result, t0.elapsed())
        };
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        });
        let (result, spent) = timed(cancelled);
        assert!(matches!(result, Err(ExecError::Cancelled { completed: 0, .. })), "{result:?}");
        assert!(spent < Duration::from_millis(520), "the cancellation took {spent:?}");
        canceller.join().expect("canceller thread");
        let (result, spent) = timed(deadline);
        assert!(matches!(result, Err(ExecError::RunDeadline { completed: 0, .. })), "{result:?}");
        assert!(spent < Duration::from_millis(520), "the run deadline took {spent:?}");
    }
}
