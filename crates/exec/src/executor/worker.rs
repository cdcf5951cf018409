//! The worker role: take a task, run its payload on the fast or the
//! guarded lane, take the completion ticket, release successors, and
//! when there is nothing to take, decode — on a streamed run — or park
//! (DESIGN.md §7, §8.2, §11, §13).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

// All wall-clock reads go through the tss-obs timestamp facade (tss-lint
// bans raw Instant::now() in this crate, DESIGN.md §12.1); the sinks
// are zero-sized no-ops unless the `obs` feature is on.
use tss_obs::clock::{CpuStamp, Stamp};
use tss_obs::{Role as CpuRole, SpanStamp, WorkerObs};
use tss_trace::TaskId;

use super::release::{FAILED, HEALTHY};
use super::shared::Shared;
use super::WorkerStats;
use crate::deque::BATCH_MAX;
use crate::fault::{panic_message, FailedTask, FailurePolicy, TaskFailure, INJECTED_PANIC_MARKER};
use crate::payload::{PayloadMode, PayloadScratch};
use crate::sched::{victims, SchedPolicy};
use crate::sync::atomic::{AtomicU32, Ordering};

/// What a completion hands its worker's loop, beside what it pushed:
/// the reused batch buffer, and the scheduler bypass slot (DESIGN.md
/// §13.1) — the last task of the batch, when the policy runs it next
/// anyway, kept here instead of pushed to the deque and popped straight
/// back through §8.1's fence. Worker-private: nobody can steal `next`,
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
        // into their done() check, and the watchdog out of its tick.
        shared.parker.wake_all();
        shared.wake_watchdog();
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
/// returns whether `cancel` stopped it early, or the panic it died of.
/// The guarded lane passes the run's abort flag; the fast lane passes
/// `None` and enters the same cancellable body with a flag nobody ever
/// sets.
#[inline]
fn run_payload<P: SchedPolicy>(
    t: u32,
    shared: &Shared<'_, P>,
    scratch: &mut PayloadScratch<'_>,
    cancel: Option<&AtomicU32>,
) -> Result<bool, Box<dyn Any + Send>> {
    match shared.payload {
        // No per-task clock reads on any path: busy time is accumulated
        // per burst by `worker_loop`, so noop runs still measure pure
        // decode + scheduling throughput. Nothing in this arm can panic
        // or touches the task record, so the fault-free noop lane is
        // byte-identical to the pre-§11 core.
        PayloadMode::Noop | PayloadMode::Faulty { .. } => Ok(false),
        // Real payloads run inside the containment boundary on every
        // lane: a panicking payload becomes a TaskFailure, never a dead
        // worker. catch_unwind's happy path is a few instructions
        // against payloads that busy-work for microseconds. Listed, not
        // `_`: a new payload must decide here whether it can panic.
        mode @ (PayloadMode::Spin { .. } | PayloadMode::Memcpy | PayloadMode::Mixed { .. }) => {
            let never = AtomicU32::new(0);
            let cancel = cancel.unwrap_or(&never);
            let task = shared.trace.task(t as TaskId);
            catch_unwind(AssertUnwindSafe(|| scratch.run_watched(mode, task, cancel).1))
        }
    }
}

/// The fault-free fast lane (DESIGN.md §11.4), and the switch onto the
/// guarded one.
fn run_task<P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, P>,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    out: &mut Released,
    wobs: &mut WorkerObs,
) {
    // relaxed: tainted poll; a poisoned task's delivery carries the flag
    // via the countdown/deque happens-before (DESIGN.md §11.4)
    if shared.guarded || shared.tainted.load(Ordering::Relaxed) != 0 {
        // Chaos, a run deadline or token, or an earlier failure: the
        // guarded lane owns poison checks, injection and the abort poll.
        return run_task_guarded(t, w, shared, scratch, stats, out, wobs);
    }
    // Sampled execution-latency span: a clock read only for 1-in-
    // SAMPLE_EVERY tasks on RingSink builds, nothing at all on NoopSink
    // builds (TaskStamp is zero-sized there).
    let tb = wobs.task_begin(t);
    match run_payload(t, shared, scratch, None) {
        Ok(_) => {
            stats.executed += 1;
            complete(t, w, shared, out, wobs, false);
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
            resolve_failure(t, w, shared, out, wobs, failure);
        }
    }
}

/// The guarded lane: poison check, fault injection, and a payload that
/// stops when the run does. Split from [`run_task`] so the fault-free
/// fast lane never pays for any of it.
fn run_task_guarded<P: SchedPolicy>(
    t: u32,
    w: usize,
    shared: &Shared<'_, P>,
    scratch: &mut PayloadScratch<'_>,
    stats: &mut WorkerStats,
    out: &mut Released,
    wobs: &mut WorkerObs,
) {
    // The status byte was stored before the countdown/publish that made
    // `t` ready, and the deque transfer carries it here (§11).
    if shared.status[t as usize].load(Ordering::Acquire) != HEALTHY {
        complete(t, w, shared, out, wobs, true);
        wobs.task_poisoned(t, &shared.obs);
        return;
    }
    let tb = wobs.task_begin(t);
    match attempt_payload(t, shared, scratch) {
        Ok(()) => {
            stats.executed += 1;
            complete(t, w, shared, out, wobs, false);
            wobs.task_end(t, tb, &shared.obs);
        }
        Err(AttemptError::Failed(failure)) => {
            // relaxed: tainted set on first failure; the failing task's
            // release edges publish it with the poison (DESIGN.md §11.4)
            shared.tainted.store(1, Ordering::Relaxed);
            resolve_failure(t, w, shared, out, wobs, failure);
        }
        Err(AttemptError::Aborted) => {}
    }
}

/// A task attempt's failure modes.
enum AttemptError {
    /// The payload panicked: the policy decides next.
    Failed(TaskFailure),
    /// The run is stopping (run deadline, fired token, fail-fast
    /// elsewhere, infrastructure panic): drop the task without
    /// completing or failing it; the worker loop exits on its next
    /// `stopping()` check.
    Aborted,
}

/// A payload panic caught at the containment boundary, as the failure
/// the policy resolves.
fn panicked(payload: Box<dyn Any + Send>) -> AttemptError {
    AttemptError::Failed(TaskFailure::Panicked { message: panic_message(&*payload) })
}

/// Runs task `t`'s payload once inside the containment boundary, with
/// fault injection, polling the run's abort flag: whatever stops the
/// run raises it ([`Shared::request_abort`]), so a payload in flight
/// stops with the run.
fn attempt_payload<P: SchedPolicy>(
    t: u32,
    shared: &Shared<'_, P>,
    scratch: &mut PayloadScratch<'_>,
) -> Result<(), AttemptError> {
    if shared.aborted() {
        return Err(AttemptError::Aborted);
    }
    if shared.plan.decide(t) {
        // Containment-boundary exercise: a real panic, caught exactly
        // where a payload panic would be. The marker keeps the process
        // panic hook quiet for expected chaos (fault::install_quiet_hook).
        let caught = catch_unwind(AssertUnwindSafe(|| {
            panic!("{INJECTED_PANIC_MARKER} task {t}");
        }));
        return caught.map_err(panicked);
    }
    match run_payload(t, shared, scratch, Some(&*shared.abort)) {
        Ok(false) => Ok(()),
        // Stopped by the abort flag, which is never lowered: the run is
        // ending, and the task neither completed nor failed.
        Ok(true) => Err(AttemptError::Aborted),
        Err(p) => Err(panicked(p)),
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
            shared.request_abort();
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
    seed: u64,
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
    let mut rng = seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F);
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
    let kill_after: u64 = match shared.plan.kill_worker {
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
        // (a task the idle path below ran may have held one back, so the
        // idle scans only ever start with the slot empty). No epoch or done
        // loads per task — those belong to the idle path. The burst is
        // clocked as one span: two clock reads however many tasks
        // drain, and the Burst ring event reuses exactly those two
        // stamps (zero extra reads, DESIGN.md §12.3).
        if let Some(t) = take_next(&mut out) {
            let burst = Stamp::now();
            let before = stats.executed;
            run_task(t, w, shared, &mut scratch, &mut stats, &mut out, &mut wobs);
            while stats.executed < kill_after {
                match take_next(&mut out) {
                    Some(t) => {
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
                let burst = Stamp::now();
                let before = stats.executed;
                run_task(t, w, shared, &mut scratch, &mut stats, &mut out, &mut wobs);
                let end = Stamp::now();
                stats.busy += end.since(burst);
                wobs.burst(burst, end, stats.executed - before, &shared.obs);
                if stats.executed >= kill_after {
                    abandon(&mut out);
                    close_spans(&mut wobs);
                    return WorkerExit::Killed(stats, wobs);
                }
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
                let parked = wobs.park_begin();
                shared.parker.park(epoch, || shared.stopping());
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
    use super::super::{ExecConfig, Executor};
    use crate::fault::{
        install_quiet_hook, ExecError, FailurePolicy, TaskFailure, INJECTED_PANIC_MARKER,
    };
    use crate::payload::PayloadMode;
    use tss_trace::{OperandDesc, TaskTrace};

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
}
