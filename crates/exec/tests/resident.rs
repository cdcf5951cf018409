//! Behaviour of runs on the resident runtime (DESIGN.md §15): the
//! crews are shared by everything in the process, so what one run does
//! to its crew — lose a worker, fail fast, blow a deadline, get
//! cancelled — must not be visible to the next one, concurrent callers
//! must not get in each other's way, an armed token must put no floor
//! under a run's latency, and an armed-but-unfired token must cost next
//! to nothing per task while still cancelling promptly.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use tss_exec::fault::install_quiet_hook;
use tss_exec::{
    CancelToken, ExecConfig, ExecError, ExecReport, Executor, FailurePolicy, PayloadMode,
    TaskGraphBuilder,
};
use tss_trace::TaskTrace;
use tss_workloads::{Benchmark, Scale};

/// The tests below reason about "the crew the previous run used" and
/// about latency; both need the process-wide runtime to themselves.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `n` independent tasks of `cycles` simulated cycles each.
fn independent(n: usize, cycles: u64) -> TaskTrace {
    let mut b = TaskGraphBuilder::new("independent");
    let k = b.kernel("k");
    for i in 0..n as u64 {
        b.task(k).runtime_cycles(cycles).output(0x1000 + i * 64, 64).spawn();
    }
    b.build()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn assert_clean(report: &ExecReport, trace: &TaskTrace, after: &str) {
    assert!(report.validated, "run after {after} was not validated");
    assert_eq!(report.completed(), trace.len(), "run after {after} lost tasks");
    assert!(!report.fault.any(), "run after {after} inherited failure state");
    assert!(report.accounting_reconciles(), "run after {after} does not reconcile");
}

#[test]
fn concurrent_callers_all_get_validated_reports() {
    let _serial = serial();
    let benches =
        [Benchmark::Cholesky, Benchmark::H264, Benchmark::Knn, Benchmark::Fft, Benchmark::Stap];
    let traces: Vec<TaskTrace> = benches.iter().map(|b| b.trace(Scale::Small, 5)).collect();
    let start = Barrier::new(traces.len());
    std::thread::scope(|s| {
        for (i, trace) in traces.iter().enumerate() {
            let start = &start;
            s.spawn(move || {
                let cfg = ExecConfig { threads: 2, seed: i as u64, ..ExecConfig::default() };
                let exec = Executor::new(cfg);
                start.wait();
                for round in 0..20 {
                    let report =
                        if round % 2 == 0 { exec.run(trace) } else { exec.run_oneshot(trace) }
                            .expect("concurrent run failed");
                    assert_eq!(report.benchmark, trace.name());
                    assert_clean(&report, trace, "a concurrent neighbour");
                }
            });
        }
    });
}

/// Each way a run can leave through the containment boundary, followed
/// by a clean run on the crew it just used (the tests are serialized
/// and the free list is LIFO, so it is the same resident threads): no
/// abort flag, deque content or dead thread may leak.
#[test]
fn the_crew_survives_every_way_a_run_can_end() {
    let _serial = serial();
    install_quiet_hook();
    let healthy = Benchmark::Cholesky.trace(Scale::Small, 9);
    let base = ExecConfig { threads: 2, ..ExecConfig::default() };
    let next_run_is_clean = |after: &str| {
        for streaming in [true, false] {
            let exec = Executor::new(base.clone());
            let report = if streaming { exec.run(&healthy) } else { exec.run_oneshot(&healthy) }
                .unwrap_or_else(|e| panic!("run after {after} failed: {e}"));
            assert_clean(&report, &healthy, after);
        }
    };

    // A worker role that leaves mid-run (its resident thread lives on).
    let spin_1us = independent(400, 3_200);
    let killed = ExecConfig {
        kill_worker: Some(1),
        payload: PayloadMode::Spin { time_scale: 1.0 },
        ..base.clone()
    };
    let mut fired = false;
    for _ in 0..16 {
        let report = Executor::new(killed.clone()).run(&spin_1us).expect("degraded run failed");
        assert_eq!(report.completed(), 400);
        next_run_is_clean("a lost worker");
        fired |= report.fault.workers_lost == 1;
    }
    assert!(fired, "the injected kill never fired in 16 runs");

    // Fail-fast: the run aborts with tasks still queued in its deques.
    let faulty = ExecConfig {
        payload: PayloadMode::Faulty { rate_ppm: 200_000, seed: 11 },
        policy: FailurePolicy::FailFast,
        ..base.clone()
    };
    match Executor::new(faulty).run(&healthy) {
        Err(ExecError::TaskFailed(f)) => assert!(f.task < healthy.len() as u32),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    next_run_is_clean("a fail-fast abort");

    // Run deadline: the workers' stop check aborts the run mid-payload.
    let one_second_each = independent(64, 3_200_000_000);
    let spin = PayloadMode::Spin { time_scale: 1.0 };
    let deadline =
        ExecConfig { payload: spin, run_deadline: Some(Duration::from_millis(20)), ..base.clone() };
    match Executor::new(deadline).run(&one_second_each) {
        Err(ExecError::RunDeadline { completed, tasks, .. }) => {
            assert_eq!(tasks, 64);
            assert!(completed < 64);
        }
        other => panic!("expected RunDeadline, got {other:?}"),
    }
    next_run_is_clean("a run-deadline abort");

    // A fired cancel token: same abort path, different cause. Every
    // real payload polls the run's stop check (DESIGN.md §11.3), so
    // they stop in flight: the run is back long before a one-second
    // payload could have finished on its own, well inside the
    // documented bound of one payload poll.
    let token = CancelToken::new();
    let cancelled = ExecConfig { payload: spin, cancel: Some(token.clone()), ..base.clone() };
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        Instant::now()
    });
    let result = Executor::new(cancelled).run(&one_second_each);
    let returned = Instant::now();
    match result {
        Err(ExecError::Cancelled { completed, tasks }) => {
            assert_eq!(tasks, 64);
            assert!(completed < 64);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let fired = canceller.join().expect("canceller thread");
    let latency = returned.saturating_duration_since(fired);
    assert!(latency < Duration::from_millis(500), "cancellation took {latency:?}");
    next_run_is_clean("a cancellation");
}

/// An armed token bounds cancellation latency, never completion
/// latency: a one-task run with an armed, unfired token is over in well
/// under 200 µs — the tick a polling timer would put under it — and
/// costs barely more than the same run unarmed.
#[test]
fn an_armed_token_is_not_a_latency_floor() {
    let _serial = serial();
    let one = independent(1, 10);
    let executor = |cancel: Option<CancelToken>| {
        let policy = FailurePolicy::Quarantine;
        Executor::new(ExecConfig { threads: 2, policy, cancel, ..ExecConfig::default() })
    };
    let pair = [executor(None), executor(Some(CancelToken::new()))];
    let timed_us = |exec: &Executor| {
        let t = Instant::now();
        let report = exec.run(&one).expect("one-task run failed");
        let spent = t.elapsed();
        assert!(report.validated && report.tasks == 1);
        spent.as_secs_f64() * 1e6
    };
    for exec in &pair {
        for _ in 0..50 {
            timed_us(exec); // warm-up: grows the crew
        }
    }
    let mut us = [Vec::new(), Vec::new()];
    for round in 0..200 {
        // Alternate which side goes first, so a host slow spell lands
        // on both sides alike instead of on whichever ran second.
        for side in [round % 2, 1 - round % 2] {
            us[side].push(timed_us(&pair[side]));
        }
    }
    let [unarmed, armed] = us.map(median);
    assert!(
        armed - unarmed < 100.0,
        "arming a token added {:.0} µs to a one-task run ({unarmed:.0} → {armed:.0} µs)",
        armed - unarmed
    );
    // The absolute figure only means something in an optimized build
    // without the RingSink's per-run ring allocation, which dwarfs a
    // one-task graph.
    if !cfg!(debug_assertions) && !tss_exec::obs_enabled() {
        assert!(armed < 200.0, "median armed one-task run took {armed:.0} µs (≥ 200 µs)");
    }
}

/// An armed, unfired token changes nothing a task does: the worker loop
/// loads it once per burst and before each park, never per task
/// (DESIGN.md §11.3), so a no-op Cholesky-paper run (30,856 tasks,
/// nothing but scheduling) costs what it costs unarmed. When a token
/// put every task on a guarded lane that read the clock, armed a
/// deadline slot and bumped a retry histogram the ratio was 1.33–1.40
/// (DESIGN.md §11.4). Optimized builds only: an unoptimized
/// task costs ~1.3 µs, which buries the ~50 ns in question (3–17% on
/// either commit).
#[test]
fn an_armed_token_costs_next_to_nothing_per_task() {
    let _serial = serial();
    let trace = Benchmark::Cholesky.trace(Scale::Paper, 3);
    let executor = |cancel: Option<CancelToken>| {
        let policy = FailurePolicy::Quarantine;
        Executor::new(ExecConfig { threads: 2, policy, cancel, ..ExecConfig::default() })
    };
    let pair = [executor(None), executor(Some(CancelToken::new()))];
    let timed = |exec: &Executor| {
        let t = Instant::now();
        let report = exec.run(&trace).expect("no-op run failed");
        let spent = t.elapsed().as_secs_f64();
        assert_clean(&report, &trace, "nothing");
        spent
    };
    for exec in &pair {
        timed(exec); // builds the memoized oracle, grows the crew
    }
    let mut secs = [Vec::new(), Vec::new()];
    for round in 0..30 {
        // Alternate which side goes first, so drift hits both alike.
        for side in [round % 2, 1 - round % 2] {
            secs[side].push(timed(&pair[side]));
        }
    }
    let [unarmed, armed] = secs.map(median);
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        armed / unarmed <= 1.20,
        "an armed token costs {:.0}% per task ({:.2} → {:.2} ms per run)",
        (armed / unarmed - 1.0) * 100.0,
        unarmed * 1e3,
        armed * 1e3,
    );
}
