//! Chaos-injection contract of the failure domain (DESIGN.md §11):
//! because every injected fault is a pure function of `(fault seed,
//! task)`, the *failure sets* of a run are predictable from
//! the trace alone — this suite recomputes them independently (via
//! `fault_decision` + the `DepGraph` reachability oracle) and pins the
//! executor to them across seeds × thread counts × rates × policies:
//!
//! - **Quarantine poisons exactly the successor cone.** Not one task
//!   more (over-poisoning silently discards healthy work), not one
//!   less (under-poisoning runs consumers of garbage).
//! - **Non-poisoned completions still linearize the oracle.** A chaos
//!   run is not an excuse for a misordered survivor.
//! - **Accounting reconciles.** `completed + failed + poisoned =
//!   tasks`, with the two sides counted by independent mechanisms
//!   (worker counters vs the final status scan).
//! - **One worker ⇒ bit-identical outcomes.** Same seed, same trace,
//!   same policy: two single-worker runs agree byte for byte on the
//!   completion log *and* the failure sets.

use proptest::prelude::*;
use std::time::Duration;
use tss_exec::fault::fault_decision;
use tss_exec::{
    CancelToken, ExecConfig, ExecError, Executor, FailurePolicy, PayloadMode, Renamer,
    TaskGraphBuilder,
};
use tss_trace::{DepGraph, TaskTrace};
use tss_workloads::{Benchmark, Scale};

/// Recomputes the failure sets the executor must produce: walk tasks in
/// id order (dependency edges always point forward), roll each
/// non-poisoned task with the same pure hash the executor uses, and
/// propagate the poison cone through the *oracle's* edges (`DepGraph`),
/// not the executor's renamer — an independent witness. Returns
/// `(failed, poisoned)`, both sorted.
fn expected_failure_sets(
    trace: &TaskTrace,
    oracle: &DepGraph,
    rate_ppm: u32,
    seed: u64,
) -> (Vec<u32>, Vec<u32>) {
    let n = trace.len();
    let mut cone = vec![false; n];
    let mut failed = Vec::new();
    for t in 0..n {
        if cone[t] {
            for &s in oracle.succs(t) {
                cone[s] = true;
            }
            continue;
        }
        if fault_decision(seed, t as u32, rate_ppm) {
            failed.push(t as u32);
            for &s in oracle.succs(t) {
                cone[s] = true;
            }
        }
    }
    let poisoned = (0..n).filter(|&t| cone[t]).map(|t| t as u32).collect();
    (failed, poisoned)
}

fn chaos_cfg(threads: usize, rate_ppm: u32, fault_seed: u64, policy: FailurePolicy) -> ExecConfig {
    ExecConfig {
        threads,
        payload: PayloadMode::Faulty { rate_ppm, seed: fault_seed },
        policy,
        ..ExecConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full matrix: seeds × {2,4,8} threads × rates × both
    /// policies × two-phase/streamed, against the independent oracle.
    #[test]
    fn chaos_runs_match_the_recomputed_failure_sets(
        fault_seed_raw in 0u32..10_000,
        thread_sel in 0u8..3,
        rate_sel in 0u8..3,
        policy_sel in 0..FailurePolicy::all().len(),
        bench_sel in 0u8..9,
        streamed_sel in 0u8..2,
    ) {
        let fault_seed = fault_seed_raw as u64;
        let streamed = streamed_sel == 1;
        let threads = [2usize, 4, 8][thread_sel as usize];
        let rate_ppm = [50_000u32, 200_000, 500_000][rate_sel as usize];
        let policy = FailurePolicy::all()[policy_sel];
        let bench = Benchmark::all()[bench_sel as usize];
        let trace = bench.trace(Scale::Small, 11);
        let oracle = DepGraph::from_trace(&trace);
        let (exp_failed, exp_poisoned) =
            expected_failure_sets(&trace, &oracle, rate_ppm, fault_seed);

        let exec = Executor::new(chaos_cfg(threads, rate_ppm, fault_seed, policy));
        let result = if streamed { exec.run(&trace) } else { exec.run_oneshot(&trace) };

        if policy == FailurePolicy::FailFast {
            // Fail-fast aborts at the first failure: with any expected
            // failure the run must error on a task whose roll the hash
            // says fails; with none it must be a clean report.
            match result {
                Ok(report) => {
                    prop_assert!(exp_failed.is_empty(),
                        "{bench}: expected failures {exp_failed:?} but the run succeeded");
                    prop_assert!(!report.fault.any());
                    prop_assert!(report.accounting_reconciles());
                    prop_assert!(oracle.validate_order(&report.order).is_ok());
                }
                Err(ExecError::TaskFailed(ft)) => {
                    prop_assert!(
                        fault_decision(fault_seed, ft.task, rate_ppm),
                        "{bench}: fail-fast surfaced task {} which the hash says succeeds",
                        ft.task
                    );
                }
                Err(e) => prop_assert!(false, "{bench}: unexpected error {e}"),
            }
            return Ok(());
        }

        let report = result.expect("quarantine runs complete");
        let got_failed: Vec<u32> = report.fault.failed.iter().map(|f| f.task).collect();
        prop_assert_eq!(&got_failed, &exp_failed,
            "{} at {} threads rate {} seed {}: failed set diverges",
            bench, threads, rate_ppm, fault_seed);
        prop_assert_eq!(&report.fault.poisoned, &exp_poisoned,
            "{} at {} threads rate {} seed {}: poison cone diverges from DepGraph reachability",
            bench, threads, rate_ppm, fault_seed);
        prop_assert!(report.accounting_reconciles(),
            "completed {} + failed {} + poisoned {} != tasks {}",
            report.completed(), report.fault.failed.len(),
            report.fault.poisoned.len(), report.tasks);
        // The completion log (which includes failed/poisoned tickets)
        // must still linearize the dependency oracle.
        prop_assert!(oracle.validate_order(&report.order).is_ok(),
            "{}: chaos completion log violates the oracle", bench);
        prop_assert_eq!(report.order.len(), trace.len());
    }
}

/// The renamer's `poison_cone` (what the executor propagates through)
/// and the `DepGraph` BFS (what this suite recomputes) are the same
/// closure on every benchmark — pinning that the two edge sets agree
/// on *reachability*, not just edge counts.
#[test]
fn renamer_poison_cone_matches_depgraph_reachability() {
    for bench in Benchmark::all() {
        let trace = bench.trace(Scale::Small, 5);
        let oracle = DepGraph::from_trace(&trace);
        let graph = Renamer::new().decode(&trace);
        // Seed a failure at every 7th task and compare closures.
        let failed: Vec<bool> = (0..trace.len()).map(|t| t % 7 == 3).collect();
        let cone = graph.poison_cone(&failed);
        let mut expect = vec![false; trace.len()];
        for t in 0..trace.len() {
            if failed[t] || expect[t] {
                for &s in oracle.succs(t) {
                    expect[s] = true;
                }
            }
        }
        assert_eq!(cone, expect, "{bench}: renamer cone != oracle reachability");
    }
}

/// One worker, same seed ⇒ the whole outcome is a pure function of the
/// inputs: completion log, failed set, poisoned set.
#[test]
fn single_worker_chaos_is_bit_deterministic() {
    let policy = FailurePolicy::Quarantine;
    for fault_seed in 0..16u64 {
        let trace = Benchmark::Cholesky.trace(Scale::Small, 11);
        let run = || {
            Executor::new(ExecConfig {
                threads: 1,
                payload: PayloadMode::Faulty { rate_ppm: 300_000, seed: fault_seed },
                policy,
                ..ExecConfig::default()
            })
            .run_oneshot(&trace)
            .expect("single-worker chaos run")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.order, b.order, "seed {fault_seed}: completion log drifted");
        assert_eq!(a.fault, b.fault, "seed {fault_seed}: failure accounting drifted");
    }
}

/// Failure sets are thread-count invariant (the interleaving is not):
/// the same seed at 1, 2, and 8 workers quarantines the same tasks.
#[test]
fn failure_sets_are_thread_count_invariant() {
    let trace = Benchmark::Stap.trace(Scale::Small, 11);
    let sets: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let r = Executor::new(chaos_cfg(threads, 200_000, 9, FailurePolicy::Quarantine))
                .run(&trace)
                .expect("quarantine run");
            let failed: Vec<u32> = r.fault.failed.iter().map(|f| f.task).collect();
            (failed, r.fault.poisoned)
        })
        .collect();
    assert_eq!(sets[0], sets[1], "1 vs 2 workers disagree on the failure sets");
    assert_eq!(sets[0], sets[2], "1 vs 8 workers disagree on the failure sets");
}

// ---------------------------------------------------------------------
// The scheduler bypass slot (DESIGN.md §13.1)
// ---------------------------------------------------------------------

/// `chains` independent chains of `len` tasks (an `inout` each on its
/// chain's object), chain by chain; every `leaf_every`-th link also
/// writes a buffer one leaf task, at the end of the trace, reads.
/// Completing a link readies its successor — which the executor
/// keeps in the completing worker's bypass slot and runs next, so on
/// these graphs nearly every task reaches its worker through the slot
/// and the deques hold little but leaves. `runtime` in cycles, for the
/// spin payload; `slow` names one task that spins a second instead.
fn chains(chains: u64, len: u64, leaf_every: u64, runtime: u64, slow: Option<u64>) -> TaskTrace {
    let mut b = TaskGraphBuilder::new("chains");
    let k = b.kernel("link");
    let mut leaves = Vec::new();
    for c in 0..chains {
        for i in 0..len {
            let id = c * len + i;
            let cycles = if slow == Some(id) { 3_200_000_000 } else { runtime };
            let link = b.task(k).runtime_cycles(cycles).inout(0xA000 + c * 0x100, 64);
            if leaf_every > 0 && i % leaf_every == 0 {
                leaves.push(0x10_0000 + id * 0x100);
                link.output(0x10_0000 + id * 0x100, 64).spawn();
            } else {
                link.spawn();
            }
        }
    }
    for buf in leaves {
        b.task(k).runtime_cycles(runtime).input(buf, 64).spawn();
    }
    b.build()
}

/// A quarantine cone that runs down a chain passes through the slot at
/// every link: the failed link's drain poisons its successor and holds
/// it, the held task is found poisoned by its status byte (the run is
/// tainted), and holds the next. The poisoned set is exactly the renamer's
/// `poison_cone` of the failed set — and both sets are the ones the
/// fault hash predicts — at one worker (where every link but the root
/// is a held task) and at two and four, streamed and two-phase.
#[test]
fn a_quarantine_cone_through_held_successors_is_exactly_the_poison_cone() {
    tss_exec::fault::install_quiet_hook();
    let trace = chains(3, 40, 3, 10, None);
    let oracle = DepGraph::from_trace(&trace);
    let graph = Renamer::new().decode(&trace);
    let rate_ppm = 30_000;
    for fault_seed in 0..12u64 {
        let (exp_failed, exp_poisoned) =
            expected_failure_sets(&trace, &oracle, rate_ppm, fault_seed);
        for threads in [1usize, 2, 4] {
            for streamed in [true, false] {
                let exec = Executor::new(chaos_cfg(
                    threads,
                    rate_ppm,
                    fault_seed,
                    FailurePolicy::Quarantine,
                ));
                let report = if streamed { exec.run(&trace) } else { exec.run_oneshot(&trace) }
                    .expect("quarantine run");
                let failed: Vec<u32> = report.fault.failed.iter().map(|f| f.task).collect();
                let mut mask = vec![false; trace.len()];
                failed.iter().for_each(|&t| mask[t as usize] = true);
                let cone: Vec<u32> = (0..trace.len() as u32)
                    .zip(graph.poison_cone(&mask))
                    .filter_map(|(t, poisoned)| poisoned.then_some(t))
                    .collect();
                let at = format!("seed {fault_seed}, {threads} workers, streamed {streamed}");
                assert_eq!(report.fault.poisoned, cone, "{at}: not TaskGraph::poison_cone");
                assert_eq!(
                    (&failed, &cone),
                    (&exp_failed, &exp_poisoned),
                    "{at}: not the hash's sets"
                );
                assert!(report.accounting_reconciles(), "{at}");
                assert!(oracle.validate_order(&report.order).is_ok(), "{at}");
            }
        }
    }
}

/// A worker killed between tasks dies holding the successor its one
/// completion readied (its first task is a chain's root: with nothing
/// but chains, deques hold nothing else). The slot goes back on its
/// deque and the survivor adopts the chain: no task is lost. A run
/// deadline is armed so that a lost task reads as an error here and not
/// as a hung suite — which also puts the slot through the watched lane.
#[test]
fn a_killed_worker_hands_its_held_successor_back() {
    let trace = chains(8, 60, 0, 3_200, None); // 1 µs a link
    let mut fired = false;
    for _ in 0..16 {
        let cfg = ExecConfig {
            threads: 2,
            kill_worker: Some(1),
            payload: PayloadMode::Spin { time_scale: 1.0 },
            run_deadline: Some(Duration::from_secs(20)),
            ..ExecConfig::default()
        };
        let report =
            Executor::new(cfg).run(&trace).expect("a task was lost with the killed worker");
        assert_eq!(report.completed(), trace.len());
        assert!(report.accounting_reconciles());
        if report.fault.workers_lost == 1 {
            assert_eq!(report.workers[1].executed, 1, "killed after its first completion");
            fired = true;
            break;
        }
    }
    assert!(fired, "the injected kill never fired in 16 runs");
}

/// Aborts with the slot in use, exact because a chain runs in one
/// order. Fail-fast: the failure the run reports is the first link the
/// fault hash fails — a held successor when it ran — and nothing after
/// it ran. Cancellation: the links before the slow one complete, the
/// slow one is stopped mid-payload and dropped with the run, so the
/// error counts exactly the links before it; the next run on the same
/// resident crew starts with an empty slot and completes.
#[test]
fn aborts_with_a_held_successor_reconcile() {
    tss_exec::fault::install_quiet_hook();
    let chain = chains(1, 64, 0, 10, None);
    let rate_ppm = 60_000;
    for fault_seed in 0..8u64 {
        let first = (0..64u32).find(|&t| fault_decision(fault_seed, t, rate_ppm));
        let result =
            Executor::new(chaos_cfg(2, rate_ppm, fault_seed, FailurePolicy::FailFast)).run(&chain);
        match (first, result) {
            (None, Ok(report)) => assert_eq!(report.completed(), 64),
            (Some(t), Err(ExecError::TaskFailed(f))) => assert_eq!(f.task, t),
            (first, other) => {
                panic!("seed {fault_seed}: first failing link {first:?}, got {other:?}")
            }
        }
    }

    let slow = 5u64;
    let stuck = chains(1, 64, 0, 3_200, Some(slow));
    let token = CancelToken::new();
    let cfg = ExecConfig {
        threads: 2,
        payload: PayloadMode::Spin { time_scale: 1.0 },
        cancel: Some(token.clone()),
        ..ExecConfig::default()
    };
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
    });
    match Executor::new(cfg.clone()).run(&stuck) {
        Err(ExecError::Cancelled { completed, tasks }) => {
            assert_eq!(
                (completed, tasks),
                (slow as usize, 64),
                "exactly the links before the slow one"
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    canceller.join().expect("canceller thread");
    let clean =
        Executor::new(ExecConfig { cancel: None, ..cfg }).run(&chains(1, 64, 0, 3_200, None));
    assert_eq!(clean.expect("run after a cancellation").completed(), 64);
}
